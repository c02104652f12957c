//! Live domain hot-swap: online extension upgrades with typed state
//! transfer and fault-driven rollback.
//!
//! SPIN extensions are dynamically linked into the kernel and reached
//! through events and nameserver bindings (§2, §3.1). This crate adds the
//! missing lifecycle piece: replacing a *running* extension with a new
//! version without dropping in-flight work. A swap runs a five-phase
//! protocol, every phase at a deterministic virtual instant:
//!
//! 1. **Quiesce** — close each affected event's gate
//!    ([`spin_core::GatedEvent::quiesce`]): new raises park in the bounded
//!    hold queue while raises already past the gate drain out
//!    ([`spin_core::GatedEvent::drain_in_flight`]).
//! 2. **Transfer** — run the typed `FnOnce(&Old) -> New` state transfer
//!    at the quiesced instant, inside an unwind containment with a
//!    deterministic fault-injection draw ([`spin_fault::SITE_SWAP`]).
//! 3. **Rebind** — atomically replace the old version's handlers
//!    ([`spin_core::Event::rebind`] — one generation bump per event).
//!    The rebind closure returns undo actions that make it reversible.
//! 4. **Resume** — reopen the gates; parked raises replay in the order
//!    they parked (each hold queue is an arrival-order FIFO) through the
//!    new version, so virtual outputs are byte-identical to an
//!    uninterrupted run wherever the new version is semantically identical.
//! 5. **Rollback** — if the transfer panics, fails, or blows its virtual
//!    `time_bound`, run the undo actions in reverse, resume through the
//!    *old* version, and attribute the fault to the old domain via the
//!    containment layer ([`spin_core::Containment::note_external_fault`])
//!    — no breaker strike, because the rollback *is* the containment
//!    action.
//!
//! The [`SwapSupervisor`] closes the loop with PR-3's containment: it
//! watches `Core.DomainFault` and queues a registered fallback swap for
//! the faulting domain. The fallback is deliberately *deferred* (run by
//! [`SwapSupervisor::pump`], not by the event handler): `Core.DomainFault`
//! is raised from inside the faulting raise, where `in_flight >= 1`, so
//! swapping inline would deadlock the quiesce drain against itself.

#![forbid(unsafe_code)]

use spin_check::hooks::HookSlot;
use spin_check::sync::{Counter, Mutex};
use spin_core::{panic_message, Containment, DomainFaultInfo};
use spin_core::{DispatchError, GatedEvent, Identity};
use spin_fault::{FaultHook, FaultPlan, Injection, SITE_SWAP};
use spin_obs::{Obs, ObsHook, TraceKind};
use spin_sal::{Clock, Cost, Nanos};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The protocol phase, traced as [`TraceKind::SwapPhase`] (`a` = the
/// ordinal below, `b` = a phase-specific count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapPhase {
    /// Gates closed, in-flight raises draining.
    Quiesce = 0,
    /// Typed state transfer running at the quiesced instant.
    Transfer = 1,
    /// Handlers and exports being replaced.
    Rebind = 2,
    /// Gates reopening, hold queues replaying.
    Resume = 3,
    /// Swap committed (`b` = raises replayed).
    Committed = 4,
    /// Swap rolled back (`b` = undo actions run).
    RolledBack = 5,
}

/// Why a swap was rolled back. The old version is serving again by the
/// time the caller sees one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwapError {
    /// The state transfer panicked (organic or injected at
    /// [`SITE_SWAP`]); the panic was contained.
    TransferPanicked {
        /// Best-effort extraction of the panic payload.
        message: String,
    },
    /// The state transfer was failed by deterministic injection.
    TransferFailed,
    /// The swap exceeded its virtual-time budget (measured from the
    /// quiesced instant).
    TimeBoundExceeded {
        /// The caller's budget.
        bound: Nanos,
        /// Virtual nanoseconds actually elapsed.
        elapsed: Nanos,
    },
    /// The rebind closure panicked. Undo actions from a partial rebind
    /// are not available, so the closure must itself be atomic (its
    /// building block, [`spin_core::Event::rebind`], is).
    RebindPanicked {
        /// Best-effort extraction of the panic payload.
        message: String,
    },
}

impl std::fmt::Display for SwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapError::TransferPanicked { message } => {
                write!(f, "state transfer panicked: {message}")
            }
            SwapError::TransferFailed => write!(f, "state transfer failed (injected)"),
            SwapError::TimeBoundExceeded { bound, elapsed } => {
                write!(f, "swap exceeded its time bound: {elapsed}ns > {bound}ns")
            }
            SwapError::RebindPanicked { message } => write!(f, "rebind panicked: {message}"),
        }
    }
}

impl std::error::Error for SwapError {}

/// One reversal step returned by a rebind closure, run in reverse order
/// on rollback (typically `Event::restore(receipt)` calls).
pub type UndoAction = Box<dyn FnOnce() + Send>;

/// What a committed swap did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapReport {
    /// Raises parked in hold queues at the commit point.
    pub held: u64,
    /// Raises replayed through the new version on resume.
    pub replayed: u64,
    /// Virtual nanoseconds from the quiesced instant to the end of the
    /// resume replay.
    pub drain_ns: Nanos,
}

/// A counter snapshot (also exported as `spin_swap_*` gauges via
/// [`SwapCoordinator::wire_obs`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwapStats {
    /// Swaps begun.
    pub attempted: u64,
    /// Swaps committed.
    pub committed: u64,
    /// Swaps rolled back.
    pub rolled_back: u64,
    /// Total virtual nanoseconds spent between quiesce and resume.
    pub drain_virtual_ns: u64,
    /// Raises replayed out of hold queues (commit and rollback resumes).
    pub held_replayed: u64,
}

struct CoordinatorInner {
    clock: Clock,
    attempted: Counter,
    committed: Counter,
    rolled_back: Counter,
    drain_ns: Counter,
    held_replayed: Counter,
    obs: HookSlot<ObsHook>,
    faults: HookSlot<FaultHook>,
    containment: HookSlot<Arc<Containment>>,
}

/// A quiesced set of events between [`SwapCoordinator::begin`] and
/// [`SwapCoordinator::complete`]. While a session is open, raises on its
/// gates park ([`DispatchError::Held`]) — the split lets a driver keep
/// traffic arriving at later virtual instants before committing, which is
/// exactly how the mid-storm benchmark fills the hold queue.
pub struct SwapSession {
    gates: Vec<Arc<dyn GatedEvent>>,
    /// The virtual instant at which every gate was closed and drained.
    gated_at: Nanos,
}

impl SwapSession {
    /// Raises currently parked across this session's hold queues.
    pub(crate) fn held_len(&self) -> u64 {
        self.gates.iter().map(|g| g.held_len() as u64).sum()
    }

    fn resume_all(&self) -> u64 {
        self.gates.iter().map(|g| g.resume()).sum()
    }
}

/// The hot-swap orchestrator: owns the protocol, the counters, and the
/// hooks into obs / fault injection / containment. Cheap to clone.
#[derive(Clone)]
pub struct SwapCoordinator {
    inner: Arc<CoordinatorInner>,
}

impl SwapCoordinator {
    /// A coordinator measuring drain durations on `clock` (share the
    /// dispatcher's clock so phase instants line up with dispatch costs).
    pub fn new(clock: Clock) -> SwapCoordinator {
        SwapCoordinator {
            inner: Arc::new(CoordinatorInner {
                clock,
                attempted: Counter::default(),
                committed: Counter::default(),
                rolled_back: Counter::default(),
                drain_ns: Counter::default(),
                held_replayed: Counter::default(),
                obs: HookSlot::new(),
                faults: HookSlot::new(),
                containment: HookSlot::new(),
            }),
        }
    }

    /// Wires phase tracing (the `swap` obs domain) and registers the
    /// `spin_swap_*` gauges on the `/metrics` route. Write-once: a second
    /// wiring is refused (`false`), so no gauge is registered twice.
    pub fn wire_obs(&self, obs: &Obs) -> bool {
        if !self.inner.obs.set(obs.domain("swap")) {
            return false;
        }
        type GaugeRead = fn(&CoordinatorInner) -> &Counter;
        let gauges: [(&str, GaugeRead); 5] = [
            ("swap_attempted_total", |i| &i.attempted),
            ("swap_committed_total", |i| &i.committed),
            ("swap_rolled_back_total", |i| &i.rolled_back),
            ("swap_drain_virtual_ns_total", |i| &i.drain_ns),
            ("swap_held_replayed_total", |i| &i.held_replayed),
        ];
        for (name, read) in gauges {
            let inner = self.inner.clone();
            obs.register_gauge(name, move || read(&inner).get());
        }
        true
    }

    /// Arms deterministic fault injection at [`SITE_SWAP`] (one draw per
    /// swap attempt, made at the start of the transfer phase).
    /// Write-once: `false` if a hook was already armed (it stays).
    pub fn set_fault_hook(&self, plan: &FaultPlan) -> bool {
        self.inner.faults.set(plan.hook(SITE_SWAP))
    }

    /// Wires rollback fault attribution: a rolled-back swap is noted
    /// against the old domain via
    /// [`Containment::note_external_fault`]. Write-once: `false` if one
    /// was already wired (it stays).
    pub fn set_containment(&self, containment: &Arc<Containment>) -> bool {
        self.inner.containment.set(containment.clone())
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SwapStats {
        let i = &self.inner;
        SwapStats {
            attempted: i.attempted.get(),
            committed: i.committed.get(),
            rolled_back: i.rolled_back.get(),
            drain_virtual_ns: i.drain_ns.get(),
            held_replayed: i.held_replayed.get(),
        }
    }

    fn trace(&self, phase: SwapPhase, b: u64) {
        if let Some(hook) = self.inner.obs.get() {
            hook.trace(TraceKind::SwapPhase, phase as u64, b);
        }
    }

    /// Phase 1: quiesce. Closes every gate, then waits out raises already
    /// past the gate check. Parking charges no virtual time, so the
    /// quiesced instant is deterministic.
    ///
    /// Must not be called from inside a handler of one of the gated
    /// events — the drain would wait on the caller's own raise.
    pub fn begin(&self, gates: Vec<Arc<dyn GatedEvent>>) -> SwapSession {
        self.inner.attempted.add(1);
        self.trace(SwapPhase::Quiesce, gates.len() as u64);
        for g in &gates {
            let _ = g.quiesce();
        }
        for g in &gates {
            let _ = g.drain_in_flight();
        }
        SwapSession {
            gates,
            gated_at: self.inner.clock.now(),
        }
    }

    /// Phases 2–5: transfer, rebind, resume — or rollback.
    ///
    /// `transfer` maps the old version's state to the new version's at the
    /// quiesced instant. `rebind` applies the replacement (handler rebinds,
    /// export rebinds) and returns the undo actions that reverse it.
    /// `time_bound` caps the whole swap in virtual nanoseconds measured
    /// from the instant the session's gates closed; overruns roll back.
    ///
    /// On any rollback the undo actions run in reverse, the gates resume
    /// through the old version, and the fault is attributed to
    /// `old_identity`.
    pub fn complete<Old, New>(
        &self,
        session: SwapSession,
        old_identity: &Identity,
        old: &Old,
        transfer: impl FnOnce(&Old) -> New,
        time_bound: Option<Nanos>,
        rebind: impl FnOnce(New) -> Vec<UndoAction>,
    ) -> Result<SwapReport, SwapError> {
        let held = session.held_len();
        self.trace(SwapPhase::Transfer, held);

        // One deterministic draw per attempt: Panic unwinds inside the
        // containment below, Delay charges virtual time against the
        // bound, Fail aborts the transfer outright.
        let injection = self.inner.faults.get().and_then(|h| h.draw());
        if matches!(injection, Some(Injection::Fail)) {
            return self.rollback(
                &session,
                old_identity,
                Vec::new(),
                SwapError::TransferFailed,
            );
        }
        if let Some(Injection::Delay(ns)) = injection {
            self.inner.clock.charge(Cost::Injected, ns);
        }
        let fire = if matches!(injection, Some(Injection::Panic)) {
            self.inner.faults.get()
        } else {
            None
        };
        let new_state = match catch_unwind(AssertUnwindSafe(|| {
            if let Some(hook) = &fire {
                hook.fire_panic();
            }
            transfer(old)
        })) {
            Ok(state) => state,
            Err(payload) => {
                return self.rollback(
                    &session,
                    old_identity,
                    Vec::new(),
                    SwapError::TransferPanicked {
                        message: panic_message(payload.as_ref()),
                    },
                )
            }
        };
        if let Some(err) = self.over_bound(&session, time_bound) {
            return self.rollback(&session, old_identity, Vec::new(), err);
        }

        self.trace(SwapPhase::Rebind, 0);
        let undos = match catch_unwind(AssertUnwindSafe(|| rebind(new_state))) {
            Ok(undos) => undos,
            Err(payload) => {
                return self.rollback(
                    &session,
                    old_identity,
                    Vec::new(),
                    SwapError::RebindPanicked {
                        message: panic_message(payload.as_ref()),
                    },
                )
            }
        };
        if let Some(err) = self.over_bound(&session, time_bound) {
            return self.rollback(&session, old_identity, undos, err);
        }

        self.trace(SwapPhase::Resume, held);
        let replayed = session.resume_all();
        let drain_ns = self.inner.clock.now().saturating_sub(session.gated_at);
        self.inner.drain_ns.add(drain_ns);
        self.inner.held_replayed.add(replayed);
        self.inner.committed.add(1);
        self.trace(SwapPhase::Committed, replayed);
        Ok(SwapReport {
            held,
            replayed,
            drain_ns,
        })
    }

    /// [`begin`](Self::begin) + [`complete`](Self::complete) back to back
    /// — the whole protocol at one virtual instant. The hold queue only
    /// fills if raisers race concurrently; drivers that park traffic
    /// between phases should use the split API.
    pub fn swap<Old, New>(
        &self,
        gates: Vec<Arc<dyn GatedEvent>>,
        old_identity: &Identity,
        old: &Old,
        transfer: impl FnOnce(&Old) -> New,
        time_bound: Option<Nanos>,
        rebind: impl FnOnce(New) -> Vec<UndoAction>,
    ) -> Result<SwapReport, SwapError> {
        let session = self.begin(gates);
        self.complete(session, old_identity, old, transfer, time_bound, rebind)
    }

    fn over_bound(&self, session: &SwapSession, time_bound: Option<Nanos>) -> Option<SwapError> {
        let bound = time_bound?;
        let elapsed = self.inner.clock.now().saturating_sub(session.gated_at);
        (elapsed > bound).then_some(SwapError::TimeBoundExceeded { bound, elapsed })
    }

    fn rollback(
        &self,
        session: &SwapSession,
        old_identity: &Identity,
        undos: Vec<UndoAction>,
        err: SwapError,
    ) -> Result<SwapReport, SwapError> {
        self.trace(SwapPhase::RolledBack, undos.len() as u64);
        for undo in undos.into_iter().rev() {
            undo();
        }
        let replayed = session.resume_all();
        self.inner.held_replayed.add(replayed);
        self.inner.rolled_back.add(1);
        if let Some(containment) = self.inner.containment.get() {
            containment.note_external_fault(old_identity);
        }
        Err(err)
    }
}

type Fallback = Box<dyn FnMut() + Send>;

struct SupervisorInner {
    pending: Mutex<Vec<String>>,
    fallbacks: Mutex<HashMap<String, Fallback>>,
}

/// Fault-triggered auto-swap: watches `Core.DomainFault` and queues the
/// registered fallback for each faulting domain.
///
/// Fallbacks are *deferred*: the `Core.DomainFault` handler only records
/// the domain, and [`SwapSupervisor::pump`] runs the fallbacks from the
/// driver loop. Swapping inside the handler would deadlock — the handler
/// runs within the faulting raise, so the quiesce drain would wait on a
/// raise that cannot finish until the handler returns.
#[derive(Clone)]
pub struct SwapSupervisor {
    inner: Arc<SupervisorInner>,
}

impl SwapSupervisor {
    /// Installs the watcher on `containment`'s `Core.DomainFault` event
    /// under the `swap-supervisor` kernel identity.
    pub fn install(containment: &Containment) -> Result<SwapSupervisor, DispatchError> {
        let sup = SwapSupervisor {
            inner: Arc::new(SupervisorInner {
                pending: Mutex::new(Vec::new()),
                fallbacks: Mutex::new(HashMap::new()),
            }),
        };
        let inner = sup.inner.clone();
        containment.domain_fault_event().install(
            Identity::kernel("swap-supervisor"),
            move |info: &DomainFaultInfo| {
                inner.pending.lock().push(info.domain.clone());
            },
        )?;
        Ok(sup)
    }

    /// Registers (or replaces) the fallback swap for `domain` — typically
    /// a closure that runs [`SwapCoordinator::swap`] down to a known-good
    /// version.
    pub fn register_fallback(&self, domain: &str, action: impl FnMut() + Send + 'static) {
        self.inner
            .fallbacks
            .lock()
            .insert(domain.to_string(), Box::new(action));
    }

    /// Faulting domains recorded since the last [`pump`](Self::pump), in
    /// fault order.
    pub fn pending(&self) -> Vec<String> {
        self.inner.pending.lock().clone()
    }

    /// Runs the registered fallback for each pending faulting domain (in
    /// fault order) and returns how many ran. Domains with no registered
    /// fallback are dropped — containment already handled them.
    pub fn pump(&self) -> usize {
        let pending = std::mem::take(&mut *self.inner.pending.lock());
        let mut fallbacks = self.inner.fallbacks.lock();
        let mut ran = 0;
        for domain in pending {
            if let Some(action) = fallbacks.get_mut(&domain) {
                action();
                ran += 1;
            }
        }
        ran
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spin_core::ContainmentPolicy;
    use spin_core::{BlockedInStep, Constraints, DispatchError, Dispatcher, Event, InstallSpec};
    use spin_fault::SiteConfig;

    fn rig() -> (Clock, Dispatcher, Event<u32, u32>, Identity, Identity) {
        let d = Dispatcher::unmetered();
        let clock = d.clock().clone();
        let owner_id = Identity::kernel("net");
        let (ev, _owner) = d.define::<u32, u32>("Swap.Packet", owner_id.clone());
        let v1 = Identity::extension("fwd-v1");
        ev.install(v1.clone(), |x| x + 1).unwrap();
        (clock, d, ev, owner_id, v1)
    }

    /// A rebind closure swapping v1 handlers for a v2 built from the
    /// transferred state, returning the undo that restores v1.
    fn rebind_to_v2(
        ev: &Event<u32, u32>,
        owner_id: &Identity,
        v1: &Identity,
        bias: u32,
    ) -> Vec<UndoAction> {
        let receipt = ev
            .rebind(
                owner_id,
                v1,
                vec![InstallSpec {
                    installer: Identity::extension("fwd-v2"),
                    handler: Arc::new(move |x: &u32| x + bias),
                    guards: Vec::new(),
                    constraints: Constraints::default(),
                }],
            )
            .unwrap();
        let ev = ev.clone();
        let owner_id = owner_id.clone();
        vec![Box::new(move || {
            ev.restore(&owner_id, receipt).unwrap();
        })]
    }

    #[test]
    fn commit_swaps_version_and_replays_parked_raises() {
        let (clock, d, ev, owner_id, v1) = rig();
        let coord = SwapCoordinator::new(clock);
        let obs = Obs::new(64);
        coord.wire_obs(&obs);

        assert_eq!(ev.raise(1), Ok(2));
        let session = coord.begin(vec![Arc::new(ev.clone())]);
        assert!(matches!(ev.raise(5), Err(DispatchError::Held { .. })));
        assert_eq!(session.held_len(), 1);

        let old_state = 90u32;
        let report = coord
            .complete(
                session,
                &v1,
                &old_state,
                |old| *old + 10, // v2 bias derived from v1 state
                None,
                |bias| rebind_to_v2(&ev, &owner_id, &v1, bias),
            )
            .unwrap();
        assert_eq!(report.held, 1);
        assert_eq!(report.replayed, 1);
        assert_eq!(ev.raise(1), Ok(101));
        let stats = coord.stats();
        assert_eq!(
            (stats.attempted, stats.committed, stats.rolled_back),
            (1, 1, 0)
        );
        assert_eq!(stats.held_replayed, 1);
        let exact = d.stats(&ev).unwrap();
        let hold = ev.hold_stats().unwrap();
        assert_eq!(hold.held, 1);
        assert_eq!(hold.replayed, 1);
        // Reconciliation: every attempt is a completed raise or parked.
        assert_eq!(exact.raises, 3);
        // Metrics render includes the swap gauges.
        let page = obs.render_prometheus();
        assert!(page.contains("spin_swap_committed_total 1"));
        assert!(page.contains("spin_swap_attempted_total 1"));
    }

    #[test]
    fn a_second_hook_or_wiring_is_refused_and_the_first_stays() {
        let (clock, d, ev, owner_id, v1) = rig();
        let coord = SwapCoordinator::new(clock);
        let obs = Obs::new(64);
        assert!(coord.wire_obs(&obs));
        assert!(!coord.wire_obs(&Obs::new(64)), "a second wiring");
        let panics = FaultPlan::new(7);
        panics.configure(SITE_SWAP, SiteConfig::panic_always());
        assert!(coord.set_fault_hook(&panics));
        assert!(!coord.set_fault_hook(&FaultPlan::new(8)), "a second hook");
        let containment = Containment::install(&d, None, ContainmentPolicy::default());
        assert!(coord.set_containment(&containment));
        let other = Containment::install(&d, None, ContainmentPolicy::default());
        assert!(!coord.set_containment(&other), "a second containment");
        // The first hook fires and the first containment is charged.
        let session = coord.begin(vec![Arc::new(ev.clone())]);
        let err = coord
            .complete(
                session,
                &v1,
                &0u32,
                |_| unreachable!("the first hook panics before the transfer"),
                None,
                |_: u32| rebind_to_v2(&ev, &owner_id, &v1, 100),
            )
            .unwrap_err();
        assert!(matches!(err, SwapError::TransferPanicked { .. }));
        assert_eq!(containment.faults_seen(), 1);
        assert_eq!(other.faults_seen(), 0);
        // The first wiring's gauges, registered once.
        let page = obs.render_prometheus();
        let rows = page
            .lines()
            .filter(|l| l.starts_with("spin_swap_rolled_back_total"));
        assert_eq!(rows.collect::<Vec<_>>(), ["spin_swap_rolled_back_total 1"]);
    }

    #[test]
    fn injected_transfer_panic_rolls_back_to_old_version() {
        let (clock, d, ev, owner_id, v1) = rig();
        let coord = SwapCoordinator::new(clock);
        let plan = FaultPlan::new(7);
        plan.configure(SITE_SWAP, SiteConfig::panic_always());
        coord.set_fault_hook(&plan);
        let containment = Containment::install(&d, None, ContainmentPolicy::default());
        coord.set_containment(&containment);

        let session = coord.begin(vec![Arc::new(ev.clone())]);
        assert!(matches!(ev.raise(5), Err(DispatchError::Held { .. })));
        let err = coord
            .complete(
                session,
                &v1,
                &0u32,
                |_| unreachable!("injected panic fires before the transfer body"),
                None,
                |_: u32| rebind_to_v2(&ev, &owner_id, &v1, 100),
            )
            .unwrap_err();
        assert!(matches!(err, SwapError::TransferPanicked { .. }));
        // Old version serving again; the parked raise replayed through it.
        assert_eq!(ev.raise(1), Ok(2));
        let stats = coord.stats();
        assert_eq!((stats.committed, stats.rolled_back), (0, 1));
        assert_eq!(stats.held_replayed, 1);
        assert_eq!(containment.faults_seen(), 1);
        assert_eq!(plan.injected_panics(), 1);
    }

    #[test]
    fn a_transfer_that_blocks_in_a_step_is_reported_by_name() {
        let (clock, _d, ev, owner_id, v1) = rig();
        let blocks = |_: &u32| -> u32 { std::panic::panic_any(BlockedInStep { op: "sleep" }) };
        let err = SwapCoordinator::new(clock)
            .swap(
                vec![Arc::new(ev.clone())],
                &v1,
                &0u32,
                blocks,
                None,
                |bias| rebind_to_v2(&ev, &owner_id, &v1, bias),
            )
            .unwrap_err();
        let message = "`sleep` inside a run-to-completion strand".to_string();
        assert_eq!(err, SwapError::TransferPanicked { message });
    }

    #[test]
    fn time_bound_overrun_after_rebind_reverses_the_undo_chain() {
        let (clock, _d, ev, owner_id, v1) = rig();
        let coord = SwapCoordinator::new(clock.clone());
        let err = coord
            .swap(
                vec![Arc::new(ev.clone())],
                &v1,
                &0u32,
                |_| 100u32,
                Some(10),
                |bias| {
                    // A slow warm-up inside the rebind blows the budget.
                    clock.charge(Cost::Work, 5_000);
                    rebind_to_v2(&ev, &owner_id, &v1, bias)
                },
            )
            .unwrap_err();
        assert!(matches!(
            err,
            SwapError::TimeBoundExceeded {
                bound: 10,
                elapsed: 5_000
            }
        ));
        // The undo restored v1 before resume.
        assert_eq!(ev.raise(1), Ok(2));
        assert_eq!(coord.stats().rolled_back, 1);
    }

    #[test]
    fn injected_delay_charges_the_bound_before_rebind() {
        let (clock, _d, ev, owner_id, v1) = rig();
        let coord = SwapCoordinator::new(clock);
        let plan = FaultPlan::new(3);
        plan.configure(
            SITE_SWAP,
            SiteConfig {
                delay_every: 1,
                delay_ns: 7_500,
                ..SiteConfig::default()
            },
        );
        coord.set_fault_hook(&plan);
        let err = coord
            .swap(
                vec![Arc::new(ev.clone())],
                &v1,
                &0u32,
                |_| 100u32,
                Some(1_000),
                |bias| rebind_to_v2(&ev, &owner_id, &v1, bias),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            SwapError::TimeBoundExceeded {
                bound: 1_000,
                elapsed: 7_500
            }
        ));
        assert_eq!(ev.raise(1), Ok(2));
    }

    #[test]
    fn supervisor_defers_fallback_to_pump() {
        let d = Dispatcher::unmetered();
        let containment = Containment::install(&d, None, ContainmentPolicy::default());
        let sup = SwapSupervisor::install(&containment).unwrap();
        let ran = Arc::new(Counter::default());
        let ran2 = ran.clone();
        sup.register_fallback("bad-ext", move || {
            ran2.add(1);
        });

        containment
            .domain_fault_event()
            .raise(DomainFaultInfo {
                domain: "bad-ext".to_string(),
                trips: 1,
                at: 0,
                quarantined: false,
            })
            .unwrap();
        containment
            .domain_fault_event()
            .raise(DomainFaultInfo {
                domain: "no-fallback".to_string(),
                trips: 1,
                at: 0,
                quarantined: false,
            })
            .unwrap();
        // Nothing runs inside the raise; the fallback waits for the pump.
        assert_eq!(ran.get(), 0);
        assert_eq!(sup.pending(), vec!["bad-ext", "no-fallback"]);
        assert_eq!(sup.pump(), 1);
        assert_eq!(ran.get(), 1);
        assert!(sup.pending().is_empty());
        assert_eq!(sup.pump(), 0);
    }
}
