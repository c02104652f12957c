//! Per-domain resource quotas: overload containment for a multi-tenant
//! kernel.
//!
//! SPIN's protection model isolates extension *namespaces*; nothing in the
//! paper stops a greedy extension from exhausting the *shared* resources —
//! dispatcher bandwidth, mailbox slots, handler virtual time — and
//! collapsing latency for every other domain. This module is the
//! reproduction's answer (in the spirit of Rex's runtime
//! resource-exhaustion defenses and Tock's per-client grants): a
//! per-domain ledger of counter blocks, each behind the one lock its
//! domain's window already needed, with declarative [`QuotaSpec`] budgets,
//! enforced at the kernel's existing choke points:
//!
//! * **`Event::raise` / `raise_batch`** — admission control. An event
//!   bound to a metered domain consults [`QuotaCell::admit`] before any
//!   virtual time is charged; a raise past the window's virtual-time
//!   budget gets a typed [`DispatchError::Throttled`] (or
//!   [`DispatchError::Shed`]) instead of queueing without bound. Raises
//!   in flight are counted, not bounded.
//! * **`spin_sal::Mailbox::post`** — bounded per-lane occupancy. A quota
//!   gate refuses posts past the budget; the sender side retries through
//!   [`post_with_backpressure`], charging a doubling virtual-time penalty
//!   per refused attempt (the `net::rpc` backoff shape: 50 µs doubling,
//!   four attempts).
//! * **`sched::executor`** — a window-based virtual-time throttle. A
//!   domain that burns its window budget is *demoted* rather than
//!   starved: while [`QuotaCell::deferred`] says so, the executor's quota
//!   hook enqueues its strands at a deferred priority of the hook's
//!   choosing; the next window restores it.
//!
//! Escalation reuses the containment ladder: repeated throttle trips in
//! one window move the domain to **shedding** (deterministic drops with a
//! typed error and counter); repeated sheds move it to **quarantine**.
//! Both transitions are reported through the ledger's escalation sink —
//! [`QuotaLedger::wire_containment`] routes them to the PR-3
//! [`Containment`](crate::fault::Containment) breaker (obs attribution,
//! quarantine purge + export revocation, and a `Core.DomainFault` raise
//! that the PR-7 `SwapSupervisor` can answer with a degraded-mode
//! fallback swap).
//!
//! **The cost-model invariant.** An event with no quota cell bound pays
//! nothing for the ledger (the cell is a field of the plan it snapshots
//! anyway) and *nothing* touches the virtual clock; Tables 2/5/6 are
//! byte-identical with the machinery compiled in but unarmed
//! (`invariance_matrix` in `spin-bench`). Every armed decision — window
//! rolls, trips, shedding, demotion — is a pure function of virtual-time
//! state, so 1/2/4-worker multicore runs stay byte-identical
//! (`s9_overload`).
//!
//! **One lock per cell.** A cell's counts and its window are one value
//! behind one mutex: every operation counts and decides in one critical
//! section, so a [`QuotaCell::snapshot`] — one lock and a copy — closes
//! its books exactly at every instant, not only between operations. Side
//! effects stay outside the lock: the fault draw before it, the
//! `QuotaBreach` trace and the escalation sink after it (DESIGN.md
//! decision 21).

use crate::error::DispatchError;
use crate::fault::Containment;
use crate::identity::Identity;
use spin_check::hooks::HookSlot;
use spin_check::sync::{Arc, Mutex, Weak};
use spin_fault::{FaultHook, Injection};
use spin_obs::{Obs, ObsHook, TraceKind};
use spin_sal::{Clock, Cost, Mailbox, Nanos};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Declarative per-domain budgets. A field of `0` means *unlimited* (that
/// axis is unmetered); the default spec meters nothing, so registering a
/// domain is free until a budget is set. Raises in flight are counted
/// (`QuotaSnapshot::in_flight`) but not bounded: admission refuses on the
/// window, never on concurrency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QuotaSpec {
    /// Pending mailbox envelopes per lane owned by the domain.
    pub max_lane_occupancy: u64,
    /// The budget window (virtual nanoseconds). `0` disables window
    /// accounting (and with it shedding escalation and executor
    /// demotion).
    pub window: Nanos,
    /// Cumulative synchronous handler virtual time the domain may charge
    /// per window.
    pub window_vt_budget: Nanos,
    /// Throttle trips within one window that escalate the domain to
    /// shedding. `0` = never shed.
    pub shed_after_trips: u32,
    /// Sheds while shedding that escalate to quarantine. `0` = never
    /// quarantine.
    pub quarantine_after_sheds: u32,
}

/// Where a domain sits on the escalation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaState {
    /// Under budget (or merely throttling individual raises).
    Normal,
    /// Over the trip budget: every raise is deterministically dropped
    /// with [`DispatchError::Shed`] until the window rolls.
    Shedding,
    /// Past the shed budget: dropped until a supervisor calls
    /// [`QuotaCell::release`].
    Quarantined,
}

/// How an admission refusal surfaces to the raiser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaVerdict {
    /// Over budget; retry after a release or window roll.
    Throttled,
    /// Shedding or quarantined; the raise was deliberately dropped.
    Shed,
}

impl QuotaVerdict {
    /// Maps the verdict to the dispatcher's typed error.
    pub fn into_error(self, event: &str, domain: &str) -> DispatchError {
        match self {
            QuotaVerdict::Throttled => DispatchError::Throttled {
                name: event.to_string(),
                domain: domain.to_string(),
            },
            QuotaVerdict::Shed => DispatchError::Shed {
                name: event.to_string(),
                domain: domain.to_string(),
            },
        }
    }
}

/// One escalation crossing, delivered to the ledger's sink.
#[derive(Debug, Clone)]
pub struct QuotaBreach {
    /// The metered domain's registered name.
    pub domain: String,
    /// Virtual time of the crossing.
    pub at: Nanos,
    /// The state entered ([`QuotaState::Shedding`] or
    /// [`QuotaState::Quarantined`]).
    pub entered: QuotaState,
}

/// The ledger's escalation callback, invoked with no quota lock held.
type EscalationSink = Arc<dyn Fn(&QuotaBreach) + Send + Sync>;

/// A point-in-time copy of one domain's ledger counters. The
/// reconciliation identity the proptest and the `s9_overload` bench hold
/// exact — in every snapshot, because a snapshot and every operation take
/// the same lock: `attempts == admitted + throttled + shed + held` and
/// `admitted == completed + in_flight`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QuotaSnapshot {
    /// Raise attempts that reached the admission gate or the hold queue.
    pub attempts: u64,
    /// Attempts admitted to dispatch.
    pub admitted: u64,
    /// Admitted dispatches that completed (released their slot).
    pub completed: u64,
    /// Attempts refused with [`QuotaVerdict::Throttled`].
    pub throttled: u64,
    /// Attempts refused with [`QuotaVerdict::Shed`].
    pub shed: u64,
    /// Attempts parked in a quiesce hold queue (replays re-enter as fresh
    /// attempts).
    pub held: u64,
    /// Throttle trips charged to the ladder.
    pub trips: u64,
    /// Escalation crossings (shedding or quarantine entries).
    pub breaches: u64,
    /// Currently admitted, not yet completed.
    pub in_flight: u64,
    /// Total synchronous dispatch virtual time charged.
    pub vt_charged: Nanos,
    /// Mailbox posts refused by the occupancy gate.
    pub mail_refused: u64,
    /// Mailbox posts abandoned after the backoff budget.
    pub mail_shed: u64,
}

struct Window {
    start: Nanos,
    vt: Nanos,
    trips: u32,
    sheds: u32,
    state: QuotaState,
}

impl Window {
    /// A fresh window opening at `start`: nothing charged, on the ladder's
    /// first rung.
    fn starting(start: Nanos) -> Window {
        Window {
            start,
            vt: 0,
            trips: 0,
            sheds: 0,
            state: QuotaState::Normal,
        }
    }
}

/// Everything a cell counts and decides, behind its one lock.
struct CellState {
    counts: QuotaSnapshot,
    window: Window,
}

/// One domain's resource ledger: its counters and windowed escalation
/// state under one lock. Created by [`QuotaLedger::register`]; bound to
/// events with `Event::bind_quota`.
///
/// A cell holds strongly only what can never hold a cell: the fault site
/// every admission draws from, shared with its ledger. The trace domain
/// and the escalation sink can (the obs gauges hold cells, a containment
/// sink holds the dispatcher whose plans do), so the ledger owns them and
/// a refusal reaches them through `ledger`.
pub struct QuotaCell {
    name: Arc<str>,
    ord: u32,
    spec: QuotaSpec,
    state: Mutex<CellState>,
    faults: Arc<HookSlot<FaultHook>>,
    ledger: Weak<LedgerInner>,
}

impl QuotaCell {
    /// The domain name this cell meters.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cell's dense ledger ordinal (stamped into `QuotaBreach` trace
    /// records).
    pub fn ord(&self) -> u32 {
        self.ord
    }

    /// Admission control for one raise at virtual time `now`. `Ok(())`
    /// counts the raise in flight until the caller completes it with
    /// [`QuotaCell::complete`]; `Err` is a refusal already counted on the
    /// ladder. Pure function of virtual-time state — no clock charge.
    pub fn admit(&self, now: Nanos) -> Result<(), QuotaVerdict> {
        // The `core.quota` injection site, drawn before the lock: a Fail
        // is a spurious throttle, a Delay holds the window's charge longer
        // (delayed budget release), a Panic is contained right here at the
        // admission edge and then counted as a throttle.
        let (mut forced, mut delay) = (false, 0);
        if let Some(hook) = self.faults.get() {
            match hook.draw() {
                Some(Injection::Fail) => forced = true,
                Some(Injection::Panic) => {
                    let _ = catch_unwind(AssertUnwindSafe(|| hook.fire_panic()));
                    forced = true;
                }
                Some(Injection::Delay(ns)) => delay = ns,
                None => {}
            }
        }
        let refused = {
            let mut st = self.state.lock();
            st.counts.attempts += 1;
            // Roll first: a delay drawn by the admission that opens a
            // window is charged to that window, not the discarded one.
            self.roll(&mut st.window, now);
            st.window.vt = st.window.vt.saturating_add(delay);
            if forced || self.restricted(&st.window) {
                Some(self.ladder_refuse(&mut st))
            } else {
                st.counts.admitted += 1;
                st.counts.in_flight += 1;
                None
            }
        };
        match refused {
            None => Ok(()),
            Some((verdict, entered)) => {
                self.report(entered, now);
                Err(verdict)
            }
        }
    }

    /// Completes a raise admitted by [`admit`] and charges `vt` of
    /// synchronous dispatch virtual time to the window.
    ///
    /// [`admit`]: QuotaCell::admit
    pub fn complete(&self, vt: Nanos) {
        let mut st = self.state.lock();
        st.counts.completed += 1;
        st.counts.in_flight -= 1;
        st.counts.vt_charged += vt;
        st.window.vt = st.window.vt.saturating_add(vt);
    }

    /// Books one raise parked in a quiesce hold queue (it replays as a
    /// fresh attempt on resume).
    pub fn note_held(&self) {
        let mut st = self.state.lock();
        st.counts.attempts += 1;
        st.counts.held += 1;
    }

    /// Executor-side throttle probe: `true` while the domain should run
    /// on its deferred lane (over the window's virtual-time budget, or
    /// shedding/quarantined). Pure function of virtual-time state.
    pub fn deferred(&self, now: Nanos) -> bool {
        let mut st = self.state.lock();
        self.roll(&mut st.window, now);
        self.restricted(&st.window)
    }

    /// Mailbox-gate probe: whether a post on a lane already holding
    /// `pending` envelopes is admitted. Refusals are counted.
    fn admit_post(&self, pending: u64) -> bool {
        let max = self.spec.max_lane_occupancy;
        let refused = max > 0 && pending >= max;
        if refused {
            self.state.lock().counts.mail_refused += 1;
        }
        !refused
    }

    /// Books a post abandoned after the sender's backoff budget.
    fn note_mail_shed(&self) {
        self.state.lock().counts.mail_shed += 1;
    }

    /// The ladder position at virtual time `now`.
    pub fn state(&self, now: Nanos) -> QuotaState {
        let mut st = self.state.lock();
        self.roll(&mut st.window, now);
        st.window.state
    }

    /// Supervisor override: lifts a quarantine (or shedding) back to
    /// normal and restarts the window at `now`.
    pub fn release(&self, now: Nanos) {
        self.state.lock().window = Window::starting(now);
    }

    /// A copy of the counters (see [`QuotaSnapshot`] for the identity).
    pub fn snapshot(&self) -> QuotaSnapshot {
        self.state.lock().counts
    }

    /// Rolls the window forward to cover `now`, resetting the per-window
    /// budgets and decaying shedding back to normal (demote, don't
    /// starve). Quarantine never decays — only [`release`] lifts it.
    ///
    /// [`release`]: QuotaCell::release
    fn roll(&self, w: &mut Window, now: Nanos) {
        let window = self.spec.window;
        if window == 0 || now < w.start + window {
            return;
        }
        let elapsed = (now - w.start) / window;
        w.start += elapsed * window;
        w.vt = 0;
        w.trips = 0;
        if w.state == QuotaState::Shedding {
            w.state = QuotaState::Normal;
            w.sheds = 0;
        }
    }

    /// Whether the window holds the domain back: shedding or quarantined,
    /// or over its virtual-time budget.
    fn restricted(&self, w: &Window) -> bool {
        w.state != QuotaState::Normal
            || (self.spec.window_vt_budget > 0 && w.vt >= self.spec.window_vt_budget)
    }

    /// One step down the ladder, counted, under the cell lock: returns the
    /// verdict and the state entered (if this refusal crossed a
    /// boundary).
    fn ladder_refuse(&self, st: &mut CellState) -> (QuotaVerdict, Option<QuotaState>) {
        let w = &mut st.window;
        let (verdict, entered) = match w.state {
            QuotaState::Quarantined => (QuotaVerdict::Shed, None),
            QuotaState::Shedding => {
                w.sheds += 1;
                if self.spec.quarantine_after_sheds > 0
                    && w.sheds >= self.spec.quarantine_after_sheds
                {
                    w.state = QuotaState::Quarantined;
                    (QuotaVerdict::Shed, Some(QuotaState::Quarantined))
                } else {
                    (QuotaVerdict::Shed, None)
                }
            }
            QuotaState::Normal => {
                w.trips += 1;
                if self.spec.shed_after_trips > 0 && w.trips >= self.spec.shed_after_trips {
                    w.state = QuotaState::Shedding;
                    w.sheds = 0;
                    (QuotaVerdict::Throttled, Some(QuotaState::Shedding))
                } else {
                    (QuotaVerdict::Throttled, None)
                }
            }
        };
        let c = &mut st.counts;
        match verdict {
            QuotaVerdict::Throttled => {
                c.throttled += 1;
                c.trips += 1;
            }
            QuotaVerdict::Shed => c.shed += 1,
        }
        if entered.is_some() {
            c.breaches += 1;
        }
        (verdict, entered)
    }

    /// The side effects of one refusal, with no quota lock held: its
    /// `QuotaBreach` trace and, for a crossing, the escalation sink.
    fn report(&self, entered: Option<QuotaState>, now: Nanos) {
        let ledger = self.ledger.upgrade();
        if let Some(obs) = ledger.as_ref().and_then(|l| l.obs.get()) {
            let level = match entered {
                Some(QuotaState::Quarantined) => 3,
                Some(_) => 2,
                None => 1,
            };
            obs.trace(TraceKind::QuotaBreach, self.ord as u64, level);
        }
        let Some(entered) = entered else { return };
        if let Some(sink) = ledger.as_ref().and_then(|l| l.escalation.get()) {
            sink(&QuotaBreach {
                domain: self.name.to_string(),
                at: now,
                entered,
            });
        }
    }
}

struct CellRegistry {
    list: Vec<Arc<QuotaCell>>,
    by_name: HashMap<String, u32>,
}

struct LedgerInner {
    cells: Mutex<CellRegistry>,
    obs: HookSlot<ObsHook>,
    escalation: HookSlot<EscalationSink>,
    /// The `core.quota` fault-injection site (spurious throttles,
    /// delayed releases), shared with every cell.
    faults: Arc<HookSlot<FaultHook>>,
}

/// The kernel-wide quota registry: one [`QuotaCell`] per metered domain,
/// dense and idempotent like `spin_obs::Accounting`. Cheap to clone.
#[derive(Clone)]
pub struct QuotaLedger {
    inner: Arc<LedgerInner>,
}

impl Default for QuotaLedger {
    fn default() -> Self {
        Self::new()
    }
}

impl QuotaLedger {
    /// An empty ledger.
    pub fn new() -> QuotaLedger {
        QuotaLedger {
            inner: Arc::new(LedgerInner {
                cells: Mutex::new(CellRegistry {
                    list: Vec::new(),
                    by_name: HashMap::new(),
                }),
                obs: HookSlot::new(),
                escalation: HookSlot::new(),
                faults: Arc::default(),
            }),
        }
    }

    /// Registers (or finds) the cell metering `name`. Idempotent: a
    /// second registration returns the existing cell and ignores the new
    /// spec, matching `Accounting::register`.
    pub fn register(&self, name: &str, spec: QuotaSpec) -> Arc<QuotaCell> {
        let mut reg = self.inner.cells.lock();
        if let Some(&ord) = reg.by_name.get(name) {
            return reg.list[ord as usize].clone();
        }
        let ord = reg.list.len() as u32;
        let cell = Arc::new(QuotaCell {
            name: Arc::from(name),
            ord,
            spec,
            state: Mutex::new(CellState {
                counts: QuotaSnapshot::default(),
                window: Window::starting(0),
            }),
            faults: self.inner.faults.clone(),
            ledger: Arc::downgrade(&self.inner),
        });
        reg.by_name.insert(name.to_string(), ord);
        reg.list.push(cell.clone());
        drop(reg);
        if let Some(obs) = self.inner.obs.get() {
            Self::register_gauges(obs.obs(), &cell);
        }
        cell
    }

    /// The cell metering `name`, if registered.
    pub fn get(&self, name: &str) -> Option<Arc<QuotaCell>> {
        let reg = self.inner.cells.lock();
        reg.by_name
            .get(name)
            .map(|&ord| reg.list[ord as usize].clone())
    }

    /// Every registered cell, in registration order.
    pub fn cells(&self) -> Vec<Arc<QuotaCell>> {
        self.inner.cells.lock().list.clone()
    }

    /// Installs the escalation sink. One-shot.
    fn set_escalation_sink(&self, sink: EscalationSink) {
        self.inner.escalation.set(sink);
    }

    /// Wires the `core.quota` fault-injection site. One-shot; with the
    /// plan disabled each metered admission pays one relaxed load.
    pub fn set_fault_hook(&self, hook: FaultHook) {
        self.inner.faults.set(hook);
    }

    /// Wires observability: `QuotaBreach` trace records under the
    /// `quota` domain, plus per-domain `spin_quota_*` gauges for every
    /// cell (current and future). One-shot; charges zero virtual time.
    pub fn wire_obs(&self, obs: &Obs) {
        if !self.inner.obs.set(obs.domain("quota")) {
            return;
        }
        for cell in self.cells() {
            Self::register_gauges(obs, &cell);
        }
    }

    fn register_gauges(obs: &Obs, cell: &Arc<QuotaCell>) {
        type Read = fn(&QuotaCell) -> u64;
        let gauges: [(&str, Read); 6] = [
            ("quota_in_flight", |c| c.snapshot().in_flight),
            ("quota_held", |c| c.snapshot().held),
            ("quota_shed", |c| c.snapshot().shed),
            ("quota_throttle_trips", |c| c.snapshot().trips),
            ("quota_mail_refused", |c| c.snapshot().mail_refused),
            ("quota_breaches", |c| c.snapshot().breaches),
        ];
        for (metric, read) in gauges {
            let cell = cell.clone();
            obs.register_gauge(
                &format!("{}{{domain=\"{}\"}}", metric, cell.name()),
                move || read(&cell),
            );
        }
    }

    /// Routes escalations into the PR-3 containment ladder: a shedding
    /// domain is attributed an external fault and `Core.DomainFault` is
    /// raised (so a supervisor — e.g. the PR-7 `SwapSupervisor` — can
    /// fallback-swap it to a degraded build); a quarantined domain is
    /// additionally purged from the dispatcher and its exports revoked.
    /// One-shot (installs the escalation sink).
    pub fn wire_containment(&self, containment: &Arc<Containment>) {
        let containment = containment.clone();
        self.set_escalation_sink(Arc::new(move |breach| {
            let who = Identity::extension(&breach.domain);
            containment.report_overload(&who, breach.at, breach.entered == QuotaState::Quarantined);
        }));
    }

    /// Installs the per-lane occupancy gate on a mailbox: posts on a lane
    /// assigned to a metered domain are refused past that domain's
    /// `max_lane_occupancy`. Unassigned lanes are never refused. `false`
    /// if the mailbox already had a gate (which stays).
    pub fn install_mailbox_gate(
        &self,
        mailbox: &Mailbox,
        lanes: Vec<(u64, Arc<QuotaCell>)>,
    ) -> bool {
        let map: HashMap<u64, Arc<QuotaCell>> = lanes.into_iter().collect();
        mailbox.set_quota_gate(move |lane, pending| match map.get(&lane) {
            Some(cell) => cell.admit_post(pending),
            None => true,
        })
    }
}

/// [`post_with_backpressure`]'s penalty for the first refused attempt,
/// in virtual time; it doubles per refusal (the `net::rpc` retry shape),
/// so four attempts charge at most 400 µs.
const BASE_PENALTY: Nanos = 50_000;
/// Post attempts (initial + retries) before the post is shed.
const ATTEMPTS: u32 = 4;

/// Outcome of [`post_with_backpressure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostOutcome {
    /// The envelope was posted on attempt `attempts` (1-based).
    Posted { attempts: u32 },
    /// Every attempt found the lane over budget (or the mailbox dropped
    /// the envelope); counted in [`QuotaSnapshot::mail_shed`].
    Shed { attempts: u32 },
}

/// Posts `action` for delivery `deliver_gap` after the current virtual
/// time, honouring the domain's lane-occupancy budget with exponential
/// backoff: each refused attempt charges the *sender* a
/// doubling virtual-time penalty (the `net::rpc` retry shape) — 50, 100,
/// 200 and 400 µs — and re-probes; the fourth refusal sheds the post.
/// Deterministic: the outcome is a pure function of virtual time and
/// mailbox state.
pub fn post_with_backpressure(
    cell: &QuotaCell,
    clock: &Clock,
    mailbox: &Mailbox,
    deliver_gap: Nanos,
    lane: u64,
    action: impl FnOnce(Nanos) + Send + 'static,
) -> PostOutcome {
    let mut penalty = BASE_PENALTY;
    let mut action = Some(action);
    for attempt in 1..=ATTEMPTS {
        if cell.admit_post(mailbox.lane_pending(lane)) {
            let a = action.take().expect("action unconsumed until first post");
            if mailbox.post(clock.now() + deliver_gap, lane, a) {
                return PostOutcome::Posted { attempts: attempt };
            }
            // The mailbox's own hook (fault injection) or the gate
            // dropped it; the envelope is gone — shed.
            cell.note_mail_shed();
            return PostOutcome::Shed { attempts: attempt };
        }
        // Refused, and counted: the sender pays the penalty and retries
        // later.
        clock.charge(Cost::Penalty, penalty);
        penalty *= 2;
    }
    cell.note_mail_shed();
    PostOutcome::Shed { attempts: ATTEMPTS }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metered(spec: QuotaSpec) -> (QuotaLedger, Arc<QuotaCell>) {
        let ledger = QuotaLedger::new();
        let cell = ledger.register("tenant", spec);
        (ledger, cell)
    }

    #[test]
    fn window_budget_rolls_on_virtual_time() {
        let (_l, cell) = metered(QuotaSpec {
            window: 1_000,
            window_vt_budget: 100,
            ..QuotaSpec::default()
        });
        assert_eq!(cell.admit(0), Ok(()));
        cell.complete(150); // over the window budget
        assert_eq!(cell.admit(10), Err(QuotaVerdict::Throttled));
        // The next window restores the budget.
        assert_eq!(cell.admit(1_000), Ok(()));
        cell.complete(1);
    }

    #[test]
    fn ladder_escalates_throttle_to_shed_to_quarantine() {
        let (_l, cell) = metered(QuotaSpec {
            window: 1_000_000,
            window_vt_budget: 100,
            shed_after_trips: 2,
            quarantine_after_sheds: 2,
            ..QuotaSpec::default()
        });
        assert_eq!(cell.admit(0), Ok(()));
        cell.complete(100); // spends the window's budget
        assert_eq!(cell.admit(1), Err(QuotaVerdict::Throttled)); // trip 1
        assert_eq!(cell.state(1), QuotaState::Normal);
        assert_eq!(cell.admit(2), Err(QuotaVerdict::Throttled)); // trip 2 → shedding
        assert_eq!(cell.state(2), QuotaState::Shedding);
        assert_eq!(cell.admit(3), Err(QuotaVerdict::Shed)); // shed 1
        assert_eq!(cell.admit(4), Err(QuotaVerdict::Shed)); // shed 2 → quarantine
        assert_eq!(cell.state(4), QuotaState::Quarantined);
        // Quarantine does not decay with the window.
        assert_eq!(cell.admit(5_000_000), Err(QuotaVerdict::Shed));
        cell.release(5_000_000);
        assert_eq!(cell.state(5_000_000), QuotaState::Normal);
        let s = cell.snapshot();
        assert_eq!(s.throttled, 2);
        assert_eq!(s.shed, 3);
        assert_eq!(s.breaches, 2);
        assert_eq!(s.attempts, s.admitted + s.throttled + s.shed + s.held);
    }

    #[test]
    fn shedding_decays_when_the_window_rolls() {
        let (_l, cell) = metered(QuotaSpec {
            window: 1_000,
            window_vt_budget: 10,
            shed_after_trips: 1,
            ..QuotaSpec::default()
        });
        assert_eq!(cell.admit(0), Ok(()));
        cell.complete(50);
        assert_eq!(cell.admit(1), Err(QuotaVerdict::Throttled)); // trip → shedding
        assert_eq!(cell.state(2), QuotaState::Shedding);
        assert!(cell.deferred(2));
        assert_eq!(cell.state(1_500), QuotaState::Normal, "window roll decays");
        assert!(!cell.deferred(1_500));
    }

    #[test]
    fn backpressure_charges_doubling_penalties_then_sheds() {
        let (_l, cell) = metered(QuotaSpec {
            max_lane_occupancy: 1,
            ..QuotaSpec::default()
        });
        let clock = Clock::new();
        let charges = Arc::new(Mutex::new(Vec::new()));
        let seen = charges.clone();
        clock.add_advance_hook(Box::new(move |charge| seen.lock().push(charge)));
        let mb = Mailbox::new();
        assert_eq!(
            post_with_backpressure(&cell, &clock, &mb, 5, 7, |_| {}),
            PostOutcome::Posted { attempts: 1 }
        );
        // Lane full: the refused probes charge 50, 100, 200 and 400 µs,
        // and the fourth refusal sheds the post.
        assert_eq!(
            post_with_backpressure(&cell, &clock, &mb, 5, 7, |_| {}),
            PostOutcome::Shed { attempts: 4 }
        );
        let penalty = |ns| spin_sal::Charge {
            cost: Cost::Penalty,
            ns,
        };
        assert_eq!(
            *charges.lock(),
            [50_000, 100_000, 200_000, 400_000].map(penalty)
        );
        assert_eq!(clock.now(), 750_000);
        let s = cell.snapshot();
        assert_eq!(s.mail_refused, 4);
        assert_eq!(s.mail_shed, 1);
        // Draining the lane releases the budget.
        let _ = mb.drain();
        assert_eq!(
            post_with_backpressure(&cell, &clock, &mb, 5, 7, |_| {}),
            PostOutcome::Posted { attempts: 1 }
        );
    }

    #[test]
    fn ledger_registration_is_dense_and_idempotent() {
        let ledger = QuotaLedger::new();
        let a = ledger.register("a", QuotaSpec::default());
        let b = ledger.register("b", QuotaSpec::default());
        let a2 = ledger.register(
            "a",
            QuotaSpec {
                window: 99,
                ..QuotaSpec::default()
            },
        );
        assert_eq!(a.ord(), 0);
        assert_eq!(b.ord(), 1);
        assert_eq!(a2.ord(), 0);
        assert!(Arc::ptr_eq(&a, &a2), "second spec ignored");
        assert_eq!(ledger.cells().len(), 2);
        assert!(ledger.get("b").is_some());
        assert!(ledger.get("c").is_none());
    }
}
