//! The deterministic strand executor.
//!
//! A *strand* (§4.2: "a strand is similar to a thread ... \[but\] has no
//! minimal or requisite kernel state other than a name") has one of two
//! bodies. A **thread strand** ([`Executor::spawn_on`]) is backed by a real
//! OS thread and may block anywhere: a baton passes between the coordinator
//! (the thread that called [`Executor::run_until_idle`]) and the running
//! strand. A **run-to-completion strand** ([`Executor::spawn_step_on`]) has
//! no thread: each slice is one call of its body on the coordinator's own
//! stack, and the body says what it wants next by returning a [`Step`] —
//! the shape of the paper's interrupt-level protocol handlers, which may
//! not block. Either way **exactly one simulated context runs at a time**,
//! a slice costs the same virtual time, raises the same hooks and counts as
//! one context switch, and all scheduling decisions are made by a
//! [`SchedulerPolicy`] under the executor lock, so runs are reproducible
//! regardless of OS scheduling.
//!
//! The coordinator pumps the simulation between strand slices: it fires due
//! timers, dispatches device interrupts, and — when no strand is runnable —
//! skips the virtual clock forward to the next timer deadline.
//!
//! Preemption reproduces the paper's "the kernel is preemptive, ensuring
//! that a handler cannot take over the processor": a slice's charge is the
//! clock's advance since the slice started, and the strand is descheduled
//! at its next *safe point* ([`StrandCtx::preempt_point`], and every
//! blocking or yielding operation) once that charge exceeds the quantum.
//! Safe-point preemption keeps the simulation deadlock-free while
//! preserving quantum semantics on the virtual timeline.

use spin_check::sync::{AtomicBool, AtomicU64, Ordering};
use spin_check::sync::{Condvar, Mutex};
use spin_core::{BlockedInStep, DeadlineExceeded};
use spin_fault::{FaultHook, Injection};
use spin_obs::{ObsHook, TraceKind};
use spin_sal::{AdvanceHookId, Clock, HostId, IrqController, MachineProfile, Nanos, TimerQueue};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Weak};

/// Identifier of a strand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StrandId(pub u64);

/// Why [`Executor::run_until_idle`] returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IdleOutcome {
    /// Every strand ran to completion.
    AllComplete,
    /// Runnable work remains but the deadline was reached.
    DeadlineReached,
    /// No strand is runnable, no timer is pending, yet strands are blocked.
    Deadlock { blocked: Vec<String> },
}

/// A pluggable scheduling policy: the paper's *global scheduler*.
///
/// "While the global scheduling policy is replaceable, it cannot be
/// replaced by an arbitrary application" (§4.2) — replacing it through
/// [`Executor::set_policy`] is a trusted operation.
pub trait SchedulerPolicy: Send {
    /// Makes a strand runnable.
    fn enqueue(&mut self, strand: StrandId, priority: u8);
    /// Picks the next strand to run.
    fn dequeue(&mut self) -> Option<StrandId>;
}

/// The default global scheduler: "a round-robin, preemptive, priority
/// policy" (§4.2). Higher priority runs first; equal priorities round-robin
/// in FIFO order.
#[derive(Default)]
pub struct RoundRobinPriority {
    queues: std::collections::BTreeMap<u8, std::collections::VecDeque<StrandId>>,
}

impl SchedulerPolicy for RoundRobinPriority {
    fn enqueue(&mut self, strand: StrandId, priority: u8) {
        self.queues.entry(priority).or_default().push_back(strand);
    }
    fn dequeue(&mut self) -> Option<StrandId> {
        // Highest priority band first.
        let (&prio, _) = self.queues.iter().rev().find(|(_, q)| !q.is_empty())?;
        let q = self.queues.get_mut(&prio).expect("found above");
        q.pop_front()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunState {
    Ready,
    Running,
    Blocked,
    Done,
}

struct Baton {
    go: Mutex<bool>,
    cv: Condvar,
}

impl Baton {
    fn new() -> Arc<Self> {
        Arc::new(Baton {
            go: Mutex::new(false),
            cv: Condvar::new(),
        })
    }
    fn wait(&self) {
        let mut go = self.go.lock();
        while !*go {
            self.cv.wait(&mut go);
        }
        *go = false;
    }
    fn signal(&self) {
        *self.go.lock() = true;
        self.cv.notify_one();
    }
}

/// What a run-to-completion strand's slice asks for when it returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Not runnable until [`Executor::unblock`]: raises the Block hook and
    /// charges `sync_op`, exactly as a thread strand's park does.
    Block,
    /// Still runnable: back of its priority's queue, as
    /// [`StrandCtx::yield_now`].
    Yield,
    /// Finished: joiners wake.
    Done,
}

type StepFn = Box<dyn FnMut(&StrandCtx) -> Step + Send>;

/// A run-to-completion strand's body.
struct Stepper {
    /// Locked only by the coordinator, for the length of a slice.
    f: Mutex<StepFn>,
    /// The strand's deadline cell, for the [`StrandCtx`] each slice gets.
    deadline: Arc<AtomicU64>,
}

/// How a strand's slices are executed.
#[derive(Clone)]
enum Body {
    /// On the strand's own OS thread, handed the processor by baton.
    Thread(Arc<Baton>),
    /// By a call on the coordinator's stack.
    Step(Arc<Stepper>),
}

struct StrandInfo {
    name: String,
    priority: u8,
    host: HostId,
    state: RunState,
    body: Body,
    /// Settled at the end of each slice; the running slice's charge is
    /// the clock's advance since `Meter::slice_start`.
    cpu_ns: Nanos,
    joiners: Vec<StrandId>,
    panicked: bool,
    /// Daemons (device threads, protocol threads) may stay blocked forever
    /// without counting as deadlock or preventing completion.
    daemon: bool,
    /// Virtual-time deadline enforced at safe points (`u64::MAX` = none).
    /// Shared with the strand's [`StrandCtx`] so each check is one atomic
    /// load; past the deadline the strand unwinds with [`DeadlineExceeded`].
    deadline: Arc<AtomicU64>,
}

struct ExecState {
    strands: BTreeMap<StrandId, StrandInfo>,
    policy: Box<dyn SchedulerPolicy>,
    /// Strands in [`RunState::Ready`], kept at the four Ready transitions
    /// (spawn, unblock, yield, dispatch) so the barrier's per-epoch horizon
    /// query does not scan `strands`.
    ready: usize,
    switches: u64,
}

impl ExecState {
    fn has_ready(&self) -> bool {
        debug_assert_eq!(
            self.ready,
            self.strands
                .values()
                .filter(|i| i.state == RunState::Ready)
                .count(),
            "ready count drifted from the strand table"
        );
        self.ready > 0
    }
}

/// Hooks raised around scheduling transitions so stacked schedulers and
/// thread packages can observe them (wired to dispatcher events by
/// [`events::StrandEvents`](crate::events::StrandEvents)).
type TransitionHook = Box<dyn Fn(StrandId) + Send + Sync>;

/// Quota demotion hook, consulted at every ready-queue enqueue: given the
/// strand's name, its base priority, and the current virtual instant, it
/// returns the priority to enqueue at. The quota ledger wires this to
/// demote strands of a domain that exhausted its window virtual-time
/// budget to the spec's deferred lane — the strand still runs (demote,
/// don't starve), just behind well-behaved work. Must be a pure function
/// of virtual-time state so worker count cannot change outcomes.
pub type SchedQuotaHook = Arc<dyn Fn(&str, u8, Nanos) -> u8 + Send + Sync>;

struct Hooks {
    block: TransitionHook,
    unblock: TransitionHook,
    checkpoint: TransitionHook,
    resume: TransitionHook,
}

/// The slice meter. It does not subscribe to the clock: a slice's charge
/// is `clock.now() - slice_start`, computed where it is read — when the
/// slice ends, when a reader asks for CPU time mid-slice, and at a safe
/// point. Within a slice only charges move the clock (`skip_to` runs in
/// `run_until`'s idle branch), so that difference is the sum of the
/// slice's charges (DESIGN.md decision 26).
struct Meter {
    /// Observability hook (scheduler domain): absent until wired, and the
    /// per-switch fast path is then a single atomic load.
    obs: spin_core::hooks::HookSlot<ObsHook>,
    /// Id of the strand whose slice is running, 0 between slices (ids start
    /// at 1). Stored by the coordinator once the slice's switch is charged
    /// and cleared under the state lock when the slice ends.
    current: AtomicU64,
    quantum: AtomicU64,
    /// The clock when the running slice began: stored just before
    /// `current`, after the switch charge and the Resume hook, so neither
    /// lands on the slice.
    slice_start: AtomicU64,
}

impl Meter {
    /// The running slice's charge so far: the quantum consumed, and the
    /// strand's CPU time not yet settled. Read on the slice's own thread.
    fn charge(&self, clock: &Clock) -> Nanos {
        clock.now() - self.slice_start.load(Ordering::Relaxed) // ordering: Relaxed — stored by the coordinator before the baton hand-off (or on this thread); the clock's one-writer hand-off orders it.
    }
}

/// The executor.
pub struct Executor {
    /// Handed (upgraded) to a run-to-completion slice as its
    /// [`StrandCtx::executor`]; `run_until` itself only has `&self`.
    me: Weak<Executor>,
    clock: Clock,
    timers: TimerQueue,
    profile: Arc<MachineProfile>,
    state: Mutex<ExecState>,
    irqs: Mutex<Vec<IrqController>>,
    main_baton: Arc<Baton>,
    next_id: AtomicU64,
    /// Whether the running slice is a run-to-completion one, which may not
    /// give up the processor mid-call.
    stepping: AtomicBool,
    /// What the running slice has charged, read off the clock.
    meter: Meter,
    /// The subscription that accounts every charge to the scheduler's obs
    /// domain, made by [`Executor::set_obs`] and removed when the executor
    /// drops.
    obs_charges: spin_core::hooks::HookSlot<AdvanceHookId>,
    /// Transition hooks: absent until `events` wires them, and each of a
    /// slice's four transitions then costs one atomic load.
    hooks: spin_core::hooks::HookSlot<Hooks>,
    /// Fault-injection hook (`sched.executor` site): absent until wired;
    /// drawn once at each strand body's entry, inside the containment
    /// `catch_unwind`, so an injected panic never kills the process.
    faults: spin_core::hooks::HookSlot<FaultHook>,
    /// Quota demotion hook: absent until wired, and every enqueue then
    /// pays exactly one relaxed load (the unarmed cost-model invariant).
    quota: spin_core::hooks::HookSlot<SchedQuotaHook>,
}

impl Executor {
    /// Creates an executor on the shared timeline.
    pub fn new(clock: Clock, timers: TimerQueue, profile: Arc<MachineProfile>) -> Arc<Executor> {
        Arc::new_cyclic(|me| Executor {
            me: me.clone(),
            clock,
            timers,
            profile,
            state: Mutex::new(ExecState {
                strands: BTreeMap::new(),
                policy: Box::new(RoundRobinPriority::default()),
                ready: 0,
                switches: 0,
            }),
            irqs: Mutex::new(Vec::new()),
            main_baton: Baton::new(),
            next_id: AtomicU64::new(1),
            stepping: AtomicBool::new(false),
            meter: Meter {
                obs: spin_core::hooks::HookSlot::new(),
                current: AtomicU64::new(0),
                quantum: AtomicU64::new(1_000_000), // 1 ms virtual quantum
                slice_start: AtomicU64::new(0),
            },
            obs_charges: spin_core::hooks::HookSlot::new(),
            hooks: spin_core::hooks::HookSlot::new(),
            faults: spin_core::hooks::HookSlot::new(),
            quota: spin_core::hooks::HookSlot::new(),
        })
    }

    /// Convenience: an executor for a single simulated host.
    pub fn for_host(host: &spin_sal::Host) -> Arc<Executor> {
        let exec = Executor::new(
            host.clock.clone(),
            host.timers.clone(),
            host.profile.clone(),
        );
        exec.add_irq_controller(host.irqs.clone());
        exec
    }

    /// Registers a host's interrupt controller for pumping.
    pub fn add_irq_controller(&self, irqs: IrqController) {
        self.irqs.lock().push(irqs);
    }

    /// Replaces the global scheduling policy (trusted operation).
    pub fn set_policy(&self, policy: Box<dyn SchedulerPolicy>) {
        let mut st = self.state.lock();
        // Re-enqueue currently ready strands into the new policy.
        let ready: Vec<(StrandId, u8)> = {
            let mut v = Vec::new();
            let mut old = std::mem::replace(&mut st.policy, policy);
            while let Some(id) = old.dequeue() {
                if let Some(info) = st.strands.get(&id) {
                    v.push((id, info.priority));
                }
            }
            v
        };
        for (id, prio) in ready {
            st.policy.enqueue(id, prio);
        }
    }

    /// Sets the preemption quantum (virtual nanoseconds).
    pub fn set_quantum(&self, ns: Nanos) {
        self.meter.quantum.store(ns, Ordering::Relaxed); // ordering: Relaxed — consulted by the executor thread at the next safe point.
    }

    /// Installs transition hooks (used by `events` to raise dispatcher
    /// events on Block/Unblock/Checkpoint/Resume). One-shot.
    pub(crate) fn set_hooks(
        &self,
        block: TransitionHook,
        unblock: TransitionHook,
        checkpoint: TransitionHook,
        resume: TransitionHook,
    ) {
        let _ = self.hooks.set(Hooks {
            block,
            unblock,
            checkpoint,
            resume,
        });
    }

    /// Wires the observability subsystem: virtual CPU charges and context
    /// switches are accounted to the scheduler domain. One-shot; charges
    /// zero virtual time. Subscribes to the clock, so its charges become
    /// observed one by one.
    pub fn set_obs(&self, hook: ObsHook) {
        let counters = hook.counters.clone();
        if self.meter.obs.set(hook) {
            let id = self.clock.add_advance_hook(Box::new(move |ns| {
                counters.cpu_ns.fetch_add(ns, Ordering::Relaxed); // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
            }));
            let _ = self.obs_charges.set(id);
        }
    }

    /// Wires the deterministic fault-injection plan's `sched.executor`
    /// site. One-shot; with the plan disabled the per-spawn cost is a
    /// single relaxed atomic load.
    pub fn set_fault_hook(&self, hook: FaultHook) {
        let _ = self.faults.set(hook);
    }

    /// Wires the quota demotion hook (see [`SchedQuotaHook`]). One-shot;
    /// charges zero virtual time — demotion is a pure enqueue-time
    /// priority rewrite, so the virtual timeline is untouched and the
    /// unarmed path stays byte-identical.
    pub fn set_quota_hook(&self, hook: SchedQuotaHook) {
        let _ = self.quota.set(hook);
    }

    /// The priority a strand is enqueued at: its base priority, unless the
    /// quota hook demotes it at the current virtual instant.
    fn effective_priority(&self, name: &str, base: u8) -> u8 {
        match self.quota.get() {
            Some(hook) => hook(name, base, self.clock.now()),
            None => base,
        }
    }

    /// Spawns a strand on host 0 at priority 8.
    pub fn spawn(
        self: &Arc<Self>,
        name: &str,
        f: impl FnOnce(&StrandCtx) + Send + 'static,
    ) -> StrandId {
        self.spawn_on(HostId(0), name, 8, f)
    }

    /// Spawns a strand on a host at a priority.
    pub fn spawn_on(
        self: &Arc<Self>,
        host: HostId,
        name: &str,
        priority: u8,
        f: impl FnOnce(&StrandCtx) + Send + 'static,
    ) -> StrandId {
        let baton = Baton::new();
        let deadline = Arc::new(AtomicU64::new(u64::MAX));
        let body = Body::Thread(baton.clone());
        let id = self.admit(host, name, priority, deadline.clone(), body);
        let exec = self.clone();
        let thread_name = format!("strand-{}", name);
        std::thread::Builder::new()
            .name(thread_name)
            .spawn(move || {
                baton.wait(); // wait to be scheduled the first time
                let ctx = StrandCtx {
                    exec: exec.clone(),
                    id,
                    deadline,
                };
                let result = catch_unwind(AssertUnwindSafe(|| {
                    exec.draw_entry_fault();
                    f(&ctx)
                }));
                exec.finish_current(result.is_err());
            })
            .expect("spawn strand thread");
        id
    }

    /// Spawns a run-to-completion strand: no OS thread; each slice is one
    /// call of `f` on the pumping thread, and `f`'s [`Step`] is the slice's
    /// outcome. On the virtual timeline it is indistinguishable from a
    /// thread strand whose body is `loop { match f(ctx) { Block =>
    /// ctx.block(), Yield => ctx.yield_now(), Done => break } }`. In
    /// exchange `f` — and every handler raised from it — must not block,
    /// sleep, yield, join or take a preemption point through a
    /// [`StrandCtx`]: those unwind with [`BlockedInStep`].
    pub fn spawn_step_on(
        &self,
        host: HostId,
        name: &str,
        priority: u8,
        mut f: impl FnMut(&StrandCtx) -> Step + Send + 'static,
    ) -> StrandId {
        let mut entered = false;
        let deadline = Arc::new(AtomicU64::new(u64::MAX));
        let body = Body::Step(Arc::new(Stepper {
            f: Mutex::new(Box::new(move |ctx| {
                if !entered {
                    entered = true;
                    ctx.exec.draw_entry_fault();
                }
                f(ctx)
            })),
            deadline: deadline.clone(),
        }));
        self.admit(host, name, priority, deadline, body)
    }

    /// Registers a new strand, Ready, and charges its creation.
    fn admit(
        &self,
        host: HostId,
        name: &str,
        priority: u8,
        deadline: Arc<AtomicU64>,
        body: Body,
    ) -> StrandId {
        self.clock.advance(self.profile.thread_create);
        let id = StrandId(self.next_id.fetch_add(1, Ordering::Relaxed)); // ordering: Relaxed — allocates a unique id; the handle carrying it is published separately.
        let mut st = self.state.lock();
        st.strands.insert(
            id,
            StrandInfo {
                name: name.to_string(),
                priority,
                host,
                state: RunState::Ready,
                body,
                cpu_ns: 0,
                joiners: Vec::new(),
                panicked: false,
                daemon: false,
                deadline,
            },
        );
        let prio = self.effective_priority(name, priority);
        st.policy.enqueue(id, prio);
        st.ready += 1;
        id
    }

    /// The `sched.executor` injection site: drawn once, on a strand's
    /// first slice, while it is current and inside its containment
    /// `catch_unwind`, so an injected panic marks this strand panicked
    /// without taking down the simulation.
    fn draw_entry_fault(&self) {
        if let Some(h) = self.faults.get() {
            match h.draw() {
                Some(Injection::Panic) => h.fire_panic(),
                Some(Injection::Delay(ns)) => self.clock.advance(ns),
                Some(Injection::Fail) | None => {}
            }
        }
    }

    /// Ends the running slice, whichever kind of strand ran it: settles the
    /// slice's charge into the strand's CPU time, moves the
    /// strand to `to` (back on the ready queue for Ready, waking joiners
    /// for Done) and leaves no strand current. Returns a thread strand's
    /// baton, which it parks on next.
    fn leave_current(&self, to: RunState, panicked: bool) -> Option<Arc<Baton>> {
        let mut st = self.state.lock();
        let cur = StrandId(self.meter.current.swap(0, Ordering::Relaxed)); // ordering: Relaxed — written under the state lock by the thread that ran the slice; the next reader is ordered by the baton or is this thread.
        let charge = self.meter.charge(&self.clock);
        let info = st
            .strands
            .get_mut(&cur)
            .expect("a slice ends on the current strand");
        info.state = to;
        info.panicked = panicked;
        info.cpu_ns += charge;
        let baton = match &info.body {
            Body::Thread(baton) => Some(baton.clone()),
            Body::Step(_) => None,
        };
        let joiners = if to == RunState::Done {
            std::mem::take(&mut info.joiners)
        } else {
            Vec::new()
        };
        let requeue =
            (to == RunState::Ready).then(|| self.effective_priority(&info.name, info.priority));
        if let Some(prio) = requeue {
            st.policy.enqueue(cur, prio);
            st.ready += 1;
        }
        for j in joiners {
            self.make_ready(&mut st, j);
        }
        baton
    }

    /// Strand termination: wake joiners, return control to the coordinator.
    fn finish_current(&self, panicked: bool) {
        self.leave_current(RunState::Done, panicked);
        self.main_baton.signal();
        // Thread exits; the OS thread is never reused.
    }

    fn make_ready(&self, st: &mut ExecState, id: StrandId) {
        if let Some(info) = st.strands.get_mut(&id) {
            // Already-Ready strands stay queued; anything else (Running,
            // Finished) is not resurrectable here.
            if info.state == RunState::Blocked {
                info.state = RunState::Ready;
                let prio = self.effective_priority(&info.name, info.priority);
                st.policy.enqueue(id, prio);
                st.ready += 1;
            }
        }
    }

    /// Makes a blocked strand runnable. Safe from any context, including
    /// interrupt handlers and timer callbacks. Raises the Unblock hook.
    pub fn unblock(&self, id: StrandId) {
        if let Some(h) = self.hooks.get() {
            (h.unblock)(id);
        }
        self.clock.advance(self.profile.sync_op);
        let mut st = self.state.lock();
        self.make_ready(&mut st, id);
    }

    /// Returns control to the coordinator; the calling strand keeps `state`.
    fn switch_out(&self, new_state: RunState) {
        let my_baton = self
            .leave_current(new_state, false)
            .expect("only thread strands switch out mid-body");
        self.main_baton.signal();
        my_baton.wait();
    }

    /// What blocking costs, charged to the strand still current: the Block
    /// hook ("a disk driver can direct a scheduler to block the current
    /// strand during an I/O operation") and one `sync_op`.
    fn note_block(&self, cur: StrandId) {
        if let Some(h) = self.hooks.get() {
            (h.block)(cur);
        }
        self.clock.advance(self.profile.sync_op);
    }

    /// Blocks the calling strand until [`Executor::unblock`].
    fn block_current(&self) {
        self.note_block(self.current().expect("block from a running strand"));
        self.switch_out(RunState::Blocked);
    }

    fn yield_current(&self) {
        self.switch_out(RunState::Ready);
    }

    /// One slice of a run-to-completion strand, on this (the pumping)
    /// thread. A panic escaping the body finishes the strand as panicked,
    /// as it does a thread strand.
    fn run_step(&self, id: StrandId, body: &Stepper) {
        let ctx = StrandCtx {
            exec: self.me.upgrade().expect("pumped through its Arc"),
            id,
            deadline: body.deadline.clone(),
        };
        self.stepping.store(true, Ordering::Relaxed); // ordering: Relaxed — read back by this thread, from inside the call below.
        let step = catch_unwind(AssertUnwindSafe(|| (*body.f.lock())(&ctx)));
        self.stepping.store(false, Ordering::Relaxed); // ordering: Relaxed — thread strands read it only after a baton hand-off from this thread.
        let (to, panicked) = match step {
            Ok(Step::Block) => {
                self.note_block(id);
                (RunState::Blocked, false)
            }
            Ok(Step::Yield) => (RunState::Ready, false),
            Ok(Step::Done) => (RunState::Done, false),
            Err(_) => (RunState::Done, true),
        };
        self.leave_current(to, panicked);
    }

    /// Runs the simulation until every strand completes, a deadline is hit,
    /// or the system deadlocks. Must be called from outside any strand.
    pub fn run_until_idle(&self) -> IdleOutcome {
        self.run_until(Nanos::MAX)
    }

    /// Like [`Executor::run_until_idle`] with a virtual-time deadline.
    pub fn run_until(&self, deadline: Nanos) -> IdleOutcome {
        loop {
            if self.clock.now() >= deadline {
                return IdleOutcome::DeadlineReached;
            }
            // Pump completions and interrupts first: they may unblock work.
            self.timers.fire_due(self.clock.now());
            for irqs in self.irqs.lock().iter() {
                irqs.dispatch_pending();
            }

            // One critical section starts the slice: dequeue the next Ready
            // strand and mark it Running.
            let next = {
                let mut st = self.state.lock();
                let st = &mut *st;
                loop {
                    match st.policy.dequeue() {
                        Some(id) => match st.strands.get_mut(&id) {
                            Some(info) if info.state == RunState::Ready => {
                                info.state = RunState::Running;
                                st.switches += 1;
                                st.ready -= 1;
                                break Some((id, info.body.clone()));
                            }
                            _ => continue, // stale queue entry
                        },
                        None => break None,
                    }
                }
            };

            match next {
                Some((id, body)) => {
                    // No strand is current yet, so the switch's charge does
                    // not land on the slice's quantum.
                    self.clock
                        .advance(self.profile.sched_decision + self.profile.context_switch);
                    if let Some(h) = self.hooks.get() {
                        (h.resume)(id);
                    }
                    if let Some(obs) = self.meter.obs.get() {
                        obs.counters
                            .context_switches
                            .fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
                        obs.trace(TraceKind::ContextSwitch, id.0, 0);
                    }
                    let start = self.clock.now();
                    self.meter.slice_start.store(start, Ordering::Relaxed); // ordering: Relaxed — the slice's thread reads it after the baton hand-off below, or is this thread.
                    self.meter.current.store(id.0, Ordering::Relaxed); // ordering: Relaxed — the slice's thread reads it after the baton hand-off below, or is this thread.
                    match body {
                        Body::Thread(baton) => {
                            baton.signal();
                            self.main_baton.wait();
                        }
                        Body::Step(stepper) => self.run_step(id, &stepper),
                    }
                    if let Some(h) = self.hooks.get() {
                        (h.checkpoint)(id);
                    }
                }
                None => {
                    // Idle: advance to the next timer, or stop.
                    match self.timers.next_deadline() {
                        Some(t) if t >= deadline => {
                            self.clock.skip_to(deadline);
                            return IdleOutcome::DeadlineReached;
                        }
                        Some(t) => {
                            self.clock.skip_to(t.max(self.clock.now()));
                        }
                        None => {
                            let st = self.state.lock();
                            let blocked: Vec<String> = st
                                .strands
                                .values()
                                .filter(|i| i.state == RunState::Blocked && !i.daemon)
                                .map(|i| i.name.clone())
                                .collect();
                            return if blocked.is_empty() {
                                IdleOutcome::AllComplete
                            } else {
                                IdleOutcome::Deadlock { blocked }
                            };
                        }
                    }
                }
            }
        }
    }

    /// The earliest virtual time at which this executor has something to
    /// do: *now* if a strand is runnable or an interrupt is pending,
    /// otherwise the next timer deadline (clamped to now — a stale due
    /// timer is actionable immediately, not in the past). `None` means
    /// fully idle. This is a shard's event horizon in the conservative-PDES
    /// barrier (`Multicore`).
    pub fn next_event_time(&self) -> Option<Nanos> {
        let now = self.clock.now();
        if self.state.lock().has_ready() || self.irqs.lock().iter().any(|i| i.has_pending()) {
            return Some(now);
        }
        self.timers.next_deadline().map(|t| t.max(now))
    }

    /// Names of blocked non-daemon strands (sorted). A shard that is idle
    /// with a non-empty list is deadlocked *locally*; whether that is a
    /// system deadlock is decided by the multicore barrier, which also sees
    /// in-flight cross-shard mail.
    pub fn blocked_strands(&self) -> Vec<String> {
        let st = self.state.lock();
        let mut v: Vec<String> = st
            .strands
            .values()
            .filter(|i| i.state == RunState::Blocked && !i.daemon)
            .map(|i| i.name.clone())
            .collect();
        v.sort();
        v
    }

    /// Marks a strand as a daemon: it may remain blocked forever without
    /// being reported as deadlocked (device and protocol service threads).
    pub fn set_daemon(&self, id: StrandId) {
        if let Some(info) = self.state.lock().strands.get_mut(&id) {
            info.daemon = true;
        }
    }

    /// Whether a strand has finished.
    pub fn is_done(&self, id: StrandId) -> bool {
        self.state
            .lock()
            .strands
            .get(&id)
            .map(|i| i.state == RunState::Done)
            .unwrap_or(false)
    }

    /// Whether a strand panicked.
    pub fn panicked(&self, id: StrandId) -> bool {
        self.state
            .lock()
            .strands
            .get(&id)
            .map(|i| i.panicked)
            .unwrap_or(false)
    }

    /// The running slice's strand, host and so-far-unsettled charge.
    fn live_slice(&self, st: &ExecState) -> Option<(StrandId, HostId, Nanos)> {
        let cur = self.current()?;
        Some((
            cur,
            st.strands.get(&cur)?.host,
            self.meter.charge(&self.clock),
        ))
    }

    /// Virtual CPU time consumed by a strand, its running slice included.
    pub fn cpu_time(&self, id: StrandId) -> Nanos {
        let st = self.state.lock();
        let settled = st.strands.get(&id).map(|i| i.cpu_ns).unwrap_or(0);
        match self.live_slice(&st) {
            Some((cur, _, used)) if cur == id => settled + used,
            _ => settled,
        }
    }

    /// Virtual CPU time consumed on a host (the Figure 6 utilization
    /// numerator), the running slice included: the sum of its strands'
    /// CPU time (strands are never removed from the table).
    pub fn host_busy(&self, host: HostId) -> Nanos {
        let st = self.state.lock();
        let settled = st
            .strands
            .values()
            .filter(|i| i.host == host)
            .map(|i| i.cpu_ns)
            .sum();
        match self.live_slice(&st) {
            Some((_, h, used)) if h == host => settled + used,
            _ => settled,
        }
    }

    /// Number of context switches performed.
    pub fn switches(&self) -> u64 {
        self.state.lock().switches
    }

    /// The executor's clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The executor's machine profile.
    pub fn profile(&self) -> &Arc<MachineProfile> {
        &self.profile
    }

    /// The executor's timer queue.
    pub fn timers(&self) -> &TimerQueue {
        &self.timers
    }

    /// The currently running strand, if called from strand context.
    pub fn current(&self) -> Option<StrandId> {
        // ordering: Relaxed — a strand asking is ordered after the store by its baton, or is the coordinator that made it.
        match self.meter.current.load(Ordering::Relaxed) {
            0 => None,
            id => Some(StrandId(id)),
        }
    }

    /// A [`StrandCtx`] for the currently running strand. Used by trusted
    /// code (fault handlers, interrupt bottom halves) that must wait on
    /// the strand it happens to be running on — e.g. a demand pager
    /// waiting for disk I/O inside a `Translation.PageNotPresent` handler.
    pub fn current_ctx(self: &Arc<Self>) -> Option<StrandCtx> {
        let id = self.current()?;
        let deadline = self.state.lock().strands.get(&id)?.deadline.clone();
        Some(StrandCtx {
            exec: self.clone(),
            id,
            deadline,
        })
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        // Unsubscribe, or every later charge on this clock would still
        // walk past (and into) a dead executor's obs accounting.
        if let Some(&id) = self.obs_charges.get() {
            self.clock.remove_advance_hook(id);
        }
    }
}

/// Capability handed to a strand body.
#[derive(Clone)]
pub struct StrandCtx {
    exec: Arc<Executor>,
    id: StrandId,
    deadline: Arc<AtomicU64>,
}

impl StrandCtx {
    /// This strand's id.
    pub fn id(&self) -> StrandId {
        self.id
    }

    /// The executor.
    pub fn executor(&self) -> &Arc<Executor> {
        &self.exec
    }

    /// Arms a virtual-time deadline: once the clock passes `at`, the next
    /// safe point this strand reaches unwinds with [`DeadlineExceeded`].
    /// This is how the dispatcher's `time_bound` constraint is enforced
    /// *during* an asynchronous handler rather than only after it returns;
    /// the dispatcher's containment wrapper catches the unwind and counts
    /// it as an abort, so the strand itself is not marked panicked.
    pub fn set_deadline(&self, at: Nanos) {
        self.deadline.store(at, Ordering::Relaxed); // ordering: Relaxed — read back on the executor thread at safepoints.
    }

    /// Unwinds with [`DeadlineExceeded`] if the armed deadline has passed.
    fn check_deadline(&self) {
        let d = self.deadline.load(Ordering::Relaxed); // ordering: Relaxed — safepoint check on the executor thread.
        if d != u64::MAX && self.exec.clock.now() > d {
            std::panic::panic_any(DeadlineExceeded { deadline: d });
        }
    }

    /// A run-to-completion slice has no stack of its own to park: giving
    /// up the processor inside one is refused — before any hook, charge or
    /// state change — by unwinding with [`BlockedInStep`]. Raised from a
    /// handler, the dispatcher's containment books it as that handler's
    /// fault and the slice carries on; raised from the strand's own body,
    /// it finishes the strand as panicked.
    pub(crate) fn refuse_in_step(&self, op: &'static str) {
        // ordering: Relaxed — set by the thread now running the slice, or cleared before the baton reached this strand.
        if self.exec.stepping.load(Ordering::Relaxed) {
            std::panic::panic_any(BlockedInStep { op });
        }
    }

    /// Voluntarily yields the processor (stays runnable).
    pub fn yield_now(&self) {
        self.refuse_in_step("yield_now");
        self.exec.yield_current();
        self.check_deadline();
    }

    /// Blocks until another context unblocks this strand: the park under
    /// [`StrandCtx::wait`] and `TaskPackage`'s carrier.
    pub(crate) fn block(&self) {
        self.refuse_in_step("block");
        self.exec.block_current();
        self.check_deadline();
    }

    /// Sleeps for `ns` of virtual time.
    pub fn sleep(&self, ns: Nanos) {
        self.refuse_in_step("sleep");
        let exec = self.exec.clone();
        let id = self.id;
        let at = self.exec.clock.now() + ns;
        self.exec.timers.schedule_at(at, move |_| exec.unblock(id));
        self.exec.block_current();
        self.check_deadline();
    }

    /// A preemption safe point: deschedules the strand if its quantum
    /// expired.
    pub fn preempt_point(&self) {
        self.refuse_in_step("preempt_point");
        let meter = &self.exec.meter;
        // ordering: Relaxed — set before this slice began and read on the slice's own thread.
        if meter.charge(&self.exec.clock) > meter.quantum.load(Ordering::Relaxed) {
            self.exec.yield_current();
        }
        self.check_deadline();
    }

    /// Blocks until `target` completes.
    pub fn join(&self, target: StrandId) {
        self.refuse_in_step("join");
        {
            let mut st = self.exec.state.lock();
            match st.strands.get_mut(&target) {
                Some(info) if info.state != RunState::Done => info.joiners.push(self.id),
                _ => return, // already done or never existed
            }
        }
        self.exec.block_current();
        self.check_deadline();
    }

    /// Charges simulated CPU work to this strand.
    pub fn work(&self, ns: Nanos) {
        self.exec.clock.advance(ns);
        self.check_deadline();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spin_sal::SimBoard;

    fn exec() -> Arc<Executor> {
        let board = SimBoard::new();
        Executor::new(
            board.clock.clone(),
            board.timers.clone(),
            board.profile.clone(),
        )
    }

    #[test]
    fn strands_run_to_completion() {
        let e = exec();
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = flag.clone();
        e.spawn("worker", move |_| f2.store(true, Ordering::Relaxed)); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
        assert_eq!(e.run_until_idle(), IdleOutcome::AllComplete);
        assert!(flag.load(Ordering::Relaxed)); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
    }

    #[test]
    fn a_dropped_executor_unsubscribes_from_its_clock() {
        let board = SimBoard::new();
        let obs = spin_obs::Obs::new(16);
        let hook = obs.domain("sched");
        for _ in 0..3 {
            let e = Executor::new(
                board.clock.clone(),
                board.timers.clone(),
                board.profile.clone(),
            );
            e.set_obs(hook.clone());
            assert!(board.clock.charges_observed());
            board.clock.advance(7);
        }
        let charged = hook.counters.cpu_ns.load(Ordering::Relaxed); // ordering: Relaxed — test plumbing; single-threaded.
        assert_eq!(charged, 21, "each executor saw the charge made in its life");
        assert!(!board.clock.charges_observed(), "nobody is subscribed");
        board.clock.advance(1_000);
        assert_eq!(
            hook.counters.cpu_ns.load(Ordering::Relaxed), // ordering: Relaxed — test plumbing; single-threaded.
            charged,
            "a charge after the drops reaches no executor's hook"
        );
    }

    #[test]
    fn yield_interleaves_equal_priority_strands() {
        let e = exec();
        let log = Arc::new(Mutex::new(Vec::new()));
        for tag in ["a", "b"] {
            let log = log.clone();
            e.spawn(tag, move |ctx| {
                for _ in 0..3 {
                    log.lock().push(tag);
                    ctx.yield_now();
                }
            });
        }
        e.run_until_idle();
        assert_eq!(*log.lock(), vec!["a", "b", "a", "b", "a", "b"]);
    }

    #[test]
    fn priorities_order_execution() {
        let e = exec();
        let log = Arc::new(Mutex::new(Vec::new()));
        for (tag, prio) in [("low", 1u8), ("high", 20u8), ("mid", 10u8)] {
            let log = log.clone();
            e.spawn_on(HostId(0), tag, prio, move |_| log.lock().push(tag));
        }
        e.run_until_idle();
        assert_eq!(*log.lock(), vec!["high", "mid", "low"]);
    }

    #[test]
    fn block_and_unblock() {
        let e = exec();
        let log = Arc::new(Mutex::new(Vec::new()));
        let l1 = log.clone();
        let blocked = e.spawn("blocked", move |ctx| {
            l1.lock().push("before");
            ctx.block();
            l1.lock().push("after");
        });
        let l2 = log.clone();
        let e2 = e.clone();
        e.spawn("waker", move |_| {
            l2.lock().push("waking");
            e2.unblock(blocked);
        });
        assert_eq!(e.run_until_idle(), IdleOutcome::AllComplete);
        assert_eq!(*log.lock(), vec!["before", "waking", "after"]);
    }

    #[test]
    fn sleep_advances_virtual_time() {
        let e = exec();
        let clock = e.clock().clone();
        e.spawn("sleeper", move |ctx| ctx.sleep(1_000_000));
        let t0 = clock.now();
        e.run_until_idle();
        assert!(clock.now() >= t0 + 1_000_000);
    }

    #[test]
    fn join_waits_for_target() {
        let e = exec();
        let log = Arc::new(Mutex::new(Vec::new()));
        let l1 = log.clone();
        let child = e.spawn("child", move |ctx| {
            ctx.sleep(1000);
            l1.lock().push("child done");
        });
        let l2 = log.clone();
        e.spawn("parent", move |ctx| {
            ctx.join(child);
            l2.lock().push("parent done");
        });
        assert_eq!(e.run_until_idle(), IdleOutcome::AllComplete);
        assert_eq!(*log.lock(), vec!["child done", "parent done"]);
    }

    #[test]
    fn deadlock_is_detected_and_named() {
        let e = exec();
        e.spawn("stuck", |ctx| ctx.block());
        match e.run_until_idle() {
            IdleOutcome::Deadlock { blocked } => assert_eq!(blocked, vec!["stuck".to_string()]),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn deadline_stops_the_run() {
        let e = exec();
        e.spawn("spinner", |ctx| loop {
            ctx.work(1000);
            ctx.preempt_point();
            if ctx.executor().clock().now() > 10_000_000 {
                break;
            }
        });
        assert_eq!(e.run_until(2_000_000), IdleOutcome::DeadlineReached);
    }

    #[test]
    fn quantum_preemption_round_robins_cpu_hogs() {
        let e = exec();
        e.set_quantum(10_000);
        let log = Arc::new(Mutex::new(Vec::new()));
        for tag in ["a", "b"] {
            let log = log.clone();
            e.spawn(tag, move |ctx| {
                for _ in 0..3 {
                    ctx.work(15_000); // exceeds quantum every round
                    log.lock().push(tag);
                    ctx.preempt_point();
                }
            });
        }
        e.run_until_idle();
        let l = log.lock();
        // Strict alternation proves preemption (without it, "a" runs 3x
        // before "b" starts).
        assert_eq!(*l, vec!["a", "b", "a", "b", "a", "b"]);
    }

    #[test]
    fn cpu_time_is_attributed_to_strands_and_hosts() {
        let e = exec();
        let s = e.spawn("worker", |ctx| ctx.work(5_000));
        let strands = [(0, 3_000), (1, 4_000), (1, 6_000), (2, 0)].map(|(host, ns)| {
            let id = e.spawn_on(HostId(host), "hosted", 8, move |ctx| {
                ctx.work(ns);
                ctx.yield_now();
                ctx.work(ns);
            });
            (HostId(host), id)
        });
        e.run_until_idle();
        assert_eq!(e.cpu_time(s), 5_000);
        // A host's CPU time is its strands' CPU time, summed.
        for host in [0, 1, 2, 3].map(HostId) {
            let mine = strands.iter().filter(|(h, _)| *h == host);
            let sum: Nanos = mine.map(|&(_, id)| e.cpu_time(id)).sum::<Nanos>()
                + if host == HostId(0) { e.cpu_time(s) } else { 0 };
            assert_eq!(e.host_busy(host), sum, "{host:?}");
        }
        assert_eq!(e.host_busy(HostId(1)), 20_000);
    }

    #[test]
    fn panicking_strand_is_reported_not_fatal() {
        let e = exec();
        let s = e.spawn("bad", |_| panic!("extension bug"));
        let ok = e.spawn("good", |_| {});
        assert_eq!(e.run_until_idle(), IdleOutcome::AllComplete);
        assert!(e.panicked(s));
        assert!(!e.panicked(ok));
    }

    #[test]
    fn spawn_from_within_a_strand() {
        let e = exec();
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = flag.clone();
        e.spawn("parent", move |ctx| {
            let f3 = f2.clone();
            let child = ctx
                .executor()
                .spawn("child", move |_| f3.store(true, Ordering::Relaxed)); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
            ctx.join(child);
        });
        assert_eq!(e.run_until_idle(), IdleOutcome::AllComplete);
        assert!(flag.load(Ordering::Relaxed)); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
    }

    #[test]
    fn deadline_unwinds_the_strand_at_a_safe_point() {
        let e = exec();
        let reached_end = Arc::new(AtomicBool::new(false));
        let r2 = reached_end.clone();
        let clock = e.clock().clone();
        let s = e.spawn("bounded", move |ctx| {
            ctx.set_deadline(clock.now() + 1_000_000);
            for _ in 0..100 {
                ctx.work(400_000); // the deadline check unwinds on round 3
            }
            r2.store(true, Ordering::Relaxed); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
        });
        assert_eq!(e.run_until_idle(), IdleOutcome::AllComplete);
        assert!(!reached_end.load(Ordering::Relaxed)); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
                                                       // The unwind escaped the strand body, so the strand is marked
                                                       // panicked (an async handler's containment wrapper would have
                                                       // caught it first and classified it as an abort).
        assert!(e.panicked(s));
    }

    #[test]
    fn injected_panics_at_spawn_are_contained() {
        let e = exec();
        let plan = spin_fault::FaultPlan::new(7);
        let hook = plan.hook(spin_fault::SITE_SCHED);
        plan.configure(
            spin_fault::SITE_SCHED,
            spin_fault::SiteConfig::panic_always(),
        );
        e.set_fault_hook(hook);
        let ran = Arc::new(AtomicBool::new(false));
        let r2 = ran.clone();
        let s = e.spawn("victim", move |_| r2.store(true, Ordering::Relaxed)); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
        assert_eq!(e.run_until_idle(), IdleOutcome::AllComplete);
        assert!(e.panicked(s), "the injected panic hit the strand");
        assert!(!ran.load(Ordering::Relaxed), "the body never ran"); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
        assert_eq!(plan.injected_panics(), 1);
    }

    /// Runs a [`Step`] body the way [`Executor::spawn_step_on`]'s docs say
    /// the equivalent thread strand would.
    fn as_thread(
        mut f: impl FnMut(&StrandCtx) -> Step + Send + 'static,
    ) -> impl FnOnce(&StrandCtx) + Send + 'static {
        move |ctx| loop {
            match f(ctx) {
                Step::Block => ctx.block(),
                Step::Yield => ctx.yield_now(),
                Step::Done => break,
            }
        }
    }

    fn spawn_step(
        e: &Executor,
        name: &str,
        f: impl FnMut(&StrandCtx) -> Step + Send + 'static,
    ) -> StrandId {
        e.spawn_step_on(HostId(0), name, 8, f)
    }

    /// Wires all four transition hooks to one log of `(hook, strand)`.
    fn log_hooks(e: &Executor) -> Arc<Mutex<Vec<(&'static str, StrandId)>>> {
        let hooks = Arc::new(Mutex::new(Vec::new()));
        let log = |tag: &'static str| -> TransitionHook {
            let hooks = hooks.clone();
            Box::new(move |s| hooks.lock().push((tag, s)))
        };
        e.set_hooks(
            log("block"),
            log("unblock"),
            log("checkpoint"),
            log("resume"),
        );
        hooks
    }

    /// Everything a run exposes on the virtual side.
    #[derive(Debug, PartialEq)]
    struct Observed {
        clock: Nanos,
        cpu: Vec<Nanos>,
        host_busy: Nanos,
        switches: u64,
        hooks: Vec<(&'static str, StrandId)>,
        trace: Vec<spin_obs::TraceRecord>,
        obs_cpu_ns: u64,
        obs_switches: u64,
        fault_draws: u64,
    }

    /// A worker that blocks, yields and finishes, between a waker and a
    /// joiner that are thread strands, with every hook wired and an entry
    /// delay injected into each strand.
    fn observe_worker(stepper: bool) -> Observed {
        let e = exec();
        let obs = spin_obs::Obs::new(256);
        let clock = e.clock().clone();
        obs.set_time_source(Arc::new(move || clock.now()));
        let hook = obs.domain("sched");
        e.set_obs(hook.clone());
        let hooks = log_hooks(&e);
        let plan = spin_fault::FaultPlan::new(3);
        plan.configure(
            spin_fault::SITE_SCHED,
            spin_fault::SiteConfig {
                delay_every: 1,
                delay_ns: 700,
                ..Default::default()
            },
        );
        e.set_fault_hook(plan.hook(spin_fault::SITE_SCHED));

        let mut slice = 0;
        let body = move |ctx: &StrandCtx| {
            slice += 1;
            match slice {
                1 => {
                    ctx.work(3_000);
                    Step::Block
                }
                2 => {
                    ctx.work(2_000);
                    Step::Yield
                }
                _ => {
                    ctx.work(1_000);
                    Step::Done
                }
            }
        };
        let worker = if stepper {
            spawn_step(&e, "worker", body)
        } else {
            e.spawn("worker", as_thread(body))
        };
        let e2 = e.clone();
        let waker = e.spawn("waker", move |ctx| {
            ctx.work(500);
            e2.unblock(worker);
            ctx.yield_now();
            ctx.work(250);
        });
        let joiner = e.spawn("joiner", move |ctx| ctx.join(worker));
        assert_eq!(e.run_until_idle(), IdleOutcome::AllComplete);
        assert!(!e.panicked(worker));
        let sync_op = e.profile().sync_op;
        assert_eq!(
            e.cpu_time(worker),
            700 + 3_000 + sync_op + 2_000 + 1_000,
            "entry delay once, the three slices, and the Block-time sync_op"
        );
        let counters = &hook.counters;
        let hooks = hooks.lock().clone();
        Observed {
            clock: e.clock().now(),
            cpu: [worker, waker, joiner].map(|s| e.cpu_time(s)).to_vec(),
            host_busy: e.host_busy(HostId(0)),
            switches: e.switches(),
            hooks,
            trace: obs.ring().drain(),
            obs_cpu_ns: counters.cpu_ns.load(Ordering::Relaxed), // ordering: Relaxed — test plumbing; the run has ended.
            obs_switches: counters.context_switches.load(Ordering::Relaxed), // ordering: Relaxed — test plumbing; the run has ended.
            fault_draws: plan.report().iter().map(|r| r.hits).sum(),
        }
    }

    #[test]
    fn a_stepper_is_indistinguishable_from_its_thread_twin() {
        let thread = observe_worker(false);
        assert_eq!(thread.switches, 7, "worker 3, waker 2, joiner 2");
        assert_eq!(thread.fault_draws, 3, "one entry draw per strand");
        assert!(thread.trace.len() >= 7, "the switches were traced");
        assert!(thread.hooks.iter().any(|(tag, _)| *tag == "block"));
        assert_eq!(observe_worker(true), thread);
    }

    #[test]
    fn a_stepper_draws_its_entry_fault_on_the_first_slice_only() {
        let e = exec();
        let plan = spin_fault::FaultPlan::new(7);
        e.set_fault_hook(plan.hook(spin_fault::SITE_SCHED));
        let mut slices = 0;
        spawn_step(&e, "stepper", move |_| {
            slices += 1;
            if slices < 4 {
                Step::Yield
            } else {
                Step::Done
            }
        });
        assert_eq!(e.run_until_idle(), IdleOutcome::AllComplete);
        assert_eq!(e.switches(), 4);
        assert_eq!(plan.report()[0].hits, 1);
    }

    #[test]
    fn an_injected_panic_finishes_a_stepper_without_killing_the_pump() {
        let e = exec();
        let plan = spin_fault::FaultPlan::new(7);
        plan.configure(
            spin_fault::SITE_SCHED,
            spin_fault::SiteConfig::panic_always(),
        );
        e.set_fault_hook(plan.hook(spin_fault::SITE_SCHED));
        let ran = Arc::new(AtomicBool::new(false));
        let r2 = ran.clone();
        let victim = spawn_step(&e, "victim", move |_| {
            r2.store(true, Ordering::Relaxed); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
            Step::Block
        });
        assert_eq!(e.run_until_idle(), IdleOutcome::AllComplete);
        assert!(e.panicked(victim) && e.is_done(victim));
        assert!(!ran.load(Ordering::Relaxed), "the body never ran"); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
        assert_eq!(plan.injected_panics(), 1);
        // The pump — this very thread — carries on with later strands.
        plan.set_enabled(false);
        let later = spawn_step(&e, "later", |_| Step::Done);
        assert_eq!(e.run_until_idle(), IdleOutcome::AllComplete);
        assert!(e.is_done(later) && !e.panicked(later));
    }

    #[test]
    fn join_on_a_stepper_wakes_the_joiner() {
        let e = exec();
        let log = Arc::new(Mutex::new(Vec::new()));
        let l1 = log.clone();
        let mut woken = false;
        let stepper = spawn_step(&e, "stepper", move |_| {
            if !std::mem::replace(&mut woken, true) {
                return Step::Block;
            }
            l1.lock().push("stepper done");
            Step::Done
        });
        let l2 = log.clone();
        e.spawn("parent", move |ctx| {
            ctx.executor().unblock(stepper);
            ctx.join(stepper);
            l2.lock().push("parent done");
        });
        assert_eq!(e.run_until_idle(), IdleOutcome::AllComplete);
        assert_eq!(*log.lock(), vec!["stepper done", "parent done"]);
    }

    #[test]
    fn step_yield_round_robins_with_a_thread_strand() {
        let e = exec();
        let log = Arc::new(Mutex::new(Vec::new()));
        let l1 = log.clone();
        spawn_step(&e, "a", move |_| {
            let mut l = l1.lock();
            l.push("a");
            if l.iter().filter(|t| **t == "a").count() < 3 {
                Step::Yield
            } else {
                Step::Done
            }
        });
        let l2 = log.clone();
        e.spawn("b", move |ctx| {
            for _ in 0..3 {
                l2.lock().push("b");
                ctx.yield_now();
            }
        });
        assert_eq!(e.run_until_idle(), IdleOutcome::AllComplete);
        assert_eq!(*log.lock(), vec!["a", "b", "a", "b", "a", "b"]);
    }

    #[test]
    fn giving_up_the_processor_inside_a_step_is_refused_untouched() {
        type Op = fn(&StrandCtx);
        let ops: [(&str, Op); 5] = [
            ("block", |c| c.block()),
            ("sleep", |c| c.sleep(1_000)),
            ("yield_now", |c| c.yield_now()),
            ("join", |c| c.join(StrandId(999))),
            ("preempt_point", |c| c.preempt_point()),
        ];
        for (name, op) in ops {
            let e = exec();
            let hooks = log_hooks(&e);
            let refused = Arc::new(Mutex::new(None));
            let r2 = refused.clone();
            let s = spawn_step(&e, "stepper", move |ctx| {
                let before = ctx.executor().clock().now();
                let unwound = catch_unwind(AssertUnwindSafe(|| op(ctx))).expect_err("refused");
                let payload = unwound
                    .downcast_ref::<BlockedInStep>()
                    .expect("typed payload");
                *r2.lock() = Some((payload.op, ctx.executor().clock().now() - before));
                Step::Done
            });
            assert_eq!(e.run_until_idle(), IdleOutcome::AllComplete);
            assert_eq!(*refused.lock(), Some((name, 0)), "named, nothing charged");
            assert!(!e.panicked(s), "the body caught it and carried on");
            assert_eq!(
                *hooks.lock(),
                vec![("resume", s), ("checkpoint", s)],
                "{name}"
            );
            assert_eq!(e.timers().next_deadline(), None, "{name} armed no timer");
        }
    }

    #[test]
    fn ready_count_tracks_every_ready_transition() {
        /// Queues every strand twice, so each dispatch leaves a stale
        /// entry behind for the pump to skip.
        #[derive(Default)]
        struct Doubling(std::collections::VecDeque<StrandId>);
        impl SchedulerPolicy for Doubling {
            fn enqueue(&mut self, s: StrandId, _p: u8) {
                self.0.extend([s, s]);
            }
            fn dequeue(&mut self) -> Option<StrandId> {
                self.0.pop_front()
            }
        }
        let e = exec();
        e.set_policy(Box::<Doubling>::default());
        assert_eq!(e.next_event_time(), None, "nothing spawned yet");
        // `next_event_time` re-counts the table in debug builds; ask at
        // every stage, from outside and from inside slices.
        let probe = |ctx: &StrandCtx| {
            ctx.executor().next_event_time();
        };
        let blocker = e.spawn("blocker", move |ctx| {
            probe(ctx);
            ctx.block();
            probe(ctx);
        });
        assert_eq!(e.next_event_time(), Some(e.clock().now()));
        e.unblock(blocker); // already Ready: must not count twice
        e.next_event_time();
        let e2 = e.clone();
        e.spawn("yielder", move |ctx| {
            ctx.yield_now();
            probe(ctx);
            e2.unblock(blocker);
            e2.unblock(blocker); // Ready again: still once
            probe(ctx);
        });
        let mut slices = 0;
        spawn_step(&e, "stepper", move |ctx| {
            probe(ctx);
            slices += 1;
            match slices {
                1 => Step::Yield,
                _ => Step::Done,
            }
        });
        assert_eq!(e.run_until_idle(), IdleOutcome::AllComplete);
        assert_eq!(e.next_event_time(), None, "every strand left Ready");
        assert_eq!(e.switches(), 2 + 2 + 2, "stale entries were skipped");
    }

    #[test]
    fn cpu_readers_include_the_running_slice() {
        let e = exec();
        let e2 = e.clone();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (s1, s2) = (seen.clone(), seen.clone());
        e.spawn("thread", move |ctx| {
            ctx.work(5_000);
            s1.lock()
                .push((e2.cpu_time(ctx.id()), e2.host_busy(HostId(0))));
        });
        let e3 = e.clone();
        spawn_step(&e, "stepper", move |ctx| {
            ctx.work(7_000);
            s2.lock()
                .push((e3.cpu_time(ctx.id()), e3.host_busy(HostId(0))));
            Step::Done
        });
        assert_eq!(e.host_busy(HostId(0)), 0, "nothing ran yet");
        assert_eq!(e.run_until_idle(), IdleOutcome::AllComplete);
        assert_eq!(*seen.lock(), vec![(5_000, 5_000), (7_000, 12_000)]);
        assert_eq!(e.host_busy(HostId(0)), 12_000, "settled once, not twice");
    }

    #[test]
    fn replacing_the_global_policy_takes_effect() {
        // A LIFO policy to prove replacement: later spawns run first.
        struct Lifo(Vec<StrandId>);
        impl SchedulerPolicy for Lifo {
            fn enqueue(&mut self, s: StrandId, _p: u8) {
                self.0.push(s);
            }
            fn dequeue(&mut self) -> Option<StrandId> {
                self.0.pop()
            }
        }
        let e = exec();
        let log = Arc::new(Mutex::new(Vec::new()));
        for tag in ["first", "second"] {
            let log = log.clone();
            e.spawn(tag, move |_| log.lock().push(tag));
        }
        e.set_policy(Box::new(Lifo(Vec::new())));
        e.run_until_idle();
        assert_eq!(*log.lock(), vec!["second", "first"]);
    }
}
