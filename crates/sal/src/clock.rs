//! The global virtual clock and the discrete-event timer queue.
//!
//! All simulated time in the reproduction lives on a single timeline. The
//! currently-running simulated context charges the clock by calling
//! [`Clock::charge`] with a kind from the [`Cost`] table; asynchronous
//! completions (disk interrupts, packet arrivals, preemption ticks) are
//! deliveries scheduled on the [`TimerQueue`] — a packet arrival as the
//! frame and its receiver, anything else as a closure — and fired by the
//! executor when the clock passes their deadline.
//!
//! Advance hooks let a layer observe every charge, as a [`Charge`] that
//! names its kind: the observability subsystem subscribes one to account
//! the scheduler domain's CPU time, and a traced benchmark round
//! subscribes a counter. The executor in `spin-sched` does not subscribe:
//! it reads the clock where a slice starts and where its charge is wanted,
//! and preempts at safe points on that difference — how the paper's
//! preemptive kernel ("the kernel is preemptive, ensuring that a handler
//! cannot take over the processor", §3.2) is reproduced deterministically.
//!
//! **One writer at a time.** A clock has one writer at a time, and
//! successive writers are ordered by a lock or barrier the kernel already
//! takes (DESIGN.md decision 26). The writers and their hand-offs:
//!
//! 1. the coordinator and a thread strand hand the processor over through
//!    the executor's baton (`Mutex` + `Condvar`) and its state lock;
//! 2. timer callbacks and interrupt bottom halves run on the coordinator,
//!    between slices;
//! 3. a `Multicore` worker owns its shards between the epoch barrier's two
//!    phases, and the planner reads their clocks only after the barrier;
//! 4. a `SimBoard`'s hosts share one clock, and they share one executor
//!    too.
//!
//! So [`Clock::charge`] — the one primitive every layer of the packet
//! path pays, many times per packet, with an atomics budget (DESIGN.md
//! decision 18) — is a load and a Release store, no locked instruction,
//! then a walk of the subscribers that only loads. A charge on an
//! executor's clock is pinned at zero locked operations by
//! `a_charge_on_an_executors_clock_stays_within_its_budget` in
//! `spin-check`, and `a_clock_handed_across_a_lock_keeps_every_charge`
//! checks the contract itself. Two writers with no hand-off between them
//! may lose a charge.

use crate::cost::Cost;
use crate::devices::nic::Frame;
use crate::mailbox::Mail;
use crate::wire::Receiver;
use spin_check::hooks::HookRegistry;
use spin_check::sync::{AtomicU64, Mutex, Ordering};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Virtual nanoseconds since simulation boot.
pub type Nanos = u64;

/// One charge as an advance hook sees it: its kind and what it added.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Charge {
    /// The kind charged.
    pub cost: Cost,
    /// The virtual ns it added: its count times `cost.ns()`.
    pub ns: Nanos,
}

/// Observer invoked after every non-zero charge.
pub(crate) type AdvanceHook = Box<dyn Fn(Charge) + Send + Sync>;

/// Handle to an installed advance hook, usable for removal.
pub type AdvanceHookId = spin_check::hooks::HookId;

/// The shared virtual clock.
///
/// Cheap to clone (`Arc` inside); reads are lock-free. Any thread may read
/// it, but it has **one writer at a time**: whoever charges or skips it
/// next must be ordered after the last writer by a lock or barrier (the
/// module docs list the kernel's hand-offs). Charges made by two threads
/// with no hand-off between them may be lost.
#[derive(Clone, Default)]
pub struct Clock {
    inner: Arc<ClockInner>,
}

#[derive(Default)]
struct ClockInner {
    now: AtomicU64,
    /// Charge subscribers. The registry is walked with loads only, so the
    /// per-charge path pays one load when no subscriber is installed and
    /// calls hooks with no lock held (a hook may deschedule the calling
    /// thread to effect preemption).
    hooks: HookRegistry<AdvanceHook>,
}

impl Clock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Nanos {
        self.inner.now.load(Ordering::Acquire) // ordering: Acquire — pairs with the one writer's Release store: a time read orders after the charge that produced it.
    }

    /// Charges `n` units of `cost` (`n × cost.ns()`) to the running
    /// context.
    ///
    /// Advance hooks (if installed) run after the time is added; a charge
    /// of zero ns calls none. The caller must be the clock's one writer
    /// (see [`Clock`]).
    pub fn charge(&self, cost: Cost, n: u64) {
        let charge = Charge {
            cost,
            ns: n * cost.ns(),
        };
        if charge.ns == 0 {
            return;
        }
        self.add(charge.ns);
        self.inner.hooks.for_each(|hook| hook(charge));
    }

    /// Charges each `(cost, n)` in order: one charge apiece to a
    /// subscriber, and one store of their sum when nobody subscribes — the
    /// number and granularity of charges are then unobservable (see
    /// [`Clock::charges_observed`]). A device's driver cost and its
    /// transfer cost are such a pair, paid on every frame. Inlined and
    /// taken by value, so that a site's constant kinds fold into its sum.
    #[inline]
    pub fn charge_all<const N: usize>(&self, charges: [(Cost, u64); N]) {
        if self.charges_observed() {
            for (cost, n) in charges {
                self.charge(cost, n);
            }
        } else {
            self.add(charges.iter().map(|&(cost, n)| n * cost.ns()).sum());
        }
    }

    /// Retired: charges `ns` as [`Cost::Work`]. Only the wall-clock
    /// benchmark package (`perf/`) still calls it; porting that package to
    /// [`Clock::charge`] deletes it.
    pub fn advance(&self, ns: Nanos) {
        self.charge(Cost::Work, ns);
    }

    /// The charge itself, for the clock's one writer.
    #[inline]
    fn add(&self, ns: Nanos) {
        let t = self.inner.now.load(Ordering::Relaxed); // ordering: Relaxed — one writer at a time: the last charge is this thread's own or was handed over by a lock or barrier.
        self.inner.now.store(t + ns, Ordering::Release); // ordering: Release — one writer at a time, so a store, not an RMW; pairs with now()'s Acquire.
    }

    /// Moves the clock directly to `t` without charging any context: idle
    /// time is no cost.
    ///
    /// Used by the executor when the system is idle and the next work item
    /// is a timer in the future. Does nothing if `t` is in the past. The
    /// caller must be the clock's one writer, as for a charge.
    pub fn skip_to(&self, t: Nanos) {
        let cur = self.inner.now.load(Ordering::Relaxed); // ordering: Relaxed — one writer at a time: the last write is this thread's own or was handed over by a lock or barrier.
        if t > cur {
            self.inner.now.store(t, Ordering::Release); // ordering: Release — one writer at a time, so a store, not a CAS; pairs with now()'s Acquire.
        }
    }

    /// Subscribes `hook` to every charge, alongside any existing hooks.
    ///
    /// Hooks run in installation order after the time is added. The
    /// returned id removes exactly this subscription via
    /// [`Clock::remove_advance_hook`].
    pub fn add_advance_hook(&self, hook: AdvanceHook) -> AdvanceHookId {
        self.inner.hooks.add(hook)
    }

    /// Removes one subscription: no charge that starts after this returns
    /// calls the hook. Returns `true` if it was still installed. The hook
    /// itself is dropped with the clock, not here (see
    /// [`HookRegistry`]).
    pub fn remove_advance_hook(&self, id: AdvanceHookId) -> bool {
        self.inner.hooks.remove(id)
    }

    /// Whether any advance hook is installed — i.e. whether the *number and
    /// granularity* of individual charges is observable, not just their
    /// total. Charge-coalescing optimisations (the dispatcher's compiled
    /// guard walk) must replay charges one by one when this is true.
    pub fn charges_observed(&self) -> bool {
        self.inner.hooks.is_armed()
    }
}

/// Identifier of a scheduled timer, usable for cancellation: the slot its
/// callback waits in and the scheduling sequence number that tells this
/// timer from the slot's earlier and later tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId {
    slot: u32,
    seq: u64,
}

/// A boxed timer callback: fired with the virtual time it ran at.
pub(crate) type TimerFn = Box<dyn FnOnce(Nanos) + Send>;

/// What a timer or a mail envelope does when it fires: a frame's arrival at
/// its receiver, held as data, or a call. A frame names its receiver by the
/// `Arc` its route resolved to, so firing it takes no lock of the wire's;
/// only calls — cross-core raises, control-plane posts, plain timers — are
/// boxed (DESIGN.md decision 36).
pub(crate) enum Delivery {
    Frame { frame: Frame, to: Arc<Receiver> },
    Call(TimerFn),
}

impl Delivery {
    /// Fires the delivery at virtual time `now`.
    pub(crate) fn fire(self, now: Nanos) {
        match self {
            Delivery::Frame { frame, to } => to.deliver(frame),
            Delivery::Call(call) => call(now),
        }
    }

    /// The delivery as a callable, for [`crate::Mailbox::drain`]'s
    /// envelopes: a frame is boxed here, on that path only.
    pub(crate) fn into_call(self) -> TimerFn {
        match self {
            Delivery::Call(call) => call,
            frame => Box::new(move |now| frame.fire(now)),
        }
    }
}

/// One slab entry. `seq` names the tenant; the delivery is there until the
/// timer fires or is cancelled, and the slot is free again from then on.
struct Slot {
    seq: u64,
    callback: Option<Delivery>,
}

/// A heap entry's index with this bit set names a run, not a slot.
const RUN: u32 = 1 << 31;

#[derive(Default)]
struct TimerState {
    /// Min-heap of (deadline, seq, index): seqs are handed out in
    /// scheduling order, so equal deadlines fire FIFO. The index names a
    /// slot, or with [`RUN`] set a run, whose entry is its head's. A slot
    /// entry whose slot no longer holds its seq's callback is residue of a
    /// cancel; a run is never cancelled.
    heap: BinaryHeap<Reverse<(Nanos, u64, u32)>>,
    /// Callbacks, found by index: no hashing on schedule, fire or cancel.
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// What is left of each run, last to fire first: a run fires by popping
    /// its buffer's tail. An exhausted run's buffer stays here, empty and
    /// at its capacity, and its index is free for the next run, whose
    /// mailbox takes the buffer in exchange ([`TimerQueue::schedule_mail`]).
    runs: Vec<Vec<Mail>>,
    free_runs: Vec<u32>,
    /// Timers scheduled and neither fired nor cancelled, run items
    /// included.
    live: usize,
    next_seq: u64,
    /// The head's deadline as last published to [`Timers::head`]; `None`
    /// while the heap is empty.
    published: Option<Nanos>,
}

/// What [`Timers::head`] holds for an empty queue. A timer may be due at
/// `Nanos::MAX` too, so only that value sends a reader to the lock.
const NO_DEADLINE: Nanos = Nanos::MAX;

impl TimerState {
    /// Ends every locked operation: drops cancel residue from the top of
    /// the heap, so the head is a live timer, and publishes the head's
    /// deadline if it moved.
    fn settle_head(&mut self, head: &AtomicU64) {
        while let Some(&Reverse((_, seq, index))) = self.heap.peek() {
            if self.is_live(index, seq) {
                break;
            }
            self.heap.pop();
        }
        let at = self.heap.peek().map(|&Reverse((at, _, _))| at);
        if at != self.published {
            self.published = at;
            head.store(at.unwrap_or(NO_DEADLINE), Ordering::Release); // ordering: Release — written under the queue's lock, so the stores follow its order; pairs with the lock-free readers' Acquire.
        }
    }

    /// Takes the head of the heap if it is due at `now`: the callback of a
    /// slot timer (live: [`TimerState::settle_head`] ends every operation),
    /// or the next item of a run, whose following item then takes the
    /// head's place in the heap.
    fn pop_due(&mut self, now: Nanos) -> Option<Delivery> {
        let mut head = self.heap.peek_mut()?;
        let Reverse((at, seq, index)) = *head;
        if at > now {
            return None;
        }
        if index & RUN == 0 {
            PeekMut::pop(head);
            return self.take(index, seq);
        }
        let run = &mut self.runs[(index & !RUN) as usize];
        let item = run.pop().expect("a run in the heap has an item left");
        match run.last() {
            // The run's next item has the next seq and no earlier deadline,
            // so it sifts down from where its predecessor was.
            Some(next) => *head = Reverse((next.deliver_at, seq + 1, index)),
            // The emptied buffer stays, for the next drain to fill.
            None => {
                PeekMut::pop(head);
                self.free_runs.push(index & !RUN);
            }
        }
        self.live -= 1;
        Some(item.delivery)
    }

    /// Takes the delivery of timer (`slot`, `seq`) and frees the slot —
    /// `None` if that timer has fired or been cancelled already, whoever
    /// holds the slot now.
    fn take(&mut self, slot: u32, seq: u64) -> Option<Delivery> {
        let entry = self.slots.get_mut(slot as usize)?;
        if entry.seq != seq {
            return None;
        }
        let callback = entry.callback.take()?;
        self.free.push(slot);
        self.live -= 1;
        Some(callback)
    }

    /// Whether the heap entry (`index`, `seq`) is still waiting: a run
    /// always is, a slot timer until it fires or is cancelled.
    fn is_live(&self, index: u32, seq: u64) -> bool {
        if index & RUN != 0 {
            return true;
        }
        let entry = &self.slots[index as usize];
        entry.seq == seq && entry.callback.is_some()
    }
}

/// A deterministic discrete-event timer queue.
///
/// Deadlines are absolute virtual times. Entries with equal deadlines fire
/// in scheduling order, making multi-host experiments reproducible.
///
/// A timer's order lives in a binary heap and its delivery in a slab slot
/// the heap entry and the [`TimerId`] both name, so scheduling, firing and
/// cancelling hash nothing and — once the heap and the slab have grown to
/// the number of timers in flight — allocate nothing beyond a callback's
/// own box; a frame's arrival has none. A slot is reused as soon as its timer fires or is cancelled;
/// the sequence number in the id and in the heap entry is the generation
/// check that keeps a stale id, or a cancelled timer's heap residue, from
/// touching the next tenant.
///
/// A drained mailbox is ordered already, so it is scheduled as one run
/// ([`crate::Mailbox::drain_onto`]): the run keeps its items in the drain's
/// own buffer and only its head waits in the heap, so a backlog of mail
/// costs the heap one entry, not one per envelope (DESIGN.md decision 27).
/// The mailbox gets an exhausted run's emptied buffer in exchange, so once
/// the buffers have grown to the traffic a drain allocates nothing
/// (DESIGN.md decision 36).
///
/// Every operation that moves the head publishes its deadline, so the
/// questions asked most — is anything due, and when is the next deadline
/// — are one load, not a lock pair ([`TimerQueue::fire_due`],
/// [`TimerQueue::next_deadline`]).
#[derive(Clone)]
pub struct TimerQueue {
    inner: Arc<Timers>,
}

struct Timers {
    state: Mutex<TimerState>,
    /// The live head's deadline, or [`NO_DEADLINE`]: stored under the
    /// lock by whichever operation moved the head, read without it.
    head: AtomicU64,
}

impl Default for TimerQueue {
    fn default() -> Self {
        TimerQueue {
            inner: Arc::new(Timers {
                state: Mutex::default(),
                head: AtomicU64::new(NO_DEADLINE),
            }),
        }
    }
}

impl TimerQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `f` to run when the clock reaches `at`.
    ///
    /// The callback receives the virtual time at which it actually fired.
    pub fn schedule_at(&self, at: Nanos, f: impl FnOnce(Nanos) + Send + 'static) -> TimerId {
        self.schedule_boxed(at, Box::new(f))
    }

    /// [`TimerQueue::schedule_at`] for a callback that is boxed already (a
    /// drained envelope's action): it is queued as that box, not wrapped
    /// in a second one.
    pub fn schedule_boxed(&self, at: Nanos, f: TimerFn) -> TimerId {
        self.schedule(at, Delivery::Call(f))
    }

    /// Schedules `delivery` to fire when the clock reaches `at`: the one
    /// way in for a slot timer. A frame delivery is queued as the data it
    /// is, with no box.
    pub(crate) fn schedule(&self, at: Nanos, delivery: Delivery) -> TimerId {
        let mut st = self.inner.state.lock();
        let seq = st.next_seq;
        st.next_seq += 1;
        let tenant = Slot {
            seq,
            callback: Some(delivery),
        };
        let slot = match st.free.pop() {
            Some(slot) => {
                st.slots[slot as usize] = tenant;
                slot
            }
            None => {
                st.slots.push(tenant);
                (st.slots.len() - 1) as u32
            }
        };
        st.heap.push(Reverse((at, seq, slot)));
        st.live += 1;
        st.settle_head(&self.inner.head);
        TimerId { slot, seq }
    }

    /// Schedules a drained mailbox's `mail` as one run and leaves in `mail`
    /// an exhausted run's emptied buffer, or an empty `Vec` if no run is
    /// exhausted: the buffer the mailbox fills next.
    ///
    /// `mail` fires from its tail, so its deadlines never increase from
    /// front to back (a drain's order, reversed). Each item fires when the
    /// clock reaches its `deliver_at`, exactly as if each had been passed to
    /// [`TimerQueue::schedule`] from the tail — the run takes the next
    /// `mail.len()` sequence numbers, so equal deadlines fire in that order
    /// and after every timer scheduled before it. Run items are not
    /// cancellable, and only the run's head waits in the heap.
    pub(crate) fn schedule_mail(&self, mail: &mut Vec<Mail>) {
        let Some(head) = mail.last().map(|m| m.deliver_at) else {
            return;
        };
        let mut st = self.inner.state.lock();
        let seq = st.next_seq;
        st.next_seq += mail.len() as u64;
        st.live += mail.len();
        let index = match st.free_runs.pop() {
            Some(index) => index,
            None => {
                st.runs.push(Vec::new());
                (st.runs.len() - 1) as u32
            }
        };
        std::mem::swap(&mut st.runs[index as usize], mail);
        st.heap.push(Reverse((head, seq, index | RUN)));
        st.settle_head(&self.inner.head);
    }

    /// Cancels a pending timer. Returns `true` if it had not yet fired.
    pub fn cancel(&self, id: TimerId) -> bool {
        let cancelled = {
            let mut st = self.inner.state.lock();
            let cancelled = st.take(id.slot, id.seq);
            st.settle_head(&self.inner.head);
            cancelled
        };
        // The callback is dropped after the lock is released.
        cancelled.is_some()
    }

    /// Earliest pending deadline, if any: one load of the published head.
    pub fn next_deadline(&self) -> Option<Nanos> {
        // ordering: Acquire — pairs with settle_head's Release store.
        match self.inner.head.load(Ordering::Acquire) {
            NO_DEADLINE => self.inner.state.lock().published,
            at => Some(at),
        }
    }

    /// Number of pending (uncancelled) timers.
    pub fn pending(&self) -> usize {
        self.inner.state.lock().live
    }

    /// Fires every timer whose deadline is `<= now`. Returns how many ran.
    ///
    /// Callbacks run outside the internal lock, so they may schedule or
    /// cancel further timers. Each timer is taken under one lock pair;
    /// whether another is due — before the first, and after each callback,
    /// which may have scheduled one — is a load of the published head.
    pub fn fire_due(&self, now: Nanos) -> usize {
        let mut fired = 0;
        // ordering: Acquire — pairs with settle_head's Release store.
        while self.inner.head.load(Ordering::Acquire) <= now {
            let cb = {
                let mut st = self.inner.state.lock();
                let cb = st.pop_due(now);
                st.settle_head(&self.inner.head);
                cb
            };
            // `None`: another thread fired it, or the queue is empty and
            // `now` is `NO_DEADLINE`.
            let Some(cb) = cb else { break };
            cb.fire(now);
            fired += 1;
        }
        fired
    }

    /// Entries in the heap: one per slot timer (cancel residue included)
    /// and one per run.
    #[cfg(test)]
    fn heap_len(&self) -> usize {
        self.inner.state.lock().heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::Envelope;
    use proptest::prelude::*;
    use spin_check::sync::AtomicUsize;
    use std::collections::HashMap;

    /// Schedules `run`, in firing order, as a drain hands it over.
    fn schedule_run(q: &TimerQueue, run: Vec<Envelope>) {
        assert!(run.is_sorted_by_key(|env| env.deliver_at));
        let mut mail = run.into_iter().rev().map(Mail::from).collect();
        q.schedule_mail(&mut mail);
    }

    #[test]
    fn clock_advances_and_skips() {
        let c = Clock::new();
        assert_eq!(c.now(), 0);
        c.charge(Cost::Work, 100);
        assert_eq!(c.now(), 100);
        c.charge(Cost::SyncOp, 2);
        assert_eq!(c.now(), 100 + 2 * Cost::SyncOp.ns());
        c.skip_to(50); // past: no-op
        assert_eq!(c.now(), 1_400);
        c.skip_to(1_500);
        assert_eq!(c.now(), 1_500);
    }

    /// Every charge a hook sees, in order.
    fn log_charges(c: &Clock) -> Arc<Mutex<Vec<Charge>>> {
        let log = Arc::new(Mutex::new(Vec::new()));
        let l2 = log.clone();
        c.add_advance_hook(Box::new(move |charge| l2.lock().push(charge)));
        log
    }

    #[test]
    fn advance_hook_sees_every_charge() {
        let c = Clock::new();
        let log = log_charges(&c);
        c.charge(Cost::Work, 30);
        c.charge(Cost::GuardEval, 2);
        assert_eq!(
            *log.lock(),
            vec![
                Charge {
                    cost: Cost::Work,
                    ns: 30
                },
                Charge {
                    cost: Cost::GuardEval,
                    ns: 2 * Cost::GuardEval.ns()
                },
            ]
        );
    }

    #[test]
    fn a_zero_charge_calls_no_hook() {
        let c = Clock::new();
        let log = log_charges(&c);
        c.charge(Cost::Work, 0);
        c.charge(Cost::GuardEval, 0);
        c.charge_all([(Cost::Injected, 0), (Cost::SyncOp, 1)]);
        assert_eq!(
            *log.lock(),
            vec![Charge {
                cost: Cost::SyncOp,
                ns: 650
            }]
        );
        assert_eq!(c.now(), 650);
    }

    #[test]
    fn a_pair_is_observed_as_two_kinds_and_stored_once_unobserved() {
        let pair = [(Cost::HandlerInvoke, 1), (Cost::InterModuleCall, 1)];
        let ns = Cost::HandlerInvoke.ns() + Cost::InterModuleCall.ns();
        let observed = Clock::new();
        let log = log_charges(&observed);
        observed.charge_all(pair);
        assert_eq!(
            *log.lock(),
            vec![
                Charge {
                    cost: Cost::HandlerInvoke,
                    ns: Cost::HandlerInvoke.ns()
                },
                Charge {
                    cost: Cost::InterModuleCall,
                    ns: Cost::InterModuleCall.ns()
                },
            ]
        );
        assert_eq!(observed.now(), ns);
        let quiet = Clock::new();
        quiet.charge_all(pair);
        assert_eq!(quiet.now(), ns, "the same time either way");
    }

    #[test]
    fn two_subscribers_both_observe_every_charge() {
        // Regression: the hook slot used to be replace-only, so a second
        // subscriber (the observability layer) silently evicted the
        // executor's quantum accounting.
        let c = Clock::new();
        let exec_total = Arc::new(AtomicU64::new(0));
        let obs_total = Arc::new(AtomicU64::new(0));
        let (e2, o2) = (exec_total.clone(), obs_total.clone());
        let exec_id = c.add_advance_hook(Box::new(move |charge| {
            e2.fetch_add(charge.ns, Ordering::Relaxed); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
        }));
        let obs_id = c.add_advance_hook(Box::new(move |charge| {
            o2.fetch_add(charge.ns, Ordering::Relaxed); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
        }));
        for ns in [30, 0, 12, 1, 999] {
            c.charge(Cost::Work, ns);
        }
        assert_eq!(exec_total.load(Ordering::Relaxed), 1042); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
        assert_eq!(obs_total.load(Ordering::Relaxed), 1042); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.

        // Removal is per-subscription: the survivor keeps observing.
        assert!(c.remove_advance_hook(obs_id));
        assert!(!c.remove_advance_hook(obs_id));
        c.charge(Cost::Work, 8);
        assert_eq!(exec_total.load(Ordering::Relaxed), 1050); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
        assert_eq!(obs_total.load(Ordering::Relaxed), 1042); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
        assert!(c.remove_advance_hook(exec_id));
        c.charge(Cost::Work, 5); // no subscribers: single relaxed-flag check, no calls
        assert_eq!(exec_total.load(Ordering::Relaxed), 1050); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
    }

    #[test]
    fn timers_fire_in_deadline_then_fifo_order() {
        let q = TimerQueue::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for (at, tag) in [(50u64, "b"), (10, "a"), (50, "c")] {
            let log = log.clone();
            q.schedule_at(at, move |_| log.lock().push(tag));
        }
        assert_eq!(q.next_deadline(), Some(10));
        assert_eq!(q.fire_due(60), 3);
        assert_eq!(*log.lock(), vec!["a", "b", "c"]);
    }

    #[test]
    fn cancelled_timers_do_not_fire() {
        let q = TimerQueue::new();
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = count.clone();
        let id = q.schedule_at(5, move |_| {
            c2.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
        });
        assert!(q.cancel(id));
        assert!(!q.cancel(id));
        assert_eq!(q.fire_due(100), 0);
        assert_eq!(count.load(Ordering::Relaxed), 0); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
        assert_eq!(q.next_deadline(), None);
    }

    #[test]
    fn callbacks_may_reschedule() {
        let q = TimerQueue::new();
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = count.clone();
        let q2 = q.clone();
        q.schedule_at(10, move |now| {
            c2.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
            let c3 = c2.clone();
            q2.schedule_at(now + 10, move |_| {
                c3.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
            });
        });
        q.fire_due(10);
        assert_eq!(count.load(Ordering::Relaxed), 1); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
        q.fire_due(20);
        assert_eq!(count.load(Ordering::Relaxed), 2); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
    }

    /// A run fires as its items scheduled one by one would: in deadline
    /// order, equal deadlines in run order and after the timers scheduled
    /// before the run, before those scheduled after it.
    #[test]
    fn a_run_fires_as_its_items_scheduled_in_order() {
        let q = TimerQueue::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let tagged = |tag: &'static str| {
            let log = log.clone();
            move |now: Nanos| log.lock().push((tag, now))
        };
        q.schedule_at(20, tagged("before"));
        let run = [(10, "r0"), (20, "r1"), (20, "r2"), (30, "r3")]
            .into_iter()
            .enumerate()
            .map(|(i, (at, tag))| Envelope {
                deliver_at: at,
                lane: 0,
                seq: i as u64,
                action: Box::new(tagged(tag)),
            })
            .collect();
        schedule_run(&q, run);
        q.schedule_at(20, tagged("after"));
        schedule_run(&q, Vec::new());
        assert_eq!((q.pending(), q.next_deadline()), (6, Some(10)));
        assert_eq!(q.fire_due(20), 5);
        assert_eq!(q.next_deadline(), Some(30));
        assert_eq!(q.fire_due(30), 1);
        let order: Vec<_> = log.lock().iter().map(|&(tag, _)| tag).collect();
        assert_eq!(order, ["r0", "before", "r1", "r2", "after", "r3"]);
        assert_eq!((q.pending(), q.next_deadline()), (0, None));
    }

    /// A deep backlog of mail costs the heap one entry, not one per
    /// envelope: while a 10 000-item run fires, its next head is the only
    /// entry in the heap. A regression to one heap push per envelope fails
    /// here, not only in the benchmark.
    #[test]
    fn a_deep_run_occupies_one_heap_entry_while_it_fires() {
        const ITEMS: u64 = 10_000;
        let q = TimerQueue::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let run = (0..ITEMS)
            .map(|i| {
                let (q2, seen) = (q.clone(), seen.clone());
                Envelope {
                    deliver_at: i / 4, // four-way ties
                    lane: 0,
                    seq: i,
                    action: Box::new(move |_| seen.lock().push((i, q2.heap_len()))),
                }
            })
            .collect();
        schedule_run(&q, run);
        assert_eq!((q.heap_len(), q.pending()), (1, ITEMS as usize));
        assert_eq!(q.fire_due(ITEMS), ITEMS as usize);
        let seen = seen.lock();
        assert!(seen.iter().map(|&(i, _)| i).eq(0..ITEMS), "run order");
        assert!(seen[..seen.len() - 1].iter().all(|&(_, depth)| depth == 1));
        assert_eq!(seen.last().map(|&(_, depth)| depth), Some(0));
        assert_eq!(q.heap_len(), 0);
    }

    #[test]
    fn fire_due_ignores_future_timers() {
        let q = TimerQueue::new();
        q.schedule_at(100, |_| {});
        assert_eq!(q.fire_due(99), 0);
        assert_eq!(q.pending(), 1);
    }

    /// The one way a slab can be wrong where a map keyed by a never-reused
    /// id could not: TCP cancels its RTO and connect timers by ids it has
    /// held across other timers' lifetimes, and a stale one must not reach
    /// whoever has the slot now — nor may the cancelled timer's heap
    /// residue fire, or be reported as, the slot's next tenant.
    #[test]
    fn a_stale_id_cannot_cancel_the_slots_next_tenant() {
        let q = TimerQueue::new();
        let ran = Arc::new(AtomicUsize::new(0));
        let first = q.schedule_at(10, |_| panic!("cancelled"));
        assert!(q.cancel(first));
        let r2 = ran.clone();
        let tenant = q.schedule_at(20, move |_| {
            r2.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
        });
        assert_eq!(tenant.slot, first.slot, "the vacated slot is reused");
        assert_ne!(tenant, first);
        assert!(!q.cancel(first), "a stale id cancels nothing");
        assert_eq!(q.pending(), 1);
        assert_eq!(q.fire_due(15), 0, "residue at 10 is not the tenant");
        assert_eq!(q.next_deadline(), Some(20));
        assert_eq!(q.fire_due(20), 1);
        assert_eq!(ran.load(Ordering::Relaxed), 1); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.

        // The same after a fire: the fired timer's id is stale too.
        let next = q.schedule_at(30, |_| {});
        assert_eq!(next.slot, tenant.slot);
        assert!(!q.cancel(tenant), "a fired id cancels nothing");
        assert!(q.cancel(next));
        // And an id from another queue names no slot here.
        let elsewhere = TimerQueue::new();
        elsewhere.schedule_at(1, |_| {});
        let foreign = elsewhere.schedule_at(2, |_| {});
        assert!(!q.cancel(foreign));
    }

    /// The retired implementation — a heap of `(deadline, id)` plus a
    /// `HashMap` from id to callback, ids never reused — kept verbatim as
    /// the reference the slab is checked against.
    #[derive(Clone, Default)]
    struct Retired {
        state: Arc<Mutex<RetiredState>>,
    }

    #[derive(Default)]
    struct RetiredState {
        heap: BinaryHeap<Reverse<(Nanos, u64)>>,
        callbacks: HashMap<u64, TimerFn>,
        next_id: u64,
    }

    /// What the comparison drives: both queues behind one face.
    trait Queue: Clone + Send + 'static {
        type Id: Copy + Send + 'static;
        fn schedule(&self, at: Nanos, f: TimerFn) -> Self::Id;
        fn schedule_run(&self, run: Vec<Envelope>);
        fn cancel(&self, id: Self::Id) -> bool;
        fn next_deadline(&self) -> Option<Nanos>;
        fn pending(&self) -> usize;
        fn fire_due(&self, now: Nanos) -> usize;
    }

    impl Queue for TimerQueue {
        type Id = TimerId;
        fn schedule(&self, at: Nanos, f: TimerFn) -> TimerId {
            self.schedule_boxed(at, f)
        }
        fn schedule_run(&self, run: Vec<Envelope>) {
            schedule_run(self, run)
        }
        fn cancel(&self, id: TimerId) -> bool {
            TimerQueue::cancel(self, id)
        }
        fn next_deadline(&self) -> Option<Nanos> {
            TimerQueue::next_deadline(self)
        }
        fn pending(&self) -> usize {
            TimerQueue::pending(self)
        }
        fn fire_due(&self, now: Nanos) -> usize {
            TimerQueue::fire_due(self, now)
        }
    }

    impl Queue for Retired {
        type Id = u64;
        fn schedule(&self, at: Nanos, f: TimerFn) -> u64 {
            let mut st = self.state.lock();
            let id = st.next_id;
            st.next_id += 1;
            st.heap.push(Reverse((at, id)));
            st.callbacks.insert(id, f);
            id
        }
        /// The reference has no runs: one `schedule` per item, in order.
        fn schedule_run(&self, run: Vec<Envelope>) {
            for env in run {
                self.schedule(env.deliver_at, env.action);
            }
        }
        fn cancel(&self, id: u64) -> bool {
            self.state.lock().callbacks.remove(&id).is_some()
        }
        fn next_deadline(&self) -> Option<Nanos> {
            let mut st = self.state.lock();
            while let Some(Reverse((at, id))) = st.heap.peek().copied() {
                if st.callbacks.contains_key(&id) {
                    return Some(at);
                }
                st.heap.pop();
            }
            None
        }
        fn pending(&self) -> usize {
            self.state.lock().callbacks.len()
        }
        fn fire_due(&self, now: Nanos) -> usize {
            let mut fired = 0;
            loop {
                let cb = {
                    let mut st = self.state.lock();
                    match st.heap.peek().copied() {
                        Some(Reverse((at, id))) if at <= now => {
                            st.heap.pop();
                            match st.callbacks.remove(&id) {
                                Some(cb) => cb,
                                None => continue, // cancelled
                            }
                        }
                        _ => break,
                    }
                };
                cb(now);
                fired += 1;
            }
            fired
        }
    }

    /// What a callback does when it fires, besides logging its run.
    #[derive(Debug, Clone, Copy)]
    enum Then {
        Nothing,
        /// Schedule a child this long after the fire (`0`: due at once,
        /// for the same `fire_due`).
        Respawn(Nanos),
        /// Cancel the n-th id handed out so far (modulo how many).
        Cancel(usize),
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Schedule at `at`, doing `Then` when fired.
        Schedule(Nanos, Then),
        /// Schedule a run: deadlines that never decrease, ties allowed.
        Run(Vec<(Nanos, Then)>),
        /// Cancel the n-th id handed out so far (modulo how many).
        Cancel(usize),
        Fire(Nanos),
        NextDeadline,
        Pending,
    }

    fn then() -> impl Strategy<Value = Then> {
        prop_oneof![
            Just(Then::Nothing),
            Just(Then::Nothing),
            (0u64..12).prop_map(Then::Respawn),
            (0usize..64).prop_map(Then::Cancel),
        ]
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..48, then()).prop_map(|(at, then)| Op::Schedule(at, then)),
            (0u64..48, then()).prop_map(|(at, then)| Op::Schedule(at, then)),
            (0u64..48, proptest::collection::vec((0u64..3, then()), 0..9)).prop_map(
                |(mut at, items)| {
                    Op::Run(
                        items
                            .into_iter()
                            .map(|(step, then)| {
                                at += step; // a step of 0 is a tie
                                (at, then)
                            })
                            .collect(),
                    )
                }
            ),
            (0usize..64).prop_map(Op::Cancel),
            (0u64..64).prop_map(Op::Fire),
            Just(Op::NextDeadline),
            Just(Op::Pending),
        ]
    }

    /// The callback `tag` schedules: it logs its run and then does `then`
    /// on `q` — a child it schedules joins `ids`, and a cancel names one of
    /// `ids`.
    fn callback<Q: Queue>(
        q: &Q,
        log: &Arc<Mutex<Vec<String>>>,
        ids: &Arc<Mutex<Vec<Q::Id>>>,
        tag: String,
        then: Then,
    ) -> TimerFn {
        let (q, log, ids) = (q.clone(), log.clone(), ids.clone());
        Box::new(move |now| {
            log.lock().push(format!("ran {tag} at {now}"));
            match then {
                Then::Nothing => {}
                Then::Respawn(delay) => {
                    let log2 = log.clone();
                    let child = q.schedule(
                        now + delay,
                        Box::new(move |now| {
                            log2.lock().push(format!("ran child of {tag} at {now}"))
                        }),
                    );
                    ids.lock().push(child);
                }
                Then::Cancel(n) => {
                    let id = {
                        let ids = ids.lock();
                        (!ids.is_empty()).then(|| ids[n % ids.len()])
                    };
                    if let Some(id) = id {
                        let cancelled = q.cancel(id);
                        log.lock()
                            .push(format!("{tag} cancels #{n} -> {cancelled}"));
                    }
                }
            }
        })
    }

    /// Runs `ops` on `q` and returns everything observable: each call's
    /// return value and each callback's run (tag, fire time), in order;
    /// then cancels every id ever handed out, twice, and fires what is
    /// left — run items, which no id names.
    fn transcript<Q: Queue>(q: Q, ops: &[Op]) -> Vec<String> {
        let log = Arc::new(Mutex::new(Vec::new()));
        let ids: Arc<Mutex<Vec<Q::Id>>> = Arc::default();
        for (tag, op) in ops.iter().enumerate() {
            let note = match *op {
                Op::Schedule(at, then) => {
                    let id = q.schedule(at, callback(&q, &log, &ids, tag.to_string(), then));
                    ids.lock().push(id);
                    continue;
                }
                Op::Run(ref items) => {
                    let run = items
                        .iter()
                        .enumerate()
                        .map(|(i, &(at, then))| Envelope {
                            deliver_at: at,
                            lane: 0,
                            seq: i as u64,
                            action: callback(&q, &log, &ids, format!("{tag}.{i}"), then),
                        })
                        .collect();
                    q.schedule_run(run);
                    continue;
                }
                Op::Cancel(n) => {
                    let id = {
                        let ids = ids.lock();
                        if ids.is_empty() {
                            continue;
                        }
                        ids[n % ids.len()]
                    };
                    format!("cancel #{n} -> {}", q.cancel(id))
                }
                Op::Fire(now) => format!("fire_due({now}) -> {}", q.fire_due(now)),
                Op::NextDeadline => format!("next_deadline -> {:?}", q.next_deadline()),
                Op::Pending => format!("pending -> {}", q.pending()),
            };
            log.lock().push(note);
        }
        let issued = ids.lock().clone();
        let still_pending: Vec<bool> = issued.iter().map(|&id| q.cancel(id)).collect();
        let again = issued.iter().any(|&id| q.cancel(id));
        log.lock().push(format!(
            "cancelled at the end: {still_pending:?}, again: {again}"
        ));
        // Past every deadline, then past every child the first pass spawns.
        let flushed = q.fire_due(FLUSH) + q.fire_due(2 * FLUSH);
        let mut out = std::mem::take(&mut *log.lock());
        out.push(format!("flushed {flushed}"));
        out.push(format!("left: {} {:?}", q.pending(), q.next_deadline()));
        out
    }

    /// Later than any deadline or child the ops can make.
    const FLUSH: Nanos = 1 << 20;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// `TimerQueue` against its own past: over random schedule /
        /// run / cancel / fire / probe sequences, callbacks that reschedule
        /// or cancel included, the slab answers exactly as the heap +
        /// `HashMap` it replaced — same fire order, same return values, a
        /// fired or cancelled id never cancels again, and a reused slot
        /// never answers to a stale id (the reference never reuses one).
        /// The reference schedules a run's items one by one, so a run
        /// keeps the tie order of the items it stands for.
        #[test]
        fn the_slab_answers_as_the_map_did(ops in proptest::collection::vec(op(), 0..48)) {
            let new = transcript(TimerQueue::new(), &ops);
            let old = transcript(Retired::default(), &ops);
            prop_assert_eq!(&new, &old);
            prop_assert!(new
                .iter()
                .any(|line| line.starts_with("cancelled at the end") && line.ends_with("again: false")));
            prop_assert_eq!(new.last().map(String::as_str), Some("left: 0 None"));
        }
    }
}
