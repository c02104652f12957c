//! The global virtual clock and the discrete-event timer queue.
//!
//! All simulated time in the reproduction lives on a single timeline. The
//! currently-running simulated context advances the clock by calling
//! [`Clock::advance`] with a cost drawn from the
//! [`MachineProfile`](crate::MachineProfile); asynchronous completions (disk
//! interrupts, packet arrivals, preemption ticks) are closures scheduled on
//! the [`TimerQueue`] and fired by the executor when the clock passes their
//! deadline.
//!
//! Advance hooks let a layer observe every charge: the observability
//! subsystem subscribes one to account the scheduler domain's CPU time,
//! and a traced benchmark round subscribes a counter. The executor in
//! `spin-sched` does not subscribe: it reads the clock where a slice
//! starts and where its charge is wanted, and preempts at safe points on
//! that difference — how the paper's preemptive kernel ("the kernel is
//! preemptive, ensuring that a handler cannot take over the processor",
//! §3.2) is reproduced deterministically.
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
//! So [`Clock::advance`] — the one primitive every layer of the packet
//! path pays, many times per packet, with an atomics budget (DESIGN.md
//! decision 18) — is a load and a Release store, no locked instruction,
//! then a walk of the subscribers that only loads. A charge on an
//! executor's clock is pinned at zero locked operations by
//! `a_charge_on_an_executors_clock_stays_within_its_budget` in
//! `spin-check`, and `a_clock_handed_across_a_lock_keeps_every_charge`
//! checks the contract itself. Two writers with no hand-off between them
//! may lose a charge.

use crate::mailbox::Envelope;
use spin_check::hooks::HookRegistry;
use spin_check::sync::{AtomicU64, Mutex, Ordering};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Virtual nanoseconds since simulation boot.
pub type Nanos = u64;

/// Observer invoked after every clock advance with the amount charged.
pub type AdvanceHook = Box<dyn Fn(Nanos) + Send + Sync>;

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

    /// Advances the clock by `ns`, charging the running context.
    ///
    /// Advance hooks (if installed) run after the time is added. The
    /// caller must be the clock's one writer (see [`Clock`]).
    pub fn advance(&self, ns: Nanos) {
        if ns == 0 {
            return;
        }
        let t = self.inner.now.load(Ordering::Relaxed); // ordering: Relaxed — one writer at a time: the last charge is this thread's own or was handed over by a lock or barrier.
        self.inner.now.store(t + ns, Ordering::Release); // ordering: Release — one writer at a time, so a store, not an RMW; pairs with now()'s Acquire.
        self.inner.hooks.for_each(|hook| hook(ns));
    }

    /// Moves the clock directly to `t` without charging any context.
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
pub type TimerFn = Box<dyn FnOnce(Nanos) + Send>;

/// One slab entry. `seq` names the tenant; the callback is there until the
/// timer fires or is cancelled, and the slot is free again from then on.
struct Slot {
    seq: u64,
    callback: Option<TimerFn>,
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
    /// What is left of each run, in order; an exhausted run's index is
    /// free for the next.
    runs: Vec<std::vec::IntoIter<Envelope>>,
    free_runs: Vec<u32>,
    /// Timers scheduled and neither fired nor cancelled, run items
    /// included.
    live: usize,
    next_seq: u64,
}

impl TimerState {
    /// Takes the head of the heap, which is due: the callback of a slot
    /// timer (`None` if it was cancelled), or the next item of a run,
    /// whose following item then takes the head's place in the heap.
    fn pop_head(&mut self) -> Option<TimerFn> {
        let mut head = self.heap.peek_mut()?;
        let Reverse((_, seq, index)) = *head;
        if index & RUN == 0 {
            PeekMut::pop(head);
            return self.take(index, seq);
        }
        let run = &mut self.runs[(index & !RUN) as usize];
        let item = run.next().expect("a run in the heap has an item left");
        match run.as_slice().first() {
            // The run's next item has the next seq and no earlier deadline,
            // so it sifts down from where its predecessor was.
            Some(next) => *head = Reverse((next.deliver_at, seq + 1, index)),
            None => {
                PeekMut::pop(head);
                *run = Default::default(); // frees the drain's buffer
                self.free_runs.push(index & !RUN);
            }
        }
        self.live -= 1;
        Some(item.action)
    }

    /// Takes the callback of timer (`slot`, `seq`) and frees the slot —
    /// `None` if that timer has fired or been cancelled already, whoever
    /// holds the slot now.
    fn take(&mut self, slot: u32, seq: u64) -> Option<TimerFn> {
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
/// A timer's order lives in a binary heap and its callback in a slab slot
/// the heap entry and the [`TimerId`] both name, so scheduling, firing and
/// cancelling hash nothing and — once the heap and the slab have grown to
/// the number of timers in flight — allocate nothing beyond the callback's
/// own box. A slot is reused as soon as its timer fires or is cancelled;
/// the sequence number in the id and in the heap entry is the generation
/// check that keeps a stale id, or a cancelled timer's heap residue, from
/// touching the next tenant.
///
/// A drained mailbox is ordered already, so it is scheduled as one run
/// ([`TimerQueue::schedule_run`]): the run keeps its items in the drain's
/// own buffer and only its head waits in the heap, so a backlog of mail
/// costs the heap one entry, not one per envelope (DESIGN.md decision 27).
#[derive(Clone, Default)]
pub struct TimerQueue {
    state: Arc<Mutex<TimerState>>,
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
        let mut st = self.state.lock();
        let seq = st.next_seq;
        st.next_seq += 1;
        let tenant = Slot {
            seq,
            callback: Some(f),
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
        TimerId { slot, seq }
    }

    /// Schedules a run of mail: each envelope's action fires when the
    /// clock reaches its `deliver_at`, exactly as if each had been passed
    /// to [`TimerQueue::schedule_boxed`] in order — the run takes the next
    /// `run.len()` sequence numbers, so equal deadlines fire in run order
    /// and after every timer scheduled before it. Run items are not
    /// cancellable.
    ///
    /// The deadlines must never decrease along the run (a drain's order).
    /// The run is kept as the buffer it came in, and only its head waits
    /// in the heap.
    pub fn schedule_run(&self, run: Vec<Envelope>) {
        assert!(
            run.is_sorted_by_key(|env| env.deliver_at),
            "a run's deadlines never decrease"
        );
        let Some(head) = run.first().map(|env| env.deliver_at) else {
            return;
        };
        let mut st = self.state.lock();
        let seq = st.next_seq;
        st.next_seq += run.len() as u64;
        st.live += run.len();
        let run = run.into_iter();
        let index = match st.free_runs.pop() {
            Some(index) => {
                st.runs[index as usize] = run;
                index
            }
            None => {
                st.runs.push(run);
                (st.runs.len() - 1) as u32
            }
        };
        st.heap.push(Reverse((head, seq, index | RUN)));
    }

    /// Cancels a pending timer. Returns `true` if it had not yet fired.
    pub fn cancel(&self, id: TimerId) -> bool {
        // The callback is dropped after the lock is released.
        let cancelled = self.state.lock().take(id.slot, id.seq);
        cancelled.is_some()
    }

    /// Earliest pending deadline, if any.
    pub fn next_deadline(&self) -> Option<Nanos> {
        let mut st = self.state.lock();
        // Drop cancelled heap residue so the reported deadline is live.
        while let Some(Reverse((at, seq, index))) = st.heap.peek().copied() {
            if st.is_live(index, seq) {
                return Some(at);
            }
            st.heap.pop();
        }
        None
    }

    /// Number of pending (uncancelled) timers.
    pub fn pending(&self) -> usize {
        self.state.lock().live
    }

    /// Fires every timer whose deadline is `<= now`. Returns how many ran.
    ///
    /// Callbacks run outside the internal lock, so they may schedule or
    /// cancel further timers.
    pub fn fire_due(&self, now: Nanos) -> usize {
        let mut fired = 0;
        loop {
            let cb = {
                let mut st = self.state.lock();
                match st.heap.peek() {
                    Some(&Reverse((at, _, _))) if at <= now => match st.pop_head() {
                        Some(cb) => cb,
                        None => continue, // cancelled
                    },
                    _ => break,
                }
            };
            cb(now);
            fired += 1;
        }
        fired
    }

    /// Entries in the heap: one per slot timer (cancel residue included)
    /// and one per run.
    #[cfg(test)]
    fn heap_len(&self) -> usize {
        self.state.lock().heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spin_check::sync::AtomicUsize;
    use std::collections::HashMap;

    #[test]
    fn clock_advances_and_skips() {
        let c = Clock::new();
        assert_eq!(c.now(), 0);
        c.advance(100);
        assert_eq!(c.now(), 100);
        c.skip_to(50); // past: no-op
        assert_eq!(c.now(), 100);
        c.skip_to(500);
        assert_eq!(c.now(), 500);
    }

    #[test]
    fn advance_hook_sees_every_charge() {
        let c = Clock::new();
        let total = Arc::new(AtomicU64::new(0));
        let t2 = total.clone();
        c.add_advance_hook(Box::new(move |ns| {
            t2.fetch_add(ns, Ordering::Relaxed); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
        }));
        c.advance(30);
        c.advance(0); // zero charges do not invoke the hook
        c.advance(12);
        assert_eq!(total.load(Ordering::Relaxed), 42); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
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
        let exec_id = c.add_advance_hook(Box::new(move |ns| {
            e2.fetch_add(ns, Ordering::Relaxed); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
        }));
        let obs_id = c.add_advance_hook(Box::new(move |ns| {
            o2.fetch_add(ns, Ordering::Relaxed); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
        }));
        for ns in [30, 0, 12, 1, 999] {
            c.advance(ns);
        }
        assert_eq!(exec_total.load(Ordering::Relaxed), 1042); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
        assert_eq!(obs_total.load(Ordering::Relaxed), 1042); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.

        // Removal is per-subscription: the survivor keeps observing.
        assert!(c.remove_advance_hook(obs_id));
        assert!(!c.remove_advance_hook(obs_id));
        c.advance(8);
        assert_eq!(exec_total.load(Ordering::Relaxed), 1050); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
        assert_eq!(obs_total.load(Ordering::Relaxed), 1042); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
        assert!(c.remove_advance_hook(exec_id));
        c.advance(5); // no subscribers: single relaxed-flag check, no calls
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
        q.schedule_run(run);
        q.schedule_at(20, tagged("after"));
        q.schedule_run(Vec::new());
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
        q.schedule_run(run);
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
            TimerQueue::schedule_run(self, run)
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
