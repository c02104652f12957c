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
//! The executor in `spin-sched` installs an *advance hook* on the clock so
//! that every charge is also accounted against the running strand's quantum;
//! that is how the paper's preemptive kernel ("the kernel is preemptive,
//! ensuring that a handler cannot take over the processor", §3.2) is
//! reproduced deterministically.
//!
//! [`Clock::advance`] is the one primitive every layer of the packet path
//! pays, many times per packet, so it has an atomics budget (DESIGN.md
//! decision 18): one `fetch_add` on the time, then a walk of the
//! subscribers that only loads. With no subscriber that is one more load;
//! with the executor subscribed it is the executor's one `fetch_add` on its
//! quantum — two locked read-modify-writes per charge, pinned by
//! `an_observed_charge_stays_within_its_budget` in `spin-check`.

use spin_check::hooks::HookRegistry;
use spin_check::sync::{AtomicU64, Mutex, Ordering};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// Virtual nanoseconds since simulation boot.
pub type Nanos = u64;

/// Observer invoked after every clock advance with the amount charged.
pub type AdvanceHook = Box<dyn Fn(Nanos) + Send + Sync>;

/// Handle to an installed advance hook, usable for removal.
pub type AdvanceHookId = spin_check::hooks::HookId;

/// The shared virtual clock.
///
/// Cheap to clone (`Arc` inside); reads are lock-free.
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
        self.inner.now.load(Ordering::Acquire) // ordering: Acquire — a time read orders after the charge that produced it.
    }

    /// Advances the clock by `ns`, charging the running context.
    ///
    /// The executor's advance hook (if installed) runs after the time is
    /// added; it may deschedule the calling thread to effect preemption.
    pub fn advance(&self, ns: Nanos) {
        if ns == 0 {
            return;
        }
        self.inner.now.fetch_add(ns, Ordering::AcqRel); // ordering: AcqRel — every charge is ordered with every other charge and with now().
        self.inner.hooks.for_each(|hook| hook(ns));
    }

    /// Moves the clock directly to `t` without charging any context.
    ///
    /// Used by the executor when the system is idle and the next work item
    /// is a timer in the future. Does nothing if `t` is in the past.
    pub fn skip_to(&self, t: Nanos) {
        let mut cur = self.inner.now.load(Ordering::Acquire); // ordering: Acquire — starts the CAS loop from a charge-ordered view.
        while t > cur {
            match self
                .inner
                .now
                .compare_exchange(cur, t, Ordering::AcqRel, Ordering::Acquire) // ordering: AcqRel success orders the jump like a charge; Acquire failure re-reads.
            {
                Ok(_) => break,
                Err(observed) => cur = observed,
            }
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

/// Identifier of a scheduled timer, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(u64);

type TimerFn = Box<dyn FnOnce(Nanos) + Send>;

#[derive(Default)]
struct TimerState {
    /// Min-heap of (deadline, id); ids give FIFO order among equal deadlines.
    heap: BinaryHeap<Reverse<(Nanos, TimerId)>>,
    /// Live callbacks; cancelled timers are simply absent.
    callbacks: HashMap<TimerId, TimerFn>,
    next_id: u64,
}

/// A deterministic discrete-event timer queue.
///
/// Deadlines are absolute virtual times. Entries with equal deadlines fire
/// in scheduling order, making multi-host experiments reproducible.
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
        let mut st = self.state.lock();
        let id = TimerId(st.next_id);
        st.next_id += 1;
        st.heap.push(Reverse((at, id)));
        st.callbacks.insert(id, Box::new(f));
        id
    }

    /// Cancels a pending timer. Returns `true` if it had not yet fired.
    pub fn cancel(&self, id: TimerId) -> bool {
        self.state.lock().callbacks.remove(&id).is_some()
    }

    /// Earliest pending deadline, if any.
    pub fn next_deadline(&self) -> Option<Nanos> {
        let mut st = self.state.lock();
        // Drop cancelled heap residue so the reported deadline is live.
        while let Some(Reverse((at, id))) = st.heap.peek().copied() {
            if st.callbacks.contains_key(&id) {
                return Some(at);
            }
            st.heap.pop();
        }
        None
    }

    /// Number of pending (uncancelled) timers.
    pub fn pending(&self) -> usize {
        self.state.lock().callbacks.len()
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

#[cfg(test)]
mod tests {
    use super::*;
    use spin_check::sync::AtomicUsize;

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

    #[test]
    fn fire_due_ignores_future_timers() {
        let q = TimerQueue::new();
        q.schedule_at(100, |_| {});
        assert_eq!(q.fire_due(99), 0);
        assert_eq!(q.pending(), 1);
    }
}
