//! Bound-2 model of [`spin_sal::TimerQueue`]: a binary heap for the order
//! and a generation-checked slab for the callbacks. A timer leaves the
//! queue one of two ways — `fire_due` pops it, `cancel` empties its slot —
//! and both free the slot for the next tenant, so the race between them is
//! where a callback could run after its cancel was acknowledged, run
//! twice, or a slot could be freed twice and handed to two timers at once.
//! TCP's RTO and connect timers are cancelled from the protocol strand
//! while a shard's pump fires them, which is this race. A run of mail
//! shares the heap with those timers through one entry, its head, which
//! `fire_due` replaces with the run's next item as it fires.
//!
//! Build with `RUSTFLAGS="--cfg spin_check"` (see `tests/checks.rs` for
//! the cfg discipline).

#![cfg(all(spin_check, not(spin_check_mutant)))]

use spin_check::model::Checker;
use spin_check::sync::{Arc, AtomicU64, Mutex, Ordering};
use spin_check::thread;
use spin_sal::{Mailbox, Nanos, TimerQueue};

const BOUND: u32 = 2;

/// A callback that counts its runs.
fn counting(runs: &Arc<AtomicU64>) -> impl FnOnce(u64) + Send + 'static {
    let runs = runs.clone();
    move |_| {
        runs.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — joins and `fire_due`'s return are the sync points.
    }
}

/// Under every bound-2 interleaving of `cancel(id)` with `fire_due(now)` on
/// a due timer: exactly one of "the callback ran" and "`cancel` returned
/// `true`"; the bystander timer sharing the heap fires regardless; and the
/// slot is freed once — the two timers scheduled afterwards both fire,
/// which they could not if they had been handed the same slot.
#[test]
fn a_cancel_racing_the_fire_settles_the_timer_exactly_once() {
    let report = Checker::with_bound(BOUND).check(|| {
        let q = TimerQueue::new();
        let (target, bystander, later) =
            <(Arc<AtomicU64>, Arc<AtomicU64>, Arc<AtomicU64>)>::default();
        let id = q.schedule_at(10, counting(&target));
        q.schedule_at(10, counting(&bystander));

        let q2 = q.clone();
        let canceller = thread::spawn(move || q2.cancel(id));
        let fired = q.fire_due(10) as u64;
        let cancelled = canceller.join().expect("canceller") as u64;

        let ran = target.load(Ordering::Relaxed); // ordering: Relaxed — the canceller is joined and `fire_due` has returned.
        assert_eq!(
            ran + cancelled,
            1,
            "ran {ran} times, cancel said {cancelled}"
        );
        assert_eq!(bystander.load(Ordering::Relaxed), 1); // ordering: Relaxed — as above.
        assert_eq!(fired, ran + 1, "fire_due counts what it ran");
        assert!(!q.cancel(id), "settled either way: the id is stale");
        assert_eq!((q.pending(), q.next_deadline()), (0, None));

        q.schedule_at(20, counting(&later));
        q.schedule_at(20, counting(&later));
        assert_eq!(q.fire_due(20), 2);
        let later = later.load(Ordering::Relaxed); // ordering: Relaxed — same thread.
        assert_eq!(later, 2, "two timers shared a slot");
    });
    eprintln!(
        "timer cancel/fire: executions={} steps={}",
        report.executions, report.steps
    );
    assert!(report.failure.is_none(), "violation: {:?}", report.failure);
    assert!(report.complete, "schedule space must be exhausted");
}

/// A callback that schedules a timer already due has it fired by the same
/// `fire_due` — callbacks run outside the lock and the pass re-reads the
/// heap after each — while another thread schedules into the same queue:
/// that thread's timer fires in this pass or the next, never twice and
/// never not at all.
#[test]
fn a_timer_scheduled_due_by_a_callback_fires_in_the_same_pass() {
    let report = Checker::with_bound(BOUND).check(|| {
        let q = TimerQueue::new();
        let (child, outsider) = <(Arc<AtomicU64>, Arc<AtomicU64>)>::default();
        let (q2, c2) = (q.clone(), child.clone());
        q.schedule_at(10, move |now| {
            q2.schedule_at(now, counting(&c2));
        });

        let (q3, o2) = (q.clone(), outsider.clone());
        let scheduler = thread::spawn(move || {
            q3.schedule_at(5, counting(&o2));
        });
        let first_pass = q.fire_due(10);
        let child = child.load(Ordering::Relaxed); // ordering: Relaxed — `fire_due` ran it on this thread.
        assert_eq!(child, 1, "the child waited for another pass");
        scheduler.join().expect("scheduler");
        let second_pass = q.fire_due(10);
        assert_eq!(outsider.load(Ordering::Relaxed), 1); // ordering: Relaxed — the scheduler is joined and both passes have returned.
        assert_eq!(first_pass + second_pass, 3);
        assert_eq!((q.pending(), q.next_deadline()), (0, None));
    });
    eprintln!(
        "timer reschedule-in-pass: executions={} steps={}",
        report.executions, report.steps
    );
    assert!(report.failure.is_none(), "violation: {:?}", report.failure);
    assert!(report.complete, "schedule space must be exhausted");
}

/// A callback that logs its tag.
fn logging(
    log: &Arc<Mutex<Vec<&'static str>>>,
    tag: &'static str,
) -> Box<dyn FnOnce(Nanos) + Send> {
    let log = log.clone();
    Box::new(move |_| log.lock().push(tag))
}

/// A run of mail drained onto the queue by one thread while another cancels
/// a slot timer and fires the queue ([`Mailbox::drain_onto`], DESIGN.md
/// decisions 27 and 36): under every bound-2 interleaving each run item fires exactly once,
/// the cancelled timer never does, and what fires fires in `(deadline,
/// seq)` order — the run's items in run order, and the bystander, due at the
/// run's later deadline but scheduled first, before the run's items due
/// then. Whether the run lands before, during or after the first pass is
/// the schedule's choice; the second pass, after the join, fires the rest.
#[test]
fn a_run_scheduled_while_the_queue_fires_fires_each_item_once() {
    let report = Checker::with_bound(BOUND).check(|| {
        let q = TimerQueue::new();
        let (cancelled, log) = <(Arc<AtomicU64>, Arc<Mutex<Vec<&'static str>>>)>::default();
        let id = q.schedule_at(10, counting(&cancelled));
        q.schedule_boxed(10, logging(&log, "bystander"));
        let mailbox = Mailbox::new();
        for (deliver_at, tag) in [(5, "r0"), (10, "r1"), (10, "r2")] {
            assert!(mailbox.post(deliver_at, 0, logging(&log, tag)));
        }

        let q2 = q.clone();
        let scheduler = thread::spawn(move || mailbox.drain_onto(&q2));
        assert!(q.cancel(id), "the slot timer was pending");
        let first_pass = q.fire_due(10);
        scheduler.join().expect("scheduler");
        let second_pass = q.fire_due(10);

        assert_eq!(cancelled.load(Ordering::Relaxed), 0); // ordering: Relaxed — both passes have returned on this thread.
        assert_eq!(first_pass + second_pass, 4, "each item once");
        let log = log.lock().clone();
        let at = |tag| {
            let mut hits = log.iter().enumerate().filter(|&(_, &t)| t == tag);
            let (pos, _) = hits
                .next()
                .unwrap_or_else(|| panic!("{tag} never fired: {log:?}"));
            assert!(hits.next().is_none(), "{tag} fired twice: {log:?}");
            pos
        };
        let (r0, r1, r2, bystander) = (at("r0"), at("r1"), at("r2"), at("bystander"));
        assert!(r0 < r1 && r1 < r2, "the run out of order: {log:?}");
        assert!(bystander < r1, "a later seq fired first: {log:?}");
        assert_eq!((q.pending(), q.next_deadline()), (0, None));
    });
    eprintln!(
        "timer run/fire/cancel: executions={} steps={}",
        report.executions, report.steps
    );
    assert!(report.failure.is_none(), "violation: {:?}", report.failure);
    assert!(report.complete, "schedule space must be exhausted");
}
