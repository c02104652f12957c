//! Bound-2 model of the inter-shard [`spin_sal::Mailbox`] — the only
//! channel between per-core kernel shards, so its concurrent post/drain
//! paths carry the whole multicore determinism argument.
//!
//! Build with `RUSTFLAGS="--cfg spin_check"` (see `tests/checks.rs` for
//! the cfg discipline). Two properties are explored exhaustively at
//! preemption bound 2, and one legitimate partial-drain interleaving is
//! pinned by replay seed so the schedule enumeration itself is a
//! regression surface.

#![cfg(all(spin_check, not(spin_check_mutant)))]

use spin_check::model::Checker;
use spin_check::sync::{Arc, AtomicU64, Ordering};
use spin_check::thread;
use spin_sal::Mailbox;

const BOUND: u32 = 2;

fn checker() -> Checker {
    Checker::with_bound(BOUND)
}

/// Under every bound-2 interleaving of two posters (distinct lanes) and a
/// racing drain, no envelope is lost or duplicated, and every drain batch
/// comes out sorted by `(deliver_at, lane, seq)`.
#[test]
fn racing_posts_and_drain_lose_nothing_and_stay_sorted() {
    let report = checker().check(|| {
        let mb = Mailbox::new();
        let fired = Arc::new(AtomicU64::new(0));
        let post = |mb: &Mailbox, lane: u64| {
            let fired = fired.clone();
            assert!(mb.post(100, lane, move |_| {
                fired.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — the join below is the sync point.
            }));
        };
        let m2 = mb.clone();
        let f2 = fired.clone();
        let t = thread::spawn(move || {
            let fired = f2.clone();
            assert!(m2.post(100, 2, move |_| {
                fired.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — the join below is the sync point.
            }));
        });
        post(&mb, 1);
        let drained = mb.drain();
        let keys: Vec<_> = drained
            .iter()
            .map(|e| (e.deliver_at, e.lane, e.seq))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "drain batch out of order");
        for env in drained {
            (env.action)(100);
        }
        t.join().expect("poster");
        for env in mb.drain() {
            (env.action)(100);
        }
        assert_eq!(
            fired.load(Ordering::Relaxed), // ordering: Relaxed — both threads joined above.
            2,
            "an envelope was lost or duplicated"
        );
        assert_eq!(mb.len(), 0);
        let (posted, drained_n, dropped) = mb.stats();
        assert_eq!((posted, drained_n, dropped), (2, 2, 0));
    });
    eprintln!(
        "mailbox post/drain: executions={} steps={}",
        report.executions, report.steps
    );
    assert!(report.failure.is_none(), "violation: {:?}", report.failure);
    assert!(report.complete, "schedule space must be exhausted");
}

/// First bound-2 schedule in which the racing drain observes exactly one
/// of the two envelopes — the legitimate partial-drain interleaving the
/// conservative barrier tolerates (the second envelope is picked up at
/// the next safe point). It is DFS schedule zero: the root thread posts
/// and drains before the spawned poster ever runs. Pinned by seed so
/// schedule enumeration changes are deliberate. PR 26 moved the `posted`
/// and `drained` counters under the mailbox's lock, so the root thread's
/// post and drain are one scheduling point shorter each: ten decisions
/// became eight (`pb2-0-0-0-0-0-0-0-0-0-0` before).
const PINNED_SEED: &str = "pb2-0-0-0-0-0-0-0-0";

const HARVEST: &str = "HARVEST: drain saw a partial mailbox";

fn harvest_scenario() {
    let mb = Mailbox::new();
    let m2 = mb.clone();
    let t = thread::spawn(move || {
        assert!(m2.post(100, 2, |_| {}));
    });
    assert!(mb.post(100, 1, |_| {}));
    let drained = mb.drain();
    t.join().expect("poster");
    if drained.len() == 1 {
        panic!("{}", HARVEST);
    }
}

#[test]
fn partial_drain_schedule_is_pinned_and_replayable() {
    let first = checker().check(harvest_scenario);
    let failure = first
        .failure
        .expect("some schedule must interleave the drain between the posts");
    assert!(
        failure.message.contains(HARVEST),
        "unexpected failure: {failure:?}"
    );
    assert_eq!(
        failure.seed, PINNED_SEED,
        "schedule enumeration changed; if intentional, update PINNED_SEED"
    );

    let replay = checker().replay(PINNED_SEED, harvest_scenario);
    let replayed = replay.failure.expect("pinned seed must reproduce");
    assert!(replayed.message.contains(HARVEST));
    assert_eq!(replay.executions, 1, "a replay is exactly one execution");
}
