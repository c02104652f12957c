//! Bound-2 model of [`spin_check::sync::Counter`], the facade's one count
//! type: every kernel statistic and id allocator that publishes nothing.
//!
//! Build with `RUSTFLAGS="--cfg spin_check"` (see `tests/checks.rs` for
//! the cfg discipline). Under that cfg a `Counter` is one instrumented
//! `AtomicU64`, so the explorer sees each of its operations.

#![cfg(all(spin_check, not(spin_check_mutant)))]

use spin_check::model::Checker;
use spin_check::sync::{Arc, Counter};
use spin_check::thread;

fn checker() -> Checker {
    Checker::with_bound(2)
}

/// Two threads add to one count under every bound-2 interleaving: no add
/// is lost, the two allocations made with `fetch_add` are distinct, and
/// the later one starts where every other add left the count.
#[test]
fn two_threads_adding_to_one_counter_lose_nothing() {
    let report = checker().check(|| {
        let count = Arc::new(Counter::new(1));
        let c2 = count.clone();
        let t = thread::spawn(move || {
            c2.add(2);
            c2.fetch_add(10)
        });
        count.add(3);
        let mine = count.fetch_add(10);
        let theirs = t.join().expect("adder");
        assert_ne!(mine, theirs, "two allocations returned one id");
        assert_eq!(mine.max(theirs), 1 + 2 + 3 + 10);
        assert_eq!(count.get(), 1 + 2 + 3 + 10 + 10);
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(report.complete, "schedule space must be exhausted");
    assert!(report.executions > 1, "the adds interleave");
}

/// An add of zero touches nothing, as the raise's many zero-moving counts
/// rely on; an add of one is one read-modify-write, and a read one load.
#[test]
fn adding_zero_is_no_facade_operation() {
    let ops = |f: fn(&Counter)| {
        let report = checker().check(move || f(&Counter::default()));
        assert!(report.failure.is_none(), "{:?}", report.failure);
        (report.steps, report.locked)
    };
    assert_eq!(ops(|c| c.add(0)), (0, 0));
    assert_eq!(ops(|c| c.add(1)), (1, 1));
    assert_eq!(ops(|c| _ = c.get()), (1, 0));
}
