//! Seed-replay regression: pins the PR 3 raise-vs-destroy schedule.
//!
//! Build with `RUSTFLAGS="--cfg spin_check"`. The scenario is the exact
//! race PR 3 hardened: a raise snapshots the published record while the
//! owner destroys the event, and must settle to `UnknownEvent`. Here the
//! *harvest closure* deliberately panics on that (legitimate) outcome so
//! the checker hands back the schedule that produces it — giving us a
//! stable, replayable name for the interleaving itself.
//!
//! The test pins three properties:
//!   1. determinism — exploration finds the same first schedule every
//!      run (no wall-clock, no address-order, no hash-order leakage);
//!   2. the pinned seed below still decodes and replays to the same
//!      outcome (schedule enumeration is part of the tool's contract —
//!      if a model change legitimately reorders it, update the literal
//!      and say so in the commit);
//!   3. a replay is a single execution, not a re-exploration.
//!
//! The raise and the destroy share one `Dispatcher::unmetered()` clock
//! with no hand-off, outside the clock's one-writer contract (DESIGN.md
//! decision 26), so that clock may lose a charge; the scenario never
//! reads it.

#![cfg(all(spin_check, not(spin_check_mutant)))]

use spin_check::model::Checker;
use spin_check::thread;
use spin_core::{DispatchError, Dispatcher, Identity};

/// First schedule (bounded DFS order, preemption bound 2) in which the
/// raise loses the race and snapshots the tombstone. The raise path
/// gained two scheduling points with the hot-swap quiesce gate (the
/// in-flight count increment and the gate load) and one more with the
/// overload ledger (the quota-cell bind load at the admission edge); the
/// one-raise-path merge took three back out (no resolve-once cache load,
/// quota cell loaded after the destroyed re-check). Folding gate,
/// tombstone, quota binding and generation into the one published record
/// took four more: a serial raise is 10 scheduling points where it was 14
/// (the destroyed load in `resolved`, the gate load, the destroyed
/// re-check and the quota-cell load are gone), and `destroy` is one
/// publish, so the losing schedule is four decisions shorter. The atomics
/// budget took one more out of the raise — 9, the second raise counter is
/// gone — after the snapshot, where this schedule no longer looks; and
/// `destroy` now empties the state it ends, taking the write-side lock
/// before it publishes the tombstone, so the losing schedule is one
/// decision longer.
const PINNED_SEED: &str = "pb2-0-0-1-1-1-1-1-0";

const HARVEST: &str = "HARVEST: raise lost the race";

fn harvest_scenario() {
    let d = Dispatcher::unmetered();
    let (ev, owner) = d.define::<u64, u64>("chk.destroy", Identity::kernel("chk"));
    owner.set_primary(|_| 7).expect("fresh event");
    let t = thread::spawn(move || {
        owner.destroy().expect("owner destroys once");
    });
    let r = d.raise(&ev, 0);
    t.join().expect("destroyer thread");
    if matches!(r, Err(DispatchError::UnknownEvent { .. })) {
        panic!("{}", HARVEST);
    }
}

#[test]
fn raise_vs_destroy_schedule_is_pinned_and_replayable() {
    let first = Checker::with_bound(2).check(harvest_scenario);
    let failure = first
        .failure
        .expect("some schedule must make the raise lose the race");
    assert!(
        failure.message.contains(HARVEST),
        "unexpected failure: {failure:?}"
    );
    assert_eq!(
        failure.seed, PINNED_SEED,
        "schedule enumeration changed; if intentional, update PINNED_SEED"
    );

    let second = Checker::with_bound(2).check(harvest_scenario);
    assert_eq!(
        second.failure.expect("still found").seed,
        failure.seed,
        "exploration must be deterministic run-to-run"
    );

    let replay = Checker::with_bound(2).replay(PINNED_SEED, harvest_scenario);
    let replayed = replay.failure.expect("pinned seed must reproduce");
    assert!(replayed.message.contains(HARVEST));
    assert_eq!(replayed.seed, PINNED_SEED, "replay reports the same seed");
    assert_eq!(replay.executions, 1, "a replay is exactly one execution");
    assert!(replay.complete, "a replay terminates the search");
}

/// Replaying a seed on a *passing* schedule (the very first DFS schedule
/// is serial: the raise wins) reports no failure — replay does not
/// manufacture violations.
#[test]
fn replaying_a_clean_schedule_reports_no_failure() {
    let report = Checker::with_bound(2).replay("pb2-0", harvest_scenario);
    assert!(report.complete);
    assert!(
        report.failure.is_none(),
        "serial schedule must pass: {:?}",
        report.failure
    );
}
