//! Mutant detection: proves the model checker actually catches the bug
//! classes it claims to.
//!
//! Build with `RUSTFLAGS="--cfg spin_check --cfg spin_check_mutant"` (and
//! its own `CARGO_TARGET_DIR`, e.g. `target/spin-check-mutant`). That cfg
//! plants two known-wrong publication orders in the kernel:
//!
//! 1. `core::dispatch::Dispatcher::destroy` publishes twice — the
//!    cleared plan, then the tombstone — a racing raise can snapshot the
//!    live-but-empty record in between and settle to `NoHandlerRan`
//!    instead of `UnknownEvent`.
//! 2. `check::hooks::HookRegistry::add` counts the subscription live
//!    before its node is linked — a reader can see the registry armed
//!    (`Clock::charges_observed`) and then walk a chain that does not
//!    hold the hook yet.
//!
//! Each test runs the same scenario as the corresponding trunk check in
//! `tests/checks.rs`, asserts the checker reports a failure with a
//! non-empty schedule seed, and replays the seed to prove the failing
//! interleaving is deterministic.
//!
//! The dispatcher models raise on one `Dispatcher::unmetered()` from two
//! model threads with no hand-off, outside the clock's one-writer contract
//! (DESIGN.md decision 26), so that clock may lose a charge; no model here
//! reads it.

#![cfg(all(spin_check, spin_check_mutant))]

use spin_check::hooks::HookRegistry;
use spin_check::model::Checker;
use spin_check::sync::Arc;
use spin_check::thread;
use spin_core::{DispatchError, Dispatcher, Identity};

const BOUND: u32 = 2;

fn destroy_scenario() {
    let d = Dispatcher::unmetered();
    let (ev, owner) = d.define::<u64, u64>("chk.destroy", Identity::kernel("chk"));
    owner.set_primary(|_| 7).expect("fresh event");
    let t = thread::spawn(move || {
        owner.destroy().expect("owner destroys once");
    });
    match d.raise(&ev, 0) {
        Ok(7) => {}
        Err(DispatchError::UnknownEvent { .. }) => {}
        other => panic!("raise during destroy leaked: {other:?}"),
    }
    t.join().expect("destroyer thread");
}

fn registry_scenario() {
    let reg: Arc<HookRegistry<u64>> = Arc::new(HookRegistry::new());
    let reg2 = Arc::clone(&reg);
    let t = thread::spawn(move || {
        reg2.add(7);
    });
    if reg.is_armed() {
        let mut seen = Vec::new();
        reg.for_each(|v| seen.push(*v));
        assert_eq!(seen, [7], "armed, but the walk found no hook");
    }
    t.join().expect("adder thread");
}

/// Runs `scenario` under the checker, asserts the mutant is caught, and
/// replays the reported seed to prove the schedule is deterministic.
fn assert_caught(name: &str, scenario: fn()) {
    let report = Checker::with_bound(BOUND).check(scenario);
    let failure = report
        .failure
        .clone()
        .unwrap_or_else(|| panic!("{name}: the planted mutant was NOT caught ({report:?})"));
    assert!(
        !failure.seed.is_empty(),
        "{name}: failure must carry a seed"
    );
    eprintln!(
        "{name}: caught after {} executions; seed {}",
        report.executions, failure.seed
    );
    let replay = Checker::with_bound(BOUND).replay(&failure.seed, scenario);
    let replayed = replay
        .failure
        .unwrap_or_else(|| panic!("{name}: seed {} did not replay", failure.seed));
    assert_eq!(
        replayed.message, failure.message,
        "{name}: replay must reproduce the same violation"
    );
    assert_eq!(replay.executions, 1, "{name}: a replay is one execution");
}

#[test]
fn destroyed_flag_after_plan_clear_mutant_is_caught() {
    assert_caught("destroy-mutant", destroy_scenario);
}

#[test]
fn live_before_link_mutant_is_caught() {
    assert_caught("registry-mutant", registry_scenario);
}
