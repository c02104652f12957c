//! Mutant detection: proves the model checker actually catches the bug
//! classes it claims to.
//!
//! Build with `RUSTFLAGS="--cfg spin_check --cfg spin_check_mutant"` (and
//! its own `CARGO_TARGET_DIR`, e.g. `target/spin-check-mutant`). That cfg
//! plants three known-wrong orderings in the kernel:
//!
//! 1. `obs::ring::Ring::push` publishes the slot sequence with `Relaxed`
//!    instead of `Release` — a reader can validate the sequence before
//!    the record words are visible and return a torn record.
//! 2. `core::dispatch::Dispatcher::destroy` publishes twice — the
//!    cleared plan, then the tombstone — a racing raise can snapshot the
//!    live-but-empty record in between and settle to `NoHandlerRan`
//!    instead of `UnknownEvent`.
//! 3. `check::hooks::HookRegistry::add` counts the subscription live
//!    before its node is linked — a reader can see the registry armed
//!    (`Clock::charges_observed`) and then walk a chain that does not
//!    hold the hook yet.
//!
//! Each test runs the same scenario as the corresponding trunk check in
//! `tests/checks.rs`, asserts the checker reports a failure with a
//! non-empty schedule seed, and replays the seed to prove the failing
//! interleaving is deterministic.

#![cfg(all(spin_check, spin_check_mutant))]

use spin_check::hooks::HookRegistry;
use spin_check::model::Checker;
use spin_check::sync::Arc;
use spin_check::thread;
use spin_core::{DispatchError, Dispatcher, Identity};
use spin_obs::account::DomainId;
use spin_obs::ring::{Ring, TraceKind, TraceRecord};

const BOUND: u32 = 2;

fn ring_rec(t: u64) -> TraceRecord {
    TraceRecord {
        time: t,
        domain: DomainId(t as u32),
        kind: TraceKind::PacketRx,
        a: t * 3,
        b: t * 7,
    }
}

fn ring_scenario() {
    let ring = Arc::new(Ring::new(1));
    ring.push(ring_rec(1));
    let ring2 = Arc::clone(&ring);
    let t = thread::spawn(move || {
        ring2.push(ring_rec(2));
    });
    for r in ring.drain() {
        assert!(
            r.a == r.time * 3 && r.b == r.time * 7 && r.domain == DomainId(r.time as u32),
            "torn record escaped the seqlock validation: {r:?}"
        );
    }
    t.join().expect("producer thread");
}

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
fn relaxed_seq_publish_mutant_is_caught() {
    assert_caught("ring-mutant", ring_scenario);
}

#[test]
fn destroyed_flag_after_plan_clear_mutant_is_caught() {
    assert_caught("destroy-mutant", destroy_scenario);
}

#[test]
fn live_before_link_mutant_is_caught() {
    assert_caught("registry-mutant", registry_scenario);
}
