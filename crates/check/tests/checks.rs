//! The kernel concurrency check suite: exhaustive bounded-DFS exploration
//! of the lock-free structures' racing paths.
//!
//! Build with `RUSTFLAGS="--cfg spin_check"` (and a separate
//! `CARGO_TARGET_DIR`, e.g. `target/spin-check`) — under the normal cfg
//! this file compiles to nothing so plain `cargo test` stays fast. Under
//! `--cfg spin_check_mutant` the suite is also disabled: the planted bugs
//! make these invariants *supposed* to fail there, and `tests/mutants.rs`
//! asserts exactly that.
//!
//! Each check constructs fresh kernel structures inside the checked
//! closure, races them from model-registered threads, and panics on any
//! outcome outside the allowed set. The checker turns that panic into a
//! [`spin_check::model::Failure`] carrying a replayable schedule seed.
//!
//! The dispatcher models raise on one `Dispatcher::unmetered()` from two
//! model threads with no hand-off, outside the clock's one-writer contract
//! (DESIGN.md decision 26), so that clock may lose a charge; those models
//! check plans, drains, statistics and quota books and never read it. The
//! contract itself is checked by
//! `a_clock_handed_across_a_lock_keeps_every_charge`.

#![cfg(all(spin_check, not(spin_check_mutant)))]

use spin_check::hooks::HookRegistry;
use spin_check::model::Checker;
use spin_check::sync::{Arc, AtomicBool, AtomicU64, Mutex, Ordering};
use spin_check::thread;
use spin_core::{
    Constraints, DispatchError, Dispatcher, Identity, InstallSpec, KeyFn, QuotaLedger, QuotaSpec,
    QuotaVerdict,
};
use spin_core::{Containment, ContainmentPolicy};
use spin_fault::{FaultPlan, Injection, SiteConfig};
use spin_obs::DomainId;
use spin_obs::{Ring, TraceKind, TraceRecord};
use spin_sal::{Clock, Cost, HostId, IrqController, IrqVector, MulticoreBoard, Nanos, TimerQueue};
use spin_sched::{Executor, IdleOutcome, Multicore, Step};
use std::collections::VecDeque;

/// Preemption bound used by every check. Two preemptions cover every bug
/// class this suite targets (each planted mutant needs at most one), and
/// the issue's acceptance bar requires `>= 2`. The raise-prologue models
/// run again at bound 3 (`raise_prologue_models_at_bound3`).
const BOUND: u32 = 2;

fn checker() -> Checker {
    Checker::with_bound(BOUND)
}

/// Asserts a clean, exhaustive exploration and prints its size (visible
/// with `--nocapture`; quoted in EXPERIMENTS.md).
fn assert_clean(name: &str, report: &spin_check::model::Report) {
    eprintln!(
        "{name}: executions={} steps={} max_depth={}",
        report.executions, report.steps, report.max_depth
    );
    assert!(
        report.failure.is_none(),
        "{name} violation: {:?}",
        report.failure
    );
    assert!(report.complete, "{name}: schedule space must be exhausted");
}

/// A raise racing an install + uninstall of a secondary handler must
/// return the result of *some* published plan: the primary alone, or the
/// primary plus the secondary (last handler wins without a reducer). It
/// must never error — the primary is installed for the whole race.
#[test]
fn raise_vs_install_uninstall_plan_swap() {
    let report = checker().check(|| {
        let d = Dispatcher::unmetered();
        let (ev, owner) = d.define::<u64, u64>("chk.swap", Identity::kernel("chk"));
        owner.set_primary(|x| *x + 1).expect("fresh event");
        let d2 = d.clone();
        let ev2 = ev.clone();
        let t = thread::spawn(move || {
            let ext = Identity::extension("swapper");
            let id = ev2.install(ext.clone(), |_| 99).expect("install allowed");
            d2.uninstall(&ev2, id, &ext).expect("uninstall own handler");
        });
        match ev.raise(5) {
            // Primary alone (fast path) — or primary-then-secondary,
            // where the default reduction returns the final handler.
            Ok(6) | Ok(99) => {}
            other => panic!("raise saw an unpublished plan: {other:?}"),
        }
        t.join().expect("swapper thread");
        assert_eq!(d.handler_count(&ev).expect("event alive"), 1);
    });
    assert_clean("plan-swap", &report);
}

/// A raise racing the install + uninstall of a *keyed* handler — each of
/// which rebuilds the guard-set compilation and swaps the plan. Every
/// raise must run against exactly one published plan: the uncompiled
/// single-primary plan (fast path) or the compiled plan where the keyed
/// handler's table entry wins. A key-missing raise must never reach the
/// keyed handler through any interleaving, and after the churn settles
/// the plan decompiles back to the fast path.
#[test]
fn raise_vs_keyed_plan_rebuild_swap() {
    let report = checker().check(|| {
        let d = Dispatcher::unmetered();
        let (ev, owner) = d.define::<u64, u64>("chk.keyed", Identity::kernel("chk"));
        owner.set_primary(|x| *x + 1).expect("fresh event");
        let d2 = d.clone();
        let ev2 = ev.clone();
        let t = thread::spawn(move || {
            let ext = Identity::extension("keyer");
            let key = KeyFn::new(|x: &u64| *x);
            let id = ev2
                .install_keyed(ext.clone(), &key, 5, |_| 99)
                .expect("install allowed");
            d2.uninstall(&ev2, id, &ext).expect("uninstall own handler");
        });
        // Key hit: primary alone, or primary-then-keyed (last wins).
        match ev.raise(5) {
            Ok(6) | Ok(99) => {}
            other => panic!("raise saw an unpublished or torn plan: {other:?}"),
        }
        // Key miss: the keyed handler must never run, compiled or not.
        match ev.raise(3) {
            Ok(4) => {}
            other => panic!("a key miss leaked a handler result: {other:?}"),
        }
        t.join().expect("keyer thread");
        assert_eq!(d.handler_count(&ev).expect("event alive"), 1);
        assert_eq!(ev.raise(5), Ok(6), "plan decompiled after churn");
    });
    assert_clean("keyed-plan-swap", &report);
}

/// A raise racing `destroy` settles to the primary's result or to
/// `UnknownEvent` — never `NoHandlerRan` from a half-destroyed event.
/// This is the PR 3 invariant; the `spin_check_mutant` build destroys in
/// two publishes (cleared plan, then tombstone) and must be caught here.
#[test]
fn raise_vs_destroy_settles_to_unknown_event() {
    assert_clean("raise-vs-destroy", &destroy_race(BOUND));
}

fn destroy_race(bound: u32) -> spin_check::model::Report {
    Checker::with_bound(bound).check(|| {
        let d = Dispatcher::unmetered();
        let (ev, owner) = d.define::<u64, u64>("chk.destroy", Identity::kernel("chk"));
        owner.set_primary(|_| 7).expect("fresh event");
        let t = thread::spawn(move || {
            owner.destroy().expect("owner destroys once");
        });
        match ev.raise(0) {
            Ok(7) => {}
            Err(DispatchError::UnknownEvent { .. }) => {}
            other => panic!("raise during destroy leaked: {other:?}"),
        }
        t.join().expect("destroyer thread");
    })
}

/// A raise racing `quiesce(); destroy()`. The gate and the tombstone ride
/// one published record, so the raise sees one of three moments: the live
/// open event (`Ok(7)`), the live gated one (it parks: `Held`, in a queue
/// that existed when it parked), or the tombstone — `UnknownEvent`, never
/// `Held` from an event already gone, whatever the gate said. Never
/// `NoHandlerRan`, never a hang on the hold lock.
#[test]
fn raise_vs_quiesce_then_destroy() {
    assert_clean("quiesce-then-destroy", &quiesce_destroy_race(BOUND));
}

fn quiesce_destroy_race(bound: u32) -> spin_check::model::Report {
    Checker::with_bound(bound).check(|| {
        let d = Dispatcher::unmetered();
        let (ev, owner) = d.define::<u64, u64>("chk.gonegate", Identity::kernel("chk"));
        owner.set_primary(|_| 7).expect("fresh event");
        let ev2 = ev.clone();
        let t = thread::spawn(move || {
            ev2.quiesce().expect("event alive");
            owner.destroy().expect("owner destroys once");
        });
        match ev.raise(0) {
            Ok(7) => {}
            Err(DispatchError::Held { .. }) => {}
            Err(DispatchError::UnknownEvent { .. }) => {}
            other => panic!("raise during quiesce + destroy leaked: {other:?}"),
        }
        t.join().expect("destroyer thread");
        assert!(
            matches!(ev.raise(0), Err(DispatchError::UnknownEvent { .. })),
            "a destroyed event is unknown even behind a closed gate"
        );
    })
}

/// The four raise-prologue models once more at preemption bound 3 — what
/// folding the event's status into one published record was the
/// precondition for (ROADMAP item 1) — and the two quota-cell models,
/// which one lock per cell made small enough to join them — and the
/// clock's one-writer hand-off, on which every charge relies.
/// `scripts/verify.sh` selects this test by name as `gate spin-check-b3`,
/// with its own line in the timing table; the bound-2 suite skips it.
#[test]
#[ignore = "run by scripts/verify.sh as gate spin-check-b3"]
fn raise_prologue_models_at_bound3() {
    assert_clean("clock-hand-off@3", &clock_writers(3, true));
    assert_clean("raise-vs-destroy@3", &destroy_race(3));
    assert_clean("quiesce-then-destroy@3", &quiesce_destroy_race(3));
    assert_clean("hot-swap-gate@3", &hot_swap_race(3, None));
    assert_clean("hot-swap-gate-burst@3", &hot_swap_race(3, Some(2)));
    assert_clean("throttle-release@3", &throttle_release_race(3));
    assert_clean("ledger-books@3", &ledger_books_race(3));
}

/// Two model threads charge one `Clock`, the first 10 and the second 3 and
/// 4; with `hand_off` each takes its turn under one facade `Mutex`, the
/// way the kernel's writers hand a clock over (DESIGN.md decision 26).
/// Asserts that the clock holds every charge.
fn clock_writers(bound: u32, hand_off: bool) -> spin_check::model::Report {
    Checker::with_bound(bound).check(move || {
        let clock = Clock::new();
        let turn = Arc::new(Mutex::new(()));
        let (clock2, turn2) = (clock.clone(), Arc::clone(&turn));
        let t = thread::spawn(move || {
            let _held = hand_off.then(|| turn2.lock());
            clock2.charge(Cost::Work, 3);
            clock2.charge(Cost::Work, 4);
        });
        {
            let _held = hand_off.then(|| turn.lock());
            clock.charge(Cost::Work, 10);
        }
        t.join().expect("second writer");
        assert_eq!(clock.now(), 17, "a charge was lost");
    })
}

/// The clock's contract, checked: a charge is a load and a store, not a
/// read-modify-write, and that is exact as long as successive writers are
/// ordered by a lock or barrier. Clean at bound 2 here and at bound 3 in
/// `raise_prologue_models_at_bound3`.
#[test]
fn a_clock_handed_across_a_lock_keeps_every_charge() {
    assert_clean("clock-hand-off", &clock_writers(BOUND, true));
}

/// The mirror: the same two writers with no hand-off break the contract,
/// and the checker must see it — a charge stored over the other's is lost.
#[test]
fn two_writers_without_a_hand_off_lose_a_charge() {
    let report = clock_writers(BOUND, false);
    let failure = report.failure.expect("the checker reports the lost charge");
    assert!(failure.message.contains("a charge was lost"), "{failure:?}");
}

fn ring_rec(t: u64) -> TraceRecord {
    TraceRecord {
        time: t,
        domain: DomainId(t as u32),
        kind: TraceKind::PacketRx,
        a: t * 3,
        b: t * 7,
    }
}

fn assert_intact(r: &TraceRecord) {
    assert!(
        r.a == r.time * 3 && r.b == r.time * 7 && r.domain == DomainId(r.time as u32),
        "a drained record is not one that was pushed: {r:?}"
    );
}

/// A drain racing a push that drops the oldest record of a capacity-1 ring
/// returns only whole records, and every record is accounted for: intact +
/// dropped == pushed, whichever side of the drain the push lands on.
#[test]
fn ring_drop_oldest_vs_drain_closes_its_books() {
    let report = checker().check(|| {
        let ring = Arc::new(Ring::new(1));
        ring.push(ring_rec(1));
        let ring2 = Arc::clone(&ring);
        let t = thread::spawn(move || {
            // Drops record 1 if the drain has not taken it yet.
            ring2.push(ring_rec(2));
        });
        let drained = ring.drain();
        for r in &drained {
            assert_intact(r);
        }
        t.join().expect("producer thread");
        let rest = ring.drain();
        for r in &rest {
            assert_intact(r);
        }
        let intact = (drained.len() + rest.len()) as u64;
        assert_eq!(
            intact + ring.dropped(),
            ring.pushed(),
            "record accounting must reconcile"
        );
    });
    assert_clean("ring-drain", &report);
}

/// Two raises racing a panicking handler under a one-strike policy: the
/// breaker must trip, uninstall the handler, and quarantine the domain —
/// exactly once per fault, with no deadlock between the breaker lock and
/// the dispatcher's write path, and no raise ever observing a result from
/// the faulty handler.
#[test]
fn breaker_trip_and_quarantine_vs_concurrent_raises() {
    let report = checker().check(|| {
        let d = Dispatcher::unmetered();
        let containment = Containment::install(
            &d,
            None,
            ContainmentPolicy {
                strikes: 1,
                window: 1_000_000_000,
                trips_to_quarantine: 1,
            },
        );
        let (ev, _owner) = d.define::<u64, u64>("chk.breaker", Identity::kernel("chk"));
        ev.install(Identity::extension("faulty"), |_| panic!("chk boom"))
            .expect("install allowed");
        let ev2 = ev.clone();
        let t = thread::spawn(move || ev2.raise(1));
        let here = ev.raise(1);
        let there = t.join().expect("raiser thread");
        // The handler always panics, so neither raise may produce Ok.
        for r in [&here, &there] {
            assert!(
                matches!(r, Err(DispatchError::NoHandlerRan { .. })),
                "faulty handler leaked a result: {r:?}"
            );
        }
        // At least one raise reached the handler, so the one-strike
        // breaker must have tripped and quarantined the domain.
        assert!(containment.faults_seen() >= 1, "a fault was delivered");
        assert!(
            containment.is_quarantined("faulty"),
            "one-trip policy must quarantine"
        );
        let trips = containment.trips("faulty");
        assert!(
            (1..=2).contains(&trips),
            "one trip per faulting raise, got {trips}"
        );
        assert_eq!(
            d.handler_count(&ev).expect("event alive"),
            0,
            "tripped handler must be uninstalled"
        );
    });
    assert_clean("breaker", &report);
}

/// A raise racing the hot-swap protocol — quiesce, rebind v1 → v2,
/// resume. The raise path counts itself in flight and then snapshots
/// the published record; the quiescer publishes the closed gate and then
/// reads the count; the record's lock orders the two, and this check
/// exhausts the interleavings in which a raise might neither park nor
/// drain. The
/// allowed outcomes: the raise ran v1 (pre-rebind snapshot), ran v2
/// (post-resume, or parked-then-unparked under the hold lock), or parked
/// and was replayed by resume. Exactly one version runs exactly once.
///
/// The raiser is modelled twice: a lone `raise`, and a 2-item
/// `raise_batch`. A burst runs against one snapshot, so both items see v1
/// or neither does, and every item is accounted exactly once — delivered
/// through the burst (`batched_raises`) or parked (`held`), including the
/// item that finds the gate reopened between the burst's gate load and
/// `park`'s re-check.
///
/// `drain_in_flight` is exercised only after the raiser joins: its spin
/// loop terminates under every *fair* schedule, but bounded DFS explores
/// unfair ones too, where a spinning drain would never yield to the
/// raiser it waits for.
#[test]
fn raise_vs_quiesce_rebind_resume() {
    assert_clean("hot-swap-gate", &hot_swap_race(BOUND, None));
    assert_clean("hot-swap-gate-burst", &hot_swap_race(BOUND, Some(2)));
}

/// One exploration of the hot-swap race at the given preemption bound,
/// with a lone raise (`None`) or a `raise_batch` of the given size as the
/// raiser.
fn hot_swap_race(bound: u32, burst: Option<u64>) -> spin_check::model::Report {
    Checker::with_bound(bound).check(move || {
        let d = Dispatcher::unmetered();
        let (ev, _owner) = d.define::<u64, u64>("chk.hotswap", Identity::kernel("chk"));
        let v1 = Identity::extension("v1");
        let runs = Arc::new(AtomicU64::new(0));
        let r1 = Arc::clone(&runs);
        ev.install(v1.clone(), move |x: &u64| {
            r1.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — model-checked counter, read after join.
            *x + 1
        })
        .expect("install v1");

        let ev2 = ev.clone();
        let t = thread::spawn(move || match burst {
            None => vec![ev2.raise(5)],
            Some(n) => ev2.raise_batch(vec![5; n as usize]),
        });

        ev.quiesce().expect("event alive");
        let r2 = Arc::clone(&runs);
        ev.rebind(
            &v1,
            &v1,
            vec![InstallSpec {
                installer: Identity::extension("v2"),
                handler: std::sync::Arc::new(move |x: &u64| {
                    r2.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — model-checked counter, read after join.
                    *x + 2
                }),
                guards: Vec::new(),
                constraints: Constraints::default(),
            }],
        )
        .expect("rebind v1 -> v2");
        let replayed = ev.resume().expect("event alive");

        let raised = t.join().expect("raiser thread");
        ev.drain_in_flight().expect("event alive");
        let items = raised.len() as u64;
        let mut parked = 0;
        for item in &raised {
            match item {
                Ok(6) => assert_eq!(replayed, 0, "a completed v1 raise never parked"),
                Ok(7) => {}
                Err(DispatchError::Held { .. }) => parked += 1,
                other => panic!("raise racing a hot-swap leaked: {other:?}"),
            }
        }
        assert_eq!(
            replayed, parked,
            "a parked raise must be replayed by resume"
        );
        if raised.contains(&Ok(6)) {
            assert!(
                raised.iter().all(|r| *r == Ok(6)),
                "a burst runs against one snapshot: {raised:?}"
            );
        }
        assert_eq!(
            runs.load(Ordering::Relaxed), // ordering: Relaxed — raiser joined; no concurrent writers remain.
            items,
            "exactly one version ran exactly once per raise"
        );
        let hold = ev.hold_stats().expect("event alive");
        assert_eq!(hold.held, hold.replayed, "nothing stays parked");
        assert_eq!(hold.overflowed, 0);
        let stats = d.stats(&ev).expect("event alive");
        assert_eq!(stats.raises, items, "direct and replayed dispatches");
        match burst {
            None => assert_eq!(stats.batched_raises, 0, "a lone raise is not a burst"),
            Some(n) => assert_eq!(
                stats.batched_raises + hold.held,
                n,
                "every burst item is delivered through the burst or parked"
            ),
        }
    })
}

/// The quota admission gate racing the release that spends the window: a
/// settled dispatch's `complete` charges the window its whole budget,
/// while an admit races it. The admit either observes the charge and
/// refuses with `Throttled` (the ladder's first rung — never `Shed`), or
/// admits before it. The lock orders the two: the admit's check-and-count
/// and the release are critical sections of the cell's one lock, so a
/// refusal always follows the charge that caused it, and no interleaving
/// admits past a spent window or loses a completion. After the race
/// nothing is in flight, the next window re-admits, and the ledger
/// identity holds exactly.
#[test]
fn raise_vs_throttle_release() {
    assert_clean("throttle-release", &throttle_release_race(BOUND));
}

fn throttle_release_race(bound: u32) -> spin_check::model::Report {
    Checker::with_bound(bound).check(|| {
        const WINDOW: Nanos = 1_000_000;
        let ledger = QuotaLedger::new();
        let cell = ledger.register(
            "chk.tenant",
            QuotaSpec {
                window: WINDOW,
                window_vt_budget: 10,
                ..QuotaSpec::default()
            },
        );
        assert_eq!(cell.admit(0), Ok(()), "an unspent window admits");
        let c2 = Arc::clone(&cell);
        let t = thread::spawn(move || c2.complete(10));
        match cell.admit(0) {
            // Admitted before the charge landed.
            Ok(()) => cell.complete(5),
            Err(QuotaVerdict::Throttled) => {
                let s = cell.snapshot();
                assert_eq!(
                    s.completed, 1,
                    "a refusal follows the charge that spent the window"
                );
            }
            Err(QuotaVerdict::Shed) => {
                panic!("a lone throttle must stay on the ladder's first rung")
            }
        }
        t.join().expect("releaser thread");
        let s = cell.snapshot();
        assert_eq!(s.in_flight, 0, "every admitted raise completed");
        assert_eq!(s.attempts, s.admitted + s.throttled + s.shed + s.held);
        assert_eq!(s.admitted, s.completed + s.in_flight);
        assert_eq!(cell.admit(WINDOW), Ok(()), "the next window re-admits");
        cell.complete(1);
    })
}

/// A ledger snapshot taken while another thread admits and completes one
/// raise must close its books: `attempts == admitted + throttled + shed +
/// held` and `admitted == completed + in_flight` — the identities
/// `s9_overload` and `quota_props.rs` call exact — at every instant, not
/// only once the admitter has joined. At the parent of PR 26, whose cell
/// counted in twelve atomics beside its window lock, this failed after 9
/// executions (seed `pb2-0-0-0-0-0-0-0-0-0-1-1-1-1-1-1-0-1`: a snapshot
/// between the in-flight CAS and the `admitted` add read `in_flight: 1,
/// admitted: 0`).
#[test]
fn a_ledger_snapshot_closes_its_books_during_an_admission() {
    assert_clean("ledger-books", &ledger_books_race(BOUND));
}

fn ledger_books_race(bound: u32) -> spin_check::model::Report {
    Checker::with_bound(bound).check(|| {
        let ledger = QuotaLedger::new();
        let cell = ledger.register("chk.books", QuotaSpec::default());
        let c2 = Arc::clone(&cell);
        let t = thread::spawn(move || {
            assert_eq!(c2.admit(0), Ok(()), "an unlimited cell admits");
            c2.complete(3);
        });
        let s = cell.snapshot();
        assert_eq!(
            s.attempts,
            s.admitted + s.throttled + s.shed + s.held,
            "attempts unaccounted for: {s:?}"
        );
        assert_eq!(
            s.admitted,
            s.completed + s.in_flight,
            "admissions unaccounted for: {s:?}"
        );
        t.join().expect("admitter thread");
    })
}

/// Arming an advance hook while another thread draws a clock charge: the
/// hook observes the full charge or nothing (never a partial/zero charge),
/// time advances exactly once, and the armed hook is visible to any later
/// charge — the atomic `has_hook` fast path may not strand a subscriber.
#[test]
fn clock_hook_arming_vs_advance_draw() {
    let report = checker().check(|| {
        let clock = Clock::new();
        let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let clock2 = clock.clone();
        let seen2 = Arc::clone(&seen);
        let t = thread::spawn(move || {
            let sink = Arc::clone(&seen2);
            clock2.add_advance_hook(Box::new(move |charge| sink.lock().push(charge.ns)));
        });
        clock.charge(Cost::Work, 5);
        t.join().expect("armer thread");
        assert_eq!(clock.now(), 5, "the charge lands exactly once");
        {
            let v = seen.lock();
            assert!(
                v.is_empty() || *v == [5],
                "hook saw a partial charge: {:?}",
                *v
            );
        }
        // The hook is armed now; a subsequent charge must reach it even
        // if the racing charge above missed it via the has_hook fast path.
        clock.charge(Cost::Work, 2);
        let v = seen.lock();
        assert_eq!(*v.last().expect("armed hook draws"), 2);
    });
    assert_clean("clock-hook", &report);
}

/// The hooks one walk of the registry calls, in call order.
fn walk(reg: &HookRegistry<u64>) -> Vec<u64> {
    let mut seen = Vec::new();
    reg.for_each(|v| seen.push(*v));
    seen
}

/// Two racing `add`s on one registry: the writer lock serialises the
/// appends, so both subscriptions end up linked, under distinct ids, and a
/// later walk calls both — exactly once each, in whichever order they were
/// linked. No node is lost to a racing append.
#[test]
fn registry_racing_adds_both_link() {
    let report = checker().check(|| {
        let reg: Arc<HookRegistry<u64>> = Arc::new(HookRegistry::new());
        let reg2 = Arc::clone(&reg);
        let t = thread::spawn(move || reg2.add(2));
        let mine = reg.add(1);
        let theirs = t.join().expect("adder thread");
        assert_ne!(mine, theirs, "ids are unique");
        let mut seen = walk(&reg);
        seen.sort_unstable();
        assert_eq!(seen, [1, 2], "a later walk calls both subscriptions");
        assert!(reg.remove(mine) && reg.remove(theirs));
        assert!(reg.is_empty());
    });
    assert_clean("registry-adds", &report);
}

/// `remove` racing a walker. The walk calls the removed hook at most once
/// (it is one node), never once the remover's `remove` has returned before
/// the walk began, and the hook that stays is called exactly once either
/// way — a tombstone does not cut the chain behind it.
#[test]
fn registry_remove_vs_walker() {
    let report = checker().check(|| {
        let reg: Arc<HookRegistry<u64>> = Arc::new(HookRegistry::new());
        let going = reg.add(1);
        reg.add(2);
        let removed = Arc::new(AtomicBool::new(false));
        let (reg2, removed2) = (Arc::clone(&reg), Arc::clone(&removed));
        let t = thread::spawn(move || {
            assert!(reg2.remove(going), "removed exactly once");
            removed2.store(true, Ordering::Release); // ordering: Release — publishes "remove has returned" to the walker's Acquire load.
        });
        let after_remove = removed.load(Ordering::Acquire); // ordering: Acquire — pairs with the remover's Release store.
        let seen = walk(&reg);
        assert!(
            seen == [2] || (seen == [1, 2] && !after_remove),
            "walk saw {seen:?} (began after remove returned: {after_remove})"
        );
        t.join().expect("remover thread");
        assert_eq!(walk(&reg), [2], "a later walk never calls the removed hook");
    });
    assert_clean("registry-remove", &report);
}

/// The presence flag is published after the node: a reader that sees the
/// registry armed finds the hook on its walk. (`Clock::charges_observed`
/// is this flag — the dispatcher replays coalesced charges one by one on
/// its word that somebody will see them.) The `spin_check_mutant` build
/// counts the subscription live before linking it and must be caught.
#[test]
fn registry_armed_implies_walk_finds_the_hook() {
    let report = checker().check(|| {
        let reg: Arc<HookRegistry<u64>> = Arc::new(HookRegistry::new());
        let reg2 = Arc::clone(&reg);
        let t = thread::spawn(move || {
            reg2.add(7);
        });
        if reg.is_armed() {
            assert_eq!(walk(&reg), [7], "armed, but the walk found no hook");
        }
        t.join().expect("adder thread");
    });
    assert_clean("registry-armed", &report);
}

/// An install racing `destroy`: whichever wins, the destroyed event ends up
/// owning nothing — the handler's captures are dropped although handles to
/// the event (strong ones) are still alive. An install that loses the race
/// after passing its liveness check publishes nothing and releases what it
/// wrote.
#[test]
fn install_vs_destroy_releases_the_handler() {
    let report = checker().check(|| {
        let d = Dispatcher::unmetered();
        let (ev, owner) = d.define::<u64, u64>("chk.release", Identity::kernel("chk"));
        let probe = Arc::new(());
        let (ev2, probe2) = (ev.clone(), Arc::clone(&probe));
        let t = thread::spawn(move || {
            let installed = ev2.install(Identity::extension("late"), move |_| {
                Arc::strong_count(&probe2) as u64
            });
            assert!(
                matches!(installed, Ok(_) | Err(DispatchError::UnknownEvent { .. })),
                "install racing destroy leaked: {installed:?}"
            );
        });
        owner.destroy().expect("owner destroys once");
        t.join().expect("installer thread");
        assert_eq!(Arc::strong_count(&probe), 1, "the destroyed event kept it");
        assert!(matches!(
            ev.raise(0),
            Err(DispatchError::UnknownEvent { .. })
        ));
    });
    assert_clean("install-vs-destroy", &report);
}

/// What one more operation costs in facade operations, as `(total,
/// locked)`. A single-threaded check has exactly one execution; its
/// `Report::steps` is the number of instrumented atomics and lock
/// operations it touched, and `Report::locked` how many of those were
/// locked — read-modify-writes and lock operations, what DESIGN.md
/// decision 18's inventory counts (a plain load or store is a `mov`).
/// Running the scenario with two operations and with one, the difference
/// is the operation's own — set-up and teardown cancel.
fn marginal_steps(name: &str, scenario: fn(u64)) -> (u64, u64) {
    let steps = |n: u64| {
        let report = checker().check(move || scenario(n));
        assert_clean(name, &report);
        assert_eq!(report.executions, 1, "{name}: one thread, one schedule");
        (report.steps, report.locked)
    };
    let (one, two, three) = (steps(1), steps(2), steps(3));
    let step = |a: (u64, u64), b: (u64, u64)| (b.0 - a.0, b.1 - a.1);
    assert_eq!(
        step(one, two),
        step(two, three),
        "{name}: not linear in the count"
    );
    step(one, two)
}

/// The raise's atomics budget (DESIGN.md decision 18), pinned in facade
/// operations `(total, locked)` so that the next atomic added to the path
/// fails a test with a name instead of moving `core.dispatch.fast_ns` by
/// 7 ns unnoticed. `Arc` and `Weak` traffic is invisible to the facade;
/// DESIGN's inventory table covers it. Since DESIGN.md decision 26 a
/// charge is three operations and none locked — a load and a store of the
/// time and the subscriber-count load — where it was a `fetch_add` and
/// that load, so each charge adds one to a total and takes one locked
/// operation out.
///
/// * A fast-path raise: **(10, 5)**, (9, 6) before decision 26 (10 in
///   total at the parent of the PR that wrote this budget). In-flight count
///   up; record read-locked and released; obs and fault hook slots loaded;
///   one raise counter; the clock's charge; in-flight count down. Gone:
///   the second raise counter.
/// * A keyed raise — two handlers keyed on 5 and 6, raised with 5, so one
///   table hit and one miss: **(26, 9)**, (22, 13) before decision 26 (25 in
///   total at that parent). The same prologue and epilogue (7); four
///   charges at three operations each (raise base, the hit's guard, the
///   handler invocation, the miss's guard) and one `charges_observed` load
///   before the miss; two time reads around the handler for its time
///   bound; and the four walk counters that moved (guard evaluations,
///   handlers run, compiled raises, guards elided). Gone: the three
///   counters that moved by zero (aborted, asynchronous, faulted).
#[test]
fn a_raise_stays_within_its_budget() {
    fn raises(ev: &spin_core::Event<u64, u64>, n: u64) {
        for _ in 0..n {
            assert_eq!(ev.raise(5), Ok(6));
        }
    }
    let fast = marginal_steps("budget-fast-raise", |n| {
        let d = Dispatcher::unmetered();
        let (ev, owner) = d.define::<u64, u64>("chk.budget", Identity::kernel("chk"));
        owner.set_primary(|x| *x + 1).expect("fresh event");
        raises(&ev, n);
        assert_eq!(d.stats(&ev).expect("alive").fast_path_raises, n);
    });
    assert_eq!(fast, (10, 5), "facade operations per fast-path raise");

    let keyed = marginal_steps("budget-keyed-raise", |n| {
        let d = Dispatcher::unmetered();
        let (ev, _owner) = d.define::<u64, u64>("chk.budget", Identity::kernel("chk"));
        let key = KeyFn::new(|x: &u64| *x);
        for k in [5, 6] {
            ev.install_keyed(Identity::extension("k"), &key, k, |x| *x + 1)
                .expect("install allowed");
        }
        raises(&ev, n);
        let stats = d.stats(&ev).expect("alive");
        assert_eq!((stats.compiled_raises, stats.guards_elided), (n, 2 * n));
    });
    assert_eq!(keyed, (26, 9), "facade operations per keyed-hit raise");
}

/// A metered raise's budget (DESIGN.md decision 21): a fast-path raise of
/// an event bound to an unlimited quota cell is **(18, 9)** facade
/// operations — (17, 10) before decision 26 made its charge a store, 24 in
/// total at the parent of PR 26. The raise's own (above); 3 time reads —
/// the admission's `now` and the two that bracket the dispatch for the
/// window's charge (ISSUE 26 counted two of the three and so predicted
/// 23 → 16; the −7 is as it predicted); `admit` 3, was 7 — the fault
/// slot's load and the cell's lock pair, where `attempts`, the window
/// lock pair, the in-flight load and CAS and `admitted` stood; and
/// `complete` 2, was 5 — the lock pair, where `completed`, `vt_charged`,
/// the window lock pair and the in-flight release stood.
#[test]
fn a_metered_raise_stays_within_its_budget() {
    let metered = marginal_steps("budget-metered-raise", |n| {
        let d = Dispatcher::unmetered();
        let (ev, owner) = d.define::<u64, u64>("chk.budget", Identity::kernel("chk"));
        owner.set_primary(|x| *x + 1).expect("fresh event");
        let ledger = QuotaLedger::new();
        let cell = ledger.register("chk.tenant", QuotaSpec::default());
        assert_eq!(ev.bind_quota(Arc::clone(&cell)), Ok(true));
        for _ in 0..n {
            assert_eq!(ev.raise(5), Ok(6));
        }
        let s = cell.snapshot();
        assert_eq!((s.admitted, s.completed, s.in_flight), (n, n, 0));
        assert_eq!(d.stats(&ev).expect("alive").fast_path_raises, n);
    });
    assert_eq!(
        metered,
        (18, 9),
        "facade operations per metered fast-path raise"
    );
}

/// The charge's budget: one `Clock::charge` made by a running strand on
/// its executor's clock is **(3, 0)** facade operations — a load and a
/// Release store of the time, and the subscriber-count load that finds
/// nobody subscribed. The executor does not subscribe (DESIGN.md decision
/// 26): it reads the clock where the slice starts and where its charge is
/// wanted. Before that decision the charge was (9, 2): the clock's
/// `fetch_add` and the meter's on the quantum, the registry walk's four
/// loads and the meter's three; before decision 18 it was 8 with 4 locked.
#[test]
fn a_charge_on_an_executors_clock_stays_within_its_budget() {
    let charge = marginal_steps("budget-executor-charge", |n| {
        let clock = Clock::new();
        let exec = Executor::on(clock.clone(), TimerQueue::new());
        assert!(!clock.charges_observed(), "the executor reads its clock");
        let charged = clock.clone();
        let strand = exec.spawn_step_on(HostId(0), "charger", 8, move |_| {
            for _ in 0..n {
                charged.charge(Cost::Work, 10);
            }
            Step::Done
        });
        assert_eq!(exec.run_until_idle(), IdleOutcome::AllComplete);
        assert_eq!(exec.cpu_time(strand), 10 * n, "the meter saw every charge");
    });
    assert_eq!(charge, (3, 0), "facade operations per charge");
}

/// The frame hop's lock traffic (DESIGN.md decision 19), pinned so that the
/// heap budget was not bought with locks — and so the lock budget that
/// follows it has a number to start from. Allocations cannot be pinned
/// here: counting them needs a `GlobalAlloc`, an `unsafe impl` rule U1 does
/// not admit; DESIGN's table is measured on a scratch allocator.
///
/// * One timer scheduled and fired: **(8, 4)**, (6, 6) before DESIGN.md
///   decision 32. `schedule_at` locks and unlocks once and publishes the
///   new head deadline (a store); `fire_due` loads that head to see the
///   timer due, takes it under one lock pair, publishes the emptied head
///   and loads it once more to find nothing else due — where it took a
///   second lock pair. The slab replaced a hash map under the same lock,
///   not the lock.
/// * One frame across a two-shard board — `Nic::send`, the receiving
///   shard's `drain` onto its timers, the deadline probe, the timer's fire,
///   the burst drain of the ring: **(32, 17)**, (36, 21) before decision 32
///   ((32, 25) before decision 26 made each charge a load and a store, 34
///   in total before 24, 38 before 21, 40 before 19). Send 9, was 12 (the
///   driver and transfer charges are one `charge_all`, three operations
///   unobserved where two charges were six; the wire's pair, under which
///   the frame is counted on its sender's link, one time read, the
///   mailbox's pair and its `pending` add); drain 4 (the `pending` probe,
///   the lock pair, the `pending` store); schedule 3 (the drain is handed
///   over as one run, as `plan_epoch` does since decision 27, under one
///   lock pair, and the head published); the deadline probe 1, was 2 (a
///   load of the published head, not a lock pair); fire 10, was 8 with 8
///   locked and is now 6 locked (the head load, the queue's one pair and
///   its head store around the delivery, the NIC's pair, under which the
///   frame joins the ring, the interrupt post's pair and its pending-count
///   store, and the head load that finds nothing else due, where the
///   queue's second pair stood); receive 5, was 8 (the NIC's pair, under
///   which the pop and the rx count are one critical section, and the
///   `charge_all`).
/// * A drain of N frames delivered as one run: **(7, 4)** whatever N — the
///   drain's 4, one timer-queue lock pair and the head store — where
///   scheduling each envelope took one pair per frame. (6, 4) before
///   decision 32 published the head.
/// * One netin pass over a host's three NICs costs **6** locked operations
///   — one lock pair per ring — whether the burst is 1 frame or 16:
///   `Nic::receive_burst` pops and counts a whole ring under one pair,
///   where a `receive` loop paid a pair per frame and one more to find the
///   ring empty. The one-frame pass is (9, 6); each further frame adds its
///   three-operation `charge_all` and nothing locked.
#[test]
fn the_frame_hop_stays_within_its_lock_budget() {
    let timer = marginal_steps("budget-timer", |n| {
        let q = TimerQueue::new();
        for now in 1..=n {
            q.schedule_at(now, |_| {});
            assert_eq!(q.fire_due(now), 1);
        }
    });
    assert_eq!(
        timer,
        (8, 4),
        "facade operations per timer scheduled and fired"
    );

    let hop = marginal_steps("budget-frame-hop", |n| {
        let board = MulticoreBoard::new();
        let (a, b) = (board.new_host(1), board.new_host(1));
        let mut ring = VecDeque::new();
        for _ in 0..n {
            a.ethernet
                .send(b.endpoint(), (&b"frame"[..]).into())
                .expect("within the MTU");
            b.timers.schedule_run(b.mailbox.drain());
            let due = b.timers.next_deadline().expect("the frame is in flight");
            assert_eq!(b.timers.fire_due(due), 1);
            assert_eq!(b.ethernet.receive_burst(&mut ring, |_| {}), 1, "delivered");
            ring.clear();
        }
        assert_eq!(board.ethernet.stats(), (n, 0));
    });
    assert_eq!(hop, (32, 17), "facade operations per frame hop");

    // A drain of N frames, as the planner delivers it: the drain's four
    // operations and one timer-queue lock pair for the whole run, not one
    // pair per frame (DESIGN.md decision 27).
    let steps = |scenario: Box<dyn Fn() + Send + Sync>| {
        let report = checker().check(scenario);
        assert_clean("budget-drain", &report);
        (report.steps, report.locked)
    };
    let drain = |n: u64| {
        let frames = move |deliver: bool| {
            move || {
                let board = MulticoreBoard::new();
                let (a, b) = (board.new_host(1), board.new_host(1));
                for _ in 0..n {
                    a.ethernet
                        .send(b.endpoint(), (&b"frame"[..]).into())
                        .expect("within the MTU");
                }
                if deliver {
                    b.timers.schedule_run(b.mailbox.drain());
                }
                let pending = if deliver { n as usize } else { 0 };
                assert_eq!(b.timers.pending(), pending, "the run holds every frame");
            }
        };
        let (sent, delivered) = (
            steps(Box::new(frames(false))),
            steps(Box::new(frames(true))),
        );
        (delivered.0 - sent.0, delivered.1 - sent.1)
    };
    for n in [2, 16] {
        assert_eq!(drain(n), drain(1), "a drain of {n} frames");
    }
    assert_eq!(drain(1), (7, 4), "facade operations per drain delivered");

    // One netin pass over a host's three NICs, as the protocol thread
    // makes it: a burst drain of each ring. Frames take turns on the three
    // media, so a burst of 16 fills every ring and a burst of 1 only the
    // Ethernet one.
    let pass = |n: usize| {
        let frames = move |read: bool| {
            move || {
                let board = MulticoreBoard::new();
                let (a, b) = (board.new_host(1), board.new_host(1));
                for i in 0..n {
                    [&a.ethernet, &a.atm, &a.t3][i % 3]
                        .send(b.endpoint(), (&b"frame"[..]).into())
                        .expect("within the MTU");
                }
                b.timers.schedule_run(b.mailbox.drain());
                assert_eq!(b.timers.fire_due(Nanos::MAX - 1), n);
                if read {
                    let mut ring = VecDeque::new();
                    let taken: usize = [&b.ethernet, &b.atm, &b.t3]
                        .iter()
                        .map(|nic| nic.receive_burst(&mut ring, |_| {}))
                        .sum();
                    assert_eq!(taken, n, "the pass takes every frame");
                }
            }
        };
        let (left, read) = (
            steps(Box::new(frames(false))),
            steps(Box::new(frames(true))),
        );
        (read.0 - left.0, read.1 - left.1)
    };
    let (one, sixteen) = (pass(1), pass(16));
    assert_eq!(
        one.1, sixteen.1,
        "locked operations per netin pass: {one:?} for one frame, {sixteen:?} for 16"
    );
    assert_eq!(one, (9, 6), "facade operations per one-frame netin pass");
}

/// An interrupt dispatch's budget (DESIGN.md decisions 32 and 33): with a
/// handler for each, dispatching 1, 8 and 9 pending interrupts is **(9,
/// 2)**, **(37, 2)** and **(45, 4)** facade operations. A batch of up to
/// eight is taken under one lock pair — the pending-count load before it,
/// the pair, the count's store — and each interrupt costs its charge (3)
/// and one load of its vector's handler slot; a ninth takes a second
/// batch, and the dispatch ends on the load that finds nothing pending.
/// The same before decision 33, when the slot's load was the load of a
/// registration count.
#[test]
fn an_interrupt_dispatch_stays_within_its_budget() {
    let steps = |scenario: Box<dyn Fn() + Send + Sync>| {
        let report = checker().check(scenario);
        assert_clean("budget-interrupts", &report);
        (report.steps, report.locked)
    };
    let dispatch = |k: usize| {
        let interrupts = move |dispatch: bool| {
            move || {
                let irqs = IrqController::new(Clock::new());
                assert!(irqs.register(IrqVector(2), || {}));
                for _ in 0..k {
                    irqs.post(IrqVector(2));
                }
                if dispatch {
                    assert_eq!(irqs.dispatch_pending(), k);
                }
            }
        };
        let (posted, dispatched) = (
            steps(Box::new(interrupts(false))),
            steps(Box::new(interrupts(true))),
        );
        (dispatched.0 - posted.0, dispatched.1 - posted.1)
    };
    let budget = [1, 8, 9].map(|k| (k, dispatch(k)));
    assert_eq!(
        budget,
        [(1, (9, 2)), (8, (37, 2)), (9, (45, 4))],
        "facade operations per dispatch of k interrupts"
    );
}

/// A slice's budget (DESIGN.md decisions 24, 26 and 32): one slice of a
/// run-to-completion strand that yields is **(25, 7)** facade operations.
/// It was (27, 11) before decision 32: the executor's timer pump locked
/// the queue to find nothing due, where it now loads its published head,
/// and its interrupt pump locked its list of interrupt lines, where it now
/// walks a registry with loads (one, for an executor with no line).
/// It was (30, 12) before decision 26 and 32 in total before 24, when
/// `run_until` took the executor's state lock once to dequeue the strand
/// and once to mark it Running. Decision 26 made the switch charge a store
/// (one locked operation fewer, one load more) and replaced the meter's
/// two resets with one clock read and the `slice_start` store; the charge
/// walks no executor hook, so the meter's three loads went too. The slice
/// ends with one more clock read, where its charge is settled.
#[test]
fn a_slice_stays_within_its_lock_budget() {
    let slice = marginal_steps("budget-slice", |n| {
        let exec = Executor::on(Clock::new(), TimerQueue::new());
        let mut yields = n;
        exec.spawn_step_on(HostId(0), "yielder", 8, move |_| {
            if yields == 0 {
                return Step::Done;
            }
            yields -= 1;
            Step::Yield
        });
        assert_eq!(exec.run_until_idle(), IdleOutcome::AllComplete);
        assert_eq!(exec.switches(), n + 1, "one slice per yield, and the last");
    });
    assert_eq!(slice, (25, 7), "facade operations per slice");
}

/// The planner's budget (DESIGN.md decision 22): one epoch of a 12-shard
/// board on which only shard 0 has anything to do — one timer, armed every
/// `10·L`, so each fires in an epoch of its own — is **(57, 12)** facade
/// operations. It was (58, 12) while the runtime kept an observability
/// slot that only tests could set, whose load every epoch paid (DESIGN.md
/// decision 35 deleted it), and (58, 34) before decision 32 published the
/// timer queue's head deadline and the interrupt line's pending count and
/// made the executor's list of lines a registry read with loads: eleven
/// lock pairs of shard 0's pumps and horizon reads that found nothing
/// (its timer pump, its interrupt pump and the list around it, its idle
/// deadline probe and its horizon) became loads — more of them than
/// there were locked operations, so the total is where it was — and the
/// armed timer's schedule and fire each store the head they move. (58, 36) before decision 26 made the idle skip a
/// load and a store where it was a load and a compare-exchange, and 157 in
/// total at the parent of the PR that wrote this budget. The
/// planner keeps every shard's local horizon and re-reads only the shard it
/// ran; each of the eleven that did not run costs the one load of its
/// mailbox's empty probe, where it cost ten: that probe, a clock read and
/// four lock pairs (the executor's state, its list of interrupt lines, the
/// line, the timer queue) — 11 × 9 = 99 fewer. The rest is shard 0's own
/// horizon read, the epoch counters, its drain probe, its `run_until` with
/// the timer's fire in it, and the timer the scenario arms.
#[test]
fn an_epoch_reads_only_the_shards_that_ran() {
    let epoch = marginal_steps("budget-epoch", |n| {
        let board = MulticoreBoard::new();
        let l = board.lookahead();
        let mut mc = Multicore::new(1, l);
        for _ in 0..12 {
            mc.add_host(board.new_host(1));
        }
        for k in 1..=n {
            mc.shards()[0].host.timers.schedule_at(10 * l * k, |_| {});
        }
        assert_eq!(mc.run_until_idle(), IdleOutcome::AllComplete);
        assert_eq!(mc.stats().epochs, n, "one epoch per timer");
    });
    assert_eq!(epoch, (57, 12), "facade operations per epoch");
}

/// Two concurrent draws on one armed fault site must take distinct draw
/// ordinals and reconcile exactly: with `panic_always` both inject, and
/// the site report shows precisely two hits and two panics — never a
/// lost or double-counted tally. Checkable at all since PR 9 moved
/// `spin-fault` onto the `spin_check::sync` facade.
#[test]
fn fault_plan_concurrent_draws_reconcile() {
    let report = checker().check(|| {
        let plan = FaultPlan::new(7);
        plan.configure("chk.site", SiteConfig::panic_always());
        let hook = plan.hook("chk.site");
        let h2 = hook.clone();
        let t = thread::spawn(move || h2.draw());
        let mine = hook.draw();
        let theirs = t.join().expect("drawer thread");
        assert!(
            matches!(mine, Some(Injection::Panic)),
            "armed site must inject: {mine:?}"
        );
        assert!(
            matches!(theirs, Some(Injection::Panic)),
            "armed site must inject: {theirs:?}"
        );
        let rep = plan.report();
        assert_eq!(rep.len(), 1, "one site registered");
        assert_eq!((rep[0].hits, rep[0].panics), (2, 2), "tallies reconcile");
    });
    assert_clean("fault-draws", &report);
}

/// Racing first-use registrations of the same site name through the
/// double-checked read/write-lock path must agree on a single site
/// state: one registry entry, both hooks drawing against it.
#[test]
fn fault_site_registration_race_is_single() {
    let report = checker().check(|| {
        let plan = FaultPlan::new(1);
        let p2 = plan.clone();
        let t = thread::spawn(move || p2.hook("chk.reg"));
        let mine = plan.hook("chk.reg");
        let theirs = t.join().expect("registrar thread");
        let _ = mine.draw();
        let _ = theirs.draw();
        let rep = plan.report();
        assert_eq!(rep.len(), 1, "registration must not duplicate the site");
        assert_eq!(rep[0].hits, 2, "both hooks share the site's draw index");
    });
    assert_clean("fault-reg", &report);
}
