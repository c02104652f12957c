//! Concurrency stress tests for the snapshot raise path.
//!
//! The dispatcher's read side promises that raisers never block each other
//! and never observe a torn handler list: every raise runs against one
//! immutable [`RaisePlan`] snapshot. These tests hammer that promise from
//! real threads — raisers racing handler churn and racing event
//! destruction/redefinition — and then reconcile every counter:
//! no lost raises, no panics, statistics that add up exactly.
//!
//! These raisers share one `Dispatcher::unmetered()` clock with no hand-off
//! between them, outside the clock's one-writer contract (DESIGN.md
//! decision 26), so that clock may lose a charge; nothing here reads it.

use spin_core::{DispatchError, Dispatcher, Event, Identity, KeyFn};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

const RAISERS: usize = 4;
const RAISES_PER_THREAD: u64 = 20_000;
const CHURN_CYCLES: u64 = 2_000;

/// Raisers hammer one event while a churn thread installs and uninstalls
/// extra handlers. The primary handler is never removed, so every raise
/// must succeed, and the statistics must reconcile exactly:
///
/// * `raises` == total raises issued;
/// * the primary runs exactly once per raise (fast or slow path);
/// * `handlers_run` (slow-path executions) == slow-path raises (primary)
///   plus extra-handler executions.
#[test]
fn concurrent_raises_survive_handler_churn() {
    let d = Dispatcher::unmetered();
    let (ev, owner) = d.define::<u64, u64>("Stress.Churn", Identity::kernel("stress"));

    let primary_runs = Arc::new(AtomicU64::new(0));
    let extra_runs = Arc::new(AtomicU64::new(0));

    let pr = primary_runs.clone();
    owner
        .set_primary(move |x| {
            pr.fetch_add(1, Ordering::Relaxed);
            *x
        })
        .expect("fresh event");

    let stop = Arc::new(AtomicBool::new(false));
    let mut raisers = Vec::new();
    for t in 0..RAISERS {
        let ev = ev.clone();
        raisers.push(thread::spawn(move || {
            let mut ok = 0u64;
            for i in 0..RAISES_PER_THREAD {
                let v = (t as u64) << 32 | i;
                match ev.raise(v) {
                    Ok(_) => ok += 1,
                    Err(e) => panic!("raise must not fail under churn: {e:?}"),
                }
            }
            ok
        }));
    }

    let churn = {
        let d = d.clone();
        let ev = ev.clone();
        let stop = stop.clone();
        let extra = extra_runs.clone();
        thread::spawn(move || {
            let ident = Identity::extension("churner");
            let mut cycles = 0u64;
            while !stop.load(Ordering::Relaxed) && cycles < CHURN_CYCLES * 50 {
                cycles += 1;
                let e1 = extra.clone();
                let id1 = ev
                    .install(ident.clone(), move |x: &u64| {
                        e1.fetch_add(1, Ordering::Relaxed);
                        x + 1
                    })
                    .expect("install plain");
                let e2 = extra.clone();
                let id2 = ev
                    .install_guarded(
                        ident.clone(),
                        |x: &u64| x.is_multiple_of(2),
                        move |x: &u64| {
                            e2.fetch_add(1, Ordering::Relaxed);
                            x + 2
                        },
                    )
                    .expect("install guarded");
                d.uninstall(&ev, id1, &ident).expect("uninstall 1");
                d.uninstall(&ev, id2, &ident).expect("uninstall 2");
            }
        })
    };

    let total_ok: u64 = raisers
        .into_iter()
        .map(|t| t.join().expect("no panics"))
        .sum();
    stop.store(true, Ordering::Relaxed);
    churn.join().expect("churn thread must not panic");

    let expected = RAISERS as u64 * RAISES_PER_THREAD;
    assert_eq!(total_ok, expected, "no lost raises");

    let stats = d.stats(&ev).expect("event alive");
    assert_eq!(stats.raises, expected, "every raise was counted");
    assert_eq!(
        primary_runs.load(Ordering::Relaxed),
        expected,
        "the primary ran exactly once per raise"
    );
    // Slow-path raises each run the primary; extra handlers only ever run
    // on the slow path (their presence disqualifies the fast path).
    let slow_raises = stats.raises - stats.fast_path_raises;
    assert_eq!(
        stats.handlers_run,
        slow_raises + extra_runs.load(Ordering::Relaxed),
        "slow-path executions reconcile: primary per slow raise + extras"
    );
    assert_eq!(stats.handlers_aborted, 0);
    assert_eq!(stats.async_dispatches, 0);
}

/// Raisers race an owner that destroys and re-defines the event. Every
/// raise must either succeed (running the handler exactly once) or fail
/// with `UnknownEvent` — never panic, never lose an execution. The
/// successful-raise count observed by raisers must equal the execution
/// count observed inside handlers.
#[test]
fn concurrent_raises_survive_destroy_and_redefine() {
    const GENERATIONS: u64 = 400;

    let d = Dispatcher::unmetered();
    let runs = Arc::new(AtomicU64::new(0));
    let ok_raises = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    // The currently-live handle, republished each generation.
    let slot: Arc<Mutex<Option<Event<u64, u64>>>> = Arc::new(Mutex::new(None));

    let lifecycle = {
        let d = d.clone();
        let slot = slot.clone();
        let runs = runs.clone();
        thread::spawn(move || {
            for generation in 0..GENERATIONS {
                let (ev, owner) =
                    d.define::<u64, u64>("Stress.Flicker", Identity::kernel("stress"));
                let r = runs.clone();
                owner
                    .set_primary(move |_| {
                        r.fetch_add(1, Ordering::Relaxed);
                        generation
                    })
                    .expect("fresh event");
                // Publish only after the primary exists, so a live handle
                // never yields NoHandlerRan.
                *slot.lock().unwrap() = Some(ev);
                thread::yield_now();
                *slot.lock().unwrap() = None;
                owner.destroy().expect("owner may destroy");
            }
        })
    };

    let mut raisers = Vec::new();
    for _ in 0..RAISERS {
        let slot = slot.clone();
        let stop = stop.clone();
        let ok_raises = ok_raises.clone();
        raisers.push(thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let handle = slot.lock().unwrap().clone();
                let Some(ev) = handle else {
                    thread::yield_now();
                    continue;
                };
                // Raise repeatedly on this handle; destruction mid-stream
                // must surface as UnknownEvent, nothing else.
                for i in 0..64u64 {
                    match ev.raise(i) {
                        Ok(_) => {
                            ok_raises.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(DispatchError::UnknownEvent { .. }) => break,
                        Err(e) => panic!("unexpected raise failure: {e:?}"),
                    }
                }
            }
        }));
    }

    lifecycle.join().expect("lifecycle thread must not panic");
    stop.store(true, Ordering::Relaxed);
    for t in raisers {
        t.join().expect("raisers must not panic");
    }

    assert_eq!(
        ok_raises.load(Ordering::Relaxed),
        runs.load(Ordering::Relaxed),
        "every successful raise ran the handler exactly once, \
         every failed raise ran it zero times"
    );
    // The name is gone after the final destroy: a fresh definition starts
    // a fresh generation with clean statistics.
    let (ev, owner) = d.define::<u64, u64>("Stress.Flicker", Identity::kernel("stress"));
    owner.set_primary(|_| 7).expect("fresh event");
    assert_eq!(ev.raise(0), Ok(7));
    assert_eq!(d.stats(&ev).expect("alive").raises, 1);
}

/// Regression test for the raise/destroy race. `destroy` clears the
/// event's handler plan, so a raiser that snapshots the plan while the
/// destroy is mid-flight could observe an empty plan and misreport
/// `NoHandlerRan` — as if the (still-installed) primary had declined to
/// run. The fix re-checks the destroyed flag *after* snapshotting:
/// because `destroy` flips the flag before it clears the plan, a raise
/// that loses the race settles to `UnknownEvent`.
///
/// Here every generation has a primary installed for its whole lifetime,
/// so `NoHandlerRan` is impossible under correct semantics: each raise
/// must yield exactly `Ok(generation)` or `UnknownEvent`.
#[test]
fn raises_racing_destroy_never_misreport_no_handler_ran() {
    const GENERATIONS: u64 = 600;

    let d = Dispatcher::unmetered();

    for generation in 0..GENERATIONS {
        let (ev, owner) = d.define::<u64, u64>("Stress.Teardown", Identity::kernel("stress"));
        owner.set_primary(move |_| generation).expect("fresh event");

        let barrier = Arc::new(std::sync::Barrier::new(RAISERS + 1));
        let mut raisers = Vec::new();
        for _ in 0..RAISERS {
            let ev = ev.clone();
            let barrier = barrier.clone();
            raisers.push(thread::spawn(move || {
                barrier.wait();
                loop {
                    match ev.raise(0) {
                        Ok(v) => assert_eq!(v, generation, "stale plan from a prior generation"),
                        Err(DispatchError::UnknownEvent { name }) => {
                            assert_eq!(name, "Stress.Teardown");
                            break;
                        }
                        Err(e) => {
                            panic!("a raise racing destroy must settle to UnknownEvent, got {e:?}")
                        }
                    }
                }
            }));
        }

        // Release the raisers and tear the event down under their feet.
        barrier.wait();
        owner.destroy().expect("owner may destroy");
        for t in raisers {
            t.join().expect("raisers must not panic");
        }
    }
}

/// Deterministic reconciliation of the compiled-dispatch counters: with a
/// known mix of keyed and opaque guards and a known raise stream, every
/// statistic has a closed-form expected value. Guard evaluations are
/// charged per *logically evaluated* guard — one per guarded entry per
/// raise — whether the decision came from the dispatch table or from
/// running the closure, so the count is identical to sequential dispatch.
#[test]
fn compiled_statistics_reconcile_exactly() {
    const KEYED: u64 = 5;
    const OPAQUE: u64 = 3;

    let build = || {
        let d = Dispatcher::unmetered();
        let (ev, owner) = d.define::<u64, u64>("Stress.Compiled", Identity::kernel("stress"));
        owner.set_primary(|x| *x).expect("fresh event");
        owner
            .set_reducer(|rs| rs.into_iter().sum())
            .expect("fresh event");
        let key = KeyFn::new(|x: &u64| *x);
        for i in 0..KEYED {
            ev.install_keyed(Identity::extension("k"), &key, i, move |_| i)
                .expect("install keyed");
        }
        for i in 0..OPAQUE {
            ev.install_guarded(
                Identity::extension("o"),
                move |x: &u64| x.is_multiple_of(i + 2),
                move |_| 100 + i,
            )
            .expect("install opaque");
        }
        (d, ev)
    };
    let stream: Vec<u64> = (0..50).map(|i| i % 9).collect();
    let expected_matches: u64 = stream
        .iter()
        .map(|&v| {
            let keyed = u64::from(v < KEYED);
            let opaque = (0..OPAQUE).filter(|i| v % (i + 2) == 0).count() as u64;
            keyed + opaque
        })
        .sum();

    let (d, ev) = build();
    for &v in &stream {
        ev.raise(v).expect("raise");
    }
    let stats = d.stats(&ev).expect("alive");
    let n = stream.len() as u64;
    assert_eq!(stats.raises, n);
    assert_eq!(stats.fast_path_raises, 0, "multiple handlers: slow path");
    assert_eq!(
        stats.compiled_raises, n,
        "a plan with keyed entries dispatches compiled"
    );
    assert_eq!(
        stats.guard_evaluations,
        n * (KEYED + OPAQUE),
        "one charged evaluation per guarded entry per raise, exactly as sequential"
    );
    assert_eq!(
        stats.guards_elided,
        n * KEYED,
        "every keyed entry's decision came from the dispatch table"
    );
    assert_eq!(
        stats.handlers_run,
        n + expected_matches,
        "primary + matches"
    );
    assert_eq!(stats.batched_raises, 0);

    // The same stream as one burst reconciles identically, plus the
    // batched counter.
    let (d, ev) = build();
    for r in ev.raise_batch(stream.clone()) {
        r.expect("batched raise");
    }
    let batched = d.stats(&ev).expect("alive");
    assert_eq!(batched.raises, n);
    assert_eq!(batched.batched_raises, n);
    assert_eq!(batched.compiled_raises, n);
    assert_eq!(batched.guard_evaluations, stats.guard_evaluations);
    assert_eq!(batched.guards_elided, stats.guards_elided);
    assert_eq!(batched.handlers_run, stats.handlers_run);
}

/// Raisers hammer a keyed event while a churn thread installs and
/// uninstalls keyed handlers, forcing plan recompiles under fire. The
/// compiled counters must stay consistent: every slow-path raise against
/// a plan holding a keyed entry is a compiled raise, and elisions never
/// exceed charged evaluations.
#[test]
fn concurrent_keyed_churn_reconciles() {
    let d = Dispatcher::unmetered();
    let (ev, owner) = d.define::<u64, u64>("Stress.KeyedChurn", Identity::kernel("stress"));

    let primary_runs = Arc::new(AtomicU64::new(0));
    let extra_runs = Arc::new(AtomicU64::new(0));

    let pr = primary_runs.clone();
    owner
        .set_primary(move |x| {
            pr.fetch_add(1, Ordering::Relaxed);
            *x
        })
        .expect("fresh event");

    let stop = Arc::new(AtomicBool::new(false));
    let mut raisers = Vec::new();
    for t in 0..RAISERS {
        let ev = ev.clone();
        raisers.push(thread::spawn(move || {
            for i in 0..RAISES_PER_THREAD {
                let v = (t as u64) << 32 | i;
                ev.raise(v).expect("raise must not fail under churn");
            }
        }));
    }

    let churn = {
        let d = d.clone();
        let ev = ev.clone();
        let stop = stop.clone();
        let extra = extra_runs.clone();
        thread::spawn(move || {
            let ident = Identity::extension("churner");
            let key = KeyFn::new(|x: &u64| x & 1);
            let mut cycles = 0u64;
            while !stop.load(Ordering::Relaxed) && cycles < CHURN_CYCLES * 50 {
                cycles += 1;
                let e1 = extra.clone();
                let id1 = ev
                    .install_keyed(ident.clone(), &key, 0, move |x: &u64| {
                        e1.fetch_add(1, Ordering::Relaxed);
                        x + 1
                    })
                    .expect("install keyed even");
                let e2 = extra.clone();
                let id2 = ev
                    .install_keyed(ident.clone(), &key, 1, move |x: &u64| {
                        e2.fetch_add(1, Ordering::Relaxed);
                        x + 2
                    })
                    .expect("install keyed odd");
                d.uninstall(&ev, id1, &ident).expect("uninstall even");
                d.uninstall(&ev, id2, &ident).expect("uninstall odd");
            }
        })
    };

    for t in raisers {
        t.join().expect("no panics");
    }
    stop.store(true, Ordering::Relaxed);
    churn.join().expect("churn thread must not panic");

    let expected = RAISERS as u64 * RAISES_PER_THREAD;
    let stats = d.stats(&ev).expect("alive");
    assert_eq!(stats.raises, expected, "every raise was counted");
    assert_eq!(
        primary_runs.load(Ordering::Relaxed),
        expected,
        "the primary ran exactly once per raise"
    );
    let slow_raises = stats.raises - stats.fast_path_raises;
    assert_eq!(
        stats.handlers_run,
        slow_raises + extra_runs.load(Ordering::Relaxed),
        "slow-path executions reconcile: primary per slow raise + extras"
    );
    // Keyed extras disqualify the fast path AND index the plan: every
    // slow-path snapshot here holds at least one keyed entry, so every
    // slow raise is a compiled raise — and each evaluated its keyed
    // guards via the table.
    assert_eq!(
        stats.compiled_raises, slow_raises,
        "slow raises under keyed churn all dispatch compiled"
    );
    assert!(stats.guards_elided <= stats.guard_evaluations);
    assert_eq!(stats.handlers_aborted, 0);
}

/// Many threads raising concurrently with no writers: pure read-side
/// scaling. Statistics must account for every raise exactly.
#[test]
fn parallel_fast_path_raises_reconcile() {
    let d = Dispatcher::unmetered();
    let (ev, owner) = d.define::<u64, u64>("Stress.Fast", Identity::kernel("stress"));
    owner.set_primary(|x| x * 2).expect("fresh event");

    let mut threads = Vec::new();
    for _ in 0..RAISERS {
        let ev = ev.clone();
        threads.push(thread::spawn(move || {
            for i in 0..RAISES_PER_THREAD {
                assert_eq!(ev.raise(i), Ok(i * 2));
            }
        }));
    }
    for t in threads {
        t.join().expect("no panics");
    }

    let stats = d.stats(&ev).expect("alive");
    let expected = RAISERS as u64 * RAISES_PER_THREAD;
    assert_eq!(stats.raises, expected);
    assert_eq!(
        stats.fast_path_raises, expected,
        "a lone unguarded synchronous handler stays on the fast path"
    );
    assert_eq!(stats.handlers_run, 0, "fast path bypasses the slow loop");
}

/// A probe whose drop raises `ev` from another thread and waits up to
/// 500 ms for that raise to finish, recording whether it did.
struct RaiseOnDrop {
    ev: Event<u64, u64>,
    raised: Arc<AtomicBool>,
}

impl Drop for RaiseOnDrop {
    fn drop(&mut self) {
        let (tx, rx) = mpsc::channel();
        let ev = self.ev.clone();
        thread::spawn(move || {
            let _ = tx.send(ev.raise(1));
        });
        let raised = rx.recv_timeout(Duration::from_millis(500)).is_ok();
        self.raised.store(raised, Ordering::SeqCst);
    }
}

/// An uninstall whose replaced plan is the last owner of the handler it
/// removed drops that handler — and everything it captured — once the
/// write side and the event's record are both unlocked. Dropped under the
/// record's write lock, as it was before this test was written, a raise of
/// the same event waits out the drop, and a closure whose `Drop` waited for
/// such a raise (or installed on the event) would deadlock.
#[test]
fn a_replaced_plan_drops_outside_the_record_lock() {
    let d = Dispatcher::unmetered();
    let (ev, owner) = d.define::<u64, u64>("Stress.DropProbe", Identity::kernel("stress"));
    owner.set_primary(|x| *x).expect("fresh event");
    let raised = Arc::new(AtomicBool::new(false));
    let probe = RaiseOnDrop {
        ev: ev.clone(),
        raised: raised.clone(),
    };
    let ext = Identity::extension("probe");
    let id = ev
        .install(ext.clone(), move |x| {
            let _captured = &probe;
            *x + 1
        })
        .expect("install allowed");
    assert_eq!(ev.raise(1), Ok(2));
    d.uninstall(&ev, id, &ext).expect("uninstall own handler");
    assert!(
        raised.load(Ordering::SeqCst),
        "a raise waited out the old plan's drop"
    );
    assert_eq!(ev.raise(1), Ok(1));
}
