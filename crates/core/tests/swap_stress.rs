//! Stress tests for the hot-swap quiesce/hold/rebind machinery.
//!
//! Raisers hammer one event while a churn thread runs the swap protocol
//! in a loop — quiesce, drain, rebind (sometimes immediately rolled back
//! via `restore`), resume. Afterwards every counter must reconcile
//! exactly: a raise attempt either completed a dispatch, parked in the
//! hold queue (and was replayed), or bounced off a full hold queue.
//!
//!     attempts = (raises − replayed) + held + overflowed
//!
//! These raisers share one `Dispatcher::unmetered()` clock with no hand-off
//! between them, outside the clock's one-writer contract (DESIGN.md
//! decision 26), so that clock may lose a charge; nothing here reads it.

use spin_core::{Constraints, DispatchError, Dispatcher, Identity, InstallSpec};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

const RAISERS: usize = 4;
const RAISES_PER_THREAD: u64 = 20_000;

fn version_spec(ident: &Identity, bump: &Arc<AtomicU64>, bias: u64) -> InstallSpec<u64, u64> {
    let bump = bump.clone();
    InstallSpec {
        installer: ident.clone(),
        handler: Arc::new(move |x: &u64| {
            bump.fetch_add(1, Ordering::Relaxed);
            x + bias
        }),
        guards: Vec::new(),
        constraints: Constraints::default(),
    }
}

/// Concurrent raisers race swap/rollback churn. No raise may be lost or
/// misreported, and the hold-queue statistics must reconcile exactly with
/// what the raisers observed.
#[test]
fn concurrent_raises_survive_swap_and_rollback_churn() {
    let d = Dispatcher::unmetered();
    let (ev, _owner) = d.define::<u64, u64>("Swap.Stress", Identity::kernel("stress"));
    ev.set_hold_capacity(256).expect("event alive");

    let v1 = Identity::extension("fwd-v1");
    let v2 = Identity::extension("fwd-v2");
    let v1_runs = Arc::new(AtomicU64::new(0));
    let v2_runs = Arc::new(AtomicU64::new(0));
    {
        let bump = v1_runs.clone();
        ev.install(v1.clone(), move |x: &u64| {
            bump.fetch_add(1, Ordering::Relaxed);
            x + 1
        })
        .expect("install v1");
    }

    let stop = Arc::new(AtomicBool::new(false));
    let mut raisers = Vec::new();
    for t in 0..RAISERS {
        let ev = ev.clone();
        raisers.push(thread::spawn(move || {
            // (ok, held, overflowed) as observed by this raiser.
            let mut tally = (0u64, 0u64, 0u64);
            for i in 0..RAISES_PER_THREAD {
                let v = (t as u64) << 32 | i;
                match ev.raise(v) {
                    Ok(r) => {
                        assert!(
                            r == v + 1 || r == v + 2,
                            "result from a version that was never installed: {r}"
                        );
                        tally.0 += 1;
                    }
                    Err(DispatchError::Held { .. }) => tally.1 += 1,
                    Err(DispatchError::HoldOverflow { .. }) => tally.2 += 1,
                    Err(e) => panic!("raise must not fail under swap churn: {e:?}"),
                }
            }
            tally
        }));
    }

    let churn = {
        let ev = ev.clone();
        let stop = stop.clone();
        let (v1, v2) = (v1.clone(), v2.clone());
        let (v1_runs, v2_runs) = (v1_runs.clone(), v2_runs.clone());
        thread::spawn(move || {
            let mut current = v1.clone();
            let mut cycle = 0u64;
            while !stop.load(Ordering::Relaxed) {
                cycle += 1;
                ev.quiesce().expect("event alive");
                ev.drain_in_flight().expect("event alive");
                let (next, bump, bias) = if current == v1 {
                    (v2.clone(), &v2_runs, 2)
                } else {
                    (v1.clone(), &v1_runs, 1)
                };
                let receipt = ev
                    .rebind(&current, &current, vec![version_spec(&next, bump, bias)])
                    .expect("rebind under churn");
                if cycle.is_multiple_of(3) {
                    // Simulated rollback: reverse the rebind before resume,
                    // exactly as the swap coordinator's undo chain does.
                    ev.restore(&current, receipt).expect("restore under churn");
                } else {
                    current = next;
                }
                ev.resume().expect("event alive");
            }
            cycle
        })
    };

    let mut attempts = 0u64;
    let (mut ok, mut held, mut overflowed) = (0u64, 0u64, 0u64);
    for t in raisers {
        let (o, h, f) = t.join().expect("raisers must not panic");
        attempts += RAISES_PER_THREAD;
        ok += o;
        held += h;
        overflowed += f;
    }
    stop.store(true, Ordering::Relaxed);
    let cycles = churn.join().expect("churn thread must not panic");
    assert!(cycles > 0, "churn must have overlapped the raisers");

    let stats = d.stats(&ev).expect("event alive");
    let hold = ev.hold_stats().expect("event alive");
    assert_eq!(hold.held, held, "every Held error left a parked raise");
    assert_eq!(
        hold.overflowed, overflowed,
        "every HoldOverflow error was counted"
    );
    assert_eq!(
        hold.replayed, hold.held,
        "the final resume left nothing parked"
    );
    assert_eq!(ev.held_len().expect("event alive"), 0);
    assert_eq!(
        stats.raises,
        ok + hold.replayed,
        "completed dispatches = raiser-visible Oks + replays"
    );
    assert_eq!(
        attempts,
        (stats.raises - hold.replayed) + hold.held + hold.overflowed,
        "hold-queue reconciliation"
    );
    assert_eq!(
        v1_runs.load(Ordering::Relaxed) + v2_runs.load(Ordering::Relaxed),
        stats.raises,
        "exactly one version ran per completed dispatch"
    );
    assert!(
        ev.generation().expect("event alive") >= cycles,
        "every rebind and restore bumped the plan generation"
    );
}

/// Parked raises replay in the order they parked: the hold queue is an
/// arrival-order FIFO.
#[test]
fn hold_queue_replays_in_park_order() {
    let d = Dispatcher::unmetered();
    let (ev, _owner) = d.define::<u64, u64>("Swap.Order", Identity::kernel("stress"));
    let log = Arc::new(Mutex::new(Vec::new()));
    {
        let log = log.clone();
        ev.install(Identity::extension("v1"), move |x: &u64| {
            log.lock().unwrap().push(*x);
            *x
        })
        .expect("install");
    }

    ev.quiesce().expect("event alive");
    for i in 0..5u64 {
        assert!(matches!(ev.raise(i), Err(DispatchError::Held { .. })));
    }
    assert_eq!(ev.held_len().expect("event alive"), 5);
    assert!(log.lock().unwrap().is_empty(), "parked raises must not run");
    assert_eq!(ev.resume().expect("event alive"), 5);
    assert_eq!(*log.lock().unwrap(), vec![0, 1, 2, 3, 4]);
}

/// A full hold queue bounces raises with `HoldOverflow`; the bounced
/// raises are dropped, not replayed.
#[test]
fn hold_queue_overflow_is_bounded_and_counted() {
    let d = Dispatcher::unmetered();
    let (ev, _owner) = d.define::<u64, u64>("Swap.Overflow", Identity::kernel("stress"));
    ev.set_hold_capacity(2).expect("event alive");
    ev.install(Identity::extension("v1"), |x: &u64| *x)
        .expect("install");

    ev.quiesce().expect("event alive");
    assert!(matches!(ev.raise(0), Err(DispatchError::Held { .. })));
    assert!(matches!(ev.raise(1), Err(DispatchError::Held { .. })));
    assert!(matches!(
        ev.raise(2),
        Err(DispatchError::HoldOverflow { .. })
    ));
    assert_eq!(ev.resume().expect("event alive"), 2);
    let hold = ev.hold_stats().expect("event alive");
    assert_eq!((hold.held, hold.replayed, hold.overflowed), (2, 2, 1));
    let stats = d.stats(&ev).expect("event alive");
    assert_eq!(stats.raises, 2, "only replayed raises completed");
}

/// A destroyed event degrades gracefully through the `GatedEvent` facade:
/// quiesce/drain report `false`, resume replays nothing.
#[test]
fn gated_event_facade_survives_destruction() {
    use spin_core::GatedEvent;

    let d = Dispatcher::unmetered();
    let (ev, owner) = d.define::<u64, u64>("Swap.Gone", Identity::kernel("stress"));
    let gate: Arc<dyn GatedEvent> = Arc::new(ev.clone());
    assert!(gate.quiesce());
    owner.destroy().expect("owner may destroy");
    assert!(!gate.quiesce(), "a destroyed event is trivially quiescent");
    assert!(!gate.drain_in_flight());
    assert_eq!(gate.resume(), 0);
    assert_eq!(gate.held_len(), 0);
    let _ = d; // keep the dispatcher alive to the end
}
