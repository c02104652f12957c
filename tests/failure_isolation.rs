//! Integration: §4.3's isolation claim — "an extension's failure to use an
//! interface correctly is isolated to the extension itself (and any others
//! that rely on it)" and "the failure of an extension is no more
//! catastrophic than the failure of code executing in the runtime
//! libraries".

use parking_lot::Mutex;
use spin_os::core::{Constraints, HandlerMode, Identity, InstallDecision, Kernel};
use spin_os::rt::GcError;
use spin_os::sal::{Cost, SimBoard};
use spin_os::sched::{Executor, IdleOutcome, WaitQueue};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::task::Poll;

fn kernel() -> Kernel {
    let board = SimBoard::new();
    Kernel::boot(board.new_host(256))
}

#[test]
fn a_runaway_handler_is_aborted_and_other_handlers_still_run() {
    let k = kernel();
    let (ev, owner) = k
        .dispatcher()
        .define::<(), u32>("Service.Event", Identity::kernel("svc"));
    owner.set_primary(|_| 1).unwrap();
    // The owner bounds every third-party handler at 10 µs.
    owner
        .set_auth(|_| InstallDecision::Allow {
            owner_guard: None,
            constraints: Some(Constraints {
                mode: HandlerMode::Synchronous,
                time_bound: Some(10_000),
            }),
        })
        .unwrap();
    let clock = k.host().clock.clone();
    ev.install(Identity::extension("runaway"), move |_| {
        clock.charge(Cost::Work, 5_000_000); // 5 ms of "spinning"
        999
    })
    .unwrap();
    let well_behaved_ran = Arc::new(AtomicU32::new(0));
    let w2 = well_behaved_ran.clone();
    ev.install(Identity::extension("wellbehaved"), move |_| {
        w2.fetch_add(1, Ordering::Relaxed);
        2
    })
    .unwrap();

    // The runaway's result is discarded; the well-behaved handler's result
    // is the final one and stands.
    assert_eq!(ev.raise(()), Ok(2));
    assert_eq!(well_behaved_ran.load(Ordering::Relaxed), 1);
    assert_eq!(k.dispatcher().stats(&ev).unwrap().handlers_aborted, 1);
}

#[test]
fn a_thread_package_ignoring_unblock_only_harms_its_own_application() {
    // §4.3: "An application-specific thread package may ignore the event
    // that a particular user-level thread is runnable, but only the
    // application using the thread package will be affected."
    let board = SimBoard::new();
    let exec = Executor::on(board.clock.clone(), board.timers.clone());

    // The victim application waits on its (buggy) package, which never
    // wakes it.
    let package = Mutex::new(WaitQueue::default());
    let victim = exec.spawn("victim-app", move |ctx| {
        ctx.wait(&package, |q| q, |_| Poll::<()>::Pending)
    });
    // An unrelated application gets on with its life.
    let healthy_done = Arc::new(AtomicU32::new(0));
    let h2 = healthy_done.clone();
    exec.spawn("healthy-app", move |ctx| {
        ctx.sleep(1_000_000);
        h2.fetch_add(1, Ordering::Relaxed);
    });
    match exec.run_until_idle() {
        IdleOutcome::Deadlock { blocked } => {
            assert_eq!(blocked, vec!["victim-app".to_string()]);
        }
        other => panic!("expected only the victim stuck, got {other:?}"),
    }
    assert_eq!(healthy_done.load(Ordering::Relaxed), 1);
    assert!(!exec.is_done(victim));
}

#[test]
fn a_panicking_extension_strand_does_not_take_down_the_system() {
    let board = SimBoard::new();
    let exec = Executor::on(board.clock.clone(), board.timers.clone());
    let bad = exec.spawn("buggy-extension", |_| panic!("index out of bounds"));
    let good_done = Arc::new(AtomicU32::new(0));
    let g2 = good_done.clone();
    exec.spawn("core-service", move |ctx| {
        ctx.sleep(100);
        g2.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(exec.run_until_idle(), IdleOutcome::AllComplete);
    assert!(exec.panicked(bad), "the failure is recorded");
    assert_eq!(
        good_done.load(Ordering::Relaxed),
        1,
        "everyone else survives"
    );
}

#[test]
fn leaked_memory_from_a_dead_extension_is_reclaimed() {
    // "resources released by an extension, either through inaction or as a
    // result of premature termination, are eventually reclaimed" (§5.5).
    let k = kernel();
    let heap = k.heap().clone();
    let board_exec = Executor::for_host(k.host());
    let leaked = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let l2 = leaked.clone();
    let h2 = heap.clone();
    let ext = board_exec.spawn("leaky-extension", move |_| {
        for i in 0..1000u64 {
            l2.lock().push(h2.alloc(i).unwrap());
        }
        panic!("extension dies holding 1000 objects");
    });
    board_exec.run_until_idle();
    assert!(board_exec.panicked(ext));
    // The extension is gone; its references die with it.
    let refs: Vec<_> = std::mem::take(&mut *leaked.lock());
    drop(refs);
    heap.collect();
    assert!(heap.live_bytes() < 1024, "the collector reclaimed the leak");
}

#[test]
fn stale_references_fail_safely_never_alias() {
    let k = kernel();
    let heap = k.heap();
    let stale = heap.alloc(0xDEAD_BEEFu64).unwrap();
    heap.collect(); // unrooted: reclaimed
                    // Allocate a different type; even if storage is reused, the stale
                    // reference cannot observe it.
    let _other = heap.alloc(String::from("fresh")).unwrap();
    assert_eq!(heap.get(stale), Err(GcError::Dangling));
}
