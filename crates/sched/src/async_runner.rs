//! The real asynchronous-handler runner for the dispatcher.
//!
//! §3.2: "A handler may be asynchronous, which causes it to execute in a
//! separate thread from the raiser, isolating the raiser from handler
//! latency." The dispatcher in `spin-core` cannot depend on this crate, so
//! it exposes a pluggable runner; [`install_async_runner`] provides the
//! production one — each asynchronous invocation runs on a fresh kernel
//! strand.

use crate::executor::{Executor, Strand};
use spin_core::{AsyncInvocation, Dispatcher};
use std::sync::Arc;

/// Wires `dispatcher`'s asynchronous handler execution onto `exec`. The
/// dispatcher counts the invocations it hands over
/// (`EventStats::async_dispatches`).
///
/// An invocation carrying a `time_bound` constraint arms the strand's
/// virtual-time deadline before the handler starts: the executor's safe
/// points then unwind the handler with `DeadlineExceeded` once the bound
/// is consumed, and the dispatcher's containment wrapper (inside
/// `inv.run`) catches the unwind and counts the handler as aborted.
// paper: §3.2, the asynchronous-handler runner ("execute in a separate thread").
pub fn install_async_runner(exec: &Arc<Executor>, dispatcher: &Dispatcher) {
    let exec = exec.clone();
    dispatcher.set_async_runner(Arc::new(move |inv: AsyncInvocation| {
        spawn_invocation(&exec, inv);
    }));
}

/// Runs one asynchronous invocation on a fresh strand. The invocation
/// contains its handler's unwinds, a deadline's included, so the strand
/// finishes with `Ok`.
fn spawn_invocation(exec: &Arc<Executor>, inv: AsyncInvocation) -> Strand<()> {
    let clock = exec.clock().clone();
    exec.spawn("async-handler", move |ctx| {
        if let Some(bound) = inv.time_bound {
            ctx.set_deadline(clock.now().saturating_add(bound));
        }
        (inv.run)();
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spin_check::sync::{Counter, Mutex};
    use spin_core::{Constraints, HandlerMode, Identity, InstallDecision};
    use spin_sal::SimBoard;

    #[test]
    fn async_handlers_run_on_their_own_strand_after_the_raise() {
        let board = SimBoard::new();
        let exec = Executor::on(board.clock.clone(), board.timers.clone());
        let disp = spin_core::Dispatcher::on(board.clock.clone());
        install_async_runner(&exec, &disp);

        let (ev, owner) = disp.define::<(), u32>("E", Identity::kernel("k"));
        owner.set_primary(|_| 1).unwrap();
        owner
            .set_auth(|_| InstallDecision::Allow {
                owner_guard: None,
                constraints: Some(Constraints {
                    mode: HandlerMode::Asynchronous,
                    time_bound: None,
                }),
            })
            .unwrap();
        let log = Arc::new(Mutex::new(Vec::new()));
        let l2 = log.clone();
        ev.install(Identity::extension("monitor"), move |_| {
            l2.lock().push("async ran");
            9
        })
        .unwrap();

        let (l3, ev2) = (log.clone(), ev.clone());
        exec.spawn("raiser", move |_ctx| {
            // The raise returns the primary's result immediately; the
            // async handler has NOT run yet (it needs a schedule slice).
            assert_eq!(ev2.raise(()), Ok(1));
            l3.lock().push("raise returned");
        });
        exec.run_until_idle();
        assert_eq!(
            *log.lock(),
            vec!["raise returned", "async ran"],
            "the raiser was isolated from the handler"
        );
        assert_eq!(disp.stats(&ev).unwrap().async_dispatches, 1);
    }

    #[test]
    fn async_handlers_past_their_time_bound_are_aborted_mid_flight() {
        let board = SimBoard::new();
        let exec = Executor::on(board.clock.clone(), board.timers.clone());
        let disp = spin_core::Dispatcher::on(board.clock.clone());
        // The runner `install_async_runner` wires, keeping each handle.
        let handlers = Arc::new(Mutex::new(Vec::new()));
        let (e2, h2) = (exec.clone(), handlers.clone());
        disp.set_async_runner(Arc::new(move |inv: AsyncInvocation| {
            h2.lock().push(spawn_invocation(&e2, inv));
        }));
        let (ev, owner) = disp.define::<(), ()>("E", Identity::kernel("k"));
        owner.set_primary(|_| ()).unwrap();
        owner
            .set_auth(|_| InstallDecision::Allow {
                owner_guard: None,
                constraints: Some(Constraints {
                    mode: HandlerMode::Asynchronous,
                    time_bound: Some(2_000_000), // 2 ms budget
                }),
            })
            .unwrap();
        let progressed = Arc::new(Counter::default());
        let p2 = progressed.clone();
        let e2 = exec.clone();
        ev.install(Identity::extension("runaway"), move |_| {
            let ctx = e2.current_ctx().expect("async handlers run on strands");
            for _ in 0..1000 {
                ctx.work(1_000_000); // 1 ms per round: the deadline unwinds it
                p2.add(1);
            }
        })
        .unwrap();
        let ev2 = ev.clone();
        exec.spawn("raiser", move |_| {
            let _ = ev2.raise(());
        });
        exec.run_until_idle();
        let stats = disp.stats(&ev).unwrap();
        assert_eq!(stats.handlers_aborted, 1, "the runaway handler was cut off");
        assert_eq!(
            stats.handler_faults, 0,
            "a deadline unwind is an abort, not a fault"
        );
        assert!(
            progressed.get() < 1000,
            "the handler was stopped mid-flight, not after it returned"
        );
        let handler = handlers.lock().pop().expect("one invocation ran");
        assert!(
            handler.join().is_ok(),
            "the deadline's unwind was contained in the handler"
        );
    }

    #[test]
    fn a_slow_async_handler_does_not_delay_the_raiser() {
        let board = SimBoard::new();
        let exec = Executor::on(board.clock.clone(), board.timers.clone());
        let disp = spin_core::Dispatcher::on(board.clock.clone());
        install_async_runner(&exec, &disp);
        let (ev, owner) = disp.define::<(), ()>("E", Identity::kernel("k"));
        owner.set_primary(|_| ()).unwrap();
        owner
            .set_auth(|_| InstallDecision::Allow {
                owner_guard: None,
                constraints: Some(Constraints {
                    mode: HandlerMode::Asynchronous,
                    time_bound: None,
                }),
            })
            .unwrap();
        let clock = board.clock.clone();
        let c2 = clock.clone();
        ev.install(Identity::extension("slow-monitor"), move |_| {
            c2.charge(spin_sal::Cost::Work, 50_000_000); // 50 ms of monitor work
        })
        .unwrap();
        let raiser = exec.spawn("raiser", move |_| {
            let t0 = clock.now();
            ev.raise(()).unwrap();
            clock.now() - t0
        });
        exec.run_until_idle();
        let raise_cost = raiser.join().unwrap();
        assert!(
            raise_cost < 1_000_000,
            "raise cost {raise_cost} must not include the 50 ms handler"
        );
    }
}
