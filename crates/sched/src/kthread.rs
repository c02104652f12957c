//! The trusted in-kernel thread package: the Modula-3 thread interface.
//!
//! "Within the kernel, a trusted thread package and scheduler implements
//! the Modula-3 thread interface" (§4.2). Kernel extensions use this
//! package for their own concurrency (protocol threads, pagers, servers).
//! It is a thin, trusted veneer over strands plus [`KMutex`]/[`KCondition`].

use crate::executor::{Executor, StrandCtx, StrandId};
use crate::sync::{KCondition, KMutex};
use spin_sal::Nanos;
use std::ops::Range;
use std::sync::Arc;

/// The Modula-3 `Thread` interface, bound to an executor.
#[derive(Clone)]
struct M3Threads {
    exec: Arc<Executor>,
}

impl M3Threads {
    /// Binds the package to an executor.
    fn new(exec: Arc<Executor>) -> Self {
        M3Threads { exec }
    }

    /// `Thread.Fork`: creates a kernel thread running `f`.
    fn fork(&self, name: &str, f: impl FnOnce(&StrandCtx) + Send + 'static) -> StrandId {
        self.exec.spawn(name, f)
    }

    /// `Thread.Join`: blocks the calling thread until `target` completes.
    fn join(&self, ctx: &StrandCtx, target: StrandId) {
        ctx.join(target);
    }

    /// Allocates a Modula-3 `MUTEX`.
    fn mutex(&self) -> Arc<KMutex> {
        KMutex::new(self.exec.clone())
    }

    /// Allocates a `Thread.Condition`.
    fn condition(&self) -> Arc<KCondition> {
        KCondition::new(self.exec.clone())
    }
}

/// Measures the kernel-thread Fork-Join workload (Table 3): create,
/// schedule, terminate and join one thread. Returns virtual nanoseconds.
pub fn measure_kernel_fork_join(exec: &Arc<Executor>) -> u64 {
    let t = M3Threads::new(exec.clone());
    let clock = exec.clock().clone();
    let elapsed = Arc::new(spin_check::sync::Mutex::new(0u64));
    let (t2, e2) = (t.clone(), elapsed.clone());
    t.fork("driver", move |ctx| {
        let t0 = clock.now();
        let child = t2.fork("child", |_| {});
        t2.join(ctx, child);
        *e2.lock() = clock.now() - t0;
    });
    exec.run_until_idle();
    let r = *elapsed.lock();
    r
}

/// Measures the kernel-thread Ping-Pong workload (Table 3): one mutual
/// signal/block round trip between two threads. Returns virtual
/// nanoseconds per round.
pub fn measure_kernel_ping_pong(exec: &Arc<Executor>) -> u64 {
    let window = kernel_ping_pong_window(exec);
    (window.end - window.start) / KERNEL_PING_PONG_ROUNDS
}

/// Rounds in one kernel-thread Ping-Pong measurement.
pub(crate) const KERNEL_PING_PONG_ROUNDS: u64 = 64;

/// Runs the kernel-thread Ping-Pong workload: the virtual-time window of
/// its [`KERNEL_PING_PONG_ROUNDS`] rounds, as the pinging thread saw it.
pub(crate) fn kernel_ping_pong_window(exec: &Arc<Executor>) -> Range<Nanos> {
    let t = M3Threads::new(exec.clone());
    let clock = exec.clock().clone();
    let m = t.mutex();
    let c = t.condition();
    let turn = Arc::new(spin_check::sync::Mutex::new(0u64));
    let window = Arc::new(spin_check::sync::Mutex::new(0..0));
    for i in 0..2u64 {
        let (m, c, turn) = (m.clone(), c.clone(), turn.clone());
        let (clock, window) = (clock.clone(), window.clone());
        t.fork(if i == 0 { "ping" } else { "pong" }, move |ctx| {
            let t0 = clock.now();
            for _ in 0..KERNEL_PING_PONG_ROUNDS {
                m.lock(ctx);
                while *turn.lock() % 2 != i {
                    c.wait(ctx, &m);
                }
                *turn.lock() += 1;
                c.signal(ctx);
                m.unlock(ctx);
            }
            if i == 0 {
                *window.lock() = t0..clock.now();
            }
        });
    }
    exec.run_until_idle();
    let w = window.lock().clone();
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::IdleOutcome;
    use spin_check::sync::Mutex;
    use spin_sal::SimBoard;

    fn pkg() -> M3Threads {
        let board = SimBoard::new();
        M3Threads::new(Executor::on(board.clock.clone(), board.timers.clone()))
    }

    #[test]
    fn fork_join_runs_child_before_parent_continues() {
        let t = pkg();
        let log = Arc::new(Mutex::new(Vec::new()));
        let l2 = log.clone();
        let t2 = t.clone();
        t.fork("parent", move |ctx| {
            let l3 = l2.clone();
            let child = t2.fork("child", move |_| l3.lock().push("child"));
            t2.join(ctx, child);
            l2.lock().push("parent");
        });
        assert_eq!(t.exec.run_until_idle(), IdleOutcome::AllComplete);
        assert_eq!(*log.lock(), vec!["child", "parent"]);
    }

    #[test]
    fn fork_join_costs_match_table_3_band() {
        // Table 3: SPIN kernel Fork-Join is 22 µs.
        let t = pkg();
        let clock = t.exec.clock().clone();
        let elapsed = Arc::new(Mutex::new(0u64));
        let (t2, e2, c2) = (t.clone(), elapsed.clone(), clock.clone());
        t.fork("driver", move |ctx| {
            let t0 = c2.now();
            let child = t2.fork("child", |_| {});
            t2.join(ctx, child);
            *e2.lock() = c2.now() - t0;
        });
        t.exec.run_until_idle();
        let us = *elapsed.lock() as f64 / 1000.0;
        assert!(
            (12.0..35.0).contains(&us),
            "Fork-Join {us} µs, expected ~22 µs"
        );
    }

    #[test]
    fn ping_pong_costs_match_table_3_band() {
        // Table 3: SPIN kernel Ping-Pong is 17 µs (one round trip of
        // signal/block between two threads).
        let t = pkg();
        let clock = t.exec.clock().clone();
        let m = t.mutex();
        let c = t.condition();
        let turn = Arc::new(Mutex::new(0u32));
        let elapsed = Arc::new(Mutex::new(0u64));
        const ROUNDS: u32 = 64;
        for i in 0..2u32 {
            let (m, c, turn) = (m.clone(), c.clone(), turn.clone());
            let (clock, elapsed) = (clock.clone(), elapsed.clone());
            t.fork(if i == 0 { "ping" } else { "pong" }, move |ctx| {
                let t0 = clock.now();
                for _ in 0..ROUNDS {
                    m.lock(ctx);
                    while *turn.lock() % 2 != i {
                        c.wait(ctx, &m);
                    }
                    *turn.lock() += 1;
                    c.signal(ctx);
                    m.unlock(ctx);
                }
                if i == 0 {
                    *elapsed.lock() = clock.now() - t0;
                }
            });
        }
        assert_eq!(t.exec.run_until_idle(), IdleOutcome::AllComplete);
        let per_round_us = *elapsed.lock() as f64 / 1000.0 / ROUNDS as f64;
        assert!(
            (9.0..30.0).contains(&per_round_us),
            "Ping-Pong {per_round_us} µs/round, expected ~17 µs"
        );
    }
}
