//! The thread packages of Table 3: the in-kernel Modula-3 package and
//! C-Threads, layered and integrated, as one model.
//!
//! "Within the kernel, a trusted thread package and scheduler implements
//! the Modula-3 thread interface" (§4.2). Table 3 also measures "two
//! implementations of C-Threads on SPIN. The first implementation, labeled
//! 'layered,' is implemented as a user-level library layered on a set of
//! kernel extensions that implement Mach's kernel thread interface. The
//! second implementation, labeled 'integrated,' is structured as a kernel
//! extension that exports the C-Threads interface using system calls
//! \[and\] uses SPIN's strand interface" (§5.2).
//!
//! All three run their threads on strands, with the same mutex and
//! condition underneath; the difference is the *path* each operation
//! takes ([`ThreadPackage`]):
//!
//! * **kernel** — direct strand calls: no crossing, no bookkeeping;
//! * **integrated** — one system-call crossing per operation; the kernel
//!   extension manipulates strands directly;
//! * **layered** — the library keeps its own descriptors (an extra
//!   user-level setup cost) and composes each C-Threads operation from the
//!   Mach-kernel-thread-interface extension, costing *two* crossings for
//!   operations that both update library state and enter the kernel.
//!
//! Table 3: Fork-Join 22, 262 and 111 µs; Ping-Pong 17, 159 and 85 µs.

use crate::executor::{Executor, Strand, StrandCtx};
use crate::sync::{KCondition, KMutex};
use spin_sal::{Cost, Nanos};
use std::ops::Range;
use std::sync::Arc;

/// A thread package of Table 3, named by the path its operations take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadPackage {
    /// The trusted in-kernel Modula-3 package: direct strand calls.
    Kernel,
    /// C-Threads as a user library over a Mach-kernel-thread-interface
    /// extension.
    Layered,
    /// C-Threads as a kernel extension exporting its interface over
    /// strands.
    Integrated,
}

impl ThreadPackage {
    /// Every package, in Table 3's row order.
    pub const ALL: [ThreadPackage; 3] = [
        ThreadPackage::Kernel,
        ThreadPackage::Layered,
        ThreadPackage::Integrated,
    ];

    /// The layers a user-level package's operation crosses into the
    /// kernel and the bookkeeping it pays on top; `None` for direct strand
    /// calls. The layered library crosses twice — its own bookkeeping,
    /// then the Mach-interface extension — and pays both layers' books.
    const fn user_path(self) -> Option<(u64, Cost)> {
        match self {
            ThreadPackage::Kernel => None,
            ThreadPackage::Layered => Some((2, Cost::CThreadsLayeredOp)),
            ThreadPackage::Integrated => Some((1, Cost::CThreadsIntegratedOp)),
        }
    }

    /// Rounds in one Ping-Pong measurement: part of the row, since a
    /// window also holds its two threads' start-up and wind-down.
    const fn ping_pong_rounds(self) -> u64 {
        match self {
            ThreadPackage::Kernel => 64,
            ThreadPackage::Layered | ThreadPackage::Integrated => 32,
        }
    }
}

/// A thread package instance, bound to an executor.
#[derive(Clone)]
struct CThreads {
    exec: Arc<Executor>,
    pkg: ThreadPackage,
}

impl CThreads {
    /// Binds a package to an executor.
    fn new(exec: Arc<Executor>, pkg: ThreadPackage) -> Self {
        CThreads { exec, pkg }
    }

    /// Charge one operation's user-level path: its crossings (the
    /// extension's system call) and its bookkeeping. Free in the kernel.
    fn charge_op(&self) {
        if let Some((layers, bookkeeping)) = self.pkg.user_path() {
            self.exec.clock().charge_all([
                (Cost::TrapEntry, layers),
                (Cost::EventRaiseBase, layers),
                (Cost::GuardEval, layers),
                (Cost::HandlerInvoke, layers),
                (Cost::InterModuleCall, layers),
                (Cost::TrapExit, layers),
                (bookkeeping, 1),
            ]);
        }
    }

    /// `Thread.Fork` / `cthread_fork`. A user-level package builds a user
    /// context per layer: the layered library its own descriptor *and* a
    /// kernel thread underneath.
    fn fork<T: Send + 'static>(
        &self,
        name: &str,
        f: impl FnOnce(&StrandCtx) -> T + Send + 'static,
    ) -> Strand<T> {
        if let Some((layers, _)) = self.pkg.user_path() {
            self.charge_op();
            self.exec.clock().charge(Cost::UserThreadSetup, layers);
        }
        self.exec.spawn(name, f)
    }

    /// `Thread.Join` / `cthread_join`: waits for `child` and hands back
    /// what it returned.
    fn join<T: 'static>(&self, ctx: &StrandCtx, child: Strand<T>) -> std::thread::Result<T> {
        self.charge_op();
        ctx.join(child.id());
        child.join()
    }

    /// Allocates a mutex.
    fn mutex(&self) -> CMutex {
        CMutex {
            inner: KMutex::new(self.exec.clone()),
            pkg: self.clone(),
        }
    }

    /// Allocates a condition.
    fn condition(&self) -> CCondition {
        CCondition {
            inner: KCondition::new(self.exec.clone()),
            pkg: self.clone(),
        }
    }
}

/// A `MUTEX` / `mutex_t`.
struct CMutex {
    inner: Arc<KMutex>,
    pkg: CThreads,
}

impl CMutex {
    /// `mutex_lock`. Uncontended locks stay in user space for the user
    /// packages; contended ones take the package's kernel path.
    fn lock(&self, ctx: &StrandCtx) {
        if self.inner.is_locked() {
            self.pkg.charge_op();
        }
        self.inner.lock(ctx);
    }

    /// `mutex_unlock`.
    fn unlock(&self, ctx: &StrandCtx) {
        self.inner.unlock(ctx);
    }
}

/// A `Thread.Condition` / `condition_t`.
struct CCondition {
    inner: Arc<KCondition>,
    pkg: CThreads,
}

impl CCondition {
    /// `condition_wait`: always enters the kernel to block.
    fn wait(&self, ctx: &StrandCtx, mutex: &CMutex) {
        self.pkg.charge_op();
        self.inner.wait(ctx, &mutex.inner);
    }

    /// `condition_signal`: enters the kernel when a waiter must be woken.
    fn signal(&self, ctx: &StrandCtx) {
        if self.inner.waiter_count() > 0 {
            self.pkg.charge_op();
        }
        self.inner.signal(ctx);
    }
}

/// Measured Fork-Join time (one create/schedule/terminate/synchronize
/// cycle), in virtual nanoseconds — the Table 3 workload.
pub fn measure_fork_join(pkg: ThreadPackage, exec: &Arc<Executor>) -> Nanos {
    let window = fork_join_window(pkg, exec);
    window.end - window.start
}

/// Runs the Fork-Join workload: the virtual-time window of one fork and
/// join, as the forking thread saw it.
fn fork_join_window(pkg: ThreadPackage, exec: &Arc<Executor>) -> Range<Nanos> {
    let pkg = CThreads::new(exec.clone(), pkg);
    let clock = exec.clock().clone();
    let driver = exec.spawn("driver", move |ctx| {
        let t0 = clock.now();
        let child = pkg.fork("child", |_| {});
        pkg.join(ctx, child).expect("the child returns");
        t0..clock.now()
    });
    exec.run_until_idle();
    driver.join().expect("the driver returns its window")
}

/// Measured Ping-Pong time (one mutual signal/block round trip), in
/// virtual nanoseconds per round — the Table 3 workload.
pub fn measure_ping_pong(pkg: ThreadPackage, exec: &Arc<Executor>) -> Nanos {
    let rounds = pkg.ping_pong_rounds();
    let window = ping_pong_window(pkg, rounds, exec);
    (window.end - window.start) / rounds
}

/// Runs the Ping-Pong workload: the virtual-time window of its `rounds`
/// rounds, as the pinging thread saw it.
fn ping_pong_window(pkg: ThreadPackage, rounds: u64, exec: &Arc<Executor>) -> Range<Nanos> {
    let pkg = CThreads::new(exec.clone(), pkg);
    let m = Arc::new(pkg.mutex());
    let c = Arc::new(pkg.condition());
    let turn = Arc::new(spin_check::sync::Mutex::new(0u64));
    let clock = exec.clock().clone();
    let [ping, _pong] = [0, 1u64].map(|i| {
        let (m, c, turn, clock) = (m.clone(), c.clone(), turn.clone(), clock.clone());
        pkg.fork(if i == 0 { "ping" } else { "pong" }, move |ctx| {
            let t0 = clock.now();
            for _ in 0..rounds {
                m.lock(ctx);
                while *turn.lock() % 2 != i {
                    c.wait(ctx, &m);
                }
                *turn.lock() += 1;
                c.signal(ctx);
                m.unlock(ctx);
            }
            t0..clock.now()
        })
    });
    exec.run_until_idle();
    ping.join().expect("ping returns its window")
}

#[cfg(test)]
mod tests {
    use super::*;
    use spin_check::sync::Mutex;
    use spin_sal::{Charge, SimBoard};
    use std::collections::BTreeMap;

    fn exec() -> Arc<Executor> {
        let board = SimBoard::new();
        Executor::on(board.clock.clone(), board.timers.clone())
    }

    #[test]
    fn fork_join_runs_child_before_parent_continues() {
        for pkg in ThreadPackage::ALL {
            let t = CThreads::new(exec(), pkg);
            let log = Arc::new(Mutex::new(Vec::new()));
            let l2 = log.clone();
            let t2 = t.clone();
            t.fork("parent", move |ctx| {
                let l3 = l2.clone();
                let child = t2.fork("child", move |_| {
                    l3.lock().push("child");
                    "joined"
                });
                let joined = t2.join(ctx, child).expect("the child returns");
                l2.lock().push(joined);
                l2.lock().push("parent");
            });
            t.exec.run_until_idle();
            assert_eq!(*log.lock(), vec!["child", "joined", "parent"], "{pkg:?}");
        }
    }

    #[test]
    fn kernel_fork_join_in_table_3_band() {
        // Table 3: SPIN kernel Fork-Join is 22 µs.
        let us = measure_fork_join(ThreadPackage::Kernel, &exec()) as f64 / 1000.0;
        assert!(
            (12.0..35.0).contains(&us),
            "Fork-Join {us} µs, expected ~22 µs"
        );
    }

    #[test]
    fn kernel_ping_pong_in_table_3_band() {
        // Table 3: SPIN kernel Ping-Pong is 17 µs (one round trip of
        // signal/block between two threads).
        let e = exec();
        let per_round_us = measure_ping_pong(ThreadPackage::Kernel, &e) as f64 / 1000.0;
        e.run_until_idle();
        assert!(
            (9.0..30.0).contains(&per_round_us),
            "Ping-Pong {per_round_us} µs/round, expected ~17 µs"
        );
    }

    #[test]
    fn integrated_fork_join_in_table_3_band() {
        let us = measure_fork_join(ThreadPackage::Integrated, &exec()) as f64 / 1000.0;
        // Table 3: 111 µs for SPIN integrated user Fork-Join. The shape
        // constraint is an order of magnitude above kernel Fork-Join
        // (22 µs) and well under layered (262 µs).
        assert!((35.0..180.0).contains(&us), "integrated Fork-Join {us} µs");
    }

    #[test]
    fn layered_is_slower_than_integrated() {
        let int_fj = measure_fork_join(ThreadPackage::Integrated, &exec());
        let lay_fj = measure_fork_join(ThreadPackage::Layered, &exec());
        assert!(
            lay_fj > int_fj * 3 / 2,
            "layered ({lay_fj}) should cost well over integrated ({int_fj})"
        );
        let int_pp = measure_ping_pong(ThreadPackage::Integrated, &exec());
        let lay_pp = measure_ping_pong(ThreadPackage::Layered, &exec());
        assert!(
            lay_pp > int_pp,
            "layered ping-pong ({lay_pp}) should cost more than integrated ({int_pp})"
        );
    }

    #[test]
    fn user_threads_cost_more_than_kernel_threads() {
        // Table 3's vertical structure: user-level operations are an order
        // of magnitude above kernel-thread operations.
        let e = exec();
        let user = measure_ping_pong(ThreadPackage::Integrated, &e);
        assert!(user as f64 / 1000.0 > 30.0, "user ping-pong {user} ns");
    }

    /// A workload's window on a fresh executor whose clock a hook
    /// observes, and the charges inside it summed per [`Cost`]. A charge
    /// may not straddle the window's edges.
    fn window_charges(
        run: impl FnOnce(&Arc<Executor>) -> Range<Nanos>,
    ) -> (Nanos, BTreeMap<Cost, Nanos>) {
        let e = exec();
        let charges = Arc::new(Mutex::new(Vec::new()));
        let (log, clock) = (charges.clone(), e.clock().clone());
        e.clock().add_advance_hook(Box::new(move |charge: Charge| {
            log.lock().push((clock.now(), charge));
        }));
        let window = run(&e);
        let mut tally: BTreeMap<Cost, Nanos> = BTreeMap::new();
        for &(end, charge) in charges.lock().iter() {
            let start = end - charge.ns;
            if start >= window.start && end <= window.end {
                *tally.entry(charge.cost).or_default() += charge.ns;
            } else {
                assert!(
                    end <= window.start || start >= window.end,
                    "{charge:?} straddles"
                );
            }
        }
        (window.end - window.start, tally)
    }

    /// Every virtual ns of each SPIN row of Table 3 is charged by name:
    /// over the measured window of each package's Fork-Join and
    /// Ping-Pong, the charges a hook sees, summed per [`Cost`], add up to
    /// the window, and the window over its rounds is the row. Run with
    /// `--nocapture` to print each row's tally per round.
    #[test]
    fn each_table_3_row_is_the_sum_of_its_named_charges() {
        for pkg in ThreadPackage::ALL {
            let rounds = pkg.ping_pong_rounds();
            let rows = [
                (
                    "Fork-Join",
                    measure_fork_join(pkg, &exec()),
                    window_charges(|e| fork_join_window(pkg, e)),
                    1,
                ),
                (
                    "Ping-Pong",
                    measure_ping_pong(pkg, &exec()),
                    window_charges(|e| ping_pong_window(pkg, rounds, e)),
                    rounds,
                ),
            ];
            for (workload, row, (window, tally), rounds) in rows {
                assert_eq!(
                    tally.values().sum::<Nanos>(),
                    window,
                    "{workload} {pkg:?}: {tally:?}"
                );
                assert_eq!(window / rounds, row, "observing moves no number");
                let per_round: Vec<(Cost, f64)> = tally
                    .iter()
                    .map(|(&cost, &ns)| (cost, ns as f64 / rounds as f64))
                    .collect();
                println!("{workload} {pkg:?}: {row} ns per round = {per_round:?}");
            }
        }
    }

    /// The packages differ only in their path: over windows of the same
    /// rounds, every package charges the same scheduling kinds
    /// (`ContextSwitch`, `SchedDecision`, `SyncOp`, `ThreadCreate`), and
    /// what is left is its crossings, bookkeeping and user contexts.
    #[test]
    fn only_the_path_kinds_differ_between_packages() {
        let path_kinds = [
            Cost::TrapEntry,
            Cost::EventRaiseBase,
            Cost::GuardEval,
            Cost::HandlerInvoke,
            Cost::InterModuleCall,
            Cost::TrapExit,
            Cost::CThreadsLayeredOp,
            Cost::CThreadsIntegratedOp,
            Cost::UserThreadSetup,
        ];
        let scheduling = |tally: BTreeMap<Cost, Nanos>| -> BTreeMap<Cost, Nanos> {
            tally
                .into_iter()
                .filter(|(cost, _)| !path_kinds.contains(cost))
                .collect()
        };
        for rounds in [32, 64] {
            let [kernel, layered, integrated] = ThreadPackage::ALL.map(|pkg| {
                (
                    scheduling(window_charges(|e| fork_join_window(pkg, e)).1),
                    scheduling(window_charges(|e| ping_pong_window(pkg, rounds, e)).1),
                )
            });
            assert_eq!(kernel, layered, "{rounds} rounds");
            assert_eq!(kernel, integrated, "{rounds} rounds");
            let kinds: Vec<&Cost> = kernel.0.keys().chain(kernel.1.keys()).collect();
            assert!(
                kinds.iter().all(|c| [
                    Cost::ContextSwitch,
                    Cost::SchedDecision,
                    Cost::SyncOp,
                    Cost::ThreadCreate
                ]
                .contains(c)),
                "{kinds:?}"
            );
        }
    }
}
