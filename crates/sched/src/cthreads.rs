//! C-Threads for user-level applications: layered vs. integrated.
//!
//! Table 3 measures "two implementations of C-Threads on SPIN. The first
//! implementation, labeled 'layered,' is implemented as a user-level
//! library layered on a set of kernel extensions that implement Mach's
//! kernel thread interface. The second implementation, labeled
//! 'integrated,' is structured as a kernel extension that exports the
//! C-Threads interface using system calls \[and\] uses SPIN's strand
//! interface" (§5.2).
//!
//! Both implementations here run user threads on strands; the difference
//! is the *path* each operation takes:
//!
//! * **integrated** — one system-call crossing per operation; the kernel
//!   extension manipulates strands directly;
//! * **layered** — the library keeps its own descriptors (an extra
//!   user-level setup cost) and composes each C-Threads operation from the
//!   Mach-kernel-thread-interface extension, costing *two* crossings for
//!   operations that both update library state and enter the kernel.
//!
//! The measured consequence (Table 3): integrated Fork-Join ≈ 111 µs vs
//! layered ≈ 262 µs; integrated Ping-Pong ≈ 85 µs vs layered ≈ 159 µs.

use crate::executor::{Executor, StrandCtx, StrandId};
use crate::sync::{KCondition, KMutex};
use spin_sal::{Cost, Nanos};
use std::ops::Range;
use std::sync::Arc;

/// Which C-Threads structure to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CThreadsImpl {
    /// User library over a Mach-kernel-thread-interface extension.
    Layered,
    /// Kernel extension exporting C-Threads over strands.
    Integrated,
}

/// A user-level C-Threads package instance.
#[derive(Clone)]
struct CThreads {
    exec: Arc<Executor>,
    style: CThreadsImpl,
}

impl CThreads {
    /// Creates a package of the given structure.
    fn new(exec: Arc<Executor>, style: CThreadsImpl) -> Self {
        CThreads { exec, style }
    }

    /// Charge the cost of one C-Threads operation reaching its
    /// implementation: its user→kernel→user crossings (the extension's
    /// system call) and the user-level descriptor bookkeeping both
    /// structures pay on top of them. The layered library crosses twice —
    /// library bookkeeping, then through the Mach-interface extension (a
    /// second dispatch inside the kernel), plus an extra crossing for
    /// state the library must read back — and pays its bookkeeping twice
    /// (its own state plus the Mach-interface extension's).
    fn charge_op(&self) {
        let (crossings, bookkeeping) = match self.style {
            CThreadsImpl::Integrated => (1, Cost::CThreadsIntegratedOp),
            CThreadsImpl::Layered => (2, Cost::CThreadsLayeredOp),
        };
        self.exec.clock().charge_all([
            (Cost::TrapEntry, crossings),
            (Cost::EventRaiseBase, crossings),
            (Cost::GuardEval, crossings),
            (Cost::HandlerInvoke, crossings),
            (Cost::InterModuleCall, crossings),
            (Cost::TrapExit, crossings),
            (bookkeeping, 1),
        ]);
    }

    /// `cthread_fork`: creates a user thread.
    fn fork(&self, name: &str, f: impl FnOnce(&StrandCtx) + Send + 'static) -> StrandId {
        self.charge_op();
        // Both structures must build a user context (stack, descriptor);
        // the layered library builds its own descriptor *and* a kernel
        // thread underneath.
        let contexts = match self.style {
            CThreadsImpl::Integrated => 1,
            CThreadsImpl::Layered => 2,
        };
        self.exec.clock().charge(Cost::UserThreadSetup, contexts);
        self.exec.spawn(name, f)
    }

    /// `cthread_join`.
    fn join(&self, ctx: &StrandCtx, target: StrandId) {
        self.charge_op();
        ctx.join(target);
    }

    /// Allocates a C-Threads mutex.
    fn mutex(&self) -> CMutex {
        CMutex {
            inner: KMutex::new(self.exec.clone()),
            pkg: self.clone(),
        }
    }

    /// Allocates a C-Threads condition.
    fn condition(&self) -> CCondition {
        CCondition {
            inner: KCondition::new(self.exec.clone()),
            pkg: self.clone(),
        }
    }
}

/// A `mutex_t`.
struct CMutex {
    inner: Arc<KMutex>,
    pkg: CThreads,
}

impl CMutex {
    /// `mutex_lock`. Uncontended locks stay in user space for both
    /// structures; contended ones take the package's kernel path.
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

/// A `condition_t`.
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
pub fn measure_fork_join(style: CThreadsImpl, exec: &Arc<Executor>) -> Nanos {
    let pkg = CThreads::new(exec.clone(), style);
    let result = Arc::new(spin_check::sync::Mutex::new(0u64));
    let r2 = result.clone();
    let clock = exec.clock().clone();
    exec.spawn("driver", move |ctx| {
        let t0 = clock.now();
        let child = pkg.fork("child", |_| {});
        pkg.join(ctx, child);
        *r2.lock() = clock.now() - t0;
    });
    exec.run_until_idle();
    let r = *result.lock();
    r
}

/// Measured Ping-Pong time (one mutual signal/block round trip), in
/// virtual nanoseconds per round — the Table 3 workload.
pub fn measure_ping_pong(style: CThreadsImpl, exec: &Arc<Executor>) -> Nanos {
    let window = ping_pong_window(style, exec);
    (window.end - window.start) / PING_PONG_ROUNDS
}

/// Rounds in one C-Threads Ping-Pong measurement.
const PING_PONG_ROUNDS: u64 = 32;

/// Runs the C-Threads Ping-Pong workload: the virtual-time window of its
/// [`PING_PONG_ROUNDS`] rounds, as the pinging thread saw it.
fn ping_pong_window(style: CThreadsImpl, exec: &Arc<Executor>) -> Range<Nanos> {
    let pkg = CThreads::new(exec.clone(), style);
    let m = Arc::new(pkg.mutex());
    let c = Arc::new(pkg.condition());
    let turn = Arc::new(spin_check::sync::Mutex::new(0u64));
    let window = Arc::new(spin_check::sync::Mutex::new(0..0));
    let clock = exec.clock().clone();
    for i in 0..2u64 {
        let (pkg, m, c, turn) = (pkg.clone(), m.clone(), c.clone(), turn.clone());
        let (clock, window) = (clock.clone(), window.clone());
        pkg.clone()
            .fork(if i == 0 { "ping" } else { "pong" }, move |ctx| {
                let t0 = clock.now();
                for _ in 0..PING_PONG_ROUNDS {
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
    use spin_sal::{Charge, SimBoard};
    use std::collections::BTreeMap;

    fn exec() -> Arc<Executor> {
        let board = SimBoard::new();
        Executor::on(board.clock.clone(), board.timers.clone())
    }

    #[test]
    fn integrated_fork_join_in_table_3_band() {
        let us = measure_fork_join(CThreadsImpl::Integrated, &exec()) as f64 / 1000.0;
        // Table 3: 111 µs for SPIN integrated user Fork-Join. The shape
        // constraint is an order of magnitude above kernel Fork-Join
        // (22 µs) and well under layered (262 µs).
        assert!((35.0..180.0).contains(&us), "integrated Fork-Join {us} µs");
    }

    #[test]
    fn layered_is_slower_than_integrated() {
        let int_fj = measure_fork_join(CThreadsImpl::Integrated, &exec());
        let lay_fj = measure_fork_join(CThreadsImpl::Layered, &exec());
        assert!(
            lay_fj > int_fj * 3 / 2,
            "layered ({lay_fj}) should cost well over integrated ({int_fj})"
        );
        let int_pp = measure_ping_pong(CThreadsImpl::Integrated, &exec());
        let lay_pp = measure_ping_pong(CThreadsImpl::Layered, &exec());
        assert!(
            lay_pp > int_pp,
            "layered ping-pong ({lay_pp}) should cost more than integrated ({int_pp})"
        );
    }

    /// Every virtual ns of each SPIN Ping-Pong row of Table 3 is charged by
    /// name: over the measured window, the charges a hook sees, summed per
    /// [`Cost`], add up to the window, and the window over its rounds is
    /// the row.
    #[test]
    fn each_ping_pong_row_is_the_sum_of_its_named_charges() {
        type Run = fn(&Arc<Executor>) -> Range<Nanos>;
        type Row = fn(&Arc<Executor>) -> Nanos;
        let rows: [(Run, Row, u64); 3] = [
            (
                crate::kthread::kernel_ping_pong_window,
                crate::kthread::measure_kernel_ping_pong,
                crate::kthread::KERNEL_PING_PONG_ROUNDS,
            ),
            (
                |e| ping_pong_window(CThreadsImpl::Layered, e),
                |e| measure_ping_pong(CThreadsImpl::Layered, e),
                PING_PONG_ROUNDS,
            ),
            (
                |e| ping_pong_window(CThreadsImpl::Integrated, e),
                |e| measure_ping_pong(CThreadsImpl::Integrated, e),
                PING_PONG_ROUNDS,
            ),
        ];
        for (run, row, rounds) in rows {
            let e = exec();
            let charges = Arc::new(spin_check::sync::Mutex::new(Vec::new()));
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
            let window_ns = window.end - window.start;
            assert_eq!(tally.values().sum::<Nanos>(), window_ns, "{tally:?}");
            assert_eq!(
                window_ns / rounds,
                row(&exec()),
                "observing moves no number"
            );
        }
    }

    #[test]
    fn user_threads_cost_more_than_kernel_threads() {
        // Table 3's vertical structure: user-level operations are an order
        // of magnitude above kernel-thread operations.
        let e = exec();
        let user = measure_ping_pong(CThreadsImpl::Integrated, &e);
        assert!(user as f64 / 1000.0 > 30.0, "user ping-pong {user} ns");
    }
}
