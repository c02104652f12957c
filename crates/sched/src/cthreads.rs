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
use spin_sal::Nanos;
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

    /// One user→kernel→user crossing (the extension's system call).
    fn crossing(&self) -> Nanos {
        let p = self.exec.profile();
        p.trap_entry
            + p.event_raise_base
            + p.guard_eval
            + p.handler_invoke
            + p.inter_module_call
            + p.trap_exit
    }

    /// Charge the cost of one C-Threads operation reaching its
    /// implementation. Both structures pay user-level descriptor
    /// bookkeeping on top of the crossing; the layered library pays it
    /// twice (its own state plus the Mach-interface extension's).
    fn charge_op(&self) {
        let p = self.exec.profile();
        match self.style {
            CThreadsImpl::Integrated => {
                self.exec.clock().advance(self.crossing() + 15_000);
            }
            CThreadsImpl::Layered => {
                // Library bookkeeping, then through the Mach-interface
                // extension (a second dispatch inside the kernel), plus an
                // extra crossing for state the library must read back.
                self.exec
                    .clock()
                    .advance(2 * self.crossing() + p.user_thread_setup / 2 + 25_000);
            }
        }
    }

    /// `cthread_fork`: creates a user thread.
    fn fork(&self, name: &str, f: impl FnOnce(&StrandCtx) + Send + 'static) -> StrandId {
        let p = self.exec.profile();
        self.charge_op();
        // Both structures must build a user context (stack, descriptor);
        // the layered library builds its own descriptor *and* a kernel
        // thread underneath.
        match self.style {
            CThreadsImpl::Integrated => self.exec.clock().advance(p.user_thread_setup),
            CThreadsImpl::Layered => self.exec.clock().advance(2 * p.user_thread_setup),
        }
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
    const ROUNDS: u64 = 32;
    let pkg = CThreads::new(exec.clone(), style);
    let m = Arc::new(pkg.mutex());
    let c = Arc::new(pkg.condition());
    let turn = Arc::new(spin_check::sync::Mutex::new(0u64));
    let elapsed = Arc::new(spin_check::sync::Mutex::new(0u64));
    let clock = exec.clock().clone();
    for i in 0..2u64 {
        let (pkg, m, c, turn) = (pkg.clone(), m.clone(), c.clone(), turn.clone());
        let (clock, elapsed) = (clock.clone(), elapsed.clone());
        pkg.clone()
            .fork(if i == 0 { "ping" } else { "pong" }, move |ctx| {
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
    exec.run_until_idle();
    let total = *elapsed.lock();
    total / ROUNDS
}

#[cfg(test)]
mod tests {
    use super::*;
    use spin_sal::SimBoard;

    fn exec() -> Arc<Executor> {
        let board = SimBoard::new();
        Executor::new(
            board.clock.clone(),
            board.timers.clone(),
            board.profile.clone(),
        )
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

    #[test]
    fn user_threads_cost_more_than_kernel_threads() {
        // Table 3's vertical structure: user-level operations are an order
        // of magnitude above kernel-thread operations.
        let e = exec();
        let user = measure_ping_pong(CThreadsImpl::Integrated, &e);
        assert!(user as f64 / 1000.0 > 30.0, "user ping-pong {user} ns");
    }
}
