//! The Mach 3.0 comparison system: a structural cost model.
//!
//! Mach is "a microkernel": services live in user space behind ports and
//! messages, virtual memory is extended through the external pager
//! interface, and cross-address-space RPC takes the optimized
//! message path of \[Draves 94\]. As with the OSF/1 model, rows are
//! *composed* from the shared [`MachineProfile`] primitives plus
//! Mach-specific structural constants.

use spin_sal::{MachineProfile, Nanos};
use std::sync::Arc;

/// Mach-specific structural constants (nanoseconds).
mod c {
    /// One optimized mach_msg send+receive hand-off (port rights checks,
    /// message header processing) beyond the raw crossing. Calibrated to
    /// Table 2's 104 µs cross-address-space call.
    pub(super) const MACH_MSG: u64 = 14_000;
    /// Mach's syscall path is slightly longer than OSF/1's (7 vs 5 µs).
    pub(super) const SYSCALL_EXTRA: u64 = 2_000;
    /// Kernel thread creation (lighter than OSF/1's: 101 µs Fork-Join).
    pub(super) const KTHREAD_CREATE: u64 = 75_000;
    /// C-Threads library descriptor setup.
    pub(super) const CTHREAD_CREATE_EXTRA: u64 = 180_000;
    /// One round trip through the external pager interface: the kernel
    /// builds a memory_object request message, the user pager replies.
    /// Calibrated to Table 4's Fault of 415 µs.
    pub(super) const PAGER_ROUND_TRIP: u64 = 190_000;
    /// Fault-to-handler delivery via the exception port (Trap: 185 µs).
    pub(super) const EXCEPTION_MSG: u64 = 165_000;
    /// vm_protect fixed cost.
    pub(super) const VM_PROTECT_BASE: u64 = 90_000;
    /// vm_protect per-page cost (Prot100: 1792 µs ⇒ ~17 µs/page).
    pub(super) const VM_PROTECT_PER_PAGE: u64 = 17_000;
    /// Lazy unprotection: Mach defers the pmap update, so Unprot100 costs
    /// a base plus a small per-page bookkeeping charge (302 µs).
    pub(super) const VM_UNPROTECT_PER_PAGE: u64 = 2_000;
}

/// The Mach 3.0 model over a machine profile.
#[derive(Clone)]
pub struct MachModel {
    p: Arc<MachineProfile>,
}

impl MachModel {
    /// Builds the model.
    pub fn new(profile: Arc<MachineProfile>) -> MachModel {
        MachModel { p: profile }
    }

    // ---- Table 2 ----

    /// The null system call (≈7 µs).
    pub fn null_syscall(&self) -> Nanos {
        self.p.syscall_round_trip() + c::SYSCALL_EXTRA
    }

    /// Cross-address-space call via optimized messages (≈104 µs): a
    /// mach_msg send, a hand-off switch with AS change, and the reply.
    pub fn cross_address_space_call(&self) -> Nanos {
        let p = &self.p;
        let one_way = p.trap_entry
            + c::MACH_MSG
            + p.sched_decision
            + p.context_switch
            + p.as_switch
            + p.trap_exit;
        2 * one_way
    }

    // ---- Table 3 ----

    /// Kernel-thread Fork-Join (≈101 µs).
    pub fn kernel_fork_join(&self) -> Nanos {
        let p = &self.p;
        c::KTHREAD_CREATE + 2 * (p.sched_decision + p.context_switch) + 2 * p.sync_op
    }

    /// Kernel-thread Ping-Pong (≈71 µs): each direction is a kernel entry,
    /// a message hand-off into the scheduler and a reply-port message.
    pub fn kernel_ping_pong(&self) -> Nanos {
        let p = &self.p;
        2 * (p.trap_entry
            + p.trap_exit
            + 2 * c::MACH_MSG
            + p.sync_op
            + p.sched_decision
            + p.context_switch)
    }

    /// C-Threads user Fork-Join (≈338 µs).
    pub fn user_fork_join(&self) -> Nanos {
        self.kernel_fork_join()
            + c::CTHREAD_CREATE_EXTRA
            + self.p.user_thread_setup
            + 2 * self.null_syscall()
    }

    /// C-Threads user Ping-Pong (≈115 µs): contended operations trap into
    /// the kernel.
    pub fn user_ping_pong(&self) -> Nanos {
        self.kernel_ping_pong() + 2 * self.null_syscall()
    }

    // ---- Table 4 (external pager interface) ----

    /// Trap (≈185 µs): exception message to the handler.
    pub fn vm_trap(&self) -> Nanos {
        self.p.trap_entry + self.p.tlb_fill + c::EXCEPTION_MSG
    }

    /// Fault (≈415 µs): exception message plus an external-pager round
    /// trip to resolve, then resume.
    pub fn vm_fault(&self) -> Nanos {
        self.vm_trap()
            + c::PAGER_ROUND_TRIP
            + self.p.context_switch
            + self.p.trap_exit
            + self.p.tlb_fill
    }

    /// Prot1 (≈106 µs): vm_protect through a message interface.
    pub fn vm_prot1(&self) -> Nanos {
        self.null_syscall() + c::VM_PROTECT_BASE + c::VM_PROTECT_PER_PAGE
    }

    /// Prot100 (≈1792 µs).
    pub fn vm_prot100(&self) -> Nanos {
        self.null_syscall() + c::VM_PROTECT_BASE + 100 * c::VM_PROTECT_PER_PAGE
    }

    /// Unprot100 (≈302 µs): "Mach's unprotection is faster than
    /// protection since the operation is performed lazily."
    pub fn vm_unprot100(&self) -> Nanos {
        self.null_syscall() + c::VM_PROTECT_BASE + 100 * c::VM_UNPROTECT_PER_PAGE
    }

    /// Appel1 (≈819 µs): fault resolution through the pager plus two
    /// protection changes.
    pub fn vm_appel1(&self) -> Nanos {
        self.vm_fault() + c::PAGER_ROUND_TRIP + self.vm_prot1() + c::VM_PROTECT_PER_PAGE
    }

    /// Appel2 per page (≈608 µs): protect batched, but every fault takes
    /// the exception message plus a full pager round trip.
    pub fn vm_appel2(&self) -> Nanos {
        self.vm_prot100() / 100 + self.vm_fault() + c::PAGER_ROUND_TRIP
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> MachModel {
        MachModel::new(Arc::new(MachineProfile::alpha_axp_3000_400()))
    }

    fn us(ns: Nanos) -> f64 {
        ns as f64 / 1000.0
    }

    #[test]
    fn table_2_rows_are_in_band() {
        let m = model();
        let sc = us(m.null_syscall());
        assert!((6.0..8.5).contains(&sc), "syscall {sc}");
        let xas = us(m.cross_address_space_call());
        // Paper: 104 µs; must land between SPIN (89) and OSF/1 (845).
        assert!((90.0..140.0).contains(&xas), "xas {xas}");
    }

    #[test]
    fn table_3_rows_are_in_band() {
        let m = model();
        assert!((80.0..130.0).contains(&us(m.kernel_fork_join())));
        assert!((50.0..95.0).contains(&us(m.kernel_ping_pong())));
        assert!((250.0..450.0).contains(&us(m.user_fork_join())));
        assert!((85.0..160.0).contains(&us(m.user_ping_pong())));
    }

    #[test]
    fn table_4_rows_are_in_band() {
        let m = model();
        assert!(
            (150.0..230.0).contains(&us(m.vm_trap())),
            "trap {}",
            us(m.vm_trap())
        );
        assert!(
            (350.0..500.0).contains(&us(m.vm_fault())),
            "fault {}",
            us(m.vm_fault())
        );
        assert!(
            (90.0..130.0).contains(&us(m.vm_prot1())),
            "prot1 {}",
            us(m.vm_prot1())
        );
        assert!(
            (1500.0..2100.0).contains(&us(m.vm_prot100())),
            "prot100 {}",
            us(m.vm_prot100())
        );
        assert!(
            (250.0..400.0).contains(&us(m.vm_unprot100())),
            "unprot {}",
            us(m.vm_unprot100())
        );
        assert!(
            (650.0..1000.0).contains(&us(m.vm_appel1())),
            "appel1 {}",
            us(m.vm_appel1())
        );
        assert!(
            (480.0..780.0).contains(&us(m.vm_appel2())),
            "appel2 {}",
            us(m.vm_appel2())
        );
    }

    #[test]
    fn machs_lazy_unprotect_beats_its_protect() {
        let m = model();
        assert!(
            m.vm_unprot100() * 3 < m.vm_prot100(),
            "lazy unprotection must be far cheaper"
        );
    }
}
