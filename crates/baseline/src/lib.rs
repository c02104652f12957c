//! `spin-baseline` — the comparison operating systems of §5.
//!
//! The paper evaluates SPIN against two systems on identical hardware:
//! DEC OSF/1 V2.1 (monolithic) and Mach 3.0 (microkernel). This crate
//! provides **structural cost models** of both: every benchmark row is
//! composed from the same [`Cost`] primitives that SPIN's
//! simulated paths charge, plus a small set of per-system constants
//! (socket layer, mach_msg, signal delivery, external pager, mprotect)
//! documented at their definitions with the Table rows they calibrate to.
//!
//! The models exist so the who-wins/by-what-factor *shape* of Tables 2-6
//! and Figure 6 follows from system structure: OSF/1 pays user/kernel
//! boundary crossings, data copies and signal upcalls; Mach pays message
//! and external-pager round trips; SPIN pays procedure calls.

#![forbid(unsafe_code)]

mod mach;
mod osf1;

pub use mach::MachModel;
pub use osf1::Osf1Model;

use spin_sal::{Cost, Nanos};

/// A full user→kernel→user round trip with a fixed dispatcher (the
/// conventional null system call, minus the work itself).
fn syscall_round_trip() -> Nanos {
    Cost::TrapEntry.ns() + Cost::FixedSyscallDispatch.ns() + Cost::TrapExit.ns()
}

/// Copying `n` bytes memory-to-memory.
fn copy(n: usize) -> Nanos {
    n as u64 * Cost::CopyByte.ns()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_three_way_ordering_of_table_2_holds() {
        let (osf1, mach) = (Osf1Model, MachModel);
        // Cross-address-space call: SPIN (89 µs) < Mach (104) << OSF/1 (845).
        let spin_xas = 89_000u64; // measured by spin_sched::measure_xas_call
        assert!(spin_xas < mach.cross_address_space_call());
        assert!(mach.cross_address_space_call() < osf1.cross_address_space_call() / 4);
        // System call: SPIN (4 µs) < OSF/1 (5) < Mach (7).
        assert!(osf1.null_syscall() < mach.null_syscall());
    }

    #[test]
    fn the_vm_ordering_of_table_4_holds() {
        let (osf1, mach) = (Osf1Model, MachModel);
        // Fault: SPIN (29 µs) << OSF/1 (329) < Mach (415).
        assert!(osf1.vm_fault() < mach.vm_fault());
        assert!(osf1.vm_fault() > 10 * 29_000);
        // Trap: Mach (185) < OSF/1 (260).
        assert!(mach.vm_trap() < osf1.vm_trap());
        // Prot100: OSF/1 (1041) < Mach (1792).
        assert!(osf1.vm_prot100() < mach.vm_prot100());
        // Unprot100: Mach's lazy path (302) < OSF/1 (1016).
        assert!(mach.vm_unprot100() < osf1.vm_unprot100());
    }
}
