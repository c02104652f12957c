//! Machine cost profile for the simulated DEC Alpha AXP 3000/400.
//!
//! The paper measured SPIN on 133 MHz Alpha workstations (74 SPECint 92,
//! 64 MB memory, 512 KB unified external cache, HP C2247-300 disk, 10 Mb/s
//! Lance Ethernet, FORE TCA-100 ATM). We express every primitive hardware
//! cost in virtual nanoseconds on that machine. Higher layers (the SPIN
//! kernel, and the OSF/1 and Mach baselines in `spin-baseline`) compose the
//! *same* primitives differently, so the comparisons in Tables 2-6 reflect
//! structural differences, not per-system fudge factors.
//!
//! Calibration sources, all from the paper itself:
//!
//! * protected in-kernel call: 0.13 µs (Table 2) — an inter-module call,
//! * SPIN null system call: 4 µs; OSF/1: 5 µs; Mach: 7 µs (Table 2),
//! * SPIN kernel-thread Ping-Pong: 17 µs (Table 3),
//! * usable ATM bandwidth is PIO-limited at roughly 53 Mb/s,
//! * the minimum round trip is "roughly 250 µs on Ethernet and 100 µs on
//!   ATM" (§5.3), which bounds wire plus interrupt costs.

/// Nanoseconds per CPU cycle at 133 MHz.
const CYCLE_NS: f64 = 7.52;

/// Converts a cycle count to virtual nanoseconds on the 133 MHz Alpha.
#[inline]
pub fn cycles(n: u64) -> u64 {
    (n as f64 * CYCLE_NS) as u64
}

/// Primitive hardware and compiler costs, in virtual nanoseconds.
///
/// All simulated work is charged through one of these fields; the profile is
/// therefore the single calibration point of the reproduction. See the
/// module documentation for the sources of each value.
#[derive(Debug, Clone)]
pub struct MachineProfile {
    /// A call across a module/interface boundary. The paper notes its
    /// Modula-3 compiler made these "roughly twice as slow" as intra-module
    /// calls; this is also the cost of a protected in-kernel call (0.13 µs).
    pub inter_module_call: u64,
    /// Entering the kernel on a trap (mode switch, register save, PAL code).
    pub trap_entry: u64,
    /// Returning from the kernel to user mode.
    pub trap_exit: u64,
    /// A fixed, table-driven system-call dispatch (the OSF/1 and Mach path
    /// from trap handler to the C system-call routine).
    pub fixed_syscall_dispatch: u64,
    /// Saving one processor context and loading another (registers + stack).
    pub context_switch: u64,
    /// One scheduling decision (queue manipulation + policy).
    pub sched_decision: u64,
    /// Synchronization primitive (lock/unlock or signal) on this CPU.
    pub sync_op: u64,
    /// Creating a kernel thread context (stack carve-out, queue insert).
    pub thread_create: u64,
    /// Switching address spaces (ASN change plus the cache/TLB disturbance
    /// it causes on this machine). Dominates cross-address-space calls.
    pub as_switch: u64,
    /// Setting up a user-level thread context (stack, descriptor).
    pub user_thread_setup: u64,
    /// Filling one TLB entry after a miss (software miss handler).
    pub tlb_fill: u64,
    /// Installing, removing or changing one page-table entry.
    pub pte_update: u64,
    /// Invalidating one TLB entry.
    pub tlb_invalidate: u64,
    /// One pmap-level page operation beyond the raw PTE write (physical
    /// map lookup, attribute bookkeeping). Calibrated to Table 4's SPIN
    /// Prot100 (213 µs ⇒ ~2 µs/page inclusive).
    pub pmap_op: u64,
    /// Fixed per-call work of a VM service operation reached from an
    /// application-specific syscall (capability validation, region
    /// lookup). Calibrated to Table 4's SPIN Prot1 (16 µs).
    pub vm_call_fixed: u64,
    /// Saving fault state before dispatching a translation-fault event
    /// (registers, fault address bookkeeping).
    pub vm_fault_save: u64,
    /// Copying one byte memory-to-memory (~33 MB/s for uncached streaming
    /// data on this machine's 512 KB external cache).
    pub copy_per_byte_ns_x100: u64,
    /// Moving one byte over programmed I/O (word-at-a-time to the FORE card;
    /// limits usable ATM bandwidth to ~53 Mb/s).
    pub pio_per_byte_ns_x100: u64,
    /// Setting up one DMA transfer (descriptor write + doorbell).
    pub dma_setup: u64,
    /// Fielding one device interrupt (dispatch to the handler, EOI).
    pub interrupt_overhead: u64,
    /// Disk: average seek time.
    pub disk_seek: u64,
    /// Disk: average rotational delay (5400 RPM class).
    pub disk_rotation: u64,
    /// Disk: transfer of one 8 KB block at ~4 MB/s.
    pub disk_block_transfer: u64,
    /// Dispatcher: fixed cost of an event raise that cannot use the
    /// direct-call fast path (handler list lookup).
    pub event_raise_base: u64,
    /// Dispatcher: evaluating one guard predicate.
    pub guard_eval: u64,
    /// Dispatcher: invoking one handler (on top of the call itself).
    pub handler_invoke: u64,
    /// One-way latency of a cross-core call (inter-processor interrupt +
    /// mailbox write). Also the conservative-PDES lookahead floor: no
    /// cross-shard effect lands sooner than this.
    pub xcall_latency: u64,
}

impl MachineProfile {
    /// The paper's testbed: a DEC Alpha AXP 3000/400 at 133 MHz.
    pub fn alpha_axp_3000_400() -> Self {
        MachineProfile {
            inter_module_call: 130, // 0.13 µs (Table 2)
            trap_entry: 1_700,
            trap_exit: 1_700,
            fixed_syscall_dispatch: 1_600, // OSF/1: 5 µs total syscall
            context_switch: 5_200,
            sched_decision: 900,
            sync_op: 650,
            thread_create: 6_000,
            as_switch: 34_000,
            user_thread_setup: 45_000,
            tlb_fill: 400,
            pte_update: 500,
            tlb_invalidate: 300,
            pmap_op: 1_200,
            vm_call_fixed: 9_000,
            vm_fault_save: 2_500,
            copy_per_byte_ns_x100: 3_000, // 30 ns/byte ≈ 33 MB/s streaming
            pio_per_byte_ns_x100: 15_000, // 150 ns/byte ≈ 53 Mb/s cap
            dma_setup: 2_000,
            interrupt_overhead: 4_000,
            disk_seek: 10_000_000,
            disk_rotation: 5_500_000,
            disk_block_transfer: 2_000_000, // 8 KB at ~4 MB/s
            event_raise_base: 260,
            guard_eval: 290,
            handler_invoke: 190,
            xcall_latency: 2_000,
        }
    }

    /// Cost of copying `n` bytes memory-to-memory.
    #[inline]
    pub fn copy(&self, n: usize) -> u64 {
        (n as u64 * self.copy_per_byte_ns_x100) / 100
    }

    /// CPU cost of pushing `n` bytes through programmed I/O.
    #[inline]
    pub(crate) fn pio(&self, n: usize) -> u64 {
        (n as u64 * self.pio_per_byte_ns_x100) / 100
    }

    /// Cost of a full user→kernel→user round trip with a fixed dispatcher
    /// (the conventional null system call, minus the work itself).
    #[inline]
    pub fn syscall_round_trip(&self) -> u64 {
        self.trap_entry + self.fixed_syscall_dispatch + self.trap_exit
    }
}

impl Default for MachineProfile {
    fn default() -> Self {
        Self::alpha_axp_3000_400()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_conversion_matches_clock_rate() {
        // 133 MHz => 133 cycles per microsecond.
        assert_eq!(cycles(133), 1000);
    }

    #[test]
    fn in_kernel_call_is_paper_value() {
        let p = MachineProfile::alpha_axp_3000_400();
        // Table 2: protected in-kernel call is 0.13 µs.
        assert_eq!(p.inter_module_call, 130);
    }

    #[test]
    fn osf1_syscall_near_five_microseconds() {
        let p = MachineProfile::alpha_axp_3000_400();
        let us = p.syscall_round_trip() as f64 / 1000.0;
        assert!((4.5..5.5).contains(&us), "got {us} µs");
    }

    #[test]
    fn pio_throughput_is_pio_limited() {
        let p = MachineProfile::alpha_axp_3000_400();
        // 150 ns/byte ≈ 6.7 MB/s ≈ 53 Mb/s, the paper's usable ATM cap.
        let mbps = 8.0 * 1e9 / (p.pio(1_000_000) as f64);
        assert!((48.0..58.0).contains(&mbps), "got {mbps} Mb/s");
    }

    #[test]
    fn copy_cost_scales_linearly() {
        let p = MachineProfile::alpha_axp_3000_400();
        assert_eq!(p.copy(0), 0);
        assert_eq!(p.copy(200), 2 * p.copy(100));
    }
}
