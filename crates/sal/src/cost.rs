//! The cost table of the simulated DEC Alpha AXP 3000/400.
//!
//! The paper measured SPIN on 133 MHz Alpha workstations (74 SPECint 92,
//! 64 MB memory, 512 KB unified external cache, HP C2247-300 disk, 10 Mb/s
//! Lance Ethernet, FORE TCA-100 ATM). We express every primitive hardware
//! cost in virtual nanoseconds on that machine. Higher layers (the SPIN
//! kernel, and the OSF/1 and Mach baselines in `spin-baseline`) compose the
//! *same* primitives differently, so the comparisons in Tables 2-6 reflect
//! structural differences, not per-system fudge factors.
//!
//! There is one machine, so the table is a constant: [`Cost::ns`] is a
//! `const fn`, and every charge names its kind
//! ([`Clock::charge`](crate::Clock::charge)).
//!
//! Calibration sources, all from the paper itself:
//!
//! * protected in-kernel call: 0.13 µs (Table 2) — an inter-module call,
//! * SPIN null system call: 4 µs; OSF/1: 5 µs; Mach: 7 µs (Table 2),
//! * SPIN kernel-thread Ping-Pong: 17 µs (Table 3),
//! * usable ATM bandwidth is PIO-limited at roughly 53 Mb/s,
//! * the minimum round trip is "roughly 250 µs on Ethernet and 100 µs on
//!   ATM" (§5.3), which bounds wire plus interrupt costs.

use crate::clock::Nanos;

/// One kind of virtual time: a calibrated primitive of the machine, a
/// fitted cost, or an amount its charge names.
///
/// [`Cost::ns`] is the price of one unit. A calibrated primitive's unit
/// is one occurrence, except [`Cost::CopyByte`] and [`Cost::PioByte`],
/// whose unit is a byte. A kind whose amount its charge names
/// ([`Cost::NicDriver`], [`Cost::Work`], [`Cost::Injected`],
/// [`Cost::Penalty`]) is priced at 1 ns per unit, so its count is the
/// nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Cost {
    /// A call across a module/interface boundary. The paper notes its
    /// Modula-3 compiler made these "roughly twice as slow" as intra-module
    /// calls; this is also the cost of a protected in-kernel call (0.13 µs).
    InterModuleCall,
    /// Entering the kernel on a trap (mode switch, register save, PAL code).
    /// Came with the seed. With `TrapExit` and `FixedSyscallDispatch` it is
    /// OSF/1's 5 µs null system call (Table 2); with `TrapExit` and the
    /// four dispatcher kinds, SPIN's 4.27 µs (Table 2: 4). No row fixes
    /// the split between entry and exit.
    TrapEntry,
    /// Returning from the kernel to user mode. Came with the seed; the
    /// other half of [`Cost::TrapEntry`]'s Table 2 sums.
    TrapExit,
    /// A fixed, table-driven system-call dispatch (the OSF/1 and Mach path
    /// from trap handler to the C system-call routine).
    FixedSyscallDispatch,
    /// Saving one processor context and loading another (registers + stack).
    /// Came with the seed; with `SchedDecision` and `SyncOp` calibrated to
    /// Table 3's SPIN kernel Ping-Pong, 17 µs: a round pays about 2, 2 and
    /// 12 of them (19.7 µs). No row fixes the split among the three.
    ContextSwitch,
    /// One scheduling decision (queue manipulation + policy). Came with the
    /// seed; see [`Cost::ContextSwitch`].
    SchedDecision,
    /// Synchronization primitive (lock/unlock or signal) on this CPU. Came
    /// with the seed; see [`Cost::ContextSwitch`].
    SyncOp,
    /// Creating a kernel thread context (stack carve-out, queue insert).
    /// Came with the seed; no row fixes it alone. With 2 switches, 2
    /// decisions and 1 sync op it is SPIN kernel Fork-Join, 18.85 µs
    /// (Table 3: 22).
    ThreadCreate,
    /// Switching address spaces (ASN change plus the cache/TLB disturbance
    /// it causes on this machine). Dominates cross-address-space calls.
    AsSwitch,
    /// Setting up a user-level thread context (stack, descriptor). Came
    /// with the seed; no row traces it. It is 45 of integrated C-Threads
    /// Fork-Join's 102.39 µs (Table 3: 111), 90 of layered's 220.93 (262).
    UserThreadSetup,
    /// Filling one TLB entry after a miss (software miss handler).
    TlbFill,
    /// Installing, removing or changing one page-table entry.
    PteUpdate,
    /// Invalidating one TLB entry.
    TlbInvalidate,
    /// One pmap-level page operation beyond the raw PTE write (physical
    /// map lookup, attribute bookkeeping). Calibrated to Table 4's SPIN
    /// Prot100 (213 µs ⇒ ~2 µs/page inclusive).
    PmapOp,
    /// Fixed per-call work of a VM service operation reached from an
    /// application-specific syscall (capability validation, region
    /// lookup). Calibrated to Table 4's SPIN Prot1 (16 µs).
    VmCallFixed,
    /// Saving fault state before dispatching a translation-fault event
    /// (registers, fault address bookkeeping).
    VmFaultSave,
    /// Copying one byte memory-to-memory (~33 MB/s for uncached streaming
    /// data on this machine's 512 KB external cache).
    CopyByte,
    /// Moving one byte over programmed I/O (word-at-a-time to the FORE card;
    /// limits usable ATM bandwidth to ~53 Mb/s).
    PioByte,
    /// Setting up one DMA transfer (descriptor write + doorbell).
    DmaSetup,
    /// Fielding one device interrupt (dispatch to the handler, EOI).
    InterruptOverhead,
    /// Disk: average seek time.
    DiskSeek,
    /// Disk: average rotational delay (5400 RPM class).
    DiskRotation,
    /// Disk: transfer of one 8 KB block at ~4 MB/s.
    DiskBlockTransfer,
    /// Dispatcher: fixed cost of an event raise that cannot use the
    /// direct-call fast path (handler list lookup). Came with the seed; no
    /// row fixes it alone: one of the six kinds of SPIN's Table 2 system
    /// call (see [`Cost::TrapEntry`]).
    EventRaiseBase,
    /// Dispatcher: evaluating one guard predicate. Came with the seed; a
    /// Table 2 system-call kind. 50 false guards add 14.5 µs to §5.5's
    /// round trip (paper: 20 µs, 565 → 585).
    GuardEval,
    /// Dispatcher: invoking one handler (on top of the call itself). Came
    /// with the seed; a Table 2 system-call kind. 50 true guards add 50 of
    /// it and of `InterModuleCall`, 16 µs, to §5.5's round trip (paper:
    /// 52 µs, 585 → 637).
    HandlerInvoke,
    /// One-way latency of a cross-core call (inter-processor interrupt +
    /// mailbox write). Also the conservative-PDES lookahead floor: no
    /// cross-shard effect lands sooner than this.
    XcallLatency,
    /// Fitted, not calibrated: no paper row names it. The user-level
    /// descriptor bookkeeping an integrated C-Threads operation pays on
    /// top of its system-call crossing, fitted so Table 3's integrated
    /// rows land near the paper's.
    CThreadsIntegratedOp,
    /// Fitted, not calibrated: no paper row names it. What a layered
    /// C-Threads operation pays on top of its two crossings: 25 µs of
    /// library bookkeeping plus half a [`Cost::UserThreadSetup`], fitted
    /// so Table 3's layered rows land near the paper's.
    CThreadsLayeredOp,
    /// A NIC driver's per-frame work; the amount is the adapter model's
    /// (`NicModel`), in ns.
    NicDriver,
    /// Not calibrated: a workload's own compute, in ns.
    Work,
    /// Not calibrated: a fault plan's injected delay, in ns.
    Injected,
    /// Not calibrated: quota backpressure, in ns.
    Penalty,
}

impl Cost {
    /// The price of one unit of this kind, in virtual ns.
    pub const fn ns(self) -> Nanos {
        match self {
            Cost::InterModuleCall => 130, // 0.13 µs (Table 2)
            Cost::TrapEntry => 1_700,
            Cost::TrapExit => 1_700,
            Cost::FixedSyscallDispatch => 1_600, // OSF/1: 5 µs total syscall
            Cost::ContextSwitch => 5_200,
            Cost::SchedDecision => 900,
            Cost::SyncOp => 650,
            Cost::ThreadCreate => 6_000,
            Cost::AsSwitch => 34_000,
            Cost::UserThreadSetup => 45_000,
            Cost::TlbFill => 400,
            Cost::PteUpdate => 500,
            Cost::TlbInvalidate => 300,
            Cost::PmapOp => 1_200,
            Cost::VmCallFixed => 9_000,
            Cost::VmFaultSave => 2_500,
            Cost::CopyByte => 30, // ≈ 33 MB/s streaming
            Cost::PioByte => 150, // ≈ 53 Mb/s cap
            Cost::DmaSetup => 2_000,
            Cost::InterruptOverhead => 4_000,
            Cost::DiskSeek => 10_000_000,
            Cost::DiskRotation => 5_500_000,
            Cost::DiskBlockTransfer => 2_000_000, // 8 KB at ~4 MB/s
            Cost::EventRaiseBase => 260,
            Cost::GuardEval => 290,
            Cost::HandlerInvoke => 190,
            Cost::XcallLatency => 2_000,
            Cost::CThreadsIntegratedOp => 15_000,
            Cost::CThreadsLayeredOp => 25_000 + Cost::UserThreadSetup.ns() / 2,
            Cost::NicDriver | Cost::Work | Cost::Injected | Cost::Penalty => 1,
        }
    }
}

/// Retired: the machine is [`Cost`]'s constant table, and this zero-sized
/// value carries nothing. It stays only because the wall-clock benchmark
/// package (`perf/`) still names it; porting that package to `Cost`
/// deletes it.
#[derive(Debug, Clone, Copy)]
pub struct MachineProfile;

impl MachineProfile {
    /// The paper's testbed, a DEC Alpha AXP 3000/400 at 133 MHz — the only
    /// machine there is. Porting `perf/` to `Cost` deletes this.
    pub fn alpha_axp_3000_400() -> Self {
        MachineProfile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every variant, in declaration order.
    const ALL: [Cost; 33] = [
        Cost::InterModuleCall,
        Cost::TrapEntry,
        Cost::TrapExit,
        Cost::FixedSyscallDispatch,
        Cost::ContextSwitch,
        Cost::SchedDecision,
        Cost::SyncOp,
        Cost::ThreadCreate,
        Cost::AsSwitch,
        Cost::UserThreadSetup,
        Cost::TlbFill,
        Cost::PteUpdate,
        Cost::TlbInvalidate,
        Cost::PmapOp,
        Cost::VmCallFixed,
        Cost::VmFaultSave,
        Cost::CopyByte,
        Cost::PioByte,
        Cost::DmaSetup,
        Cost::InterruptOverhead,
        Cost::DiskSeek,
        Cost::DiskRotation,
        Cost::DiskBlockTransfer,
        Cost::EventRaiseBase,
        Cost::GuardEval,
        Cost::HandlerInvoke,
        Cost::XcallLatency,
        Cost::CThreadsIntegratedOp,
        Cost::CThreadsLayeredOp,
        Cost::NicDriver,
        Cost::Work,
        Cost::Injected,
        Cost::Penalty,
    ];

    /// Whether the charge, not the table, names the amount.
    fn named_by_charge(c: Cost) -> bool {
        matches!(
            c,
            Cost::NicDriver | Cost::Work | Cost::Injected | Cost::Penalty
        )
    }

    #[test]
    fn every_calibrated_cost_is_priced() {
        for (i, &c) in ALL.iter().enumerate() {
            assert_eq!(c as usize, i, "ALL lists {c:?} out of order");
            if named_by_charge(c) {
                assert_eq!(c.ns(), 1, "{c:?} is priced per ns");
            } else {
                assert!(c.ns() > 0, "{c:?} is free");
            }
        }
        assert_eq!(
            ALL.len(),
            Cost::Penalty as usize + 1,
            "a variant is missing"
        );
        assert_eq!(ALL.iter().filter(|&&c| !named_by_charge(c)).count(), 29);
    }

    #[test]
    fn in_kernel_call_is_paper_value() {
        // Table 2: protected in-kernel call is 0.13 µs.
        assert_eq!(Cost::InterModuleCall.ns(), 130);
    }

    #[test]
    fn osf1_syscall_near_five_microseconds() {
        let ns = Cost::TrapEntry.ns() + Cost::FixedSyscallDispatch.ns() + Cost::TrapExit.ns();
        let us = ns as f64 / 1000.0;
        assert!((4.5..5.5).contains(&us), "got {us} µs");
    }

    #[test]
    fn pio_throughput_is_pio_limited() {
        // 150 ns/byte ≈ 6.7 MB/s ≈ 53 Mb/s, the paper's usable ATM cap.
        let mbps = 8.0 * 1e9 / ((1_000_000 * Cost::PioByte.ns()) as f64);
        assert!((48.0..58.0).contains(&mbps), "got {mbps} Mb/s");
    }

    #[test]
    fn copy_cost_scales_linearly() {
        let copy = |n: u64| n * Cost::CopyByte.ns();
        assert_eq!(copy(0), 0);
        assert_eq!(copy(200), 2 * copy(100));
        // The per-byte price is the retired per-100-bytes figure, exactly.
        assert_eq!(copy(100), 3_000);
        assert_eq!(100 * Cost::PioByte.ns(), 15_000);
    }
}
