//! The DEC OSF/1 V2.1 comparison system: a structural cost model.
//!
//! The paper compares SPIN against "DEC OSF/1 V2.1 which is a monolithic
//! operating system" on identical hardware. We cannot run OSF/1; instead,
//! every comparison operation is *composed* from the same
//! [`Cost`] primitives the SPIN paths charge, plus a small set
//! of OSF/1-specific structural constants (documented inline with their
//! calibration source). The point of the model is that OSF/1's numbers
//! come from its *structure* — fixed syscall dispatch, user-level services
//! behind sockets, signal-based fault reflection, per-page mprotect — not
//! from per-row fudging.

use spin_sal::{Cost, Nanos};

/// OSF/1-specific structural constants (nanoseconds).
mod c {
    /// One traversal of the socket layer (buffer management, so_queue,
    /// selwakeup). Calibrated so the UDP RTT delta over SPIN matches
    /// Table 5 (789 vs 565 µs ⇒ ~56 µs per user-level crossing side).
    pub(super) const SOCKET_OP: u64 = 40_000;
    /// SUN RPC marshal/unmarshal per message (XDR encode + decode).
    pub(super) const SUNRPC_MARSHAL: u64 = 120_000;
    /// Wakeup of a blocked user process: scheduler + run-queue latency.
    pub(super) const PROC_WAKEUP: u64 = 12_000;
    /// OSF/1 kernel thread creation (kernel stack, proc glue); Table 3's
    /// Fork-Join of 198 µs is dominated by this.
    pub(super) const KTHREAD_CREATE: u64 = 165_000;
    /// P-threads user-level thread creation above kernel threads.
    pub(super) const PTHREAD_CREATE_EXTRA: u64 = 900_000;
    /// Delivering a UNIX signal to a user handler and returning
    /// (sigsave, upcall, sigreturn). Calibrated to Table 4's Trap row
    /// (260 µs from fault to handler).
    pub(super) const SIGNAL_UPCALL: u64 = 240_000;
    /// Fixed cost of an mprotect system call (argument validation, map
    /// lookup). Table 4 Prot1 is 45 µs.
    pub(super) const MPROTECT_BASE: u64 = 32_000;
    /// Per-page cost inside mprotect (pmap update). Table 4 Prot100:
    /// 1041 µs ⇒ ~10 µs/page.
    pub(super) const MPROTECT_PER_PAGE: u64 = 10_000;
}

/// The OSF/1 model over the machine's [`Cost`] table.
#[derive(Debug, Clone, Copy)]
pub struct Osf1Model;

impl Osf1Model {
    // ---- Table 2: protected communication ----

    /// The null system call: trap, fixed dispatcher, return (≈5 µs).
    pub fn null_syscall(&self) -> Nanos {
        crate::syscall_round_trip()
    }

    /// Cross-address-space call via "sockets and SUN RPC" (≈845 µs):
    /// each direction is a socket write (syscall + copy + socket layer +
    /// RPC marshal), a process wakeup with context and AS switch, and a
    /// socket read (syscall + socket layer + copy + unmarshal).
    pub fn cross_address_space_call(&self) -> Nanos {
        let one_way = crate::syscall_round_trip() // write(2)
            + c::SOCKET_OP
            + c::SUNRPC_MARSHAL
            + c::PROC_WAKEUP
            + Cost::SchedDecision.ns()
            + Cost::ContextSwitch.ns()
            + Cost::AsSwitch.ns()
            + crate::syscall_round_trip() // read(2) on the peer
            + c::SOCKET_OP
            + c::SUNRPC_MARSHAL;
        2 * one_way
    }

    // ---- Table 3: thread management ----

    /// Kernel-thread Fork-Join (≈198 µs): heavyweight creation plus the
    /// schedule/terminate/join switches.
    pub fn kernel_fork_join(&self) -> Nanos {
        c::KTHREAD_CREATE
            + 2 * (Cost::SchedDecision.ns() + Cost::ContextSwitch.ns())
            + 2 * Cost::SyncOp.ns()
            + c::PROC_WAKEUP
    }

    /// Kernel-thread Ping-Pong (≈21 µs): two sleep/wakeup switches.
    pub fn kernel_ping_pong(&self) -> Nanos {
        2 * (Cost::SyncOp.ns() + Cost::SchedDecision.ns() + Cost::ContextSwitch.ns())
            + 2 * Cost::SyncOp.ns() * 2
    }

    /// P-threads user Fork-Join (≈1230 µs): library descriptor setup over
    /// a kernel thread plus crossings for every operation.
    pub fn user_fork_join(&self) -> Nanos {
        self.kernel_fork_join()
            + c::PTHREAD_CREATE_EXTRA
            + 2 * Cost::UserThreadSetup.ns()
            + 4 * self.null_syscall()
    }

    /// P-threads user Ping-Pong (≈264 µs): each signal/block pair enters
    /// the kernel through the full syscall path.
    pub fn user_ping_pong(&self) -> Nanos {
        self.kernel_ping_pong() + 4 * self.null_syscall() + 4 * c::SOCKET_OP
    }

    // ---- Table 4: virtual memory (signals + mprotect) ----

    /// Trap: fault to user handler via signal delivery (≈260 µs).
    pub fn vm_trap(&self) -> Nanos {
        Cost::TrapEntry.ns() + Cost::TlbFill.ns() + c::SIGNAL_UPCALL
    }

    /// Fault: full perceived latency — signal out, mprotect in the
    /// handler, sigreturn and retry (≈329 µs).
    pub fn vm_fault(&self) -> Nanos {
        self.vm_trap() + self.vm_prot1() + Cost::TrapExit.ns() + Cost::TlbFill.ns()
    }

    /// Prot1: one mprotect call (≈45 µs).
    pub fn vm_prot1(&self) -> Nanos {
        self.null_syscall() + c::MPROTECT_BASE + c::MPROTECT_PER_PAGE
    }

    /// Prot100: one call, 100 pmap updates (≈1041 µs).
    pub fn vm_prot100(&self) -> Nanos {
        self.null_syscall() + c::MPROTECT_BASE + 100 * c::MPROTECT_PER_PAGE
    }

    /// Unprot100: OSF/1 does not evaluate protection lazily, so the cost
    /// mirrors Prot100 (≈1016 µs).
    pub fn vm_unprot100(&self) -> Nanos {
        self.vm_prot100()
    }

    /// Appel1: fault + resolve + protect another page (≈382 µs).
    pub fn vm_appel1(&self) -> Nanos {
        self.vm_fault() + c::MPROTECT_PER_PAGE + c::MPROTECT_BASE
    }

    /// Appel2 per page: amortized protect100 plus a fault and an
    /// unprotect per page (≈351 µs).
    pub fn vm_appel2(&self) -> Nanos {
        self.vm_prot100() / 100 + self.vm_fault() + c::MPROTECT_PER_PAGE
    }

    // ---- Table 5 / 6: networking deltas ----

    /// Extra CPU on the OSF/1 path per packet *endpoint operation* (a user
    /// process sending or receiving one packet of `len` bytes): syscall,
    /// socket layer, copy across the user/kernel boundary, wakeup.
    fn user_packet_overhead(&self, len: usize) -> Nanos {
        self.null_syscall() + c::SOCKET_OP + crate::copy(len) + c::PROC_WAKEUP
    }

    /// UDP round-trip latency as measured SPIN RTT plus four user-level
    /// endpoint operations (client send/recv + server recv/send).
    pub fn udp_round_trip(&self, spin_rtt: Nanos, payload: usize) -> Nanos {
        spin_rtt + 4 * self.user_packet_overhead(payload)
    }

    /// Receive bandwidth: the receiver additionally crosses the boundary
    /// per packet and copies into user space; streaming copies pipeline
    /// with the card's PIO, so a quarter of the copy shows as added
    /// critical-path time.
    pub fn receive_bandwidth_mbps(&self, spin_mbps: f64, packet: usize) -> f64 {
        let spin_per_packet_ns = packet as f64 * 8.0 * 1e3 / spin_mbps;
        let extra =
            (self.null_syscall() + c::SOCKET_OP + crate::copy(packet) / 4 + c::PROC_WAKEUP) as f64;
        let osf_per_packet_ns = spin_per_packet_ns + extra;
        packet as f64 * 8.0 * 1e3 / osf_per_packet_ns
    }

    /// Table 6: the user-level forwarder adds, per one-way trip, two full
    /// socket traversals (in and out), two copies and a process wakeup on
    /// the forwarding host — and it runs above the transport, so control
    /// packets take the same path.
    pub fn forwarder_round_trip(&self, spin_forward_rtt: Nanos, payload: usize) -> Nanos {
        spin_forward_rtt + 4 * self.user_packet_overhead(payload)
    }

    // ---- §5.4: end-to-end applications ----

    /// Video server: CPU to read one frame — read(2) plus the copy from
    /// the page cache to user space (per frame, shared across clients).
    pub fn video_read_cpu(&self, frame_bytes: usize) -> Nanos {
        self.null_syscall() + crate::copy(frame_bytes)
    }

    /// Video server: CPU to send one packet to one client — send(2), the
    /// copy across the user/kernel boundary, the socket layer, and the
    /// same device driver SPIN uses (no in-kernel splice, no multicast
    /// fan-out sharing).
    pub fn video_send_cpu(&self, packet_bytes: usize, driver_ns: Nanos) -> Nanos {
        self.null_syscall()
            + crate::copy(packet_bytes)
            + c::SOCKET_OP
            + driver_ns
            + Cost::DmaSetup.ns()
    }

    /// Web server request latency: the paper reports "about 8 ms per
    /// request for the same cached file" for a user-level server on the
    /// caching file system: connection handling plus two boundary
    /// crossings with copies on top of SPIN's ~5 ms in-kernel time.
    pub fn web_request(&self, spin_request: Nanos, body: usize) -> Nanos {
        spin_request + 2 * self.user_packet_overhead(body) + 2 * c::SOCKET_OP + c::SUNRPC_MARSHAL
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> Osf1Model {
        Osf1Model
    }

    fn us(ns: Nanos) -> f64 {
        ns as f64 / 1000.0
    }

    #[test]
    fn table_2_rows_are_in_band() {
        let m = model();
        assert!(
            (4.0..6.0).contains(&us(m.null_syscall())),
            "syscall {}",
            us(m.null_syscall())
        );
        let xas = us(m.cross_address_space_call());
        // Paper: 845 µs.
        assert!((600.0..1100.0).contains(&xas), "xas {xas}");
    }

    #[test]
    fn table_3_rows_are_in_band() {
        let m = model();
        let fj = us(m.kernel_fork_join());
        assert!((150.0..250.0).contains(&fj), "kernel fork-join {fj}");
        let pp = us(m.kernel_ping_pong());
        assert!((14.0..30.0).contains(&pp), "kernel ping-pong {pp}");
        let ufj = us(m.user_fork_join());
        assert!((900.0..1500.0).contains(&ufj), "user fork-join {ufj}");
        let upp = us(m.user_ping_pong());
        assert!((150.0..400.0).contains(&upp), "user ping-pong {upp}");
    }

    #[test]
    fn table_4_rows_are_in_band() {
        let m = model();
        assert!(
            (200.0..320.0).contains(&us(m.vm_trap())),
            "trap {}",
            us(m.vm_trap())
        );
        assert!(
            (280.0..420.0).contains(&us(m.vm_fault())),
            "fault {}",
            us(m.vm_fault())
        );
        assert!(
            (38.0..60.0).contains(&us(m.vm_prot1())),
            "prot1 {}",
            us(m.vm_prot1())
        );
        assert!(
            (900.0..1250.0).contains(&us(m.vm_prot100())),
            "prot100 {}",
            us(m.vm_prot100())
        );
        assert!(
            (300.0..480.0).contains(&us(m.vm_appel1())),
            "appel1 {}",
            us(m.vm_appel1())
        );
        assert!(
            (280.0..450.0).contains(&us(m.vm_appel2())),
            "appel2 {}",
            us(m.vm_appel2())
        );
    }

    #[test]
    fn osf1_is_consistently_slower_than_spin_reference_points() {
        let m = model();
        // Table 2: SPIN syscall 4 µs, protected in-kernel call 0.13 µs.
        assert!(m.null_syscall() > 4_000);
        assert!(m.cross_address_space_call() > 89_000, "SPIN xas is 89 µs");
        // Table 5 shape: OSF/1 Ethernet RTT exceeds SPIN's by ~200+ µs.
        let delta = m.udp_round_trip(565_000, 16) - 565_000;
        assert!((150_000..350_000).contains(&delta), "RTT delta {delta}");
    }

    #[test]
    fn receive_bandwidth_drops_below_spin() {
        let m = model();
        let osf = m.receive_bandwidth_mbps(33.0, 8132);
        assert!(osf < 33.0);
        assert!((24.0..32.0).contains(&osf), "OSF/1 ATM bandwidth {osf}");
    }
}
