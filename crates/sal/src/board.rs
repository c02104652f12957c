//! Assembling the simulated testbed: a board (the media and the machine
//! profile) and hosts (CPU-local hardware).
//!
//! The paper's experiments run on one or two DEC Alpha workstations joined
//! by Ethernet and ATM. There are two boards and one way to build a host.
//! On a [`SimBoard`] every host shares the board's clock and timer queue —
//! one virtual timeline, which is what Tables 2/5/6 are calibrated on — and
//! frames arrive as timers. On a [`MulticoreBoard`] every host is a shard
//! with a clock, a timer queue and a [`Mailbox`] of its own, and frames
//! arrive as mail. That [`Timeline`] is all the two `new_host`s differ in;
//! the workstation around it comes from one builder.

use crate::clock::{Clock, Nanos, TimerQueue};
use crate::cost::MachineProfile;
use crate::devices::console::Console;
use crate::devices::disk::{Disk, DiskGeometry};
use crate::devices::nic::{Nic, NicModel};
use crate::irq::IrqController;
use crate::mailbox::{lanes, Mailbox};
use crate::mem::PhysMem;
use crate::mmu::Mmu;
use crate::wire::{Receiver, Sink, Wire, WireEndpoint};
use spin_check::sync::Mutex;
use std::sync::Arc;

/// Identifier of a simulated host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub u32);

/// Well-known interrupt vectors, mirroring a fixed motherboard wiring.
pub mod vectors {
    use crate::irq::IrqVector;

    pub const DISK: IrqVector = IrqVector(1);
    pub const ETHERNET: IrqVector = IrqVector(2);
    pub const ATM: IrqVector = IrqVector(3);
    pub const T3: IrqVector = IrqVector(4);
    pub const TIMER: IrqVector = IrqVector(5);
}

/// The three media of a board. One-way latency is dominated by the
/// switch/segment, a few µs.
fn media() -> (Wire, Wire, Wire) {
    (
        Wire::new(5_000, lanes::ETHERNET_BASE),
        Wire::new(3_000, lanes::ATM_BASE),
        Wire::new(3_000, lanes::T3_BASE),
    )
}

/// Whose time a new host runs on, and how frames reach it.
struct Timeline {
    clock: Clock,
    timers: TimerQueue,
    mailbox: Mailbox,
    sink: Sink,
}

/// Builds a complete workstation on `on`, attached to all three media.
/// Wire addresses are deterministic: host *i* gets endpoint *i* on every
/// medium.
fn build_host(
    profile: &Arc<MachineProfile>,
    media: [&Wire; 3],
    next_host: &Mutex<u32>,
    memory_frames: usize,
    on: Timeline,
) -> Host {
    let id = {
        let mut n = next_host.lock();
        let id = HostId(*n);
        *n += 1;
        id
    };
    let irqs = IrqController::new(on.clock.clone(), profile.clone());
    let nic = |model: NicModel, wire: &Wire, vector| {
        let port = Receiver {
            nic: Arc::default(),
            irqs: irqs.clone(),
            vector,
            clock: on.clock.clone(),
            sink: on.sink.clone(),
        };
        Nic::new(
            model,
            WireEndpoint(id.0),
            wire.clone(),
            profile.clone(),
            port,
        )
    };
    let [ethernet, atm, t3] = media;
    Host {
        id,
        mem: PhysMem::new(memory_frames),
        mmu: Mmu::new(on.clock.clone(), profile.clone()),
        console: Console::new(on.clock.clone(), profile.clone()),
        disk: Disk::new(
            DiskGeometry::default(),
            on.clock.clone(),
            on.timers.clone(),
            irqs.clone(),
            vectors::DISK,
            profile.clone(),
        ),
        ethernet: nic(NicModel::lance_ethernet(), ethernet, vectors::ETHERNET),
        atm: nic(NicModel::fore_atm(), atm, vectors::ATM),
        t3: nic(NicModel::t3_dma(), t3, vectors::T3),
        irqs,
        clock: on.clock,
        timers: on.timers,
        profile: profile.clone(),
        mailbox: on.mailbox,
    }
}

/// The shared simulation backplane.
#[derive(Clone)]
pub struct SimBoard {
    pub clock: Clock,
    pub timers: TimerQueue,
    pub profile: Arc<MachineProfile>,
    /// The Ethernet segment joining all hosts.
    pub ethernet: Wire,
    /// The ATM switch joining all hosts.
    pub atm: Wire,
    /// The T3 link (video-server experiment).
    pub t3: Wire,
    next_host: Arc<Mutex<u32>>,
}

impl SimBoard {
    /// Creates a board with the paper's machine profile.
    pub fn new() -> Self {
        Self::with_profile(MachineProfile::alpha_axp_3000_400())
    }

    /// Creates a board with a custom profile (used by ablation benches).
    pub fn with_profile(profile: MachineProfile) -> Self {
        let (ethernet, atm, t3) = media();
        SimBoard {
            clock: Clock::new(),
            timers: TimerQueue::new(),
            profile: Arc::new(profile),
            ethernet,
            atm,
            t3,
            next_host: Arc::new(Mutex::new(0)),
        }
    }

    /// Builds a workstation on the board's timeline: frames arrive as
    /// timers on the shared queue.
    pub fn new_host(&self, memory_frames: usize) -> Host {
        let on = Timeline {
            clock: self.clock.clone(),
            timers: self.timers.clone(),
            mailbox: Mailbox::new(),
            sink: Sink::Timers(self.timers.clone()),
        };
        let media = [&self.ethernet, &self.atm, &self.t3];
        build_host(&self.profile, media, &self.next_host, memory_frames, on)
    }
}

impl Default for SimBoard {
    fn default() -> Self {
        Self::new()
    }
}

/// The multicore backplane: every host is a *shard* with its own clock,
/// timer queue and inbound [`Mailbox`]; the wires deliver cross-host frames
/// into the destination's mailbox instead of a shared timer queue.
///
/// A `spin_sched::Multicore` pumps the shards under a conservative-PDES
/// virtual-time barrier, so the virtual-time outputs are byte-identical to
/// a single-threaded pump regardless of how many OS worker threads run the
/// shards.
#[derive(Clone)]
pub struct MulticoreBoard {
    pub profile: Arc<MachineProfile>,
    /// The Ethernet segment joining all hosts.
    pub ethernet: Wire,
    /// The ATM switch joining all hosts.
    pub atm: Wire,
    /// The T3 link.
    pub t3: Wire,
    next_host: Arc<Mutex<u32>>,
}

impl MulticoreBoard {
    /// Creates a multicore board with the paper's machine profile.
    pub fn new() -> Self {
        Self::with_profile(MachineProfile::alpha_axp_3000_400())
    }

    /// Creates a multicore board with a custom profile.
    pub fn with_profile(profile: MachineProfile) -> Self {
        let (ethernet, atm, t3) = media();
        MulticoreBoard {
            profile: Arc::new(profile),
            ethernet,
            atm,
            t3,
            next_host: Arc::new(Mutex::new(0)),
        }
    }

    /// The conservative-PDES lookahead: the minimum virtual delay of any
    /// cross-shard effect (cross-core call vs. the fastest wire). No mail
    /// posted by a shard at time `t` can be due before `t + lookahead()`.
    pub fn lookahead(&self) -> Nanos {
        self.profile
            .xcall_latency
            .min(self.ethernet.propagation())
            .min(self.atm.propagation())
            .min(self.t3.propagation())
    }

    /// Builds a workstation shard on a timeline of its own: frames arrive
    /// as mail, drained at the shard's next epoch.
    pub fn new_host(&self, memory_frames: usize) -> Host {
        let mailbox = Mailbox::new();
        let on = Timeline {
            clock: Clock::new(),
            timers: TimerQueue::new(),
            mailbox: mailbox.clone(),
            sink: Sink::Mailbox(mailbox),
        };
        let media = [&self.ethernet, &self.atm, &self.t3];
        build_host(&self.profile, media, &self.next_host, memory_frames, on)
    }
}

impl Default for MulticoreBoard {
    fn default() -> Self {
        Self::new()
    }
}

/// One simulated DEC Alpha workstation.
#[derive(Clone)]
pub struct Host {
    pub id: HostId,
    pub mem: PhysMem,
    pub mmu: Mmu,
    pub console: Console,
    pub disk: Disk,
    pub ethernet: Nic,
    pub atm: Nic,
    pub t3: Nic,
    pub irqs: IrqController,
    pub clock: Clock,
    pub timers: TimerQueue,
    pub profile: Arc<MachineProfile>,
    /// Inbound cross-shard messages (multicore mode; empty and unused on a
    /// shared-timeline [`SimBoard`]).
    pub mailbox: Mailbox,
}

impl Host {
    /// This host's address on every wire.
    pub fn endpoint(&self) -> WireEndpoint {
        WireEndpoint(self.id.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn two_hosts_share_a_timeline_and_can_talk() {
        let board = SimBoard::new();
        let a = board.new_host(64);
        let b = board.new_host(64);
        assert_ne!(a.id, b.id);

        a.ethernet
            .send(b.endpoint(), Bytes::from_static(b"hello"))
            .unwrap();
        board.clock.skip_to(board.clock.now() + 10_000_000);
        board.timers.fire_due(board.clock.now());
        b.irqs.dispatch_pending();
        let f = b.ethernet.receive().unwrap();
        assert_eq!(&f.payload[..], b"hello");
    }

    /// The frame books close on both boards: a frame for an endpoint nobody
    /// attached occupies its sender's link and is counted `dropped`. (With
    /// a second receiver table the multicore wire parked such a frame on a
    /// timer queue nothing pumped, counted nowhere.)
    #[test]
    fn a_frame_to_an_unattached_endpoint_is_an_attributed_drop() {
        let (shared, sharded) = (SimBoard::new(), MulticoreBoard::new());
        let hosts = [shared.new_host(8), sharded.new_host(8)];
        for (host, wire) in hosts.iter().zip([&shared.ethernet, &sharded.ethernet]) {
            host.ethernet
                .send(WireEndpoint(99), Bytes::from_static(b"anyone?"))
                .unwrap();
            assert_eq!(wire.stats(), (0, 1));
            assert!(wire.sender_busy_until(host.endpoint()) > host.clock.now());
            assert_eq!(host.timers.pending(), 0);
            assert!(host.mailbox.is_empty());
        }
    }

    #[test]
    fn hosts_have_isolated_memory_and_mmu() {
        let board = SimBoard::new();
        let a = board.new_host(8);
        let b = board.new_host(8);
        a.mem.write(crate::FrameId(0), 0, &[1]);
        let mut buf = [0u8; 1];
        b.mem.read(crate::FrameId(0), 0, &mut buf);
        assert_eq!(buf, [0]);
        let ctx = a.mmu.create_context();
        assert!(b.mmu.examine(ctx, 0).is_err());
    }

    /// A host costs what it touches: its 256 frames and its 1 GB drive are
    /// bounds, and a new host on either board holds no bytes of either.
    #[test]
    fn a_new_host_holds_no_frame_bytes_and_no_disk_block() {
        for host in [
            SimBoard::new().new_host(256),
            MulticoreBoard::new().new_host(256),
        ] {
            assert_eq!(host.mem.frame_count(), 256);
            assert_eq!(host.mem.resident_frames(), 0);
            assert_eq!(host.disk.geometry().blocks, DiskGeometry::default().blocks);
            assert_eq!(host.disk.resident_blocks(), 0);
        }
    }

    #[test]
    fn endpoints_are_deterministic() {
        let board = SimBoard::new();
        let a = board.new_host(1);
        let b = board.new_host(1);
        assert_eq!(a.endpoint(), WireEndpoint(0));
        assert_eq!(b.endpoint(), WireEndpoint(1));
    }
}
