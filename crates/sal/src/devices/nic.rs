//! Network interface cards: Lance Ethernet, FORE ATM (PIO) and T3 (DMA).
//!
//! The paper's testbed (§5): a 10 Mb/s Lance Ethernet, a FORE TCA-100
//! 155 Mb/s ATM card that "uses programmed I/O and can maximally deliver
//! only about 53 Mb/s", and the experimental Digital T3PKT adapter that
//! "can send 45 Mb/s using DMA". PIO burns CPU per byte (that is what caps
//! the ATM card and dominates the video server's CPU in Figure 6's PIO
//! configuration); DMA costs only a fixed descriptor setup.

use crate::clock::Clock;
use crate::cost::MachineProfile;
use crate::wire::{Outbound, Receiver, Wire, WireEndpoint};
use bytes::Bytes;
use spin_check::sync::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// How the card moves bytes between memory and the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoKind {
    /// The CPU copies every byte to/from the card.
    Pio,
    /// The card DMAs; the CPU pays a fixed setup per packet.
    Dma,
}

/// Static description of a card model.
#[derive(Debug, Clone)]
pub struct NicModel {
    pub name: &'static str,
    /// Link rate in bits per second.
    pub bandwidth_bps: u64,
    /// Maximum payload per frame.
    pub mtu: usize,
    /// Per-frame framing overhead on the wire, in bytes.
    pub framing_bytes: usize,
    pub io: IoKind,
    /// Card staging latency per frame (buffering inside the adapter and
    /// its firmware), added to delivery time without consuming CPU. The
    /// paper notes "neither the Lance Ethernet driver nor the FORE ATM
    /// driver are optimized for latency" (§5.3); this is where that shows.
    pub staging_ns: u64,
    /// Per-packet driver CPU cost for this device (vendor drivers differ;
    /// the experimental T3PKT driver is the heaviest, which is what makes
    /// Figure 6's utilization grow as fast as it does).
    pub driver_ns: u64,
}

impl NicModel {
    /// The 10 Mb/s Lance Ethernet interface.
    // uncharged: constructor.
    pub fn lance_ethernet() -> Self {
        NicModel {
            name: "Lance Ethernet",
            bandwidth_bps: 10_000_000,
            mtu: 1500,
            framing_bytes: 38, // preamble + header + FCS + IFG
            io: IoKind::Dma,
            staging_ns: 68_000,
            driver_ns: 60_000,
        }
    }

    /// The FORE TCA-100 ATM adapter (programmed I/O).
    // uncharged: constructor.
    pub fn fore_atm() -> Self {
        NicModel {
            name: "FORE TCA-100 ATM",
            bandwidth_bps: 155_000_000,
            mtu: 8132,
            framing_bytes: 60, // AAL5 trailer + cell tax approximation
            io: IoKind::Pio,
            staging_ns: 74_000,
            driver_ns: 60_000,
        }
    }

    /// The experimental Digital T3PKT adapter (45 Mb/s, DMA).
    // uncharged: constructor.
    pub fn t3_dma() -> Self {
        NicModel {
            name: "Digital T3PKT",
            bandwidth_bps: 45_000_000,
            mtu: 8192,
            framing_bytes: 16,
            io: IoKind::Dma,
            staging_ns: 20_000,
            driver_ns: 242_000,
        }
    }
}

/// A frame in flight or in a receive queue.
#[derive(Debug, Clone)]
pub struct Frame {
    pub src: WireEndpoint,
    pub dst: WireEndpoint,
    pub payload: Bytes,
}

/// Errors from the send path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NicError {
    /// Payload exceeds the card's MTU.
    TooLarge { len: usize, mtu: usize },
}

/// A NIC's one locked state, shared by the wire's `Receiver` for it (which
/// fills the ring) and the `Nic` (which drains it): the receive ring and
/// the frames and bytes ever taken off it, counted in the critical section
/// that takes them. What the NIC transmitted is its link's record on the
/// wire (`Wire::transmitted`), and what was delivered into the ring is
/// what was taken off it plus what is still on it — each fact has one
/// book.
#[derive(Default)]
pub(crate) struct NicState {
    frames: VecDeque<Frame>,
    rx_frames: u64,
    rx_bytes: u64,
}

impl NicState {
    /// A delivery: the frame joins the ring.
    pub(crate) fn push(&mut self, frame: Frame) {
        self.frames.push_back(frame);
    }

    /// The one way off the ring: the pop and its count.
    pub(crate) fn pop(&mut self) -> Option<Frame> {
        let frame = self.frames.pop_front()?;
        self.rx_frames += 1;
        self.rx_bytes += frame.payload.len() as u64;
        Some(frame)
    }

    /// Frames ever delivered into the ring.
    pub(crate) fn delivered(&self) -> u64 {
        self.rx_frames + self.frames.len() as u64
    }
}

/// One installed network interface.
#[derive(Clone)]
pub struct Nic {
    model: NicModel,
    addr: WireEndpoint,
    wire: Wire,
    state: Arc<Mutex<NicState>>,
    clock: Clock,
    profile: Arc<MachineProfile>,
}

impl Nic {
    /// Creates a NIC and attaches it to `wire` at address `addr`. `port`
    /// is the host side of the attachment: the interrupt line received
    /// frames post, the host's clock, and the sink that carries frames to
    /// their arrival instant.
    // uncharged: constructor.
    pub(crate) fn new(
        model: NicModel,
        addr: WireEndpoint,
        wire: Wire,
        profile: Arc<MachineProfile>,
        port: Receiver,
    ) -> Self {
        let (state, clock) = (port.nic.clone(), port.clock.clone());
        wire.attach(addr, port);
        Nic {
            model,
            addr,
            wire,
            state,
            clock,
            profile,
        }
    }

    /// The card model.
    // uncharged: accessor.
    pub fn model(&self) -> &NicModel {
        &self.model
    }

    /// This card's wire address.
    // uncharged: accessor.
    pub fn addr(&self) -> WireEndpoint {
        self.addr
    }

    /// Transmits `payload` to `dst`, charging driver and I/O costs and
    /// handing the frame to the wire.
    pub fn send(&self, dst: WireEndpoint, payload: Bytes) -> Result<(), NicError> {
        let frame = self.stage(dst, payload)?;
        self.wire
            .transmit([frame], self.model.bandwidth_bps, self.model.staging_ns);
        Ok(())
    }

    /// Transmits a burst of payloads: exactly [`Nic::send`] for each in
    /// order, with the whole burst handed to the wire at once. Stops at
    /// the first oversized payload (frames before it are already
    /// committed).
    pub fn send_burst(&self, frames: Vec<(WireEndpoint, Bytes)>) -> Result<(), NicError> {
        let mut staged = Vec::with_capacity(frames.len());
        let mut outcome = Ok(());
        for (dst, payload) in frames {
            match self.stage(dst, payload) {
                Ok(frame) => staged.push(frame),
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
        }
        self.wire
            .transmit(staged, self.model.bandwidth_bps, self.model.staging_ns);
        outcome
    }

    /// The per-frame transmit step: MTU check, driver and I/O charge, and
    /// the frame with its size on the wire in bits. The wire counts it.
    fn stage(&self, dst: WireEndpoint, payload: Bytes) -> Result<Outbound, NicError> {
        if payload.len() > self.model.mtu {
            return Err(NicError::TooLarge {
                len: payload.len(),
                mtu: self.model.mtu,
            });
        }
        self.charge_io(payload.len());
        let bits = ((payload.len() + self.model.framing_bytes) * 8) as u64;
        let frame = Frame {
            src: self.addr,
            dst,
            payload,
        };
        Ok(Outbound::new(frame, bits))
    }

    /// Charges the driver plus moving `len` bytes across the card (PIO
    /// cards burn CPU per byte, in both directions).
    fn charge_io(&self, len: usize) {
        let p = &self.profile;
        self.clock.advance(self.model.driver_ns);
        match self.model.io {
            IoKind::Pio => self.clock.advance(p.pio(len)),
            IoKind::Dma => self.clock.advance(p.dma_setup),
        }
    }

    /// Pulls the next received frame, charging the driver and the inbound
    /// copy. The pop and its count are one critical section.
    pub fn receive(&self) -> Option<Frame> {
        let frame = self.state.lock().pop()?;
        self.charge_io(frame.payload.len());
        Some(frame)
    }

    /// Number of frames waiting in the receive queue.
    // uncharged: diagnostics accessor.
    pub fn rx_pending(&self) -> usize {
        self.state.lock().frames.len()
    }

    /// (tx frames, tx bytes, rx frames, rx bytes): the transmit half is
    /// this card's link record on the wire.
    // uncharged: diagnostics accessor.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        let (tx_frames, tx_bytes) = self.wire.transmitted(self.addr);
        let st = self.state.lock();
        (tx_frames, tx_bytes, st.rx_frames, st.rx_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TimerQueue;
    use crate::irq::{IrqController, IrqVector};
    use crate::wire::Sink;

    fn rig(model: NicModel) -> (Nic, Nic, Clock, TimerQueue, IrqController) {
        let clock = Clock::new();
        let timers = TimerQueue::new();
        let profile = Arc::new(MachineProfile::alpha_axp_3000_400());
        let wire = Wire::new(1_000, 0);
        let irqs = IrqController::new(clock.clone(), profile.clone());
        let nic = |model: NicModel, addr, vector| {
            let port = Receiver {
                nic: Arc::default(),
                irqs: irqs.clone(),
                vector: IrqVector(vector),
                clock: clock.clone(),
                sink: Sink::Timers(timers.clone()),
            };
            Nic::new(
                model,
                WireEndpoint(addr),
                wire.clone(),
                profile.clone(),
                port,
            )
        };
        let (a, b) = (nic(model.clone(), 1, 10), nic(model, 2, 11));
        (a, b, clock, timers, irqs)
    }

    #[test]
    fn ethernet_frame_travels_between_nics() {
        let (a, b, clock, timers, irqs) = rig(NicModel::lance_ethernet());
        a.send(WireEndpoint(2), Bytes::from_static(b"ping"))
            .unwrap();
        clock.skip_to(clock.now() + 10_000_000);
        timers.fire_due(clock.now());
        assert!(irqs.has_pending());
        let f = b.receive().expect("frame should have arrived");
        assert_eq!(&f.payload[..], b"ping");
        assert_eq!(f.src, WireEndpoint(1));
        assert_eq!(a.counters().0, 1);
        assert_eq!(b.counters().2, 1);
    }

    #[test]
    fn mtu_is_enforced() {
        let (a, _, _, _, _) = rig(NicModel::lance_ethernet());
        let big = Bytes::from(vec![0u8; 1501]);
        assert_eq!(
            a.send(WireEndpoint(2), big),
            Err(NicError::TooLarge {
                len: 1501,
                mtu: 1500
            })
        );
    }

    #[test]
    fn a_burst_stops_at_the_first_oversized_payload() {
        let (a, b, clock, timers, _) = rig(NicModel::lance_ethernet());
        let burst = vec![
            (WireEndpoint(2), Bytes::from_static(b"fits")),
            (WireEndpoint(2), Bytes::from(vec![0u8; 1501])),
            (WireEndpoint(2), Bytes::from_static(b"never staged")),
        ];
        assert_eq!(
            a.send_burst(burst),
            Err(NicError::TooLarge {
                len: 1501,
                mtu: 1500
            })
        );
        // The frame before it was charged, counted and sent as by `send`.
        let (lone, _, lone_clock, _, _) = rig(NicModel::lance_ethernet());
        lone.send(WireEndpoint(2), Bytes::from_static(b"fits"))
            .unwrap();
        assert_eq!(clock.now(), lone_clock.now());
        assert_eq!(a.counters(), lone.counters());
        clock.skip_to(clock.now() + 10_000_000);
        timers.fire_due(clock.now());
        assert_eq!(&b.receive().expect("committed frame").payload[..], b"fits");
        assert!(b.receive().is_none());
    }

    #[test]
    fn pio_costs_scale_with_length_dma_does_not() {
        let (atm, _, clock, _, _) = rig(NicModel::fore_atm());
        let t0 = clock.now();
        atm.send(WireEndpoint(2), Bytes::from(vec![0u8; 8000]))
            .unwrap();
        let pio_cost = clock.now() - t0;

        let (t3, _, clock2, _, _) = rig(NicModel::t3_dma());
        let t1 = clock2.now();
        t3.send(WireEndpoint(2), Bytes::from(vec![0u8; 8000]))
            .unwrap();
        let dma_cost = clock2.now() - t1;

        // The T3's driver is itself expensive; compare the byte-dependent
        // portion: PIO must dwarf DMA setup once driver costs are removed.
        let pio_only = pio_cost - NicModel::fore_atm().driver_ns;
        let dma_only = dma_cost - NicModel::t3_dma().driver_ns;
        assert!(
            pio_only > 100 * dma_only.max(1),
            "PIO ({pio_only} ns) should dwarf DMA ({dma_only} ns)"
        );
    }

    #[test]
    fn receive_on_empty_queue_is_none_and_free() {
        let (a, _, clock, _, _) = rig(NicModel::lance_ethernet());
        let t0 = clock.now();
        assert!(a.receive().is_none());
        assert_eq!(clock.now(), t0);
    }
}
