//! The wire: a switched medium joining simulated NICs, and the one frame
//! hand-off below the protocol graph.
//!
//! Every attached NIC is a [`Receiver`]: the NIC's one locked state (its
//! `rx` ring and counters), its interrupt line, its host's clock, and the
//! *sink* that carries a frame to its arrival instant — the host's
//! [`TimerQueue`] on a shared-timeline `SimBoard`, the host's [`Mailbox`]
//! when the host is a `MulticoreBoard` shard. There is one receiver table,
//! one [`Wire::transmit`] and one delivery action; the sink is the only
//! thing the two boards differ in.
//!
//! Transmission is serialized per sender (a 10 Mb/s Ethernet can only push
//! one frame at a time), so saturating workloads see real queueing delay —
//! that is what bends the OSF/1 curve in the Figure 6 reproduction. Wire
//! time is the *sender's* clock (on a `SimBoard` that is the board clock).
//! Each frame is counted on its sender's link as it is sent, before the
//! drop filter; at arrival it joins the receiver's ring, the book of what
//! was delivered, and the receiver's interrupt vector is posted. A filtered
//! frame, or one for an endpoint nobody attached (after occupying the
//! sender's link), is counted `dropped` when it is sent: `delivered +
//! dropped` always catches up with the frames transmitted. The drop filter
//! sees each frame's sender and the frame's index on that sender's link,
//! so what it drops follows each sender's own order, whichever sender
//! reaches the wire first. The wire's own
//! lock guards only what senders share — the links, the drop filter,
//! `dropped` — and is, with the mailbox's, the one lock on the hop that two
//! shards' senders can meet on (DESIGN.md decisions 20, 21, 24).

use crate::clock::{Clock, Nanos, TimerQueue};
use crate::devices::nic::{Frame, NicState};
use crate::irq::{IrqController, IrqVector};
use crate::mailbox::{MailAction, Mailbox};
use spin_check::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// An address on the wire (one per attached NIC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WireEndpoint(pub u32);

/// What carries a frame from transmission to its arrival instant.
#[derive(Clone)]
pub(crate) enum Sink {
    /// Shared timeline: the arrival is a timer on the host's queue.
    Timers(TimerQueue),
    /// Shard: the arrival is an envelope in the host's mailbox, drained
    /// onto the shard's own timers at its next epoch.
    Mailbox(Mailbox),
}

/// One attached NIC, as the wire sees it.
pub(crate) struct Receiver {
    /// The NIC's one locked state: a delivery pushes onto its ring.
    pub nic: Arc<Mutex<NicState>>,
    pub irqs: IrqController,
    pub vector: IrqVector,
    /// The host's clock: wire time for everything this endpoint sends.
    pub clock: Clock,
    pub sink: Sink,
}

/// A frame on its way through [`Wire::transmit`]. The caller's array or
/// `Vec` of these is the only storage a transmission uses: the wire
/// resolves each frame's route in place and then moves the frame into its
/// delivery action.
pub(crate) struct Outbound {
    frame: Frame,
    /// Size on the wire in bits, framing included.
    bits_on_wire: u64,
    /// Arrival instant and receiver, once resolved; `None` = dropped.
    route: Option<(Nanos, Arc<Receiver>)>,
}

impl Outbound {
    pub(crate) fn new(frame: Frame, bits_on_wire: u64) -> Self {
        Outbound {
            frame,
            bits_on_wire,
            route: None,
        }
    }
}

/// One sender's link: when it is next free, and what it has transmitted.
#[derive(Default)]
struct Link {
    busy_until: Nanos,
    frames: u64,
    bytes: u64,
}

/// An attached endpoint: its receiver, and its link as a sender.
struct Attached {
    receiver: Arc<Receiver>,
    link: Link,
}

#[derive(Default)]
struct WireState {
    /// Ordered, so that [`Wire::stats`] may walk it (spin-lint's D2 admits
    /// no walk over a hash table, order-free sum or not). A frame looks up
    /// its sender here once, for its link and its clock, and its receiver.
    attached: BTreeMap<WireEndpoint, Attached>,
    dropped: u64,
    /// Deterministic fault injection: called with the frame's sender and
    /// its index on the sender's link (0 for its first frame); `true`
    /// drops the frame on the floor.
    drop_filter: Option<Box<DropFilter>>,
}

/// A drop filter: `(sender, index of the frame on the sender's link)`.
type DropFilter = dyn Fn(WireEndpoint, u64) -> bool + Send + Sync;

impl WireState {
    /// One frame's turn on the medium: its count on its sender's link, the
    /// drop filter, `tx_time` on the link, and — `flight` after it has left
    /// — its arrival at its receiver. `None`: the frame was dropped, and
    /// counted.
    fn route(
        &mut self,
        frame: &Frame,
        tx_time: Nanos,
        flight: Nanos,
    ) -> Option<(Nanos, Arc<Receiver>)> {
        let sender = self.attached.get_mut(&frame.src);
        let sender = sender.expect("frames are sent by attached NICs");
        let link = &mut sender.link;
        let idx = link.frames;
        link.frames += 1;
        link.bytes += frame.payload.len() as u64;
        if self.drop_filter.as_ref().is_some_and(|f| f(frame.src, idx)) {
            self.dropped += 1;
            return None;
        }
        let now = sender.receiver.clock.now();
        let done = link.busy_until.max(now) + tx_time;
        link.busy_until = done;
        let to = self.attached.get(&frame.dst).map(|a| a.receiver.clone());
        if to.is_none() {
            self.dropped += 1;
        }
        Some((done + flight, to?))
    }
}

/// The shared medium.
#[derive(Clone)]
pub struct Wire {
    state: Arc<Mutex<WireState>>,
    /// Fixed propagation + switch latency per frame.
    propagation: Nanos,
    /// Mailbox lane namespace for this medium: a frame from endpoint `e`
    /// travels on lane `lane_base + e`, so no two senders (and no two
    /// media) ever share a lane.
    lane_base: u64,
}

impl Wire {
    /// Creates a wire with the given one-way propagation/switch delay and
    /// mailbox lane namespace (each medium of a board gets a disjoint one).
    pub(crate) fn new(propagation: Nanos, lane_base: u64) -> Self {
        Wire {
            state: Arc::default(),
            propagation,
            lane_base,
        }
    }

    /// Attaches `receiver` at `endpoint`, which must be new on this wire.
    pub(crate) fn attach(&self, endpoint: WireEndpoint, receiver: Receiver) {
        let attached = Attached {
            receiver: Arc::new(receiver),
            link: Link::default(),
        };
        let previous = self.state.lock().attached.insert(endpoint, attached);
        assert!(previous.is_none(), "{endpoint:?} is attached once");
    }

    /// The minimum cross-shard delivery delay over this medium (its
    /// propagation): part of the conservative-PDES lookahead bound.
    pub(crate) fn propagation(&self) -> Nanos {
        self.propagation
    }

    /// Queues `frames` for transmission from attached endpoints at the
    /// sender's link rate. A frame occupies its sender's link until it has
    /// left; it arrives `propagation + staging_ns` later (`staging_ns` is
    /// adapter staging, which occupies neither the link nor the CPU).
    ///
    /// A burst is exactly its frames transmitted one by one in order —
    /// drop filter, link serialization, arrival time, mailbox lane — with
    /// the state lock taken once and consecutive frames for one mailbox
    /// posted as one batch. Nothing here allocates but the one box per
    /// delivery action: a lone frame (`Nic::send`'s one-element array)
    /// reaches its sink without touching the heap otherwise.
    pub(crate) fn transmit<B>(&self, mut frames: B, bandwidth_bps: u64, staging_ns: Nanos)
    where
        B: AsMut<[Outbound]> + IntoIterator<Item = Outbound>,
    {
        // Phase 1 (one lock): serialize each frame on its sender's link
        // and resolve its destination.
        {
            let mut st = self.state.lock();
            for out in frames.as_mut() {
                let tx_time = out.bits_on_wire.saturating_mul(1_000_000_000) / bandwidth_bps.max(1);
                out.route = st.route(&out.frame, tx_time, self.propagation + staging_ns);
            }
        }
        // Phase 2 (no lock): give each arrival to its receiver's sink, in
        // frame order (equal-deadline timers fire FIFO; a mailbox lane's
        // seq is its post order).
        let mut due = frames
            .into_iter()
            .filter_map(|out| out.route.map(|(arrival, to)| (arrival, out.frame, to)))
            .peekable();
        while let Some((arrival, frame, to)) = due.next() {
            match &to.sink {
                Sink::Timers(timers) => {
                    timers.schedule_boxed(arrival, Self::delivery(frame, to.clone()));
                }
                // This frame and the frames right behind it for the same
                // mailbox are one batch, boxed as the mailbox takes them.
                Sink::Mailbox(mailbox) => {
                    let behind = std::iter::from_fn(|| {
                        let (arrival, frame, _) = due.next_if(|d| Arc::ptr_eq(&d.2, &to))?;
                        Some((arrival, frame))
                    });
                    let run = std::iter::once((arrival, frame)).chain(behind);
                    mailbox.post_all(run.map(|(arrival, frame)| {
                        let lane = self.lane_base + frame.src.0 as u64;
                        (arrival, lane, Self::delivery(frame, to.clone()))
                    }));
                }
            }
        }
    }

    /// The one delivery action, boxed once: it travels as this box through
    /// the mailbox and the timer queue to its arrival instant.
    fn delivery(frame: Frame, to: Arc<Receiver>) -> MailAction {
        Box::new(move |_: Nanos| {
            to.nic.lock().push(frame);
            to.irqs.post(to.vector);
        })
    }

    /// Installs a deterministic drop filter for fault injection, called
    /// with each frame's sender and its index on the sender's link (e.g.
    /// "drop every 7th frame each host sends" for TCP retransmission
    /// tests).
    pub fn set_drop_filter(&self, f: impl Fn(WireEndpoint, u64) -> bool + Send + Sync + 'static) {
        self.state.lock().drop_filter = Some(Box::new(f));
    }

    /// (delivered, dropped) frame counters: deliveries are summed over the
    /// receivers' rings, where they are kept.
    pub fn stats(&self) -> (u64, u64) {
        let st = self.state.lock();
        let delivered = st
            .attached
            .values()
            .map(|a| a.receiver.nic.lock().delivered())
            .sum();
        (delivered, st.dropped)
    }

    /// (frames, bytes) transmitted from `endpoint`: its link's record.
    pub(crate) fn transmitted(&self, endpoint: WireEndpoint) -> (u64, u64) {
        let st = self.state.lock();
        st.attached
            .get(&endpoint)
            .map_or((0, 0), |a| (a.link.frames, a.link.bytes))
    }

    /// Virtual time at which the sender's link becomes free.
    #[cfg(test)]
    pub(crate) fn sender_busy_until(&self, endpoint: WireEndpoint) -> Nanos {
        let st = self.state.lock();
        st.attached.get(&endpoint).map_or(0, |a| a.link.busy_until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Cost;
    use bytes::Bytes;

    /// Endpoint 1 sends, endpoint 2 receives through the sink under test.
    struct Rig {
        wire: Wire,
        clock: Clock,
        timers: TimerQueue,
        mailbox: Mailbox,
        irqs: IrqController,
        rx: Arc<Mutex<NicState>>,
    }

    fn rig(shard: bool) -> Rig {
        let (clock, timers, mailbox) = (Clock::new(), TimerQueue::new(), Mailbox::new());
        let wire = Wire::new(1_000, 0);
        let irqs = IrqController::new(clock.clone());
        let attach = |endpoint, vector| {
            let rx: Arc<Mutex<NicState>> = Arc::default();
            let sink = if shard {
                Sink::Mailbox(mailbox.clone())
            } else {
                Sink::Timers(timers.clone())
            };
            wire.attach(
                WireEndpoint(endpoint),
                Receiver {
                    nic: rx.clone(),
                    irqs: irqs.clone(),
                    vector: IrqVector(vector),
                    clock: clock.clone(),
                    sink,
                },
            );
            rx
        };
        attach(1, 6);
        let rx = attach(2, 7);
        Rig {
            wire,
            clock,
            timers,
            mailbox,
            irqs,
            rx,
        }
    }

    impl Rig {
        /// 1000 bits at 10 Mb/s: 100 µs on the wire per frame.
        fn transmit(&self, frames: impl IntoIterator<Item = Frame>) {
            let frames: Vec<Outbound> =
                frames.into_iter().map(|f| Outbound::new(f, 1000)).collect();
            self.wire.transmit(frames, 10_000_000, 0);
        }

        /// Runs a shard epoch (mail drains onto the timers in mailbox
        /// order) and then every timer; returns `(arrival, payload)` in
        /// `rx` order.
        fn arrivals(&self) -> Vec<(Nanos, Bytes)> {
            for env in self.mailbox.drain() {
                self.timers.schedule_at(env.deliver_at, env.action);
            }
            let mut out = Vec::new();
            while let Some(at) = self.timers.next_deadline() {
                self.timers.fire_due(at);
                let mut rx = self.rx.lock();
                out.extend(std::iter::from_fn(|| rx.pop()).map(|f| (at, f.payload)));
            }
            out
        }
    }

    fn frame_to(dst: u32, payload: &[u8]) -> Frame {
        Frame {
            src: WireEndpoint(1),
            dst: WireEndpoint(dst),
            payload: Bytes::copy_from_slice(payload),
        }
    }

    fn frame(payload: &[u8]) -> Frame {
        frame_to(2, payload)
    }

    #[test]
    fn frame_arrives_after_tx_time_plus_propagation() {
        let r = rig(false);
        r.transmit([frame(&[0u8; 125])]);
        r.clock.skip_to(100_999);
        r.timers.fire_due(r.clock.now());
        assert_eq!(r.rx.lock().delivered(), 0, "too early");
        r.clock.skip_to(101_000);
        r.timers.fire_due(r.clock.now());
        assert_eq!(r.rx.lock().delivered(), 1);
        assert!(r.irqs.has_pending());
    }

    #[test]
    fn sender_link_serializes_back_to_back_frames() {
        let r = rig(false);
        r.transmit([frame(b"a")]);
        r.transmit([frame(b"b")]);
        // Second frame cannot start until the first is done: arrival at
        // 200_000 + 1_000 propagation.
        assert_eq!(r.wire.sender_busy_until(WireEndpoint(1)), 200_000);
        r.clock.skip_to(201_000);
        r.timers.fire_due(r.clock.now());
        assert_eq!(r.rx.lock().delivered(), 2);
    }

    #[test]
    fn frames_to_unknown_endpoints_are_dropped() {
        for shard in [false, true] {
            let r = rig(shard);
            r.transmit([frame_to(99, b"")]);
            assert_eq!(r.wire.stats(), (0, 1), "shard sink: {shard}");
            assert_eq!(
                r.wire.sender_busy_until(WireEndpoint(1)),
                100_000,
                "the frame still occupied its sender's link"
            );
            assert!(r.arrivals().is_empty());
        }
    }

    /// The merged path's contract, for both sinks: a burst is its frames
    /// transmitted one by one — same arrival instants, same `rx` order,
    /// same counters — with a filtered frame and an unknown destination
    /// in the middle of it.
    #[test]
    fn a_burst_equals_its_frames_sent_one_by_one() {
        let burst = || {
            [
                frame(b"a"),
                frame(b"filtered"),
                frame(b"c"),
                frame_to(99, b"nobody"),
                frame(b"e"),
            ]
        };
        for shard in [false, true] {
            let run = |one_by_one: bool| {
                let r = rig(shard);
                r.wire.set_drop_filter(|_, idx| idx == 1);
                r.clock.charge(Cost::Work, 7_000);
                if one_by_one {
                    burst().into_iter().for_each(|f| r.transmit([f]));
                } else {
                    r.transmit(burst());
                }
                let busy = r.wire.sender_busy_until(WireEndpoint(1));
                let sent = r.wire.transmitted(WireEndpoint(1));
                (r.arrivals(), r.wire.stats(), busy, r.mailbox.stats(), sent)
            };
            let (arrivals, stats, busy, mail, sent) = run(false);
            assert_eq!((arrivals.clone(), stats, busy, mail, sent), run(true));
            // The filtered frame never reached the link; the undeliverable
            // one did.
            let at = |n: u64| 7_000 + n * 100_000 + 1_000;
            let expect = [(at(1), "a"), (at(2), "c"), (at(4), "e")];
            let expect = expect.map(|(t, p)| (t, Bytes::from_static(p.as_bytes())));
            assert_eq!(arrivals, expect, "shard sink: {shard}");
            assert_eq!(stats, (3, 2));
            // Every frame is on its sender's link, the filtered one too.
            assert_eq!(sent, (5, 1 + 8 + 1 + 6 + 1), "the link's record");
            assert_eq!(mail.0, if shard { 3 } else { 0 }, "posted envelopes");
        }
    }
}
