//! The unified typed socket layer over the protocol graph.
//!
//! Pre-webscale, the stack exposed three ad-hoc entry points — `udp_bind`
//! (a bare handler), `udp_channel` (a handler feeding a channel) and the
//! TCP listener's blocking `accept` loop — each forcing one strand per
//! endpoint. [`UdpSocket`] replaces the first two with one type that is
//! also [`Pollable`], so a single strand parked on a
//! [`crate::poll::NetPoller`] can drain any number of sockets.
//!
//! Charging story: binding is control-plane (one keyed install, exactly
//! what `udp_bind` charged — nothing); the per-datagram path charges are
//! unchanged because the delivery handler is the same keyed `UDP.PktArrived`
//! handler as before, merely ending in a queue push plus an uncharged
//! readiness note instead of user code.

use crate::poll::{interest, Pollable, ReadyQueue, Registration};
use crate::stack::{NetStack, UdpPacket};
use spin_core::{DispatchError, Identity};
use spin_sched::StrandCtx;
use std::sync::Arc;

/// A typed UDP endpoint: bound to a local port, optionally queueing
/// inbound datagrams, registrable with a poller.
pub struct UdpSocket {
    port: u16,
    /// Present in queue mode ([`UdpSocket::bind`]), shared with the
    /// delivery handler; absent in tap mode ([`UdpSocket::bind_with`]),
    /// where the handler consumes datagrams and nothing is ever ready.
    queue: Option<Arc<ReadyQueue<UdpPacket>>>,
}

impl UdpSocket {
    /// Binds `port`, queueing up to `depth` inbound datagrams for
    /// [`UdpSocket::recv`]/[`UdpSocket::try_recv`] (excess is dropped, as
    /// a datagram service may). The charge profile is identical to the
    /// old `udp_channel`: one keyed install, per-datagram delivery paid by
    /// the packet's own raise.
    // uncharged: socket setup is control-plane; the packet path charges per hop.
    pub fn bind(
        stack: &NetStack,
        port: u16,
        label: &str,
        depth: usize,
    ) -> Result<Arc<UdpSocket>, DispatchError> {
        let queue = Arc::new(ReadyQueue::new(
            stack.executor().clone(),
            depth,
            interest::READABLE,
        ));
        let q2 = queue.clone();
        Self::install(stack, port, label, move |p| q2.push(p.clone()))?;
        Ok(Arc::new(UdpSocket {
            port,
            queue: Some(queue),
        }))
    }

    /// Binds `port` with an in-path handler (the paper's `udp_bind`
    /// idiom): `handler` runs inside the datagram's own `UDP.PktArrived`
    /// raise, and nothing is queued on the socket.
    // uncharged: socket setup is control-plane; the packet path charges per hop.
    pub fn bind_with(
        stack: &NetStack,
        port: u16,
        label: &str,
        handler: impl Fn(&UdpPacket) + Send + Sync + 'static,
    ) -> Result<Arc<UdpSocket>, DispatchError> {
        Self::install(stack, port, label, handler)?;
        Ok(Arc::new(UdpSocket { port, queue: None }))
    }

    // uncharged: one keyed install on `UDP.PktArrived` — N bound ports
    // cost one lookup per datagram, not N guard evaluations.
    fn install(
        stack: &NetStack,
        port: u16,
        label: &str,
        handler: impl Fn(&UdpPacket) + Send + Sync + 'static,
    ) -> Result<spin_core::HandlerId, DispatchError> {
        stack.topology().note("UDP.PktArrived", label);
        stack.events().udp_arrived.install_keyed(
            Identity::extension(label),
            &stack.events().udp_port_key,
            u64::from(port),
            move |p: &UdpPacket| handler(p),
        )
    }

    /// The bound local port.
    // uncharged: accessor.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Blocks until a datagram arrives (queue mode only; `None` in tap
    /// mode or after close).
    // uncharged: blocking costs virtual time on the scheduler's account.
    pub fn recv(&self, ctx: &StrandCtx) -> Option<UdpPacket> {
        self.queue.as_ref()?.recv(ctx)
    }

    /// Takes a queued datagram without blocking.
    // uncharged: queue pop; delivery was charged on the packet's raise.
    pub fn try_recv(&self) -> Option<UdpPacket> {
        self.queue.as_ref()?.try_recv()
    }
}

impl Pollable for UdpSocket {
    // uncharged: registration is control-plane.
    fn register(&self, r: Registration) -> u8 {
        self.queue.as_ref().map_or(0, |q| q.register(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::Medium;
    use crate::testrig::TwoHosts;
    use spin_check::sync::Mutex;
    use spin_sched::KChannel;

    #[test]
    fn queue_mode_matches_a_hand_rolled_channel_bind() {
        // Back-compat equivalence: `UdpSocket::bind` behaves exactly like
        // the old `udp_channel` idiom (inline keyed install + KChannel).
        let rig = TwoHosts::new();
        let sock = UdpSocket::bind(&rig.b, 7, "sock", 16).unwrap();
        let legacy = KChannel::new(rig.exec.clone(), 16);
        let l2 = legacy.clone();
        rig.b
            .events()
            .udp_arrived
            .install_keyed(
                Identity::extension("legacy"),
                &rig.b.events().udp_port_key,
                8,
                move |p: &UdpPacket| {
                    l2.try_push(p.clone());
                },
            )
            .unwrap();
        let a = rig.a.clone();
        let dst = rig.b.ip_on(Medium::Ethernet);
        rig.exec.spawn("sender", move |_| {
            for i in 0..4u8 {
                a.udp_send(100, dst, 7, &[i]).unwrap();
                a.udp_send(100, dst, 8, &[i]).unwrap();
            }
        });
        rig.exec.run_until_idle();
        let mut new_way = Vec::new();
        while let Some(p) = sock.try_recv() {
            new_way.push(p.payload.to_vec());
        }
        let mut old_way = Vec::new();
        while let Some(p) = legacy.try_recv() {
            old_way.push(p.payload.to_vec());
        }
        assert_eq!(new_way, old_way);
        assert_eq!(new_way.len(), 4);
    }

    #[test]
    fn tap_mode_runs_in_the_packet_path() {
        let rig = TwoHosts::new();
        let got = Arc::new(Mutex::new(Vec::new()));
        let g2 = got.clone();
        let _sock = UdpSocket::bind_with(&rig.b, 9, "tap", move |p| {
            g2.lock().push(p.payload.to_vec());
        })
        .unwrap();
        let a = rig.a.clone();
        let dst = rig.b.ip_on(Medium::Ethernet);
        rig.exec.spawn("sender", move |_| {
            a.udp_send(1, dst, 9, b"abc").unwrap();
        });
        rig.exec.run_until_idle();
        assert_eq!(got.lock().as_slice(), &[b"abc".to_vec()]);
    }
}
