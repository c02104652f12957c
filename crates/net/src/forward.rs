//! Transparent protocol forwarding as a kernel extension (§5.3, Table 6).
//!
//! "In SPIN an application installs a node into the protocol stack which
//! redirects all data and control packets destined for a particular port
//! number to a secondary host." Because the node sits *inside* the stack
//! (at the transport boundary, below connection state), TCP control
//! segments — SYN, FIN, RST — are forwarded like any other, so "end-to-end
//! connection establishment and termination semantics" hold, unlike the
//! user-level OSF/1 splice the paper compares against.
//!
//! The forwarder rewrites addresses NAT-style and keeps a flow table so
//! replies from the secondary host retrace the path to the original
//! client. It hands the stack a rewritten header in front of the payload it
//! received — still a view into the arriving frame — so a forwarded byte is
//! copied once, into the departing frame.

use crate::pkt::{proto, IpAddr, UdpHeader};
use crate::stack::{NetStack, TcpSegment, UdpPacket};
use spin_check::sync::Mutex;
use spin_core::{Constraints, GuardSpec, Identity, InstallSpec};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Forwarding statistics. Transmit retries are no longer counted here:
/// the stack's [`crate::stack::NetStats::retries`] is the single
/// authoritative retry counter (see `NetStack::transmit_with_retry`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForwardStats {
    pub forwarded: u64,
    pub replies: u64,
    /// Flows are never removed: this is the flow table's length.
    pub flows: u64,
}

struct FlowTable {
    /// client (ip, port) → rewritten source port on the forwarder.
    out: BTreeMap<(IpAddr, u16), u16>,
    /// rewritten source port → client (ip, port).
    back: BTreeMap<u16, (IpAddr, u16)>,
    next_port: u16,
    forwarded: u64,
    replies: u64,
}

/// A deterministic export of a forwarder's flow table — the `Old` state a
/// hot-swap transfers into the next version (`crates/swap`). Flows are
/// sorted by rewritten port, so two snapshots of equal tables are equal
/// regardless of hash-map iteration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowSnapshot {
    /// `(client ip, client port, rewritten port)` per live flow.
    pub flows: Vec<(IpAddr, u16, u16)>,
    /// Next rewritten port the table would allocate.
    pub next_port: u16,
    /// Counters at the snapshot instant (carried across the swap).
    pub stats: ForwardStats,
}

impl FlowTable {
    /// A table holding `flows`, with the counters `stats` carries.
    fn shared(
        flows: &[(IpAddr, u16, u16)],
        next_port: u16,
        stats: ForwardStats,
    ) -> Arc<Mutex<Self>> {
        Arc::new(Mutex::new(FlowTable {
            out: flows.iter().map(|&(ip, port, p)| ((ip, port), p)).collect(),
            back: flows.iter().map(|&(ip, port, p)| (p, (ip, port))).collect(),
            next_port,
            forwarded: stats.forwarded,
            replies: stats.replies,
        }))
    }

    fn stats(&self) -> ForwardStats {
        ForwardStats {
            forwarded: self.forwarded,
            replies: self.replies,
            flows: self.out.len() as u64,
        }
    }

    fn translate(&mut self, client: (IpAddr, u16)) -> u16 {
        if let Some(&p) = self.out.get(&client) {
            return p;
        }
        let p = self.next_port;
        self.next_port += 1;
        self.out.insert(client, p);
        self.back.insert(p, client);
        p
    }
}

/// A transparent forwarder for one service port.
pub struct Forwarder {
    state: Arc<Mutex<FlowTable>>,
    identity: Identity,
}

/// Builds the outbound UDP handler: client → forwarder:`port` ⇒
/// forwarder → `target`:`port`.
fn udp_out_handler(
    stack: &NetStack,
    state: &Arc<Mutex<FlowTable>>,
    port: u16,
    target: IpAddr,
) -> impl Fn(&UdpPacket) + Send + Sync + 'static {
    let state = state.clone();
    let stack = stack.clone();
    move |p: &UdpPacket| {
        let rewritten = {
            let mut st = state.lock();
            st.forwarded += 1;
            st.translate((p.ip.src, p.header.src_port))
        };
        let datagram = UdpHeader::encode_chain(rewritten, port, p.payload.clone());
        stack.transmit_with_retry(target, proto::UDP, datagram);
    }
}

/// Builds the inbound UDP handler: target's replies to a rewritten port ⇒
/// original client.
fn udp_back_handler(
    stack: &NetStack,
    state: &Arc<Mutex<FlowTable>>,
    port: u16,
) -> impl Fn(&UdpPacket) + Send + Sync + 'static {
    let state = state.clone();
    let stack = stack.clone();
    move |p: &UdpPacket| {
        let client = {
            let mut st = state.lock();
            match st.back.get(&p.header.dst_port).copied() {
                Some(c) => {
                    st.replies += 1;
                    c
                }
                None => return,
            }
        };
        let datagram = UdpHeader::encode_chain(port, client.1, p.payload.clone());
        stack.transmit_with_retry(client.0, proto::UDP, datagram);
    }
}

impl Forwarder {
    /// Installs a UDP forwarder on `stack`: datagrams to `port` are
    /// redirected to `target`; replies retrace to the original client.
    pub fn install_udp(stack: &NetStack, port: u16, target: IpAddr) -> Forwarder {
        let identity = Identity::extension("Forward");
        let state = FlowTable::shared(&[], 40_000, ForwardStats::default());

        // Outbound traffic is keyed on the shared UDP port key, so the
        // forwarder joins the port binds in one compiled dispatch-table
        // lookup.
        stack
            .events()
            .udp_arrived
            .install_keyed(
                identity.clone(),
                &stack.events().udp_port_key,
                u64::from(port),
                udp_out_handler(stack, &state, port, target),
            )
            .expect("install UDP forwarder (out)");
        stack.topology().note("UDP.PktArrived", "Forward");

        // Replies: a key range over the rewritten-port space, same key.
        stack
            .events()
            .udp_arrived
            .install_specs(
                identity.clone(),
                vec![GuardSpec::KeyRange(
                    stack.events().udp_port_key.clone(),
                    40_000,
                    u64::from(u16::MAX),
                )],
                udp_back_handler(stack, &state, port),
            )
            .expect("install UDP forwarder (back)");

        Forwarder { state, identity }
    }

    /// Builds a successor version of a UDP forwarder from a transferred
    /// [`FlowSnapshot`] *without installing it*: the returned
    /// [`InstallSpec`]s are handed to [`spin_core::Event::rebind`] so the
    /// hot-swap replaces the old version's handlers in one atomic
    /// generation bump (`crates/swap` orchestrates the protocol).
    ///
    /// The new version keeps the snapshot's flow table, so replies for
    /// flows opened under the old version still retrace, and forwarding is
    /// semantically identical — which is what makes the post-swap virtual
    /// outputs byte-identical to an uninterrupted run.
    pub fn udp_swap_specs(
        stack: &NetStack,
        port: u16,
        target: IpAddr,
        version: &str,
        snapshot: FlowSnapshot,
    ) -> (Forwarder, Vec<InstallSpec<UdpPacket, ()>>) {
        let identity = Identity::extension(version);
        let state = FlowTable::shared(&snapshot.flows, snapshot.next_port, snapshot.stats);
        let specs = vec![
            InstallSpec {
                installer: identity.clone(),
                handler: Arc::new(udp_out_handler(stack, &state, port, target)),
                guards: vec![GuardSpec::KeyEq(
                    stack.events().udp_port_key.clone(),
                    u64::from(port),
                )],
                constraints: Constraints::default(),
            },
            InstallSpec {
                installer: identity.clone(),
                handler: Arc::new(udp_back_handler(stack, &state, port)),
                guards: vec![GuardSpec::KeyRange(
                    stack.events().udp_port_key.clone(),
                    40_000,
                    u64::from(u16::MAX),
                )],
                constraints: Constraints::default(),
            },
        ];
        (Forwarder { state, identity }, specs)
    }

    /// Installs a TCP forwarder: whole segments (including SYN/FIN/RST
    /// control) to `port` are redirected to `target` — this is what
    /// preserves end-to-end semantics.
    pub fn install_tcp(stack: &NetStack, port: u16, target: IpAddr) -> Forwarder {
        let identity = Identity::extension("Forward");
        let state = FlowTable::shared(&[], 40_000, ForwardStats::default());

        let st2 = state.clone();
        let stack2 = stack.clone();
        stack
            .events()
            .tcp_arrived
            .install_keyed(
                Identity::extension("Forward"),
                &stack.events().tcp_port_key,
                u64::from(port),
                move |s: &TcpSegment| {
                    let rewritten = {
                        let mut st = st2.lock();
                        st.forwarded += 1;
                        st.translate((s.ip.src, s.header.src_port))
                    };
                    let mut h = s.header;
                    h.src_port = rewritten;
                    stack2.transmit_with_retry(
                        target,
                        proto::TCP,
                        h.encode_chain(s.payload.clone()),
                    );
                },
            )
            .expect("install TCP forwarder (out)");
        stack.topology().note("TCP.PktArrived", "Forward");

        let st3 = state.clone();
        let stack3 = stack.clone();
        stack
            .events()
            .tcp_arrived
            .install_specs(
                Identity::extension("Forward"),
                vec![GuardSpec::KeyRange(
                    stack.events().tcp_port_key.clone(),
                    40_000,
                    u64::from(u16::MAX),
                )],
                move |s: &TcpSegment| {
                    let client = {
                        let mut st = st3.lock();
                        match st.back.get(&s.header.dst_port).copied() {
                            Some(c) => {
                                st.replies += 1;
                                c
                            }
                            None => return,
                        }
                    };
                    let mut h = s.header;
                    h.src_port = port;
                    h.dst_port = client.1;
                    stack3.transmit_with_retry(
                        client.0,
                        proto::TCP,
                        h.encode_chain(s.payload.clone()),
                    );
                },
            )
            .expect("install TCP forwarder (back)");

        Forwarder { state, identity }
    }

    /// Counters so far.
    pub fn stats(&self) -> ForwardStats {
        self.state.lock().stats()
    }

    /// The identity this forwarder's handlers are installed under — the
    /// `old_installer` a hot-swap rebind replaces.
    pub fn identity(&self) -> &Identity {
        &self.identity
    }

    /// A deterministic export of the flow table (sorted by rewritten
    /// port) — the typed `Old` state for a hot-swap transfer.
    pub fn snapshot(&self) -> FlowSnapshot {
        let st = self.state.lock();
        let mut flows: Vec<(IpAddr, u16, u16)> = st
            .out
            .iter()
            .map(|(&(ip, client_port), &rewritten)| (ip, client_port, rewritten))
            .collect();
        flows.sort_by_key(|&(_, _, rewritten)| rewritten);
        FlowSnapshot {
            flows,
            next_port: st.next_port,
            stats: st.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::Medium;
    use crate::tcp::TcpStack;
    use crate::testrig::ThreeHosts;

    #[test]
    fn udp_requests_are_forwarded_and_replies_retrace() {
        // A (client) → B (forwarder) → C (server), replies C → B → A.
        let rig = ThreeHosts::new();
        let fwd = Forwarder::install_udp(&rig.b, 7, rig.c.ip_on(Medium::Ethernet));
        // Echo server on C.
        let c2 = rig.c.clone();
        let _echo = crate::socket::UdpSocket::bind_with(&rig.c, 7, "echo", move |p| {
            let _ = c2.udp_send(7, p.ip.src, p.header.src_port, &p.payload);
        })
        .unwrap();
        // Client on A: a blocking request/reply to the *forwarder's* IP.
        let a = rig.a.clone();
        let b_ip = rig.b.ip_on(Medium::Ethernet);
        let reply_ch = crate::socket::UdpSocket::bind(&rig.a, 5555, "client", 4).unwrap();
        let got = Arc::new(Mutex::new(Vec::new()));
        let g2 = got.clone();
        rig.exec.spawn("client", move |ctx| {
            a.udp_send(5555, b_ip, 7, b"through the forwarder").unwrap();
            let reply = reply_ch.recv(ctx).expect("echo reply");
            g2.lock().extend_from_slice(&reply.payload);
        });
        rig.exec.run_until_idle();
        assert_eq!(&got.lock()[..], b"through the forwarder");
        let s = fwd.stats();
        assert_eq!(s.forwarded, 1);
        assert_eq!(s.replies, 1);
        assert_eq!(s.flows, 1);
    }

    #[test]
    fn v2_from_snapshot_keeps_flows_and_counters_across_a_rebind() {
        // Open a flow under v1, hot-swap the handlers to a v2 built from
        // the snapshot, and check the same client's next request reuses
        // the transferred flow (same rewritten port, counters carried).
        let rig = ThreeHosts::new();
        let target = rig.c.ip_on(Medium::Ethernet);
        let fwd = Forwarder::install_udp(&rig.b, 7, target);
        let c2 = rig.c.clone();
        let _echo = crate::socket::UdpSocket::bind_with(&rig.c, 7, "echo", move |p| {
            let _ = c2.udp_send(7, p.ip.src, p.header.src_port, &p.payload);
        })
        .unwrap();
        let b_ip = rig.b.ip_on(Medium::Ethernet);
        let reply_ch = crate::socket::UdpSocket::bind(&rig.a, 5555, "client", 4).unwrap();
        let round = |tag: &'static [u8]| {
            let a = rig.a.clone();
            let ch = reply_ch.clone();
            rig.exec.spawn("client", move |ctx| {
                a.udp_send(5555, b_ip, 7, tag).unwrap();
                ch.recv(ctx).expect("echo reply");
            });
            rig.exec.run_until_idle();
        };
        round(b"before swap");
        let snapshot = fwd.snapshot();
        assert_eq!(snapshot.flows.len(), 1);

        let (v2, specs) = Forwarder::udp_swap_specs(&rig.b, 7, target, "Forward-v2", snapshot);
        rig.b
            .events()
            .udp_arrived
            .rebind(fwd.identity(), fwd.identity(), specs)
            .unwrap();

        round(b"after swap");
        let s = v2.stats();
        assert_eq!(s.forwarded, 2, "v1's counters carried into v2");
        assert_eq!(s.replies, 2);
        assert_eq!(s.flows, 1, "the client's flow survived the swap");
        // The old handle's table is no longer fed.
        assert_eq!(fwd.stats().forwarded, 1);
    }

    #[test]
    fn failed_forwards_retry_with_a_bounded_budget() {
        // Forward to an unroutable target: every transmit fails, so the
        // forwarder retries exactly FWD_RETRY_MAX times and then drops.
        let rig = ThreeHosts::new();
        let nowhere = IpAddr::new(10, 99, 99, 99);
        let fwd = Forwarder::install_udp(&rig.b, 7, nowhere);
        let a = rig.a.clone();
        let b_ip = rig.b.ip_on(Medium::Ethernet);
        rig.exec.spawn("client", move |_| {
            a.udp_send(5555, b_ip, 7, b"black hole").unwrap();
        });
        rig.exec.run_until_idle();
        let s = fwd.stats();
        assert_eq!(s.forwarded, 1);
        assert_eq!(s.replies, 0);
        // Retries are counted once, at the stack.
        assert_eq!(
            rig.b.stats().retries,
            u64::from(crate::stack::RETRY_MAX),
            "budget fully consumed"
        );
        // The last attempt ran 1 + 2 + 4 + 8 ms after the first (which the
        // datagram's own trip puts under a millisecond in).
        let backoff = 15 * crate::stack::RETRY_BASE;
        let ended = rig.board.clock.now();
        assert!(
            (backoff..backoff + crate::stack::RETRY_BASE).contains(&ended),
            "doubling backoff capped at RETRY_CAP, idle at {ended}"
        );
    }

    #[test]
    fn tcp_connections_established_through_the_forwarder() {
        // The paper's point: control packets (SYN/FIN) forward too, so a
        // full TCP connection works end-to-end through the splice.
        let rig = ThreeHosts::new();
        let _fwd = Forwarder::install_tcp(&rig.b, 80, rig.c.ip_on(Medium::Ethernet));
        let tcp_a = TcpStack::install(&rig.a);
        let tcp_c = TcpStack::install(&rig.c);

        let listener = tcp_c.listen(80);
        rig.exec.spawn("server", move |ctx| {
            let conn = listener.accept(ctx).expect("forwarded SYN");
            let req = conn.recv(ctx).expect("data");
            assert_eq!(&req[..], b"GET /");
            conn.send(ctx, b"200 OK").unwrap();
            conn.close(ctx);
        });
        let b_ip = rig.b.ip_on(Medium::Ethernet);
        let done = Arc::new(Mutex::new(false));
        let d2 = done.clone();
        rig.exec.spawn("client", move |ctx| {
            let conn = tcp_a
                .connect(ctx, b_ip, 80)
                .expect("handshake through forwarder");
            conn.send(ctx, b"GET /").unwrap();
            let reply = conn.recv(ctx).expect("reply");
            assert_eq!(&reply[..], b"200 OK");
            conn.close(ctx);
            *d2.lock() = true;
        });
        rig.exec.run_until_idle();
        assert!(*done.lock());
    }
}
