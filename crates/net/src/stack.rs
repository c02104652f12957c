//! The extensible protocol stack (Figure 5).
//!
//! "Each incoming packet is 'pushed' through the protocol graph by events
//! and 'pulled' by handlers" (§5.3). The graph is built exactly as the
//! paper describes:
//!
//! * the NIC interrupt handler unblocks a **separately scheduled kernel
//!   thread** ("protocol processing is done by a separately scheduled
//!   kernel thread outside of the interrupt handler");
//! * that thread raises `Ether.PktArrived` / `ATM.PktArrived`;
//! * the IP module's handler parses the packet and raises
//!   `IP.PacketArrived`; UDP, TCP and ICMP install handlers on it **with
//!   guards comparing the protocol type field** — the paper's worked
//!   example of per-instance dispatch ("the IP module ... constructs a
//!   guard that compares the type field in the header of the incoming
//!   packet");
//! * applications bind handlers on `UDP.PktArrived` guarded by port.
//!
//! The outgoing side raises `SendPacket`, whose default implementation
//! transmits; extensions can suppress and replace the transmission — the
//! video server's multicast handler (§5.4) hangs here.

use crate::pkt::{
    proto, EtherHeader, IcmpHeader, IcmpKind, IpAddr, Ipv4Header, TcpHeader, UdpHeader,
    ETHERTYPE_IPV4,
};
use crate::poll::{ReadyBatch, ReadyHub};
use crate::rpc::RpcCounts;
use bytes::{Bytes, BytesMut};
use spin_check::sync::{AtomicU64, Counter, Ordering};
use spin_check::sync::{Mutex, RwLock};
use spin_core::{
    Constraints, Dispatcher, Event, HandlerMode, Identity, InstallDecision, KeyFn, KeyHasher,
};
use spin_obs::{ObsHook, TraceKind};
use spin_sal::vectors;
use spin_sal::{BufChain, Cost, Host, Nanos, WireEndpoint};
use spin_sal::{Nic, NicError};
use spin_sched::{Executor, KChannel, Step, StrandCtx};
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;
use std::sync::Arc;

/// Which attached medium a packet used; its discriminant indexes the
/// per-medium arrays of a stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Medium {
    Ethernet,
    Atm,
    T3,
}

/// The simulation-wide IP → attachment registry (static ARP).
///
/// The one table of this layer that every shard shares: each transmitted
/// packet resolves against it, from whichever worker drives the sender,
/// and registrations happen at host set-up. Resolvers share a read lock
/// and never block each other. It is only ever looked up, so it hashes an
/// address with the dispatcher's one-multiplication [`KeyHasher`]. Every
/// registration moves its version, so a sender that resolved a route can
/// tell with one load that the route still holds.
#[derive(Clone, Default)]
pub struct AddressMap {
    entries: Arc<RwLock<Routes>>,
    version: Arc<AtomicU64>,
}

type Routes = HashMap<IpAddr, (Medium, WireEndpoint), BuildHasherDefault<KeyHasher>>;

impl AddressMap {
    /// An empty map.
    // uncharged: constructor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an address.
    // uncharged: address registration is control-plane.
    pub(crate) fn register(&self, ip: IpAddr, medium: Medium, endpoint: WireEndpoint) {
        let mut entries = self.entries.write();
        entries.insert(ip, (medium, endpoint));
        self.version.fetch_add(1, Ordering::Release); // ordering: Release — moved under the write lock, after the insert; pairs with `version`'s Acquire.
    }

    /// How many registrations the map has seen: a route resolved after this
    /// was read holds for as long as it does not move.
    // uncharged: one load.
    pub(crate) fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire) // ordering: Acquire — pairs with `register`'s Release.
    }

    /// Resolves an address (per-packet hot path; shared read access).
    // uncharged: lookup cost is folded into the sender's per-hop charge.
    pub(crate) fn resolve(&self, ip: IpAddr) -> Option<(Medium, WireEndpoint)> {
        self.entries.read().get(&ip).copied()
    }
}

/// A frame handed up from a link layer.
#[derive(Clone)]
pub struct LinkFrame {
    pub medium: Medium,
    pub bytes: Bytes,
}

/// An IP packet in flight up the stack.
#[derive(Clone)]
pub struct IpPacket {
    pub header: Ipv4Header,
    pub payload: Bytes,
    pub medium: Medium,
}

/// A UDP datagram delivered to `UDP.PktArrived` handlers.
#[derive(Clone)]
pub struct UdpPacket {
    pub ip: Ipv4Header,
    pub header: UdpHeader,
    pub payload: Bytes,
}

/// A TCP segment delivered to `TCP.PktArrived` handlers.
#[derive(Clone)]
pub struct TcpSegment {
    pub ip: Ipv4Header,
    pub header: TcpHeader,
    pub payload: Bytes,
}

/// An ICMP message delivered to `ICMP.PktArrived` handlers.
#[derive(Clone)]
pub struct IcmpPacket {
    pub ip: Ipv4Header,
    pub header: IcmpHeader,
    pub payload: Bytes,
}

/// An outgoing transmission presented to `SendPacket` handlers.
#[derive(Clone)]
pub struct SendRequest {
    pub dst: IpAddr,
    pub protocol: u8,
    /// The transport-layer segment (UDP/TCP/ICMP bytes): the sender's
    /// chain, sharing its payload (cloning it for the raise allocates
    /// nothing). Inspectors flatten with [`BufChain::to_bytes`], which is
    /// the segment itself when the sender passed one buffer and a copy
    /// into a new one when it passed header + payload.
    pub payload: BufChain,
}

/// What `SendPacket` handlers decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendVerdict {
    /// Transmit normally.
    Transmit,
    /// A handler took responsibility (e.g. multicast fan-out); do not
    /// transmit the original.
    Suppressed,
}

/// The events of the protocol graph.
#[derive(Clone)]
pub struct NetEvents {
    pub ether_arrived: Event<LinkFrame, ()>,
    pub atm_arrived: Event<LinkFrame, ()>,
    pub t3_arrived: Event<LinkFrame, ()>,
    pub ip_arrived: Event<IpPacket, ()>,
    pub udp_arrived: Event<UdpPacket, ()>,
    pub tcp_arrived: Event<TcpSegment, ()>,
    pub icmp_arrived: Event<IcmpPacket, ()>,
    pub send_packet: Event<SendRequest, SendVerdict>,
    /// The shared protocol-number key on `IP.PacketArrived`. Handlers
    /// keyed on it (UDP/TCP/ICMP demux, extensions) collapse into one
    /// dispatch-table lookup per raise — install with
    /// [`Event::install_keyed`] to join the compiled path.
    pub ip_proto_key: KeyFn<IpPacket>,
    /// The shared destination-port key on `UDP.PktArrived` (port binds).
    pub udp_port_key: KeyFn<UdpPacket>,
    /// The shared destination-port key on `TCP.PktArrived`.
    pub tcp_port_key: KeyFn<TcpSegment>,
    /// The aggregated readiness event: one raise per poller per inbound
    /// burst, demultiplexed by [`NetEvents::ready_poller_key`].
    pub net_ready: Event<ReadyBatch, ()>,
    /// The shared poller-id key on `Net.Ready` (each [`crate::poll::NetPoller`]
    /// installs keyed on its own id).
    pub ready_poller_key: KeyFn<ReadyBatch>,
}

/// Edges of the Figure 5 graph, recorded as extensions install handlers.
#[derive(Clone, Default)]
pub struct Topology {
    edges: Arc<Mutex<Vec<(String, String)>>>,
}

impl Topology {
    /// Records "`event` is handled by `handler`".
    // uncharged: Figure 5 diagnostics recorder.
    pub(crate) fn note(&self, event: &str, handler: &str) {
        self.edges
            .lock()
            .push((event.to_string(), handler.to_string()));
    }

    /// All recorded edges, sorted.
    // uncharged: Figure 5 diagnostics recorder.
    pub fn edges(&self) -> Vec<(String, String)> {
        let mut e = self.edges.lock().clone();
        e.sort();
        e.dedup();
        e
    }

    /// Renders the graph as indented text (the Figure 5 printout).
    // uncharged: Figure 5 diagnostics recorder.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let edges = self.edges();
        let mut events: Vec<&String> = edges.iter().map(|(e, _)| e).collect();
        events.dedup();
        for event in events {
            out.push_str(&format!("{event}\n"));
            for (e, h) in &edges {
                if e == event {
                    out.push_str(&format!("  -> {h}\n"));
                }
            }
        }
        out
    }
}

/// Network statistics for one stack. The frame and byte counts are its
/// host's NICs' books, summed ([`Nic::counters`]): a frame is counted out
/// when the wire takes it and in when netin takes it off a ring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    pub frames_in: u64,
    pub frames_out: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    /// Transmit retries scheduled by `NetStack::transmit_with_retry` —
    /// the single authoritative retry count.
    pub retries: u64,
}

/// Retry backoff floor for [`NetStack::transmit_with_retry`].
pub(crate) const RETRY_BASE: Nanos = 1_000_000;
/// Retry backoff ceiling.
const RETRY_CAP: Nanos = 8_000_000;
/// Retry budget per packet.
pub(crate) const RETRY_MAX: u32 = 4;

/// Pingers parked on (ident, seq), woken by the matching echo reply.
type PingWaiters = HashMap<(u16, u16), Arc<KChannel<Nanos>>>;

struct NetInner {
    host: Host,
    exec: Arc<Executor>,
    addrs: AddressMap,
    /// This host's address on each medium, indexed by [`Medium`].
    my_ips: [IpAddr; 3],
    events: NetEvents,
    topology: Topology,
    ping_waiters: Mutex<PingWaiters>,
    ping_seq: Counter,
    /// The one count this layer keeps itself: retries scheduled.
    retries: Counter,
    /// The books of the RPC packages bound to this stack, whose
    /// retransmits the net domain reads beside the stack's retries.
    rpcs: Mutex<Vec<Arc<RpcCounts>>>,
    /// Observability hook (net domain): absent until wired; the per-frame
    /// paths then pay one atomic load each.
    obs: Arc<spin_check::hooks::HookSlot<ObsHook>>,
    /// Fault-injection hook (`net.stack` site), drawn per transmitted
    /// frame: `Fail` drops the frame as [`NetError::Faulted`], `Delay`
    /// stalls the sender on the virtual clock, `Panic` unwinds (contained
    /// by the dispatcher when transmitting from a handler).
    faults: Arc<spin_check::hooks::HookSlot<spin_fault::FaultHook>>,
    /// The readiness scoreboard, flushed by the protocol thread after
    /// each inbound burst.
    ready_hub: Arc<ReadyHub>,
    /// Poller id allocator (`Net.Ready` demux keys).
    next_poller: Counter,
    /// Per-poller `time_bound` grants (see the `Net.Ready` authorizer).
    poller_bounds: Arc<Mutex<HashMap<String, Nanos>>>,
}

/// One host's protocol stack.
#[derive(Clone)]
pub struct NetStack {
    inner: Arc<NetInner>,
}

impl NetStack {
    /// Installs the stack on a host: defines the events, builds the
    /// default protocol graph, registers NIC interrupt handlers and spawns
    /// the protocol thread. `eth_ip`/`atm_ip`/`t3_ip` attach the host to
    /// the three media.
    pub fn install(
        host: &Host,
        exec: &Arc<Executor>,
        dispatcher: &Dispatcher,
        addrs: &AddressMap,
        eth_ip: IpAddr,
        atm_ip: IpAddr,
        t3_ip: IpAddr,
    ) -> NetStack {
        // Per-poller `time_bound` grants, consulted by the `Net.Ready`
        // install authorizer (keyed by the poller's installer label).
        let poller_bounds: Arc<Mutex<HashMap<String, Nanos>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let events = NetEvents {
            ether_arrived: Self::define_link(dispatcher, "Ether.PktArrived"),
            atm_arrived: Self::define_link(dispatcher, "ATM.PktArrived"),
            t3_arrived: Self::define_link(dispatcher, "T3.PktArrived"),
            ip_arrived: {
                let (ev, owner) =
                    dispatcher.define::<IpPacket, ()>("IP.PacketArrived", Identity::kernel("IP"));
                owner.set_primary(|_| ()).expect("fresh event");
                ev
            },
            udp_arrived: {
                let (ev, owner) =
                    dispatcher.define::<UdpPacket, ()>("UDP.PktArrived", Identity::kernel("UDP"));
                owner.set_primary(|_| ()).expect("fresh event");
                ev
            },
            tcp_arrived: {
                let (ev, owner) =
                    dispatcher.define::<TcpSegment, ()>("TCP.PktArrived", Identity::kernel("TCP"));
                owner.set_primary(|_| ()).expect("fresh event");
                ev
            },
            icmp_arrived: {
                let (ev, owner) = dispatcher
                    .define::<IcmpPacket, ()>("ICMP.PktArrived", Identity::kernel("ICMP"));
                owner.set_primary(|_| ()).expect("fresh event");
                ev
            },
            send_packet: {
                let (ev, owner) = dispatcher
                    .define::<SendRequest, SendVerdict>("SendPacket", Identity::kernel("IP"));
                owner
                    .set_primary(|_| SendVerdict::Transmit)
                    .expect("fresh event");
                // If any handler suppressed, the send is suppressed.
                owner
                    .set_reducer(|results| {
                        if results.contains(&SendVerdict::Suppressed) {
                            SendVerdict::Suppressed
                        } else {
                            SendVerdict::Transmit
                        }
                    })
                    .expect("fresh event");
                ev
            },
            ip_proto_key: KeyFn::new(|p: &IpPacket| u64::from(p.header.protocol)),
            udp_port_key: KeyFn::new(|p: &UdpPacket| u64::from(p.header.dst_port)),
            tcp_port_key: KeyFn::new(|s: &TcpSegment| u64::from(s.header.dst_port)),
            net_ready: {
                let (ev, owner) =
                    dispatcher.define::<ReadyBatch, ()>("Net.Ready", Identity::kernel("Net"));
                owner.set_primary(|_| ()).expect("fresh event");
                // Pollers registered with a `time_bound` get it applied to
                // their delivery handler (the PR-3 abort machinery).
                let bounds = poller_bounds.clone();
                owner
                    .set_auth(move |req| InstallDecision::Allow {
                        owner_guard: None,
                        constraints: Some(Constraints {
                            mode: HandlerMode::Synchronous,
                            time_bound: bounds.lock().get(req.installer.name()).copied(),
                        }),
                    })
                    .expect("fresh event");
                ev
            },
            ready_poller_key: KeyFn::new(|b: &ReadyBatch| b.poller),
        };

        let my_ips = [eth_ip, atm_ip, t3_ip];
        addrs.register(eth_ip, Medium::Ethernet, host.ethernet.addr());
        addrs.register(atm_ip, Medium::Atm, host.atm.addr());
        addrs.register(t3_ip, Medium::T3, host.t3.addr());

        // The protocol strand: drained by NIC interrupts.
        let nics = [
            (
                Medium::Ethernet,
                host.ethernet.clone(),
                events.ether_arrived.clone(),
            ),
            (Medium::Atm, host.atm.clone(), events.atm_arrived.clone()),
            (Medium::T3, host.t3.clone(), events.t3_arrived.clone()),
        ];
        let ev2 = events.clone();
        let obs: Arc<spin_check::hooks::HookSlot<ObsHook>> =
            Arc::new(spin_check::hooks::HookSlot::new());
        let obs2 = Arc::clone(&obs);
        let ready_hub = Arc::new(ReadyHub::new());
        let hub2 = ready_hub.clone();
        // Run-to-completion: like the paper's interrupt-level protocol
        // handlers it never blocks mid-burst, so it needs no thread of its
        // own — a slice is one call on the pumping thread. Its burst
        // buffer lives as long as it does, so a burst allocates nothing.
        let mut ring = VecDeque::new();
        let irqs = host.irqs.clone();
        let proto_thread =
            exec.spawn_step_on(host.id, &format!("netin-{}", host.id.0), 12, move |_| {
                loop {
                    let mut any = false;
                    for (medium, nic, ev) in &nics {
                        // Take the ring in one critical section, then
                        // deliver it as one batched raise: the link event's
                        // plan snapshot, obs hooks and fault draws amortize
                        // across the burst. The NIC charges each frame's
                        // driver/PIO costs as it hands the frame over,
                        // exactly as `receive` did when each frame was
                        // raised singly.
                        let obs = obs2.get();
                        let taken = nic.receive_burst(&mut ring, |frame| {
                            if let Some(obs) = obs {
                                obs.trace(
                                    TraceKind::PacketRx,
                                    frame.payload.len() as u64,
                                    *medium as u64,
                                );
                            }
                        });
                        if taken > 0 {
                            any = true;
                            // The raise takes a frame when it is done with
                            // the one before, whose buffer then goes back
                            // to the NIC if nothing the raise ran kept a
                            // handle on it (DESIGN.md decision 36): the
                            // burst's later frames may be answered in it.
                            let mut passed = None;
                            ev.raise_burst(ring.drain(..).map(|frame| {
                                if let Some(done) = passed.replace(frame.payload.clone()) {
                                    nic.recycle(done);
                                }
                                LinkFrame {
                                    medium: *medium,
                                    bytes: frame.payload,
                                }
                            }));
                            if let Some(done) = passed {
                                nic.recycle(done);
                            }
                        }
                    }
                    if !any {
                        return Step::Block;
                    }
                    // Aggregate everything the burst made ready into one
                    // `Net.Ready` raise per poller. An idle hub (no
                    // pollers, or nothing newly ready) raises nothing and
                    // charges nothing.
                    hub2.flush(&ev2.net_ready);
                    // Another pass only if a frame can have arrived since
                    // this one began: every delivery posts its NIC's
                    // interrupt, and the executor dispatches interrupts
                    // only between slices, so an empty line proves the
                    // rings as empty as this pass left them.
                    if !irqs.has_pending() {
                        return Step::Block;
                    }
                }
            });
        let proto_thread = proto_thread.id();
        exec.set_daemon(proto_thread);
        // NIC interrupts unblock the protocol thread.
        for v in [vectors::ETHERNET, vectors::ATM, vectors::T3] {
            let e2 = exec.clone();
            let taken = host.irqs.register(v, move || e2.unblock(proto_thread));
            assert!(taken, "one network stack per host: {v:?} has a handler");
        }

        let inner = Arc::new(NetInner {
            host: host.clone(),
            exec: exec.clone(),
            addrs: addrs.clone(),
            my_ips,
            events,
            topology: Topology::default(),
            ping_waiters: Mutex::new(HashMap::new()),
            ping_seq: Counter::new(1),
            retries: Counter::default(),
            rpcs: Mutex::new(Vec::new()),
            obs,
            faults: Arc::new(spin_check::hooks::HookSlot::new()),
            ready_hub,
            next_poller: Counter::new(1),
            poller_bounds,
        });
        let stack = NetStack { inner };
        stack.build_default_graph();
        stack
    }

    fn define_link(dispatcher: &Dispatcher, name: &str) -> Event<LinkFrame, ()> {
        let (ev, owner) = dispatcher.define::<LinkFrame, ()>(name, Identity::kernel("Link"));
        owner.set_primary(|_| ()).expect("fresh event");
        ev
    }

    /// Installs the default IP / UDP / TCP / ICMP handlers — the core
    /// edges of Figure 5.
    fn build_default_graph(&self) {
        let ev = self.inner.events.clone();
        let topo = &self.inner.topology;

        // Link → IP (Ethernet carries an Ethernet header; ATM and T3 are
        // raw IP).
        let ip_ev = ev.ip_arrived.clone();
        self.inner
            .events
            .ether_arrived
            .install(Identity::kernel("IP"), move |f: &LinkFrame| {
                if let Some((eh, ip_bytes)) = EtherHeader::decode(&f.bytes) {
                    if eh.ethertype == ETHERTYPE_IPV4 {
                        if let Some((header, payload)) = Ipv4Header::decode(&ip_bytes) {
                            let _ = ip_ev.raise(IpPacket {
                                header,
                                payload,
                                medium: f.medium,
                            });
                        }
                    }
                }
            })
            .expect("install IP on ether");
        topo.note("Ether.PktArrived", "IP");
        for (link_ev, name) in [(&ev.atm_arrived, "ATM"), (&ev.t3_arrived, "T3")] {
            let ip_ev = ev.ip_arrived.clone();
            link_ev
                .install(Identity::kernel("IP"), move |f: &LinkFrame| {
                    if let Some((header, payload)) = Ipv4Header::decode(&f.bytes) {
                        let _ = ip_ev.raise(IpPacket {
                            header,
                            payload,
                            medium: f.medium,
                        });
                    }
                })
                .expect("install IP on link");
            topo.note(&format!("{name}.PktArrived"), "IP");
        }

        // IP → transports, guarded by the protocol type field (§3.2's
        // worked example of guards). Keyed on the shared protocol-number
        // key so the three demux guards compile into a single table
        // lookup per raise; the virtual-time charges are the same as the
        // opaque closures they replace.
        let udp_ev = ev.udp_arrived.clone();
        ev.ip_arrived
            .install_keyed(
                Identity::kernel("UDP"),
                &ev.ip_proto_key,
                u64::from(proto::UDP),
                move |p: &IpPacket| {
                    if let Some((header, payload)) = UdpHeader::decode(&p.payload) {
                        let _ = udp_ev.raise(UdpPacket {
                            ip: p.header,
                            header,
                            payload,
                        });
                    }
                },
            )
            .expect("install UDP");
        topo.note("IP.PacketArrived", "UDP");

        let tcp_ev = ev.tcp_arrived.clone();
        ev.ip_arrived
            .install_keyed(
                Identity::kernel("TCP"),
                &ev.ip_proto_key,
                u64::from(proto::TCP),
                move |p: &IpPacket| {
                    if let Some((header, payload)) = TcpHeader::decode(&p.payload) {
                        let _ = tcp_ev.raise(TcpSegment {
                            ip: p.header,
                            header,
                            payload,
                        });
                    }
                },
            )
            .expect("install TCP");
        topo.note("IP.PacketArrived", "TCP");

        let icmp_ev = ev.icmp_arrived.clone();
        ev.ip_arrived
            .install_keyed(
                Identity::kernel("ICMP"),
                &ev.ip_proto_key,
                u64::from(proto::ICMP),
                move |p: &IpPacket| {
                    if let Some((header, payload)) = IcmpHeader::decode(&p.payload) {
                        let _ = icmp_ev.raise(IcmpPacket {
                            ip: p.header,
                            header,
                            payload,
                        });
                    }
                },
            )
            .expect("install ICMP");
        topo.note("IP.PacketArrived", "ICMP");

        // ICMP default implementation: echo requests are answered, echo
        // replies wake pingers.
        let me = self.clone();
        ev.icmp_arrived
            .install(Identity::kernel("ICMP"), move |p: &IcmpPacket| {
                match p.header.kind {
                    IcmpKind::EchoRequest => {
                        let reply = IcmpHeader {
                            kind: IcmpKind::EchoReply,
                            ident: p.header.ident,
                            seq: p.header.seq,
                        }
                        .encode(&p.payload);
                        let _ = me.send_ip(p.ip.src, proto::ICMP, reply);
                    }
                    IcmpKind::EchoReply => {
                        let waiter = me
                            .inner
                            .ping_waiters
                            .lock()
                            .remove(&(p.header.ident, p.header.seq));
                        if let Some(ch) = waiter {
                            ch.try_push(me.inner.exec.clock().now());
                        }
                    }
                }
            })
            .expect("install ICMP echo");
        topo.note("ICMP.PktArrived", "Ping");
    }

    /// Wires the observability subsystem: frames crossing this stack are
    /// traced to the net domain, which reads [`NetStack::stats`] and the
    /// retransmits of the stack's RPC packages. One-shot; charges zero
    /// virtual time.
    // uncharged: one-shot control-plane wiring.
    pub fn set_obs(&self, hook: ObsHook) {
        if self.inner.obs.set(hook.clone()) {
            let book = Arc::downgrade(&self.inner);
            hook.read(move |t| {
                if let Some(net) = book.upgrade() {
                    let load = |r: &Arc<RpcCounts>| r.retries.get();
                    let rpc_retries: u64 = net.rpcs.lock().iter().map(load).sum();
                    let s = NetStack { inner: net }.stats();
                    t.packets_sent += s.frames_out;
                    t.bytes_sent += s.bytes_out;
                    t.packets_received += s.frames_in;
                    t.bytes_received += s.bytes_in;
                    t.retries += s.retries + rpc_retries;
                }
            });
        }
    }

    /// Binds an RPC package's book to this stack (see [`NetStack::stats`]).
    // uncharged: control-plane wiring.
    pub(crate) fn bind_rpc(&self, book: Arc<RpcCounts>) {
        self.inner.rpcs.lock().push(book);
    }

    /// Wires the deterministic fault-injection plan's `net.stack` site.
    /// One-shot; absent hooks cost nothing on the transmit path.
    // uncharged: one-shot control-plane wiring.
    pub fn set_fault_hook(&self, hook: spin_fault::FaultHook) {
        let _ = self.inner.faults.set(hook);
    }

    /// The wired observability hook, if any (measurement harnesses park
    /// their histograms in its accounting registry).
    // uncharged: accessor.
    pub(crate) fn obs(&self) -> Option<&ObsHook> {
        self.inner.obs.get()
    }

    /// The event bundle (for extensions).
    // uncharged: accessor.
    pub fn events(&self) -> &NetEvents {
        &self.inner.events
    }

    /// The Figure 5 topology recorder.
    // uncharged: accessor.
    pub fn topology(&self) -> &Topology {
        &self.inner.topology
    }

    /// The executor this stack runs on.
    // uncharged: accessor.
    pub fn executor(&self) -> &Arc<Executor> {
        &self.inner.exec
    }

    /// This host's IP on a medium.
    // uncharged: accessor.
    pub fn ip_on(&self, medium: Medium) -> IpAddr {
        self.inner.my_ips[medium as usize]
    }

    /// Sends a transport segment to `dst`, running the `SendPacket`
    /// extension point first.
    // charged: one `SendPacket` raise plus the transmit path's NIC charges.
    pub(crate) fn send_ip(
        &self,
        dst: IpAddr,
        protocol: u8,
        segment: impl Into<BufChain>,
    ) -> Result<(), NetError> {
        self.send_segment(dst, protocol, segment.into(), None)
    }

    /// [`NetStack::send_ip`] of a segment that may already sit in the
    /// frame its route carries (`framed`, from [`NetStack::udp_send`]).
    // charged: as `send_ip`.
    fn send_segment(
        &self,
        dst: IpAddr,
        protocol: u8,
        segment: BufChain,
        framed: Option<Routed>,
    ) -> Result<(), NetError> {
        let verdict = self.inner.events.send_packet.raise(SendRequest {
            dst,
            protocol,
            payload: segment.clone(),
        });
        if suppressed(&verdict) {
            return Ok(());
        }
        let (medium, endpoint, frame) = self.prepare_frame(dst, protocol, &segment, framed)?;
        self.hand_off(medium, |nic| nic.send(endpoint, frame))
    }

    /// Sends a burst of transport segments: one batched `SendPacket`
    /// raise (one plan snapshot for the whole burst, per-item charges
    /// unchanged), then one per-NIC wire handoff for the surviving
    /// frames. Per-frame fault draws, routing and stats are exactly those
    /// of sequential `NetStack::send_ip` calls; returns the first error.
    // charged: one batched `SendPacket` raise (per-item charges identical
    // to lone raises) plus per-frame NIC charges via `send_burst`.
    pub fn send_ip_burst(&self, items: Vec<(IpAddr, u8, BufChain)>) -> Result<(), NetError> {
        if items.is_empty() {
            return Ok(());
        }
        let reqs: Vec<SendRequest> = items
            .iter()
            .map(|(dst, protocol, payload)| SendRequest {
                dst: *dst,
                protocol: *protocol,
                payload: payload.clone(),
            })
            .collect();
        let verdicts = self.inner.events.send_packet.raise_batch(reqs);
        // Consecutive frames for one medium leave as one NIC burst.
        let mut per_nic: Vec<(Medium, Vec<(WireEndpoint, Bytes)>)> = Vec::new();
        let mut outcome = Ok(());
        for ((dst, protocol, chain), verdict) in items.into_iter().zip(verdicts) {
            if suppressed(&verdict) {
                continue;
            }
            match self.prepare_frame(dst, protocol, &chain, None) {
                Ok((medium, endpoint, frame)) => match per_nic.last_mut() {
                    Some((m, batch)) if *m == medium => batch.push((endpoint, frame)),
                    _ => per_nic.push((medium, vec![(endpoint, frame)])),
                },
                Err(e) => outcome = outcome.and(Err(e)),
            }
        }
        for (medium, batch) in per_nic {
            outcome = outcome.and(self.hand_off(medium, |nic| nic.send_burst(batch)));
        }
        outcome
    }

    /// Transmits without consulting `SendPacket` (used by handlers that
    /// have already claimed the packet, e.g. multicast fan-out).
    // charged: frame assembly is uncharged; the NIC charges driver/PIO/DMA
    // costs on handoff.
    pub(crate) fn transmit(
        &self,
        dst: IpAddr,
        protocol: u8,
        segment: impl Into<BufChain>,
    ) -> Result<(), NetError> {
        self.transmit_chain(dst, protocol, &segment.into())
    }

    /// [`NetStack::transmit`] of a chain the caller keeps (a retry sends
    /// the same one again).
    // charged: as `transmit`.
    fn transmit_chain(
        &self,
        dst: IpAddr,
        protocol: u8,
        segment: &BufChain,
    ) -> Result<(), NetError> {
        let (medium, endpoint, frame) = self.prepare_frame(dst, protocol, segment, None)?;
        self.hand_off(medium, |nic| nic.send(endpoint, frame))
    }

    /// Transmits, retrying on failure with capped exponential backoff on
    /// the virtual timers. Each retry is counted in the stack's
    /// [`NetStats::retries`]. The caller (typically a packet
    /// handler) is never blocked: retries run from timer callbacks, so
    /// runs stay deterministic.
    // charged: each attempt pays the full transmit charge; retries fire
    // from virtual timers so the caller pays nothing extra.
    pub(crate) fn transmit_with_retry(
        &self,
        dst: IpAddr,
        protocol: u8,
        segment: impl Into<BufChain>,
    ) {
        self.attempt(dst, protocol, segment.into(), 0, RETRY_BASE);
    }

    /// One attempt: transmit, and on failure — while the budget lasts —
    /// count a retry and make the next attempt `delay` later.
    // charged: the transmit charge, at this attempt's virtual instant; the
    // retry bookkeeping itself is a counter write.
    fn attempt(&self, dst: IpAddr, protocol: u8, segment: BufChain, retries: u32, delay: Nanos) {
        if self.transmit_chain(dst, protocol, &segment).is_ok() || retries == RETRY_MAX {
            return; // sent, or budget exhausted: drop, as a datagram service may
        }
        self.inner.retries.add(1);
        let at = self.inner.exec.clock().now() + delay;
        let me = self.clone();
        self.inner.exec.timers().schedule_at(at, move |_| {
            me.attempt(
                dst,
                protocol,
                segment,
                retries + 1,
                (delay * 2).min(RETRY_CAP),
            )
        });
    }

    /// Per-frame transmit bookkeeping: fault draw, route resolution, frame
    /// assembly and the `PacketTx` trace; the frame is counted sent only
    /// once its NIC takes it (`hand_off`). The returned frame is the one
    /// buffer this path uses ([`frame_bytes`]), its NIC's spare one when
    /// one fits; writing the segment into it is the device-boundary copy.
    /// A segment already written into its frame (`framed`) is not written
    /// again while the route it was framed for is still the route, and
    /// that route is not resolved again unless the address map has moved
    /// since.
    // charged: assembly is uncharged; the NIC charges driver/PIO/DMA costs
    // when the frame is handed over.
    fn prepare_frame(
        &self,
        dst: IpAddr,
        protocol: u8,
        segment: &BufChain,
        framed: Option<Routed>,
    ) -> Result<Framed, NetError> {
        if let Some(h) = self.inner.faults.get() {
            match h.draw() {
                Some(spin_fault::Injection::Panic) => h.fire_panic(),
                Some(spin_fault::Injection::Delay(ns)) => {
                    self.inner.exec.clock().charge(Cost::Injected, ns)
                }
                Some(spin_fault::Injection::Fail) => return Err(NetError::Faulted { dst }),
                None => {}
            }
        }
        let addrs = &self.inner.addrs;
        let (medium, endpoint, frame) = match framed {
            // Nothing was registered since the frame was written.
            Some(routed) if routed.version == addrs.version() => routed.framed,
            framed => {
                let (medium, endpoint) = addrs.resolve(dst).ok_or(NetError::NoRoute { dst })?;
                let kept = framed.map(|routed| routed.framed);
                kept.filter(|(m, e, _)| (*m, *e) == (medium, endpoint))
                    .unwrap_or_else(|| {
                        let write = |out: &mut [u8]| segment.copy_to_slice(out);
                        let frame =
                            self.frame(medium, endpoint, dst, protocol, segment.len(), write);
                        (medium, endpoint, frame)
                    })
            }
        };
        if let Some(obs) = self.inner.obs.get() {
            obs.trace(TraceKind::PacketTx, frame.len() as u64, medium as u64);
        }
        Ok((medium, endpoint, frame))
    }

    /// Hands frames to `medium`'s NIC, which counts what it takes
    /// (DESIGN.md decision #24): a frame it refuses, and any frame of a
    /// burst after it, is not counted sent.
    // charged: the NIC charges each frame it stages.
    fn hand_off(
        &self,
        medium: Medium,
        send: impl FnOnce(&Nic) -> Result<(), NicError>,
    ) -> Result<(), NetError> {
        send(self.nic_for(medium)).map_err(|e| NetError::TooLarge(format!("{e:?}")))
    }

    /// Assembles the frame that carries a `len`-byte segment to `endpoint`
    /// over `medium` ([`frame_bytes`]), from this host's address there.
    // uncharged: frame assembly; the NIC charges for moving the bytes.
    fn frame(
        &self,
        medium: Medium,
        endpoint: WireEndpoint,
        dst: IpAddr,
        protocol: u8,
        len: usize,
        segment: impl FnOnce(&mut [u8]),
    ) -> Bytes {
        let src = self.inner.my_ips[medium as usize];
        let nic = self.nic_for(medium);
        let link = (medium == Medium::Ethernet).then(|| EtherHeader {
            src: nic.addr().0,
            dst: endpoint.0,
            ethertype: ETHERTYPE_IPV4,
        });
        let buffer = |len| nic.frame_buffer(len);
        frame_bytes(buffer, link, src, dst, protocol, len, segment)
    }

    fn nic_for(&self, medium: Medium) -> &Nic {
        match medium {
            Medium::Ethernet => &self.inner.host.ethernet,
            Medium::Atm => &self.inner.host.atm,
            Medium::T3 => &self.inner.host.t3,
        }
    }

    /// Sends a UDP datagram.
    ///
    /// The datagram is written once, straight into the frame its route
    /// will carry, and the segment `SendPacket` sees is that frame's tail:
    /// one buffer per datagram, not one for the datagram and one for its
    /// frame. Everything else is `send_ip`'s: the frame is the
    /// same bytes, and a route that changed during the raise gets a frame
    /// of its own.
    pub fn udp_send(
        &self,
        src_port: u16,
        dst: IpAddr,
        dst_port: u16,
        payload: &[u8],
    ) -> Result<(), NetError> {
        let version = self.inner.addrs.version();
        let Some((medium, endpoint)) = self.inner.addrs.resolve(dst) else {
            // No frame to write into: `send_ip` answers (`NoRoute`).
            let datagram = UdpHeader::encode(src_port, dst_port, payload);
            return self.send_ip(dst, proto::UDP, datagram);
        };
        let header = UdpHeader::header_bytes(src_port, dst_port, payload.len());
        let len = header.len() + payload.len();
        let frame = self.frame(medium, endpoint, dst, proto::UDP, len, |out| {
            let (head, body) = out.split_at_mut(header.len());
            head.copy_from_slice(&header);
            body.copy_from_slice(payload);
        });
        let segment = BufChain::from_bytes(frame.slice(frame.len() - len..));
        let framed = (medium, endpoint, frame);
        self.send_segment(dst, proto::UDP, segment, Some(Routed { version, framed }))
    }

    /// The stack-wide readiness scoreboard (see [`crate::NetPoller`]).
    // uncharged: accessor.
    pub fn ready_hub(&self) -> &Arc<ReadyHub> {
        &self.inner.ready_hub
    }

    /// Allocates a fresh poller id (`Net.Ready` demux key).
    // uncharged: control-plane id allocation.
    pub(crate) fn alloc_poller_id(&self) -> u64 {
        self.inner.next_poller.fetch_add(1)
    }

    /// Grants a `time_bound` to the named poller's `Net.Ready` handler;
    /// the event's authorizer consults this table at install time.
    // uncharged: control-plane policy registration.
    pub(crate) fn set_poller_bound(&self, label: &str, bound: Nanos) {
        self.inner
            .poller_bounds
            .lock()
            .insert(label.to_string(), bound);
    }

    /// Pings `dst` with `payload_len` bytes; returns the round-trip time.
    // paper: Figure 5, the Ping extension on `ICMP.PktArrived`.
    pub fn ping(&self, ctx: &StrandCtx, dst: IpAddr, payload_len: usize) -> Option<Nanos> {
        let ident = self.inner.host.id.0 as u16;
        let seq = self.inner.ping_seq.fetch_add(1) as u16;
        let ch = KChannel::new(self.inner.exec.clone(), 1);
        self.inner
            .ping_waiters
            .lock()
            .insert((ident, seq), ch.clone());
        let t0 = self.inner.exec.clock().now();
        let msg = IcmpHeader {
            kind: IcmpKind::EchoRequest,
            ident,
            seq,
        }
        .encode(&vec![0u8; payload_len]);
        self.send_ip(dst, proto::ICMP, msg).ok()?;
        let arrived = ch.recv(ctx)?;
        Some(arrived - t0)
    }

    /// Stack counters: the host's three NICs' books and the retry count.
    // uncharged: diagnostics snapshot.
    pub fn stats(&self) -> NetStats {
        let host = &self.inner.host;
        let mut stats = NetStats {
            retries: self.inner.retries.get(),
            ..NetStats::default()
        };
        for nic in [&host.ethernet, &host.atm, &host.t3] {
            let (frames_out, bytes_out, frames_in, bytes_in) = nic.counters();
            stats.frames_out += frames_out;
            stats.bytes_out += bytes_out;
            stats.frames_in += frames_in;
            stats.bytes_in += bytes_in;
        }
        stats
    }
}

/// A frame ready for its NIC: the medium and endpoint its route names, and
/// its bytes.
type Framed = (Medium, WireEndpoint, Bytes);

/// A frame written before its `SendPacket` raise, for the route the address
/// map gave at `version`.
struct Routed {
    version: u64,
    framed: Framed,
}

/// Assembles the frame for a `len`-byte segment: the link header (Ethernet
/// only; ATM and T3 carry raw IP), the IPv4 header and the segment's bytes,
/// which `segment` writes, each written once into the one buffer `buffer`
/// gives for the frame's length. Every byte of the frame is written here,
/// so a recycled buffer is not cleared first.
// uncharged: frame assembly; the NIC charges for moving the bytes.
fn frame_bytes(
    buffer: impl FnOnce(usize) -> BytesMut,
    link: Option<EtherHeader>,
    src: IpAddr,
    dst: IpAddr,
    protocol: u8,
    len: usize,
    segment: impl FnOnce(&mut [u8]),
) -> Bytes {
    let link_len = if link.is_some() { EtherHeader::LEN } else { 0 };
    let total = link_len + Ipv4Header::LEN + len;
    let mut frame = buffer(total);
    frame.resize(total, 0);
    let (link_room, packet) = frame.split_at_mut(link_len);
    if let Some(ether) = link {
        link_room.copy_from_slice(&ether.header_bytes());
    }
    let (ip_room, rest) = packet.split_at_mut(Ipv4Header::LEN);
    ip_room.copy_from_slice(&Ipv4Header::header_bytes(src, dst, protocol, 64, len));
    segment(rest);
    frame.freeze()
}

/// Whether `SendPacket`'s handlers took the packet over. A raise that
/// failed outright transmits, as the default implementation would.
fn suppressed(verdict: &Result<SendVerdict, spin_core::DispatchError>) -> bool {
    matches!(verdict, Ok(SendVerdict::Suppressed))
}

/// Errors from the network stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    NoRoute {
        dst: IpAddr,
    },
    TooLarge(String),
    /// The transmission was dropped by the fault-injection plan
    /// (degraded-mode testing; never occurs with injection disabled).
    Faulted {
        dst: IpAddr,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pkt::{retired, TcpFlags};
    use crate::socket::UdpSocket;
    use crate::testrig::TwoHosts;
    use proptest::prelude::*;
    use spin_sal::SPARE_FRAMES;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The wire format did not move: for any medium, addresses, ports,
        /// seq/ack/flags and a payload handed down in one to three
        /// segments, the frame assembled in one buffer is the composition
        /// of the retired `Bytes`-returning encoders, byte for byte, and
        /// decodes back to the same headers and payload.
        #[test]
        fn the_frame_is_the_retired_encoders_composed(
            addrs in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
            ports in (any::<u16>(), any::<u16>(), any::<u16>()),
            tcp_words in (any::<u32>(), any::<u32>(), any::<u8>()),
            shape in (0u8..3, any::<bool>()),
            payload in proptest::collection::vec(any::<u8>(), 0..200),
            cuts in (any::<proptest::sample::Index>(), any::<proptest::sample::Index>()),
        ) {
            let ((src, dst, mac_src, mac_dst), (sp, dp, window)) = (addrs, ports);
            let ((seq, ack, flags), (medium, tcp)) = (tcp_words, shape);
            let (src, dst) = (IpAddr(src), IpAddr(dst));
            // Ethernet carries a link header; ATM and T3 are raw IP.
            let link = (medium == 0).then_some(EtherHeader {
                src: mac_src,
                dst: mac_dst,
                ethertype: ETHERTYPE_IPV4,
            });
            let (a, b) = (cuts.0.index(payload.len() + 1), cuts.1.index(payload.len() + 1));
            let (a, b) = (a.min(b), a.max(b));
            let pieces: Vec<Bytes> = [&payload[..a], &payload[a..b], &payload[b..]]
                .iter()
                .filter(|p| !p.is_empty())
                .map(|p| Bytes::copy_from_slice(p))
                .collect();
            let header = TcpHeader {
                src_port: sp,
                dst_port: dp,
                seq,
                ack,
                flags: TcpFlags::from_byte(flags),
                window,
            };
            let (protocol, transport, old_transport) = if tcp {
                (proto::TCP, header.header_bytes().to_vec(), retired::tcp_header(&header))
            } else {
                let h = UdpHeader::header_bytes(sp, dp, payload.len());
                (proto::UDP, h.to_vec(), retired::udp_header(sp, dp, payload.len()))
            };
            let mut segment = BufChain::new();
            pieces.iter().for_each(|p| segment.append(p.clone()));
            segment.push_header(&transport);

            let frame = frame_bytes(BytesMut::zeroed, link, src, dst, protocol, segment.len(), |out| {
                segment.copy_to_slice(out)
            });

            let mut want = Vec::new();
            if let Some(ether) = &link {
                want.extend_from_slice(&retired::ether_header(ether));
            }
            let old_ip = retired::ipv4_header(src, dst, protocol, 64, segment.len());
            want.extend_from_slice(&old_ip);
            want.extend_from_slice(&old_transport);
            want.extend_from_slice(&payload);
            prop_assert_eq!(&frame[..], &want[..]);

            let packet = match link {
                Some(ether) => {
                    let (back, packet) = EtherHeader::decode(&frame).unwrap();
                    prop_assert_eq!(back, ether);
                    packet
                }
                None => frame,
            };
            let (ip, body) = Ipv4Header::decode(&packet).unwrap();
            prop_assert_eq!((ip.src, ip.dst, ip.protocol, ip.ttl), (src, dst, protocol, 64));
            prop_assert_eq!(ip.total_len as usize, packet.len());
            let got = if tcp {
                let (back, got) = TcpHeader::decode(&body).unwrap();
                prop_assert_eq!(back, header);
                got
            } else {
                let (back, got) = UdpHeader::decode(&body).unwrap();
                prop_assert_eq!((back.src_port, back.dst_port), (sp, dp));
                got
            };
            prop_assert_eq!(&got[..], &payload[..]);
        }
    }

    /// What the proptest above cannot see: `prepare_frame` feeds
    /// [`frame_bytes`] the host's own addresses, and a transport header +
    /// shared payload leaves as the same frame the one-buffer datagram does.
    #[test]
    fn a_chained_datagram_leaves_as_the_same_frame() {
        let rig = TwoHosts::new();
        let dst = rig.b.ip_on(Medium::Ethernet);
        let flat: BufChain = UdpHeader::encode(9, 7, b"same bytes").into();
        let chained = UdpHeader::encode_chain(9, 7, Bytes::from_static(b"same bytes"));
        let (medium, endpoint, one) = rig.a.prepare_frame(dst, proto::UDP, &flat, None).unwrap();
        let (_, _, other) = rig
            .a
            .prepare_frame(dst, proto::UDP, &chained, None)
            .unwrap();
        assert_eq!(one, other);
        assert_eq!(
            (medium, endpoint),
            (Medium::Ethernet, rig.b.inner.host.ethernet.addr())
        );
        let (ether, packet) = EtherHeader::decode(&one).unwrap();
        assert_eq!(ether.src, rig.a.inner.host.ethernet.addr().0);
        assert_eq!(ether.dst, endpoint.0);
        let (ip, _) = Ipv4Header::decode(&packet).unwrap();
        assert_eq!((ip.src, ip.dst), (rig.a.ip_on(Medium::Ethernet), dst));
    }

    /// `udp_send` writes the datagram into its frame before the
    /// `SendPacket` raise; what leaves, and what the raise shows its
    /// handlers, is what `send_ip` of the encoded datagram sent and showed
    /// — on every medium, and when a handler moves the route mid-raise.
    #[test]
    fn a_datagram_written_into_its_frame_leaves_as_send_ip_sent_it() {
        fn sent(medium: Medium, reroute: bool, framed: bool) -> (Vec<Bytes>, Vec<Bytes>) {
            let rig = TwoHosts::new();
            let dst = rig.b.ip_on(medium);
            let seen = Arc::new(Mutex::new(Vec::new()));
            let (seen2, addrs, atm) = (seen.clone(), rig.addrs.clone(), rig.host_b.atm.addr());
            rig.a
                .events()
                .send_packet
                .install(Identity::extension("peek"), move |req: &SendRequest| {
                    seen2.lock().push(req.payload.to_bytes());
                    if reroute {
                        addrs.register(req.dst, Medium::Atm, atm);
                    }
                    SendVerdict::Transmit
                })
                .expect("install");
            let payload = b"one buffer per datagram";
            if framed {
                rig.a.udp_send(9, dst, 7, payload).unwrap();
            } else {
                let datagram = UdpHeader::encode(9, 7, payload);
                rig.a.send_ip(dst, proto::UDP, datagram).unwrap();
            }
            rig.board
                .clock
                .skip_to(rig.board.clock.now() + 1_000_000_000);
            rig.board.timers.fire_due(rig.board.clock.now());
            let nics = [&rig.host_b.ethernet, &rig.host_b.atm, &rig.host_b.t3];
            let frames = nics
                .iter()
                .filter_map(|nic| nic.receive().map(|f| f.payload))
                .collect();
            let seen = std::mem::take(&mut *seen.lock());
            (seen, frames)
        }
        for medium in [Medium::Ethernet, Medium::Atm, Medium::T3] {
            for reroute in [false, true] {
                let framed = sent(medium, reroute, true);
                assert_eq!(framed.1.len(), 1, "{medium:?}: one frame left");
                assert_eq!(
                    framed,
                    sent(medium, reroute, false),
                    "{medium:?}, {reroute}"
                );
            }
        }
    }

    /// Sends `count` datagrams of `len` bytes from `a` to `b`'s `port`
    /// over Ethernet, one at a time, each delivered and answered before
    /// the next leaves; the payload of datagram `i` is `i` in every byte.
    fn send_one_by_one(rig: &TwoHosts, port: u16, count: usize, len: usize) {
        let dst = rig.b.ip_on(Medium::Ethernet);
        for i in 0..count {
            rig.a.udp_send(9, dst, port, &vec![i as u8; len]).unwrap();
            rig.exec.run_until_idle();
        }
    }

    /// A frame's buffer is reused only once nobody else can see it: datagrams
    /// a queue-mode socket holds keep their bytes, and their buffers, while
    /// 1 000 more frames of the same size pass through the same NIC, each
    /// answered from that NIC's spare buffers.
    #[test]
    fn a_queued_datagram_keeps_its_buffer_while_frames_pass() {
        const LEN: usize = 64;
        let rig = TwoHosts::new();
        let queued = UdpSocket::bind(&rig.b, 5, "queue", 64).unwrap();
        let b = rig.b.clone();
        let _echo = UdpSocket::bind_with(&rig.b, 7, "echo", move |p| {
            b.udp_send(7, p.ip.src, p.header.src_port, &p.payload)
                .unwrap();
        })
        .unwrap();
        let echoed = Arc::new(Mutex::new(Vec::new()));
        let log = echoed.clone();
        let _sink = UdpSocket::bind_with(&rig.a, 9, "sink", move |p| {
            log.lock().push(p.payload.as_ptr() as usize)
        })
        .unwrap();
        send_one_by_one(&rig, 5, 32, LEN);
        let held: Vec<UdpPacket> = std::iter::from_fn(|| queued.try_recv()).collect();
        assert_eq!(held.len(), 32);
        send_one_by_one(&rig, 7, 1_000, LEN);
        assert_eq!(echoed.lock().len(), 1_000, "every datagram came back");
        for (i, p) in held.iter().enumerate() {
            assert_eq!(
                &p.payload[..],
                &[i as u8; LEN][..],
                "datagram {i} was overwritten"
            );
            let at = p.payload.as_ptr() as usize;
            assert!(
                !echoed.lock().contains(&at),
                "datagram {i}'s buffer carried an echo"
            );
        }
    }

    /// An echo of 10 000 datagrams runs on the buffers its two NICs keep:
    /// the frames arriving at either end come in at most `SPARE_FRAMES`
    /// buffers per NIC. Each round also allocates two buffers the size of a
    /// frame's allocation and keeps them, which takes whatever the
    /// allocator just freed — so a frame that was freed and allocated
    /// again would come back at a new address here, not at the old one.
    /// They are filled with a non-zero byte: a zeroed allocation may take
    /// another path through the allocator than the one freed frames wait
    /// on.
    #[test]
    fn an_echo_reuses_a_bounded_set_of_frame_buffers() {
        const LEN: usize = 32;
        let rig = TwoHosts::new();
        let buffers = Arc::new(Mutex::new(std::collections::BTreeSet::new()));
        let (seen, b) = (buffers.clone(), rig.b.clone());
        let _echo = UdpSocket::bind_with(&rig.b, 7, "echo", move |p| {
            seen.lock().insert(p.payload.as_ptr() as usize);
            b.udp_send(7, p.ip.src, p.header.src_port, &p.payload)
                .unwrap();
        })
        .unwrap();
        let seen = buffers.clone();
        let _sink = UdpSocket::bind_with(&rig.a, 9, "sink", move |p| {
            seen.lock().insert(p.payload.as_ptr() as usize);
        })
        .unwrap();
        // An `Arc<[u8]>` frame buffer's allocation: two counts, then the frame.
        let frame = udp_frame_len(Medium::Ethernet, LEN);
        let mut decoys = Vec::new();
        for _ in 0..10_000 {
            send_one_by_one(&rig, 7, 1, LEN);
            decoys.extend((0..2).map(|_| vec![1u8; frame + 2 * size_of::<usize>()]));
        }
        let distinct = buffers.lock().len();
        assert!(
            (1..=2 * SPARE_FRAMES).contains(&distinct),
            "{distinct} frame buffers for 20 000 frames"
        );
    }

    #[test]
    fn udp_datagram_crosses_the_ethernet() {
        let rig = TwoHosts::new();
        let got = Arc::new(Mutex::new(Vec::new()));
        let g2 = got.clone();
        let _sock = UdpSocket::bind_with(&rig.b, 7777, "sink", move |p| {
            g2.lock().push((p.header.src_port, p.payload.to_vec()));
        })
        .unwrap();
        let a = rig.a.clone();
        let dst = rig.b.ip_on(Medium::Ethernet);
        rig.exec.spawn("sender", move |_| {
            a.udp_send(1234, dst, 7777, b"hello spin").unwrap();
        });
        rig.exec.run_until_idle();
        let g = got.lock();
        assert_eq!(g.len(), 1);
        assert_eq!(g[0], (1234, b"hello spin".to_vec()));
    }

    #[test]
    fn udp_port_guards_separate_endpoints() {
        let rig = TwoHosts::new();
        let hits = Arc::new(Mutex::new((0u32, 0u32)));
        let h1 = hits.clone();
        let _s1 = UdpSocket::bind_with(&rig.b, 1, "one", move |_| h1.lock().0 += 1).unwrap();
        let h2 = hits.clone();
        let _s2 = UdpSocket::bind_with(&rig.b, 2, "two", move |_| h2.lock().1 += 1).unwrap();
        let a = rig.a.clone();
        let dst = rig.b.ip_on(Medium::Ethernet);
        rig.exec.spawn("sender", move |_| {
            a.udp_send(9, dst, 1, b"x").unwrap();
            a.udp_send(9, dst, 1, b"x").unwrap();
            a.udp_send(9, dst, 2, b"x").unwrap();
        });
        rig.exec.run_until_idle();
        assert_eq!(*hits.lock(), (2, 1));
    }

    #[test]
    fn ping_round_trip_over_both_media() {
        let rig = TwoHosts::new();
        let a = rig.a.clone();
        let eth_dst = rig.b.ip_on(Medium::Ethernet);
        let atm_dst = rig.b.ip_on(Medium::Atm);
        let results = Arc::new(Mutex::new(Vec::new()));
        let r2 = results.clone();
        rig.exec.spawn("pinger", move |ctx| {
            let eth = a.ping(ctx, eth_dst, 16).expect("ethernet ping");
            let atm = a.ping(ctx, atm_dst, 16).expect("atm ping");
            r2.lock().push((eth, atm));
        });
        rig.exec.run_until_idle();
        let r = results.lock();
        let (eth, atm) = r[0];
        assert!(eth > 0 && atm > 0);
        assert!(atm < eth, "ATM RTT {atm} should beat Ethernet {eth}");
    }

    #[test]
    fn send_packet_handlers_can_suppress() {
        let rig = TwoHosts::new();
        let seen = Arc::new(Mutex::new(0u32));
        let s2 = seen.clone();
        let _sock = UdpSocket::bind_with(&rig.b, 5, "sink", move |_| *s2.lock() += 1).unwrap();
        // A firewall extension suppressing everything to port 5.
        rig.a
            .events()
            .send_packet
            .install(Identity::extension("firewall"), move |req: &SendRequest| {
                if req.protocol == proto::UDP {
                    let bytes = req.payload.to_bytes();
                    if let Some((h, _)) = UdpHeader::decode(&bytes) {
                        if h.dst_port == 5 {
                            return SendVerdict::Suppressed;
                        }
                    }
                }
                SendVerdict::Transmit
            })
            .unwrap();
        let a = rig.a.clone();
        let dst = rig.b.ip_on(Medium::Ethernet);
        rig.exec.spawn("sender", move |_| {
            a.udp_send(9, dst, 5, b"blocked").unwrap();
            a.udp_send(9, dst, 6, b"allowed").unwrap();
        });
        rig.exec.run_until_idle();
        assert_eq!(*seen.lock(), 0, "port-5 traffic must be suppressed");
        assert!(rig.b.stats().frames_in >= 1, "port-6 traffic still flows");
    }

    /// `netin` is a run-to-completion strand: a `Net.*` handler that tries
    /// to wait on it is refused before anything is charged, booked as that
    /// handler's fault, and the burst carries on.
    #[test]
    fn a_handler_blocking_netin_is_a_contained_fault() {
        // Virtual instants each handler was entered at, the faults
        // delivered, and whether `netin` survived.
        type Calls = Vec<(&'static str, Nanos)>;
        let run = |blocking: bool| -> (Calls, Vec<spin_core::HandlerFault>) {
            let rig = TwoHosts::new();
            let faults = Arc::new(Mutex::new(Vec::new()));
            let f2 = faults.clone();
            rig.dispatcher
                .set_fault_sink(Arc::new(move |f: &spin_core::HandlerFault| {
                    f2.lock().push(f.clone())
                }));
            let calls = Arc::new(Mutex::new(Vec::new()));
            let (e1, e2) = (calls.clone(), calls.clone());
            let (exec, clock) = (rig.exec.clone(), rig.board.clock.clone());
            let never_sent = KChannel::<()>::new(rig.exec.clone(), 1);
            let _blocker = UdpSocket::bind_with(&rig.b, 7, "blocker", move |_| {
                e1.lock().push(("blocker", clock.now()));
                let ctx = exec.current_ctx().expect("on netin");
                if blocking {
                    never_sent.recv(&ctx);
                    unreachable!("the wait was refused");
                }
            })
            .unwrap();
            let clock = rig.board.clock.clone();
            let _sibling = UdpSocket::bind_with(&rig.b, 7, "sibling", move |_| {
                e2.lock().push(("sibling", clock.now()));
            })
            .unwrap();
            let a = rig.a.clone();
            let dst = rig.b.ip_on(Medium::Ethernet);
            rig.exec.spawn("sender", move |ctx| {
                a.udp_send(9, dst, 7, b"first").unwrap();
                ctx.sleep(5_000_000);
                a.udp_send(9, dst, 7, b"second").unwrap();
            });
            // The refusal did not end netin: a panicked strand would fail
            // the run.
            rig.exec.run_until_idle();
            let calls = calls.lock().clone();
            let faults = faults.lock().clone();
            (calls, faults)
        };

        let (calls, faults) = run(true);
        let tags: Vec<_> = calls.iter().map(|(tag, _)| *tag).collect();
        assert_eq!(
            tags,
            ["blocker", "sibling", "blocker", "sibling"],
            "the sibling ran after each fault, and the next frame was served"
        );
        assert_eq!(faults.len(), 2, "one per frame");
        for f in &faults {
            assert_eq!(f.installer.name(), "blocker");
            match &f.kind {
                spin_core::FaultKind::Panic { message } => {
                    assert_eq!(message, "`wait` inside a run-to-completion strand")
                }
                other => panic!("expected a contained panic, got {other:?}"),
            }
        }

        let (twin_calls, twin_faults) = run(false);
        assert!(twin_faults.is_empty());
        assert_eq!(
            calls[..2],
            twin_calls[..2],
            "up to and across the first fault the clock was charged what the twin charges"
        );
    }

    /// The size of the frame a UDP datagram of `len` bytes leaves as.
    fn udp_frame_len(medium: Medium, len: usize) -> usize {
        let link = if medium == Medium::Ethernet {
            EtherHeader::LEN
        } else {
            0
        };
        link + Ipv4Header::LEN + UdpHeader::LEN + len
    }

    fn datagram(len: usize) -> BufChain {
        UdpHeader::encode(9, 7, &vec![0u8; len]).into()
    }

    /// `stats` is its host's NICs' books, summed.
    fn assert_stats_are_the_nics(stack: &NetStack) {
        let host = &stack.inner.host;
        let mut books = [0u64; 4];
        for nic in [&host.ethernet, &host.atm, &host.t3] {
            let (a, b, c, d) = nic.counters();
            for (sum, n) in books.iter_mut().zip([a, b, c, d]) {
                *sum += n;
            }
        }
        let s = stack.stats();
        assert_eq!([s.frames_out, s.bytes_out, s.frames_in, s.bytes_in], books);
    }

    /// A datagram the NIC refuses as oversized is not counted sent: at the
    /// parent of this test `frames_out` and `bytes_out` grew while the NIC
    /// and the wire saw nothing.
    #[test]
    fn an_oversized_datagram_is_not_counted_sent() {
        let rig = TwoHosts::new();
        let dst = rig.b.ip_on(Medium::Ethernet);
        let sent = rig.a.udp_send(9, dst, 7, &[0u8; 1500]);
        assert!(matches!(sent, Err(NetError::TooLarge(_))), "{sent:?}");
        assert_eq!(rig.a.stats(), NetStats::default());
        assert_eq!(rig.host_a.ethernet.counters(), (0, 0, 0, 0));
        assert_eq!(rig.board.ethernet.stats(), (0, 0));
    }

    /// A burst whose middle item is oversized: the NIC stops there, and
    /// the stack counts only the item before it. At the parent of this
    /// test the item behind it was counted out but never staged.
    #[test]
    fn a_burst_counts_only_what_its_nic_staged() {
        let rig = TwoHosts::new();
        let dst = rig.b.ip_on(Medium::Ethernet);
        let burst = [10, 1500, 20].map(|len| (dst, proto::UDP, datagram(len)));
        let sent = rig.a.send_ip_burst(burst.to_vec());
        assert!(matches!(sent, Err(NetError::TooLarge(_))), "{sent:?}");
        rig.exec.run_until_idle();
        let first = udp_frame_len(Medium::Ethernet, 10) as u64;
        let (a, b) = (rig.a.stats(), rig.b.stats());
        assert_eq!((a.frames_out, a.bytes_out), (1, first));
        assert_eq!((b.frames_in, b.bytes_in), (1, first));
        assert_eq!(rig.board.ethernet.stats(), (1, 0));
        assert_stats_are_the_nics(&rig.a);
        assert_stats_are_the_nics(&rig.b);
    }

    /// One send in [`the_books_close_on_both_sinks`]: a datagram of `len`
    /// bytes to `dst` on `medium`, where `dst` 0 is the receiving host, 1
    /// an address bound to no endpoint, and 2 no route.
    type Op = (u8, u8, usize);

    /// The sending stack's transmit books as the ops predict them: a frame
    /// is counted when its NIC stages it, so not at all when it has no
    /// route or is oversized, nor when it follows an oversized item of its
    /// burst on the same NIC.
    fn predicted_out(ops: &[(bool, Vec<Op>)]) -> (u64, u64) {
        let medium = |m: u8| [Medium::Ethernet, Medium::Atm, Medium::T3][m as usize];
        let mtu = |m: Medium| match m {
            Medium::Ethernet => 1500,
            Medium::Atm => 8132,
            Medium::T3 => 8192,
        };
        let (mut frames, mut bytes) = (0, 0);
        for (burst, items) in ops {
            // Each lone send is a batch of one; a burst's routed items
            // leave as runs of one medium.
            let routed = items.iter().filter(|(dst, _, _)| *dst != 2);
            let mut runs: Vec<(Medium, Vec<usize>)> = Vec::new();
            for &(_, m, len) in routed {
                let m = medium(m);
                match runs.last_mut() {
                    Some((last, run)) if *burst && *last == m => run.push(len),
                    _ => runs.push((m, vec![len])),
                }
            }
            for (m, run) in runs {
                let sizes = run.iter().map(|&len| udp_frame_len(m, len));
                for size in sizes.take_while(|&size| size <= mtu(m)) {
                    frames += 1;
                    bytes += size as u64;
                }
            }
        }
        (frames, bytes)
    }

    fn op() -> impl Strategy<Value = Op> {
        let len = prop_oneof![0usize..1600, 7000usize..8300];
        (0u8..3, 0u8..3, len)
    }

    /// Sends `ops` from `from` towards `to` (lone sends and bursts), with
    /// `nowhere` registered on every medium at an endpoint nobody attached.
    fn send_all(from: &NetStack, to: &NetStack, ops: &[(bool, Vec<Op>)]) {
        let media = [Medium::Ethernet, Medium::Atm, Medium::T3];
        let dst = |(d, m, _): Op| match d {
            0 => to.ip_on(media[m as usize]),
            1 => IpAddr::new(10, m, 9, 9),
            _ => IpAddr::new(10, m, 8, 8),
        };
        for (burst, items) in ops {
            let items = items
                .iter()
                .map(|&op| (dst(op), proto::UDP, datagram(op.2)));
            if *burst {
                let _ = from.send_ip_burst(items.collect());
            } else {
                items.for_each(|(dst, protocol, chain)| {
                    let _ = from.send_ip(dst, protocol, chain);
                });
            }
        }
    }

    /// After the ops drain: each wire's transmitted frames (its senders'
    /// link records) equal its delivered plus dropped, the receiver took
    /// off its rings all that was delivered, and each stack's `NetStats`
    /// is its NICs' books.
    fn assert_books_close(
        wires: [&spin_sal::Wire; 3],
        (from, to): (&NetStack, &NetStack),
        ops: &[(bool, Vec<Op>)],
    ) {
        let (from_host, to_host) = (&from.inner.host, &to.inner.host);
        let pairs = [
            (&from_host.ethernet, &to_host.ethernet),
            (&from_host.atm, &to_host.atm),
            (&from_host.t3, &to_host.t3),
        ];
        let mut delivered_total = 0;
        for (wire, (tx, rx)) in wires.into_iter().zip(pairs) {
            let (delivered, dropped) = wire.stats();
            assert_eq!(tx.counters().0 + rx.counters().0, delivered + dropped);
            assert_eq!(rx.counters().2, delivered, "the receiver drained its ring");
            delivered_total += delivered;
        }
        let out = from.stats();
        assert_eq!((out.frames_out, out.bytes_out), predicted_out(ops));
        assert_eq!(to.stats().frames_in, delivered_total);
        assert_stats_are_the_nics(from);
        assert_stats_are_the_nics(to);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Random lone sends and bursts — oversized payloads, unbound and
        /// unrouted destinations, a drop filter — close the frame books on
        /// both sinks: a shared-timeline board's timers and two kernel
        /// shards' mailboxes.
        #[test]
        fn the_books_close_on_both_sinks(
            ops in proptest::collection::vec(
                (any::<bool>(), proptest::collection::vec(op(), 1..5)),
                1..6,
            ),
            drop_every in 2u64..6,
        ) {
            let unbound = |addrs: &AddressMap| {
                for (m, medium) in [Medium::Ethernet, Medium::Atm, Medium::T3].into_iter().enumerate() {
                    addrs.register(IpAddr::new(10, m as u8, 9, 9), medium, WireEndpoint(999));
                }
            };

            let rig = TwoHosts::new();
            unbound(&rig.addrs);
            let wires = [&rig.board.ethernet, &rig.board.atm, &rig.board.t3];
            wires[0].set_drop_filter(move |_, idx| idx % drop_every == 1);
            send_all(&rig.a, &rig.b, &ops);
            rig.exec.run_until_idle();
            assert_books_close(wires, (&rig.a, &rig.b), &ops);

            let rig = crate::testrig::ShardRig::new(1, 2);
            unbound(&rig.addrs);
            let wires = [&rig.board.ethernet, &rig.board.atm, &rig.board.t3];
            wires[0].set_drop_filter(move |_, idx| idx % drop_every == 1);
            let (a, b) = (&rig.shards[0].stack, &rig.shards[1].stack);
            send_all(a, b, &ops);
            rig.mc.run_until_idle();
            assert_books_close(wires, (a, b), &ops);
        }
    }

    #[test]
    fn topology_records_the_figure_5_graph() {
        let rig = TwoHosts::new();
        let rendered = rig.a.topology().render();
        for needle in [
            "Ether.PktArrived",
            "IP.PacketArrived",
            "-> UDP",
            "-> TCP",
            "-> ICMP",
        ] {
            assert!(
                rendered.contains(needle),
                "missing {needle} in:\n{rendered}"
            );
        }
    }
}
