//! The scenario kit: the single definition of every measured Table
//! 2/3/4/5/6 and §5.5 workload, each taking one [`Wiring`].
//!
//! The golden-gated bins call these with [`Wiring::bare`]; the invariance
//! matrix (`tests/invariance_matrix.rs`) calls the same functions over the
//! full {absent, wired-idle} cross product of the five features a `Wiring`
//! carries. The number a golden pins and the number the matrix compares are
//! therefore the same code: a feature that moves a virtual-time figure when
//! wired but idle fails the matrix, whichever other features sit beside it.

use parking_lot::Mutex;
use spin_check::sync::Counter;
use spin_core::{
    Containment, ContainmentPolicy, Dispatcher, Event, EventStats, Identity, Kernel, QuotaLedger,
    QuotaSpec,
};
use spin_fault::{
    FaultPlan, SITE_DISPATCH, SITE_NET_STACK, SITE_QUOTA, SITE_RT_HEAP, SITE_SCHED, SITE_VM_PAGER,
};
use spin_net::{
    reliable_bandwidth, udp_round_trip, Forwarder, IpAddr, Medium, NetStack, TcpStack, ThreeHosts,
    TwoHosts, UdpPacket, UdpSocket,
};
use spin_obs::Obs;
use spin_sal::{Clock, Nanos, SimBoard, PAGE_SHIFT};
use spin_sched::{measure_fork_join, measure_ping_pong, measure_xas_call, Executor, ThreadPackage};
use spin_swap::{SwapCoordinator, UndoAction};
use spin_vm::{DiskPager, PhysAddrService, TranslationService, VirtAddrService, VmWorkbench};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The echo port every UDP workload serves on; a watcher guarding
/// [`UNUSED_PORT`] is an always-false guard.
const ECHO_PORT: u16 = 7;
const UNUSED_PORT: u16 = 9;
const CLIENT_PORT: u16 = 9000;
/// Measured round trips per ping workload (after one warm-up round).
const PING_ROUNDS: u64 = 8;
/// Round trips per [`udp_round_trip`] measurement (Table 5 and §5.5).
const RTT_ROUNDS: u32 = 16;

/// The quota half of a [`Wiring`]: one ledger of default-spec (unlimited)
/// cells — they dedup by name, so re-created rigs reuse theirs — plus a
/// count of how often the pass-through scheduler hook was consulted.
pub struct QuotaWiring {
    pub ledger: QuotaLedger,
    pub hook_calls: Arc<AtomicU64>,
}

/// The swap half of a [`Wiring`]: every idle [`SwapCoordinator`] the kit
/// wired over a rig, so a test can check none of them ever swapped.
#[derive(Default)]
pub struct SwapWiring {
    coordinators: Mutex<Vec<SwapCoordinator>>,
}

impl SwapWiring {
    /// Swaps begun across every idle coordinator.
    pub fn attempted(&self) -> u64 {
        let coords = self.coordinators.lock();
        coords.iter().map(|c| c.stats().attempted).sum()
    }

    /// Idle coordinators wired so far.
    pub fn wired(&self) -> usize {
        self.coordinators.lock().len()
    }
}

/// Which optional kernel features a workload runs with. Each is either
/// absent or wired and idle; none may move a virtual-time figure.
pub struct Wiring {
    /// Observability: accounting hooks and the flight recorder.
    pub obs: Option<Obs>,
    /// Fault injection hooks plus the containment sink.
    pub faults: Option<FaultPlan>,
    /// Unlimited quota cells on the hot events and the scheduler quota
    /// hook.
    pub quota: Option<QuotaWiring>,
    /// An idle swap coordinator over each network rig.
    pub swap: Option<SwapWiring>,
    /// Watchers and the echo service install through keyed (compilable)
    /// guards instead of opaque closures.
    pub keyed: bool,
    /// A bare counting subscriber on every wired dispatcher's and
    /// executor's clock, as `perf/`'s traced rounds install: it makes each
    /// charge observed one by one, so the dispatcher's compiled walk stops
    /// coalescing its misses. Set only by this module's tests.
    charges: Option<Arc<Counter>>,
}

impl Wiring {
    /// Nothing wired: the configuration the goldens pin.
    pub fn bare() -> Wiring {
        Wiring::new(None, None, false, false, false)
    }

    /// Wires the given features, and each pair of them to each other: the
    /// quota ledger reports to `obs` and draws at the `core.quota` site of
    /// `faults` when those are present too.
    pub fn new(
        obs: Option<Obs>,
        faults: Option<FaultPlan>,
        quota: bool,
        swap: bool,
        keyed: bool,
    ) -> Wiring {
        let quota = quota.then(|| {
            let ledger = QuotaLedger::new();
            if let Some(obs) = &obs {
                ledger.wire_obs(obs);
            }
            if let Some(plan) = &faults {
                ledger.set_fault_hook(plan.hook(SITE_QUOTA));
            }
            QuotaWiring {
                ledger,
                hook_calls: Arc::new(AtomicU64::new(0)),
            }
        });
        Wiring {
            obs,
            faults,
            quota,
            swap: swap.then(SwapWiring::default),
            keyed,
            charges: None,
        }
    }

    /// The wired features by name, for assertion messages.
    pub fn label(&self) -> String {
        let on = [
            (self.obs.is_some(), "obs"),
            (self.faults.is_some(), "faults"),
            (self.quota.is_some(), "quota"),
            (self.swap.is_some(), "swap"),
            (self.keyed, "keyed"),
        ];
        let names: Vec<&str> = on.iter().filter(|(w, _)| *w).map(|(_, n)| *n).collect();
        if names.is_empty() {
            "bare".to_string()
        } else {
            names.join("+")
        }
    }

    /// Binds an unlimited quota cell to an event's admission path.
    pub fn meter<A, R>(&self, ev: &Event<A, R>, name: &str)
    where
        A: Send + Sync + 'static,
        R: Send + 'static,
    {
        if let Some(q) = &self.quota {
            let cell = q.ledger.register(name, QuotaSpec::default());
            // Every rig is fresh, so every event takes its first binding.
            assert_eq!(ev.bind_quota(cell), Ok(true), "{name}: first binding");
        }
    }

    /// Obs accounting, the `core.dispatch` fault site and the standard
    /// containment sink.
    pub(crate) fn wire_dispatcher(&self, d: &Dispatcher) {
        self.count_charges(d.clock());
        if let Some(obs) = &self.obs {
            d.set_obs(obs.domain("dispatcher"));
        }
        if let Some(plan) = &self.faults {
            d.set_fault_hook(plan.hook(SITE_DISPATCH));
            let _ = Containment::install(d, None, ContainmentPolicy::default());
        }
    }

    /// Obs accounting (trace records stamp this executor's clock), the
    /// `sched.executor` fault site and a pass-through quota hook.
    fn wire_exec(&self, exec: &Arc<Executor>) {
        self.count_charges(exec.clock());
        if let Some(obs) = &self.obs {
            let clock = exec.clock().clone();
            obs.set_time_source(Arc::new(move || clock.now()));
            exec.set_obs(obs.domain("sched"));
        }
        if let Some(plan) = &self.faults {
            exec.set_fault_hook(plan.hook(SITE_SCHED));
        }
        if let Some(q) = &self.quota {
            let calls = q.hook_calls.clone();
            exec.set_quota_hook(Arc::new(move |_name, base, _now| {
                // ordering: Relaxed — `tests/invariance_matrix.rs` loads it after the run's join, its only reader.
                calls.fetch_add(1, Ordering::Relaxed);
                base
            }));
        }
    }

    /// Per stack: obs accounting, the `net.stack` fault site and metered
    /// UDP/IP arrival events. Over the set: an idle swap coordinator,
    /// returned so a workload can also commit a swap through it.
    fn wire_stacks(&self, stacks: &[(&str, &NetStack)]) -> Option<SwapCoordinator> {
        for (tag, s) in stacks {
            if let Some(obs) = &self.obs {
                s.set_obs(obs.domain("net"));
            }
            if let Some(plan) = &self.faults {
                s.set_fault_hook(plan.hook(SITE_NET_STACK));
            }
            self.meter(&s.events().udp_arrived, &format!("udp-{tag}"));
            self.meter(&s.events().ip_arrived, &format!("ip-{tag}"));
        }
        let swap = self.swap.as_ref()?;
        let coord = self.coordinator(stacks[0].1.executor().clock());
        swap.coordinators.lock().push(coord.clone());
        Some(coord)
    }

    /// Kernel-wide obs, the `core.dispatch` and `rt.heap` fault sites with
    /// the kernel's containment policy, and a metered `Trap.SystemCall`.
    fn wire_kernel(&self, kernel: &Kernel) {
        if let Some(obs) = &self.obs {
            kernel.install_obs(obs);
        }
        if let Some(plan) = &self.faults {
            kernel.dispatcher().set_fault_hook(plan.hook(SITE_DISPATCH));
            kernel.heap().set_fault_hook(plan.hook(SITE_RT_HEAP));
            kernel.install_fault_containment(ContainmentPolicy::default());
        }
        self.meter(kernel.trap_syscall(), "trap-syscall");
    }

    /// Subscribes the charge counter, if one is wired, to `clock`.
    fn count_charges(&self, clock: &Clock) {
        if let Some(counter) = &self.charges {
            let counter = counter.clone();
            clock.add_advance_hook(Box::new(move |_| {
                counter.add(1);
            }));
        }
    }

    /// A swap coordinator reporting to `obs` and drawing at the
    /// `swap.transfer` site of `faults`, when those are wired.
    fn coordinator(&self, clock: &Clock) -> SwapCoordinator {
        let coord = SwapCoordinator::new(clock.clone());
        if let Some(obs) = &self.obs {
            coord.wire_obs(obs);
        }
        if let Some(plan) = &self.faults {
            coord.set_fault_hook(plan);
        }
        coord
    }

    /// The two-workstation rig, fully wired.
    fn two_hosts(&self) -> TwoHosts {
        let rig = TwoHosts::new();
        self.wire_exec(&rig.exec);
        self.wire_dispatcher(&rig.dispatcher);
        self.wire_stacks(&[("a", &rig.a), ("b", &rig.b)]);
        rig
    }

    /// The client/forwarder/server rig, fully wired, with its idle swap
    /// coordinator if one is wired.
    fn three_hosts(&self) -> (ThreeHosts, Option<SwapCoordinator>) {
        let rig = ThreeHosts::new();
        self.wire_exec(&rig.exec);
        self.wire_dispatcher(&rig.dispatcher);
        let coord = self.wire_stacks(&[("fa", &rig.a), ("fb", &rig.b), ("fc", &rig.c)]);
        (rig, coord)
    }
}

/// Table 2, "protected in-kernel call": ns per raise of a one-handler
/// event.
pub fn in_kernel_call(w: &Wiring) -> Nanos {
    let d = Dispatcher::unmetered();
    let clock = d.clock().clone();
    w.wire_dispatcher(&d);
    let (ev, owner) = d.define::<(), ()>("Null", Identity::kernel("bench"));
    owner.set_primary(|_| ()).expect("fresh");
    w.meter(&ev, "null-call");
    let t0 = clock.now();
    const N: u64 = 1000;
    for _ in 0..N {
        ev.raise(()).expect("handler installed");
    }
    (clock.now() - t0) / N
}

/// Table 2, "system call": ns per null application-specific system call.
pub fn syscall(w: &Wiring) -> Nanos {
    let board = SimBoard::new();
    let kernel = Kernel::boot(board.new_host(64));
    w.wire_kernel(&kernel);
    kernel
        .register_syscalls(Identity::extension("null"), 0..1, |_| 0)
        .expect("install");
    let clock = kernel.host().clock.clone();
    let t0 = clock.now();
    const N: u64 = 100;
    for _ in 0..N {
        kernel.syscall(0, [0; 6]);
    }
    (clock.now() - t0) / N
}

/// Table 2, "cross-address space call".
pub fn xas(w: &Wiring) -> Nanos {
    let board = SimBoard::new();
    let host = board.new_host(64);
    let exec = Executor::for_host(&host);
    w.wire_exec(&exec);
    measure_xas_call(&exec)
}

/// Table 3's SPIN rows: Fork-Join, then Ping-Pong, each for the packages
/// of [`ThreadPackage::ALL`] (kernel, layered, integrated). A fresh board
/// and executor per measurement.
pub fn table3_threads(w: &Wiring) -> [[Nanos; 3]; 2] {
    let ops: [fn(ThreadPackage, &Arc<Executor>) -> Nanos; 2] =
        [measure_fork_join, measure_ping_pong];
    ops.map(|op| {
        ThreadPackage::ALL.map(|pkg| {
            let board = SimBoard::new();
            let exec = Executor::on(board.clock.clone(), board.timers.clone());
            w.wire_exec(&exec);
            op(pkg, &exec)
        })
    })
}

/// Table 4's SPIN rows, in the paper's order: Dirty, Fault, Trap, Prot1,
/// Prot100, Unprot100, Appel1, Appel2. A fresh workbench per measurement
/// avoids handler interference. The workbench owns its dispatcher, so obs
/// is the only feature it can carry; `pager_demand` covers the rest of
/// the VM path.
pub fn table4_vm(w: &Wiring) -> [Nanos; 8] {
    let ops: [fn(&VmWorkbench) -> Nanos; 8] = [
        VmWorkbench::dirty_ns,
        VmWorkbench::fault_ns,
        VmWorkbench::trap_ns,
        VmWorkbench::prot1_ns,
        VmWorkbench::prot100_ns,
        VmWorkbench::unprot100_ns,
        VmWorkbench::appel1_ns,
        VmWorkbench::appel2_ns,
    ];
    ops.map(|op| {
        let wb = VmWorkbench::new();
        if let Some(obs) = &w.obs {
            wb.trans.set_obs(obs.domain("vm"));
        }
        op(&wb)
    })
}

/// Demand-pages a small disk-backed region and reports the elapsed
/// virtual time — the workload whose handler crosses the `vm.pager`,
/// `core.dispatch` and `sched.executor` hook points at once.
fn pager_demand(w: &Wiring) -> Nanos {
    const PAGES: u64 = 8;
    let board = SimBoard::new();
    let host = board.new_host(128);
    let exec = Executor::for_host(&host);
    let disp = Dispatcher::on(board.clock.clone());
    w.wire_exec(&exec);
    w.wire_dispatcher(&disp);
    let trans = TranslationService::new(host.mmu.clone(), board.clock.clone(), &disp);
    if let Some(obs) = &w.obs {
        trans.set_obs(obs.domain("vm"));
    }
    let phys = PhysAddrService::new(host.mem.clone(), &disp);
    let virt = VirtAddrService::new();
    let ctx = trans.create();
    let region = virt.allocate(PAGES).expect("virtual region");
    trans.reserve(ctx, &region).expect("reserve");
    let pager = DiskPager::install(
        exec.clone(),
        trans.clone(),
        phys,
        host.disk.clone(),
        ctx,
        region.clone(),
        0,
    );
    if let Some(plan) = &w.faults {
        pager.set_fault_hook(plan.hook(SITE_VM_PAGER));
    }
    let clock = exec.clock().clone();
    let mem = host.mem.clone();
    let base = region.base();
    let out = Arc::new(Mutex::new(0u64));
    let o2 = out.clone();
    exec.spawn("reader", move |_| {
        let t0 = clock.now();
        let mut buf = [0u8; 1];
        for p in 0..PAGES {
            trans
                .read(ctx, base + (p << PAGE_SHIFT), &mut buf, &mem)
                .expect("page in");
        }
        *o2.lock() = clock.now() - t0;
    });
    exec.run_until_idle();
    let elapsed = *out.lock();
    elapsed
}

/// Table 5's SPIN rows: 16-byte UDP round trips (ns) and reliable receive
/// bandwidth (Mb/s) with payloads sized so the on-wire packets are the
/// paper's 1500 (Ethernet) and 8132 (ATM) bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table5 {
    pub eth_rtt: Nanos,
    pub atm_rtt: Nanos,
    pub eth_bw: f64,
    pub atm_bw: f64,
}

/// Payload bytes per bandwidth packet, by medium.
pub const ETH_BW_PAYLOAD: usize = 1458;
pub const ATM_BW_PAYLOAD: usize = 8104;

/// Table 5, measured end to end through the stack; a fresh rig per row.
pub fn table5_net(w: &Wiring) -> Table5 {
    let rtt = |medium| {
        let rig = w.two_hosts();
        udp_round_trip(&rig.exec, &rig.a, &rig.b, medium, 16, RTT_ROUNDS)
    };
    let bw = |medium, payload| {
        let rig = w.two_hosts();
        reliable_bandwidth(&rig.exec, &rig.a, &rig.b, medium, payload, 80, 16)
    };
    Table5 {
        eth_rtt: rtt(Medium::Ethernet),
        atm_rtt: rtt(Medium::Atm),
        eth_bw: bw(Medium::Ethernet, ETH_BW_PAYLOAD),
        atm_bw: bw(Medium::Atm, ATM_BW_PAYLOAD),
    }
}

/// Mean round trip of `rounds` 16-byte datagrams from `client` to
/// `dst`:[`ECHO_PORT`], replies read off `reply`. Runs the executor idle.
fn ping(
    exec: &Arc<Executor>,
    client: &NetStack,
    reply: &Arc<UdpSocket>,
    dst: IpAddr,
    rounds: u64,
) -> Nanos {
    let (client, reply, clock) = (client.clone(), reply.clone(), exec.clock().clone());
    let out = Arc::new(Mutex::new(0u64));
    let o2 = out.clone();
    exec.spawn("driver", move |ctx| {
        let t0 = clock.now();
        for _ in 0..rounds {
            client
                .udp_send(CLIENT_PORT, dst, ECHO_PORT, &[0u8; 16])
                .expect("send ping");
            reply.recv(ctx);
        }
        *o2.lock() = (clock.now() - t0) / rounds;
    });
    exec.run_until_idle();
    let rtt = *out.lock();
    rtt
}

/// Table 6, UDP: the client on A sends to the in-stack forwarder on B,
/// spliced to an echo server on C. Returns the mean round trip and the
/// forwarder host's `UDP.PktArrived` statistics.
///
/// `mid_run_swap` hot-swaps the forwarder, between the warm-up round and
/// the measured ones, to a v2 built from the live flow snapshot — same
/// port, same target, transferred flows. The versions agree everywhere, so
/// the swap must be invisible in the returned round trip.
pub fn table6_udp(w: &Wiring, medium: Medium, mid_run_swap: bool) -> (Nanos, EventStats) {
    let (rig, idle) = w.three_hosts();
    let target = rig.c.ip_on(medium);
    let fwd = Forwarder::install_udp(&rig.b, ECHO_PORT, target);
    let c2 = rig.c.clone();
    UdpSocket::bind_with(&rig.c, ECHO_PORT, "echo", move |p| {
        let _ = c2.udp_send(ECHO_PORT, p.ip.src, p.header.src_port, &p.payload);
    })
    .expect("bind echo");
    let reply = UdpSocket::bind(&rig.a, CLIENT_PORT, "client", 4).expect("bind client");
    let b_ip = rig.b.ip_on(medium);

    // The warm-up round opens the client's flow through the forwarder.
    ping(&rig.exec, &rig.a, &reply, b_ip, 1);
    if mid_run_swap {
        let coord = idle.unwrap_or_else(|| w.coordinator(rig.exec.clock()));
        let ev = &rig.b.events().udp_arrived;
        let report = coord
            .swap(
                vec![Arc::new(ev.clone())],
                fwd.identity(),
                &fwd,
                |old| old.snapshot(),
                None,
                |snapshot| {
                    let (_v2, specs) = Forwarder::udp_swap_specs(
                        &rig.b,
                        ECHO_PORT,
                        target,
                        "Forward-v2",
                        snapshot,
                    );
                    let receipt = ev
                        .rebind(fwd.identity(), fwd.identity(), specs)
                        .expect("rebind forwarder");
                    let (ev, ident) = (ev.clone(), fwd.identity().clone());
                    vec![Box::new(move || {
                        ev.restore(&ident, receipt).expect("restore forwarder");
                    }) as UndoAction]
                },
            )
            .expect("mid-run swap commits");
        assert_eq!(report.held, 0, "no traffic in flight between rounds");
    }
    let rtt = ping(&rig.exec, &rig.a, &reply, b_ip, PING_ROUNDS);
    let stats = rig
        .dispatcher
        .stats(&rig.b.events().udp_arrived)
        .expect("event alive");
    (rtt, stats)
}

/// Table 6, TCP: an established connection through the splice; 16-byte
/// request, 16-byte reply.
fn table6_tcp(w: &Wiring, medium: Medium) -> Nanos {
    let (rig, _idle) = w.three_hosts();
    let _fwd = Forwarder::install_tcp(&rig.b, 80, rig.c.ip_on(medium));
    let tcp_a = TcpStack::install(&rig.a);
    let tcp_c = TcpStack::install(&rig.c);
    let listener = tcp_c.listen(80);
    rig.exec.spawn("server", move |ctx| {
        if let Some(conn) = listener.accept(ctx) {
            while let Some(req) = conn.recv(ctx) {
                if conn.send(ctx, &req).is_err() {
                    break;
                }
            }
        }
    });
    let b_ip = rig.b.ip_on(medium);
    let clock = rig.exec.clock().clone();
    let out = Arc::new(Mutex::new(0u64));
    let o2 = out.clone();
    rig.exec.spawn("client", move |ctx| {
        let conn = tcp_a.connect(ctx, b_ip, 80).expect("splice handshake");
        conn.send(ctx, &[0u8; 16]).unwrap();
        conn.recv(ctx); // warm-up
        let t0 = clock.now();
        for _ in 0..PING_ROUNDS {
            conn.send(ctx, &[0u8; 16]).unwrap();
            conn.recv(ctx);
        }
        *o2.lock() = (clock.now() - t0) / PING_ROUNDS;
        conn.close(ctx);
    });
    rig.exec.run_until_idle();
    let rtt = *out.lock();
    rtt
}

/// Table 6's SPIN rows in the paper's order: TCP Ethernet, TCP ATM, UDP
/// Ethernet, UDP ATM.
pub fn table6_forward(w: &Wiring) -> [Nanos; 4] {
    [
        table6_tcp(w, Medium::Ethernet),
        table6_tcp(w, Medium::Atm),
        table6_udp(w, Medium::Ethernet, false).0,
        table6_udp(w, Medium::Atm, false).0,
    ]
}

/// §5.5: Ethernet round trip with `extra` watcher guards on the server's
/// UDP arrival event, all passing or all failing, installed keyed or
/// opaque per [`Wiring::keyed`]. Returns the round trip and the server
/// event's statistics.
pub fn watcher_rtt(w: &Wiring, extra: usize, pass: bool) -> (Nanos, EventStats) {
    let rig = w.two_hosts();
    let port = if pass { ECHO_PORT } else { UNUSED_PORT };
    let ev = &rig.b.events().udp_arrived;
    for i in 0..extra {
        let ident = Identity::extension(&format!("watcher-{i}"));
        if w.keyed {
            ev.install_keyed(
                ident,
                &rig.b.events().udp_port_key,
                u64::from(port),
                |_p: &UdpPacket| {},
            )
            .expect("install keyed watcher");
        } else {
            ev.install_guarded(
                ident,
                move |p: &UdpPacket| p.header.dst_port == port,
                |_p: &UdpPacket| {},
            )
            .expect("install opaque watcher");
        }
    }
    let rtt = udp_round_trip(&rig.exec, &rig.a, &rig.b, Medium::Ethernet, 16, RTT_ROUNDS);
    let stats = rig.dispatcher.stats(ev).expect("event alive");
    (rtt, stats)
}

/// §5.5's three data points: no extra handlers, 50 guards all false, 50
/// guards all true.
pub fn s1_scaling(w: &Wiring) -> [Nanos; 3] {
    [
        watcher_rtt(w, 0, false).0,
        watcher_rtt(w, 50, false).0,
        watcher_rtt(w, 50, true).0,
    ]
}

/// Round trip to an echo service bound through the keyed
/// [`UdpSocket::bind_with`], or installed as the equivalent opaque
/// port-comparison guard, per [`Wiring::keyed`].
fn echo_rtt(w: &Wiring) -> Nanos {
    let rig = w.two_hosts();
    let server = rig.b.clone();
    let echo = move |p: &UdpPacket| {
        let _ = server.udp_send(ECHO_PORT, p.ip.src, p.header.src_port, &p.payload);
    };
    if w.keyed {
        UdpSocket::bind_with(&rig.b, ECHO_PORT, "echo", echo).expect("bind echo");
    } else {
        rig.b
            .events()
            .udp_arrived
            .install_guarded(
                Identity::extension("echo"),
                |p: &UdpPacket| p.header.dst_port == ECHO_PORT,
                echo,
            )
            .expect("install opaque echo");
    }
    let reply = UdpSocket::bind(&rig.a, CLIENT_PORT, "client", 4).expect("bind client");
    let dst = rig.b.ip_on(Medium::Ethernet);
    ping(&rig.exec, &rig.a, &reply, dst, 1);
    ping(&rig.exec, &rig.a, &reply, dst, PING_ROUNDS)
}

/// Every measured number of the evaluation under one wiring, labelled.
/// Bandwidths appear as their `f64` bit patterns, so equality is exact.
pub fn suite(w: &Wiring) -> Vec<(String, u64)> {
    let mut out = vec![
        ("table2.in_kernel_call".to_string(), in_kernel_call(w)),
        ("table2.syscall".to_string(), syscall(w)),
        ("table2.xas".to_string(), xas(w)),
    ];
    for (op, row) in ["fork_join", "ping_pong"].iter().zip(table3_threads(w)) {
        for (pkg, ns) in ["kernel", "layered", "integrated"].iter().zip(row) {
            out.push((format!("table3.{op}.{pkg}"), ns));
        }
    }
    let vm_ops = [
        "dirty",
        "fault",
        "trap",
        "prot1",
        "prot100",
        "unprot100",
        "appel1",
        "appel2",
    ];
    for (op, ns) in vm_ops.iter().zip(table4_vm(w)) {
        out.push((format!("table4.{op}"), ns));
    }
    out.push(("pager_demand".to_string(), pager_demand(w)));
    let t5 = table5_net(w);
    out.extend([
        ("table5.eth_rtt".to_string(), t5.eth_rtt),
        ("table5.atm_rtt".to_string(), t5.atm_rtt),
        ("table5.eth_bw_bits".to_string(), t5.eth_bw.to_bits()),
        ("table5.atm_bw_bits".to_string(), t5.atm_bw.to_bits()),
    ]);
    let t6_rows = ["tcp_eth", "tcp_atm", "udp_eth", "udp_atm"];
    for (row, ns) in t6_rows.iter().zip(table6_forward(w)) {
        out.push((format!("table6.{row}"), ns));
    }
    let s1_rows = ["base", "false50", "true50"];
    for (row, ns) in s1_rows.iter().zip(s1_scaling(w)) {
        out.push((format!("s1.{row}"), ns));
    }
    for extra in [10, 100] {
        for pass in [false, true] {
            out.push((
                format!("watchers.{extra}.{pass}"),
                watcher_rtt(w, extra, pass).0,
            ));
        }
    }
    out.push(("echo_rtt".to_string(), echo_rtt(w)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_suite_is_deterministic() {
        let first = suite(&Wiring::bare());
        assert!(
            first.iter().all(|(_, v)| *v > 0),
            "every workload completes: {first:?}"
        );
        assert_eq!(first, suite(&Wiring::bare()));
    }

    /// An executor no longer subscribes to its clock, so with nothing else
    /// wired the dispatcher's compiled walk charges a run of misses in one
    /// charge. A counting subscriber makes every charge observed, and
    /// the walk charges them one by one: the totals, and so every virtual
    /// number, must be the same.
    #[test]
    fn a_counting_clock_subscriber_moves_no_virtual_number() {
        let counter = Arc::new(Counter::default());
        let mut bare_counted = Wiring::bare();
        bare_counted.charges = Some(counter.clone());
        let keyed = Wiring::new(None, None, false, false, true);
        let mut keyed_counted = Wiring::new(None, None, false, false, true);
        keyed_counted.charges = Some(counter.clone());
        assert_eq!(suite(&bare_counted), suite(&Wiring::bare()));
        assert_eq!(suite(&keyed_counted), suite(&keyed));
        let counted = counter.get();
        assert!(counted > 0, "the subscriber counted");
    }
}
