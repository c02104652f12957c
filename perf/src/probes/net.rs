//! `net` probes on the two-host shared-timeline rig: a UDP echo round trip,
//! a TCP connection, an HTTP GET and the readiness scoreboard — in host
//! time. The first three run whole paths, so they also contain scheduler,
//! dispatcher, NIC and clock work; [`residual`] subtracts what the lower
//! layers' probes already price, and the rest is the net layer's own.

use super::{Bench, NetResiduals};
use crate::model::{layer_ns, UnitCosts};
use crate::workloads::{add_stack, count_advances, delta, Counts};
use spin_fs::{BufferCache, FileSystem, HybridBySize, NoCachePolicy, WebCache};
use spin_net::{
    http_get, interest, HttpServer, Medium, NetPoller, Request, Response, TcpStack, TwoHosts,
    UdpSocket,
};
use spin_sched::IdleOutcome;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cumulative lower-layer counters of a two-host rig.
fn snapshot(rig: &TwoHosts, advances: &AtomicU64) -> Counts {
    let mut c = Counts {
        switches: rig.exec.switches(),
        clock_advances: advances.load(Ordering::Relaxed), // ordering: Relaxed — read between runs.
        ..Counts::default()
    };
    for stack in [&rig.a, &rig.b] {
        add_stack(&mut c, &rig.dispatcher, stack);
    }
    c.wire_frames = c.frames_in;
    c
}

/// ns per operation left once the lower layers' modelled cost of `ops`
/// operations — switches, raises, frames, clock charges — is taken out.
fn residual(total_ns: f64, ops: u64, before: &Counts, after: &Counts, u: &UnitCosts) -> f64 {
    let lower = layer_ns(&delta(after, before), u);
    (total_ns - lower.total() / ops as f64).max(0.0)
}

fn rig() -> (TwoHosts, Arc<AtomicU64>) {
    let rig = TwoHosts::new();
    let advances = Arc::new(AtomicU64::new(0));
    count_advances(&rig.board.clock, &advances);
    (rig, advances)
}

pub fn run(bench: &mut Bench) -> NetResiduals {
    let units = UnitCosts::from_probes(|name| bench.get(name));
    let mut residuals = NetResiduals::default();

    // ---- UDP echo round trip (16-byte payload, Ethernet) ----
    {
        let (rig, advances) = rig();
        let b2 = rig.b.clone();
        UdpSocket::bind_with(&rig.b, 7, "echo", move |p| {
            let _ = b2.udp_send(7, p.ip.src, p.header.src_port, &p.payload);
        })
        .expect("bind echo");
        let reply = UdpSocket::bind(&rig.a, 6000, "rtt-client", 512).expect("bind client");
        let dst = rig.b_ip(Medium::Ethernet);
        const ROUNDS: u64 = 500;
        bench.probe_us("net.stack.udp_rtt_us", || {
            let (a, reply) = (rig.a.clone(), reply.clone());
            rig.exec.spawn("rtt-driver", move |ctx| {
                for _ in 0..ROUNDS {
                    a.udp_send(6000, dst, 7, &[0u8; 16]).expect("send");
                    black_box(reply.recv(ctx));
                }
            });
            assert_eq!(rig.exec.run_until_idle(), IdleOutcome::AllComplete);
            ROUNDS
        });
        // The residual comes from a pipelined variant — datagrams sent back
        // to back, then their replies collected — because that is how the
        // storms drive the stack: blocking and waking amortise over the
        // burst, and what is left is the stack's own per-frame work.
        const BURST: u64 = 250;
        let before = snapshot(&rig, &advances);
        let mut batches = 0;
        let ns = bench.measure("net.stack.udp_burst", || {
            let (a, reply) = (rig.a.clone(), reply.clone());
            rig.exec.spawn("burst-driver", move |ctx| {
                for _ in 0..ROUNDS / BURST {
                    for _ in 0..BURST {
                        a.udp_send(6000, dst, 7, &[0u8; 16]).expect("send");
                    }
                    for _ in 0..BURST {
                        black_box(reply.recv(ctx));
                    }
                }
            });
            assert_eq!(rig.exec.run_until_idle(), IdleOutcome::AllComplete);
            batches += 1;
            ROUNDS / BURST * BURST
        });
        let after = snapshot(&rig, &advances);
        let trips = batches * (ROUNDS / BURST * BURST);
        // Two frames per round trip.
        residuals.udp_frame_ns = residual(ns, trips, &before, &after, &units) / 2.0;
    }

    // ---- TCP: connect, send 16 B, receive the echo, close ----
    {
        let (rig, _) = rig();
        let (tcp_a, tcp_b) = (TcpStack::install(&rig.a), TcpStack::install(&rig.b));
        let listener = tcp_b.listen(7000);
        let dst = rig.b_ip(Medium::Ethernet);
        const CONNS: u64 = 100;
        bench.probe_us("net.tcp.conn_us", || {
            let l = listener.clone();
            rig.exec.spawn("tcp-server", move |ctx| {
                for _ in 0..CONNS {
                    let conn = l.accept(ctx).expect("accept");
                    if let Some(data) = conn.recv(ctx) {
                        let _ = conn.send(ctx, &data);
                    }
                    conn.close(ctx);
                }
            });
            let tcp = tcp_a.clone();
            rig.exec.spawn("tcp-client", move |ctx| {
                for _ in 0..CONNS {
                    let conn = tcp.connect(ctx, dst, 7000).expect("connect");
                    conn.send(ctx, &[7u8; 16]).expect("send");
                    black_box(conn.recv(ctx));
                    conn.close(ctx);
                }
            });
            assert_eq!(rig.exec.run_until_idle(), IdleOutcome::AllComplete);
            CONNS
        });
    }

    // ---- HTTP GET of a dynamic route against the in-kernel server ----
    {
        let (rig, advances) = rig();
        let (tcp_a, tcp_b) = (TcpStack::install(&rig.a), TcpStack::install(&rig.b));
        let bc = BufferCache::new(
            rig.host_b.disk.clone(),
            rig.exec.clone(),
            64,
            Box::new(NoCachePolicy),
        );
        let cache = Arc::new(WebCache::new(
            1 << 20,
            Box::new(HybridBySize {
                large_threshold: 65_536,
            }),
        ));
        let server = HttpServer::start(&rig.b, &tcp_b, FileSystem::format(bc, 0, 500), cache, 80);
        server.route("/r0", |_req: &Request| Response::ok(vec![b'x'; 512]));
        let dst = rig.b_ip(Medium::Atm);
        const GETS: u64 = 100;
        let before = snapshot(&rig, &advances);
        let mut batches = 0;
        let ns = bench.probe_us("net.http.get_us", || {
            let tcp = tcp_a.clone();
            rig.exec.spawn("http-client", move |ctx| {
                for _ in 0..GETS {
                    let (status, body) = http_get(ctx, &tcp, dst, 80, "/r0").expect("response");
                    assert!(status.contains("200") && body.len() == 512);
                }
            });
            assert_eq!(rig.exec.run_until_idle(), IdleOutcome::AllComplete);
            batches += 1;
            GETS
        });
        let after = snapshot(&rig, &advances);
        residuals.http_get_ns = residual(ns, batches * GETS, &before, &after, &units);
    }

    // ---- readiness: eight notes merged and flushed as one Net.Ready ----
    {
        let rig = TwoHosts::new();
        let poller = NetPoller::new(&rig.a);
        let hub = rig.a.ready_hub().clone();
        bench.probe_ns("net.poll.note_flush_ns", || {
            for _ in 0..2_000 {
                for token in 0..8 {
                    hub.note(poller.id(), token, interest::READABLE);
                }
                hub.flush(&rig.a.events().net_ready);
                black_box(poller.try_wait());
            }
            16_000
        });
    }
    residuals
}
