//! Integration: the networking stack end to end — TCP over a lossy wire,
//! HTTP through the full graph, RPC + active messages coexisting, and the
//! dispatcher's per-instance guards keeping endpoints separate.

use parking_lot::Mutex;
use spin_os::fs::{BufferCache, FileSystem, HybridBySize, NoCachePolicy, WebCache};
use spin_os::net::{http_get, ActiveMessages, HttpServer, Medium, Rpc, TcpStack, TwoHosts};
use std::sync::Arc;

#[test]
fn tcp_bulk_transfer_survives_heavy_loss_on_both_directions() {
    let rig = TwoHosts::new();
    // 25% loss: every 4th frame each host sends.
    rig.board.ethernet.set_drop_filter(|_, i| i % 4 == 3);
    let tcp_a = TcpStack::install(&rig.a);
    let tcp_b = TcpStack::install(&rig.b);
    let listener = tcp_b.listen(80);
    let server = rig.exec.spawn("server", move |ctx| {
        let conn = listener.accept(ctx).expect("client arrives despite loss");
        let mut received = Vec::new();
        while let Some(chunk) = conn.recv(ctx) {
            received.extend_from_slice(&chunk);
        }
        conn.close(ctx);
        received
    });
    let dst = rig.b.ip_on(Medium::Ethernet);
    let payload: Vec<u8> = (0..30_000).map(|i| (i % 251) as u8).collect();
    let p2 = payload.clone();
    rig.exec.spawn("client", move |ctx| {
        let conn = tcp_a.connect(ctx, dst, 80).expect("handshake with retries");
        conn.send(ctx, &p2).unwrap();
        ctx.sleep(3_000_000_000); // let retransmissions drain
        conn.close(ctx);
    });
    rig.exec.run_until_idle();
    assert_eq!(server.join().unwrap(), payload);
}

#[test]
fn rpc_and_active_messages_share_the_stack_without_interference() {
    let rig = TwoHosts::new();
    let rpc_a = Rpc::install(&rig.a).unwrap();
    let rpc_b = Rpc::install(&rig.b).unwrap();
    let am_a = ActiveMessages::install(&rig.a).unwrap();
    let am_b = ActiveMessages::install(&rig.b).unwrap();

    rpc_b.register("upper", |args| args.to_ascii_uppercase());
    let am_hits = Arc::new(Mutex::new(0u32));
    let h2 = am_hits.clone();
    am_b.register(1, move |_, _, _| *h2.lock() += 1);

    let dst = rig.b.ip_on(Medium::Ethernet);
    let client = rig.exec.spawn("mixed-client", move |ctx| {
        am_a.send(dst, 1, [0; 4], b"");
        let reply = rpc_a.call(ctx, dst, "upper", b"spin");
        am_a.send(dst, 1, [0; 4], b"");
        reply
    });
    rig.exec.run_until_idle();
    assert_eq!(client.join().unwrap().unwrap(), b"SPIN");
    assert_eq!(*am_hits.lock(), 2);
    let _ = am_b;
}

#[test]
fn http_serves_through_the_whole_graph_with_hybrid_caching() {
    let rig = TwoHosts::new();
    let tcp_a = TcpStack::install(&rig.a);
    let tcp_b = TcpStack::install(&rig.b);
    let bc = BufferCache::new(
        rig.host_b.disk.clone(),
        rig.exec.clone(),
        32,
        Box::new(NoCachePolicy),
    );
    let fs = FileSystem::format(bc, 0, 400);
    let fs2 = fs.clone();
    rig.exec.spawn("content", move |ctx| {
        fs2.mkdir("/site").unwrap();
        fs2.create("/site/a.html").unwrap();
        fs2.write_file(ctx, "/site/a.html", b"alpha").unwrap();
        fs2.create("/site/b.html").unwrap();
        fs2.write_file(ctx, "/site/b.html", b"beta").unwrap();
    });
    rig.exec.run_until_idle();
    let cache = Arc::new(WebCache::new(
        1 << 20,
        Box::new(HybridBySize {
            large_threshold: 4096,
        }),
    ));
    let server = HttpServer::start(&rig.b, &tcp_b, fs, cache, 80);

    let dst = rig.b.ip_on(Medium::Ethernet);
    let bodies = Arc::new(Mutex::new(Vec::new()));
    let b2 = bodies.clone();
    rig.exec.spawn("browser", move |ctx| {
        for path in [
            "/site/a.html",
            "/site/b.html",
            "/site/a.html",
            "/site/missing",
        ] {
            let (status, body) = http_get(ctx, &tcp_a, dst, 80, path).expect("response");
            b2.lock().push((status, body));
        }
    });
    rig.exec.run_until_idle();
    let b = bodies.lock();
    assert_eq!(b[0].1, b"alpha");
    assert_eq!(b[1].1, b"beta");
    assert_eq!(b[2].1, b"alpha");
    assert!(b[3].0.contains("404"));
    let stats = server.stats();
    assert_eq!((stats.ok, stats.not_found), (3, 1));
    assert_eq!(server.cache().stats().hits, 1);
}

#[test]
fn concurrent_flows_on_different_ports_do_not_cross() {
    let rig = TwoHosts::new();
    let sums = Arc::new(Mutex::new((0u64, 0u64)));
    let s1 = sums.clone();
    spin_os::net::UdpSocket::bind_with(&rig.b, 100, "flow-a", move |p| {
        s1.lock().0 += p.payload.len() as u64
    })
    .unwrap();
    let s2 = sums.clone();
    spin_os::net::UdpSocket::bind_with(&rig.b, 200, "flow-b", move |p| {
        s2.lock().1 += p.payload.len() as u64
    })
    .unwrap();
    let (a, dst) = (rig.a.clone(), rig.b.ip_on(Medium::Atm));
    rig.exec.spawn("sender", move |ctx| {
        for i in 0..20 {
            a.udp_send(
                9,
                dst,
                if i % 2 == 0 { 100 } else { 200 },
                &vec![0u8; 10 + i],
            )
            .unwrap();
            ctx.yield_now();
        }
    });
    rig.exec.run_until_idle();
    let (fa, fb) = *sums.lock();
    let even: u64 = (0..20).filter(|i| i % 2 == 0).map(|i| 10 + i).sum();
    let odd: u64 = (0..20).filter(|i| i % 2 == 1).map(|i| 10 + i).sum();
    assert_eq!((fa, fb), (even, odd));
}
