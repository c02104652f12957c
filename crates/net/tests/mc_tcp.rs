//! TCP and HTTP over the sharded multicore rig.
//!
//! `mc_http_server` is a regression test for the `plan_epoch` grant bug:
//! a shard whose peer's only local horizon was a distant retransmission
//! timer could be granted far past the peer's *reaction* to this shard's
//! own outbound mail, so the reply (here, the client's request segment)
//! arrived tens of milliseconds stale — after the server's idle reaper
//! had already closed the session. The grant is now capped at
//! `n_i + 2·lookahead`.

use spin_net::{interest, Medium, NetPoller, ShardRig, TcpStack};

#[test]
fn mc_tcp_blocking_accept() {
    let rig = ShardRig::new(1, 2);
    let (a, b) = (&rig.shards[0], &rig.shards[1]);
    let ta = TcpStack::install(&a.stack);
    let tb = TcpStack::install(&b.stack);
    let listener = tb.listen(80);
    b.exec.spawn("server", move |ctx| {
        let conn = listener.accept(ctx).unwrap();
        let _ = conn.recv(ctx);
        conn.send(ctx, b"pong").unwrap();
        conn.close(ctx);
    });
    let dst = b.stack.ip_on(Medium::Ethernet);
    a.exec.spawn("client", move |ctx| {
        let conn = ta.connect(ctx, dst, 80).unwrap();
        conn.send(ctx, b"ping").unwrap();
        assert_eq!(conn.recv(ctx).as_deref(), Some(&b"pong"[..]));
        conn.close(ctx);
    });
    rig.mc.run_until_idle();
}

#[test]
fn mc_tcp_poller_accept() {
    let rig = ShardRig::new(1, 2);
    let (a, b) = (&rig.shards[0], &rig.shards[1]);
    let ta = TcpStack::install(&a.stack);
    let tb = TcpStack::install(&b.stack);
    let listener = tb.listen(80);
    let poller = NetPoller::new(&b.stack);
    poller.add(listener.as_ref(), 0, interest::ACCEPT);
    let server = b.exec.spawn("server", move |ctx| {
        let mut conns = std::collections::BTreeMap::new();
        let mut next = 1u64;
        loop {
            for (token, _mask) in poller.wait(ctx) {
                if token == 0 {
                    while let Some(conn) = listener.try_accept() {
                        poller.add(conn.as_ref(), next, interest::READABLE);
                        conns.insert(next, conn);
                        next += 1;
                    }
                } else if let Some(conn) = conns.remove(&token) {
                    let _ = conn.try_recv();
                    conn.send(ctx, b"pong").unwrap();
                    conn.close(ctx);
                }
            }
        }
    });
    b.exec.set_daemon(server);
    let dst = b.stack.ip_on(Medium::Ethernet);
    a.exec.spawn("client", move |ctx| {
        let conn = ta.connect(ctx, dst, 80).unwrap();
        conn.send(ctx, b"ping").unwrap();
        assert_eq!(conn.recv(ctx).as_deref(), Some(&b"pong"[..]));
        conn.close(ctx);
    });
    rig.mc.run_until_idle();
}

#[test]
fn mc_http_server() {
    use spin_fs::{BufferCache, FileSystem, HybridBySize, NoCachePolicy, WebCache};
    use spin_net::{Bytes, HttpConfig, HttpServer, Request, Response};
    use std::sync::Arc;

    let rig = ShardRig::new(1, 2);
    let (a, b) = (&rig.shards[0], &rig.shards[1]);
    let ta = TcpStack::install(&a.stack);
    let tb = TcpStack::install(&b.stack);
    let bc = BufferCache::new(
        b.host.disk.clone(),
        b.exec.clone(),
        64,
        Box::new(NoCachePolicy),
    );
    let fs = FileSystem::format(bc, 0, 500);
    let cache = Arc::new(WebCache::new(
        1 << 20,
        Box::new(HybridBySize {
            large_threshold: 65_536,
        }),
    ));
    let server = HttpServer::start_with(
        &b.stack,
        &tb,
        fs,
        cache,
        80,
        HttpConfig {
            backlog: 4096,
            idle_timeout: 50_000_000,
            tick: 10_000_000,
            time_bound: None,
            quota: None,
        },
    );
    server.route("/r0", |_req: &Request| {
        Response::ok(Bytes::from_static(b"hi"))
    });
    let dst = b.stack.ip_on(Medium::Atm);
    a.exec.spawn("client", move |ctx| {
        ctx.sleep(250_000_000);
        let conn = ta.connect(ctx, dst, 80).expect("connect");
        let _ = conn.send(ctx, b"GET /r0 HTTP/1.0\r\n\r\n");
        let mut resp = Vec::new();
        while let Some(b) = conn.recv(ctx) {
            resp.extend_from_slice(&b);
        }
        conn.close(ctx);
        assert!(
            std::str::from_utf8(&resp)
                .unwrap_or("")
                .starts_with("HTTP/1.0 200"),
            "got: {resp:?}"
        );
    });
    rig.mc.run_until_idle();
    assert_eq!(server.stats().ok, 1);
}
