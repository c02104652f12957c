//! The §5.3 protocol forwarder: an extension that splices a port's
//! traffic — data *and* control packets — to a secondary host, preserving
//! TCP's end-to-end semantics (Table 6's experiment).
//!
//! Run with: `cargo run --example protocol_forwarder`

use spin_os::net::{Forwarder, Medium, TcpStack, ThreeHosts};
use std::sync::Arc;

fn main() {
    // A = client, B = forwarder, C = the real server.
    let rig = ThreeHosts::new();
    let fwd_udp = Forwarder::install_udp(&rig.b, 7, rig.c.ip_on(Medium::Ethernet));
    let fwd_tcp = Forwarder::install_tcp(&rig.b, 80, rig.c.ip_on(Medium::Ethernet));
    let tcp_a = TcpStack::install(&rig.a);
    let tcp_c = TcpStack::install(&rig.c);

    // UDP echo service on C.
    let c2 = rig.c.clone();
    spin_os::net::UdpSocket::bind_with(&rig.c, 7, "echo", move |p| {
        let _ = c2.udp_send(7, p.ip.src, p.header.src_port, &p.payload);
    })
    .unwrap();

    // TCP service on C: a single strand parked on a readiness poller —
    // the listener is token 0, each accepted connection gets its own.
    let listener = tcp_c.listen(80);
    let poller = spin_os::net::NetPoller::new(&rig.c);
    poller.add(listener.as_ref(), 0, spin_os::net::interest::ACCEPT);
    let server_strand = rig.exec.spawn("tcp-server", move |ctx| {
        let mut conns = std::collections::BTreeMap::new();
        let mut next_token = 1u64;
        loop {
            for (token, _mask) in poller.wait(ctx) {
                if token == 0 {
                    while let Some(conn) = listener.try_accept() {
                        poller.add(conn.as_ref(), next_token, spin_os::net::interest::READABLE);
                        conns.insert(next_token, conn);
                        next_token += 1;
                    }
                } else if let Some(conn) = conns.remove(&token) {
                    let req = conn.try_recv().unwrap_or_default();
                    let reply = format!("you said {} bytes via {:?}", req.len(), conn.peer().0);
                    conn.send(ctx, reply.as_bytes()).unwrap();
                    conn.close(ctx);
                }
            }
        }
    });
    rig.exec.set_daemon(server_strand);

    // Client on A talks only to B — the forwarder is transparent.
    let b_ip = rig.b.ip_on(Medium::Ethernet);
    let a = rig.a.clone();
    let reply_ch = spin_os::net::UdpSocket::bind(&rig.a, 9000, "client", 4).unwrap();
    let clock = rig.exec.clock().clone();
    rig.exec.spawn("client", move |ctx| {
        // UDP round trip through the splice.
        let t0 = clock.now();
        a.udp_send(9000, b_ip, 7, &[0u8; 16]).unwrap();
        let echo = reply_ch.recv(ctx).expect("forwarded echo");
        println!(
            "UDP 16-byte round trip through the forwarder: {:.0} µs ({} bytes back)",
            (clock.now() - t0) as f64 / 1e3,
            echo.payload.len()
        );

        // Full TCP connection through the splice: SYN, data, FIN all
        // forwarded.
        let t1 = clock.now();
        let conn = tcp_a
            .connect(ctx, b_ip, 80)
            .expect("handshake through forwarder");
        conn.send(ctx, b"hello across the splice").unwrap();
        let reply = conn.recv(ctx).expect("reply");
        conn.close(ctx);
        println!(
            "TCP request/reply through the forwarder: {:.0} µs — server said: {}",
            (clock.now() - t1) as f64 / 1e3,
            String::from_utf8_lossy(&reply)
        );
    });
    rig.exec.run_until_idle();

    println!("UDP forwarder stats: {:?}", fwd_udp.stats());
    println!("TCP forwarder stats: {:?}", fwd_tcp.stats());
    let u = fwd_udp.stats();
    assert_eq!((u.forwarded, u.replies), (1, 1));
    assert!(
        fwd_tcp.stats().forwarded >= 3,
        "SYN + data + ACKs + FIN all spliced"
    );
    let _ = Arc::strong_count(&Arc::new(()));
    println!("protocol forwarder OK");
}
