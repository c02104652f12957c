//! Property tests for TCP: complete in-order delivery under arbitrary
//! deterministic loss patterns and payload shapes, and sequence-number
//! arithmetic at the wrap.

use proptest::prelude::*;
use spin_net::{Medium, TcpStack, TwoHosts};

fn transfer_under_loss(payload: Vec<u8>, loss_modulus: u64, medium: Medium) -> Vec<u8> {
    let rig = TwoHosts::new();
    if loss_modulus > 1 {
        let wire = match medium {
            Medium::Ethernet => &rig.board.ethernet,
            Medium::Atm => &rig.board.atm,
            Medium::T3 => &rig.board.t3,
        };
        wire.set_drop_filter(move |_, i| i % loss_modulus == loss_modulus - 1);
    }
    let tcp_a = TcpStack::install(&rig.a);
    let tcp_b = TcpStack::install(&rig.b);
    let listener = tcp_b.listen(80);
    let server = rig.exec.spawn("server", move |ctx| {
        let mut received = Vec::new();
        if let Some(conn) = listener.accept(ctx) {
            while let Some(chunk) = conn.recv(ctx) {
                received.extend_from_slice(&chunk);
            }
            conn.close(ctx);
        }
        received
    });
    let dst = rig.b.ip_on(medium);
    rig.exec.spawn("client", move |ctx| {
        if let Ok(conn) = tcp_a.connect(ctx, dst, 80) {
            let _ = conn.send(ctx, &payload);
            ctx.sleep(5_000_000_000); // drain retransmissions
            conn.close(ctx);
        }
    });
    rig.exec.run_until_idle();
    server.join().expect("the server finished cleanly")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn payload_arrives_intact_and_ordered_under_loss(
        payload in prop::collection::vec(any::<u8>(), 1..12_000),
        loss in prop_oneof![Just(0u64), 3u64..9],
    ) {
        let received = transfer_under_loss(payload.clone(), loss, Medium::Atm);
        prop_assert_eq!(received, payload);
    }

    #[test]
    fn tiny_and_boundary_payloads_survive(
        len in prop_oneof![Just(1usize), Just(1399), Just(1400), Just(1401), Just(2800)],
    ) {
        let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let received = transfer_under_loss(payload.clone(), 0, Medium::Ethernet);
        prop_assert_eq!(received, payload);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn checksum_detects_single_byte_corruption(
        data in prop::collection::vec(any::<u8>(), 20..64),
        flip_at in any::<prop::sample::Index>(),
        flip_bits in 1u8..=255,
    ) {
        use spin_net::{internet_checksum, IpAddr, Ipv4Header};
        let pkt = Ipv4Header::encode(
            IpAddr::new(10, 0, 0, 1),
            IpAddr::new(10, 0, 0, 2),
            17,
            64,
            &data,
        );
        // Header checksum verifies...
        prop_assert_eq!(internet_checksum(&pkt[..Ipv4Header::LEN]), 0);
        // ...and any single-byte header corruption is caught.
        let mut bad = pkt.to_vec();
        let i = flip_at.index(Ipv4Header::LEN);
        bad[i] ^= flip_bits;
        prop_assert!(Ipv4Header::decode(&bytes::Bytes::from(bad)).is_none());
    }

    #[test]
    fn header_round_trips_preserve_every_field(
        sport in any::<u16>(),
        dport in any::<u16>(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        window in any::<u16>(),
        payload in prop::collection::vec(any::<u8>(), 0..100),
    ) {
        use spin_net::{TcpFlags, TcpHeader, UdpHeader};
        let h = TcpHeader {
            src_port: sport,
            dst_port: dport,
            seq,
            ack,
            flags: TcpFlags { syn: seq.is_multiple_of(2), ack: ack.is_multiple_of(2), fin: window.is_multiple_of(2), rst: false },
            window,
        };
        let (h2, p2) = TcpHeader::decode(&h.encode(&payload)).unwrap();
        prop_assert_eq!(h, h2);
        prop_assert_eq!(&p2[..], &payload[..]);

        let d = UdpHeader::encode(sport, dport, &payload);
        let (uh, up) = UdpHeader::decode(&d).unwrap();
        prop_assert_eq!((uh.src_port, uh.dst_port), (sport, dport));
        prop_assert_eq!(&up[..], &payload[..]);
    }
}
