//! `sal` probes: the virtual clock, the timer queue, the shard mailbox, a
//! NIC pair on a wire, and buffer chains.

use super::Bench;
use spin_net::Bytes;
use spin_sal::{BufChain, Clock, Mailbox, SimBoard, TimerQueue};
use std::hint::black_box;

pub fn run(bench: &mut Bench) {
    // A bare clock: no advance hooks, as under a strand-less dispatcher.
    // (Under an executor every charge also runs the quantum hook; that
    // part is the scheduler's and stays unattributed.)
    let clock = Clock::new();
    bench.probe_ns("sal.clock.advance_ns", || {
        for _ in 0..100_000 {
            clock.advance(black_box(1));
        }
        100_000
    });

    // One timer scheduled and fired, the queue otherwise holding the few
    // dozen entries a busy shard has.
    let timers = TimerQueue::new();
    for i in 0..32 {
        timers.schedule_at(u64::MAX - i, |_| {});
    }
    let mut now = 0u64;
    bench.probe_ns("sal.timers.schedule_fire_ns", || {
        for _ in 0..10_000 {
            now += 10;
            timers.schedule_at(now, |t| {
                black_box(t);
            });
            black_box(timers.fire_due(now));
        }
        10_000
    });

    // Envelopes posted singly and drained eight at a time, about the burst
    // an epoch finds waiting in the storms.
    let mailbox = Mailbox::new();
    let mut at = 0u64;
    bench.probe_ns("sal.mailbox.post_drain_ns", || {
        for _ in 0..2_000 {
            for lane in 0..8 {
                at += 1;
                mailbox.post(at, lane, |t| {
                    black_box(t);
                });
            }
            for env in mailbox.drain() {
                (env.action)(env.deliver_at);
            }
        }
        16_000
    });

    // One 64-byte frame from NIC to NIC on a shared-timeline board: driver
    // charges, wire serialisation, timer delivery, interrupt, receive.
    let board = SimBoard::new();
    let (a, b) = (board.new_host(16), board.new_host(16));
    let payload = Bytes::from(vec![0u8; 64]);
    bench.probe_ns("sal.nic.send_recv_ns", || {
        for _ in 0..5_000 {
            a.ethernet
                .send(b.endpoint(), payload.clone())
                .expect("fits the mtu");
            let due = board.timers.next_deadline().expect("frame in flight");
            board.clock.skip_to(due);
            board.timers.fire_due(board.clock.now());
            b.irqs.dispatch_pending();
            black_box(b.ethernet.receive().expect("frame delivered"));
        }
        5_000
    });

    // The transmit path's buffer handling: headers prepended to a payload,
    // then flattened for the wire.
    let (eth, ip, udp) = (
        Bytes::from(vec![1u8; 14]),
        Bytes::from(vec![2u8; 20]),
        Bytes::from(vec![3u8; 8]),
    );
    let body = Bytes::from(vec![4u8; 256]);
    bench.probe_ns("sal.buf.append_flatten_ns", || {
        for _ in 0..20_000 {
            let mut chain = BufChain::new();
            chain.append(body.clone());
            chain.prepend(udp.clone());
            chain.prepend(ip.clone());
            chain.prepend(eth.clone());
            black_box(chain.to_bytes());
        }
        20_000
    });
}
