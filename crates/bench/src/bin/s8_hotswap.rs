//! §4.3 extension: hot-swapping the Table 6 UDP forwarder mid-storm.
//!
//! One client → forwarder → echo chain (the `table6_forward` topology,
//! each host a kernel shard) takes a storm of uniquely-numbered UDP
//! packets. At virtual instant `T_QUIESCE` a [`SwapCoordinator`] closes
//! the gate on the forwarder's `UDP.PktArrived` event via
//! [`spin_sched::Multicore::post_control`] — arrivals park in the hold queue — and at
//! `T_COMMIT` it transfers the live flow table into a freshly built v2,
//! rebinds the handlers in one generation bump and replays the parked
//! packets in the order they parked.
//!
//! Three properties are asserted, all exit-nonzero on failure:
//!
//! 1. **Zero drop**: every storm packet echoes and every echo returns to
//!    the client, with the hold queue reconciling exactly (`held ==
//!    replayed`, `overflowed == 0`) and ≥ 10 000 packets parked at the
//!    commit instant — the swap really happened mid-storm.
//! 2. **Semantic invariance**: packet counts, order-independent payload
//!    checksums and flow-table totals are identical to an uninterrupted
//!    run of the same storm (v2 is built from the transferred snapshot,
//!    so forwarding is semantically identical).
//! 3. **Worker invariance**: every virtual output — including the swap's
//!    own park/replay counters — is byte-identical at 1, 2 and 4 shard
//!    workers; only the wall clock may move.
//!
//! The emitted `BENCH_hotswap.json` contains only virtual-time numbers
//! and is golden-diffed byte-for-byte by `scripts/verify.sh`.

use parking_lot::Mutex;
use spin_bench::storm::{mix, run_to_completion, sweep_workers};
use spin_bench::{render_table, us, JsonReport, Row};
use spin_core::GatedEvent;
use spin_net::{Forwarder, Medium, ShardRig};
use spin_sal::Nanos;
use spin_sched::MulticoreStats;
use spin_swap::{SwapCoordinator, SwapReport, SwapSession, UndoAction};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const ECHO_PORT: u16 = 7;
const CLIENT_PORT: u16 = 9000;
/// Storm size: one packet per [`SEND_GAP`] of virtual time.
const STORM: u64 = 24_000;
const SEND_GAP: Nanos = 1_000;
/// Each send also charges the profile's real protocol cost (~80 µs), so
/// the 24 000-packet storm spans ~1.9 s of virtual time. The gate closes
/// 200 ms in and commits at 1.5 s: well over 10 000 packets (plus the
/// echo replies in flight) arrive into the closed gate and park.
const T_QUIESCE: Nanos = 200_000_000;
const T_COMMIT: Nanos = 1_500_000_000;
/// The "mid-storm" gate from the acceptance bar.
const MIN_IN_FLIGHT: u64 = 10_000;

/// Outputs that must match between the hot-swapped and uninterrupted
/// runs: counts, order-independent checksums, flow-table totals. No
/// timing — parked packets legitimately reply later than unparked ones.
#[derive(Debug, PartialEq, Eq)]
struct Semantics {
    echo_count: u64,
    echo_xor: u64,
    reply_count: u64,
    reply_xor: u64,
    forwarded: u64,
    replies: u64,
    flows: u64,
}

/// Everything a scenario must reproduce exactly at any worker count.
#[derive(Debug, PartialEq, Eq)]
struct VirtualOutputs {
    sem: Semantics,
    rtt_sum: Nanos,
    last_reply: Nanos,
    clocks: Vec<Nanos>,
    barrier: MulticoreStats,
    held: u64,
    replayed: u64,
    overflowed: u64,
    drain_ns: Nanos,
    generation: u64,
}

fn run(workers: usize, swap: bool) -> (VirtualOutputs, f64) {
    let rig = ShardRig::new(workers, 3);
    let mc = &rig.mc;
    let (host_a, exec_a, a) = (
        &rig.shards[0].host,
        &rig.shards[0].exec,
        rig.shards[0].stack.clone(),
    );
    let (host_b, b) = (&rig.shards[1].host, rig.shards[1].stack.clone());
    let c = rig.shards[2].stack.clone();

    let medium = Medium::Ethernet;
    let target = c.ip_on(medium);
    let fwd = Arc::new(Forwarder::install_udp(&b, ECHO_PORT, target));

    let echo_count = Arc::new(AtomicU64::new(0));
    let echo_xor = Arc::new(AtomicU64::new(0));
    {
        let (cnt, xor, c2) = (echo_count.clone(), echo_xor.clone(), c.clone());
        spin_net::UdpSocket::bind_with(&c, ECHO_PORT, "echo", move |p| {
            let seq = u64::from_le_bytes(p.payload[0..8].try_into().unwrap());
            cnt.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
            xor.fetch_xor(mix(seq), Ordering::Relaxed); // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
            let _ = c2.udp_send(ECHO_PORT, p.ip.src, p.header.src_port, &p.payload);
        })
        .expect("bind echo");
    }

    let reply_count = Arc::new(AtomicU64::new(0));
    let reply_xor = Arc::new(AtomicU64::new(0));
    let rtt_sum = Arc::new(AtomicU64::new(0));
    let last_reply = Arc::new(AtomicU64::new(0));
    {
        let (cnt, xor) = (reply_count.clone(), reply_xor.clone());
        let (rtt, last) = (rtt_sum.clone(), last_reply.clone());
        let clock = host_a.clock.clone();
        spin_net::UdpSocket::bind_with(&a, CLIENT_PORT, "client", move |p| {
            let seq = u64::from_le_bytes(p.payload[0..8].try_into().unwrap());
            let sent = u64::from_le_bytes(p.payload[8..16].try_into().unwrap());
            cnt.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
            xor.fetch_xor(mix(seq), Ordering::Relaxed); // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
            rtt.fetch_add(clock.now() - sent, Ordering::Relaxed); // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
            last.fetch_max(clock.now(), Ordering::Relaxed); // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
        })
        .expect("bind client");
    }

    // The storm: one uniquely-numbered, send-timestamped packet per gap.
    {
        let a2 = a.clone();
        let b_ip = b.ip_on(medium);
        let clock = host_a.clock.clone();
        exec_a.spawn("storm", move |ctx| {
            for seq in 0..STORM {
                let mut payload = [0u8; 16];
                payload[0..8].copy_from_slice(&seq.to_le_bytes());
                payload[8..16].copy_from_slice(&clock.now().to_le_bytes());
                a2.udp_send(CLIENT_PORT, b_ip, ECHO_PORT, &payload).unwrap();
                ctx.work(SEND_GAP);
            }
        });
    }

    // The swap phases ride the control lane: each runs on the forwarder
    // shard's own pumping thread at an exact virtual instant, totally
    // ordered with packet deliveries — identical at any worker count.
    let coord = SwapCoordinator::new(host_b.clock.clone());
    let v2_slot: Arc<Mutex<Option<Forwarder>>> = Arc::new(Mutex::new(None));
    let report_slot: Arc<Mutex<Option<SwapReport>>> = Arc::new(Mutex::new(None));
    if swap {
        let session_slot: Arc<Mutex<Option<SwapSession>>> = Arc::new(Mutex::new(None));
        {
            let coord = coord.clone();
            let ev = b.events().udp_arrived.clone();
            let slot = session_slot.clone();
            assert!(
                mc.post_control(host_b.id, T_QUIESCE, move |_now| {
                    let gate = Arc::new(ev) as Arc<dyn GatedEvent>;
                    *slot.lock() = Some(coord.begin(vec![gate]));
                }),
                "post quiesce phase"
            );
        }
        {
            let coord = coord.clone();
            let (fwd, b2) = (fwd.clone(), b.clone());
            let (v2_slot, report_slot) = (v2_slot.clone(), report_slot.clone());
            assert!(
                mc.post_control(host_b.id, T_COMMIT, move |_now| {
                    let session = session_slot
                        .lock()
                        .take()
                        .expect("quiesce phase ran at T_QUIESCE");
                    let ev = b2.events().udp_arrived.clone();
                    let ident = fwd.identity().clone();
                    let report = coord
                        .complete(
                            session,
                            fwd.identity(),
                            &*fwd,
                            |old| old.snapshot(),
                            None,
                            move |snapshot| {
                                let (v2, specs) = Forwarder::udp_swap_specs(
                                    &b2,
                                    ECHO_PORT,
                                    target,
                                    "Forward-v2",
                                    snapshot,
                                );
                                let receipt = ev
                                    .rebind(&ident, &ident, specs)
                                    .expect("rebind forwarder to v2");
                                *v2_slot.lock() = Some(v2);
                                vec![Box::new(move || {
                                    ev.restore(&ident, receipt).expect("restore v1");
                                }) as UndoAction]
                            },
                        )
                        .expect("mid-storm swap commits");
                    *report_slot.lock() = Some(report);
                }),
                "post transfer/rebind/resume phase"
            );
        }
    }

    let wall_ms = run_to_completion(mc);

    let ev = &b.events().udp_arrived;
    let hold = ev.hold_stats().expect("event alive");
    let report = report_slot.lock().take();
    let fwd_stats = match v2_slot.lock().as_ref() {
        // The snapshot carries the counters, so v2 continues v1's totals.
        Some(v2) => v2.stats(),
        None => fwd.stats(),
    };

    // Zero drop: every packet echoed, every echo returned, the hold queue
    // reconciles exactly and the commit really happened mid-storm.
    assert_eq!(echo_count.load(Ordering::Relaxed), STORM); // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
    assert_eq!(reply_count.load(Ordering::Relaxed), STORM); // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
    assert_eq!(hold.replayed, hold.held, "resume drained the hold queue");
    assert_eq!(hold.overflowed, 0, "the hold queue never overflowed");
    assert_eq!(ev.held_len().expect("event alive"), 0);
    if swap {
        let report = report.as_ref().expect("commit phase ran");
        assert!(
            report.held >= MIN_IN_FLIGHT,
            "only {} packets parked at commit; the swap missed the storm",
            report.held
        );
        assert_eq!(report.held, hold.held);
        assert_eq!(report.replayed, hold.replayed);
        let st = coord.stats();
        assert_eq!((st.attempted, st.committed, st.rolled_back), (1, 1, 0));
    } else {
        assert_eq!(hold.held, 0, "nothing parks without a swap");
    }

    let virt = VirtualOutputs {
        sem: Semantics {
            echo_count: echo_count.load(Ordering::Relaxed), // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
            echo_xor: echo_xor.load(Ordering::Relaxed), // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
            reply_count: reply_count.load(Ordering::Relaxed), // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
            reply_xor: reply_xor.load(Ordering::Relaxed), // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
            forwarded: fwd_stats.forwarded,
            replies: fwd_stats.replies,
            flows: fwd_stats.flows,
        },
        rtt_sum: rtt_sum.load(Ordering::Relaxed), // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
        last_reply: last_reply.load(Ordering::Relaxed), // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
        clocks: rig.clocks(),
        barrier: mc.stats(),
        held: hold.held,
        replayed: hold.replayed,
        overflowed: hold.overflowed,
        drain_ns: report.as_ref().map_or(0, |r| r.drain_ns),
        generation: ev.generation().expect("event alive"),
    };
    (virt, wall_ms)
}

fn main() {
    // Each scenario sweeps 1/2/4 workers and must be byte-identical.
    let plain = sweep_workers(|w| run(w, false));
    let swapped = sweep_workers(|w| run(w, true));
    let base = &plain.virt;
    let hot = &swapped.virt;

    // The online-upgrade promise: the hot-swapped storm's packet counts,
    // checksums and flow totals match the uninterrupted run exactly.
    assert_eq!(
        hot.sem, base.sem,
        "hot-swapped outputs diverged from the uninterrupted run"
    );

    let rows = vec![
        Row::extra("storm packets sent", STORM as f64),
        Row::extra("parked at commit instant", hot.held as f64),
        Row::extra("replayed on resume", hot.replayed as f64),
        Row::extra("hold-queue overflows", hot.overflowed as f64),
        Row::extra("gate window / drain (µs)", us(hot.drain_ns)),
        Row::extra("storm completion, uninterrupted (µs)", us(base.last_reply)),
        Row::extra("storm completion, hot-swapped (µs)", us(hot.last_reply)),
        Row::extra("plan generation after swap", hot.generation as f64),
    ];
    print!(
        "{}",
        render_table(
            "S8: live forwarder hot-swap mid-storm (Table 6 topology)",
            "µs",
            &rows
        )
    );
    println!(
        "\nZero dropped packets; semantics identical to the uninterrupted run; \
         outputs byte-identical at 1/2/4 workers."
    );
    for (label, sweep) in [("uninterrupted", &plain), ("hot-swapped", &swapped)] {
        println!("wall-clock ({label}): {}", sweep.walls());
    }

    JsonReport::new(
        "hotswap",
        "S8: live forwarder hot-swap mid-storm (Table 6 topology)",
        "µs",
    )
    .rows(&rows)
    .number("storm", STORM as f64)
    .number("min_in_flight_gate", MIN_IN_FLIGHT as f64)
    .number("echo_count", hot.sem.echo_count as f64)
    .number("reply_count", hot.sem.reply_count as f64)
    .number("forwarded", hot.sem.forwarded as f64)
    .number("flow_replies", hot.sem.replies as f64)
    .number("flows", hot.sem.flows as f64)
    .number("quiesce_at_us", us(T_QUIESCE))
    .number("commit_at_us", us(T_COMMIT))
    .text("workers_checked", "1/2/4 byte-identical")
    .text(
        "semantics",
        "hot-swapped == uninterrupted (counts, checksums, flow totals)",
    )
    .write_if_requested();
}
