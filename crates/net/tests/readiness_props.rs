//! Properties of the webscale readiness layer: under arbitrary traffic
//! interleavings, a single strand parked on a [`spin_net::NetPoller`]
//! delivers exactly what the legacy one-blocking-strand-per-socket shape
//! delivered — same payload sequences, same stack statistics — each shape
//! is virtual-clock deterministic run-to-run, the hub's batched
//! `Net.Ready` flush is charge-identical to raising each poller's batch
//! individually, and compiled-in-but-idle readiness machinery shifts no
//! output at all (the invariant that keeps the pre-webscale goldens
//! byte-identical).

use proptest::prelude::*;
use spin_check::sync::Mutex;
use spin_net::{interest, Medium, NetPoller, NetStats, ReadyBatch, Token, TwoHosts, UdpSocket};
use spin_sal::Nanos;
use std::collections::BTreeMap;
use std::sync::Arc;

const PORTS: [u16; 3] = [100, 101, 102];

/// One send in the plan: (destination socket index, payload seed, gap
/// before the send in virtual ns).
type Plan = Vec<(usize, u8, Nanos)>;

fn payload_for(seed: u8) -> Vec<u8> {
    vec![seed; (seed as usize % 31) + 1]
}

/// Everything the two delivery shapes must agree on. The final clock is
/// carried separately: it is deterministic *within* a shape but not
/// comparable *across* shapes (the redesign deliberately charges fewer
/// per-connection wakeups than strand-per-socket).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Outcome {
    /// Per socket, the payloads in delivery order.
    delivered: Vec<Vec<Vec<u8>>>,
    stats_a: NetStats,
    stats_b: NetStats,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// One blocking reader strand per socket (the pre-webscale shape).
    StrandPerSocket,
    /// One strand draining every socket through a poller.
    Poller,
    /// Like `StrandPerSocket`, plus an *idle* poller registered on a live
    /// socket with an interest mask the UDP path never notes — must
    /// change nothing, clock included: no note, no `Net.Ready` raise, and
    /// the poller's own keyed install sits on an event that never fires.
    StrandPerSocketWithIdlePoller,
}

fn run(shape: Shape, plan: &Plan) -> (Outcome, Nanos) {
    let rig = TwoHosts::new();
    let socks: Vec<Arc<UdpSocket>> = PORTS
        .iter()
        .map(|&p| UdpSocket::bind(&rig.b, p, &format!("sock-{p}"), 64).expect("bind"))
        .collect();
    let delivered: Arc<Mutex<Vec<Vec<Vec<u8>>>>> =
        Arc::new(Mutex::new(vec![Vec::new(); PORTS.len()]));

    match shape {
        Shape::StrandPerSocket | Shape::StrandPerSocketWithIdlePoller => {
            for (i, sock) in socks.iter().cloned().enumerate() {
                let d2 = delivered.clone();
                let id = rig.exec.spawn(&format!("reader-{i}"), move |ctx| {
                    while let Some(p) = sock.recv(ctx) {
                        d2.lock()[i].push(p.payload.to_vec());
                    }
                });
                rig.exec.set_daemon(id);
            }
            if shape == Shape::StrandPerSocketWithIdlePoller {
                let poller = NetPoller::new(&rig.b);
                poller.add(socks[0].as_ref(), 0, interest::ACCEPT);
            }
        }
        Shape::Poller => {
            let poller = NetPoller::new(&rig.b);
            for (i, sock) in socks.iter().enumerate() {
                poller.add(sock.as_ref(), i as u64, interest::READABLE);
            }
            let d2 = delivered.clone();
            let socks2 = socks.clone();
            let id = rig.exec.spawn("drainer", move |ctx| loop {
                for (token, _mask) in poller.wait(ctx) {
                    let i = token as usize;
                    while let Some(p) = socks2[i].try_recv() {
                        d2.lock()[i].push(p.payload.to_vec());
                    }
                }
            });
            rig.exec.set_daemon(id);
        }
    }

    let a = rig.a.clone();
    let dst = rig.b.ip_on(Medium::Ethernet);
    let plan2 = plan.clone();
    rig.exec.spawn("driver", move |ctx| {
        for (idx, seed, gap) in plan2 {
            ctx.sleep(gap);
            a.udp_send(9000, dst, PORTS[idx % PORTS.len()], &payload_for(seed))
                .expect("send");
        }
    });
    rig.exec.run_until_idle();
    let out = Outcome {
        delivered: delivered.lock().clone(),
        stats_a: rig.a.stats(),
        stats_b: rig.b.stats(),
    };
    (out, rig.exec.clock().now())
}

/// Groups raw notes the way [`spin_net::ReadyHub`] does: OR-merged
/// masks, BTree order, one batch per poller.
fn grouped(notes: &[(u64, Token, u8)]) -> Vec<ReadyBatch> {
    let mut merged: BTreeMap<(u64, Token), u8> = BTreeMap::new();
    for &(poller, token, mask) in notes {
        *merged.entry((poller, token)).or_insert(0) |= mask;
    }
    let mut batches: Vec<ReadyBatch> = Vec::new();
    for ((poller, token), mask) in merged {
        match batches.last_mut() {
            Some(b) if b.poller == poller => b.tokens.push((token, mask)),
            _ => batches.push(ReadyBatch {
                poller,
                tokens: vec![(token, mask)],
            }),
        }
    }
    batches
}

/// Runs a flush of `notes` either through the hub (one `raise_batch`) or
/// as one raise per poller batch; returns each poller's drained ready set
/// plus the virtual time the flush charged.
fn flush_outcome(notes: &[(u64, Token, u8)], batched: bool) -> (Vec<Vec<(Token, u8)>>, Nanos) {
    let rig = TwoHosts::new();
    // Three pollers; ids are allocated deterministically (1, 2, 3).
    let pollers: Vec<Arc<NetPoller>> = (0..3).map(|_| NetPoller::new(&rig.b)).collect();
    let ids: Vec<u64> = pollers.iter().map(|p| p.id()).collect();
    let remap: Vec<(u64, Token, u8)> = notes
        .iter()
        .map(|&(p, t, m)| (ids[(p % 3) as usize], t, m))
        .collect();
    let clock = rig.exec.clock().clone();
    let t0 = clock.now();
    if batched {
        let hub = rig.b.ready_hub();
        for &(poller, token, mask) in &remap {
            hub.note(poller, token, mask);
        }
        hub.flush(&rig.b.events().net_ready);
    } else {
        for batch in grouped(&remap) {
            let _ = rig.b.events().net_ready.raise(batch);
        }
    }
    let spent = clock.now() - t0;
    let drained = pollers.iter().map(|p| p.try_wait()).collect();
    (drained, spent)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The headline property: the readiness path is observationally
    /// equivalent to the per-socket blocking path under arbitrary
    /// interleavings of traffic across sockets, and each shape's virtual
    /// clock is deterministic run-to-run.
    #[test]
    fn poller_matches_strand_per_socket(
        plan in prop::collection::vec(
            (0usize..PORTS.len(), any::<u8>(), 200_000u64..600_000),
            1..24,
        ),
    ) {
        let (legacy, legacy_clock) = run(Shape::StrandPerSocket, &plan);
        let (poller, poller_clock) = run(Shape::Poller, &plan);
        prop_assert_eq!(&legacy, &poller);
        let (legacy2, legacy_clock2) = run(Shape::StrandPerSocket, &plan);
        let (poller2, poller_clock2) = run(Shape::Poller, &plan);
        prop_assert_eq!((legacy, legacy_clock), (legacy2, legacy_clock2));
        prop_assert_eq!((poller, poller_clock), (poller2, poller_clock2));
    }

    /// The charging property: flushing the hub (one `raise_batch` over
    /// per-poller batches) invokes exactly the handlers that raising each
    /// poller's batch individually would, delivers identical merged
    /// masks, and charges *identical* virtual time — the PR-6 batched-
    /// raise equivalence, applied to `Net.Ready`.
    #[test]
    fn hub_flush_is_charge_identical_to_per_poller_raises(
        notes in prop::collection::vec(
            (0u64..3, 0u64..6, 1u8..8),
            1..32,
        ),
    ) {
        let (drained_a, spent_a) = flush_outcome(&notes, true);
        let (drained_b, spent_b) = flush_outcome(&notes, false);
        prop_assert_eq!(drained_a, drained_b);
        prop_assert_eq!(spent_a, spent_b);
    }
}

/// Idle readiness machinery (a poller and a registered-but-silent
/// socket) must not move a single output — clock included: no
/// `Net.Ready` raise ever fires, so no charge, no clock drift, no stats
/// drift.
#[test]
fn idle_poller_changes_nothing() {
    let plan: Plan = (0..12)
        .map(|i| {
            (
                i % PORTS.len(),
                (i * 37 + 5) as u8,
                250_000 + (i as u64) * 13_000,
            )
        })
        .collect();
    let base = run(Shape::StrandPerSocket, &plan);
    let with_idle = run(Shape::StrandPerSocketWithIdlePoller, &plan);
    assert_eq!(base, with_idle, "idle poller must be observationally free");
}
