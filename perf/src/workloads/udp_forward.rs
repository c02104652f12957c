//! `udp_forward` — s8's uninterrupted client → forwarder → echo chain on
//! three shards, open loop.
//!
//! One storm strand sends a uniquely numbered, send-timestamped packet per
//! 1 µs of virtual time (self-paced by the charged send cost) to the
//! forwarder, which redirects it to the echo host; the echo retraces
//! through the forwarder to the client. Forwarder and echo are handlers:
//! no TCP, no HTTP, and the only strands that switch are each stack's
//! protocol strand (about once per epoch). op = echoed round trip.
//!
//! *Why:* it isolates the packet path — `sal.nic`/`sal.wire`/`sal.mailbox`,
//! `sched.shard` epochs and `core.dispatch` keyed raises — and is the
//! workload on which a TCP or HTTP change must show **no change**.

use super::{delta, Checks, Digest, RoundOutput, ShardRig, Window};
use crate::gen::{mix, UdpInputs};
use crate::host;
use crate::trace::Tracer;
use spin_net::{Forwarder, Medium, UdpSocket};
use spin_sal::Nanos;
use spin_sched::IdleOutcome;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Packets in one round.
pub const PACKETS: usize = 50_000;
const ECHO_PORT: u16 = 7;
const CLIENT_PORT: u16 = 9000;
const SEND_GAP: Nanos = 1_000;
/// Virtual time per window slice. The storm spans ≈4 s of virtual time on
/// the forwarder and echo shards and ≈20 s on the client's, which works
/// through the replies after its sender has run ahead.
const SLICE: Nanos = 50_000_000;

/// Relaxed everywhere: read after the run returns; the barrier join is the
/// synchronisation point.
#[derive(Default)]
struct Tally {
    count: AtomicU64,
    xor: AtomicU64,
    bytes: AtomicU64,
}

impl Tally {
    fn note(&self, payload: &[u8]) -> u64 {
        let seq = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
        self.count.fetch_add(1, Ordering::Relaxed);
        self.xor.fetch_xor(mix(seq), Ordering::Relaxed);
        self.bytes
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        seq
    }
}

pub fn run(inputs: &UdpInputs, workers: usize, tracer: &mut Tracer) -> RoundOutput {
    let setup_span = tracer.begin("setup");

    let rig = ShardRig::build(3, workers, tracer);
    let (a, b, c) = (
        rig.stacks[0].clone(),
        rig.stacks[1].clone(),
        rig.stacks[2].clone(),
    );
    let clock_a = rig.hosts[0].clock.clone();

    let span = tracer.begin("spawn");
    let medium = Medium::Ethernet;
    let fwd = Forwarder::install_udp(&b, ECHO_PORT, c.ip_on(medium));
    let echoes = Arc::new(Tally::default());
    {
        let (t, c2) = (echoes.clone(), c.clone());
        UdpSocket::bind_with(&c, ECHO_PORT, "echo", move |p| {
            t.note(&p.payload);
            let _ = c2.udp_send(ECHO_PORT, p.ip.src, p.header.src_port, &p.payload);
        })
        .expect("bind echo");
    }
    let replies = Arc::new(Tally::default());
    let rtt_sum = Arc::new(AtomicU64::new(0));
    let last_reply = Arc::new(AtomicU64::new(0));
    {
        let (t, rtt, last, clock) = (
            replies.clone(),
            rtt_sum.clone(),
            last_reply.clone(),
            clock_a.clone(),
        );
        UdpSocket::bind_with(&a, CLIENT_PORT, "client", move |p| {
            t.note(&p.payload);
            let sent = u64::from_le_bytes(p.payload[8..16].try_into().expect("8 bytes"));
            rtt.fetch_add(clock.now() - sent, Ordering::Relaxed);
            last.fetch_max(clock.now(), Ordering::Relaxed);
        })
        .expect("bind client");
    }
    {
        let b_ip = b.ip_on(medium);
        let sizes: Arc<[u16]> = inputs.sizes.as_slice().into();
        rig.execs[0].spawn("storm", move |ctx| {
            let mut payload = vec![0u8; 1400];
            for (seq, &size) in sizes.iter().enumerate() {
                payload[0..8].copy_from_slice(&(seq as u64).to_le_bytes());
                payload[8..16].copy_from_slice(&clock_a.now().to_le_bytes());
                a.udp_send(CLIENT_PORT, b_ip, ECHO_PORT, &payload[..usize::from(size)])
                    .expect("send");
                ctx.work(SEND_GAP);
            }
        });
    }
    tracer.end(span, 1);
    tracer.end(setup_span, 1);
    let threads_at_window = host::proc_sample().threads;
    let before = rig.snapshot();

    // ---- the timed window: the whole storm, SLICE of virtual time at a time
    let window_span = tracer.begin("window");
    let mut window = Window::open(tracer);
    // Progress is counted at the echo host: the sender runs the whole
    // storm in its first grant (nothing preempts it), so its own shard only
    // sees the replies once it has caught up, at the end.
    let (outcome, completed) = rig.run_sliced(&mut window, 0, SLICE, || {
        echoes.count.load(Ordering::Relaxed)
    });
    let (window_opened, window_ns, slices) = window.close();
    tracer.end(window_span, completed);

    // ---- output checks: s8's uninterrupted-run assertions ----
    let span = tracer.begin("check");
    let mut checks = Checks::default();
    let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
    let total = inputs.sizes.len() as u64;
    let want_xor = (0..total).fold(0, |acc, seq| acc ^ mix(seq));
    let want_bytes: u64 = inputs.sizes.iter().map(|&s| u64::from(s)).sum();
    checks.eq(
        "storm runs to completion",
        outcome,
        IdleOutcome::AllComplete,
    );
    checks.eq(
        "every sequence number echoed once",
        load(&echoes.xor),
        want_xor,
    );
    checks.eq(
        "every echo returned to the client",
        load(&replies.xor),
        want_xor,
    );
    checks.eq(
        "echoed bytes are the generated sizes",
        load(&echoes.bytes),
        want_bytes,
    );
    checks.eq(
        "returned bytes are the generated sizes",
        load(&replies.bytes),
        want_bytes,
    );
    checks.eq("echo count", load(&echoes.count), total);
    let hold = b.events().udp_arrived.hold_stats().expect("event alive");
    checks.eq("nothing parks without a swap", hold.held, 0);
    let fstats = fwd.stats();
    checks.eq("forwarder forwarded every packet", fstats.forwarded, total);
    checks.eq("forwarder returned every reply", fstats.replies, total);
    let after = rig.snapshot();
    checks.eq("zero dropped wire frames", after.wire_dropped, 0);
    checks.eq(
        "zero dropped cross-shard envelopes",
        after.mailbox_dropped,
        0,
    );
    checks.eq("four frames per round trip", after.wire_frames, 4 * total);
    let counts = delta(&after, &before);

    let mut digest = Digest::default();
    digest.feed_all([
        load(&echoes.count),
        load(&echoes.xor),
        load(&replies.count),
        load(&replies.xor),
        load(&rtt_sum),
        load(&last_reply),
        fstats.forwarded,
        fstats.replies,
        fstats.flows,
        after.epochs,
        after.shard_runs,
        after.mailbox_posted,
        after.raises,
    ]);
    digest.feed_all(rig.clocks());
    tracer.end(span, 1);

    let span = tracer.begin("teardown");
    drop((fwd, b, c, rig));
    tracer.end(span, 1);

    let returned = load(&replies.count);
    RoundOutput {
        ops_attempted: total,
        ops_failed: total.saturating_sub(returned) + checks.failures.len() as u64,
        failures: checks.failures,
        window_opened,
        window_ns,
        slices,
        counts,
        digest: digest.finish(),
        threads_at_window,
    }
}
