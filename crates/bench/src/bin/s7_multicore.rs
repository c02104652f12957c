//! §5.7 extension: multicore shard scaling on the Table 6 forwarding
//! topology.
//!
//! Four independent client → forwarder → echo chains (the `table6_forward`
//! UDP/Ethernet shape), each host a kernel shard, run under the
//! [`spin_sched::Multicore`] barrier at 1, 2 and 4 worker threads. Every virtual-time
//! output — per-chain checksums, round-trip means, shard clocks, mailbox
//! and epoch counters — must be byte-identical across worker counts (the
//! binary exits nonzero otherwise); only the wall clock is allowed to
//! move. Each round burns real CPU alongside its virtual charge so the
//! wall clock has something to parallelise.
//!
//! On a single-core host a ≥2× wall-clock speedup is physically
//! unobtainable, so the headline `speedup_4w` falls back to the
//! deterministic parallelism the epoch plan exposed (average shards
//! granted per epoch, capped at the worker count); `speedup_basis` in
//! `BENCH_multicore.json` says which basis was used.

use parking_lot::Mutex;
use spin_bench::storm::{run_to_completion, sweep_workers, WORKERS};
use spin_bench::{render_table, us, JsonReport, Row};
use spin_net::{Forwarder, Medium, ShardRig};
use spin_sal::Nanos;
use spin_sched::MulticoreStats;
use std::sync::Arc;

const CHAINS: u64 = 4;
const ROUNDS: u64 = 10;
/// Real-CPU xorshift iterations per client round / echo packet.
const CLIENT_BURN: u64 = 2_000_000;
const ECHO_BURN: u64 = 1_000_000;
/// Virtual charge accompanying each client burn (dwarfs the wire RTT so
/// the chains overlap in virtual time and the plan exposes parallelism).
const WORK_NS: Nanos = 150_000;

/// Deterministic xorshift64 burn — real CPU, data-dependent result.
fn burn(seed: u64, iters: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x)
}

/// Everything a run must reproduce exactly at any worker count.
#[derive(Debug, PartialEq, Eq)]
struct VirtualOutputs {
    /// Per chain: (client checksum, echo checksum, mean RTT ns).
    chains: Vec<(u64, u64, Nanos)>,
    /// Final clock of every shard, in shard order.
    clocks: Vec<Nanos>,
    barrier: MulticoreStats,
}

fn run(workers: usize) -> (VirtualOutputs, f64) {
    let rig = ShardRig::new(workers, (CHAINS * 3) as u8);
    let mut forwarders = Vec::new();
    let mut chains = Vec::new();
    for (c, chain) in (0..CHAINS).zip(rig.shards.chunks(3)) {
        let (host_a, exec_a, a) = (&chain[0].host, &chain[0].exec, chain[0].stack.clone());
        let (b, cstk) = (&chain[1].stack, &chain[2].stack);

        forwarders.push(Forwarder::install_udp(b, 7, cstk.ip_on(Medium::Ethernet)));
        let echo_sum = Arc::new(Mutex::new(0u64));
        let es = echo_sum.clone();
        let c2 = cstk.clone();
        spin_net::UdpSocket::bind_with(cstk, 7, "echo", move |p| {
            // xor-fold is order-independent, so the sum is deterministic
            // even though handler ordering across packets is not a
            // contract here.
            *es.lock() ^= burn(p.payload.len() as u64 ^ 0x9e37_79b9, ECHO_BURN);
            let _ = c2.udp_send(7, p.ip.src, p.header.src_port, &p.payload);
        })
        .expect("bind echo");

        let reply = spin_net::UdpSocket::bind(&a, 9000, "client", 4).expect("bind client");
        let b_ip = b.ip_on(Medium::Ethernet);
        let clock = host_a.clock.clone();
        let result: Arc<Mutex<(u64, Nanos)>> = Arc::new(Mutex::new((0, 0)));
        let r2 = result.clone();
        exec_a.spawn("client", move |ctx| {
            a.udp_send(9000, b_ip, 7, &[0u8; 16]).unwrap();
            reply.recv(ctx); // warm-up
            let mut sum = 0u64;
            let mut rtt = 0u64;
            for round in 0..ROUNDS {
                sum ^= burn((c << 32) | round, CLIENT_BURN);
                ctx.work(WORK_NS);
                let t0 = clock.now();
                a.udp_send(9000, b_ip, 7, &[0u8; 16]).unwrap();
                reply.recv(ctx);
                rtt += clock.now() - t0;
            }
            *r2.lock() = (sum, rtt / ROUNDS);
        });
        chains.push((result, echo_sum));
    }

    let wall_ms = run_to_completion(&rig.mc);
    let virt = VirtualOutputs {
        chains: chains
            .iter()
            .map(|(res, echo)| {
                let (sum, rtt) = *res.lock();
                (sum, *echo.lock(), rtt)
            })
            .collect(),
        clocks: rig.clocks(),
        barrier: rig.mc.stats(),
    };
    (virt, wall_ms)
}

fn main() {
    let sweep = sweep_workers(run);
    let base = &sweep.virt;
    let [wall_1w, wall_2w, wall_4w] = sweep.wall_ms;

    let rtt = base.chains[0].2;
    let avg_par = base.barrier.shard_runs as f64 / base.barrier.epochs as f64;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (speedup_4w, basis) = if cores >= 2 {
        (
            wall_1w / wall_4w,
            format!("measured wall-clock ({cores} cores)"),
        )
    } else {
        (
            avg_par.min(4.0),
            "exposed parallelism (single-core host; wall-clock speedup unmeasurable)".to_string(),
        )
    };

    let mut rows = vec![Row::new(
        "UDP Ethernet forward RTT (sharded)",
        1344.0,
        us(rtt),
    )];
    for (w, ms) in WORKERS.iter().zip(sweep.wall_ms) {
        rows.push(Row::extra(&format!("wall-clock, {w} worker(s) (ms)"), ms));
    }
    rows.push(Row::extra("speedup, 4 workers vs 1", speedup_4w));
    rows.push(Row::extra("avg shards runnable per epoch", avg_par));
    print!(
        "{}",
        render_table(
            "S7: multicore shard scaling (Table 6 forwarding topology x4)",
            "µs",
            &rows
        )
    );
    println!("\nVirtual outputs byte-identical at 1/2/4 workers; speedup basis: {basis}.");

    JsonReport::new(
        "multicore",
        "S7: multicore shard scaling (Table 6 forwarding topology x4)",
        "µs",
    )
    .rows(&rows)
    .number("chains", CHAINS as f64)
    .number("shards", (CHAINS * 3) as f64)
    .number("cores", cores as f64)
    .number("epochs", base.barrier.epochs as f64)
    .number("avg_parallelism", avg_par)
    .number("wall_ms_1w", wall_1w)
    .number("wall_ms_2w", wall_2w)
    .number("wall_ms_4w", wall_4w)
    .number("speedup_4w", speedup_4w)
    .text("speedup_basis", &basis)
    .write_if_requested();
}
