//! §S10: webscale — a million-connection HTTP storm on the redesigned
//! readiness/socket API.
//!
//! Shard 0 hosts the in-kernel HTTP server (§5.4) as a **single** daemon
//! strand parked on a [`spin_net::NetPoller`]; eleven client shards run
//! 64-strand connection pools with heavy-tailed think gaps, churning
//! through short-lived TCP connections against it over the ATM wire.
//! Every 512th connection is a *slowloris*: it sends a truncated request
//! line and holds the socket, exercising the server's idle sweep (and,
//! through the poller's `time_bound` and the bound [`QuotaCell`], the
//! PR-3/PR-8 containment machinery — over-budget requests get a
//! deterministic 503).
//!
//! The scale ladder runs ~10³ → ~10⁶ total connections. Asserted, all
//! exit-nonzero on failure:
//!
//! 1. **Completion and zero loss**: every connection completes — zero
//!    connect failures, zero dropped wire frames, zero dropped
//!    cross-shard envelopes — and the books close exactly: client-side
//!    status counts equal server-side counters, the idle sweep reaps
//!    exactly the slowloris population, and the quota ledger reconciles
//!    (`attempts == admitted + throttled + shed`, `admitted ==
//!    completed`, nothing in flight).
//! 2. **Worker invariance**: every virtual output — per-shard latency
//!    digests, status counts, server/quota/stack counters, shard clocks —
//!    is byte-identical at 1, 2 and 4 workers; only the wall clock moves.
//! 3. **Flat cost**: wall-clock per connection at the top of the ladder
//!    stays within 2× of the ~10³-connection rung — the single-strand
//!    poller design has no per-connection machinery to congest.
//!
//! The emitted `BENCH_webscale.json` contains only virtual-time numbers
//! and is golden-diffed byte-for-byte by `scripts/verify.sh`.

use parking_lot::Mutex;
use spin_bench::storm::{digest, mix, sweep_workers, LatencyDigest};
use spin_bench::{render_table, us, JsonReport, Row};
use spin_core::{QuotaLedger, QuotaSnapshot, QuotaSpec};
use spin_fs::{BufferCache, FileSystem, HybridBySize, NoCachePolicy, WebCache};
use spin_net::{
    Bytes, HttpConfig, HttpServer, HttpStats, Medium, NetStats, Request, Response, ShardRig,
    TcpStack,
};
use spin_sal::Nanos;
use spin_sched::{IdleOutcome, MulticoreStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Client shards (1..=CLIENT_SHARDS on the board; shard 0 is the server).
const CLIENT_SHARDS: usize = 11;
/// Connection-pool strands per client shard.
const POOL: usize = 64;
const SERVER_PORT: u16 = 80;
/// Dynamic typed routes `/r0`..`/r5`; `/f6`/`/f7` are files.
const ROUTES: u64 = 6;
/// Every Nth connection per shard is a slowloris.
const SLOW_EVERY: u64 = 512;

/// Server tuning. The idle timeout only needs to sit between the
/// longest genuine client pause (the 2 ms think-gap tail) and
/// `SLOW_HOLD`: the sweep never reaps a session with undrained input,
/// so server-side queueing delay — however long a `wait` batch runs
/// under load — cannot masquerade as client idleness.
const BACKLOG: usize = 4096;
const IDLE_TIMEOUT: Nanos = 300_000_000;
const TICK: Nanos = 10_000_000;
/// PR-3 `time_bound` on the poller's `Net.Ready` delivery handler.
const TIME_BOUND: Nanos = 1_000_000;
/// PR-8 admission: virtual service time budgeted per window; over-budget
/// requests are deterministically refused with a 503.
const WINDOW: Nanos = 10_000_000;
const WINDOW_BUDGET: Nanos = 2_000_000;

/// How long a slowloris holds its truncated request — past the idle
/// timeout plus a full sweep tick plus queue sojourn, so the sweep
/// always wins.
const SLOW_HOLD: Nanos = 800_000_000;

/// Content is written to the (10 ms seek) disk from virtual t = 0; the
/// warmup client faults `/f6`/`/f7` through the object cache at WARM_AT
/// so the storm itself never stalls the server strand on disk I/O.
const WARM_AT: Nanos = 250_000_000;
const STORM_AT: Nanos = 400_000_000;

/// Heavy-tailed think gap: mostly 40–200 µs, every 16th a 2 ms pause.
fn think_gap(seq: u64) -> Nanos {
    let x = mix(seq ^ 0x5eed_0bad);
    if x.is_multiple_of(16) {
        2_000_000
    } else {
        40_000 + x % 160_000
    }
}

fn is_slow(seq: u64) -> bool {
    mix(seq ^ 0x1de5_10e5).is_multiple_of(SLOW_EVERY)
}

fn path_of(seq: u64) -> String {
    let r = mix(seq ^ 0x0bad_cafe) % (ROUTES + 2);
    if r < ROUTES {
        format!("/r{r}")
    } else {
        format!("/f{r}")
    }
}

/// Deterministic dynamic-route body: 64–1024 bytes.
fn body_of(r: u64) -> Bytes {
    let len = 64 + (mix(r ^ 0xb0d7) % 961) as usize;
    let fill = (mix(r.wrapping_mul(31) ^ 0x7ea) & 0xff) as u8;
    Bytes::from(vec![fill; len])
}

fn parse_status(resp: &[u8]) -> u16 {
    // Only the status line: the generated bodies are arbitrary bytes, so
    // running `from_utf8` over the whole response would reject valid 200s.
    let line = resp.split(|&b| b == b'\r').next().unwrap_or(&[]);
    let s = std::str::from_utf8(line).unwrap_or("");
    s.split_whitespace()
        .nth(1)
        .and_then(|t| t.parse().ok())
        .unwrap_or(0)
}

/// One client shard's view of the storm.
#[derive(Debug, PartialEq, Eq)]
struct ShardOut {
    latency: LatencyDigest,
    ok: u64,
    shed: u64,
    other: u64,
    slow: u64,
}

/// Everything a run must reproduce exactly at any worker count.
#[derive(Debug, PartialEq, Eq)]
struct VirtualOutputs {
    shards: Vec<ShardOut>,
    http: HttpStats,
    quota: QuotaSnapshot,
    warm_ok: u64,
    net: Vec<NetStats>,
    clocks: Vec<Nanos>,
    barrier: MulticoreStats,
    wires: [(u64, u64); 3],
}

#[derive(Default)]
struct Counters {
    ok: AtomicU64,
    shed: AtomicU64,
    other: AtomicU64,
    slow: AtomicU64,
    connect_failed: AtomicU64,
}

fn run(workers: usize, per_shard: u64) -> VirtualOutputs {
    let rig = ShardRig::new(workers, CLIENT_SHARDS as u8 + 1);
    let (board, mc, shards) = (&rig.board, &rig.mc, &rig.shards);
    let tcps: Vec<_> = shards.iter().map(|s| TcpStack::install(&s.stack)).collect();
    let (host0, stack0, exec0) = (&shards[0].host, &shards[0].stack, &shards[0].exec);
    let server_ip = stack0.ip_on(Medium::Atm);

    // The server's file system: uncached (§5.4 — the web cache fronts
    // it, no double buffering), content written from virtual t = 0.
    let bc = BufferCache::new(
        host0.disk.clone(),
        exec0.clone(),
        64,
        Box::new(NoCachePolicy),
    );
    let fs = FileSystem::format(bc, 0, 500);
    let fs2 = fs.clone();
    exec0.spawn("content", move |ctx| {
        fs2.create("/f6").unwrap();
        fs2.write_file(ctx, "/f6", &vec![b'f'; 600]).unwrap();
        fs2.create("/f7").unwrap();
        fs2.write_file(ctx, "/f7", &vec![b'g'; 4000]).unwrap();
    });
    let cache = Arc::new(WebCache::new(
        1 << 20,
        Box::new(HybridBySize {
            large_threshold: 65_536,
        }),
    ));

    let ledger = QuotaLedger::new();
    let cell = ledger.register(
        "http",
        QuotaSpec {
            window: WINDOW,
            window_vt_budget: WINDOW_BUDGET,
            ..QuotaSpec::default()
        },
    );
    let server = HttpServer::start_with(
        stack0,
        &tcps[0],
        fs,
        cache,
        SERVER_PORT,
        HttpConfig {
            backlog: BACKLOG,
            idle_timeout: IDLE_TIMEOUT,
            tick: TICK,
            time_bound: Some(TIME_BOUND),
            quota: Some(cell.clone()),
        },
    );
    for r in 0..ROUTES {
        let body = body_of(r);
        server.route(&format!("/r{r}"), move |_req: &Request| {
            Response::ok(body.clone())
        });
    }

    // Warmup: fault the two files through the object cache before the
    // storm, so no storm request ever blocks the server strand on disk.
    let warm_ok = Arc::new(AtomicU64::new(0));
    {
        let tcp = tcps[1].clone();
        let wk = warm_ok.clone();
        shards[1].exec.spawn("warmup", move |ctx| {
            ctx.sleep(WARM_AT);
            for path in ["/f6", "/f7"] {
                let conn = tcp.connect(ctx, server_ip, SERVER_PORT).expect("warm up");
                let _ = conn.send(ctx, format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes());
                let mut resp = Vec::new();
                while let Some(b) = conn.recv(ctx) {
                    resp.extend_from_slice(&b);
                }
                conn.close(ctx);
                if parse_status(&resp) == 200 {
                    wk.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
                }
            }
        });
    }

    // The storm: per-shard 64-strand pools; strand s owns connection
    // indices s, s+POOL, s+2·POOL, …
    let mut latencies = Vec::new();
    let mut counters = Vec::new();
    for shard in 1..=CLIENT_SHARDS {
        let lat: Arc<Mutex<Vec<Nanos>>> = Arc::new(Mutex::new(Vec::new()));
        let ctr = Arc::new(Counters::default());
        for slot in 0..POOL {
            let tcp = tcps[shard].clone();
            let clock = shards[shard].exec.clock().clone();
            let (lat2, ctr2) = (lat.clone(), ctr.clone());
            let name = format!("client-{shard}-{slot}");
            shards[shard].exec.spawn(&name, move |ctx| {
                ctx.sleep(STORM_AT);
                let mut i = slot as u64;
                while i < per_shard {
                    let seq = ((shard as u64) << 32) | i;
                    i += POOL as u64;
                    ctx.sleep(think_gap(seq));
                    let t0 = clock.now();
                    let conn = match tcp.connect(ctx, server_ip, SERVER_PORT) {
                        Ok(c) => c,
                        Err(_) => {
                            ctr2.connect_failed.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
                            continue;
                        }
                    };
                    if is_slow(seq) {
                        let _ = conn.send(ctx, b"GET /r0 HTT");
                        ctx.sleep(SLOW_HOLD);
                        while conn.recv(ctx).is_some() {}
                        conn.close(ctx);
                        ctr2.slow.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
                    } else {
                        let req = format!("GET {} HTTP/1.0\r\n\r\n", path_of(seq));
                        let _ = conn.send(ctx, req.as_bytes());
                        let mut resp = Vec::new();
                        while let Some(b) = conn.recv(ctx) {
                            resp.extend_from_slice(&b);
                        }
                        conn.close(ctx);
                        let bucket = match parse_status(&resp) {
                            200 => &ctr2.ok,
                            503 => &ctr2.shed,
                            _ => &ctr2.other,
                        };
                        bucket.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
                        lat2.lock().push(clock.now() - t0);
                    }
                }
            });
        }
        latencies.push(lat);
        counters.push(ctr);
    }

    assert_eq!(mc.run_until_idle(), IdleOutcome::AllComplete);

    // The books close exactly, per shard and globally.
    let shards_out: Vec<ShardOut> = latencies
        .iter()
        .zip(&counters)
        .map(|(lat, c)| ShardOut {
            latency: digest(&lat.lock()),
            ok: c.ok.load(Ordering::Relaxed), // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
            shed: c.shed.load(Ordering::Relaxed), // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
            other: c.other.load(Ordering::Relaxed), // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
            slow: c.slow.load(Ordering::Relaxed), // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
        })
        .collect();
    for (n, (s, c)) in shards_out.iter().zip(&counters).enumerate() {
        assert_eq!(
            c.connect_failed.load(Ordering::Relaxed), // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
            0,
            "shard {n}: every connect must succeed"
        );
        assert_eq!(
            s.ok + s.shed + s.other + s.slow,
            per_shard,
            "shard {n}: every connection accounted for"
        );
        assert_eq!(s.other, 0, "shard {n}: nothing but 200s and 503s");
    }
    let total: u64 = per_shard * CLIENT_SHARDS as u64;
    let (ok, shed, slow) = shards_out
        .iter()
        .fold((0, 0, 0), |(a, b, c), s| (a + s.ok, b + s.shed, c + s.slow));
    let http = server.stats();
    assert_eq!(
        http.requests,
        ok + shed + 2,
        "server parsed exactly the completed requests (storm + warmup)"
    );
    assert_eq!(http.ok, ok + 2, "client and server agree on 200s");
    assert_eq!(http.shed, shed, "client and server agree on 503s");
    assert_eq!((http.not_found, http.bad_requests), (0, 0));
    assert_eq!(
        http.timeouts, slow,
        "the idle sweep reaps exactly the slowloris population"
    );
    assert_eq!(ok + shed + slow, total);
    assert_eq!(
        warm_ok.load(Ordering::Relaxed),
        2,
        "warmup faulted both files"
    ); // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.

    // Quota ledger reconciliation (PR-8's identity, held exact).
    let quota = cell.snapshot();
    assert_eq!(quota.attempts, http.requests);
    assert_eq!(
        quota.attempts,
        quota.admitted + quota.throttled + quota.shed + quota.held
    );
    assert_eq!(quota.admitted, quota.completed);
    assert_eq!(quota.in_flight, 0);
    assert_eq!(quota.throttled + quota.shed, http.shed);

    // Zero loss anywhere in the fabric.
    let wires = [board.ethernet.stats(), board.atm.stats(), board.t3.stats()];
    for (name, (_, dropped)) in ["ethernet", "atm", "t3"].iter().zip(&wires) {
        assert_eq!(*dropped, 0, "{name}: zero dropped frames");
    }
    let stats = mc.stats();
    assert_eq!(stats.mail_dropped, 0, "zero dropped cross-shard envelopes");

    VirtualOutputs {
        shards: shards_out,
        http,
        quota,
        warm_ok: 2,
        net: shards.iter().map(|s| s.stack.stats()).collect(),
        clocks: rig.clocks(),
        barrier: stats,
        wires,
    }
}

/// Runs one storm, prints its wall-clock line and returns the virtual
/// outputs with the wall-clock milliseconds of the whole run — set-up and
/// tear-down included: the flat-cost criterion prices a connection end to
/// end.
fn timed_run(label: &str, workers: usize, per_shard: u64) -> (VirtualOutputs, f64) {
    let t0 = Instant::now();
    let v = run(workers, per_shard);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let total = per_shard * CLIENT_SHARDS as u64;
    println!(
        "{label}: {total} conns, wall {wall_ms:.0} ms ({:.1} µs/conn), \
         virt clock0 {:.0} ms, epochs {}",
        wall_ms * 1e3 / total as f64,
        v.clocks[0] as f64 / 1e6,
        v.barrier.epochs,
    );
    (v, wall_ms)
}

fn main() {
    // The scale ladder at one worker (connections per client shard; ×11
    // total): the flat-cost criterion compares wall-clock per connection
    // at the bottom and top rungs.
    let ladder = [("1e3", 91u64), ("1e4", 909), ("1e5", 9091)];
    let rungs = ladder.map(|(label, per_shard)| timed_run(label, 1, per_shard));

    // The storm: ~10^6 connections, swept at 1, 2 and 4 workers — every
    // virtual output must be byte-identical; only the wall clock moves.
    const STORM_PER_SHARD: u64 = 90_910;
    let storm_total = STORM_PER_SHARD * CLIENT_SHARDS as u64;
    let storm = sweep_workers(|w| timed_run(&format!("1e6 ({w}w)"), w, STORM_PER_SHARD));

    // Flat cost: per-connection wall-clock at 10^6 within 2× of 10^3.
    let base = rungs[0].1 * 1e3 / (ladder[0].1 * CLIENT_SHARDS as u64) as f64;
    let top = storm.wall_ms[0] * 1e3 / storm_total as f64;
    assert!(
        top <= 2.0 * base,
        "per-connection wall-clock grew {top:.1} µs vs {base:.1} µs at 10^3 \
         — more than 2× up the ladder"
    );

    let v = &storm.virt;
    let (ok, shed, slow) = v.shards.iter().fold((0u64, 0u64, 0u64), |(a, b, c), s| {
        (a + s.ok, b + s.shed, c + s.slow)
    });
    let p50 = v.shards[0].latency.p50;
    let p99_max = v.shards.iter().map(|s| s.latency.p99).max().unwrap();
    let frames: u64 = v.net.iter().map(|n| n.frames_in).sum();
    let rows = vec![
        Row::extra("storm connections", storm_total as f64),
        Row::extra("served 200", ok as f64),
        Row::extra("shed 503 (quota)", shed as f64),
        Row::extra("slowloris reaped", slow as f64),
        Row::extra("client p50, shard 1 (µs)", us(p50)),
        Row::extra("client p99, worst shard (µs)", us(p99_max)),
        Row::extra("frames received (all NICs)", frames as f64),
        Row::extra("barrier epochs", v.barrier.epochs as f64),
        Row::extra("virtual server seconds", v.clocks[0] as f64 / 1e9),
    ];
    print!(
        "{}",
        render_table(
            "S10: webscale — a million-connection storm on the readiness API",
            "µs",
            &rows
        )
    );
    println!(
        "\nBooks close exactly (client/server/quota/wire); outputs byte-identical \
         at 1/2/4 workers."
    );
    println!("wall-clock (storm): {}", storm.walls());

    JsonReport::new(
        "webscale",
        "S10: webscale — a million-connection storm on the readiness API",
        "µs",
    )
    .rows(&rows)
    .number("client_shards", CLIENT_SHARDS as f64)
    .number("pool_strands", POOL as f64)
    .number("server_requests", v.http.requests as f64)
    .number("server_timeouts", v.http.timeouts as f64)
    .number("quota_attempts", v.quota.attempts as f64)
    .number("quota_admitted", v.quota.admitted as f64)
    .number("ladder_1e3_virt_ms", rungs[0].0.clocks[0] as f64 / 1e6)
    .number("ladder_1e4_virt_ms", rungs[1].0.clocks[0] as f64 / 1e6)
    .number("ladder_1e5_virt_ms", rungs[2].0.clocks[0] as f64 / 1e6)
    .text("workers_checked", "1/2/4 byte-identical at 10^6")
    .text(
        "reconciliation",
        "client 200s/503s == server ok/shed; sweep reaps == slowloris; \
         quota attempts == admitted + throttled + shed; zero drops",
    )
    .write_if_requested();
}
