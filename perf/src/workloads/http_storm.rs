//! `http_storm` — s10's topology and assertions at one worker.
//!
//! Shard 0 hosts the in-kernel HTTP server as a single daemon strand on a
//! `NetPoller`; eleven client shards each run a 64-strand closed-loop
//! connection pool against it over the ATM wire. Think gaps are
//! heavy-tailed, roughly every 512th connection is a slowloris the idle
//! sweep must reap, and the bound quota cell sheds over-budget requests
//! with a 503. op = connection.
//!
//! *Why:* it is the ROADMAP headline (µs/conn) and the only workload where
//! `sched.executor`, `net.tcp`/`net.http`/`net.poll`, `sched.shard` and
//! `sal.mailbox` all do real work — about 11 frames, 9 epochs and tens of
//! strand switches per connection.

use super::{delta, Checks, Digest, RoundOutput, ShardRig, Window};
use crate::gen::{mix, HttpInputs, HTTP_ROUTES};
use crate::host;
use crate::trace::Tracer;
use spin_core::{QuotaLedger, QuotaSpec};
use spin_fs::{BufferCache, FileSystem, HybridBySize, NoCachePolicy, WebCache};
use spin_net::{Bytes, HttpConfig, HttpServer, Medium, Request, Response, TcpStack};
use spin_sal::Nanos;
use spin_sched::IdleOutcome;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Client shards (1..=CLIENT_SHARDS on the board; shard 0 is the server).
pub const CLIENT_SHARDS: usize = 11;
/// Connections per client shard in one round: 11 × 682 = 7 502.
pub const PER_SHARD: usize = 682;
/// Connection-pool strands per client shard.
const POOL: usize = 64;
const SERVER_PORT: u16 = 80;

// Server tuning, s10's: the idle timeout sits between the longest genuine
// client pause (the 2 ms think-gap tail) and `SLOW_HOLD`.
const BACKLOG: usize = 4096;
const IDLE_TIMEOUT: Nanos = 300_000_000;
const TICK: Nanos = 10_000_000;
const TIME_BOUND: Nanos = 1_000_000;
const WINDOW: Nanos = 10_000_000;
const WINDOW_BUDGET: Nanos = 2_000_000;
/// A slowloris holds past the idle timeout plus a sweep tick plus queue
/// sojourn, so the sweep always wins.
const SLOW_HOLD: Nanos = 800_000_000;
/// The warmup client faults `/f6`/`/f7` through the object cache here, so
/// the storm never stalls the server strand on the (10 ms seek) disk.
const WARM_AT: Nanos = 250_000_000;
/// Set-up runs virtual time up to here; the timed window starts here.
const STORM_AT: Nanos = 400_000_000;
/// Virtual time per window slice.
const SLICE: Nanos = 10_000_000;

/// Deterministic dynamic-route body: 64–1024 bytes.
fn body_of(r: u64) -> Bytes {
    let len = 64 + (mix(r ^ 0xb0d7) % 961) as usize;
    let fill = (mix(r.wrapping_mul(31) ^ 0x7ea) & 0xff) as u8;
    Bytes::from(vec![fill; len])
}

fn path_of(p: u8) -> String {
    if p < HTTP_ROUTES {
        format!("/r{p}")
    } else {
        format!("/f{p}")
    }
}

/// Only the status line: bodies are arbitrary bytes.
fn parse_status(resp: &[u8]) -> u16 {
    let line = resp.split(|&b| b == b'\r').next().unwrap_or(&[]);
    std::str::from_utf8(line)
        .unwrap_or("")
        .split_whitespace()
        .nth(1)
        .and_then(|t| t.parse().ok())
        .unwrap_or(0)
}

/// One client shard's tallies. Relaxed everywhere: they are read after the
/// run returns, and the barrier join is the synchronisation point.
#[derive(Default)]
struct Tally {
    ok: AtomicU64,
    shed: AtomicU64,
    other: AtomicU64,
    slow: AtomicU64,
    connect_failed: AtomicU64,
    retransmissions: AtomicU64,
    lat_count: AtomicU64,
    lat_sum: AtomicU64,
    lat_xor: AtomicU64,
}

impl Tally {
    fn done(&self) -> u64 {
        [
            &self.ok,
            &self.shed,
            &self.other,
            &self.slow,
            &self.connect_failed,
        ]
        .iter()
        .map(|c| c.load(Ordering::Relaxed))
        .sum()
    }
}

pub fn run(inputs: &HttpInputs, workers: usize, tracer: &mut Tracer) -> RoundOutput {
    let setup_span = tracer.begin("setup");

    let rig = ShardRig::build(1 + CLIENT_SHARDS as u8, workers, tracer);
    let tcps: Vec<TcpStack> = rig.stacks.iter().map(TcpStack::install).collect();
    let (execs, stack0) = (&rig.execs, &rig.stacks[0]);
    let exec0 = execs[0].clone();
    let server_ip = stack0.ip_on(Medium::Atm);

    let span = tracer.begin("spawn");
    // The server's file system: uncached (the web cache fronts it), content
    // written from virtual t = 0.
    let bc = BufferCache::new(
        rig.hosts[0].disk.clone(),
        exec0.clone(),
        64,
        Box::new(NoCachePolicy),
    );
    let fs = FileSystem::format(bc, 0, 500);
    let fs2 = fs.clone();
    exec0.spawn("content", move |ctx| {
        fs2.create("/f6").expect("fresh fs");
        fs2.write_file(ctx, "/f6", &vec![b'f'; 600])
            .expect("write /f6");
        fs2.create("/f7").expect("fresh fs");
        fs2.write_file(ctx, "/f7", &vec![b'g'; 4000])
            .expect("write /f7");
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
    for r in 0..u64::from(HTTP_ROUTES) {
        let body = body_of(r);
        server.route(&format!("/r{r}"), move |_req: &Request| {
            Response::ok(body.clone())
        });
    }

    let warm_ok = Arc::new(AtomicU64::new(0));
    {
        let tcp = tcps[1].clone();
        let wk = warm_ok.clone();
        execs[1].spawn("warmup", move |ctx| {
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
                    wk.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
    }

    // Per-shard 64-strand pools; strand `slot` owns connections slot,
    // slot + POOL, slot + 2·POOL, … of its shard's generated list.
    let mut tallies = Vec::new();
    for (s, conns) in inputs.shards.iter().enumerate() {
        let shard = s + 1;
        let tally = Arc::new(Tally::default());
        let conns: Arc<[_]> = conns.as_slice().into();
        for slot in 0..POOL {
            let tcp = tcps[shard].clone();
            let clock = execs[shard].clock().clone();
            let (tally, conns) = (tally.clone(), conns.clone());
            execs[shard].spawn(&format!("client-{shard}-{slot}"), move |ctx| {
                ctx.sleep(STORM_AT);
                for c in conns.iter().skip(slot).step_by(POOL) {
                    ctx.sleep(Nanos::from(c.gap_ns));
                    let t0 = clock.now();
                    let Ok(conn) = tcp.connect(ctx, server_ip, SERVER_PORT) else {
                        tally.connect_failed.fetch_add(1, Ordering::Relaxed);
                        continue;
                    };
                    if c.slow {
                        let _ = conn.send(ctx, b"GET /r0 HTT");
                        ctx.sleep(SLOW_HOLD);
                        while conn.recv(ctx).is_some() {}
                        conn.close(ctx);
                        tally.slow.fetch_add(1, Ordering::Relaxed);
                    } else {
                        let req = format!("GET {} HTTP/1.0\r\n\r\n", path_of(c.path));
                        let _ = conn.send(ctx, req.as_bytes());
                        let mut resp = Vec::new();
                        while let Some(b) = conn.recv(ctx) {
                            resp.extend_from_slice(&b);
                        }
                        conn.close(ctx);
                        let lat = clock.now() - t0;
                        tally.lat_count.fetch_add(1, Ordering::Relaxed);
                        tally.lat_sum.fetch_add(lat, Ordering::Relaxed);
                        tally.lat_xor.fetch_xor(mix(lat), Ordering::Relaxed);
                        let bucket = match parse_status(&resp) {
                            200 => &tally.ok,
                            503 => &tally.shed,
                            _ => &tally.other,
                        };
                        bucket.fetch_add(1, Ordering::Relaxed);
                    }
                    tally
                        .retransmissions
                        .fetch_add(conn.retransmissions(), Ordering::Relaxed);
                }
            });
        }
        tallies.push(tally);
    }
    tracer.end(span, (CLIENT_SHARDS * POOL) as u64);

    // Content, cache warm-up and every client strand's first step.
    let span = tracer.begin("warmup");
    let warm = rig.mc.run_until(STORM_AT);
    tracer.end(span, 1);
    tracer.end(setup_span, 1);
    let threads_at_window = host::proc_sample().threads;
    let before = rig.snapshot();

    // ---- the timed window: virtual STORM_AT → idle, SLICE at a time ----
    let window_span = tracer.begin("window");
    let mut window = Window::open(tracer);
    let (outcome, completed) = rig.run_sliced(&mut window, STORM_AT, SLICE, || {
        tallies.iter().map(|t| t.done()).sum()
    });
    let (window_opened, window_ns, slices) = window.close();
    tracer.end(window_span, completed);

    // ---- output checks: s10's, recorded instead of asserted ----
    let span = tracer.begin("check");
    let mut checks = Checks::default();
    checks.eq(
        "set-up stops at the storm instant",
        warm,
        IdleOutcome::DeadlineReached,
    );
    checks.eq(
        "storm runs to completion",
        outcome,
        IdleOutcome::AllComplete,
    );
    let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
    let mut bad_ops = 0;
    let (mut ok, mut shed, mut slow) = (0, 0, 0);
    let mut digest = Digest::default();
    for (n, (t, conns)) in tallies.iter().zip(&inputs.shards).enumerate() {
        bad_ops += load(&t.connect_failed) + load(&t.other);
        checks.eq(
            &format!("shard {n}: every connection accounted for"),
            t.done(),
            conns.len() as u64,
        );
        checks.eq(
            &format!("shard {n}: slowloris connections are the generated ones"),
            load(&t.slow),
            conns.iter().filter(|c| c.slow).count() as u64,
        );
        ok += load(&t.ok);
        shed += load(&t.shed);
        slow += load(&t.slow);
        digest.feed_all([
            load(&t.ok),
            load(&t.shed),
            load(&t.other),
            load(&t.slow),
            load(&t.lat_count),
            load(&t.lat_sum),
            load(&t.lat_xor),
        ]);
    }
    let total: u64 = inputs.shards.iter().map(|s| s.len() as u64).sum();
    let http = server.stats();
    checks.eq(
        "server parsed exactly the completed requests (storm + warmup)",
        http.requests,
        ok + shed + 2,
    );
    checks.eq("client and server agree on 200s", http.ok, ok + 2);
    checks.eq("client and server agree on 503s", http.shed, shed);
    checks.eq(
        "no 404s or 400s",
        (http.not_found, http.bad_requests),
        (0, 0),
    );
    checks.eq(
        "the idle sweep reaps exactly the slowloris population",
        http.timeouts,
        slow,
    );
    checks.eq(
        "every connection ended 200, 503 or reaped",
        ok + shed + slow,
        total - bad_ops,
    );
    checks.eq("warmup faulted both files", load(&warm_ok), 2);

    // Quota ledger reconciliation (PR-8's identity, held exact).
    let quota = cell.snapshot();
    checks.eq("quota attempts == requests", quota.attempts, http.requests);
    checks.eq(
        "quota attempts == admitted + throttled + shed + held",
        quota.attempts,
        quota.admitted + quota.throttled + quota.shed + quota.held,
    );
    checks.eq(
        "quota admitted == completed",
        quota.admitted,
        quota.completed,
    );
    checks.eq("nothing in flight", quota.in_flight, 0);
    checks.eq(
        "quota refusals == 503s",
        quota.throttled + quota.shed,
        http.shed,
    );

    let after = rig.snapshot();
    checks.eq("zero dropped wire frames", after.wire_dropped, 0);
    checks.eq(
        "zero dropped cross-shard envelopes",
        after.mailbox_dropped,
        0,
    );
    let mut counts = delta(&after, &before);
    counts.quota_attempts = quota.attempts;
    counts.quota_refused = quota.throttled + quota.shed;
    counts.tcp_retransmissions = tallies.iter().map(|t| load(&t.retransmissions)).sum();
    counts.http_requests = http.requests;
    counts.http_shed = http.shed;
    counts.http_timeouts = http.timeouts;

    digest.feed_all([
        http.requests,
        http.ok,
        http.shed,
        http.timeouts,
        quota.attempts,
        quota.admitted,
        quota.throttled,
        quota.shed,
        quota.trips,
        quota.vt_charged,
        after.epochs,
        after.shard_runs,
        after.mailbox_posted,
        after.wire_frames,
        after.frames_in,
        after.raises,
    ]);
    digest.feed_all(rig.clocks());
    tracer.end(span, 1);

    let span = tracer.begin("teardown");
    drop((server, tcps, rig));
    tracer.end(span, 1);

    RoundOutput {
        ops_attempted: total,
        ops_failed: bad_ops + checks.failures.len() as u64,
        failures: checks.failures,
        window_opened,
        window_ns,
        slices,
        counts,
        digest: digest.finish(),
        threads_at_window,
    }
}
