//! `spin-perf run`: pin, repeat the workload in fresh child processes for
//! the measuring time, report medians.

use crate::child::RoundRecord;
use crate::json::{self, Value};
use crate::metrics;
use crate::model::{layer_ns, UnitCosts};
use crate::stats::median;
use crate::trace::{self, Span};
use crate::workloads::{Counts, DEFAULT_SEED, WORKLOADS};
use crate::{flag, host, numeric_flag};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Measuring time when `--seconds` is not given: `BENCHMARK.json`'s.
const DEFAULT_SECONDS: u64 = 25;

/// Starts `spin-perf <args>`, waits for it, and parses the last line of its
/// standard output. Also returns spawn → reaped as the parent saw it.
fn child_record(args: &[&str]) -> Result<(Value, Duration), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let started = Instant::now();
    // `output` waits for the child and reaps it; stderr passes through so
    // a failed check is seen where it happened.
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start `spin-perf {}`: {e}", args[0]))?;
    let wall = started.elapsed();
    if !out.status.success() {
        return Err(format!(
            "`spin-perf {}` ended with {}",
            args.join(" "),
            out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or("");
    let record = json::parse(last).map_err(|e| format!("`spin-perf {}`: {e}", args[0]))?;
    Ok((record, wall))
}

fn round_record(args: &[&str]) -> Result<(RoundRecord, Duration), String> {
    let (rec, wall) = child_record(args)?;
    let record = RoundRecord::from_json(&rec).ok_or("round: malformed record")?;
    Ok((record, wall))
}

/// Where the span file goes: `perf/out/` when run from the repository
/// root (as the benchmark command is), else `out/` beside the manifest.
fn out_dir() -> PathBuf {
    let from_root = PathBuf::from("perf");
    if from_root.join("Cargo.toml").is_file() {
        from_root.join("out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

struct Round {
    record: RoundRecord,
    /// Spawn → reaped, as the parent saw it.
    total_s: f64,
    /// When the child was started, relative to the run's start.
    offset_ns: u64,
}

fn med(rounds: &[&Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// The timed window with the machine's interference filtered out, in
/// seconds. A window is cut into slices, and for one seed slice `i` is the
/// same virtual work in every round; each slice counts with its fastest
/// wall time across the rounds. Interference from other tenants of the
/// host only ever slows a slice down, in bursts of 0.1-10 s, so the
/// minimum is the estimator that repeats best (README, "Steadiness").
fn quiet_window_s(rounds: &[&Round]) -> f64 {
    let slices = rounds
        .iter()
        .map(|r| r.record.slice_ns.len())
        .min()
        .unwrap_or(0);
    let quiet_ns: u64 = (0..slices)
        .map(|i| {
            rounds
                .iter()
                .map(|r| r.record.slice_ns[i])
                .min()
                .unwrap_or(0)
        })
        .sum();
    quiet_ns as f64 / 1e9
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

struct Args<'a> {
    workload: &'a str,
    /// What `us_per_op` divides by.
    op: &'a str,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args(args: &[String]) -> Result<Args<'_>, String> {
    let workload = flag(args, "--workload").ok_or("run needs --workload <name>")?;
    let &(_, op) = WORKLOADS
        .iter()
        .find(|(w, _)| *w == workload)
        .ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
            format!("unknown workload {workload:?}; one of {names:?}")
        })?;
    Ok(Args {
        workload,
        op,
        seed: numeric_flag(args, "--seed", DEFAULT_SEED)?,
        seconds: numeric_flag(args, "--seconds", DEFAULT_SECONDS)?,
        traced: match numeric_flag(args, "--trace", 0)? {
            0 => false,
            1 => true,
            n => return Err(format!("--trace takes 0 or 1, got {n}")),
        },
    })
}

/// What the probe phase of a traced run found.
#[derive(Default)]
struct Probed {
    /// Unit costs by metric name.
    values: BTreeMap<String, f64>,
    http_residual_ns: f64,
    udp_residual_ns: f64,
    w2_over_w1: f64,
    spans: Vec<Span>,
    failures: Vec<String>,
    ops_failed: u64,
}

/// The probes, in children of their own: every pinned probe; then the two
/// numbers that need every CPU — the switch probe unpinned, and a
/// tenth-size `udp_forward` at two workers against one, whose virtual
/// digests must be equal.
fn probe_phase(a: &Args, all_cpus: &[usize]) -> Result<Probed, String> {
    let mut p = Probed::default();
    // Per-probe measuring time, scaled so the probes take about a third
    // of the run.
    let budget_ms = (a.seconds * 5).clamp(10, 150).to_string();
    let (rec, _) = child_record(&["probes", "--budget-ms", &budget_ms])?;
    for (name, v) in rec
        .get("probes")
        .and_then(Value::as_obj)
        .ok_or("probes: no values")?
    {
        p.values
            .insert(name.clone(), v.as_f64().unwrap_or(f64::NAN));
    }
    let residual = |k: &str| {
        rec.get("residuals")
            .and_then(|r| r.get(k))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    p.http_residual_ns = residual("http_get_ns");
    p.udp_residual_ns = residual("udp_frame_ns");
    p.spans = rec
        .get("spans")
        .and_then(Value::as_arr)
        .map(|a| a.iter().filter_map(Span::from_json).collect())
        .unwrap_or_default();

    let cpus = host::format_cpu_list(all_cpus);
    let (rec, _) = child_record(&["unpinned", "--cpus", &cpus, "--budget-ms", &budget_ms])?;
    p.values.insert(
        "sched.executor.switch_unpinned_ns".into(),
        rec.get("switch_unpinned_ns")
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN),
    );
    let seed = a.seed.to_string();
    let small = ["round", "--workload", "udp_forward", "--scale-div", "10"];
    let (w1, _) = round_record(&[&small[..], &["--seed", &seed]].concat())?;
    let (w2, _) = round_record(
        &[
            &small[..],
            &["--seed", &seed, "--workers", "2", "--cpus", &cpus],
        ]
        .concat(),
    )?;
    p.w2_over_w1 = w2.window_s / w1.window_s;
    if w1.digest != w2.digest {
        p.failures.push(format!(
            "udp_forward virtual digest differs between 1 worker ({:016x}) and 2 workers ({:016x})",
            w1.digest, w2.digest
        ));
    }
    p.ops_failed = w1.ops_failed + w2.ops_failed;
    Ok(p)
}

/// Rounds in fresh processes until the measuring time is spent. Traced
/// runs alternate traced and untraced rounds; the difference is the
/// tracing overhead.
fn round_phase(a: &Args, run_started: Instant) -> Result<Vec<Round>, String> {
    let deadline = run_started + Duration::from_secs(a.seconds);
    let seed = a.seed.to_string();
    let min_rounds = if a.traced { 2 } else { 1 };
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let trace_this = a.traced && rounds.len().is_multiple_of(2);
        let offset_ns = run_started.elapsed().as_nanos() as u64;
        let (record, wall) = round_record(&[
            "round",
            "--workload",
            a.workload,
            "--seed",
            &seed,
            "--trace",
            if trace_this { "1" } else { "0" },
        ])?;
        rounds.push(Round {
            record,
            total_s: wall.as_secs_f64(),
            offset_ns,
        });
        // Stop when another round as long as the longest would overrun.
        let longest = rounds.iter().map(|r| r.total_s).fold(0.0, f64::max);
        if rounds.len() >= min_rounds
            && Instant::now() + Duration::from_secs_f64(longest) > deadline
        {
            return Ok(rounds);
        }
    }
}

fn end_to_end(all: &[&Round]) -> Vec<(&'static str, f64)> {
    let window_s = quiet_window_s(all);
    vec![
        (
            "us_per_op",
            window_s * 1e6 / all[0].record.ops_attempted as f64,
        ),
        // What a developer waits for: the window plus everything around it
        // (exec, set-up, checks, teardown, exit) as the parent clocked it.
        (
            "total_s",
            window_s + med(all, |r| r.total_s - r.record.window_s),
        ),
        ("setup_s", med(all, |r| r.record.setup_s)),
        ("rss_mb", med(all, |r| r.record.rss_mb)),
    ]
}

fn per_layer(a: &Args, all: &[&Round], p: &Probed) -> Vec<(&'static str, f64)> {
    let on: Vec<&Round> = all.iter().copied().filter(|r| r.record.traced).collect();
    let off: Vec<&Round> = all.iter().copied().filter(|r| !r.record.traced).collect();
    // Counts repeat exactly; take them from a traced round, which also
    // counted clock advances.
    let c: &Counts = &on[0].record.counts;
    let window_s = quiet_window_s(&on);

    let mut out: Vec<(&'static str, f64)> = metrics::PROBES
        .iter()
        .map(|&(name, _)| (name, p.values.get(name).copied().unwrap_or(f64::NAN)))
        .collect();
    let slow = c.raises - c.fast_raises;
    let per_s = |n: u64| n as f64 / window_s;
    out.extend([
        ("sal.mailbox.posted", c.mailbox_posted as f64),
        ("sal.mailbox.dropped", c.mailbox_dropped as f64),
        ("sal.wire.frames", c.wire_frames as f64),
        ("sal.wire.dropped", c.wire_dropped as f64),
        ("core.dispatch.raises", c.raises as f64),
        ("core.dispatch.fast_share", ratio(c.fast_raises, c.raises)),
        (
            "core.dispatch.compiled_share",
            ratio(c.compiled_raises, slow),
        ),
        (
            "core.dispatch.guards_elided_share",
            ratio(c.guards_elided, c.guard_evals),
        ),
        (
            "core.dispatch.batched_share",
            ratio(c.batched_raises, c.raises),
        ),
        (
            "core.quota.refused_share",
            ratio(c.quota_refused, c.quota_attempts),
        ),
        ("sched.executor.switches", c.switches as f64),
        ("sched.shard.epochs", c.epochs as f64),
        ("sched.shard.runs_per_epoch", ratio(c.shard_runs, c.epochs)),
        (
            "sched.shard.frames_per_epoch",
            ratio(c.wire_frames, c.epochs),
        ),
        ("sched.shard.epochs_per_s", per_s(c.epochs)),
        ("sched.shard.w2_over_w1", p.w2_over_w1),
        ("net.stack.frames_in", c.frames_in as f64),
        ("net.stack.frames_per_s", per_s(c.frames_in)),
        ("net.stack.retries", c.net_retries as f64),
        ("net.tcp.retransmissions", c.tcp_retransmissions as f64),
        ("net.http.requests", c.http_requests as f64),
        ("net.http.shed_share", ratio(c.http_shed, c.http_requests)),
        ("net.http.timeouts", c.http_timeouts as f64),
        // A run that could not pin never gets this far.
        ("host.pinned", 1.0),
        ("host.cpu_s", med(all, |r| r.record.cpu_s)),
        ("host.sys_share", med(all, |r| r.record.sys_share)),
        (
            "host.vol_ctx_switches",
            med(all, |r| r.record.vol_ctx_switches as f64),
        ),
        (
            "host.threads_peak",
            med(all, |r| r.record.threads_peak as f64),
        ),
        (
            "run.slice_p95_over_p50",
            med(all, |r| r.record.slice_p95_over_p50),
        ),
        (
            "run.trace_overhead_pct",
            (window_s / quiet_window_s(&off) - 1.0) * 100.0,
        ),
    ]);

    // Attribution: count × probe unit cost ÷ timed window.
    let units = UnitCosts::from_probes(|n| p.values.get(n).copied().unwrap_or(f64::NAN));
    let layers = layer_ns(c, &units);
    let net_ns = match a.workload {
        "http_storm" => c.http_requests as f64 * p.http_residual_ns,
        "udp_forward" => c.frames_in as f64 * p.udp_residual_ns,
        _ => 0.0,
    };
    let shares = [
        ("attr.sched.executor_share", layers.executor),
        ("attr.sched.shard_share", layers.shard),
        ("attr.core.dispatch_share", layers.dispatch),
        ("attr.sal.mailbox_share", layers.mailbox),
        ("attr.sal.nic_share", layers.nic),
        ("attr.sal.clock_share", layers.clock),
        ("attr.net_share", net_ns),
    ]
    .map(|(n, ns)| (n, ns / (window_s * 1e9)));
    let attributed: f64 = shares.iter().map(|(_, s)| s).sum();
    if attributed > 1.05 {
        println!(
            "note: modelled shares sum to {attributed:.3} > 1.05: a probe over-prices its layer on this workload"
        );
    }
    out.extend(shares);
    out.push(("attr.unattributed_share", (1.0 - attributed).max(0.0)));
    out
}

/// Writes the span file: probes and traced rounds under one root.
fn write_trace(
    a: &Args,
    rounds: &[Round],
    probe_spans: &[Span],
    run_ns: u64,
) -> Result<PathBuf, String> {
    let mut spans = vec![Span {
        id: 0,
        parent: None,
        name: "run".into(),
        start_ns: 0,
        end_ns: run_ns,
        count: rounds.len() as u64,
    }];
    let mut graft = |child: &[Span], offset_ns: u64| {
        let base = spans.len() as u32;
        spans.extend(trace::graft(child, base, 0, offset_ns));
    };
    graft(probe_spans, 0);
    for r in rounds.iter().filter(|r| r.record.traced) {
        graft(&r.record.spans, r.offset_ns);
    }
    let own = trace::self_times(&spans);
    let spans_json = spans
        .iter()
        .zip(own)
        .map(|(s, own_ns)| match s.to_json() {
            Value::Obj(mut f) => {
                f.push(("self_ns".into(), Value::Num(own_ns as f64)));
                Value::Obj(f)
            }
            v => v,
        })
        .collect();
    let doc = Value::obj([
        ("workload", Value::str(a.workload)),
        ("seed", Value::Num(a.seed as f64)),
        ("spans", Value::Arr(spans_json)),
    ]);
    let dir = out_dir();
    let path = dir.join(format!("{}.trace.json", a.workload));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, doc.emit() + "\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let run_started = Instant::now();
    let a = parse_args(args)?;

    // Run validity: one CPU, before any thread exists; children inherit it.
    let all_cpus = host::allowed_cpus();
    let cpu = host::pin_to_one_cpu().map_err(|e| {
        format!("could not pin to one CPU ({e}); unpinned numbers are 5-20x noisier, not reporting")
    })?;
    println!("host.nproc {} count", all_cpus.len());
    println!("host.pinned_cpu {cpu} id");
    println!("host.loadavg {}", host::loadavg());
    println!("host.kernel {}", host::kernel_release());
    println!(
        "run.workload {} (op = {}), seed {}, {} s, trace {}",
        a.workload,
        a.op,
        a.seed,
        a.seconds,
        u8::from(a.traced)
    );

    let mut probed = if a.traced {
        probe_phase(&a, &all_cpus)?
    } else {
        Probed::default()
    };
    let rounds = round_phase(&a, run_started)?;
    let all: Vec<&Round> = rounds.iter().collect();
    let first = &all[0].record;

    // Exact-repeat check: every round of one seed does identical work
    // (only traced rounds count clock advances, so that field is left out).
    let sans_clock = |c: &Counts| Counts {
        clock_advances: 0,
        ..c.clone()
    };
    let mut failures = std::mem::take(&mut probed.failures);
    if all[1..].iter().any(|r| {
        r.record.digest != first.digest || sans_clock(&r.record.counts) != sans_clock(&first.counts)
    }) {
        failures.push("rounds of one seed differ in virtual digest or per-layer counts".into());
    }
    let attempted: u64 = all.iter().map(|r| r.record.ops_attempted).sum();
    let failed: u64 = probed.ops_failed
        + failures.len() as u64
        + all.iter().map(|r| r.record.ops_failed).sum::<u64>();
    failures.extend(all.iter().flat_map(|r| r.record.failures.iter().cloned()));
    let correct = failed == 0;

    let out = if a.traced {
        let out = per_layer(&a, &all, &probed);
        let run_ns = run_started.elapsed().as_nanos() as u64;
        let path = write_trace(&a, &rounds, &probed.spans, run_ns)?;
        println!("run.trace_file {}", path.display());
        out
    } else {
        end_to_end(&all)
    };

    for f in &failures {
        println!("check_failed {f}");
    }
    println!("run.rounds {} count", rounds.len());
    println!("run.virtual_digest {:016x}", first.digest);
    println!("ops_attempted {attempted} count");
    println!("ops_failed {failed} count");
    let metrics_json: Vec<(String, Value)> = out
        .iter()
        .map(|&(name, value)| {
            let unit = metrics::unit_of(name).expect("every reported metric is in the tables");
            println!("{name} {value} {unit}");
            (
                name.to_string(),
                Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))]),
            )
        })
        .collect();
    let outcome = [
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", Value::Obj(metrics_json)),
    ];
    if let Some(path) = flag(args, "--append") {
        // The result line's keys are fixed by the benchmark contract, so
        // the run file's records carry the workload beside them.
        let mut line = vec![
            ("workload", Value::str(a.workload)),
            ("seed", Value::Num(a.seed as f64)),
            ("trace", Value::Num(f64::from(u8::from(a.traced)))),
        ];
        line.extend(outcome.iter().cloned());
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", Value::obj(line).emit()))
            .map_err(|e| format!("cannot append to {path}: {e}"))?;
    }
    println!("{}", Value::obj(outcome).emit());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(slice_ns: Vec<u64>) -> Round {
        let record = RoundRecord {
            slice_ns,
            ..RoundRecord::default()
        };
        Round {
            record,
            total_s: 0.0,
            offset_ns: 0,
        }
    }

    #[test]
    fn quiet_window_takes_each_slice_at_its_fastest() {
        let rounds = [
            round(vec![10, 50, 30]),
            round(vec![12, 20, 90]),
            round(vec![11, 21, 31]),
        ];
        let refs: Vec<&Round> = rounds.iter().collect();
        assert_eq!(quiet_window_s(&refs), (10 + 20 + 30) as f64 / 1e9);
        assert_eq!(quiet_window_s(&refs[..1]), 90.0 / 1e9);
        assert_eq!(quiet_window_s(&[]), 0.0);
    }

    #[test]
    fn args_are_checked() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let ok = args(&["--workload", "udp_forward", "--seed", "9", "--trace", "1"]);
        let a = parse_args(&ok).unwrap();
        assert_eq!(
            (a.workload, a.op, a.seed, a.seconds, a.traced),
            ("udp_forward", "echoed round trip", 9, DEFAULT_SECONDS, true)
        );
        assert!(parse_args(&args(&["--workload", "nope"])).is_err());
        assert!(parse_args(&args(&["--seed", "1"])).is_err());
        assert!(parse_args(&args(&["--workload", "udp_forward", "--trace", "2"])).is_err());
        assert!(parse_args(&args(&["--workload", "udp_forward", "--seconds", "x"])).is_err());
    }
}
