//! The processes `run` starts: one `round` per repetition of the workload,
//! one `probes` and one `unpinned` per traced run. Each prints a single
//! JSON record as the last line of its standard output.

use crate::json::{self, Value};
use crate::probes::{self, Bench};
use crate::stats::{median, percentile};
use crate::trace::{Span, Tracer};
use crate::workloads::{self, Counts, DEFAULT_SEED};
use crate::{flag, host, numeric_flag};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Digests pinned for [`DEFAULT_SEED`], `{"workload": "hex"}`.
const PINNED_DIGESTS: &str = include_str!("../digests.json");

/// The pinned digest of `workload`, if the file has one.
pub fn pinned_digest(workload: &str) -> Option<u64> {
    let doc = json::parse(PINNED_DIGESTS).ok()?;
    let hex = doc.get("digests")?.get(workload)?.as_str()?;
    u64::from_str_radix(hex, 16).ok()
}

/// What one round reports to the orchestrator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundRecord {
    pub traced: bool,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub failures: Vec<String>,
    pub digest: u64,
    /// Process start → start of the timed window.
    pub setup_s: f64,
    pub window_s: f64,
    pub rss_mb: f64,
    pub cpu_s: f64,
    pub sys_share: f64,
    pub vol_ctx_switches: u64,
    pub threads_peak: u64,
    pub slice_p95_over_p50: f64,
    /// Wall nanoseconds of each window slice, in order. For one seed the
    /// slices are the same virtual work in every round.
    pub slice_ns: Vec<u64>,
    pub counts: Counts,
    pub spans: Vec<Span>,
}

impl RoundRecord {
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("traced", Value::Bool(self.traced)),
            ("ops_attempted", Value::Num(self.ops_attempted as f64)),
            ("ops_failed", Value::Num(self.ops_failed as f64)),
            (
                "failures",
                Value::Arr(self.failures.iter().map(Value::str).collect()),
            ),
            ("digest", Value::str(format!("{:016x}", self.digest))),
            ("setup_s", Value::Num(self.setup_s)),
            ("window_s", Value::Num(self.window_s)),
            ("rss_mb", Value::Num(self.rss_mb)),
            ("cpu_s", Value::Num(self.cpu_s)),
            ("sys_share", Value::Num(self.sys_share)),
            ("vol_ctx_switches", Value::Num(self.vol_ctx_switches as f64)),
            ("threads_peak", Value::Num(self.threads_peak as f64)),
            ("slice_p95_over_p50", Value::Num(self.slice_p95_over_p50)),
            (
                "slice_ns",
                Value::Arr(
                    self.slice_ns
                        .iter()
                        .map(|&n| Value::Num(n as f64))
                        .collect(),
                ),
            ),
            (
                "counts",
                Value::obj(
                    self.counts
                        .fields()
                        .into_iter()
                        .map(|(k, v)| (k, Value::Num(v as f64))),
                ),
            ),
            (
                "spans",
                Value::Arr(self.spans.iter().map(Span::to_json).collect()),
            ),
        ])
    }

    pub fn from_json(v: &Value) -> Option<RoundRecord> {
        let num = |k: &str| v.get(k)?.as_f64();
        let int = |k: &str| v.get(k)?.as_u64();
        let mut counts = Counts::default();
        for (k, n) in v.get("counts")?.as_obj()? {
            if !counts.set(k, n.as_u64()?) {
                return None;
            }
        }
        Some(RoundRecord {
            traced: v.get("traced")?.as_bool()?,
            ops_attempted: int("ops_attempted")?,
            ops_failed: int("ops_failed")?,
            failures: v
                .get("failures")?
                .as_arr()?
                .iter()
                .map(|f| f.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
            digest: u64::from_str_radix(v.get("digest")?.as_str()?, 16).ok()?,
            setup_s: num("setup_s")?,
            window_s: num("window_s")?,
            rss_mb: num("rss_mb")?,
            cpu_s: num("cpu_s")?,
            sys_share: num("sys_share")?,
            vol_ctx_switches: int("vol_ctx_switches")?,
            threads_peak: int("threads_peak")?,
            slice_p95_over_p50: num("slice_p95_over_p50")?,
            slice_ns: v
                .get("slice_ns")?
                .as_arr()?
                .iter()
                .map(Value::as_u64)
                .collect::<Option<_>>()?,
            counts,
            spans: v
                .get("spans")?
                .as_arr()?
                .iter()
                .map(Span::from_json)
                .collect::<Option<_>>()?,
        })
    }
}

/// Wall time per operation at the 95th percentile of the window's slices
/// over the median slice. Slices that completed too few operations to time
/// (ramp-up, the slowloris tail) are left out.
fn slice_tail_ratio(slices: &[workloads::Slice]) -> f64 {
    let busiest = slices.iter().map(|s| s.ops).max().unwrap_or(0);
    let per_op: Vec<f64> = slices
        .iter()
        .filter(|s| s.ops > 0 && s.ops * 4 >= busiest)
        .map(|s| s.wall_ns as f64 / s.ops as f64)
        .collect();
    match (percentile(&per_op, 95.0), median(&per_op)) {
        (Some(p95), Some(p50)) if p50 > 0.0 => p95 / p50,
        _ => 0.0,
    }
}

/// `round --workload W --seed N [--trace 1] [--workers K --cpus LIST]
/// [--scale-div D]`: one repetition of the workload in this fresh process.
pub fn round(args: &[String], process_started: Instant) -> Result<ExitCode, String> {
    // Before any thread exists: every strand must inherit the one CPU.
    // `--cpus` widens the set instead, for the two-worker comparison round.
    match flag(args, "--cpus") {
        Some(list) => host::set_affinity(&host::parse_cpu_list(list))?,
        None => {
            host::pin_to_one_cpu()?;
        }
    }
    let workers = numeric_flag(args, "--workers", 1)? as usize;
    let workload = flag(args, "--workload").ok_or("round needs --workload")?;
    let seed = numeric_flag(args, "--seed", DEFAULT_SEED)?;
    let traced = numeric_flag(args, "--trace", 0)? == 1;
    let scale_div = numeric_flag(args, "--scale-div", 1)?.max(1) as usize;

    let mut tracer = Tracer::new(traced);
    let root = tracer.begin(workload);
    let out = workloads::run(workload, seed, workers, scale_div, &mut tracer)
        .ok_or_else(|| format!("unknown workload {workload:?}"))?;
    tracer.end(root, out.ops_attempted);
    let end = host::proc_sample();
    let cpu_s = end.utime_s + end.stime_s;

    let mut failures = out.failures;
    let mut ops_failed = out.ops_failed;
    if seed == DEFAULT_SEED && scale_div == 1 {
        match pinned_digest(workload) {
            Some(want) if want != out.digest => {
                ops_failed += 1;
                failures.push(format!(
                    "virtual digest {:016x} differs from the pinned {want:016x}",
                    out.digest
                ));
            }
            Some(_) => {}
            None => {
                ops_failed += 1;
                failures.push(format!("no pinned digest for {workload} in digests.json"));
            }
        }
    }
    let record = RoundRecord {
        traced,
        ops_attempted: out.ops_attempted,
        ops_failed,
        failures,
        digest: out.digest,
        // Everything before the window is set-up: exec, pinning, input
        // generation, then the workload's own.
        setup_s: out
            .window_opened
            .duration_since(process_started)
            .as_secs_f64(),
        window_s: out.window_ns as f64 / 1e9,
        rss_mb: end.hwm_kb as f64 / 1024.0,
        cpu_s,
        sys_share: if cpu_s > 0.0 {
            end.stime_s / cpu_s
        } else {
            0.0
        },
        vol_ctx_switches: end.vol_ctx,
        threads_peak: out.threads_at_window.max(end.threads),
        slice_p95_over_p50: slice_tail_ratio(&out.slices),
        slice_ns: out.slices.iter().map(|s| s.wall_ns).collect(),
        counts: out.counts,
        spans: tracer.into_spans(),
    };
    for f in &record.failures {
        eprintln!("check failed: {f}");
    }
    println!("{}", record.to_json().emit());
    Ok(ExitCode::SUCCESS)
}

/// `probes --budget-ms N`: every pinned probe, as
/// `{"probes": {name: value}, "residuals": {...}, "spans": [...]}`.
pub fn probes(args: &[String]) -> Result<ExitCode, String> {
    host::pin_to_one_cpu()?;
    let budget = Duration::from_millis(numeric_flag(args, "--budget-ms", 100)?);
    let mut tracer = Tracer::new(true);
    let root = tracer.begin("probes");
    let (values, residuals) = probes::run_all(&mut tracer, budget);
    tracer.end(root, values.len() as u64);
    let record = Value::obj([
        (
            "probes",
            Value::obj(values.iter().map(|p| (p.name, Value::Num(p.value)))),
        ),
        (
            "residuals",
            Value::obj([
                ("http_get_ns", Value::Num(residuals.http_get_ns)),
                ("udp_frame_ns", Value::Num(residuals.udp_frame_ns)),
            ]),
        ),
        (
            "spans",
            Value::Arr(tracer.into_spans().iter().map(Span::to_json).collect()),
        ),
    ]);
    println!("{}", record.emit());
    Ok(ExitCode::SUCCESS)
}

/// `unpinned --cpus LIST --budget-ms N`: the strand-switch probe with the
/// process allowed on every CPU in `LIST` — the number that justifies
/// pinning. Informational.
pub fn unpinned(args: &[String]) -> Result<ExitCode, String> {
    let cpus = host::parse_cpu_list(flag(args, "--cpus").ok_or("unpinned needs --cpus")?);
    if cpus.len() > 1 {
        host::set_affinity(&cpus)?;
    }
    let budget = Duration::from_millis(numeric_flag(args, "--budget-ms", 100)?);
    let mut tracer = Tracer::new(false);
    let mut bench = Bench {
        tracer: &mut tracer,
        budget,
        out: Vec::new(),
    };
    let ns = probes::sched::switch_ns(&mut bench, "sched.executor.switch_unpinned_ns");
    println!(
        "{}",
        Value::obj([("switch_unpinned_ns", Value::Num(ns))]).emit()
    );
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Slice, WORKLOADS};

    #[test]
    fn round_records_round_trip() {
        let mut counts = Counts::default();
        counts.set("epochs", 12345);
        counts.set("switches", 7);
        let r = RoundRecord {
            traced: true,
            ops_attempted: 15015,
            ops_failed: 1,
            failures: vec!["books \"open\"".into()],
            digest: 0xdead_beef_0123_4567,
            setup_s: 0.123,
            window_s: 2.5,
            rss_mb: 98.5,
            cpu_s: 2.61,
            sys_share: 0.25,
            vol_ctx_switches: 400_000,
            threads_peak: 718,
            slice_p95_over_p50: 1.4,
            slice_ns: vec![5_000_000, 4_900_000],
            counts,
            spans: vec![Span {
                id: 0,
                parent: None,
                name: "http_storm".into(),
                start_ns: 0,
                end_ns: 99,
                count: 3,
            }],
        };
        let text = r.to_json().emit();
        assert_eq!(
            RoundRecord::from_json(&json::parse(&text).unwrap()),
            Some(r)
        );
        assert_eq!(RoundRecord::from_json(&json::parse("{}").unwrap()), None);
    }

    #[test]
    fn every_workload_has_a_pinned_digest() {
        for (w, _) in WORKLOADS {
            assert!(pinned_digest(w).is_some(), "digests.json lacks {w}");
        }
        assert_eq!(pinned_digest("no_such_workload"), None);
    }

    #[test]
    fn slice_tail_ratio_ignores_idle_slices() {
        let s = |wall_ns, ops| Slice { wall_ns, ops };
        // 100 busy slices at 10 ns/op, five at 30 ns/op, idle ones around.
        let mut slices = vec![s(5_000, 0), s(900, 1)];
        slices.extend((0..100).map(|_| s(1_000, 100)));
        slices.extend((0..5).map(|_| s(3_000, 100)));
        slices.push(s(1, 0));
        // p95 of 105 samples is the 100th (10 ns/op): ratio 1.
        assert_eq!(slice_tail_ratio(&slices), 1.0);
        slices.extend((0..5).map(|_| s(3_000, 100)));
        assert_eq!(slice_tail_ratio(&slices), 3.0);
        assert_eq!(slice_tail_ratio(&[]), 0.0);
    }
}
