//! `spin-perf compare <a.jsonl> <b.jsonl>`: a verdict per (metric,
//! workload) from two sets of runs, using the bounds in `BENCHMARK.json`.
//!
//! Each file holds one JSON record per line, as `run --append` writes
//! them. `a` is the baseline (the parent commit, or the first set of runs
//! when checking that two sets of one commit agree); `b` is the candidate.

use crate::json::{self, Value};
use crate::stats::{iqr_share, median, quartiles};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    /// The run-to-run spread is wider than the bound and the two sets
    /// overlap: neither "unchanged" nor "changed" can be claimed.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges candidate runs `b` against baseline runs `a` of one metric.
/// `bound` is the share of the baseline median by which the metric may
/// worsen; `lower_is_better` its direction.
pub fn judge(a: &[f64], b: &[f64], bound: f64, lower_is_better: bool) -> Verdict {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return Verdict::Unresolved;
    };
    // Orient so that larger is worse.
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    let all_b_better = b.iter().all(|&y| a.iter().all(|&x| sign * (y - x) < 0.0));
    let spread = match (iqr_share(a), iqr_share(b)) {
        (Some(sa), Some(sb)) => sa.max(sb),
        // Fewer than two runs on a side: no spread to judge with.
        _ => f64::INFINITY,
    };
    if spread > bound {
        return if all_b_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        return Verdict::Worse;
    }
    // A gain must clear the baseline's own run-to-run spread.
    let base_iqr = quartiles(a).map_or(f64::INFINITY, |[q1, _, q3]| q3 - q1);
    if worse_by < 0.0 && (mb - ma).abs() > base_iqr {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// `(workload, metric) -> values`, over the untraced and traced records of
/// a run file alike.
type Runs = BTreeMap<(String, String), Vec<f64>>;

fn load_runs(path: &str) -> Result<(Runs, u64), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut runs = Runs::new();
    let mut failed = 0;
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let workload = rec
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}:{}: record has no workload", n + 1))?;
        failed += rec.get("failed").and_then(Value::as_u64).unwrap_or(0);
        for (metric, m) in rec
            .get("metrics")
            .and_then(Value::as_obj)
            .unwrap_or_default()
        {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                runs.entry((workload.to_string(), metric.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok((runs, failed))
}

/// `metric -> (bound, lower is better)`; per-layer metrics carry no bound.
type Bounds = BTreeMap<String, (Option<f64>, bool)>;

fn load_bounds() -> Result<Bounds, String> {
    // `BENCHMARK.json` sits at the repository root: here or one level up.
    let path = ["BENCHMARK.json", "../BENCHMARK.json"]
        .into_iter()
        .find(|p| Path::new(p).is_file())
        .ok_or("BENCHMARK.json not found here or in the parent directory")?;
    let doc = json::parse(&std::fs::read_to_string(path).map_err(|e| e.to_string())?)?;
    let mut bounds = Bounds::new();
    for key in ["end_to_end", "per_layer"] {
        for m in doc.get(key).and_then(Value::as_arr).unwrap_or_default() {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let lower = m.get("better").and_then(Value::as_str) != Some("higher");
            bounds.insert(
                name.to_string(),
                (m.get("bound").and_then(Value::as_f64), lower),
            );
        }
    }
    Ok(bounds)
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("compare takes two run files: <a.jsonl> <b.jsonl>".into());
    };
    let bounds = load_bounds()?;
    let (a, a_failed) = load_runs(a_path)?;
    let (b, b_failed) = load_runs(b_path)?;
    println!(
        "{:<16} {:<34} {:>5} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "runs", "median a", "median b", "change", "iqr a", "iqr b"
    );
    let mut worse = 0;
    for ((workload, metric), av) in &a {
        let Some(bv) = b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (bound, lower) = bounds.get(metric).copied().unwrap_or((None, true));
        let (ma, mb) = (median(av).unwrap_or(0.0), median(bv).unwrap_or(0.0));
        let pct = |x: Option<f64>| x.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
        let verdict = match bound {
            Some(bound) => {
                let v = judge(av, bv, bound, lower);
                worse += u32::from(v == Verdict::Worse);
                v.label()
            }
            // Per-layer metrics are diagnostics: shown, not judged.
            None => "",
        };
        println!(
            "{workload:<16} {metric:<34} {:>5} {ma:>14.4} {mb:>14.4} {:>8} {:>7} {:>7}  {verdict}",
            format!("{}/{}", av.len(), bv.len()),
            if ma != 0.0 {
                format!("{:+.1}%", (mb - ma) / ma * 100.0)
            } else {
                "-".into()
            },
            pct(iqr_share(av)),
            pct(iqr_share(bv)),
        );
    }
    println!("ops_failed a={a_failed} b={b_failed}");
    if b_failed > a_failed {
        println!("more operations failed in b than in a: no gain counts");
    }
    Ok(if worse == 0 && b_failed <= a_failed {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_bound_when_medians_agree() {
        let a = [100.0, 101.0, 99.0, 100.5, 100.2];
        let b = [100.4, 100.9, 99.5, 100.1, 100.6];
        assert_eq!(judge(&a, &b, 0.10, true), Verdict::WithinBound);
    }

    #[test]
    fn worse_when_the_median_moves_past_the_bound() {
        let a = [100.0, 101.0, 99.0, 100.5, 100.2];
        let b = [115.0, 116.0, 114.0, 115.5, 115.2];
        assert_eq!(judge(&a, &b, 0.10, true), Verdict::Worse);
        // The same move on a higher-is-better metric is a gain.
        assert_eq!(judge(&a, &b, 0.10, false), Verdict::Better);
    }

    #[test]
    fn better_needs_to_clear_the_baseline_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 100.2];
        let faster = [90.0, 91.0, 89.0, 90.5, 90.2];
        assert_eq!(judge(&a, &faster, 0.10, true), Verdict::Better);
        let barely = [99.9, 100.8, 98.9, 100.3, 100.0];
        assert_eq!(judge(&a, &barely, 0.10, true), Verdict::WithinBound);
    }

    #[test]
    fn unresolved_when_spread_exceeds_the_bound() {
        let a = [100.0, 130.0, 80.0, 120.0, 90.0];
        let b = [105.0, 135.0, 85.0, 125.0, 95.0];
        assert_eq!(judge(&a, &b, 0.10, true), Verdict::Unresolved);
        // ... unless every candidate run beats every baseline run.
        let clear = [50.0, 70.0, 40.0, 65.0, 45.0];
        assert_eq!(judge(&a, &clear, 0.10, true), Verdict::Better);
        // One run a side has no spread to judge with.
        assert_eq!(judge(&[100.0], &[101.0], 0.10, true), Verdict::Unresolved);
        assert_eq!(judge(&[], &[1.0], 0.10, true), Verdict::Unresolved);
    }
}
