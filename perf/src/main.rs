//! `spin-perf`: the repo's host-time benchmark.
//!
//! ```text
//! spin-perf run --workload <name> [--seed <u64>] [--seconds <n>] [--trace 0|1] [--append <file>]
//! spin-perf compare <a.jsonl> <b.jsonl>
//! ```
//!
//! `run` pins itself to one CPU, then for `--seconds` runs the workload
//! over and over, each round in a fresh child process of its own (`round`),
//! and reports the median of every end-to-end metric. With `--trace 1` it
//! first runs the per-layer probes (`probes`, and `unpinned` for the two
//! numbers that need both CPUs), alternates traced and untraced rounds, and
//! reports every per-layer metric plus a span file. It measures host time
//! only: virtual time is the paper's result, repeats exactly, and is used
//! here as a correctness check. See `perf/README.md`.

mod child;
mod compare;
mod gen;
mod host;
mod json;
mod metrics;
mod model;
mod probes;
mod run;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

/// The value following `--name` in `args`.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// A numeric flag: `Ok(default)` when absent, `Err` when malformed.
fn numeric_flag(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} takes a whole number, got {v:?}")),
    }
}

const USAGE: &str = "usage:
  spin-perf run --workload <http_storm|udp_forward|dispatch_steady|dispatch_churn>
                [--seed <u64>] [--seconds <n>] [--trace 0|1] [--append <file.jsonl>]
  spin-perf compare <a.jsonl> <b.jsonl>";

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run::main(rest),
        Some("compare") => compare::main(rest),
        // Children of `run`; not for direct use.
        Some("round") => child::round(rest, started),
        Some("probes") => child::probes(rest),
        Some("unpinned") => child::unpinned(rest),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("spin-perf: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_and_reject() {
        let args: Vec<String> = ["--seed", "7", "--trace", "x", "--workload"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag(&args, "--seed"), Some("7"));
        assert_eq!(flag(&args, "--workload"), None);
        assert_eq!(numeric_flag(&args, "--seed", 1), Ok(7));
        assert_eq!(numeric_flag(&args, "--seconds", 20), Ok(20));
        assert!(numeric_flag(&args, "--trace", 0).is_err());
    }
}
