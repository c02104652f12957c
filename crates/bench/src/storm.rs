//! Helpers shared by the sharded storm benches (`s7`–`s10`): the
//! deterministic mixer, order-independent latency digests, and the
//! 1/2/4-worker sweep with its byte-identity assertion.

use spin_sal::Nanos;
use spin_sched::{IdleOutcome, Multicore};
use std::fmt::Debug;
use std::time::Instant;

/// The worker counts every storm is swept at.
pub const WORKERS: [usize; 3] = [1, 2, 4];

/// splitmix64 — deterministic heavy-tail draws and order-independent
/// checksums.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Order-independent digest plus the percentiles of one latency stream.
#[derive(Debug, PartialEq, Eq)]
pub struct LatencyDigest {
    pub count: u64,
    pub sum: Nanos,
    pub xor: u64,
    pub p50: Nanos,
    pub p99: Nanos,
    pub max: Nanos,
}

/// Digests a latency stream recorded in any order.
pub fn digest(latencies: &[Nanos]) -> LatencyDigest {
    let mut sorted = latencies.to_vec();
    sorted.sort_unstable();
    let pct = |p: usize| -> Nanos {
        if sorted.is_empty() {
            0
        } else {
            sorted[(sorted.len() * p / 100).min(sorted.len() - 1)]
        }
    };
    LatencyDigest {
        count: latencies.len() as u64,
        sum: latencies.iter().sum(),
        xor: latencies.iter().fold(0, |acc, &l| acc ^ mix(l)),
        p50: pct(50),
        p99: pct(99),
        max: pct(100),
    }
}

/// Pumps the barrier until every strand completes; returns the wall-clock
/// milliseconds it took.
pub fn run_to_completion(mc: &Multicore) -> f64 {
    let t0 = Instant::now();
    assert_eq!(mc.run_until_idle(), IdleOutcome::AllComplete);
    t0.elapsed().as_secs_f64() * 1e3
}

/// One scenario swept over [`WORKERS`]: the virtual outputs (identical at
/// every worker count) and the wall-clock milliseconds of each run.
pub struct Swept<V> {
    pub virt: V,
    pub wall_ms: [f64; 3],
}

impl<V> Swept<V> {
    /// The per-worker wall-clock times as `1w 12.3ms, 2w …`.
    pub fn walls(&self) -> String {
        let walls: Vec<String> = WORKERS
            .iter()
            .zip(self.wall_ms)
            .map(|(w, ms)| format!("{w}w {ms:.1}ms"))
            .collect();
        walls.join(", ")
    }
}

/// Runs `run(workers) -> (virtual outputs, wall ms)` at 1, 2 and 4 workers
/// and panics unless every virtual output is byte-identical — only the
/// wall clock may move.
pub fn sweep_workers<V: PartialEq + Debug>(mut run: impl FnMut(usize) -> (V, f64)) -> Swept<V> {
    let (virt, base_ms) = run(WORKERS[0]);
    let mut wall_ms = [base_ms; 3];
    for (slot, &w) in wall_ms.iter_mut().zip(&WORKERS).skip(1) {
        let (v, ms) = run(w);
        if v != virt {
            // The outputs are multi-kilobyte structs of one shape: show
            // only the lines of their pretty forms that differ.
            let (one, many) = (format!("{virt:#?}"), format!("{v:#?}"));
            let mut report =
                format!("virtual outputs diverged at {w} workers — the barrier is broken");
            for (n, (a, b)) in one.lines().zip(many.lines()).enumerate() {
                if a != b {
                    let (a, b) = (a.trim(), b.trim());
                    report += &format!("\n  line {}: `{a}` at 1 worker, `{b}` at {w}", n + 1);
                }
            }
            panic!("{report}");
        }
        *slot = ms;
    }
    Swept { virt, wall_ms }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Out {
        frames: u64,
        sum: u64,
    }

    #[test]
    fn a_divergence_names_the_worker_count_and_only_the_differing_lines() {
        let panic = std::panic::catch_unwind(|| {
            sweep_workers(|w| {
                let sum = if w == 4 { 7 } else { 9 };
                (Out { frames: 5, sum }, 0.0)
            })
        })
        .err()
        .expect("the sweep must refuse a divergence");
        let msg = panic.downcast_ref::<String>().expect("a formatted panic");
        assert_eq!(
            msg,
            "virtual outputs diverged at 4 workers — the barrier is broken\n  \
             line 3: `sum: 9,` at 1 worker, `sum: 7,` at 4"
        );
    }
}
