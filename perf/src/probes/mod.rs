//! Probes: short isolated loops timing calls into one layer's public
//! functions, taken from outside the program. Each yields a unit cost
//! (ns or µs per call); a workload's per-layer count × the unit cost ÷ its
//! timed window is that layer's modelled share of the window.
//!
//! Adding a probe: write a function here or in the layer's file that sets
//! up the layer, then calls [`Bench::measure`] with a closure running one
//! batch and returning how many calls it made; push the result under a
//! `layer.module.what_unit` name, and list the name in `metrics.rs` and
//! `BENCHMARK.json`.

pub mod core;
pub mod net;
pub mod sal;
pub mod sched;

use crate::stats::median;
use crate::trace::Tracer;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One probe's result.
#[derive(Debug, Clone)]
pub struct ProbeValue {
    /// A name from `metrics::PROBES`, whose suffix gives the unit.
    pub name: &'static str,
    pub value: f64,
}

/// Runs probe batches under a time budget and records one span per probe.
pub struct Bench<'t> {
    pub tracer: &'t mut Tracer,
    /// Measuring time per probe (warm-up batch excluded).
    pub budget: Duration,
    pub out: Vec<ProbeValue>,
}

/// Samples a probe keeps at least, whatever the budget.
const MIN_SAMPLES: usize = 5;

impl Bench<'_> {
    /// Times `batch` — which returns the calls it made — once to warm up,
    /// then until the budget is spent, and returns the median ns per call
    /// over the batches.
    pub fn measure(&mut self, span_name: &str, mut batch: impl FnMut() -> u64) -> f64 {
        let [ns] = self.measure_parts(span_name, || {
            let t0 = Instant::now();
            let calls = batch();
            (calls, [t0.elapsed().as_nanos() as u64])
        });
        ns
    }

    /// [`Bench::measure`] for a batch that alternates `K` kinds of call and
    /// times each kind itself: it returns the calls made of each kind and
    /// the nanoseconds each kind took.
    pub fn measure_parts<const K: usize>(
        &mut self,
        span_name: &str,
        mut batch: impl FnMut() -> (u64, [u64; K]),
    ) -> [f64; K] {
        let span = self.tracer.begin(span_name);
        batch();
        let started = Instant::now();
        let mut samples: [Vec<f64>; K] = std::array::from_fn(|_| Vec::new());
        let mut total_calls = 0;
        while samples[0].len() < MIN_SAMPLES || started.elapsed() < self.budget {
            let (calls, parts) = batch();
            for (s, ns) in samples.iter_mut().zip(parts) {
                s.push(ns as f64 / calls as f64);
            }
            total_calls += calls;
        }
        self.tracer.end(span, total_calls);
        samples.map(|s| median(&s).expect("at least MIN_SAMPLES samples"))
    }

    pub fn push(&mut self, name: &'static str, value: f64) {
        self.out.push(ProbeValue { name, value });
    }

    /// [`Bench::measure`] recorded under `name` in ns per call.
    pub fn probe_ns(&mut self, name: &'static str, batch: impl FnMut() -> u64) -> f64 {
        let ns = self.measure(name, batch);
        self.push(name, ns);
        ns
    }

    /// [`Bench::measure`] recorded under `name` in µs per call.
    pub fn probe_us(&mut self, name: &'static str, batch: impl FnMut() -> u64) -> f64 {
        let ns = self.measure(name, batch);
        self.push(name, ns / 1e3);
        ns
    }

    pub fn get(&self, name: &str) -> f64 {
        self.out
            .iter()
            .find(|p| p.name == name)
            .map_or(f64::NAN, |p| p.value)
    }
}

/// xorshift64 steps of the calibration loop.
const CALIB_STEPS: u64 = 1000;

/// A fixed arithmetic loop — a dependent xorshift chain the compiler
/// cannot shorten — so numbers can be normalised across machines.
fn calib(bench: &mut Bench) {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    bench.probe_ns("host.calib_ns", || {
        for _ in 0..200 {
            for _ in 0..CALIB_STEPS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            x = black_box(x);
        }
        200
    });
}

/// The toll booths the ROADMAP wants folded: what a wired-but-idle obs
/// hook adds to a fast raise, and one disabled fault draw.
fn obs_and_fault(bench: &mut Bench) {
    use spin_core::{Dispatcher, Identity};
    let fast_raise = |bench: &mut Bench, span: &str, obs: Option<&spin_obs::Obs>| {
        let d = Dispatcher::unmetered();
        if let Some(obs) = obs {
            d.set_obs(obs.domain("dispatcher"));
        }
        let (ev, owner) = d.define::<u64, u64>("probe", Identity::kernel("probe"));
        owner.set_primary(|x| x + 1).expect("fresh event");
        bench.measure(span, || {
            for i in 0..20_000u64 {
                black_box(ev.raise(black_box(i)).expect("ok"));
            }
            20_000
        })
    };
    let unwired = fast_raise(bench, "obs.unwired_raise", None);
    let obs = spin_obs::Obs::new(65_536);
    obs.set_recording(false);
    let wired = fast_raise(bench, "obs.wired_raise", Some(&obs));
    bench.push("obs.wired_raise_delta_ns", wired - unwired);

    let plan = spin_fault::FaultPlan::new(0);
    plan.set_enabled(false);
    let hook = plan.hook(spin_fault::SITE_DISPATCH);
    bench.probe_ns("fault.draw_disabled_ns", || {
        for _ in 0..100_000 {
            black_box(hook.draw());
        }
        100_000
    });
}

/// What the net probes hand the attribution model: the part of an HTTP GET
/// and of a UDP frame that the lower layers' probes do not already price.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetResiduals {
    pub http_get_ns: f64,
    pub udp_frame_ns: f64,
}

/// Every probe that runs in the pinned process.
pub fn run_all(tracer: &mut Tracer, budget: Duration) -> (Vec<ProbeValue>, NetResiduals) {
    let mut bench = Bench {
        tracer,
        budget,
        out: Vec::new(),
    };
    calib(&mut bench);
    sal::run(&mut bench);
    core::run(&mut bench);
    sched::run(&mut bench);
    obs_and_fault(&mut bench);
    let residuals = net::run(&mut bench);
    (bench.out, residuals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_median_ns_per_call_and_a_span() {
        let mut tracer = Tracer::new(true);
        let mut bench = Bench {
            tracer: &mut tracer,
            budget: Duration::from_millis(5),
            out: Vec::new(),
        };
        let mut batches = 0u64;
        let ns = bench.probe_ns("host.calib_ns", || {
            batches += 1;
            std::thread::sleep(Duration::from_micros(200));
            4
        });
        // 200 µs per batch of 4 calls: at least 50 µs per call.
        assert!(ns >= 50_000.0, "got {ns}");
        assert!(batches > MIN_SAMPLES as u64);
        assert_eq!(bench.get("host.calib_ns"), ns);
        assert!(bench.get("missing").is_nan());
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 1);
        // The warm-up batch is not counted.
        assert_eq!(spans[0].count, (batches - 1) * 4);
    }
}
