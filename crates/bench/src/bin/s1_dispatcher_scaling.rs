//! §5.5 "Scalability and the dispatcher": event dispatch overhead is
//! linear in the number of guards and handlers.
//!
//! "Round trip Ethernet latency, which we measure at 565 µs, rises to
//! about 585 µs when 50 additional guards and handlers register interest
//! in the arrival of some UDP packet but all 50 guards evaluate to false.
//! When all 50 guards evaluate to true, latency rises to 637 µs."
//!
//! Beyond the paper's three data points, this binary sweeps 1–500 guards
//! in two installations of the same watcher set:
//!
//! * **sequential** — opaque closure guards ([`spin_core::Event::install_guarded`]),
//!   which the dispatcher must evaluate one by one;
//! * **compiled** — key-indexed guards ([`spin_core::Event::install_keyed`] on the
//!   stack's shared destination-port key), which the guard-set compiler
//!   folds into a hash lookup.
//!
//! The watcher round trips are `spin_bench::scenario::watcher_rtt`; a
//! keyed watcher guarding an unused port is a logically-false guard, like
//! the paper's "all guards evaluate to false" configuration.
//!
//! Virtual time is charged per *logically evaluated* guard, so the two
//! columns are identical by construction (asserted below): compilation is
//! a wall-clock optimisation, not a cost-model change. The wall-clock side
//! of the story — sublinear compiled raises and `raise_batch` amortisation
//! — is measured on a raw dispatcher. `--json` writes it to
//! `BENCH_dispatch_compiled.json` in the working directory: an emitted,
//! ungated report (`scripts/verify.sh` requires the file to be written;
//! nothing diffs it and no copy is checked in).

use std::time::Instant;

use spin_bench::scenario::{s1_scaling, watcher_rtt, Wiring};
use spin_bench::{render_table, us, JsonReport, Row};
use spin_core::{Dispatcher, Identity, KeyFn};
use spin_sal::Nanos;

/// Guard counts for the scaling sweep.
const GUARD_COUNTS: [usize; 6] = [1, 10, 50, 100, 250, 500];

/// A raw-dispatcher event with `n` watcher guards of which exactly one
/// (the `n/2`-th) matches the raised argument. `keyed` selects compiled
/// key guards vs. opaque closures.
fn build_event(d: &Dispatcher, n: usize, keyed: bool) -> spin_core::Event<u64, ()> {
    let (ev, _owner) = d.define::<u64, ()>("bench.scaling", Identity::kernel("bench"));
    let key = KeyFn::new(|a: &u64| *a);
    for i in 0..n {
        let v = i as u64;
        if keyed {
            ev.install_keyed(
                Identity::extension(&format!("g{i}")),
                &key,
                v,
                |_a: &u64| {},
            )
            .expect("install keyed");
        } else {
            ev.install_guarded(
                Identity::extension(&format!("g{i}")),
                move |a: &u64| *a == v,
                |_a: &u64| {},
            )
            .expect("install guarded");
        }
    }
    ev
}

/// Mean wall-clock nanoseconds per raise over `iters` raises.
fn wall_ns_per_raise(ev: &spin_core::Event<u64, ()>, arg: u64, iters: u32) -> f64 {
    for _ in 0..200 {
        let _ = ev.raise(arg);
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        let _ = ev.raise(arg);
    }
    t0.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// One sweep point: virtual ns per raise (sequential and compiled — must
/// be equal) and wall-clock ns per raise for both installations.
struct SweepPoint {
    n: usize,
    virtual_ns: Nanos,
    seq_wall_ns: f64,
    comp_wall_ns: f64,
}

fn sweep_point(n: usize) -> SweepPoint {
    let arg = (n / 2) as u64;

    let seq_d = Dispatcher::unmetered();
    let seq_ev = build_event(&seq_d, n, false);
    let t0 = seq_d.clock().now();
    seq_ev.raise(arg).expect("sequential raise");
    let seq_virtual = seq_d.clock().now() - t0;

    let comp_d = Dispatcher::unmetered();
    let comp_ev = build_event(&comp_d, n, true);
    let t0 = comp_d.clock().now();
    comp_ev.raise(arg).expect("compiled raise");
    let comp_virtual = comp_d.clock().now() - t0;

    // The cost-model invariant: compilation changes which guards are
    // *executed*, never which guards are *charged*.
    assert_eq!(
        seq_virtual, comp_virtual,
        "compiled raise must charge identical virtual time at {n} guards"
    );
    let seq_stats = seq_d.stats(&seq_ev).expect("stats");
    let comp_stats = comp_d.stats(&comp_ev).expect("stats");
    assert_eq!(
        seq_stats.guard_evaluations, comp_stats.guard_evaluations,
        "compiled raise must account identical guard evaluations at {n} guards"
    );
    assert!(
        comp_stats.compiled_raises > 0,
        "keyed installation must take the compiled path"
    );

    let iters: u32 = if n >= 250 { 20_000 } else { 50_000 };
    SweepPoint {
        n,
        virtual_ns: seq_virtual,
        seq_wall_ns: wall_ns_per_raise(&seq_ev, arg, iters),
        comp_wall_ns: wall_ns_per_raise(&comp_ev, arg, iters),
    }
}

/// Wall-clock speedup of `raise_batch` over looped `raise` at batch 64,
/// on a single-handler (fast-path) event: the batch amortises the plan
/// snapshot and hook loads across the burst.
fn batch64_speedup() -> f64 {
    const BATCH: u64 = 64;
    const ROUNDS: u32 = 4_000;
    let d = Dispatcher::unmetered();
    let (ev, _owner) = d.define::<u64, u64>("bench.batch", Identity::kernel("bench"));
    ev.install(Identity::extension("h"), |a: &u64| *a)
        .expect("install");

    for _ in 0..200 {
        let _ = ev.raise_batch((0..BATCH).collect());
        for i in 0..BATCH {
            let _ = ev.raise(i);
        }
    }
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        for i in 0..BATCH {
            let _ = ev.raise(i);
        }
    }
    let looped = t0.elapsed().as_nanos() as f64;
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        let _ = ev.raise_batch((0..BATCH).collect());
    }
    let batched = t0.elapsed().as_nanos() as f64;
    looped / batched
}

fn main() {
    let opaque = Wiring::bare();
    let keyed = Wiring::new(None, None, false, false, true);
    let [base, false_guards, true_guards] = s1_scaling(&opaque);

    let mut rows = vec![
        Row::new("Ethernet RTT, no extra handlers", 565.0, us(base)),
        Row::new("RTT + 50 guards, all false", 585.0, us(false_guards)),
        Row::new("RTT + 50 guards, all true", 637.0, us(true_guards)),
    ];
    // The sweep: same watcher load installed as opaque closures
    // (sequential scan) and as keyed guards (compiled index). Virtual
    // time must agree pairwise — compilation is invisible to the clock.
    for n in GUARD_COUNTS {
        let (seq, _) = watcher_rtt(&opaque, n, false);
        let (comp, _) = watcher_rtt(&keyed, n, false);
        assert_eq!(
            seq, comp,
            "keyed watchers must charge the same RTT as opaque watchers at {n} guards"
        );
        rows.push(Row::extra(
            &format!("RTT + {n} false guards, sequential"),
            us(seq),
        ));
        rows.push(Row::extra(
            &format!("RTT + {n} false guards, compiled"),
            us(comp),
        ));
    }
    print!(
        "{}",
        render_table("§5.5: dispatcher scaling under guard load", "µs", &rows)
    );
    println!(
        "\nPer-guard evaluation cost: {:.2} µs (paper: ~0.4 µs/guard over 50 guards);\n\
         per-invoked-handler additional cost: {:.2} µs (paper: ~1 µs).",
        us(false_guards.saturating_sub(base)) / 50.0 / 2.0, // two raises per RTT
        us(true_guards.saturating_sub(false_guards)) / 50.0 / 2.0,
    );
    println!(
        "Virtual dispatch cost is linear in installed guards/handlers and\n\
         identical for sequential and compiled columns, matching the paper's\n\
         reported cost model; guard-set compilation changes wall-clock cost\n\
         only (`--json` emits the ungated BENCH_dispatch_compiled.json)."
    );
    JsonReport::new(
        "s1_dispatcher_scaling",
        "§5.5: dispatcher scaling under guard load",
        "µs",
    )
    .rows(&rows)
    .number(
        "per_guard_us",
        us(false_guards.saturating_sub(base)) / 50.0 / 2.0,
    )
    .number(
        "per_handler_us",
        us(true_guards.saturating_sub(false_guards)) / 50.0 / 2.0,
    )
    .write_if_requested();

    // Wall-clock side: raw-dispatcher raises, sequential vs compiled, and
    // the batched-raise amortisation. Nondeterministic — reported, never
    // golden-diffed.
    let points: Vec<SweepPoint> = GUARD_COUNTS.iter().map(|&n| sweep_point(n)).collect();
    let mut wall_rows = Vec::new();
    for p in &points {
        wall_rows.push(Row::extra(
            &format!("raise, {} guards, sequential", p.n),
            p.seq_wall_ns,
        ));
        wall_rows.push(Row::extra(
            &format!("raise, {} guards, compiled", p.n),
            p.comp_wall_ns,
        ));
    }
    print!(
        "{}",
        render_table(
            "Guard-set compilation: wall-clock ns per raise",
            "ns",
            &wall_rows
        )
    );
    let comp_1 = points
        .iter()
        .find(|p| p.n == 1)
        .expect("1-guard point")
        .comp_wall_ns;
    let comp_250 = points
        .iter()
        .find(|p| p.n == 250)
        .expect("250-guard point")
        .comp_wall_ns;
    let speedup = batch64_speedup();
    println!(
        "\nCompiled raise at 250 guards costs {:.2}x a 1-guard raise (target <= 2x);\n\
         raise_batch(64) delivers {speedup:.2}x the throughput of looped raise\n\
         (target >= 1.5x).",
        comp_250 / comp_1
    );

    let mut compiled_report = JsonReport::new(
        "dispatch_compiled",
        "Guard-set compilation: wall-clock dispatch scaling and batched raises",
        "ns",
    )
    .rows(&wall_rows)
    .number("compiled_250_over_1_ratio", comp_250 / comp_1)
    .number("batch64_speedup", speedup);
    for p in &points {
        compiled_report = compiled_report.number(
            &format!("virtual_ns_per_raise_{}_guards", p.n),
            p.virtual_ns as f64,
        );
    }
    compiled_report.write_if_requested();
}
