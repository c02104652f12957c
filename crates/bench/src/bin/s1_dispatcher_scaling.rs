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
//! a wall-clock optimisation, not a cost-model change. Its wall-clock side
//! — sublinear compiled raises and `raise_batch` amortisation — is timed by
//! the `perf/` package's `core.dispatch.{fast,keyed250,opaque10,batch64}_ns`
//! probes.

use spin_bench::scenario::{s1_scaling, watcher_rtt, Wiring};
use spin_bench::{render_table, us, JsonReport, Row};

/// Guard counts for the scaling sweep.
const GUARD_COUNTS: [usize; 6] = [1, 10, 50, 100, 250, 500];

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
         only (timed by `perf/`'s core.dispatch probes)."
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
}
