//! Property tests for the executor: DESIGN.md's determinism claim — the
//! same workload produces bit-identical schedules, virtual times and CPU
//! accounting on every run — plus scheduling-invariant checks.

use proptest::prelude::*;
use spin_check::sync::Mutex;
use spin_sal::SimBoard;
use spin_sched::{Executor, StrandCtx};
use std::sync::Arc;

/// A reproducible description of a strand's behaviour.
#[derive(Debug, Clone)]
struct StrandSpec {
    priority: u8,
    /// (work ns, yield?) slices.
    slices: Vec<(u32, bool)>,
}

fn spec_strategy() -> impl Strategy<Value = StrandSpec> {
    (
        1u8..16,
        // Up to four 1 ms quanta a slice, so preemption is exercised.
        prop::collection::vec((1_000u32..4_000_000, any::<bool>()), 1..6),
    )
        .prop_map(|(priority, slices)| StrandSpec { priority, slices })
}

/// Runs a workload and returns its observable trace.
fn run(specs: &[StrandSpec]) -> (Vec<String>, u64, u64, Vec<u64>) {
    let board = SimBoard::new();
    let exec = Executor::on(board.clock.clone(), board.timers.clone());
    let log: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let mut ids = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let log = log.clone();
        let slices = spec.slices.clone();
        let id = exec.spawn_on(
            spin_sal::HostId(0),
            &format!("s{i}"),
            spec.priority,
            move |ctx: &StrandCtx| {
                for (work, do_yield) in slices {
                    ctx.work(work as u64);
                    log.lock().push(format!("s{i}:{work}"));
                    if do_yield {
                        ctx.yield_now();
                    }
                    ctx.preempt_point();
                }
            },
        );
        ids.push(id);
    }
    exec.run_until_idle();
    let cpu: Vec<u64> = ids.iter().map(|id| exec.cpu_time(id.id())).collect();
    let trace = log.lock().clone();
    (trace, exec.clock().now(), exec.switches(), cpu)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Identical inputs produce identical traces, end times, switch
    /// counts and per-strand CPU accounting.
    #[test]
    fn runs_are_bit_identical(
        specs in prop::collection::vec(spec_strategy(), 1..6),
    ) {
        let a = run(&specs);
        let b = run(&specs);
        prop_assert_eq!(a, b);
    }

    /// CPU accounting conservation: the sum of per-strand CPU equals each
    /// strand's declared work plus its scheduling charges — and never
    /// exceeds the final virtual time.
    #[test]
    fn cpu_accounting_is_conserved(
        specs in prop::collection::vec(spec_strategy(), 1..6),
    ) {
        let (_, end_time, _, cpu) = run(&specs);
        let declared: u64 = specs
            .iter()
            .flat_map(|s| s.slices.iter().map(|&(w, _)| w as u64))
            .sum();
        let total: u64 = cpu.iter().sum();
        prop_assert!(total >= declared, "accounted {total} < declared {declared}");
        prop_assert!(total <= end_time, "accounted {total} > elapsed {end_time}");
    }

    /// Strict priority: with no yields and less work than a quantum, a strictly
    /// higher-priority strand finishes all its work before a lower one
    /// starts.
    #[test]
    fn higher_priority_runs_first_under_no_preemption(
        hi_work in 1_000u32..50_000,
        lo_work in 1_000u32..50_000,
    ) {
        let specs = vec![
            StrandSpec { priority: 1, slices: vec![(lo_work, false)] },
            StrandSpec { priority: 15, slices: vec![(hi_work, false)] },
        ];
        let (trace, _, _, _) = run(&specs);
        // s1 (priority 15) must appear before s0 (priority 1).
        let hi_pos = trace.iter().position(|e| e.starts_with("s1:"));
        let lo_pos = trace.iter().position(|e| e.starts_with("s0:"));
        prop_assert!(hi_pos < lo_pos, "trace: {trace:?}");
    }
}
