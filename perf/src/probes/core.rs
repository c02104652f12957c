//! `core` probes: the raise paths of `dispatch_steady`'s events, the plan
//! writes of `dispatch_churn`'s, and the quota cell's admission pair.

use super::Bench;
use crate::gen::{ChurnHandler, STEADY_KEYS};
use crate::workloads::dispatch_churn::ChurnRig;
use crate::workloads::dispatch_steady::SteadyRig;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Handlers on the event the write probes churn: the middle of
/// `dispatch_churn`'s 8–64 range.
const WRITE_PROBE_HANDLERS: u64 = 36;

pub fn run(bench: &mut Bench) {
    // The reference: a plain dynamic call, for "procedure-call-grade".
    let f: Arc<dyn Fn(u64) -> u64 + Send + Sync> = Arc::new(|x| x + 1);
    bench.probe_ns("core.dispatch.indirect_call_ns", || {
        for i in 0..200_000u64 {
            black_box(f(black_box(i)));
        }
        200_000
    });

    let rig = SteadyRig::new();
    bench.probe_ns("core.dispatch.fast_ns", || {
        for i in 0..20_000u64 {
            black_box(rig.fast.raise(black_box(i)).expect("ok"));
        }
        20_000
    });
    bench.probe_ns("core.dispatch.keyed250_ns", || {
        for i in 0..10_000u64 {
            black_box(
                rig.keyed
                    .raise(black_box((i % STEADY_KEYS, i)))
                    .expect("ok"),
            );
        }
        10_000
    });
    bench.probe_ns("core.dispatch.opaque10_ns", || {
        for i in 0..10_000u64 {
            black_box(rig.opaque.raise(black_box(i)).expect("ok"));
        }
        10_000
    });
    bench.probe_ns("core.dispatch.batch64_ns", || {
        for b in 0..200u64 {
            let batch: Vec<(u64, u64)> = (0..64).map(|i| ((b + i) % STEADY_KEYS, i)).collect();
            black_box(rig.keyed.raise_batch(black_box(batch)));
        }
        200 * 64
    });
    bench.probe_ns("core.quota.admit_complete_ns", || {
        for i in 0..100_000u64 {
            rig.cell.admit(black_box(i)).expect("unlimited");
            rig.cell.complete(1);
        }
        100_000
    });

    // Plan writes. Install and uninstall alternate on one event, so the
    // batch times each kind itself.
    let churn = ChurnRig::new();
    let mut ev = churn.define(0);
    for k in 0..WRITE_PROBE_HANDLERS {
        let h = if k % 8 == 7 {
            ChurnHandler::Guarded(2 + k % 14)
        } else {
            ChurnHandler::Keyed(k)
        };
        churn.install(&mut ev, h);
    }
    let [install_ns, uninstall_ns] = bench.measure_parts("core.dispatch.install_uninstall", || {
        let (mut installing, mut uninstalling) = (0, 0);
        for k in 0..500u64 {
            let t0 = Instant::now();
            churn.install(&mut ev, ChurnHandler::Keyed(k % 90));
            let t1 = Instant::now();
            let last = ev.installed.len() - 1;
            churn.uninstall(&mut ev, last);
            installing += (t1 - t0).as_nanos() as u64;
            uninstalling += t1.elapsed().as_nanos() as u64;
        }
        (500, [installing, uninstalling])
    });
    bench.push("core.dispatch.install_us", install_ns / 1e3);
    bench.push("core.dispatch.uninstall_us", uninstall_ns / 1e3);
    bench.probe_us("core.dispatch.rebind_us", || {
        for _ in 0..200 {
            churn.swap(&mut ev);
        }
        200
    });
}
