//! Criterion microbenchmarks: the *real* (wall-clock) overhead of the
//! reproduction's mechanisms, independent of the virtual-time calibration.
//!
//! These substantiate the architectural claims directly on today's
//! hardware: the dispatcher's fast path is procedure-call-grade; guard
//! evaluation is linear (the §5.5 ablation); dynamic linking is cheap;
//! externalized references and the collector's allocation path are
//! constant-time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spin_core::{Dispatcher, Identity, Interface, NameServer};
use spin_rt::KernelHeap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn bench_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("dispatch");
    g.measurement_time(Duration::from_millis(400))
        .warm_up_time(Duration::from_millis(150));

    // Ablation: the direct-call fast path vs the guarded slow path.
    let d = Dispatcher::unmetered();
    let (fast, owner) = d.define::<u64, u64>("fast", Identity::kernel("b"));
    owner.set_primary(|x| x + 1).expect("fresh");
    g.bench_function("fast_path_single_handler", |b| {
        b.iter(|| fast.raise(black_box(1)).expect("ok"))
    });

    for guards in [1usize, 10, 50] {
        let d = Dispatcher::unmetered();
        let (ev, owner) = d.define::<u64, u64>("guarded", Identity::kernel("b"));
        owner.set_primary(|x| x + 1).expect("fresh");
        for _ in 0..guards {
            ev.install_guarded(Identity::extension("w"), |_| false, |x| *x)
                .expect("ok");
        }
        g.bench_with_input(BenchmarkId::new("guard_scan", guards), &guards, |b, _| {
            b.iter(|| ev.raise(black_box(1)).expect("ok"))
        });
    }

    // Baseline: a plain dynamic call, for the "procedure-call-grade" claim.
    let f: Arc<dyn Fn(u64) -> u64 + Send + Sync> = Arc::new(|x| x + 1);
    g.bench_function("plain_indirect_call", |b| b.iter(|| f(black_box(1))));
    g.finish();
}

fn bench_linking(c: &mut Criterion) {
    let mut g = c.benchmark_group("linking");
    g.measurement_time(Duration::from_millis(400))
        .warm_up_time(Duration::from_millis(150));

    for imports in [1usize, 16, 64] {
        g.bench_with_input(BenchmarkId::new("resolve", imports), &imports, |b, &n| {
            b.iter_with_setup(
                || {
                    let mut iface = Interface::new("I");
                    for i in 0..n {
                        iface = iface.export(&format!("s{i}"), Arc::new(i as u64));
                    }
                    let source = spin_core::Domain::create_from_module("source", vec![iface]);
                    let mut builder = spin_core::ObjectFileBuilder::new("client");
                    for i in 0..n {
                        let _slot = builder.import::<u64>("I", &format!("s{i}"));
                    }
                    (
                        source,
                        spin_core::Domain::create(builder.sign()).expect("signed"),
                    )
                },
                |(source, target)| spin_core::Domain::resolve(&source, &target).expect("links"),
            )
        });
    }

    g.bench_function("nameserver_import", |b| {
        let ns = NameServer::new();
        let d = spin_core::Domain::create_from_module(
            "m",
            vec![Interface::new("Svc").export("service", Arc::new(7u64))],
        );
        ns.register("Service", d, Identity::kernel("m"))
            .expect("fresh");
        let who = Identity::extension("client");
        b.iter(|| {
            black_box(ns.import_typed::<u64>(&who).expect("ok"));
        })
    });
    g.finish();
}

fn bench_capabilities(c: &mut Criterion) {
    let mut g = c.benchmark_group("capabilities");
    g.measurement_time(Duration::from_millis(400))
        .warm_up_time(Duration::from_millis(150));
    let table = spin_core::ExternTable::new();
    let handle = table.externalize(Arc::new(42u64));
    g.bench_function("extern_recover", |b| {
        b.iter(|| table.recover::<u64>(black_box(handle)).expect("live"))
    });
    g.finish();
}

fn bench_gc(c: &mut Criterion) {
    let mut g = c.benchmark_group("gc");
    g.measurement_time(Duration::from_millis(400))
        .warm_up_time(Duration::from_millis(150));

    g.bench_function("alloc", |b| {
        let heap = KernelHeap::with_capacity(64 * 1024 * 1024);
        b.iter(|| heap.alloc(black_box(7u64)).expect("capacity"))
    });

    for live in [0usize, 100, 1000] {
        g.bench_with_input(BenchmarkId::new("collect_live", live), &live, |b, &n| {
            b.iter_with_setup(
                || {
                    let heap = KernelHeap::new();
                    let roots: Vec<_> = (0..n)
                        .map(|i| heap.alloc_root(i as u64).expect("fits"))
                        .collect();
                    for i in 0..1000u64 {
                        heap.alloc(i).expect("fits"); // garbage
                    }
                    (heap, roots)
                },
                |(heap, _roots)| heap.collect(),
            )
        });
    }

    // Ablation (DESIGN.md #4): pinned ambiguous roots promote pages in
    // place instead of copying — collection gets *cheaper* per survivor,
    // at the price of conservatively retained same-page garbage.
    for pinned in [0usize, 100, 1000] {
        g.bench_with_input(
            BenchmarkId::new("collect_pinned", pinned),
            &pinned,
            |b, &n| {
                b.iter_with_setup(
                    || {
                        let heap = KernelHeap::new();
                        let pins: Vec<_> = (0..n)
                            .map(|i| {
                                let gc = heap.alloc(i as u64).expect("fits");
                                heap.pin_ambiguous(gc)
                            })
                            .collect();
                        for i in 0..1000u64 {
                            heap.alloc(i).expect("fits"); // garbage
                        }
                        (heap, pins)
                    },
                    |(heap, _pins)| heap.collect(),
                )
            },
        );
    }
    g.finish();
}

/// Ablation (DESIGN.md #6): the cost of *being observable*. The obs hook
/// points compile to one relaxed atomic load when no hook is installed
/// (`OnceLock::get`), one load plus the recorder-state load when wired
/// with the recorder off (accounting reads the subsystems' own books at
/// render time), and additionally a ring push when recording. The
/// unwired/wired-off gap is the price every dispatch pays for the
/// subsystem existing; it must be noise-level for the cost-model
/// invariant to be honest in wall-clock terms too.
fn bench_obs(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs");
    g.measurement_time(Duration::from_millis(400))
        .warm_up_time(Duration::from_millis(150));

    let raise_bench =
        |g: &mut criterion::BenchmarkGroup<'_>, name: &str, obs: Option<spin_obs::Obs>| {
            let d = Dispatcher::unmetered();
            if let Some(obs) = &obs {
                d.set_obs(obs.domain("dispatcher"));
            }
            let (ev, owner) = d.define::<u64, u64>("probe", Identity::kernel("b"));
            owner.set_primary(|x| x + 1).expect("fresh");
            g.bench_function(name, |b| b.iter(|| ev.raise(black_box(1)).expect("ok")));
        };
    raise_bench(&mut g, "raise/unwired", None);
    let off = spin_obs::Obs::new(65536);
    off.set_recording(false);
    raise_bench(&mut g, "raise/wired_recorder_off", Some(off));
    raise_bench(
        &mut g,
        "raise/recording_64k",
        Some(spin_obs::Obs::new(65536)),
    );
    // Capacity 1 maximizes drop-oldest churn: the worst-case ring cost.
    raise_bench(&mut g, "raise/recording_cap1", Some(spin_obs::Obs::new(1)));

    // The raw hook primitives, isolated from dispatch.
    let obs = spin_obs::Obs::new(65536);
    let hook = obs.domain("net");
    g.bench_function("hook/trace_push", |b| {
        b.iter(|| hook.trace(spin_obs::TraceKind::PacketTx, black_box(60), 0))
    });
    obs.set_recording(false);
    g.bench_function("hook/trace_gated_off", |b| {
        b.iter(|| hook.trace(spin_obs::TraceKind::PacketTx, black_box(60), 0))
    });
    g.finish();
}

/// Ablation (DESIGN.md #7): the cost of *being containable*. Every
/// synchronous handler invocation now runs under `catch_unwind`, and the
/// fault-injection hook point costs one relaxed atomic load when a plan
/// is wired but disabled, a seeded hash draw when armed at zero rates,
/// and nothing at all when unwired. The fault-path-off raise overhead —
/// the unwired/wired-disabled gap — is the price every dispatch pays for
/// containment existing; EXPERIMENTS.md records it.
fn bench_fault(c: &mut Criterion) {
    use spin_fault::{FaultPlan, SiteConfig, SITE_DISPATCH};

    let mut g = c.benchmark_group("fault");
    g.measurement_time(Duration::from_millis(400))
        .warm_up_time(Duration::from_millis(150));

    let raise_bench =
        |g: &mut criterion::BenchmarkGroup<'_>, name: &str, plan: Option<FaultPlan>| {
            let d = Dispatcher::unmetered();
            if let Some(p) = &plan {
                d.set_fault_hook(p.hook(SITE_DISPATCH));
            }
            let (ev, owner) = d.define::<u64, u64>("probe", Identity::kernel("b"));
            owner.set_primary(|x| x + 1).expect("fresh");
            g.bench_function(name, |b| b.iter(|| ev.raise(black_box(1)).expect("ok")));
        };
    raise_bench(&mut g, "raise/unwired", None);
    let disabled = FaultPlan::new(0);
    disabled.set_enabled(false);
    raise_bench(&mut g, "raise/wired_disabled", Some(disabled));
    // Armed with no rates configured: the full decision path, no firing.
    raise_bench(&mut g, "raise/armed_zero_rates", Some(FaultPlan::new(0)));

    // The contained-fault slow case: a handler that panics on every
    // raise, with the breaker sinking (but never tripping on) the fault.
    {
        let d = Dispatcher::unmetered();
        let _c = spin_core::Containment::install(
            &d,
            None,
            spin_core::ContainmentPolicy {
                strikes: u32::MAX,
                window: u64::MAX,
                trips_to_quarantine: u32::MAX,
            },
        );
        let (ev, owner) = d.define::<u64, u64>("faulty", Identity::kernel("b"));
        owner.set_primary(|x| x + 1).expect("fresh");
        ev.install(Identity::extension("buggy"), |_| -> u64 { panic!("bug") })
            .expect("ok");
        // The default panic hook would print a backtrace per contained
        // panic; silence it for the duration of this measurement.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        g.bench_function("raise/contained_panic", |b| {
            b.iter(|| ev.raise(black_box(1)).expect("primary result survives"))
        });
        std::panic::set_hook(prev_hook);
    }

    // The raw draw primitives, isolated from dispatch.
    let disabled = FaultPlan::new(0);
    disabled.set_enabled(false);
    let off_hook = disabled.hook(SITE_DISPATCH);
    g.bench_function("hook/draw_disabled", |b| b.iter(|| off_hook.draw()));
    let armed = FaultPlan::new(0);
    armed.configure(SITE_DISPATCH, SiteConfig::default());
    let on_hook = armed.hook(SITE_DISPATCH);
    g.bench_function("hook/draw_armed_zero_rates", |b| b.iter(|| on_hook.draw()));
    g.finish();
}

/// Ablation (DESIGN.md #12): the cost of *being meterable*. An event
/// bound to a quota cell pays the cell's admission CAS and window probe
/// on every raise even while the budgets are zero-valued (unlimited) and
/// nothing ever refuses; an unbound event pays one relaxed atomic load
/// to see no cell is bound. The unbound/bound-unlimited gap is the price
/// every dispatch pays for overload containment existing; EXPERIMENTS.md
/// records it. The refusal rows price the cheap path callers are shunted
/// onto once a budget trips.
fn bench_quota(c: &mut Criterion) {
    use spin_core::{QuotaLedger, QuotaSpec};

    let mut g = c.benchmark_group("quota");
    g.measurement_time(Duration::from_millis(400))
        .warm_up_time(Duration::from_millis(150));

    let raise_bench = |g: &mut criterion::BenchmarkGroup<'_>, name: &str, metered: bool| {
        let d = Dispatcher::unmetered();
        let (ev, owner) = d.define::<u64, u64>("probe", Identity::kernel("b"));
        owner.set_primary(|x| x + 1).expect("fresh");
        if metered {
            let ledger = QuotaLedger::new();
            let cell = ledger.register("tenant", QuotaSpec::default());
            assert_eq!(ev.bind_quota(cell), Ok(true));
        }
        g.bench_function(name, |b| b.iter(|| ev.raise(black_box(1)).expect("ok")));
    };
    raise_bench(&mut g, "raise/unbound", false);
    raise_bench(&mut g, "raise/bound_unlimited", true);

    // The refused paths: a throttled raise (Normal, budget spent) and a
    // shed raise (Shedding) never reach the handler at all.
    let refused_bench = |g: &mut criterion::BenchmarkGroup<'_>, name: &str, shed: bool| {
        let d = Dispatcher::unmetered();
        let (ev, owner) = d.define::<u64, u64>("probe", Identity::kernel("b"));
        owner.set_primary(|x| x + 1).expect("fresh");
        let ledger = QuotaLedger::new();
        let cell = ledger.register(
            "tenant",
            QuotaSpec {
                window: u64::MAX,
                window_vt_budget: 1,
                // Trip counts saturate far below these bounds, so the
                // measured raises stay on one ladder rung throughout.
                shed_after_trips: if shed { 1 } else { u32::MAX },
                quarantine_after_sheds: u32::MAX,
                ..QuotaSpec::default()
            },
        );
        cell.admit(0).expect("budget fresh");
        cell.complete(1); // spend the window budget
        assert_eq!(ev.bind_quota(cell), Ok(true));
        g.bench_function(name, |b| {
            b.iter(|| ev.raise(black_box(1)).expect_err("refused"))
        });
    };
    refused_bench(&mut g, "raise/throttled", false);
    refused_bench(&mut g, "raise/shed", true);

    // The raw admission primitive, isolated from dispatch.
    let ledger = QuotaLedger::new();
    let cell = ledger.register("tenant", QuotaSpec::default());
    g.bench_function("cell/admit_complete_unlimited", |b| {
        b.iter(|| {
            cell.admit(black_box(7)).expect("unlimited");
            cell.complete(1);
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_dispatch,
    bench_linking,
    bench_capabilities,
    bench_gc,
    bench_obs,
    bench_fault,
    bench_quota
);
criterion_main!(benches);
