//! The chaos suite: a seeded fault-injection storm across subsystems.
//!
//! A [`spin_os::fault::FaultPlan`] drives panics, delays and resource
//! failures into the dispatcher, the executor, the disk pager, the
//! kernel heap and the network stack — well over a hundred injected
//! handler panics per run — and the kernel must shrug: no process abort,
//! every contained fault attributed to an installer domain on the
//! `/metrics` page (the `Obs.Snapshot` body the in-kernel HTTP extension
//! serves), and counters that reconcile *exactly* with what the plan
//! says it injected. Because the plan is seeded and the simulation runs
//! on virtual time, two identical storms produce identical wreckage.

use parking_lot::Mutex;
use spin_os::core::{
    Constraints, ContainmentPolicy, DispatchError, Domain, DomainFaultInfo, Event, Identity,
    InstallSpec, Kernel, QuotaLedger, QuotaSnapshot, QuotaSpec, QuotaVerdict,
};
use spin_os::fault::{
    FaultPlan, Injection, SiteConfig, SiteReport, SITE_DISPATCH, SITE_NET_STACK, SITE_QUOTA,
    SITE_RT_HEAP, SITE_SCHED, SITE_SWAP, SITE_VM_PAGER,
};
use spin_os::net::{Medium, TwoHosts};
use spin_os::obs::Obs;
use spin_os::sal::{Cost, Nanos, SimBoard, PAGE_SHIFT};
use spin_os::sched::IdleOutcome;
use spin_os::swap::{SwapCoordinator, SwapError, SwapSupervisor, UndoAction};
use spin_os::vm::{DiskPager, PhysAddrService, TranslationService, VirtAddrService};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const VM_PAGES: u64 = 32;

/// Extracts every `spin_faults{domain="..."} N` line, sorted by domain.
fn faults_by_domain(body: &str) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = body
        .lines()
        .filter_map(|l| {
            let rest = l.strip_prefix("spin_faults{domain=\"")?;
            let (domain, value) = rest.split_once("\"} ")?;
            Some((domain.to_string(), value.trim().parse().ok()?))
        })
        .collect();
    v.sort();
    v
}

/// One full storm. Returns the plan's exact per-site report, the number
/// of faults the containment sink saw, the per-domain `/metrics`
/// attribution and how the chaos strands' run ended — so the determinism
/// test can compare two runs.
fn storm(seed: u64) -> (Vec<SiteReport>, u64, Vec<(String, u64)>, IdleOutcome) {
    let rig = TwoHosts::new();
    let obs = Obs::new(65_536);
    rig.wire_obs(&obs);

    // The kernel under attack lives on host A; its dispatcher carries
    // the chaos events, the page-fault events and the containment sink.
    let kernel = Kernel::boot(rig.host_a.clone());
    let snapshot = kernel.install_obs(&obs);
    // A lenient budget: this test is about containment and attribution,
    // not the breaker (which gets its own test below).
    let containment = kernel.install_fault_containment(ContainmentPolicy {
        strikes: u32::MAX,
        window: u64::MAX,
        trips_to_quarantine: u32::MAX,
    });
    containment.set_obs(&obs);

    let plan = FaultPlan::new(seed);
    plan.configure(
        SITE_DISPATCH,
        SiteConfig {
            panic_every: 5,
            ..SiteConfig::default()
        },
    );
    plan.configure(
        SITE_VM_PAGER,
        SiteConfig {
            panic_every: 2,
            ..SiteConfig::default()
        },
    );
    plan.configure(
        SITE_RT_HEAP,
        SiteConfig {
            panic_every: 3,
            fail_every: 3,
            ..SiteConfig::default()
        },
    );
    plan.configure(
        SITE_NET_STACK,
        SiteConfig {
            panic_every: 3,
            fail_every: 5,
            ..SiteConfig::default()
        },
    );
    kernel.dispatcher().set_fault_hook(plan.hook(SITE_DISPATCH));
    rig.exec.set_fault_hook(plan.hook(SITE_SCHED));
    kernel.heap().set_fault_hook(plan.hook(SITE_RT_HEAP));
    rig.a.set_fault_hook(plan.hook(SITE_NET_STACK));

    // Chaos events: each extension handler drags one subsystem into the
    // raise, so an injection there unwinds *through* the subsystem into
    // the dispatcher's containment region.
    let (svc, svc_owner) = kernel
        .dispatcher()
        .define::<u64, u64>("Chaos.Svc", Identity::kernel("chaos"));
    svc_owner.set_primary(|x| *x).expect("fresh event");
    svc.install(Identity::extension("chaos-dispatch"), |x| x + 1)
        .expect("install");

    let (heap_ev, heap_owner) = kernel
        .dispatcher()
        .define::<u64, u64>("Chaos.Heap", Identity::kernel("chaos"));
    heap_owner.set_primary(|_| 0).expect("fresh event");
    let k2 = kernel.clone();
    heap_ev
        .install(Identity::extension("chaos-heap"), move |v: &u64| {
            // An injected heap failure is the extension's problem to
            // tolerate; an injected heap panic is the dispatcher's.
            let _ = k2.heap().alloc(*v);
            1
        })
        .expect("install");

    let (net_ev, net_owner) = kernel
        .dispatcher()
        .define::<u64, u64>("Chaos.Net", Identity::kernel("chaos"));
    net_owner.set_primary(|_| 0).expect("fresh event");
    let stack = rig.a.clone();
    let dst = rig.b.ip_on(Medium::Ethernet);
    net_ev
        .install(Identity::extension("chaos-net"), move |_| {
            let _ = stack.udp_send(9000, dst, 7, b"chaos");
            1
        })
        .expect("install");

    // The disk pager, installed against the kernel's dispatcher so its
    // injected page-fault panics land in the same containment sink.
    let trans = TranslationService::new(
        rig.host_a.mmu.clone(),
        rig.board.clock.clone(),
        kernel.dispatcher(),
    );
    let phys = PhysAddrService::new(rig.host_a.mem.clone(), kernel.dispatcher());
    let virt = VirtAddrService::new();
    let ctx = trans.create();
    let region = virt.allocate(VM_PAGES).expect("virtual region");
    trans.reserve(ctx, &region).expect("reserve");
    let pager = DiskPager::install(
        rig.exec.clone(),
        trans.clone(),
        phys.clone(),
        rig.host_a.disk.clone(),
        ctx,
        region.clone(),
        0,
    );
    pager.set_fault_hook(plan.hook(SITE_VM_PAGER));

    // Phase A: hammer the dispatcher, the heap and the net from the trap
    // path. Faulted raises surface as errors, never as unwinds.
    for i in 0..400u64 {
        let _ = svc.raise(i);
        let _ = heap_ev.raise(i);
        let _ = net_ev.raise(i);
    }

    // Phase B: reader strands fault the paged region in while the pager
    // site injects. An injected panic leaves the page unmapped, so the
    // bounded retry loop faults it again — more draws, more chaos.
    let mem = rig.host_a.mem.clone();
    for p in 0..VM_PAGES {
        let trans2 = trans.clone();
        let mem2 = mem.clone();
        let va = region.base() + (p << PAGE_SHIFT);
        rig.exec.spawn("vm-reader", move |_| {
            let mut buf = [0u8; 1];
            for _ in 0..8 {
                if trans2.read(ctx, va, &mut buf, &mem2).is_ok() {
                    break;
                }
            }
        });
    }
    rig.exec.run_until_idle();

    // Phase C: now arm the executor site and throw strands at it. Half
    // die at spawn — contained by the executor, not the dispatcher.
    plan.configure(
        SITE_SCHED,
        SiteConfig {
            panic_every: 2,
            ..SiteConfig::default()
        },
    );
    let ran = Arc::new(AtomicU64::new(0));
    for _ in 0..64 {
        let r = ran.clone();
        rig.exec.spawn("chaos-strand", move |_| {
            r.fetch_add(1, Ordering::Relaxed);
        });
    }
    let outcome = rig.exec.run_until(Nanos::MAX);

    // The storm is over. Disarm and audit.
    plan.set_enabled(false);
    let report = plan.report();
    let panics = |site: &str| {
        report
            .iter()
            .find(|r| r.site == site)
            .map(|r| r.panics)
            .unwrap_or(0)
    };

    // The kernel survived: clean raises still work, strands still run.
    assert_eq!(svc.raise(7), Ok(8), "the dispatcher still dispatches");
    assert_eq!(
        ran.load(Ordering::Relaxed) + panics(SITE_SCHED),
        64,
        "every chaos strand either ran or died to an injected spawn panic"
    );
    assert_eq!(
        outcome,
        IdleOutcome::Panicked {
            strands: vec!["chaos-strand".to_string(); panics(SITE_SCHED) as usize]
        },
        "the run names each strand an injected spawn panic killed"
    );

    // Volume: a real storm, spread across the subsystems.
    let sink_panics = panics(SITE_DISPATCH)
        + panics(SITE_VM_PAGER)
        + panics(SITE_RT_HEAP)
        + panics(SITE_NET_STACK);
    assert!(
        sink_panics >= 100,
        "expected >= 100 contained handler panics, got {sink_panics} in {report:?}"
    );
    for site in [
        SITE_DISPATCH,
        SITE_SCHED,
        SITE_VM_PAGER,
        SITE_RT_HEAP,
        SITE_NET_STACK,
    ] {
        assert!(
            panics(site) >= 10,
            "site {site} injected too few panics: {report:?}"
        );
    }

    // Exact reconciliation: every panic that fired inside a dispatched
    // handler — and only those — reached the containment sink.
    assert_eq!(
        containment.faults_seen(),
        sink_panics,
        "sink deliveries must reconcile with injected handler panics"
    );

    // Attribution: the /metrics body (the Obs.Snapshot render the HTTP
    // extension serves) charges every fault to an installer domain.
    let body = snapshot
        .raise(())
        .expect("snapshot renders after the storm");
    let by_domain = faults_by_domain(&body);
    let attributed: u64 = by_domain.iter().map(|(_, v)| v).sum();
    assert_eq!(
        attributed,
        containment.faults_seen(),
        "every fault is attributed to a domain in /metrics: {by_domain:?}"
    );
    for domain in ["chaos-heap", "chaos-net", "DiskPager"] {
        assert!(
            by_domain.iter().any(|(d, v)| d == domain && *v > 0),
            "missing /metrics fault attribution for {domain}: {by_domain:?}"
        );
    }

    (report, containment.faults_seen(), by_domain, outcome)
}

#[test]
fn chaos_storm_is_contained_and_attributed() {
    storm(0xC0FFEE);
}

/// The harness promise: same seed, same workload, same wreckage — down
/// to the per-site injection counts and the per-domain attribution.
#[test]
fn chaos_storms_are_deterministic_for_a_seed() {
    assert_eq!(storm(42), storm(42));
}

/// A rebind closure swapping the service's handlers (same installer
/// identity across versions) to a new bias, returning the restore undo.
fn rebind_service(ev: &Event<u64, u64>, svc: &Identity, bias: u64) -> Vec<UndoAction> {
    let receipt = ev
        .rebind(
            svc,
            svc,
            vec![InstallSpec {
                installer: svc.clone(),
                handler: Arc::new(move |x: &u64| x + bias),
                guards: Vec::new(),
                constraints: Constraints::default(),
            }],
        )
        .expect("rebind service");
    let ev = ev.clone();
    let svc = svc.clone();
    vec![Box::new(move || {
        ev.restore(&svc, receipt).expect("restore service");
    })]
}

/// One seeded hot-swap storm: repeated upgrade attempts with panics
/// injected at the swap transfer site. Every injected panic must roll the
/// service back to the exact version that was serving, the kernel keeps
/// serving traffic throughout, and the rollbacks are domain-attributed on
/// `/metrics`. Returns `(committed, rolled_back, by_domain)` for the
/// determinism check.
fn swap_storm(seed: u64) -> (u64, u64, Vec<(String, u64)>) {
    const ATTEMPTS: u64 = 16;

    let board = SimBoard::new();
    let kernel = Kernel::boot(board.new_host(64));
    let obs = Obs::new(4_096);
    let snapshot = kernel.install_obs(&obs);
    let containment = kernel.install_fault_containment(ContainmentPolicy {
        strikes: u32::MAX,
        window: u64::MAX,
        trips_to_quarantine: u32::MAX,
    });
    containment.set_obs(&obs);

    let coord = SwapCoordinator::new(board.clock.clone());
    coord.wire_obs(&obs);
    coord.set_containment(&containment);
    let plan = FaultPlan::new(seed);
    plan.configure(
        SITE_SWAP,
        SiteConfig {
            panic_every: 2,
            ..SiteConfig::default()
        },
    );
    coord.set_fault_hook(&plan);

    let (ev, _owner) = kernel
        .dispatcher()
        .define::<u64, u64>("Svc.Call", Identity::kernel("svc"));
    let svc = Identity::extension("svc");
    let mut bias = 1u64;
    ev.install(svc.clone(), move |x: &u64| x + 1)
        .expect("install v1");

    let (mut committed, mut rolled_back) = (0u64, 0u64);
    for attempt in 0..ATTEMPTS {
        let next = bias + 1;
        match coord.swap(
            vec![Arc::new(ev.clone())],
            &svc,
            &bias,
            |old| old + 1,
            None,
            |nb| rebind_service(&ev, &svc, nb),
        ) {
            Ok(_) => {
                bias = next;
                committed += 1;
            }
            Err(SwapError::TransferPanicked { .. }) => rolled_back += 1,
            Err(e) => panic!("unexpected swap failure: {e}"),
        }
        // The kernel is serving after every attempt, on the version the
        // protocol says is live — rolled-back upgrades leave the old one.
        assert_eq!(
            ev.raise(100 * attempt),
            Ok(100 * attempt + bias),
            "service must keep serving on the committed version"
        );
    }

    plan.set_enabled(false);
    assert_eq!(committed + rolled_back, ATTEMPTS);
    assert!(committed > 0, "seed produced no committed swaps");
    assert!(rolled_back > 0, "seed produced no rollbacks");
    assert_eq!(
        plan.injected_panics(),
        rolled_back,
        "every injected transfer panic rolled one swap back"
    );
    assert_eq!(
        containment.faults_seen(),
        rolled_back,
        "every rollback was noted by the containment layer"
    );
    let stats = coord.stats();
    assert_eq!(
        (stats.attempted, stats.committed, stats.rolled_back),
        (ATTEMPTS, committed, rolled_back)
    );

    // Attribution: the rollbacks are charged to the old domain on
    // /metrics, next to the spin_swap_* gauges.
    let body = snapshot.raise(()).expect("snapshot renders");
    let by_domain = faults_by_domain(&body);
    assert!(
        by_domain
            .iter()
            .any(|(d, v)| d == "svc" && *v == rolled_back),
        "rollbacks must be domain-attributed: {by_domain:?}"
    );
    assert!(body.contains(&format!("spin_swap_rolled_back_total {rolled_back}")));
    assert!(body.contains(&format!("spin_swap_committed_total {committed}")));
    (committed, rolled_back, by_domain)
}

#[test]
fn injected_swap_panics_roll_back_with_service_intact() {
    swap_storm(0xBADC0DE);
}

#[test]
fn swap_storms_are_deterministic_for_a_seed() {
    assert_eq!(swap_storm(99), swap_storm(99));
}

/// The fault-driven auto-swap loop (`Core.DomainFault` →
/// [`SwapSupervisor`]): a quarantined domain's registered fallback swap
/// runs at the next supervisor pump and restores service.
#[test]
fn domain_fault_triggers_fallback_swap_on_pump() {
    let board = SimBoard::new();
    let kernel = Kernel::boot(board.new_host(64));
    let containment = kernel.install_fault_containment(ContainmentPolicy {
        strikes: 1,
        window: u64::MAX,
        trips_to_quarantine: 1,
    });
    let sup = SwapSupervisor::install(&containment).expect("install supervisor");
    let coord = SwapCoordinator::new(board.clock.clone());

    let (svc, owner) = kernel
        .dispatcher()
        .define::<u64, u64>("Svc.Flaky", Identity::kernel("svc"));
    owner.set_primary(|_| 0).expect("fresh event");
    let flaky = Identity::extension("flaky-ext");
    svc.install(flaky.clone(), |_| panic!("flaky boom"))
        .expect("install flaky");

    // Register the fallback: swap the (already-quarantined) flaky version
    // out for a known-good one under the same identity.
    let ev2 = svc.clone();
    let flaky2 = flaky.clone();
    let coord2 = coord.clone();
    sup.register_fallback("flaky-ext", move || {
        coord2
            .swap(
                vec![Arc::new(ev2.clone())],
                &flaky2,
                &(),
                |_| 7u64,
                None,
                |bias| rebind_service(&ev2, &flaky2, bias),
            )
            .expect("fallback swap commits");
    });

    // One faulting raise: strike → trip → quarantine → Core.DomainFault.
    // The handler is gone, the primary's result stands, and the fallback
    // has NOT run yet (it must not run inside the faulting raise).
    assert_eq!(svc.raise(1), Ok(0));
    assert!(containment.is_quarantined("flaky-ext"));
    assert_eq!(sup.pending(), vec!["flaky-ext"]);
    assert_eq!(svc.raise(1), Ok(0), "no fallback inside the raise");

    // The pump runs the fallback swap; the service serves v-fallback.
    assert_eq!(sup.pump(), 1);
    assert_eq!(svc.raise(1), Ok(8), "fallback version serving");
    assert_eq!(coord.stats().committed, 1);
    assert!(sup.pending().is_empty());
}

/// One seeded quota storm: the `core.quota` site injects spurious
/// throttles (`Fail`), delayed budget releases (`Delay` — the window
/// keeps the charge longer) and admission-edge panics (contained on the
/// spot and counted as throttles) into a metered domain's raises, on top
/// of the organic window-budget throttling the raise volume earns by
/// itself. The kernel survives — every refusal is a typed error, never
/// an unwind — the ledger reconciles exactly, and every shed/throttle is
/// domain-attributed on `/metrics` through the `spin_quota_*` gauges.
/// Returns the wreckage for the determinism check.
fn quota_storm(seed: u64) -> (Vec<SiteReport>, QuotaSnapshot, Vec<String>) {
    const RAISES: u64 = 600;

    let board = SimBoard::new();
    let kernel = Kernel::boot(board.new_host(64));
    let obs = Obs::new(16_384);
    let snapshot = kernel.install_obs(&obs);

    let ledger = QuotaLedger::new();
    ledger.wire_obs(&obs);
    let plan = FaultPlan::new(seed);
    plan.configure(
        SITE_QUOTA,
        SiteConfig {
            fail_every: 7,
            delay_every: 5,
            delay_ns: 40_000,
            panic_every: 11,
        },
    );
    ledger.set_fault_hook(plan.hook(SITE_QUOTA));

    let cell = ledger.register(
        "greedy",
        QuotaSpec {
            window: 1_000_000,
            window_vt_budget: 200_000,
            shed_after_trips: 8,
            ..QuotaSpec::default()
        },
    );
    let (ev, owner) = kernel
        .dispatcher()
        .define::<u64, u64>("Quota.Svc", Identity::kernel("quota"));
    let clock = board.clock.clone();
    owner
        .set_primary(move |x| {
            clock.charge(Cost::Work, 3_000);
            *x
        })
        .expect("fresh event");
    assert_eq!(ev.bind_quota(cell.clone()), Ok(true));

    let (mut ok, mut throttled, mut shed) = (0u64, 0u64, 0u64);
    for i in 0..RAISES {
        match ev.raise(i) {
            Ok(v) => {
                assert_eq!(v, i);
                ok += 1;
            }
            Err(DispatchError::Throttled { domain, .. }) => {
                assert_eq!(domain, "greedy", "throttles are domain-attributed");
                throttled += 1;
            }
            Err(DispatchError::Shed { domain, .. }) => {
                assert_eq!(domain, "greedy", "sheds are domain-attributed");
                shed += 1;
            }
            Err(e) => panic!("a quota refusal must be typed, got: {e}"),
        }
        // Idle time between raises lets windows roll and shedding decay.
        board.clock.charge(Cost::Work, 2_000);
    }
    plan.set_enabled(false);
    let report = plan.report();
    let site = report
        .iter()
        .find(|r| r.site == SITE_QUOTA)
        .expect("the quota site drew");

    // Volume: a real storm — injected and organic refusals both fired.
    assert!(site.fails > 0 && site.panics > 0 && site.delays > 0);
    assert!(throttled > 0, "no throttles in {RAISES} raises");
    assert!(shed > 0, "the ladder never escalated to shedding");
    assert!(ok > 0, "the domain was starved outright");
    assert!(
        throttled + shed >= site.fails + site.panics,
        "every injected fail/panic forces a refusal"
    );

    // Exact reconciliation: nothing lost, double-counted, or unattributed.
    let s = cell.snapshot();
    assert_eq!(s.attempts, RAISES);
    assert_eq!((s.admitted, s.throttled, s.shed), (ok, throttled, shed));
    assert_eq!(s.completed, ok, "every admitted raise completed");
    assert_eq!(s.in_flight, 0);
    assert_eq!(s.attempts, s.admitted + s.throttled + s.shed + s.held);

    // The kernel survived: lift the quarantine-free ladder state and the
    // event serves again, unmetered by leftover window charge.
    cell.release(board.clock.now());
    assert_eq!(ev.raise(7), Ok(7), "the dispatcher still dispatches");

    // Attribution on /metrics: the spin_quota_* gauges carry the ledger,
    // per domain.
    let body = snapshot.raise(()).expect("snapshot renders");
    for (gauge, value) in [
        ("spin_quota_throttle_trips", s.trips),
        ("spin_quota_shed", s.shed),
        ("spin_quota_breaches", s.breaches),
    ] {
        let line = format!("{gauge}{{domain=\"greedy\"}} {value}");
        assert!(body.contains(&line), "missing `{line}` in:\n{body}");
    }
    let quota_lines: Vec<String> = body
        .lines()
        .filter(|l| l.starts_with("spin_quota_"))
        .map(str::to_string)
        .collect();
    (report, cell.snapshot(), quota_lines)
}

#[test]
fn quota_storm_is_contained_and_attributed() {
    quota_storm(0x0BE5E);
}

#[test]
fn quota_storms_are_deterministic_for_a_seed() {
    assert_eq!(quota_storm(1234), quota_storm(1234));
}

/// An injected `Delay` holds the window's charge longer, also when the
/// admission that draws it opens a new window: the delay is charged to
/// the window it lands in, not to the one the roll discards.
#[test]
fn a_quota_delay_drawn_at_a_window_roll_is_charged_to_the_new_window() {
    const WINDOW: u64 = 1_000_000;
    let ledger = QuotaLedger::new();
    let plan = FaultPlan::new(1);
    ledger.set_fault_hook(plan.hook(SITE_QUOTA));
    let cell = ledger.register(
        "late",
        QuotaSpec {
            window: WINDOW,
            window_vt_budget: 100_000,
            ..QuotaSpec::default()
        },
    );
    assert_eq!(cell.admit(0), Ok(()), "the first window is empty");

    // The next admission opens the second window and draws a 200 µs delay,
    // twice the window's budget.
    plan.configure(
        SITE_QUOTA,
        SiteConfig {
            delay_every: 1,
            delay_ns: 200_000,
            ..SiteConfig::default()
        },
    );
    assert_eq!(cell.admit(WINDOW + 1), Err(QuotaVerdict::Throttled));
    plan.configure(SITE_QUOTA, SiteConfig::default());
    assert_eq!(
        cell.admit(WINDOW + 1),
        Err(QuotaVerdict::Throttled),
        "the delay still holds the second window"
    );
    let site = plan.report().into_iter().find(|r| r.site == SITE_QUOTA);
    assert_eq!(site.map(|r| r.delays), Some(1));
}

/// The breaker under injected fire: with `strikes = 2` and
/// `trips_to_quarantine = 3`, a domain whose handler panics on every
/// invocation is uninstalled every second fault and quarantined on
/// exactly the third trip — no earlier, no later — losing its handlers
/// and its nameserver exports.
#[test]
fn quarantine_trips_exactly_per_configured_budget() {
    let board = SimBoard::new();
    let kernel = Kernel::boot(board.new_host(64));
    let c = kernel.install_fault_containment(ContainmentPolicy {
        strikes: 2,
        window: u64::MAX,
        trips_to_quarantine: 3,
    });

    // The flaky domain exports an interface, so quarantine has something
    // to revoke.
    let flaky = Identity::extension("flaky-ext");
    kernel
        .nameserver()
        .register(
            "FlakyService",
            Domain::create_from_module("flaky-ext", vec![]),
            flaky.clone(),
        )
        .expect("register export");

    let plan = FaultPlan::new(7);
    plan.configure("chaos.flaky", SiteConfig::panic_always());
    let hook = plan.hook("chaos.flaky");

    let (tick, owner) = kernel
        .dispatcher()
        .define::<(), u32>("Chaos.Tick", Identity::kernel("chaos"));
    owner.set_primary(|_| 0).expect("fresh event");

    let trips_seen: Arc<Mutex<Vec<(u32, bool)>>> = Arc::new(Mutex::new(Vec::new()));
    let t2 = trips_seen.clone();
    c.domain_fault_event()
        .install(
            Identity::extension("supervisor"),
            move |info: &DomainFaultInfo| {
                assert_eq!(info.domain, "flaky-ext");
                t2.lock().push((info.trips, info.quarantined));
            },
        )
        .expect("supervise");

    for trip in 1..=3u32 {
        let h = hook.clone();
        tick.install(flaky.clone(), move |_| {
            if let Some(Injection::Panic) = h.draw() {
                h.fire_panic()
            }
            1
        })
        .expect("reinstall the flaky handler");
        assert_eq!(kernel.dispatcher().handler_count(&tick).unwrap(), 2);
        // Strike one: contained, the primary's result stands, no trip.
        assert_eq!(tick.raise(()), Ok(0));
        assert_eq!(c.trips("flaky-ext"), trip - 1, "one strike is not a trip");
        // Strike two: the breaker trips and the handler is gone.
        assert_eq!(tick.raise(()), Ok(0));
        assert_eq!(c.trips("flaky-ext"), trip);
        assert_eq!(
            kernel.dispatcher().handler_count(&tick).unwrap(),
            1,
            "the tripped handler is uninstalled"
        );
        assert_eq!(
            c.is_quarantined("flaky-ext"),
            trip == 3,
            "quarantine on exactly the configured trip count"
        );
    }

    assert_eq!(
        trips_seen.lock().as_slice(),
        &[(1, false), (2, false), (3, true)],
        "Core.DomainFault reported every trip, flagging only the quarantine"
    );
    assert_eq!(c.faults_seen(), 6);
    assert_eq!(
        plan.injected_panics(),
        6,
        "two strikes per trip, three trips"
    );
    assert!(
        !kernel
            .nameserver()
            .names()
            .contains(&"FlakyService".to_string()),
        "quarantine revoked the domain's exports"
    );

    // The domain is gone from the dispatcher: further raises run clean.
    assert_eq!(tick.raise(()), Ok(0));
    assert_eq!(c.faults_seen(), 6, "no handlers left to fault");
}
