//! §S9: overload containment — per-domain quotas under a 12-shard storm.
//!
//! Shard 0 hosts the server dispatcher; eleven client shards raise
//! against it over the cross-call mailboxes. Nine are well-behaved
//! tenants with heavy-tailed inter-arrival gaps; one is a *greedy*
//! domain flooding raises whose handler burns 25 µs each; one is a
//! *slowloris* domain whose handler holds the dispatcher for 900 µs —
//! just under the dispatcher's 1 ms time-bound convention, so abort
//! machinery never saves the kernel. Three scenarios run, each swept at
//! 1/2/4 workers:
//!
//! * **calm** — tenants only: the baseline p99 virtual latency.
//! * **storm, unarmed** — all twelve domains, no quotas bound: the
//!   greedy and slowloris load is admitted wholesale and the
//!   well-behaved tenants' tail latency collapses.
//! * **storm, armed** — every domain metered by a [`QuotaCell`]: the
//!   greedy domain trips its window budget, escalates throttle → shed →
//!   quarantine (raising `Core.DomainFault` through the PR-3
//!   containment ladder), and at `T_PUMP` the PR-7 [`SwapSupervisor`]
//!   fallback-swaps it to a degraded-mode build and lifts the
//!   quarantine; the slowloris domain is throttled to its window budget
//!   but never escalates; a greedy strand on the server shard is
//!   demoted to the deferred executor lane; greedy bulk-mail posts meet
//!   the lane-occupancy gate and sender-side capped-doubling
//!   backpressure.
//!
//! Asserted, all exit-nonzero on failure:
//!
//! 1. **Graceful shedding**: armed, the tenants' p99 stays within a
//!    fixed bound of the calm baseline while every tenant raise is
//!    served (zero throttles on well-behaved domains); unarmed, the
//!    same storm multiplies the tenant p99 many-fold.
//! 2. **Exact reconciliation**: every cell's ledger closes the books —
//!    `attempts == admitted + throttled + shed + held` and
//!    `admitted == completed`, with zero still in flight — and no
//!    cross-shard mail is ever dropped: the backpressure probe refuses
//!    over-budget posts at the sender, which pays and counts them.
//! 3. **Worker invariance**: every virtual output — latency digests,
//!    quota snapshots, escalation and swap counters — is byte-identical
//!    at 1, 2 and 4 shard workers; only the wall clock may move.
//!
//! The emitted `BENCH_overload.json` contains only virtual-time numbers
//! and is golden-diffed byte-for-byte by `scripts/verify.sh`.

use parking_lot::Mutex;
use spin_bench::storm::{digest, mix, run_to_completion, sweep_workers, LatencyDigest};
use spin_bench::{render_table, us, JsonReport, Row};
use spin_core::{
    post_with_backpressure, BackoffPolicy, Constraints, Containment, ContainmentPolicy, Identity,
    InstallSpec, PostOutcome, QuotaLedger, QuotaSnapshot, QuotaSpec,
};
use spin_net::ShardRig;
use spin_sal::Nanos;
use spin_sched::MulticoreStats;
use spin_swap::{SwapCoordinator, SwapSupervisor, UndoAction};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Well-behaved tenant shards (1..=TENANTS on the board).
const TENANTS: usize = 9;
const TENANT_REQS: u64 = 200;
/// Tenant handler cost per raise.
const TENANT_WORK: Nanos = 8_000;

/// The greedy flood: ~48 raises/ms against a 40-admissions-per-window
/// budget, sustained well past the supervisor pump.
const GREEDY_REQS: u64 = 2_500;
const GREEDY_GAP: Nanos = 20_000;
const GREEDY_WORK: Nanos = 25_000;
/// The degraded-mode build the fallback swap installs: cheap enough
/// (~484 arrivals/window x ~1.3 us incl. dispatch overhead = ~0.63 ms)
/// to bring the domain back under its own 1 ms window budget for good.
const DEGRADED_WORK: Nanos = 1_000;

/// The slowloris: each admitted raise holds the server for 900 µs.
const SLOW_REQS: u64 = 150;
const SLOW_GAP: Nanos = 250_000;
const SLOW_WORK: Nanos = 900_000;

/// Quota windows are 10 ms of server virtual time.
const WINDOW: Nanos = 10_000_000;
/// Greedy: 10 % of a window, then 40 trips to shedding, 150 sheds to
/// quarantine — crossed within the first few storm windows, well before
/// the supervisor pump.
const GREEDY_BUDGET: Nanos = 1_000_000;
const GREEDY_SHED_AFTER: u32 = 40;
const GREEDY_QUARANTINE_AFTER: u32 = 150;
/// Slowloris: two admissions per window (3rd probe finds vt ≥ budget);
/// never escalates past throttling (`shed_after_trips == 0`).
const SLOW_BUDGET: Nanos = 1_500_000;
/// Tenants: generous — they never come near it.
const TENANT_BUDGET: Nanos = 8_000_000;

/// Supervisor pump instant: after the greedy quarantine (first window),
/// while the flood still has ~20 ms to run against the degraded build.
const T_PUMP: Nanos = 30_000_000;

/// Server-shard strands exercising the deferred-lane demotion: equal
/// base priority, equal work, woken mid-storm (once the greedy domain
/// is over budget); armed, the greedy one re-enqueues at the deferred
/// priority whenever its domain is over budget.
const STRAND_START: Nanos = 5_000_000;
const STRAND_CHUNKS: u64 = 120;
const STRAND_CHUNK: Nanos = 20_000;

/// Greedy bulk-mail burst against the lane-occupancy gate.
const BULK_POSTS: u32 = 12;
const BULK_LANE: u64 = 0x9_0000;
const BULK_GAP: Nanos = 10_000;

/// Graceful-shedding bar: armed tenant p99 within 4 ms of calm (the
/// admitted greedy + slowloris window budgets are ~2.8 ms per window).
const P99_SLACK: Nanos = 4_000_000;
/// Damage bar: the unarmed storm at least quadruples the tenant p99.
const UNARMED_BLOWUP: u64 = 4;

/// Heavy-tailed tenant inter-arrival gap: mostly 100–184 µs, every 16th
/// a 1.2 ms pause.
fn tenant_gap(tenant: usize, req: u64) -> Nanos {
    let x = mix((tenant as u64) * 1_000_003 + req);
    if x.is_multiple_of(16) {
        1_200_000
    } else {
        100_000 + (x % 8) * 12_000
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Scenario {
    Calm,
    StormUnarmed,
    StormArmed,
}

/// Everything a scenario must reproduce exactly at any worker count.
#[derive(Debug, PartialEq, Eq)]
struct VirtualOutputs {
    tenant: LatencyDigest,
    slow_served: u64,
    greedy_heavy: u64,
    greedy_degraded: u64,
    bulk_posted: u64,
    bulk_shed: u64,
    bulk_delivered: u64,
    demoted: u64,
    cruncher_done: Nanos,
    sweeper_done: Nanos,
    pumped: u64,
    quarantined_at_pump: bool,
    swaps_committed: u64,
    snapshots: Vec<(String, QuotaSnapshot)>,
    clocks: Vec<Nanos>,
    barrier: MulticoreStats,
}

fn run(workers: usize, scenario: Scenario) -> (VirtualOutputs, f64) {
    let armed = scenario == Scenario::StormArmed;
    let storm = scenario != Scenario::Calm;

    // Shard 0: the server. Shards 1..=9: tenants. 10: greedy. 11: slow.
    // The storm is raises over the cross-call mailboxes; the rig's
    // network stacks stay idle.
    let rig = ShardRig::new(workers, (TENANTS + 3) as u8);
    let (mc, shards) = (&rig.mc, &rig.shards);
    let (host0, exec0, d0) = (&shards[0].host, &shards[0].exec, &shards[0].dispatcher);
    let clock0 = host0.clock.clone();

    // The server's per-domain events, each a nameable service on D0.
    let svc = Identity::kernel("svc");
    let tenant_latencies = Arc::new(Mutex::new(Vec::<Nanos>::new()));
    let mut tenant_events = Vec::new();
    for t in 0..TENANTS {
        let (ev, owner) = d0.define::<u64, ()>(&format!("Work.Tenant{t}"), svc.clone());
        let (lat, clk) = (tenant_latencies.clone(), clock0.clone());
        owner
            .set_primary(move |sent| {
                lat.lock().push(clk.now() - sent);
                clk.advance(TENANT_WORK);
            })
            .expect("fresh tenant event");
        tenant_events.push(ev);
    }

    let slow_served = Arc::new(AtomicU64::new(0));
    let (ev_slow, slow_owner) = d0.define::<u64, ()>("Work.Slow", svc.clone());
    {
        let (served, clk) = (slow_served.clone(), clock0.clone());
        slow_owner
            .set_primary(move |_sent| {
                served.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
                clk.advance(SLOW_WORK);
            })
            .expect("fresh slow event");
    }

    // Greedy: a no-op kernel primary (so the event survives quarantine)
    // plus the heavy handler installed under the greedy *extension*
    // identity — the thing quarantine purges and the fallback replaces.
    let greedy_ident = Identity::extension("greedy");
    let greedy_heavy = Arc::new(AtomicU64::new(0));
    let (ev_greedy, greedy_owner) = d0.define::<u64, ()>("Work.Greedy", svc.clone());
    greedy_owner
        .set_primary(|_| ())
        .expect("fresh greedy event");
    {
        let (served, clk) = (greedy_heavy.clone(), clock0.clone());
        ev_greedy
            .install(greedy_ident.clone(), move |_sent: &u64| {
                served.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
                clk.advance(GREEDY_WORK);
            })
            .expect("install greedy v1");
    }

    // The quota ledger, escalation ladder and fallback swap — armed only.
    let ledger = QuotaLedger::new();
    let mut cells = Vec::new();
    let demoted = Arc::new(AtomicU64::new(0));
    let pumped = Arc::new(AtomicU64::new(0));
    let quarantined_at_pump = Arc::new(AtomicBool::new(false));
    let coord = SwapCoordinator::new(clock0.clone());
    let greedy_degraded = Arc::new(AtomicU64::new(0));
    if armed {
        for (t, ev) in tenant_events.iter().enumerate() {
            let cell = ledger.register(
                &format!("tenant-{t}"),
                QuotaSpec {
                    window: WINDOW,
                    window_vt_budget: TENANT_BUDGET,
                    shed_after_trips: 4,
                    ..QuotaSpec::default()
                },
            );
            ev.bind_quota(cell.clone()).expect("bind tenant quota");
            cells.push(cell);
        }
        let cell_slow = ledger.register(
            "slow",
            QuotaSpec {
                window: WINDOW,
                window_vt_budget: SLOW_BUDGET,
                ..QuotaSpec::default()
            },
        );
        ev_slow
            .bind_quota(cell_slow.clone())
            .expect("bind slow quota");
        cells.push(cell_slow);
        let cell_greedy = ledger.register(
            "greedy",
            QuotaSpec {
                window: WINDOW,
                window_vt_budget: GREEDY_BUDGET,
                shed_after_trips: GREEDY_SHED_AFTER,
                quarantine_after_sheds: GREEDY_QUARANTINE_AFTER,
                max_lane_occupancy: 8,
                deferred_priority: 1,
                ..QuotaSpec::default()
            },
        );
        ev_greedy
            .bind_quota(cell_greedy.clone())
            .expect("bind greedy quota");
        cells.push(cell_greedy.clone());

        // Escalations feed the containment breaker; `Core.DomainFault`
        // wakes the supervisor, whose pump runs the fallback swap.
        let containment = Containment::install(d0, None, ContainmentPolicy::default());
        ledger.wire_containment(&containment);
        let sup = SwapSupervisor::install(&containment).expect("install supervisor");
        {
            // Idempotent fallback: the greedy domain breaches twice
            // (shedding, then quarantine), so the pump sees it twice.
            let (ev, ident, coord) = (ev_greedy.clone(), greedy_ident.clone(), coord.clone());
            let (served, clk) = (greedy_degraded.clone(), clock0.clone());
            let mut swapped = false;
            sup.register_fallback("greedy", move || {
                if swapped {
                    return;
                }
                swapped = true;
                let (ev2, ident2) = (ev.clone(), ident.clone());
                let (served2, clk2) = (served.clone(), clk.clone());
                coord
                    .swap(
                        "greedy",
                        vec![Arc::new(ev.clone())],
                        &ident,
                        &(),
                        |_| (),
                        None,
                        move |_| {
                            let receipt = ev2
                                .rebind(
                                    &ident2,
                                    &ident2,
                                    vec![InstallSpec {
                                        installer: ident2.clone(),
                                        handler: Arc::new(move |_sent: &u64| {
                                            served2.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
                                            clk2.advance(DEGRADED_WORK);
                                        }),
                                        guards: Vec::new(),
                                        constraints: Constraints::default(),
                                    }],
                                )
                                .expect("rebind greedy to degraded build");
                            let ev3 = ev2.clone();
                            let ident3 = ident2.clone();
                            vec![Box::new(move || {
                                ev3.restore(&ident3, receipt).expect("restore greedy v1");
                            }) as UndoAction]
                        },
                    )
                    .expect("fallback swap commits");
            });
        }

        // Deferred-lane demotion on the server executor: greedy-named
        // strands re-enqueue at the deferred priority while over budget.
        {
            let (cell, demoted) = (cell_greedy.clone(), demoted.clone());
            exec0.set_quota_hook(Arc::new(move |name, base, now| {
                if name.starts_with("greedy") && cell.deferred(now) {
                    demoted.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
                    cell.spec().deferred_priority
                } else {
                    base
                }
            }));
        }

        // The supervisor pump, on the server shard's own thread at an
        // exact virtual instant — totally ordered with the storm.
        {
            let (sup, cell, clk) = (sup.clone(), cell_greedy.clone(), clock0.clone());
            let (pumped, quarantined) = (pumped.clone(), quarantined_at_pump.clone());
            let containment = containment.clone();
            assert!(
                mc.post_control(host0.id, T_PUMP, move |_now| {
                    quarantined.store(containment.is_quarantined("greedy"), Ordering::Relaxed); // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
                    pumped.store(sup.pump() as u64, Ordering::Relaxed); // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
                    cell.release(clk.now());
                }),
                "post supervisor pump"
            );
        }

        // The lane-occupancy gate on the server mailbox (bulk lane only;
        // cross-call and control lanes stay unmetered).
        ledger.install_mailbox_gate(&host0.mailbox, vec![(BULK_LANE, cell_greedy)]);
    }

    // Server-shard strands: equal priority, equal work. Armed, the
    // greedy one is demoted behind the sweeper for the storm's duration.
    let cruncher_done = Arc::new(AtomicU64::new(0));
    let sweeper_done = Arc::new(AtomicU64::new(0));
    for (name, done) in [
        ("greedy-cruncher", cruncher_done.clone()),
        ("svc-sweeper", sweeper_done.clone()),
    ] {
        let clk = clock0.clone();
        exec0.spawn(name, move |ctx| {
            ctx.sleep(STRAND_START);
            for _ in 0..STRAND_CHUNKS {
                ctx.work(STRAND_CHUNK);
                // A preemption safe point: quantum expiry re-enqueues
                // the strand through the executor's quota hook.
                ctx.preempt_point();
            }
            done.store(clk.now(), Ordering::Relaxed); // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
        });
    }

    // Tenant senders: heavy-tailed storms of timestamped raises.
    for t in 0..TENANTS {
        let tenant = &shards[t + 1];
        let (host, disp) = (tenant.host.clone(), tenant.dispatcher.clone());
        let (ev, h0) = (tenant_events[t].clone(), host0.id);
        tenant.exec.spawn(&format!("tenant-{t}"), move |ctx| {
            for i in 0..TENANT_REQS {
                let sent = host.clock.now();
                disp.raise_on(h0, &ev, sent).expect("routed");
                ctx.work(tenant_gap(t, i));
            }
        });
    }

    let bulk_posted = Arc::new(AtomicU64::new(0));
    let bulk_shed = Arc::new(AtomicU64::new(0));
    let bulk_delivered = Arc::new(AtomicU64::new(0));
    if storm {
        // The greedy flood (and, armed, the bulk-mail burst against the
        // lane gate first — sender-side backpressure in action).
        let greedy = &shards[TENANTS + 1];
        let (host_g, disp_g) = (greedy.host.clone(), greedy.dispatcher.clone());
        let (ev, h0) = (ev_greedy.clone(), host0.id);
        let gate = armed.then(|| {
            (
                ledger.get("greedy").expect("greedy cell registered"),
                host0.mailbox.clone(),
            )
        });
        let (posted, shed, delivered) = (
            bulk_posted.clone(),
            bulk_shed.clone(),
            bulk_delivered.clone(),
        );
        greedy.exec.spawn("greedy-flood", move |ctx| {
            if let Some((cell, mailbox)) = gate {
                for _ in 0..BULK_POSTS {
                    let d2 = delivered.clone();
                    let out = post_with_backpressure(
                        &cell,
                        &host_g.clock,
                        &mailbox,
                        BULK_GAP,
                        BULK_LANE,
                        BackoffPolicy::default(),
                        move |_now| {
                            d2.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
                        },
                    );
                    match out {
                        PostOutcome::Posted { .. } => posted.fetch_add(1, Ordering::Relaxed), // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
                        PostOutcome::Shed { .. } => shed.fetch_add(1, Ordering::Relaxed), // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
                    };
                }
            }
            for _ in 0..GREEDY_REQS {
                let sent = host_g.clock.now();
                disp_g.raise_on(h0, &ev, sent).expect("routed");
                ctx.work(GREEDY_GAP);
            }
        });

        // The slowloris.
        let slow = &shards[TENANTS + 2];
        let (host_s, disp_s) = (slow.host.clone(), slow.dispatcher.clone());
        let (ev, h0) = (ev_slow.clone(), host0.id);
        slow.exec.spawn("slowloris", move |ctx| {
            for _ in 0..SLOW_REQS {
                let sent = host_s.clock.now();
                disp_s.raise_on(h0, &ev, sent).expect("routed");
                ctx.work(SLOW_GAP);
            }
        });
    }

    let wall_ms = run_to_completion(mc);

    // Exact reconciliation: every metered domain's books close.
    let snapshots: Vec<(String, QuotaSnapshot)> = cells
        .iter()
        .map(|c| (c.name().to_string(), c.snapshot()))
        .collect();
    for (name, s) in &snapshots {
        assert_eq!(
            s.attempts,
            s.admitted + s.throttled + s.shed + s.held,
            "{name}: the ledger identity must close"
        );
        assert_eq!(s.in_flight, 0, "{name}: nothing left in flight at exit");
        assert_eq!(s.admitted, s.completed, "{name}: every admission completed");
    }

    let tenant = digest(&tenant_latencies.lock());
    let virt = VirtualOutputs {
        tenant,
        slow_served: slow_served.load(Ordering::Relaxed), // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
        greedy_heavy: greedy_heavy.load(Ordering::Relaxed), // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
        greedy_degraded: greedy_degraded.load(Ordering::Relaxed), // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
        bulk_posted: bulk_posted.load(Ordering::Relaxed), // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
        bulk_shed: bulk_shed.load(Ordering::Relaxed), // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
        bulk_delivered: bulk_delivered.load(Ordering::Relaxed), // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
        demoted: demoted.load(Ordering::Relaxed), // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
        cruncher_done: cruncher_done.load(Ordering::Relaxed), // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
        sweeper_done: sweeper_done.load(Ordering::Relaxed), // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
        pumped: pumped.load(Ordering::Relaxed), // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
        quarantined_at_pump: quarantined_at_pump.load(Ordering::Relaxed), // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
        swaps_committed: coord.stats().committed,
        snapshots,
        clocks: rig.clocks(),
        barrier: mc.stats(),
    };
    (virt, wall_ms)
}

fn main() {
    // Each scenario sweeps 1/2/4 workers and must be byte-identical.
    let calm = sweep_workers(|w| run(w, Scenario::Calm));
    let unarmed = sweep_workers(|w| run(w, Scenario::StormUnarmed));
    let armed = sweep_workers(|w| run(w, Scenario::StormArmed));

    // Every tenant raise served in every scenario — no collateral drops.
    let all_tenant = TENANTS as u64 * TENANT_REQS;
    for v in [&calm.virt, &unarmed.virt, &armed.virt] {
        assert_eq!(v.tenant.count, all_tenant, "every tenant raise served");
    }

    // Graceful shedding: armed p99 within the fixed bound of calm;
    // unarmed, the same storm blows the tail up many-fold.
    assert!(
        armed.virt.tenant.p99 <= calm.virt.tenant.p99 + P99_SLACK,
        "armed tenant p99 {} exceeds calm {} + {}",
        armed.virt.tenant.p99,
        calm.virt.tenant.p99,
        P99_SLACK
    );
    assert!(
        unarmed.virt.tenant.p99 >= armed.virt.tenant.p99 * UNARMED_BLOWUP,
        "unarmed p99 {} vs armed {} — the storm should hurt without quotas",
        unarmed.virt.tenant.p99,
        armed.virt.tenant.p99
    );

    // The armed ledger: tenants untouched, slowloris throttled but never
    // escalated, greedy quarantined then revived in degraded mode.
    let snap = |name: &str| -> QuotaSnapshot {
        armed
            .virt
            .snapshots
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} metered"))
            .1
    };
    for t in 0..TENANTS {
        let s = snap(&format!("tenant-{t}"));
        assert_eq!(s.attempts, TENANT_REQS);
        assert_eq!(
            (s.throttled, s.shed, s.breaches),
            (0, 0, 0),
            "well-behaved tenant-{t} must never be refused"
        );
    }
    let s = snap("slow");
    assert_eq!(s.attempts, SLOW_REQS);
    assert!(s.throttled > 0, "slowloris throttled to its window budget");
    assert_eq!((s.shed, s.breaches), (0, 0), "slowloris never escalates");
    assert_eq!(s.admitted, armed.virt.slow_served);
    let g = snap("greedy");
    assert_eq!(g.attempts, GREEDY_REQS);
    assert!(
        g.throttled > 0 && g.shed > 0,
        "greedy walked the full ladder"
    );
    // At least one shedding entry and the quarantine entry; the server
    // clock races ahead under load, so a window may roll (decaying
    // shedding) before 150 sheds accumulate, adding re-entries.
    assert!(g.breaches >= 2, "shedding entry + quarantine entry");
    assert!(
        armed.virt.quarantined_at_pump,
        "quarantined before the pump"
    );
    assert_eq!(
        armed.virt.pumped, g.breaches,
        "every breach reached the supervisor before the pump"
    );
    assert_eq!(
        armed.virt.swaps_committed, 1,
        "one idempotent fallback swap"
    );
    assert!(
        armed.virt.greedy_degraded > 0,
        "the degraded build served after the release"
    );
    assert_eq!(
        g.admitted,
        armed.virt.greedy_heavy + armed.virt.greedy_degraded,
        "every admitted greedy raise ran v1 or the degraded build"
    );

    // Unarmed: everything admitted, nothing refused, v1 serves it all.
    assert_eq!(unarmed.virt.greedy_heavy, GREEDY_REQS);
    assert_eq!(unarmed.virt.slow_served, SLOW_REQS);
    assert_eq!(unarmed.virt.barrier.mail_dropped, 0);
    assert_eq!(calm.virt.barrier.mail_dropped, 0);

    // Backpressure: the burst saturates the 8-deep lane and the sender's
    // occupancy probe refuses *before* the mailbox — every refusal is a
    // counted backoff retry, every shed is the sender's own decision,
    // and no envelope is ever dropped in flight.
    assert_eq!(
        armed.virt.bulk_posted + armed.virt.bulk_shed,
        BULK_POSTS as u64
    );
    assert!(
        armed.virt.bulk_shed > 0,
        "the lane budget refused the excess"
    );
    assert_eq!(armed.virt.bulk_delivered, armed.virt.bulk_posted);
    assert!(g.mail_refused > 0, "refusals charged the sender's backoff");
    assert_eq!(g.mail_shed, armed.virt.bulk_shed);
    assert_eq!(
        armed.virt.barrier.mail_dropped, 0,
        "nothing vanished in flight"
    );

    // Deferred-lane demotion: armed, the greedy strand re-enqueued at
    // the deferred priority and finished strictly after the sweeper.
    assert!(armed.virt.demoted > 0, "the executor hook demoted greedy");
    assert!(
        armed.virt.sweeper_done < armed.virt.cruncher_done,
        "the demoted greedy strand must finish behind the sweeper"
    );
    assert_eq!(unarmed.virt.demoted, 0);

    let rows = vec![
        Row::extra("tenant raises per scenario", all_tenant as f64),
        Row::extra("tenant p99, calm (µs)", us(calm.virt.tenant.p99)),
        Row::extra(
            "tenant p99, storm unarmed (µs)",
            us(unarmed.virt.tenant.p99),
        ),
        Row::extra("tenant p99, storm armed (µs)", us(armed.virt.tenant.p99)),
        Row::extra("greedy admitted (of 2500)", snap("greedy").admitted as f64),
        Row::extra("greedy throttled", snap("greedy").throttled as f64),
        Row::extra("greedy shed", snap("greedy").shed as f64),
        Row::extra("greedy served degraded", armed.virt.greedy_degraded as f64),
        Row::extra("slowloris admitted (of 150)", snap("slow").admitted as f64),
        Row::extra("slowloris throttled", snap("slow").throttled as f64),
        Row::extra(
            "bulk posts shed by backpressure",
            armed.virt.bulk_shed as f64,
        ),
        Row::extra("greedy strand demotions", armed.virt.demoted as f64),
    ];
    print!(
        "{}",
        render_table(
            "S9: overload containment under a 12-shard storm",
            "µs",
            &rows
        )
    );
    println!(
        "\nLedger reconciles exactly in every scenario; outputs byte-identical \
         at 1/2/4 workers."
    );
    for (label, sweep) in [
        ("calm", &calm),
        ("storm unarmed", &unarmed),
        ("storm armed", &armed),
    ] {
        println!("wall-clock ({label}): {}", sweep.walls());
    }

    JsonReport::new(
        "overload",
        "S9: overload containment under a 12-shard storm",
        "µs",
    )
    .rows(&rows)
    .number("tenants", TENANTS as f64)
    .number("greedy_reqs", GREEDY_REQS as f64)
    .number("slow_reqs", SLOW_REQS as f64)
    .number("tenant_p50_calm_us", us(calm.virt.tenant.p50))
    .number("tenant_p50_armed_us", us(armed.virt.tenant.p50))
    .number("greedy_breaches", snap("greedy").breaches as f64)
    .number("swaps_committed", armed.virt.swaps_committed as f64)
    .number("pump_at_us", us(T_PUMP))
    .number("p99_slack_us", us(P99_SLACK))
    .text("workers_checked", "1/2/4 byte-identical")
    .text(
        "reconciliation",
        "attempts == admitted + throttled + shed + held; admitted == completed",
    )
    .write_if_requested();
}
