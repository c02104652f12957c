//! End-to-end test of the in-kernel `/metrics` extension: a simulated
//! HTTP client scrapes the Prometheus exposition served by the web
//! server, whose body is produced by raising the kernel's `Obs.Snapshot`
//! event — observability dogfooding the paper's own machinery.

use parking_lot::Mutex;
use spin_os::core::{Dispatcher, Identity, Kernel};
use spin_os::fs::{BufferCache, FileSystem, HybridBySize, NoCachePolicy, WebCache};
use spin_os::net::UdpHeader;
use spin_os::net::{http_get, install_metrics, proto, HttpServer, Medium, Rpc, TcpStack, TwoHosts};
use spin_os::obs::Obs;
use spin_os::sal::Cost;
use spin_os::vm::VmWorkbench;
use std::sync::Arc;

/// Extracts `spin_<metric>{domain="<domain>"} <value>` from the body.
fn metric(body: &str, metric: &str, domain: &str) -> Option<u64> {
    let needle = format!("spin_{metric}{{domain=\"{domain}\"}} ");
    body.lines()
        .find_map(|l| l.strip_prefix(&needle))
        .and_then(|v| v.trim().parse().ok())
}

#[test]
fn metrics_endpoint_reports_every_instrumented_subsystem() {
    let rig = TwoHosts::new();
    let obs = Obs::new(65536);
    rig.wire_obs(&obs);

    // A kernel on host A: dispatcher + GC + trap-path hooks, the
    // Obs.Snapshot event, and the ObsService nameserver domain.
    let kernel = Kernel::boot(rig.host_a.clone());
    let snapshot = kernel.install_obs(&obs);

    // Exercise each subsystem so its counters move.
    kernel
        .register_syscalls(Identity::extension("null"), 0..1, |_| 0)
        .expect("install syscall");
    kernel.syscall(0, [0; 6]);

    let keep: Vec<_> = (0..64u64)
        .map(|i| kernel.heap().alloc_root(i).expect("alloc rooted"))
        .collect();
    for i in 0..5_000u64 {
        let _ = kernel.heap().alloc(i);
    }
    kernel.heap().collect();
    drop(keep);

    let wb = VmWorkbench::new();
    wb.trans.set_obs(obs.domain("vm"));
    wb.fault_ns();

    // The web server on host B, with the /metrics extension spliced in.
    let tcp_a = TcpStack::install(&rig.a);
    let tcp_b = TcpStack::install(&rig.b);
    let bc = BufferCache::new(
        rig.host_b.disk.clone(),
        rig.exec.clone(),
        64,
        Box::new(NoCachePolicy),
    );
    let fs = FileSystem::format(bc, 0, 200);
    let cache = Arc::new(WebCache::new(
        1 << 20,
        Box::new(HybridBySize {
            large_threshold: 65_536,
        }),
    ));
    let server = HttpServer::start(&rig.b, &tcp_b, fs, cache, 80);
    install_metrics(&server, snapshot);

    // Generate net + sched traffic, then scrape.
    let dst = rig.b.ip_on(Medium::Ethernet);
    let got = Arc::new(Mutex::new(None));
    let g2 = got.clone();
    rig.exec.spawn("scraper", move |ctx| {
        *g2.lock() = http_get(ctx, &tcp_a, dst, 80, "/metrics");
    });
    rig.exec.run_until_idle();

    let (status, body) = got.lock().clone().expect("scrape completed");
    assert_eq!(status, "HTTP/1.0 200 OK");
    let body = String::from_utf8(body).expect("utf-8 exposition");

    // The acceptance bar: non-zero counters for at least dispatcher,
    // scheduler, VM, GC and net.
    for (m, domain) in [
        ("events_raised", "dispatcher"),
        ("cpu_virtual_ns", "sched"),
        ("context_switches", "sched"),
        ("vm_faults", "vm"),
        ("gc_collections", "gc"),
        ("gc_bytes_surviving", "gc"),
        ("packets_sent", "net"),
        ("bytes_received", "net"),
        ("syscalls", "kernel"),
    ] {
        let v = metric(&body, m, domain)
            .unwrap_or_else(|| panic!("missing spin_{m}{{domain=\"{domain}\"}} in:\n{body}"));
        assert!(v > 0, "spin_{m}{{domain=\"{domain}\"}} is zero:\n{body}");
    }
    assert!(
        metric(&body, "trace_pushed_total", "").is_none(),
        "trace_pushed_total is not per-domain"
    );
    assert!(
        body.contains("spin_trace_recording 1"),
        "recorder state line missing:\n{body}"
    );
}

/// The quota ledger's gauges, scraped end-to-end: a metered domain is
/// throttled into shedding and refused at a mailbox gate, and the
/// per-domain `spin_quota_*` series show up — with exact values — in the
/// `/metrics` body a simulated HTTP client scrapes off the wire. The
/// escalation also leaves a `quota_breach` record in the trace ring.
#[test]
fn quota_gauges_scrape_end_to_end() {
    let rig = TwoHosts::new();
    let obs = Obs::new(4_096);
    rig.wire_obs(&obs);
    let kernel = Kernel::boot(rig.host_a.clone());
    let snapshot = kernel.install_obs(&obs);

    let ledger = spin_os::core::QuotaLedger::new();
    ledger.wire_obs(&obs);
    let cell = ledger.register(
        "greedy",
        spin_os::core::QuotaSpec {
            window: 1_000_000,
            window_vt_budget: 1,
            shed_after_trips: 2,
            max_lane_occupancy: 1,
            ..spin_os::core::QuotaSpec::default()
        },
    );
    let (ev, owner) = kernel
        .dispatcher()
        .define::<u64, u64>("Quota.Svc", Identity::kernel("quota"));
    let clock = rig.board.clock.clone();
    owner
        .set_primary(move |x| {
            clock.charge(Cost::Work, 100);
            *x
        })
        .expect("fresh event");
    assert_eq!(ev.bind_quota(cell.clone()), Ok(true));

    // One admitted raise burns the (tiny) window budget; the next two
    // throttle (trip, trip -> shedding: a breach), the one after sheds.
    assert_eq!(ev.raise(1), Ok(1));
    for _ in 0..2 {
        assert!(matches!(
            ev.raise(2),
            Err(spin_os::core::DispatchError::Throttled { .. })
        ));
    }
    assert!(matches!(
        ev.raise(3),
        Err(spin_os::core::DispatchError::Shed { .. })
    ));

    // The mailbox gate refuses a post past the lane budget.
    let mb = spin_os::sal::Mailbox::new();
    ledger.install_mailbox_gate(&mb, vec![(5, cell.clone())]);
    assert!(mb.post(10, 5, |_| {}));
    assert!(!mb.post(11, 5, |_| {}), "lane occupancy budget refuses");

    // Serve and scrape /metrics over the simulated wire.
    let tcp_a = TcpStack::install(&rig.a);
    let tcp_b = TcpStack::install(&rig.b);
    let bc = BufferCache::new(
        rig.host_b.disk.clone(),
        rig.exec.clone(),
        64,
        Box::new(NoCachePolicy),
    );
    let fs = FileSystem::format(bc, 0, 200);
    let cache = Arc::new(WebCache::new(
        1 << 20,
        Box::new(HybridBySize {
            large_threshold: 65_536,
        }),
    ));
    let server = HttpServer::start(&rig.b, &tcp_b, fs, cache, 80);
    install_metrics(&server, snapshot);
    let dst = rig.b.ip_on(Medium::Ethernet);
    let got = Arc::new(Mutex::new(None));
    let g2 = got.clone();
    rig.exec.spawn("scraper", move |ctx| {
        *g2.lock() = http_get(ctx, &tcp_a, dst, 80, "/metrics");
    });
    rig.exec.run_until_idle();

    let (status, body) = got.lock().clone().expect("scrape completed");
    assert_eq!(status, "HTTP/1.0 200 OK");
    let body = String::from_utf8(body).expect("utf-8 exposition");

    let s = cell.snapshot();
    assert_eq!((s.throttled, s.shed, s.breaches), (2, 1, 1));
    for (m, want) in [
        ("quota_in_flight", 0),
        ("quota_held", 0),
        ("quota_shed", 1),
        ("quota_throttle_trips", 2),
        ("quota_mail_refused", 1),
        ("quota_breaches", 1),
    ] {
        let v = metric(&body, m, "greedy")
            .unwrap_or_else(|| panic!("missing spin_{m}{{domain=\"greedy\"}} in:\n{body}"));
        assert_eq!(v, want, "spin_{m}{{domain=\"greedy\"}}");
    }

    // The escalation crossing left a trace record under the quota domain.
    let dump = obs.dump();
    assert!(
        dump.contains("quota_breach"),
        "no quota_breach trace record in:\n{dump}"
    );
}

#[test]
fn obs_service_is_importable_from_the_nameserver() {
    let rig = TwoHosts::new();
    let obs = Obs::new(1024);
    let kernel = Kernel::boot(rig.host_a.clone());
    let _snapshot = kernel.install_obs(&obs);

    // An extension imports the subsystem like any other kernel interface —
    // by the service type, not a registration string (API v2).
    let svc = kernel
        .nameserver()
        .import_typed::<Obs>(&Identity::extension("profiler"))
        .expect("ObsService registered");
    assert_eq!(svc.name(), "ObsService");
    assert_eq!(svc.domain().name(), "ObsService");
    let handle: Arc<Obs> = svc.service().clone();
    handle
        .domain("profiler")
        .trace(spin_os::obs::TraceKind::EventRaise, 0, 0);
    assert_eq!(handle.ring().pushed(), 1);
}

/// The net domain counts a frame sent where the sending NIC's link record
/// counts it: a datagram over the Ethernet MTU is refused and not counted,
/// and neither is any frame of a burst from an oversized one on, since the
/// NIC stops the burst there.
#[test]
fn obs_counts_only_the_frames_a_nic_took() {
    let rig = TwoHosts::new();
    let obs = Obs::new(1024);
    rig.wire_obs(&obs);
    let dst = rig.b.ip_on(Medium::Ethernet);
    rig.a.udp_send(9, dst, 7, &[0u8; 10]).expect("fits the MTU");
    assert!(rig.a.udp_send(9, dst, 7, &[0u8; 1500]).is_err());
    let burst = [10, 1500, 20]
        .map(|len| {
            (
                dst,
                proto::UDP,
                UdpHeader::encode(9, 7, &vec![0u8; len]).into(),
            )
        })
        .to_vec();
    assert!(rig.a.send_ip_burst(burst).is_err());
    rig.exec.run_until_idle();

    let (a, b) = (rig.a.stats(), rig.b.stats());
    assert_eq!(
        a.frames_out, 2,
        "the lone datagram and the burst's first frame"
    );
    let body = obs.render_prometheus();
    assert_eq!(
        metric(&body, "packets_sent", "net"),
        Some(a.frames_out + b.frames_out)
    );
    assert_eq!(
        metric(&body, "bytes_sent", "net"),
        Some(a.bytes_out + b.bytes_out)
    );
}

/// Every per-domain row is the sum of its owners' books, whether the
/// counts were made before the wiring or after it: the net rows are both
/// stacks' [`NetStats`](spin_os::net::NetStats) plus each RPC package's
/// retransmits, the sched rows the executor's switch count, the gc rows
/// the heap's collections, the kernel's syscalls the calls made, and the
/// dispatcher rows the sum of each event's statistics — where a handler
/// run is a walk's invocation or a direct call, even one that panicked.
#[test]
fn every_domain_row_is_the_sum_of_its_owners_books() {
    let rig = TwoHosts::new();
    let obs = Obs::new(4_096);

    // Traffic before the wiring: an RPC whose first two requests are lost.
    let rpc_a = Rpc::install(&rig.a).expect("RPC on A");
    let rpc_b = Rpc::install(&rig.b).expect("RPC on B");
    rpc_b.register("echo", |args| args.to_vec());
    let from_a = rig.host_a.endpoint();
    rig.board
        .ethernet
        .set_drop_filter(move |from, i| from == from_a && i < 2);
    let dst = rig.b.ip_on(Medium::Ethernet);
    let caller = rpc_a.clone();
    rig.exec.spawn("caller", move |ctx| {
        caller
            .call(ctx, dst, "echo", b"late")
            .expect("third attempt");
    });
    rig.exec.run_until_idle();
    assert_eq!(rpc_a.stats().retries, 2);

    rig.wire_obs(&obs);
    let kernel = Kernel::boot(rig.host_a.clone());
    let _snapshot = kernel.install_obs(&obs);
    kernel
        .register_syscalls(Identity::extension("null"), 0..1, |_| 0)
        .expect("install syscall");
    for _ in 0..3 {
        kernel.syscall(0, [0; 6]);
    }
    let keep: Vec<_> = (0..8u64)
        .map(|i| kernel.heap().alloc_root(i).expect("alloc rooted"))
        .collect();
    let surviving: u64 = (0..2)
        .map(|_| kernel.heap().collect().live_bytes_after)
        .sum();
    drop(keep);

    // A dispatcher of the test's own, on a domain of its own: a direct
    // call that panics once, a guarded walk, and a burst.
    let d = Dispatcher::unmetered();
    d.set_obs(obs.domain("probe"));
    let who = Identity::kernel("probe");
    let (direct, owner) = d.define::<u64, u64>("Probe.Direct", who.clone());
    owner
        .set_primary(|x| {
            assert_ne!(*x, 13, "the unlucky argument");
            *x
        })
        .expect("fresh event");
    let (walked, walked_owner) = d.define::<u64, u64>("Probe.Walked", who);
    walked_owner.set_primary(|x| *x).expect("fresh event");
    walked
        .install_guarded(Identity::extension("odd"), |x| x % 2 == 1, |x| x + 1)
        .expect("guarded handler");
    for x in [1, 13, 2] {
        let _ = direct.raise(x);
    }
    for x in 0..4 {
        walked.raise(x).expect("primary runs");
    }
    walked.raise_batch(vec![5, 6, 7]);

    // Traffic after the wiring.
    rig.a.udp_send(9, dst, 7, &[0u8; 64]).expect("fits the MTU");
    rig.exec.run_until_idle();

    let body = obs.render_prometheus();
    let row = |m: &str, domain: &str| {
        metric(&body, m, domain)
            .unwrap_or_else(|| panic!("missing spin_{m}{{domain=\"{domain}\"}} in:\n{body}"))
    };
    let (a, b) = (rig.a.stats(), rig.b.stats());
    assert_eq!(row("packets_sent", "net"), a.frames_out + b.frames_out);
    assert_eq!(row("bytes_sent", "net"), a.bytes_out + b.bytes_out);
    assert_eq!(row("packets_received", "net"), a.frames_in + b.frames_in);
    assert_eq!(row("bytes_received", "net"), a.bytes_in + b.bytes_in);
    assert_eq!(
        row("retries", "net"),
        a.retries + b.retries + rpc_a.stats().retries + rpc_b.stats().retries
    );
    assert_eq!(row("context_switches", "sched"), rig.exec.switches());
    assert!(row("cpu_virtual_ns", "sched") > 0);
    assert_eq!(
        row("gc_collections", "gc"),
        kernel.heap().stats().collections
    );
    assert_eq!(row("gc_bytes_surviving", "gc"), surviving);
    assert!(
        row("pages_held", "gc") > 0,
        "the rooted objects hold a page"
    );
    assert_eq!(row("syscalls", "kernel"), 3);

    let (direct, walked) = (d.stats(&direct).unwrap(), d.stats(&walked).unwrap());
    assert_eq!(direct.handler_faults, 1, "the direct call that panicked");
    let sum = |f: fn(&spin_os::core::EventStats) -> u64| f(&direct) + f(&walked);
    assert_eq!(row("events_raised", "probe"), sum(|s| s.raises));
    assert_eq!(row("events_raised", "probe"), 10);
    assert_eq!(
        row("handlers_run", "probe"),
        sum(|s| s.handlers_run + s.async_dispatches + s.fast_path_raises)
    );
    assert_eq!(
        row("guards_evaluated", "probe"),
        sum(|s| s.guard_evaluations)
    );
    assert_eq!(row("dispatch_batched", "probe"), sum(|s| s.batched_raises));
    assert_eq!(row("dispatch_batched", "probe"), 3);
    assert_eq!(
        row("dispatch_compiled_raises", "probe"),
        sum(|s| s.compiled_raises)
    );
    assert_eq!(
        row("dispatch_compiled_elided", "probe"),
        sum(|s| s.guards_elided)
    );
}

/// An event's statistics outlive it in its dispatcher's rows: destroying
/// the event lowers no total, and a redefinition counts on from there.
#[test]
fn destroying_an_event_does_not_lower_events_raised() {
    let obs = Obs::new(64);
    let d = Dispatcher::unmetered();
    d.set_obs(obs.domain("dispatcher"));
    let raised = || metric(&obs.render_prometheus(), "events_raised", "dispatcher");
    let (ev, owner) = d.define::<u64, u64>("Short.Lived", Identity::kernel("t"));
    owner.set_primary(|x| *x).expect("fresh event");
    for x in 0..5 {
        ev.raise(x).expect("primary runs");
    }
    assert_eq!(raised(), Some(5));
    owner.destroy().expect("the owner destroys");
    assert!(ev.raise(0).is_err(), "the event is gone");
    assert_eq!(raised(), Some(5), "its raises still count");

    let (again, owner) = d.define::<u64, u64>("Short.Lived", Identity::kernel("t"));
    owner.set_primary(|x| *x).expect("fresh event");
    again.raise(1).expect("primary runs");
    assert_eq!(d.stats(&again).unwrap().raises, 1, "fresh statistics");
    assert_eq!(raised(), Some(6));
}

/// Wiring a subsystem to obs a second time registers no second reader
/// of its book, so nothing counts twice.
#[test]
fn wiring_twice_counts_each_book_once() {
    let rig = TwoHosts::new();
    let obs = Obs::new(1_024);
    rig.wire_obs(&obs);
    rig.wire_obs(&obs);
    let kernel = Kernel::boot(rig.host_a.clone());
    let _first = kernel.install_obs(&obs);
    let _second = kernel.install_obs(&obs);
    kernel
        .register_syscalls(Identity::extension("null"), 0..1, |_| 0)
        .expect("install syscall");
    kernel.syscall(0, [0; 6]);
    kernel.heap().collect();
    let dst = rig.b.ip_on(Medium::Ethernet);
    rig.a.udp_send(9, dst, 7, &[0u8; 10]).expect("fits the MTU");
    rig.exec.run_until_idle();

    let body = obs.render_prometheus();
    let row = |m: &str, domain: &str| metric(&body, m, domain);
    let (a, b) = (rig.a.stats(), rig.b.stats());
    assert_eq!(
        row("packets_sent", "net"),
        Some(a.frames_out + b.frames_out)
    );
    assert_eq!(row("packets_sent", "net"), Some(1));
    assert_eq!(row("context_switches", "sched"), Some(rig.exec.switches()));
    assert_eq!(row("syscalls", "kernel"), Some(1));
    assert_eq!(row("gc_collections", "gc"), Some(1));

    let d = Dispatcher::unmetered();
    d.set_obs(obs.domain("probe"));
    d.set_obs(obs.domain("probe"));
    let (ev, owner) = d.define::<u64, u64>("Probe", Identity::kernel("t"));
    owner.set_primary(|x| *x).expect("fresh event");
    ev.raise(1).expect("primary runs");
    ev.raise(2).expect("primary runs");
    let body = obs.render_prometheus();
    assert_eq!(metric(&body, "events_raised", "probe"), Some(2));
    assert_eq!(metric(&body, "handlers_run", "probe"), Some(2));
}
