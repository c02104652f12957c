//! End-to-end test of the in-kernel `/metrics` extension: a simulated
//! HTTP client scrapes the Prometheus exposition served by the web
//! server, whose body is produced by raising the kernel's `Obs.Snapshot`
//! event — observability dogfooding the paper's own machinery.

use parking_lot::Mutex;
use spin_os::core::{Identity, Kernel};
use spin_os::fs::{BufferCache, FileSystem, HybridBySize, NoCachePolicy, WebCache};
use spin_os::net::UdpHeader;
use spin_os::net::{http_get, install_metrics, proto, HttpServer, Medium, TcpStack, TwoHosts};
use spin_os::obs::Obs;
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
            clock.advance(100);
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
