//! The cost-model invariant, enforced jointly: every virtual-time figure
//! the evaluation reports (`spin_bench::scenario::suite` — the same
//! functions the golden-gated bins print) is byte-identical in all 2⁵
//! combinations of {absent, wired-idle} over observability, fault
//! injection, quotas, hot-swap and keyed guards. Each feature alone is not
//! enough: the storms run with all five wired at once.
//!
//! Invariance would hold trivially if nothing were wired, so every cell
//! also checks that each wired feature really ran on the measured paths:
//! the recorder recorded, every fault site drew, the quota cells admitted,
//! the idle coordinators exist and never swapped, keyed plans dispatched
//! compiled. A swap committed mid-run to an identical forwarder version
//! must be invisible in every cell too.

use spin_bench::scenario::{suite, table6_udp, watcher_rtt, Wiring};
use spin_fault::{
    FaultPlan, SITE_DISPATCH, SITE_NET_STACK, SITE_QUOTA, SITE_SCHED, SITE_SWAP, SITE_VM_PAGER,
};
use spin_net::Medium;
use spin_obs::Obs;
use std::sync::OnceLock;

const OBS: u32 = 1;
const FAULTS: u32 = 2;
const QUOTA: u32 = 4;
const SWAP: u32 = 8;
const KEYED: u32 = 16;
const ALL: u32 = 31;

/// The bare cell every other cell must equal, computed once.
fn bare() -> &'static Vec<(String, u64)> {
    static BARE: OnceLock<Vec<(String, u64)>> = OnceLock::new();
    BARE.get_or_init(|| {
        let out = suite(&Wiring::bare());
        assert!(
            out.iter().all(|(_, v)| *v > 0),
            "every workload completes: {out:?}"
        );
        out
    })
}

/// The wiring of one matrix cell, with `obs` and `faults` at the given
/// levels where the cell's bits select them.
fn wiring(bits: u32, obs: fn() -> Obs, faults: fn() -> FaultPlan) -> Wiring {
    Wiring::new(
        (bits & OBS != 0).then(obs),
        (bits & FAULTS != 0).then(faults),
        bits & QUOTA != 0,
        bits & SWAP != 0,
        bits & KEYED != 0,
    )
}

/// The matrix proper uses the most intrusive idle levels: recorder on,
/// plan armed with no rates configured (every draw runs the full decision
/// path and still injects nothing).
fn recording() -> Obs {
    Obs::new(4096)
}

fn armed_at_zero() -> FaultPlan {
    FaultPlan::new(0xFB)
}

fn cell(bits: u32) -> Wiring {
    wiring(bits, recording, armed_at_zero)
}

/// Runs the suite, then a mid-run identical-version swap, under `w` and
/// asserts both equal the bare cell.
fn assert_invariant(w: &Wiring) {
    let label = w.label();
    assert_eq!(
        &suite(w),
        bare(),
        "virtual-time outputs diverged from the bare cell with {label} wired"
    );
    if let Some(swap) = &w.swap {
        assert!(swap.wired() > 0, "{label}: no idle coordinator was wired");
        assert_eq!(swap.attempted(), 0, "{label}: an idle coordinator swapped");
    }

    // The online-upgrade promise: a committed swap to a semantically
    // identical forwarder between warm-up and measurement charges nothing
    // the workload can see.
    let (swapped, fwd_stats) = table6_udp(w, Medium::Ethernet, true);
    let plain = bare().iter().find(|(k, _)| k == "table6.udp_eth");
    assert_eq!(
        Some(swapped),
        plain.map(|(_, v)| *v),
        "{label}: a committed identical-version swap moved the Table 6 RTT"
    );
    assert!(
        fwd_stats.compiled_raises > 0,
        "{label}: the keyed forwarder must dispatch compiled"
    );
    if let Some(swap) = &w.swap {
        assert_eq!(swap.attempted(), 1, "{label}: the mid-run swap ran once");
    }
}

/// Evidence that each wired feature really ran on the measured paths.
fn assert_non_trivial(w: &Wiring) {
    let label = w.label();
    if let Some(obs) = &w.obs {
        let acct = obs.accounting();
        for name in ["dispatcher", "sched", "vm", "net", "kernel"] {
            let counters = acct.tally(acct.register(name));
            assert!(
                counters.activity() > 0,
                "{label}: domain {name} recorded no activity"
            );
        }
        assert!(obs.ring().pushed() > 0, "{label}: recorder stayed empty");
        let hists = acct.histograms();
        for prefix in ["net.rtt_ns", "net.bw_elapsed_ns"] {
            assert!(
                hists
                    .iter()
                    .any(|(n, h)| n.starts_with(prefix) && h.count() > 0),
                "{label}: {prefix} histogram missing"
            );
        }
    }
    if let Some(plan) = &w.faults {
        assert_eq!(plan.injected_total(), 0, "{label}: an idle plan injected");
        let report = plan.report();
        let mut sites = vec![SITE_DISPATCH, SITE_SCHED, SITE_VM_PAGER, SITE_NET_STACK];
        if w.quota.is_some() {
            sites.push(SITE_QUOTA);
        }
        if w.swap.is_some() {
            sites.push(SITE_SWAP);
        }
        for site in sites {
            let hits = report.iter().find(|r| r.site == site).map_or(0, |r| r.hits);
            assert!(hits > 0, "{label}: site {site} never drawn: {report:?}");
        }
    }
    if let Some(q) = &w.quota {
        let cells = q.ledger.cells();
        let attempts: u64 = cells.iter().map(|c| c.snapshot().attempts).sum();
        assert!(
            attempts > 1000,
            "{label}: metered events saw only {attempts} admission attempts"
        );
        assert!(
            q.hook_calls.get() > 0,
            "{label}: the scheduler quota hook was never consulted"
        );
        for cell in cells {
            let s = cell.snapshot();
            assert_eq!(s.attempts, s.admitted, "an unlimited cell never refuses");
            assert_eq!(s.attempts, s.admitted + s.throttled + s.shed + s.held);
            assert_eq!(s.admitted, s.completed + s.in_flight);
            assert_eq!((s.breaches, s.mail_refused), (0, 0));
        }
    }
    if w.keyed {
        for pass in [false, true] {
            let (_, stats) = watcher_rtt(w, 10, pass);
            assert!(
                stats.compiled_raises > 0,
                "{label}: keyed watchers must dispatch compiled"
            );
        }
    }
}

/// The eight obs × faults × quota cells at one swap/keyed setting.
fn check_cells(high_bits: u32) {
    for low_bits in 0..8 {
        let w = cell(high_bits | low_bits);
        assert_invariant(&w);
        assert_non_trivial(&w);
    }
}

#[test]
fn matrix_cells_without_swap_or_keyed() {
    check_cells(0);
}

#[test]
fn matrix_cells_with_swap() {
    check_cells(SWAP);
}

#[test]
fn matrix_cells_with_keyed() {
    check_cells(KEYED);
}

#[test]
fn matrix_cells_with_swap_and_keyed() {
    check_cells(SWAP | KEYED);
}

/// The per-feature level sweeps: every other recorder configuration and
/// the disabled fault plan, each alone and beside the other four features.
#[test]
fn every_obs_and_fault_level_is_invariant() {
    let obs_levels: [fn() -> Obs; 3] = [
        || Obs::new(1),
        || Obs::new(65536),
        || {
            let obs = Obs::new(65536);
            obs.set_recording(false);
            obs
        },
    ];
    let disabled: fn() -> FaultPlan = || {
        let plan = FaultPlan::new(0xFA);
        plan.set_enabled(false);
        plan
    };
    for others in [0, ALL & !OBS] {
        for level in obs_levels {
            assert_invariant(&wiring(others | OBS, level, armed_at_zero));
        }
    }
    for others in [0, ALL & !FAULTS] {
        let w = wiring(others | FAULTS, recording, disabled);
        assert_invariant(&w);
        let plan = w.faults.as_ref().expect("faults wired");
        assert_eq!(plan.injected_total(), 0, "a disabled plan injects nothing");
    }
}
