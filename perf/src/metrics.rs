//! Every metric the benchmark prints, by name and unit. `BENCHMARK.json`
//! lists the same names; a test holds the two together.

/// End-to-end metrics: the same four on every workload, lower is better.
pub const END_TO_END: [(&str, &str); 4] = [
    ("us_per_op", "us"),
    ("total_s", "s"),
    ("setup_s", "s"),
    ("rss_mb", "MB"),
];

/// Probe unit costs, measured in the pinned probe process (and
/// `switch_unpinned_ns` in an unpinned child).
pub const PROBES: [(&str, &str); 26] = [
    ("sal.clock.advance_ns", "ns"),
    ("sal.timers.schedule_fire_ns", "ns"),
    ("sal.mailbox.post_drain_ns", "ns"),
    ("sal.nic.send_recv_ns", "ns"),
    ("sal.buf.append_flatten_ns", "ns"),
    ("core.dispatch.indirect_call_ns", "ns"),
    ("core.dispatch.fast_ns", "ns"),
    ("core.dispatch.keyed250_ns", "ns"),
    ("core.dispatch.opaque10_ns", "ns"),
    ("core.dispatch.batch64_ns", "ns"),
    ("core.dispatch.install_us", "us"),
    ("core.dispatch.uninstall_us", "us"),
    ("core.dispatch.rebind_us", "us"),
    ("core.quota.admit_complete_ns", "ns"),
    ("sched.executor.switch_ns", "ns"),
    ("sched.executor.sleep_wake_ns", "ns"),
    ("sched.executor.spawn_us", "us"),
    ("sched.executor.switch_unpinned_ns", "ns"),
    ("sched.shard.epoch_ns", "ns"),
    ("net.stack.udp_rtt_us", "us"),
    ("net.tcp.conn_us", "us"),
    ("net.http.get_us", "us"),
    ("net.poll.note_flush_ns", "ns"),
    ("obs.wired_raise_delta_ns", "ns"),
    ("fault.draw_disabled_ns", "ns"),
    ("host.calib_ns", "ns"),
];

/// Counts and ratios of the measured workload, host diagnostics and the
/// modelled attribution.
pub const COUNTS: [(&str, &str); 38] = [
    ("sal.mailbox.posted", "count"),
    ("sal.mailbox.dropped", "count"),
    ("sal.wire.frames", "count"),
    ("sal.wire.dropped", "count"),
    ("core.dispatch.raises", "count"),
    ("core.dispatch.fast_share", "share"),
    ("core.dispatch.compiled_share", "share"),
    ("core.dispatch.guards_elided_share", "share"),
    ("core.dispatch.batched_share", "share"),
    ("core.quota.refused_share", "share"),
    ("sched.executor.switches", "count"),
    ("sched.shard.epochs", "count"),
    ("sched.shard.runs_per_epoch", "ratio"),
    ("sched.shard.frames_per_epoch", "ratio"),
    ("sched.shard.epochs_per_s", "1/s"),
    ("sched.shard.w2_over_w1", "ratio"),
    ("net.stack.frames_in", "count"),
    ("net.stack.frames_per_s", "1/s"),
    ("net.stack.retries", "count"),
    ("net.tcp.retransmissions", "count"),
    ("net.http.requests", "count"),
    ("net.http.shed_share", "share"),
    ("net.http.timeouts", "count"),
    ("host.pinned", "count"),
    ("host.cpu_s", "s"),
    ("host.sys_share", "share"),
    ("host.vol_ctx_switches", "count"),
    ("host.threads_peak", "count"),
    ("run.slice_p95_over_p50", "ratio"),
    ("run.trace_overhead_pct", "%"),
    ("attr.sched.executor_share", "share"),
    ("attr.sched.shard_share", "share"),
    ("attr.core.dispatch_share", "share"),
    ("attr.sal.mailbox_share", "share"),
    ("attr.sal.nic_share", "share"),
    ("attr.sal.clock_share", "share"),
    ("attr.net_share", "share"),
    ("attr.unattributed_share", "share"),
];

/// Every per-layer metric, probes first.
pub fn per_layer() -> impl Iterator<Item = (&'static str, &'static str)> {
    PROBES.iter().chain(COUNTS.iter()).copied()
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .copied()
        .chain(per_layer())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workloads::WORKLOADS;

    fn name_ok(s: &str) -> bool {
        let first = s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_charset() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().copied().chain(per_layer()) {
            assert!(name_ok(name), "bad metric name {name:?}");
            assert!(unit_ok(unit), "bad unit {unit:?} on {name}");
            assert!(seen.insert(name), "{name} listed twice");
        }
        for (w, _) in WORKLOADS {
            assert!(name_ok(w));
        }
        assert!(seen.len() - END_TO_END.len() <= 128);
        assert!(!name_ok(".x") && !name_ok("a b") && !name_ok("µs") && !name_ok(""));
        assert!(!unit_ok("µs") && unit_ok("1/s") && unit_ok("%"));
    }

    /// `BENCHMARK.json` and the binary agree on every name, unit and
    /// workload, so the driver never waits for a metric that is not printed.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("valid json");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_arr)
                .expect("array")
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(Value::as_str)
                            .expect("name")
                            .to_string(),
                        m.get("unit")
                            .and_then(Value::as_str)
                            .expect("unit")
                            .to_string(),
                    )
                })
                .collect()
        };
        let own =
            |it: &mut dyn Iterator<Item = (&'static str, &'static str)>| -> Vec<(String, String)> {
                it.map(|(n, u)| (n.to_string(), u.to_string())).collect()
            };
        assert_eq!(listed("end_to_end"), own(&mut END_TO_END.iter().copied()));
        assert_eq!(listed("per_layer"), own(&mut per_layer()));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("array")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS.map(|(n, _)| n));
        for m in doc
            .get("end_to_end")
            .and_then(Value::as_arr)
            .expect("array")
        {
            let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25);
            assert_eq!(m.get("better").and_then(Value::as_str), Some("lower"));
        }
    }

    #[test]
    fn unit_lookup_covers_both_tables() {
        assert_eq!(unit_of("us_per_op"), Some("us"));
        assert_eq!(unit_of("sched.shard.epochs_per_s"), Some("1/s"));
        assert_eq!(unit_of("nope"), None);
    }
}
