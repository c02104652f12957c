//! Renderings of the recorder and accounting state: a human-readable trace
//! dump and Prometheus-style exposition text for the `/metrics` in-kernel
//! extension.

use crate::account::Accounting;
use crate::ring::TraceRecord;
use crate::Obs;
use std::fmt::Write;

fn domain_label(accounting: &Accounting, rec: &TraceRecord) -> String {
    accounting
        .name(rec.domain)
        .unwrap_or_else(|| format!("domain-{}", rec.domain.0))
}

/// Human-readable dump, one line per record, oldest first.
pub(crate) fn dump(accounting: &Accounting, records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for rec in records {
        let _ = writeln!(
            out,
            "[{:>12} ns] {:<10} {:<14} a={} b={}",
            rec.time,
            domain_label(accounting, rec),
            rec.kind.label(),
            rec.a,
            rec.b,
        );
    }
    out
}

/// Prometheus-style exposition of the accounting tables and recorder
/// state. Served by the in-kernel `/metrics` HTTP extension.
pub(crate) fn prometheus(obs: &Obs) -> String {
    let mut out = String::new();
    out.push_str("# SPIN reproduction: per-domain resource accounting\n");
    for (name, tally) in obs.accounting().domains() {
        for (metric, value) in tally.rows() {
            let _ = writeln!(out, "spin_{metric}{{domain=\"{name}\"}} {value}");
        }
    }
    for (name, hist) in obs.accounting().histograms() {
        let _ = writeln!(out, "spin_hist_count{{hist=\"{name}\"}} {}", hist.count());
        let _ = writeln!(out, "spin_hist_sum{{hist=\"{name}\"}} {}", hist.sum());
        let _ = writeln!(out, "spin_hist_min{{hist=\"{name}\"}} {}", hist.min());
        let _ = writeln!(out, "spin_hist_max{{hist=\"{name}\"}} {}", hist.max());
        for (upper, count) in hist.buckets() {
            let _ = writeln!(
                out,
                "spin_hist_bucket{{hist=\"{name}\",le=\"{upper}\"}} {count}"
            );
        }
    }
    let _ = writeln!(
        out,
        "spin_trace_recording {}",
        u64::from(obs.is_recording())
    );
    let _ = writeln!(out, "spin_trace_pushed_total {}", obs.ring().pushed());
    let _ = writeln!(out, "spin_trace_dropped_total {}", obs.ring().dropped());
    for (name, read) in obs.inner.gauges.read().iter() {
        let _ = writeln!(out, "spin_{name} {}", read());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::DomainId;
    use crate::ring::TraceKind;

    #[test]
    fn dump_names_known_domains() {
        let obs = Obs::new(16);
        obs.ring().push(TraceRecord {
            time: 42,
            domain: DomainId::NET,
            kind: TraceKind::PacketRx,
            a: 1500,
            b: 0,
        });
        let records = obs.ring().drain();
        let text = dump(obs.accounting(), &records);
        assert!(text.contains("net"), "{text}");
        assert!(text.contains("packet_rx"), "{text}");
    }

    #[test]
    fn prometheus_lists_every_well_known_domain() {
        let obs = Obs::new(16);
        let text = prometheus(&obs);
        for name in ["kernel", "dispatcher", "sched", "vm", "gc", "net", "unix"] {
            assert!(
                text.contains(&format!("domain=\"{name}\"")),
                "missing {name} in:\n{text}"
            );
        }
        assert!(text.contains("spin_trace_recording 1"));
    }
}
