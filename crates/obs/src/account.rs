//! Per-domain resource accounting: atomic counters and histograms keyed by
//! [`DomainId`].
//!
//! The paper argues that in-kernel extensions must be *accountable* — the
//! kernel has to know what each logical protection domain is consuming.
//! Here every instrumented subsystem registers a domain and bumps plain
//! `AtomicU64` counters from its hook points. Nothing on these paths
//! touches the virtual clock, so accounting is free on the simulated
//! timeline (the cost-model invariant from DESIGN.md).

use spin_check::sync::RwLock;
use spin_check::sync::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identity of an accounted domain. Dense and small: ids are assigned in
/// registration order, and the well-known kernel subsystems below are
/// pre-registered by [`Obs::new`](crate::Obs::new) so their ids are stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(pub u32);

impl DomainId {
    /// The network stack.
    #[cfg(test)]
    pub(crate) const NET: DomainId = DomainId(5);
}

/// Names for the pre-registered subsystems, in id order.
pub(crate) const WELL_KNOWN: [&str; 7] =
    ["kernel", "dispatcher", "sched", "vm", "gc", "net", "unix"];

/// The per-domain counter block. All fields are cumulative totals except
/// `pages_held`, which is a gauge.
#[derive(Default)]
pub struct DomainCounters {
    /// Virtual CPU nanoseconds charged while this domain ran.
    pub cpu_ns: AtomicU64,
    /// Events raised through the dispatcher.
    pub events_raised: AtomicU64,
    /// Handlers invoked.
    pub handlers_run: AtomicU64,
    /// Guards evaluated.
    pub guards_evaluated: AtomicU64,
    /// Context switches performed.
    pub context_switches: AtomicU64,
    /// VM faults delivered.
    pub vm_faults: AtomicU64,
    /// Garbage collections completed.
    pub gc_collections: AtomicU64,
    /// Bytes surviving garbage collections (cumulative).
    pub gc_bytes_surviving: AtomicU64,
    /// Pages currently held (gauge).
    pub pages_held: AtomicU64,
    /// Bytes sent on the wire.
    pub bytes_sent: AtomicU64,
    /// Bytes received from the wire.
    pub bytes_received: AtomicU64,
    /// Frames sent.
    pub packets_sent: AtomicU64,
    /// Frames received.
    pub packets_received: AtomicU64,
    /// Syscalls trapped.
    pub syscalls: AtomicU64,
    /// Handler faults (contained panics, time-bound aborts) attributed
    /// to this domain by the containment layer.
    pub faults: AtomicU64,
    /// Deterministic retries performed on this domain's behalf (RPC
    /// retransmits, forwarder transmit retries).
    pub retries: AtomicU64,
    /// Slow-path raises served by a compiled (key-indexed) guard plan.
    pub dispatch_compiled_raises: AtomicU64,
    /// Guard closure calls the compiled plan avoided (key hits resolved by
    /// table lookup + key misses ruled out by it).
    pub dispatch_compiled_elided: AtomicU64,
    /// Raises delivered through `raise_batch` bursts.
    pub dispatch_batched: AtomicU64,
}

impl DomainCounters {
    /// Snapshot as `(metric name, value)` pairs, in a stable order.
    pub fn snapshot(&self) -> [(&'static str, u64); 19] {
        let ld = |c: &AtomicU64| c.load(Ordering::Relaxed); // ordering: Relaxed — every recording site is a Relaxed add; a snapshot is not a sync point.
        [
            ("cpu_virtual_ns", ld(&self.cpu_ns)),
            ("events_raised", ld(&self.events_raised)),
            ("handlers_run", ld(&self.handlers_run)),
            ("guards_evaluated", ld(&self.guards_evaluated)),
            ("context_switches", ld(&self.context_switches)),
            ("vm_faults", ld(&self.vm_faults)),
            ("gc_collections", ld(&self.gc_collections)),
            ("gc_bytes_surviving", ld(&self.gc_bytes_surviving)),
            ("pages_held", ld(&self.pages_held)),
            ("bytes_sent", ld(&self.bytes_sent)),
            ("bytes_received", ld(&self.bytes_received)),
            ("packets_sent", ld(&self.packets_sent)),
            ("packets_received", ld(&self.packets_received)),
            ("syscalls", ld(&self.syscalls)),
            ("faults", ld(&self.faults)),
            ("retries", ld(&self.retries)),
            (
                "dispatch_compiled_raises",
                ld(&self.dispatch_compiled_raises),
            ),
            (
                "dispatch_compiled_elided",
                ld(&self.dispatch_compiled_elided),
            ),
            ("dispatch_batched", ld(&self.dispatch_batched)),
        ]
    }

    /// Sum of all counters — nonzero iff the domain saw any activity.
    pub fn activity(&self) -> u64 {
        self.snapshot().iter().map(|(_, v)| v).sum()
    }
}

/// Number of power-of-two histogram buckets (`u64` value range).
const BUCKETS: usize = 65;

/// A lock-free power-of-two histogram with exact count/sum/min/max.
///
/// Bucket `i` counts values whose bit length is `i` (bucket 0 holds the
/// value 0); the mean is exact because the sum is kept separately.
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::AcqRel); // ordering: AcqRel — totally orders this cell's RMWs; cross-cell drift is documented.
        self.sum.fetch_add(value, Ordering::AcqRel); // ordering: AcqRel — totally orders this cell's RMWs; cross-cell drift is documented.
        self.min.fetch_min(value, Ordering::AcqRel); // ordering: AcqRel — totally orders this cell's RMWs; cross-cell drift is documented.
        self.max.fetch_max(value, Ordering::AcqRel); // ordering: AcqRel — totally orders this cell's RMWs; cross-cell drift is documented.
        let bucket = (u64::BITS - value.leading_zeros()) as usize;
        self.buckets[bucket].fetch_add(1, Ordering::AcqRel); // ordering: AcqRel — totally orders this cell's RMWs; cross-cell drift is documented.
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Acquire) // ordering: Acquire — freshest value at render time.
    }

    /// Exact sum of samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Acquire) // ordering: Acquire — freshest value at render time.
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Acquire); // ordering: Acquire — freshest value at render time.
        if m == u64::MAX {
            0
        } else {
            m
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Acquire) // ordering: Acquire — freshest value at render time.
    }

    /// Occupied buckets as `(inclusive upper bound, count)`, smallest first.
    pub(crate) fn buckets(&self) -> Vec<(u64, u64)> {
        (0..BUCKETS)
            .filter_map(|i| {
                let n = self.buckets[i].load(Ordering::Acquire); // ordering: Acquire — freshest value at render time.
                if n == 0 {
                    return None;
                }
                let upper = if i == 0 {
                    0
                } else if i == 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                Some((upper, n))
            })
            .collect()
    }
}

struct DomainEntry {
    name: String,
    counters: Arc<DomainCounters>,
}

/// The accounting registry: domains (dense by id) and named histograms.
#[derive(Default)]
pub struct Accounting {
    domains: RwLock<Vec<DomainEntry>>,
    histograms: RwLock<Vec<(String, Arc<Histogram>)>>,
}

impl Accounting {
    /// Registers `name` (or finds it) and returns its id and counter block.
    pub fn register(&self, name: &str) -> (DomainId, Arc<DomainCounters>) {
        let mut domains = self.domains.write();
        if let Some(i) = domains.iter().position(|d| d.name == name) {
            return (DomainId(i as u32), domains[i].counters.clone());
        }
        let id = DomainId(domains.len() as u32);
        let counters = Arc::new(DomainCounters::default());
        domains.push(DomainEntry {
            name: name.to_string(),
            counters: counters.clone(),
        });
        (id, counters)
    }

    /// The counter block for `id`, if registered.
    pub fn counters(&self, id: DomainId) -> Option<Arc<DomainCounters>> {
        self.domains
            .read()
            .get(id.0 as usize)
            .map(|d| d.counters.clone())
    }

    /// The name registered for `id`.
    pub fn name(&self, id: DomainId) -> Option<String> {
        self.domains
            .read()
            .get(id.0 as usize)
            .map(|d| d.name.clone())
    }

    /// Every registered domain, in id order.
    pub fn domains(&self) -> Vec<(DomainId, String, Arc<DomainCounters>)> {
        self.domains
            .read()
            .iter()
            .enumerate()
            .map(|(i, d)| (DomainId(i as u32), d.name.clone(), d.counters.clone()))
            .collect()
    }

    /// A named histogram, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        {
            let hs = self.histograms.read();
            if let Some((_, h)) = hs.iter().find(|(n, _)| n == name) {
                return h.clone();
            }
        }
        let mut hs = self.histograms.write();
        if let Some((_, h)) = hs.iter().find(|(n, _)| n == name) {
            return h.clone();
        }
        let h = Arc::new(Histogram::new());
        hs.push((name.to_string(), h.clone()));
        h
    }

    /// Every named histogram, in creation order.
    pub fn histograms(&self) -> Vec<(String, Arc<Histogram>)> {
        self.histograms.read().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_dense_and_idempotent() {
        let acc = Accounting::default();
        let (a, ca) = acc.register("alpha");
        let (b, _) = acc.register("beta");
        let (a2, ca2) = acc.register("alpha");
        assert_eq!(a, DomainId(0));
        assert_eq!(b, DomainId(1));
        assert_eq!(a2, a);
        assert!(Arc::ptr_eq(&ca, &ca2));
        assert_eq!(acc.name(a).as_deref(), Some("alpha"));
        assert!(acc.counters(DomainId(9)).is_none());
    }

    #[test]
    fn histogram_mean_is_exact() {
        let h = Histogram::new();
        for v in [3u64, 5, 10] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 18);
        assert_eq!(h.min(), 3);
        assert_eq!(h.max(), 10);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 1024] {
            h.record(v);
        }
        // 0 → bucket 0; 1 → ≤1; 2,3 → ≤3; 4 → ≤7; 1024 → ≤2047.
        assert_eq!(h.buckets(), vec![(0, 1), (1, 1), (3, 2), (7, 1), (2047, 1)]);
    }

    #[test]
    fn counters_snapshot_reports_activity() {
        let c = DomainCounters::default();
        assert_eq!(c.activity(), 0);
        c.vm_faults.fetch_add(3, Ordering::Relaxed); // ordering: Relaxed — test plumbing, as every recording site.
        c.cpu_ns.fetch_add(100, Ordering::Relaxed); // ordering: Relaxed — test plumbing, as every recording site.
        assert_eq!(c.activity(), 103);
        let snap = c.snapshot();
        assert!(snap.contains(&("vm_faults", 3)));
        assert!(snap.contains(&("cpu_virtual_ns", 100)));
    }
}
