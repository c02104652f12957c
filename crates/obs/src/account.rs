//! Per-domain resource accounting: totals read from the subsystems' own
//! books, keyed by [`DomainId`], and histograms.
//!
//! The paper argues that in-kernel extensions must be *accountable* — the
//! kernel has to know what each logical protection domain is consuming.
//! Each subsystem already counts what it does, so a domain keeps no
//! counters: each subsystem wired to it registers a `Reader` of its book,
//! and a domain's row is the sum of its readers at render time. Nothing
//! here touches the virtual clock (the cost-model invariant, DESIGN.md).

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

/// One domain's totals at one reading: what its readers added. Each field
/// is rendered as `spin_<field>{domain="..."}`, in declaration order; all
/// are cumulative but `pages_held`, a gauge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Virtual nanoseconds charged to the clock since the domain was wired.
    pub cpu_virtual_ns: u64,
    /// Events raised through the dispatcher.
    pub events_raised: u64,
    /// A walk's synchronous and asynchronous handler calls, and direct calls.
    pub handlers_run: u64,
    /// Guards evaluated.
    pub guards_evaluated: u64,
    /// Context switches performed.
    pub context_switches: u64,
    /// VM faults delivered.
    pub vm_faults: u64,
    /// Garbage collections completed.
    pub gc_collections: u64,
    /// Live bytes after each collection, summed over collections.
    pub gc_bytes_surviving: u64,
    /// Pages currently held.
    pub pages_held: u64,
    /// Bytes sent on the wire.
    pub bytes_sent: u64,
    /// Bytes received from the wire.
    pub bytes_received: u64,
    /// Frames sent.
    pub packets_sent: u64,
    /// Frames received.
    pub packets_received: u64,
    /// Syscalls trapped.
    pub syscalls: u64,
    /// Handler faults the containment layer attributed to the domain.
    pub faults: u64,
    /// RPC retransmits and transmit retries.
    pub retries: u64,
    /// Slow-path raises a compiled (key-indexed) plan served.
    pub dispatch_compiled_raises: u64,
    /// Guard calls the compiled plan avoided.
    pub dispatch_compiled_elided: u64,
    /// Raises delivered in `raise_batch` bursts.
    pub dispatch_batched: u64,
}

impl Tally {
    /// `(metric name, value)` pairs, in exposition order.
    pub(crate) fn rows(&self) -> [(&'static str, u64); 19] {
        [
            ("cpu_virtual_ns", self.cpu_virtual_ns),
            ("events_raised", self.events_raised),
            ("handlers_run", self.handlers_run),
            ("guards_evaluated", self.guards_evaluated),
            ("context_switches", self.context_switches),
            ("vm_faults", self.vm_faults),
            ("gc_collections", self.gc_collections),
            ("gc_bytes_surviving", self.gc_bytes_surviving),
            ("pages_held", self.pages_held),
            ("bytes_sent", self.bytes_sent),
            ("bytes_received", self.bytes_received),
            ("packets_sent", self.packets_sent),
            ("packets_received", self.packets_received),
            ("syscalls", self.syscalls),
            ("faults", self.faults),
            ("retries", self.retries),
            ("dispatch_compiled_raises", self.dispatch_compiled_raises),
            ("dispatch_compiled_elided", self.dispatch_compiled_elided),
            ("dispatch_batched", self.dispatch_batched),
        ]
    }

    /// Sum of all totals — nonzero iff the domain saw any activity.
    pub fn activity(&self) -> u64 {
        self.rows().iter().map(|(_, v)| v).sum()
    }
}

/// Adds a domain's share of one subsystem's book into a [`Tally`]. It
/// holds the book (an `Arc` the owner shares, or a `Weak`), never an owner
/// that holds the [`Obs`](crate::Obs), so wiring makes no reference cycle.
pub(crate) type Reader = Arc<dyn Fn(&mut Tally) + Send + Sync>;

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
    readers: Vec<Reader>,
}

/// The accounting registry: domains (dense by id) and named histograms.
#[derive(Default)]
pub struct Accounting {
    domains: RwLock<Vec<DomainEntry>>,
    histograms: RwLock<Vec<(String, Arc<Histogram>)>>,
}

impl Accounting {
    /// Registers `name` (or finds it) and returns its id.
    pub fn register(&self, name: &str) -> DomainId {
        let mut domains = self.domains.write();
        if let Some(i) = domains.iter().position(|d| d.name == name) {
            return DomainId(i as u32);
        }
        domains.push(DomainEntry {
            name: name.to_string(),
            readers: Vec::new(),
        });
        DomainId(domains.len() as u32 - 1)
    }

    /// Adds a reader to a registered domain.
    pub(crate) fn add_reader(&self, id: DomainId, reader: Reader) {
        self.domains.write()[id.0 as usize].readers.push(reader);
    }

    /// `id`'s totals now: the sum of its readers (zero if unregistered).
    /// They run with no registry lock held: a reader takes its owner's
    /// locks, and one that upgrades a `Weak` may be the last to drop it.
    pub fn tally(&self, id: DomainId) -> Tally {
        let readers = self
            .domains
            .read()
            .get(id.0 as usize)
            .map(|d| d.readers.clone());
        let mut tally = Tally::default();
        readers.iter().flatten().for_each(|read| read(&mut tally));
        tally
    }

    /// The name registered for `id`.
    pub(crate) fn name(&self, id: DomainId) -> Option<String> {
        self.domains
            .read()
            .get(id.0 as usize)
            .map(|d| d.name.clone())
    }

    /// Every registered domain's name and totals, in id order.
    pub(crate) fn domains(&self) -> Vec<(String, Tally)> {
        let names: Vec<String> = self.domains.read().iter().map(|d| d.name.clone()).collect();
        let ids = (0..).map(DomainId);
        names
            .into_iter()
            .zip(ids)
            .map(|(name, id)| (name, self.tally(id)))
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
    use spin_check::sync::Counter;

    #[test]
    fn registration_is_dense_and_idempotent() {
        let acc = Accounting::default();
        let a = acc.register("alpha");
        let b = acc.register("beta");
        let a2 = acc.register("alpha");
        assert_eq!(a, DomainId(0));
        assert_eq!(b, DomainId(1));
        assert_eq!(a2, a);
        assert_eq!(acc.name(a).as_deref(), Some("alpha"));
        assert_eq!(acc.tally(DomainId(9)), Tally::default());
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
    fn a_domain_reads_the_sum_of_its_readers() {
        let acc = Accounting::default();
        let id = acc.register("vm");
        assert_eq!(acc.tally(id).activity(), 0);
        let book = Arc::new(Counter::new(3));
        let b2 = book.clone();
        acc.add_reader(id, Arc::new(move |t: &mut Tally| t.vm_faults += b2.get()));
        acc.add_reader(id, Arc::new(|t: &mut Tally| t.vm_faults += 1));
        acc.add_reader(
            acc.register("vm"),
            Arc::new(|t: &mut Tally| t.cpu_virtual_ns += 100),
        );
        assert_eq!(acc.tally(id).vm_faults, 4);
        book.add(2);
        let tally = acc.tally(id);
        assert_eq!(tally.activity(), 106, "read at each reading, not copied");
        let rows = tally.rows();
        assert!(rows.contains(&("vm_faults", 6)));
        assert!(rows.contains(&("cpu_virtual_ns", 100)));
    }
}
