//! `spin-obs`: the in-kernel observability subsystem.
//!
//! SPIN's argument is that services live *in* the kernel and are inspected
//! and extended through typed interfaces (§3–§4). This crate is how the
//! reproduction watches itself do that:
//!
//! * a **flight recorder** ([`Ring`]) — a fixed-capacity,
//!   drop-oldest ring behind one lock, of typed [`TraceRecord`]s (event
//!   raises, handler and guard outcomes, context switches, VM faults, GC
//!   pauses, packet rx/tx, syscall traps), each stamped with virtual time
//!   and the originating [`DomainId`];
//! * **per-domain accounting** ([`Accounting`]) — per-`DomainId` totals
//!   read from the books the dispatcher, executor, VM, GC, network stack
//!   and UNIX server already keep (each registers a reader when it is
//!   wired, [`ObsHook::read`]), and histograms;
//! * **renderings** ([`Obs::dump`], [`Obs::render_prometheus`]) — the
//!   human dump and the Prometheus text served by the in-kernel
//!   `/metrics` HTTP extension.
//!
//! **The cost-model invariant.** Nothing in this crate touches the virtual
//! clock, and nothing counts on a subsystem's hot path: a domain's totals
//! are read when `/metrics` renders. Trace points in the instrumented
//! crates gate on a single relaxed atomic load (the same `has_hook`
//! pattern as `Clock::advance`), so every table and scaling series in
//! EXPERIMENTS.md is byte-identical with the recorder on or off —
//! enforced by `obs_invariance` in `spin-bench` and by
//! `scripts/verify.sh`.
//!
//! The crate sits *below* the kernel crates (it depends on nothing but
//! `parking_lot`) so that every layer from the runtime up can be
//! instrumented; the kernel exports it back out as a SPIN interface
//! through the nameserver (the `ObsService` domain registered by
//! `Kernel::install_obs`) and as the `Obs.Snapshot` dispatcher event.

#![forbid(unsafe_code)]

mod account;
mod render;
mod ring;

pub use account::{Accounting, DomainId, Histogram, Tally};
pub use ring::{Ring, TraceKind, TraceRecord};

use spin_check::sync::{Arc, OnceLock, RwLock};
use spin_check::sync::{AtomicBool, Ordering};

/// Virtual nanoseconds (mirrors `spin_sal::Nanos`; kept local so this
/// crate can sit below the hardware layer).
pub type Nanos = u64;

/// A source of virtual-time stamps for trace records, installed at wiring
/// time (typically `move || clock.now()`).
pub type TimeSource = Arc<dyn Fn() -> Nanos + Send + Sync>;

/// A registered external metric: read on demand at render time.
type Gauge = (String, Arc<dyn Fn() -> u64 + Send + Sync>);

struct ObsInner {
    recording: AtomicBool,
    ring: Ring,
    accounting: Accounting,
    time: OnceLock<TimeSource>,
    gauges: RwLock<Vec<Gauge>>,
}

/// The observability subsystem handle. Cheap to clone; all state is
/// shared.
#[derive(Clone)]
pub struct Obs {
    inner: Arc<ObsInner>,
}

impl Obs {
    /// Creates the subsystem with a flight recorder of `capacity` records
    /// (recording starts enabled). The well-known kernel subsystems are
    /// pre-registered, so their ids are valid immediately.
    pub fn new(capacity: usize) -> Obs {
        let obs = Obs {
            inner: Arc::new(ObsInner {
                recording: AtomicBool::new(true),
                ring: Ring::new(capacity),
                accounting: Accounting::default(),
                time: OnceLock::new(),
                gauges: RwLock::new(Vec::new()),
            }),
        };
        for (i, name) in account::WELL_KNOWN.iter().enumerate() {
            let id = obs.inner.accounting.register(name);
            debug_assert_eq!(id, DomainId(i as u32));
        }
        obs
    }

    /// Installs the virtual-time source for record stamps. May be called
    /// once; later calls are ignored (records are stamped 0 before this).
    pub fn set_time_source(&self, source: TimeSource) {
        let _ = self.inner.time.set(source);
    }

    /// Current virtual time per the installed source (0 if none).
    pub(crate) fn now(&self) -> Nanos {
        self.inner.time.get().map_or(0, |t| t())
    }

    /// Turns the flight recorder on or off. Accounting is unaffected;
    /// neither state charges virtual time.
    pub fn set_recording(&self, on: bool) {
        self.inner.recording.store(on, Ordering::Release); // ordering: Release — ring/accounting setup is visible before recording flips on.
    }

    /// Whether the flight recorder accepts records — one relaxed load.
    #[inline]
    pub(crate) fn is_recording(&self) -> bool {
        self.inner.recording.load(Ordering::Relaxed) // ordering: Relaxed — a stale read only delays or extends recording by one event.
    }

    /// The flight recorder ring.
    pub fn ring(&self) -> &Ring {
        &self.inner.ring
    }

    /// The accounting registry.
    pub fn accounting(&self) -> &Accounting {
        &self.inner.accounting
    }

    /// Registers an external metric read on demand at render time. `name`
    /// is the exposition suffix after `spin_` and may carry a label set
    /// (e.g. `shard_mail_pending{shard="2"}`). Subsystems whose books do
    /// not fit the per-domain [`Tally`] block — the multicore barrier,
    /// per-shard mailboxes — publish through this.
    pub fn register_gauge(&self, name: &str, read: impl Fn() -> u64 + Send + Sync + 'static) {
        self.inner
            .gauges
            .write()
            .push((name.to_string(), Arc::new(read)));
    }

    /// Registers (or finds) a domain and returns a hook handle for it —
    /// what the instrumented subsystems store in their `OnceLock`s.
    pub fn domain(&self, name: &str) -> ObsHook {
        ObsHook {
            obs: self.clone(),
            domain: self.inner.accounting.register(name),
        }
    }

    /// Drains the recorder and renders the human-readable dump.
    pub fn dump(&self) -> String {
        let records = self.inner.ring.drain();
        render::dump(&self.inner.accounting, &records)
    }

    /// Renders the Prometheus-style accounting exposition.
    pub fn render_prometheus(&self) -> String {
        render::prometheus(self)
    }
}

/// A per-subsystem hook handle: the obs facade plus the subsystem's
/// pre-resolved domain id, so the hot path does no registry lookups.
#[derive(Clone)]
pub struct ObsHook {
    obs: Obs,
    /// The subsystem's domain id (stamped into its trace records).
    pub domain: DomainId,
}

impl ObsHook {
    /// Registers a reader of the subsystem's own book, which adds its share
    /// into the domain's [`Tally`] at each rendering. Register one per
    /// book: two readers of one book count it twice.
    pub fn read(&self, reader: impl Fn(&mut Tally) + Send + Sync + 'static) {
        self.obs
            .inner
            .accounting
            .add_reader(self.domain, Arc::new(reader));
    }

    /// The obs facade this hook feeds.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Writes a trace record stamped with the current virtual time, if
    /// recording. Never touches the virtual clock.
    #[inline]
    pub fn trace(&self, kind: TraceKind, a: u64, b: u64) {
        if self.obs.is_recording() {
            self.obs.inner.ring.push(TraceRecord {
                time: self.obs.now(),
                domain: self.domain,
                kind,
                a,
                b,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spin_check::sync::AtomicU64;

    #[test]
    fn hooks_stamp_domain_and_time() {
        let obs = Obs::new(8);
        let t = Arc::new(AtomicU64::new(0));
        let t2 = t.clone();
        obs.set_time_source(Arc::new(move || t2.load(Ordering::Acquire))); // ordering: test plumbing; mirrors the production pairing under test.
        let net = obs.domain("net");
        assert_eq!(net.domain, DomainId::NET);
        t.store(777, Ordering::Release); // ordering: test plumbing; mirrors the production pairing under test.
        net.trace(TraceKind::PacketTx, 60, 0);
        let recs = obs.ring().drain();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].time, 777);
        assert_eq!(recs[0].domain, DomainId::NET);
        assert_eq!(recs[0].kind, TraceKind::PacketTx);
    }

    #[test]
    fn recording_toggle_gates_the_ring_but_not_accounting() {
        let obs = Obs::new(8);
        let hook = obs.domain("vm");
        let faults = Arc::new(AtomicU64::new(0));
        let book = faults.clone();
        hook.read(move |t| t.vm_faults += book.load(Ordering::Relaxed)); // ordering: Relaxed — test plumbing; single-threaded.
        obs.set_recording(false);
        assert!(!obs.is_recording());
        hook.trace(TraceKind::VmFault, 0x1000, 1);
        faults.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — test plumbing; single-threaded.
        assert_eq!(obs.ring().pushed(), 0);
        assert_eq!(obs.accounting().tally(hook.domain).vm_faults, 1);
        obs.set_recording(true);
        hook.trace(TraceKind::VmFault, 0x2000, 1);
        assert_eq!(obs.ring().pushed(), 1);
    }
}
