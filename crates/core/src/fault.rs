//! Fault containment policy: the circuit breaker and domain quarantine.
//!
//! The dispatcher (see `dispatch.rs`) turns handler panics and time-bound
//! overruns into typed [`HandlerFault`] records and hands them to a fault
//! sink. This module is the standard sink: a per-handler circuit breaker
//! with a failure budget, escalating to per-domain quarantine.
//!
//! The units are deliberate and mirror the paper's trust structure:
//!
//! * **containment unit = handler** — one faulting handler never takes
//!   down the raise, its siblings, or the kernel;
//! * **recovery unit = domain** — a handler that keeps faulting (N
//!   strikes inside a virtual-time window) is uninstalled; a domain whose
//!   handlers keep tripping is *quarantined*: the dispatcher drops every
//!   handler it installed (rebuild-and-swap, the same path as uninstall)
//!   and the nameserver revokes its exported interfaces;
//! * **supervision via events** — every trip raises `Core.DomainFault`,
//!   dogfooding the dispatcher exactly like `spin-obs` does for
//!   `Obs.Snapshot`: a supervisor extension installs a handler to log,
//!   reinstall a fixed domain, or make the unload permanent.
//!
//! Nothing here advances the virtual clock on the fault-free path; the
//! breaker only runs when a fault has already been delivered.

use crate::dispatch::{Dispatcher, Event, HandlerId};
use crate::identity::Identity;
use crate::nameserver::NameServer;
use spin_check::sync::Mutex;
use spin_check::sync::{Arc, OnceLock, Weak};
use spin_obs::Obs;
use spin_sal::Nanos;
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// What went wrong inside one handler invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// The handler panicked and the unwind was contained.
    Panic {
        /// Best-effort panic message.
        message: String,
    },
    /// The handler exceeded its `time_bound`: either its result was
    /// discarded (synchronous), or the executor aborted its strand at the
    /// deadline (asynchronous).
    TimeBound {
        /// The constraint it was installed under.
        bound: Nanos,
        /// Virtual time it actually consumed.
        elapsed: Nanos,
    },
}

/// One contained handler fault, as delivered to the dispatcher's sink.
#[derive(Debug, Clone)]
pub struct HandlerFault {
    /// The event being raised.
    pub event: String,
    /// The event's dispatcher-internal id.
    pub event_id: u64,
    /// The faulting handler.
    pub handler: HandlerId,
    /// Who installed it — the domain the fault is attributed to.
    pub installer: Identity,
    /// Panic or time-bound overrun.
    pub kind: FaultKind,
    /// Virtual time of delivery (read, never advanced).
    pub at: Nanos,
}

/// The dispatcher's fault notification callback. Invoked with no
/// dispatcher locks held.
pub type FaultSink = Arc<dyn Fn(&HandlerFault) + Send + Sync>;

/// Panic payload used by the executor to unwind a strand that ran past
/// its virtual-time deadline. The dispatcher's async containment wrapper
/// recognizes it and books an abort rather than a fault.
#[derive(Debug, Clone, Copy)]
pub struct DeadlineExceeded {
    /// The virtual time the deadline was set for.
    pub deadline: Nanos,
}

/// Panic payload used by the executor to refuse an operation that gives
/// up the processor (`block`, `sleep`, `yield_now`, `join`,
/// `preempt_point`) inside a run-to-completion strand, which has no stack
/// to park. A handler that reaches one is unwound before the operation
/// has any effect; the dispatcher's per-handler containment books it as a
/// [`FaultKind::Panic`] against the handler's installer.
#[derive(Debug, Clone, Copy)]
pub struct BlockedInStep {
    /// The refused `StrandCtx` operation.
    pub op: &'static str,
}

/// Best-effort extraction of a contained panic's message, for
/// [`FaultKind::Panic`] and every other record of an unwind caught at a
/// containment boundary.
// uncharged: runs only after a fault has been contained; never on the fault-free path.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(p) = payload.downcast_ref::<spin_fault::InjectedPanic>() {
        format!("injected panic at site {}", p.site)
    } else if let Some(p) = payload.downcast_ref::<BlockedInStep>() {
        format!("`{}` inside a run-to-completion strand", p.op)
    } else {
        "opaque panic payload".to_string()
    }
}

/// The failure budget: how much misbehaviour a handler gets before the
/// breaker trips, and how many trips a domain gets before quarantine.
#[derive(Debug, Clone, Copy)]
pub struct ContainmentPolicy {
    /// Faults within `window` that trip the breaker (uninstalling the
    /// handler).
    pub strikes: u32,
    /// The virtual-time window the strikes must fall in.
    pub window: Nanos,
    /// Breaker trips, across all of a domain's handlers, that quarantine
    /// the domain.
    pub trips_to_quarantine: u32,
}

impl Default for ContainmentPolicy {
    fn default() -> Self {
        ContainmentPolicy {
            strikes: 3,
            window: 1_000_000_000, // one virtual second
            trips_to_quarantine: 2,
        }
    }
}

/// Payload of the `Core.DomainFault` event, raised on every breaker trip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainFaultInfo {
    /// The faulting domain (the handler installer's name).
    pub domain: String,
    /// Cumulative trips charged to the domain, this one included.
    pub trips: u32,
    /// Virtual time of the trip.
    pub at: Nanos,
    /// Whether this trip crossed the quarantine threshold.
    pub quarantined: bool,
}

#[derive(Default)]
struct BreakerState {
    /// Fault timestamps per handler, pruned to the policy window.
    strikes: HashMap<HandlerId, VecDeque<Nanos>>,
    /// Breaker trips per domain name.
    trips: HashMap<String, u32>,
    /// Currently quarantined domain names.
    quarantined: BTreeSet<String>,
    /// Total faults delivered (diagnostics).
    faults_seen: u64,
}

/// The standard fault sink: circuit breaker plus quarantine. Create with
/// [`Containment::install`]; the kernel offers
/// [`install_fault_containment`](crate::kernel::Kernel::install_fault_containment)
/// as a convenience that wires the nameserver too.
pub struct Containment {
    dispatcher: Dispatcher,
    nameserver: Option<NameServer>,
    policy: ContainmentPolicy,
    domain_fault: Event<DomainFaultInfo, ()>,
    state: Mutex<BreakerState>,
    /// Per-domain fault attribution for `/metrics`, if wired.
    obs: OnceLock<Obs>,
    /// Faults attributed to each domain since obs was wired.
    attributed: Arc<Mutex<BTreeMap<String, u64>>>,
}

impl Containment {
    /// Installs the breaker as `dispatcher`'s fault sink, defines the
    /// `Core.DomainFault` event (with a no-op primary so it is always
    /// raisable) and, when a nameserver is given, arms export revocation
    /// for quarantined domains.
    pub fn install(
        dispatcher: &Dispatcher,
        nameserver: Option<&NameServer>,
        policy: ContainmentPolicy,
    ) -> Arc<Containment> {
        let (domain_fault, owner) =
            dispatcher.define::<DomainFaultInfo, ()>("Core.DomainFault", Identity::kernel("core"));
        owner
            .set_primary(|_| ())
            .expect("freshly defined Core.DomainFault accepts a primary");
        let containment = Arc::new(Containment {
            dispatcher: dispatcher.clone(),
            nameserver: nameserver.cloned(),
            policy,
            domain_fault,
            state: Mutex::new(BreakerState::default()),
            obs: OnceLock::new(),
            attributed: Arc::new(Mutex::new(BTreeMap::new())),
        });
        // Weak: the dispatcher holds the sink, the containment holds the
        // dispatcher — a strong capture would leak the pair.
        let weak: Weak<Containment> = Arc::downgrade(&containment);
        dispatcher.set_fault_sink(Arc::new(move |fault| {
            if let Some(c) = weak.upgrade() {
                c.on_fault(fault);
            }
        }));
        containment
    }

    /// Wires per-domain fault attribution: every delivered fault counts
    /// against its installer domain, which the obs accounting (and so the
    /// `/metrics` route) reads as `faults`. One-shot.
    pub fn set_obs(&self, obs: &Obs) {
        let _ = self.obs.set(obs.clone());
    }

    /// Counts one fault against `domain`, if obs is wired; a domain's
    /// first fault registers the reader of its count.
    fn attribute(&self, domain: &str) {
        if let Some(obs) = self.obs.get() {
            let mut counts = self.attributed.lock();
            if !counts.contains_key(domain) {
                let (book, name) = (self.attributed.clone(), domain.to_string());
                obs.domain(domain)
                    .read(move |t| t.faults += book.lock()[&name]);
            }
            *counts.entry(domain.to_string()).or_default() += 1;
        }
    }

    /// The `Core.DomainFault` event — supervisors install handlers here.
    pub fn domain_fault_event(&self) -> &Event<DomainFaultInfo, ()> {
        &self.domain_fault
    }

    /// Whether `domain` is quarantined.
    pub fn is_quarantined(&self, domain: &str) -> bool {
        self.state.lock().quarantined.contains(domain)
    }

    /// Currently quarantined domains, sorted (`BTreeSet` key order).
    pub fn quarantined(&self) -> Vec<String> {
        self.state.lock().quarantined.iter().cloned().collect()
    }

    /// Breaker trips charged to `domain` so far.
    pub fn trips(&self, domain: &str) -> u32 {
        self.state.lock().trips.get(domain).copied().unwrap_or(0)
    }

    /// Total faults delivered to the breaker.
    pub fn faults_seen(&self) -> u64 {
        self.state.lock().faults_seen
    }

    /// Accounts a fault contained *outside* the dispatcher — e.g. a
    /// hot-swap state transfer that panicked and was unwound by the swap
    /// coordinator. The fault is attributed to `domain` in the obs
    /// accounting (the `spin_faults{domain=...}` series in `/metrics`)
    /// and counted in `faults_seen`. No breaker strike is charged: there
    /// is no installed handler to strike, and the caller's rollback *is*
    /// the containment action.
    pub fn note_external_fault(&self, domain: &Identity) {
        self.attribute(domain.name());
        self.state.lock().faults_seen += 1;
    }

    /// Reports a resource-overload escalation from the quota ledger
    /// (see [`crate::QuotaLedger`]): the breach is attributed to `domain` in
    /// the obs accounting and counted as an external fault, a breaker
    /// trip is charged, and `Core.DomainFault` is raised so a supervisor
    /// (e.g. the swap supervisor's fallback machinery) can respond —
    /// typically by swapping the domain to a degraded-mode build. With
    /// `quarantine` set the domain is additionally quarantined: its
    /// handlers are purged and its exports revoked, exactly the breaker's
    /// own quarantine path. Idempotent for an already-quarantined domain.
    pub(crate) fn report_overload(&self, domain: &Identity, at: Nanos, quarantine: bool) {
        self.note_external_fault(domain);
        let trips = {
            let mut st = self.state.lock();
            if st.quarantined.contains(domain.name()) {
                return; // already contained; stragglers are no-ops
            }
            let entry = st.trips.entry(domain.name().to_string()).or_insert(0);
            *entry += 1;
            let trips = *entry;
            if quarantine {
                st.quarantined.insert(domain.name().to_string());
            }
            trips
        };
        if quarantine {
            self.dispatcher.purge_installer(domain);
            if let Some(ns) = &self.nameserver {
                let _ = ns.revoke_exports(domain);
            }
        }
        let _ = self.domain_fault.raise(DomainFaultInfo {
            domain: domain.name().to_string(),
            trips,
            at,
            quarantined: quarantine,
        });
    }

    /// The sink: account the fault, charge a strike, and trip/quarantine
    /// when the budget is exhausted. Breaker actions (uninstall, purge,
    /// revoke, the `Core.DomainFault` raise) run *after* the breaker
    /// mutex is dropped, so supervisor handlers may re-enter freely.
    fn on_fault(&self, fault: &HandlerFault) {
        self.attribute(fault.installer.name());
        let domain = fault.installer.name().to_string();
        let tripped = {
            let mut st = self.state.lock();
            st.faults_seen += 1;
            if st.quarantined.contains(&domain) {
                // Stragglers from in-flight raises; already contained.
                return;
            }
            let strikes = st.strikes.entry(fault.handler).or_default();
            strikes.push_back(fault.at);
            let cutoff = fault.at.saturating_sub(self.policy.window);
            while strikes.front().is_some_and(|&t| t < cutoff) {
                strikes.pop_front();
            }
            if (strikes.len() as u32) < self.policy.strikes {
                None
            } else {
                st.strikes.remove(&fault.handler);
                let trips = st.trips.entry(domain.clone()).or_insert(0);
                *trips += 1;
                let trips = *trips;
                let quarantine = trips >= self.policy.trips_to_quarantine;
                if quarantine {
                    st.quarantined.insert(domain.clone());
                }
                Some((trips, quarantine))
            }
        };
        let Some((trips, quarantine)) = tripped else {
            return;
        };
        if quarantine {
            self.dispatcher.purge_installer(&fault.installer);
            if let Some(ns) = &self.nameserver {
                let _ = ns.revoke_exports(&fault.installer);
            }
        } else {
            self.dispatcher
                .remove_handler_by_id(fault.event_id, fault.handler);
        }
        let _ = self.domain_fault.raise(DomainFaultInfo {
            domain,
            trips,
            at: fault.at,
            quarantined: quarantine,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::Dispatcher;
    use spin_check::sync::{AtomicU32, Ordering};

    fn panicky_dispatcher() -> (Dispatcher, Event<u32, u32>, Arc<Containment>) {
        let d = Dispatcher::unmetered();
        let c = Containment::install(
            &d,
            None,
            ContainmentPolicy {
                strikes: 2,
                window: u64::MAX,
                trips_to_quarantine: 2,
            },
        );
        let (ev, owner) = d.define::<u32, u32>("E", Identity::kernel("k"));
        owner.set_primary(|x| *x).unwrap();
        (d, ev, c)
    }

    #[test]
    fn breaker_uninstalls_after_the_strike_budget() {
        let (d, ev, c) = panicky_dispatcher();
        ev.install(Identity::extension("flaky"), |_| panic!("boom"))
            .unwrap();
        assert_eq!(d.handler_count(&ev).unwrap(), 2);
        assert_eq!(ev.raise(1), Ok(1), "primary result survives the fault");
        assert_eq!(d.handler_count(&ev).unwrap(), 2, "one strike: still in");
        assert_eq!(ev.raise(2), Ok(2));
        assert_eq!(d.handler_count(&ev).unwrap(), 1, "second strike trips");
        assert_eq!(c.trips("flaky"), 1);
        assert!(!c.is_quarantined("flaky"));
        assert_eq!(c.faults_seen(), 2);
    }

    #[test]
    fn repeated_trips_quarantine_the_domain_and_raise_domain_fault() {
        let (d, ev, c) = panicky_dispatcher();
        let trips_seen = Arc::new(AtomicU32::new(0));
        let t2 = trips_seen.clone();
        c.domain_fault_event()
            .install(Identity::extension("supervisor"), move |info| {
                t2.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
                assert_eq!(info.domain, "flaky");
            })
            .unwrap();
        let flaky = Identity::extension("flaky");
        ev.install(flaky.clone(), |_| panic!("boom")).unwrap();
        ev.raise(0).unwrap();
        ev.raise(0).unwrap(); // trip 1: uninstalled
        ev.install(flaky.clone(), |_| panic!("boom again")).unwrap();
        ev.raise(0).unwrap();
        ev.raise(0).unwrap(); // trip 2: quarantine
        assert_eq!(c.trips("flaky"), 2);
        assert!(c.is_quarantined("flaky"));
        assert_eq!(c.quarantined(), vec!["flaky".to_string()]);
        assert_eq!(trips_seen.load(Ordering::Relaxed), 2); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
        assert_eq!(d.handler_count(&ev).unwrap(), 1, "purged on quarantine");
    }

    #[test]
    fn quarantine_revokes_nameserver_exports() {
        let d = Dispatcher::unmetered();
        let ns = NameServer::new();
        let flaky = Identity::extension("flaky");
        ns.register(
            "FlakyService",
            crate::domain::Domain::create_from_module("flaky", vec![]),
            flaky.clone(),
        )
        .unwrap();
        let c = Containment::install(
            &d,
            Some(&ns),
            ContainmentPolicy {
                strikes: 1,
                window: u64::MAX,
                trips_to_quarantine: 1,
            },
        );
        let (ev, owner) = d.define::<(), u32>("E", Identity::kernel("k"));
        owner.set_primary(|_| 0).unwrap();
        ev.install(flaky, |_| panic!("boom")).unwrap();
        ev.raise(()).unwrap();
        assert!(c.is_quarantined("flaky"));
        assert!(
            !ns.names().contains(&"FlakyService".to_string()),
            "quarantine must revoke the domain's exports"
        );
    }

    #[test]
    fn strikes_outside_the_window_do_not_accumulate() {
        let d = Dispatcher::unmetered();
        let clock = d.clock().clone();
        let c = Containment::install(
            &d,
            None,
            ContainmentPolicy {
                strikes: 2,
                window: 100,
                trips_to_quarantine: 99,
            },
        );
        let (ev, owner) = d.define::<(), u32>("E", Identity::kernel("k"));
        owner.set_primary(|_| 0).unwrap();
        ev.install(Identity::extension("slowburn"), |_| panic!("x"))
            .unwrap();
        ev.raise(()).unwrap();
        clock.advance(1_000); // the first strike ages out of the window
        ev.raise(()).unwrap();
        assert_eq!(c.trips("slowburn"), 0, "strikes were never concurrent");
        assert_eq!(d.handler_count(&ev).unwrap(), 2);
    }
}
