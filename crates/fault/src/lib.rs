//! Deterministic fault injection for the SPIN reproduction.
//!
//! The paper's safety story is about *types*: a handler cannot scribble
//! on kernel memory. It says nothing about liveness — a type-safe
//! extension can still panic, spin past its `time_bound`, or fail an
//! allocation. The containment layer in `spin-core` turns those failures
//! into per-handler faults; this crate provides the other half of the
//! story, a way to *provoke* them on demand, deterministically.
//!
//! A [`FaultPlan`] is a seeded table of named injection sites. Each
//! subsystem that participates stores a [`FaultHook`] in the same kind of
//! `OnceLock` it already uses for observability, and calls
//! [`FaultHook::draw`] at its hook point. The draw decides — purely from
//! the seed, the site, and the site's hit ordinal — whether to inject
//! nothing, a panic, a virtual-time delay, or a resource failure. No wall
//! clock, no global RNG state: the same seed and the same workload
//! produce the same injections, which is what lets the chaos suite make
//! exact assertions and lets `fault_invariance.rs` prove that a wired but
//! disabled plan changes nothing.
//!
//! Cost-model contract (DESIGN.md): a draw never advances the virtual
//! clock. When the plan is disabled the draw is one relaxed atomic load;
//! when no hook is installed the subsystem pays nothing at all.

#![forbid(unsafe_code)]

use spin_check::sync::{AtomicBool, AtomicU64, Ordering};
use spin_check::sync::{Mutex, RwLock};
use std::sync::Arc;

/// Virtual nanoseconds (mirrors `spin_sal::Nanos` without the dependency).
pub type Nanos = u64;

/// Well-known site names, one per instrumented subsystem.
pub const SITE_DISPATCH: &str = "core.dispatch";
/// Strand bodies in the executor.
pub const SITE_SCHED: &str = "sched.executor";
/// The disk pager's page-fault handler.
pub const SITE_VM_PAGER: &str = "vm.pager";
/// Kernel heap allocation.
pub const SITE_RT_HEAP: &str = "rt.heap";
/// Network stack transmit.
pub const SITE_NET_STACK: &str = "net.stack";
/// Cross-shard mailbox post (multicore mode).
pub const SITE_MAILBOX: &str = "sal.mailbox";
/// Hot-swap state transfer (one draw per swap attempt, inside the
/// transfer's unwind containment — a panic here exercises rollback).
pub const SITE_SWAP: &str = "swap.transfer";
/// Quota admission gate (one draw per metered raise): a `Fail` is a
/// spurious throttle, a `Delay` is a delayed budget release (the window
/// keeps the charge that much longer), a `Panic` is contained at the
/// admission edge and counted as a throttle.
pub const SITE_QUOTA: &str = "core.quota";

/// One injected outcome, decided by [`FaultHook::draw`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injection {
    /// Unwind the current invocation (the site calls [`FaultHook::fire_panic`]).
    Panic,
    /// Charge this many virtual nanoseconds before proceeding — enough to
    /// blow a `time_bound` when the site is a dispatched handler.
    Delay(Nanos),
    /// Fail the operation with the site's natural error (allocation
    /// failure, transmit error, `FaultAction::Fail`, ...).
    Fail,
}

/// The panic payload used for injected panics, so containment layers and
/// tests can tell an injection from an organic bug.
#[derive(Debug, Clone)]
pub struct InjectedPanic {
    /// The site that fired.
    pub site: &'static str,
}

/// Per-site injection rates. `*_every = n` fires roughly once per `n`
/// draws (decided deterministically from the seed); 0 disables that kind.
/// Priority on collision: panic, then delay, then fail.
#[derive(Debug, Clone, Copy, Default)]
pub struct SiteConfig {
    /// Inject a panic about once per this many draws (0 = never).
    pub panic_every: u64,
    /// Inject a delay about once per this many draws (0 = never).
    pub delay_every: u64,
    /// Virtual nanoseconds charged by an injected delay.
    pub delay_ns: Nanos,
    /// Fail the operation about once per this many draws (0 = never).
    pub fail_every: u64,
}

impl SiteConfig {
    /// A config that panics on every draw — the deterministic hammer the
    /// quarantine tests use.
    pub fn panic_always() -> SiteConfig {
        SiteConfig {
            panic_every: 1,
            ..SiteConfig::default()
        }
    }

    /// A config that fails on every draw — drops every mailbox envelope,
    /// refuses every allocation.
    pub fn fail_always() -> SiteConfig {
        SiteConfig {
            fail_every: 1,
            ..SiteConfig::default()
        }
    }
}

struct SiteState {
    name: &'static str,
    cfg: Mutex<SiteConfig>,
    hits: AtomicU64,
    panics: AtomicU64,
    delays: AtomicU64,
    fails: AtomicU64,
}

/// Counters for one site: draws seen and injections fired, by kind.
/// These are exact, which is how tests reconcile observed faults with
/// injected ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteReport {
    /// The site name.
    pub site: &'static str,
    /// Draws taken while the plan was enabled.
    pub hits: u64,
    /// Panics injected.
    pub panics: u64,
    /// Delays injected.
    pub delays: u64,
    /// Failures injected.
    pub fails: u64,
}

struct PlanInner {
    seed: u64,
    enabled: AtomicBool,
    sites: RwLock<Vec<Arc<SiteState>>>,
}

/// A seeded, shareable fault-injection plan. Clones share state.
#[derive(Clone)]
pub struct FaultPlan {
    inner: Arc<PlanInner>,
}

/// SplitMix64 — a tiny, well-mixed hash so injection decisions depend on
/// seed, site, and hit ordinal but nothing else.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

impl FaultPlan {
    /// A plan with the given seed, enabled, with no sites configured
    /// (every draw is a no-op until [`FaultPlan::configure`]).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            inner: Arc::new(PlanInner {
                seed,
                enabled: AtomicBool::new(true),
                sites: RwLock::new(Vec::new()),
            }),
        }
    }

    /// Arms or disarms the whole plan. Disabled draws cost one relaxed
    /// load and inject nothing.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Release); // ordering: Release — publishes plan edits made before the toggle.
    }

    fn site(&self, name: &'static str) -> Arc<SiteState> {
        {
            let sites = self.inner.sites.read();
            if let Some(s) = sites.iter().find(|s| s.name == name) {
                return s.clone();
            }
        }
        let mut sites = self.inner.sites.write();
        if let Some(s) = sites.iter().find(|s| s.name == name) {
            return s.clone();
        }
        let s = Arc::new(SiteState {
            name,
            cfg: Mutex::new(SiteConfig::default()),
            hits: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            delays: AtomicU64::new(0),
            fails: AtomicU64::new(0),
        });
        sites.push(s.clone());
        s
    }

    /// The hook a subsystem stores in its `OnceLock`. Registers the site
    /// on first use.
    pub fn hook(&self, name: &'static str) -> FaultHook {
        FaultHook {
            plan: self.inner.clone(),
            site: self.site(name),
        }
    }

    /// Sets the injection rates for a site (registering it if needed).
    pub fn configure(&self, name: &'static str, cfg: SiteConfig) {
        *self.site(name).cfg.lock() = cfg;
    }

    /// Exact per-site counters, in registration order.
    pub fn report(&self) -> Vec<SiteReport> {
        self.inner
            .sites
            .read()
            .iter()
            .map(|s| SiteReport {
                site: s.name,
                hits: s.hits.load(Ordering::Acquire), // ordering: Acquire — pairs with the AcqRel draw RMWs for a fresh snapshot.
                panics: s.panics.load(Ordering::Acquire), // ordering: Acquire — pairs with the AcqRel draw RMWs for a fresh snapshot.
                delays: s.delays.load(Ordering::Acquire), // ordering: Acquire — pairs with the AcqRel draw RMWs for a fresh snapshot.
                fails: s.fails.load(Ordering::Acquire), // ordering: Acquire — pairs with the AcqRel draw RMWs for a fresh snapshot.
            })
            .collect()
    }

    /// Total panics injected across all sites.
    pub fn injected_panics(&self) -> u64 {
        self.report().iter().map(|r| r.panics).sum()
    }

    /// Total injections of any kind across all sites.
    pub fn injected_total(&self) -> u64 {
        self.report()
            .iter()
            .map(|r| r.panics + r.delays + r.fails)
            .sum()
    }
}

/// One site's handle into a [`FaultPlan`] — what instrumented subsystems
/// store and draw from. Cheap to clone.
#[derive(Clone)]
pub struct FaultHook {
    plan: Arc<PlanInner>,
    site: Arc<SiteState>,
}

impl FaultHook {
    /// Decides whether to inject at this point. Never touches a clock;
    /// one relaxed load when the plan is disabled.
    #[inline]
    pub fn draw(&self) -> Option<Injection> {
        // ordering: Relaxed — a draw racing the toggle may miss it; draws tolerate staleness.
        if !self.plan.enabled.load(Ordering::Relaxed) {
            return None;
        }
        self.draw_enabled()
    }

    fn draw_enabled(&self) -> Option<Injection> {
        let hit = self.site.hits.fetch_add(1, Ordering::AcqRel); // ordering: AcqRel — the draw index must be totally ordered so schedules replay.
        let cfg = *self.site.cfg.lock();
        let site_salt = mix(self
            .site
            .name
            .bytes()
            .fold(0u64, |a, b| a.wrapping_mul(31).wrapping_add(b as u64)));
        let r = mix(self.plan.seed ^ site_salt ^ hit);
        if cfg.panic_every != 0 && r.is_multiple_of(cfg.panic_every) {
            self.site.panics.fetch_add(1, Ordering::AcqRel); // ordering: AcqRel — outcome tallies stay ordered with the draw index.
            return Some(Injection::Panic);
        }
        if cfg.delay_every != 0 && (r >> 17).is_multiple_of(cfg.delay_every) {
            self.site.delays.fetch_add(1, Ordering::AcqRel); // ordering: AcqRel — outcome tallies stay ordered with the draw index.
            return Some(Injection::Delay(cfg.delay_ns));
        }
        if cfg.fail_every != 0 && (r >> 34).is_multiple_of(cfg.fail_every) {
            self.site.fails.fetch_add(1, Ordering::AcqRel); // ordering: AcqRel — outcome tallies stay ordered with the draw index.
            return Some(Injection::Fail);
        }
        None
    }

    /// Unwinds with the typed [`InjectedPanic`] payload. Call only from
    /// inside a containment region (a dispatcher raise, a strand body).
    pub fn fire_panic(&self) -> ! {
        std::panic::panic_any(InjectedPanic {
            site: self.site.name,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic_for_a_seed() {
        let run = |seed| {
            let plan = FaultPlan::new(seed);
            plan.configure(
                SITE_DISPATCH,
                SiteConfig {
                    panic_every: 3,
                    delay_every: 5,
                    delay_ns: 10,
                    fail_every: 7,
                },
            );
            let hook = plan.hook(SITE_DISPATCH);
            (0..200).map(|_| hook.draw()).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should diverge");
    }

    #[test]
    fn disabled_plans_inject_nothing_and_count_nothing() {
        let plan = FaultPlan::new(1);
        plan.configure(SITE_RT_HEAP, SiteConfig::panic_always());
        plan.set_enabled(false);
        let hook = plan.hook(SITE_RT_HEAP);
        for _ in 0..100 {
            assert_eq!(hook.draw(), None);
        }
        let rep = &plan.report()[0];
        assert_eq!((rep.hits, rep.panics), (0, 0));
    }

    #[test]
    fn counters_reconcile_with_draws() {
        let plan = FaultPlan::new(7);
        plan.configure(
            SITE_NET_STACK,
            SiteConfig {
                panic_every: 4,
                delay_every: 4,
                delay_ns: 99,
                fail_every: 4,
            },
        );
        let hook = plan.hook(SITE_NET_STACK);
        let (mut p, mut d, mut f) = (0, 0, 0);
        for _ in 0..1000 {
            match hook.draw() {
                Some(Injection::Panic) => p += 1,
                Some(Injection::Delay(ns)) => {
                    assert_eq!(ns, 99);
                    d += 1;
                }
                Some(Injection::Fail) => f += 1,
                None => {}
            }
        }
        let rep = &plan.report()[0];
        assert_eq!(rep.hits, 1000);
        assert_eq!((rep.panics, rep.delays, rep.fails), (p, d, f));
        assert!(p > 0 && d > 0 && f > 0, "rates of 1/4 must fire in 1000");
    }

    #[test]
    fn panic_always_fires_every_draw() {
        let plan = FaultPlan::new(0);
        plan.configure(SITE_SCHED, SiteConfig::panic_always());
        let hook = plan.hook(SITE_SCHED);
        for _ in 0..10 {
            assert_eq!(hook.draw(), Some(Injection::Panic));
        }
    }

    #[test]
    fn fire_panic_carries_the_typed_payload() {
        let plan = FaultPlan::new(0);
        let hook = plan.hook(SITE_VM_PAGER);
        let err = std::panic::catch_unwind(|| hook.fire_panic()).unwrap_err();
        let injected = err.downcast::<InjectedPanic>().expect("typed payload");
        assert_eq!(injected.site, SITE_VM_PAGER);
    }
}
