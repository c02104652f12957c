//! Property tests for fault containment: for ANY interleaving of clean
//! raises, injected panics, time-bound overruns and reinstalls, the
//! dispatcher's [`EventStats`] fault/abort counters, the circuit
//! breaker's trip/quarantine state and the fault plan's injection
//! counters reconcile exactly against a reference model stepped op by
//! op. Nothing is lost, double-counted, or attributed to the wrong
//! bucket — no matter how the breaker uninstalls and the test reinstalls
//! along the way.

use proptest::prelude::*;
use spin_core::{
    Constraints, Containment, ContainmentPolicy, Dispatcher, HandlerMode, Identity, InstallDecision,
};
use spin_fault::{FaultPlan, Injection, SiteConfig};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

const BOUND: u64 = 1_000;
const STRIKES: u32 = 2;
const TRIPS_TO_QUARANTINE: u32 = 3;

/// What the flaky handler does on its next invocation.
const MODE_OK: u8 = 0;
const MODE_PANIC: u8 = 1;
const MODE_SLOW: u8 = 2;
const OP_REINSTALL: u8 = 3;

/// The reference model: breaker state plus every counter we check.
#[derive(Default)]
struct Model {
    installed: bool,
    strikes: u32,
    trips: u32,
    quarantined: bool,
    raises: u64,
    fast_raises: u64,
    runs: u64,
    faults: u64,
    aborted: u64,
}

impl Model {
    /// A delivered fault (panic or overrun) charges the breaker, unless
    /// the domain is already quarantined (stragglers are only counted).
    fn strike(&mut self) {
        if self.quarantined {
            return;
        }
        self.strikes += 1;
        if self.strikes >= STRIKES {
            self.strikes = 0;
            self.trips += 1;
            self.installed = false;
            if self.trips >= TRIPS_TO_QUARANTINE {
                self.quarantined = true;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fault_and_abort_counters_reconcile_under_any_interleaving(
        ops in prop::collection::vec(0u8..4, 1..60),
    ) {
        let d = Dispatcher::unmetered();
        let clock = d.clock().clone();
        let c = Containment::install(
            &d,
            None,
            ContainmentPolicy {
                strikes: STRIKES,
                window: u64::MAX,
                trips_to_quarantine: TRIPS_TO_QUARANTINE,
            },
        );
        let plan = FaultPlan::new(0xF00D);
        plan.configure("props.flaky", SiteConfig::panic_always());
        let hook = plan.hook("props.flaky");

        let (ev, owner) = d.define::<(), u32>("P", Identity::kernel("k"));
        owner.set_primary(|_| 0).expect("fresh event");
        owner
            .set_auth(|req| {
                // The flaky extension runs synchronously under a time
                // bound; anyone else (nobody here) installs unconstrained.
                if req.installer.name() == "flaky" {
                    InstallDecision::Allow {
                        owner_guard: None,
                        constraints: Some(Constraints {
                            mode: HandlerMode::Synchronous,
                            time_bound: Some(BOUND),
                        }),
                    }
                } else {
                    InstallDecision::Allow { owner_guard: None, constraints: None }
                }
            })
            .expect("fresh event");

        let mode = Arc::new(AtomicU8::new(MODE_OK));
        let flaky = Identity::extension("flaky");
        let install = |ev: &spin_core::Event<(), u32>| {
            let m = mode.clone();
            let h = hook.clone();
            let clk = clock.clone();
            ev.install(flaky.clone(), move |_| {
                match m.load(Ordering::Relaxed) {
                    MODE_PANIC => {
                        if let Some(Injection::Panic) = h.draw() {
                            h.fire_panic()
                        }
                        unreachable!("panic_always never declines")
                    }
                    MODE_SLOW => {
                        clk.charge(spin_sal::Cost::Work, BOUND + 1);
                        2
                    }
                    _ => 1,
                }
            })
            .expect("install the flaky handler")
        };

        let mut model = Model { installed: true, ..Model::default() };
        install(&ev);

        for op in ops {
            if op == OP_REINSTALL {
                // Quarantine never blocks the *install*; it just stops
                // charging strikes. Reinstalling is the supervisor's
                // prerogative (and mistake) to make.
                if !model.installed {
                    install(&ev);
                    model.installed = true;
                }
                continue;
            }
            mode.store(op, Ordering::Relaxed);
            model.raises += 1;
            let expect = if !model.installed {
                // Lone unguarded primary: the snapshot fast path.
                model.fast_raises += 1;
                0
            } else {
                match op {
                    MODE_PANIC => {
                        model.runs += 1; // the primary
                        model.faults += 1;
                        model.strike();
                        0
                    }
                    MODE_SLOW => {
                        // The overrunner completes (runs) but its result
                        // is discarded, so the primary's stands.
                        model.runs += 2;
                        model.aborted += 1;
                        model.strike();
                        0
                    }
                    _ => {
                        model.runs += 2;
                        1 // last-result semantics: the flaky handler's value
                    }
                }
            };
            prop_assert_eq!(ev.raise(()), Ok(expect));
        }

        let stats = d.stats(&ev).expect("event alive");
        prop_assert_eq!(stats.raises, model.raises);
        prop_assert_eq!(stats.fast_path_raises, model.fast_raises);
        prop_assert_eq!(stats.handlers_run, model.runs);
        prop_assert_eq!(stats.handler_faults, model.faults);
        prop_assert_eq!(stats.handlers_aborted, model.aborted);
        prop_assert_eq!(stats.async_dispatches, 0);

        // The breaker's view reconciles too: every panic and every abort
        // was delivered to the sink, trips and quarantine followed the
        // budget exactly, and every contained panic was plan-injected.
        prop_assert_eq!(c.faults_seen(), model.faults + model.aborted);
        prop_assert_eq!(c.trips("flaky"), model.trips);
        prop_assert_eq!(c.is_quarantined("flaky"), model.quarantined);
        prop_assert_eq!(plan.injected_panics(), model.faults);
        prop_assert_eq!(
            d.handler_count(&ev).expect("event alive"),
            if model.installed { 2 } else { 1 }
        );
    }
}
