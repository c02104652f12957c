//! Property tests for the guard-set compiler: for arbitrary mixes of
//! key-matchable and opaque guards, a compiled dispatcher selects exactly
//! the handler set a sequential (all-opaque) dispatcher selects, charges
//! identical virtual time, and accounts identical guard evaluations —
//! including across install/uninstall churn in the middle of a raise
//! stream.

use proptest::prelude::*;
use spin_core::{
    Constraints, DispatchError, Dispatcher, Event, EventStats, GuardSpec, HandlerMode, HoldStats,
    Identity, InstallDecision, KeyFn, QuotaLedger, QuotaSpec,
};
use spin_obs::ring::TraceRecord;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One handler's guard in model form; `to_spec` produces the structured
/// (compilable) guard and `matches` is the reference predicate.
#[derive(Debug, Clone)]
enum GuardModel {
    Eq(u64),
    Range(u64, u64),
    /// `value % divisor == 0` — never expressible as a key guard.
    OpaqueMod(u64),
}

impl GuardModel {
    fn matches(&self, value: u64) -> bool {
        match self {
            GuardModel::Eq(v) => value == *v,
            GuardModel::Range(lo, hi) => {
                let (lo, hi) = (*lo.min(hi), *lo.max(hi));
                lo <= value && value <= hi
            }
            GuardModel::OpaqueMod(d) => value.is_multiple_of(*d),
        }
    }

    fn to_spec(&self, key: &KeyFn<u64>) -> GuardSpec<u64> {
        match self {
            GuardModel::Eq(v) => GuardSpec::KeyEq(key.clone(), *v),
            GuardModel::Range(lo, hi) => GuardSpec::KeyRange(key.clone(), *lo.min(hi), *lo.max(hi)),
            GuardModel::OpaqueMod(d) => {
                let d = *d;
                GuardSpec::Opaque(Arc::new(move |x: &u64| x.is_multiple_of(d)))
            }
        }
    }

    /// The same predicate as an opaque closure — the sequential baseline.
    fn to_opaque(&self) -> GuardSpec<u64> {
        let model = self.clone();
        GuardSpec::Opaque(Arc::new(move |x: &u64| model.matches(*x)))
    }
}

fn guard_model() -> impl Strategy<Value = GuardModel> {
    prop_oneof![
        (0u64..32).prop_map(GuardModel::Eq),
        (0u64..32, 0u64..32).prop_map(|(a, b)| GuardModel::Range(a, b)),
        (1u64..7).prop_map(GuardModel::OpaqueMod),
    ]
}

/// What a plan is made of besides its guards: the inputs that steer the
/// walk onto each side of its three allocation decisions.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// A sum reducer (the walk keeps every result in a `Vec`) or the
    /// default reduction (it keeps the last one).
    reducer: bool,
    /// The handler installed asynchronous, if any — the raise then shares
    /// its arguments behind an `Arc` instead of lending them.
    async_slot: Option<usize>,
    /// Wire an obs hook: key misses are replayed one by one, and the trace
    /// streams of two rigs can be compared.
    obs: bool,
}

/// A key outside [`guard_model`]'s range, for the crowd below.
const CROWD_KEY: u64 = 35;

/// Appends `crowd` handlers keyed on [`CROWD_KEY`] — with more than seven
/// of them a raise of that key selects past the walk's inline buffer — and
/// makes sure the stream raises it.
fn add_crowd(models: &mut Vec<GuardModel>, stream: &mut Vec<u64>, crowd: usize) {
    models.extend(std::iter::repeat_n(GuardModel::Eq(CROWD_KEY), crowd));
    if crowd > 0 {
        stream.insert(0, CROWD_KEY);
        stream.push(CROWD_KEY);
    }
}

fn owner_id() -> Identity {
    Identity::kernel("m")
}

/// A dispatcher/event pair whose handlers report their index as a bit, so
/// a sum reducer identifies the exact selected handler set and the default
/// reduction the last handler run.
struct Rig {
    d: Dispatcher,
    ev: Event<u64, u64>,
    /// How many times the asynchronous handler ran.
    async_runs: Arc<AtomicU64>,
    obs: Option<spin_obs::Obs>,
}

impl Rig {
    /// Everything traced so far (empty when obs is not wired).
    fn trace(&self) -> Vec<TraceRecord> {
        self.obs.as_ref().map_or(Vec::new(), |o| o.ring().drain())
    }
}

fn build_rig(
    models: &[GuardModel],
    structured: bool,
    shape: Shape,
) -> (Rig, Vec<spin_core::HandlerId>) {
    let d = Dispatcher::unmetered();
    let obs = shape.obs.then(|| {
        let obs = spin_obs::Obs::new(1 << 16);
        let clock = d.clock().clone();
        obs.set_time_source(Arc::new(move || clock.now()));
        d.set_obs(obs.domain("dispatcher"));
        obs
    });
    let (ev, owner) = d.define::<u64, u64>("E", owner_id());
    owner.set_primary(|_| 0).expect("fresh");
    if shape.reducer {
        owner.set_reducer(|rs| rs.into_iter().sum()).expect("fresh");
    }
    // The owner's policy is what makes a handler asynchronous.
    owner
        .set_auth(|req| InstallDecision::Allow {
            owner_guard: None,
            constraints: (req.installer.name() == "async").then_some(Constraints {
                mode: HandlerMode::Asynchronous,
                time_bound: None,
            }),
        })
        .expect("fresh");
    let async_runs = Arc::new(AtomicU64::new(0));
    let key = KeyFn::new(|x: &u64| *x);
    let ids = models
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let bit = 1u64 << i;
            let spec = if structured {
                m.to_spec(&key)
            } else {
                m.to_opaque()
            };
            if shape.async_slot == Some(i) {
                let runs = async_runs.clone();
                ev.install_specs(Identity::extension("async"), vec![spec], move |_: &u64| {
                    runs.fetch_add(1, Ordering::Relaxed);
                    bit
                })
            } else {
                ev.install_specs(Identity::extension("h"), vec![spec], move |_: &u64| bit)
            }
            .expect("allowed")
        })
        .collect();
    let rig = Rig {
        d,
        ev,
        async_runs,
        obs,
    };
    (rig, ids)
}

/// The reference model's answer: the bit-sum of the live matching
/// synchronous handlers under a sum reducer, else the last one's bit (the
/// unguarded primary's 0 when none matches).
fn model_result(models: &[GuardModel], live: &[bool], value: u64, shape: Shape) -> u64 {
    let mut selected = models
        .iter()
        .enumerate()
        .filter(|(i, m)| live[*i] && m.matches(value) && shape.async_slot != Some(*i))
        .map(|(i, _)| 1u64 << i);
    if shape.reducer {
        selected.sum()
    } else {
        selected.next_back().unwrap_or(0)
    }
}

/// Whether the model's asynchronous handler runs on a raise of `value`.
fn model_async_runs(models: &[GuardModel], live: &[bool], value: u64, shape: Shape) -> u64 {
    shape
        .async_slot
        .is_some_and(|i| live[i] && models[i].matches(value))
        .into()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any guard mix and raise stream, compiled and sequential
    /// dispatch agree on the handler set, the virtual clock, and the
    /// guard-evaluation count — before and after mid-stream uninstalls
    /// and a mid-stream install.
    #[test]
    fn compiled_dispatch_equals_sequential_dispatch(
        models in prop::collection::vec(guard_model(), 1..10),
        stream in prop::collection::vec(0u64..40, 1..20),
        churn_at in 0usize..20,
        remove_mask in any::<u16>(),
        late_guard in guard_model(),
        reducer in any::<bool>(),
        async_slot in 0usize..14,
        crowd in 0usize..12,
        obs in any::<bool>(),
    ) {
        // `async_slot` past the generated handlers: no asynchronous one.
        let async_slot = Some(async_slot).filter(|&i| i < models.len());
        let shape = Shape { reducer, async_slot, obs };
        let (mut models, mut stream) = (models, stream);
        add_crowd(&mut models, &mut stream, crowd);
        let (compiled, mut compiled_ids) = build_rig(&models, true, shape);
        let (opaque, mut opaque_ids) = build_rig(&models, false, shape);
        let mut live = vec![true; models.len()];
        let mut async_runs = 0;
        let churn_at = churn_at.min(stream.len());

        for (step, &value) in stream.iter().enumerate() {
            if step == churn_at {
                // Mid-stream churn: drop a subset of handlers from both
                // rigs, then add one more (which re-compiles the plan).
                for i in 0..models.len().min(16) {
                    if remove_mask & (1 << i) != 0 && live[i] {
                        live[i] = false;
                        compiled.d
                            .uninstall(&compiled.ev, compiled_ids[i], &owner_id())
                            .expect("owner may remove");
                        opaque.d
                            .uninstall(&opaque.ev, opaque_ids[i], &owner_id())
                            .expect("owner may remove");
                    }
                }
                let bit = 1u64 << models.len();
                let key = KeyFn::new(|x: &u64| *x);
                compiled_ids.push(
                    compiled.ev
                        .install_specs(
                            Identity::extension("h"),
                            vec![late_guard.to_spec(&key)],
                            move |_: &u64| bit,
                        )
                        .expect("allowed"),
                );
                opaque_ids.push(
                    opaque.ev
                        .install_specs(
                            Identity::extension("h"),
                            vec![late_guard.to_opaque()],
                            move |_: &u64| bit,
                        )
                        .expect("allowed"),
                );
                models.push(late_guard.clone());
                live.push(true);
            }
            let expected = model_result(&models, &live, value, shape);
            async_runs += model_async_runs(&models, &live, value, shape);
            let t_c = compiled.d.clock().now();
            let t_o = opaque.d.clock().now();
            prop_assert_eq!(compiled.ev.raise(value), Ok(expected));
            prop_assert_eq!(opaque.ev.raise(value), Ok(expected));
            // Identical virtual charge per raise, not just in aggregate.
            prop_assert_eq!(
                compiled.d.clock().now() - t_c,
                opaque.d.clock().now() - t_o
            );
        }

        let cs = compiled.d.stats(&compiled.ev).expect("stats");
        let os = opaque.d.stats(&opaque.ev).expect("stats");
        prop_assert_eq!(cs.guard_evaluations, os.guard_evaluations);
        prop_assert_eq!(cs.handlers_run, os.handlers_run);
        prop_assert_eq!(cs.raises, os.raises);
        prop_assert_eq!(cs.async_dispatches, async_runs);
        prop_assert_eq!(os.async_dispatches, async_runs);
        prop_assert_eq!(compiled.async_runs.load(Ordering::Relaxed), async_runs);
        prop_assert_eq!(opaque.async_runs.load(Ordering::Relaxed), async_runs);
        // Under obs a compiled walk replays its key misses one by one: the
        // two rigs trace the same records at the same virtual instants.
        prop_assert_eq!(compiled.trace(), opaque.trace());
        // The structured rig actually exercised the compiled path whenever
        // any key-matchable guard was installed.
        let any_indexed = models.iter().any(|m| !matches!(m, GuardModel::OpaqueMod(_)));
        if any_indexed {
            prop_assert!(cs.compiled_raises > 0);
            prop_assert!(cs.guards_elided <= cs.guard_evaluations);
        }
        // The all-opaque rig never compiles.
        prop_assert_eq!(os.compiled_raises, 0);

        // A plan that loses its last keyed handler is an all-scan plan
        // again: same results and charges as the sequential rig, and
        // neither compiled statistic advances any further.
        for i in 0..models.len() {
            if live[i] && !matches!(models[i], GuardModel::OpaqueMod(_)) {
                live[i] = false;
                compiled.d
                    .uninstall(&compiled.ev, compiled_ids[i], &owner_id())
                    .expect("owner may remove");
                opaque.d
                    .uninstall(&opaque.ev, opaque_ids[i], &owner_id())
                    .expect("owner may remove");
            }
        }
        for &value in &stream {
            let expected = model_result(&models, &live, value, shape);
            let t_c = compiled.d.clock().now();
            let t_o = opaque.d.clock().now();
            prop_assert_eq!(compiled.ev.raise(value), Ok(expected));
            prop_assert_eq!(opaque.ev.raise(value), Ok(expected));
            prop_assert_eq!(
                compiled.d.clock().now() - t_c,
                opaque.d.clock().now() - t_o
            );
        }
        let after = compiled.d.stats(&compiled.ev).expect("stats");
        prop_assert_eq!(after.raises, cs.raises + stream.len() as u64);
        prop_assert_eq!(after.compiled_raises, cs.compiled_raises);
        prop_assert_eq!(after.guards_elided, cs.guards_elided);
        prop_assert_eq!(
            after.guard_evaluations,
            opaque.d.stats(&opaque.ev).expect("stats").guard_evaluations
        );
        prop_assert_eq!(compiled.trace(), opaque.trace());
    }

    /// `raise_batch` returns item-for-item what looped `raise` returns
    /// and charges the same virtual time, for any burst — also when a
    /// quota budget refuses part of the burst, and when a closed quiesce
    /// gate parks all of it.
    #[test]
    fn batched_raises_match_looped_raises(
        models in prop::collection::vec(guard_model(), 1..8),
        burst in prop::collection::vec(0u64..40, 1..16),
        vt_budget in 1u64..8_000,
        reducer in any::<bool>(),
        async_slot in 0usize..12,
        crowd in 0usize..12,
        obs in any::<bool>(),
    ) {
        let async_slot = Some(async_slot).filter(|&i| i < models.len());
        let shape = Shape { reducer, async_slot, obs };
        let (mut models, mut burst) = (models, burst);
        add_crowd(&mut models, &mut burst, crowd);
        let build_rig = |models: &[GuardModel], structured| build_rig(models, structured, shape);
        let (batched, _) = build_rig(&models, true);
        let (looped, _) = build_rig(&models, true);
        let live = vec![true; models.len()];

        let t_b = batched.d.clock().now();
        let got = batched.ev.raise_batch(burst.clone());
        let batched_delta = batched.d.clock().now() - t_b;

        let t_l = looped.d.clock().now();
        let want: Vec<_> = burst.iter().map(|&v| looped.ev.raise(v)).collect();
        let looped_delta = looped.d.clock().now() - t_l;

        prop_assert_eq!(&got, &want);
        let mut async_runs = 0;
        for (&value, result) in burst.iter().zip(got) {
            prop_assert_eq!(result, Ok(model_result(&models, &live, value, shape)));
            async_runs += model_async_runs(&models, &live, value, shape);
        }
        prop_assert_eq!(batched_delta, looped_delta);
        let bs = batched.d.stats(&batched.ev).expect("stats");
        let ls = looped.d.stats(&looped.ev).expect("stats");
        prop_assert_eq!(EventStats { batched_raises: 0, ..bs }, ls);
        prop_assert_eq!(bs.raises, burst.len() as u64);
        prop_assert_eq!(bs.batched_raises, burst.len() as u64);
        prop_assert_eq!(bs.async_dispatches, async_runs);
        prop_assert_eq!(batched.async_runs.load(Ordering::Relaxed), async_runs);
        prop_assert_eq!(looped.async_runs.load(Ordering::Relaxed), async_runs);
        // A burst traces what a loop traces, in the same order.
        prop_assert_eq!(batched.trace(), looped.trace());

        // Metered: a window budget that runs out mid-burst. Refusals
        // surface in place, and the ledger cannot tell a burst from a loop.
        let spec = QuotaSpec {
            window: 1_000_000_000,
            window_vt_budget: vt_budget,
            shed_after_trips: 2,
            ..QuotaSpec::default()
        };
        let (batched, _) = build_rig(&models, true);
        let (looped, _) = build_rig(&models, true);
        let batched_cell = QuotaLedger::new().register("tenant", spec);
        let looped_cell = QuotaLedger::new().register("tenant", spec);
        prop_assert_eq!(batched.ev.bind_quota(batched_cell.clone()), Ok(true));
        prop_assert_eq!(looped.ev.bind_quota(looped_cell.clone()), Ok(true));
        let (t_b, t_l) = (batched.d.clock().now(), looped.d.clock().now());
        let got = batched.ev.raise_batch(burst.clone());
        let want: Vec<_> = burst.iter().map(|&v| looped.ev.raise(v)).collect();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(batched.d.clock().now() - t_b, looped.d.clock().now() - t_l);
        let bs = batched.d.stats(&batched.ev).expect("stats");
        let ls = looped.d.stats(&looped.ev).expect("stats");
        prop_assert_eq!(bs.batched_raises, bs.raises);
        prop_assert_eq!(EventStats { batched_raises: 0, ..bs }, ls);
        prop_assert_eq!(bs.raises, got.iter().filter(|r| r.is_ok()).count() as u64);
        prop_assert_eq!(batched_cell.snapshot(), looped_cell.snapshot());
        prop_assert_eq!(batched_cell.snapshot().attempts, burst.len() as u64);

        // Quiesced: both sides park everything, in burst order, and a
        // resume replays the same raises with the same charges.
        let (batched, _) = build_rig(&models, true);
        let (looped, _) = build_rig(&models, true);
        let logs = [&batched, &looped].map(|rig| {
            let log = Arc::new(Mutex::new(Vec::new()));
            let sink = log.clone();
            rig.ev
                .install(Identity::extension("log"), move |x: &u64| {
                    sink.lock().expect("log").push(*x);
                    0
                })
                .expect("allowed");
            rig.ev.quiesce().expect("alive");
            log
        });
        let (t_b, t_l) = (batched.d.clock().now(), looped.d.clock().now());
        let got = batched.ev.raise_batch(burst.clone());
        let want: Vec<_> = burst.iter().map(|&v| looped.ev.raise(v)).collect();
        prop_assert_eq!(&got, &want);
        prop_assert!(got.iter().all(|r| matches!(r, Err(DispatchError::Held { .. }))));
        prop_assert_eq!(batched.d.clock().now(), t_b);
        prop_assert_eq!(batched.ev.hold_stats(), looped.ev.hold_stats());
        prop_assert_eq!(batched.ev.held_len(), Ok(burst.len()));
        prop_assert_eq!(batched.ev.resume(), Ok(burst.len() as u64));
        prop_assert_eq!(looped.ev.resume(), Ok(burst.len() as u64));
        prop_assert_eq!(batched.d.clock().now() - t_b, looped.d.clock().now() - t_l);
        prop_assert_eq!(batched.ev.hold_stats(), looped.ev.hold_stats());
        prop_assert_eq!(
            batched.d.stats(&batched.ev).expect("stats"),
            looped.d.stats(&looped.ev).expect("stats")
        );
        prop_assert_eq!(&*logs[0].lock().expect("log"), &burst);
        prop_assert_eq!(&*logs[1].lock().expect("log"), &burst);

        // Quiesced behind a two-slot hold queue: the burst overflows it
        // mid-way exactly where the loop does, and the hold counters —
        // kept under the hold lock — cannot tell the two apart.
        let (batched, _) = build_rig(&models, true);
        let (looped, _) = build_rig(&models, true);
        for rig in [&batched, &looped] {
            rig.ev.set_hold_capacity(2).expect("alive");
            rig.ev.quiesce().expect("alive");
        }
        let got = batched.ev.raise_batch(burst.clone());
        let want: Vec<_> = burst.iter().map(|&v| looped.ev.raise(v)).collect();
        prop_assert_eq!(&got, &want);
        let parked = burst.len().min(2) as u64;
        let overflowed = burst.len() as u64 - parked;
        for (i, result) in got.iter().enumerate() {
            if i < 2 {
                prop_assert!(matches!(result, Err(DispatchError::Held { .. })));
            } else {
                prop_assert!(matches!(result, Err(DispatchError::HoldOverflow { .. })));
            }
        }
        let parked_stats = HoldStats { held: parked, replayed: 0, overflowed };
        prop_assert_eq!(batched.ev.hold_stats(), Ok(parked_stats));
        prop_assert_eq!(looped.ev.hold_stats(), Ok(parked_stats));
        prop_assert_eq!(batched.ev.resume(), Ok(parked));
        prop_assert_eq!(looped.ev.resume(), Ok(parked));
        let replayed_stats = HoldStats { replayed: parked, ..parked_stats };
        prop_assert_eq!(batched.ev.hold_stats(), Ok(replayed_stats));
        prop_assert_eq!(looped.ev.hold_stats(), Ok(replayed_stats));
        prop_assert_eq!(
            batched.d.stats(&batched.ev).expect("stats"),
            looped.d.stats(&looped.ev).expect("stats")
        );

        // Demotion mid-run: a lone primary is the direct call until it
        // panics — once, on `trip` — and the walk from the next snapshot
        // on. The burst is raised twice; a burst keeps the snapshot it
        // entered with, so the two sides split the same raises between the
        // direct-call and the walk counter differently, and on both every
        // raise is in exactly one of them.
        let trip = burst[burst.len() / 2];
        let [batched, looped] = [(); 2].map(|()| {
            let d = Dispatcher::unmetered();
            let (ev, owner) = d.define::<u64, u64>("F", owner_id());
            let tripped = AtomicBool::new(false);
            owner
                .set_primary(move |x| {
                    if *x == trip && !tripped.swap(true, Ordering::Relaxed) {
                        panic!("trip");
                    }
                    *x
                })
                .expect("fresh");
            (d, ev)
        });
        let got: Vec<_> = (0..2).flat_map(|_| batched.1.raise_batch(burst.clone())).collect();
        let want: Vec<_> = (0..2).flat_map(|_| &burst).map(|&v| looped.1.raise(v)).collect();
        prop_assert_eq!(&got, &want);
        let first_trip = burst.iter().position(|&v| v == trip).expect("drawn from it") as u64;
        let n = burst.len() as u64;
        let bs = batched.0.stats(&batched.1).expect("stats");
        let ls = looped.0.stats(&looped.1).expect("stats");
        prop_assert_eq!((bs.raises, ls.raises), (2 * n, 2 * n));
        prop_assert_eq!(bs.fast_path_raises, n);
        prop_assert_eq!(ls.fast_path_raises, first_trip + 1);
        // Only the walk counts `handlers_run`, and past the trip every
        // walk runs the primary: the raises that were not direct calls.
        prop_assert_eq!(bs.raises - bs.fast_path_raises, bs.handlers_run);
        prop_assert_eq!(ls.raises - ls.fast_path_raises, ls.handlers_run);
    }
}
