//! `dispatch_churn` — the dispatcher's write side.
//!
//! 64 events holding 8–64 keyed and opaque-guarded handlers each take a
//! seed-ordered stream of `install_keyed` / `install_guarded` / `uninstall`
//! / `set_reducer` / `quiesce`→`rebind`→`resume` / `destroy`+`define`, with
//! 16 raises after every write so each republished `RaisePlan` is read.
//! op = plan write.
//!
//! *Why:* plan compilation, chain fusion or a single control word make
//! reads cheaper by making writes do more; this is where that cost shows,
//! and it is what the storms' `setup_s` is made of.

use super::{Checks, Counts, Digest, RoundOutput, Window};
use crate::gen::{ChurnHandler, ChurnInputs, ChurnReducer, ChurnWrite, CHURN_RAISES_PER_OP};
use crate::trace::Tracer;
use spin_core::{
    Constraints, Dispatcher, Event, EventOwner, GuardSpec, HandlerId, Identity, InstallSpec, KeyFn,
};
use spin_sal::{Clock, MachineProfile};
use std::hint::black_box;
use std::sync::Arc;

/// Plan writes in one round.
pub const OPS: usize = 80_000;
/// Writes per window slice.
const OPS_PER_SLICE: usize = 320;

/// `(key, x)`: every churned event's argument.
pub type Arg = (u64, u64);

/// One churned event with the handler ids the stream's positions name.
pub struct ChurnEvent {
    pub event: Event<Arg, u64>,
    pub owner: EventOwner<Arg, u64>,
    /// Extension handlers in install order: what `Uninstall(pos)` indexes
    /// and what a swap rebuilds.
    pub installed: Vec<(HandlerId, ChurnHandler)>,
}

/// The dispatcher under churn: shared by the workload and the write probes.
pub struct ChurnRig {
    pub disp: Dispatcher,
    pub clock: Clock,
    pub key: KeyFn<Arg>,
    kernel: Identity,
    ext: Identity,
}

impl ChurnRig {
    pub fn new() -> ChurnRig {
        let clock = Clock::new();
        ChurnRig {
            disp: Dispatcher::new(
                clock.clone(),
                Arc::new(MachineProfile::alpha_axp_3000_400()),
            ),
            clock,
            key: KeyFn::new(|a: &Arg| a.0),
            kernel: Identity::kernel("churn"),
            ext: Identity::extension("churn-ext"),
        }
    }

    /// Defines event `n`: the primary returns `x`, results sum.
    pub fn define(&self, n: usize) -> ChurnEvent {
        let (event, owner) = self
            .disp
            .define::<Arg, u64>(&format!("Churn.E{n}"), self.kernel.clone());
        owner.set_primary(|a| a.1).expect("fresh event");
        set_reducer(&owner, ChurnReducer::Sum);
        ChurnEvent {
            event,
            owner,
            installed: Vec::new(),
        }
    }

    pub fn install(&self, ev: &mut ChurnEvent, h: ChurnHandler) {
        let id = match h {
            ChurnHandler::Keyed(k) => {
                ev.event
                    .install_keyed(self.ext.clone(), &self.key, k, move |a| h.result(a.1))
            }
            ChurnHandler::Guarded(m) => ev.event.install_guarded(
                self.ext.clone(),
                move |a| a.0 % m == 0,
                move |a| h.result(a.1),
            ),
        }
        .expect("install");
        ev.installed.push((id, h));
    }

    pub fn uninstall(&self, ev: &mut ChurnEvent, pos: usize) {
        let (id, _) = ev.installed.remove(pos);
        ev.owner.uninstall(id).expect("uninstall a live handler");
    }

    /// Gate, replace every extension handler by a fresh equivalent in one
    /// plan swap, reopen.
    pub fn swap(&self, ev: &mut ChurnEvent) {
        ev.event.quiesce().expect("quiesce");
        let specs = ev
            .installed
            .iter()
            .map(|&(_, h)| InstallSpec {
                installer: self.ext.clone(),
                handler: Arc::new(move |a: &Arg| h.result(a.1)),
                guards: vec![match h {
                    ChurnHandler::Keyed(k) => GuardSpec::KeyEq(self.key.clone(), k),
                    ChurnHandler::Guarded(m) => {
                        GuardSpec::Opaque(Arc::new(move |a: &Arg| a.0.is_multiple_of(m)))
                    }
                }],
                constraints: Constraints::default(),
            })
            .collect();
        let receipt = ev
            .event
            .rebind(&self.kernel, &self.ext, specs)
            .expect("rebind");
        for (slot, &id) in ev.installed.iter_mut().zip(receipt.installed()) {
            slot.0 = id;
        }
        ev.event.resume().expect("resume");
    }
}

fn set_reducer(owner: &EventOwner<Arg, u64>, r: ChurnReducer) {
    owner
        .set_reducer(move |results| results.into_iter().reduce(|a, b| r.fold(a, b)).unwrap_or(0))
        .expect("set reducer");
}

pub fn run(inputs: &ChurnInputs, tracer: &mut Tracer) -> RoundOutput {
    let setup_span = tracer.begin("setup");
    let rig = ChurnRig::new();
    let mut events: Vec<ChurnEvent> = inputs
        .initial
        .iter()
        .enumerate()
        .map(|(n, handlers)| {
            let mut ev = rig.define(n);
            for &h in handlers {
                rig.install(&mut ev, h);
            }
            ev
        })
        .collect();
    tracer.end(setup_span, inputs.initial.len() as u64);

    let window_span = tracer.begin("window");
    let mut window = Window::open(tracer);
    let mut counts = Counts::default(); // statistics of destroyed events
    let mut errors = 0u64;
    let mut bad_sums = 0u64;
    let mut results_sum = 0u64;
    for (s, slice_ops) in inputs.ops.chunks(OPS_PER_SLICE).enumerate() {
        window.slice(|| {
            for (i, op) in slice_ops.iter().enumerate() {
                let ev = &mut events[op.event];
                match op.write {
                    ChurnWrite::Install(h) => {
                        counts.plan_installs += 1;
                        rig.install(ev, h);
                    }
                    ChurnWrite::Uninstall(pos) => {
                        counts.plan_uninstalls += 1;
                        rig.uninstall(ev, pos);
                    }
                    // A reducer change republishes the same plan: priced
                    // as an install.
                    ChurnWrite::SetReducer(r) => {
                        counts.plan_installs += 1;
                        set_reducer(&ev.owner, r);
                    }
                    ChurnWrite::Swap => {
                        counts.plan_rebinds += 1;
                        rig.swap(ev);
                    }
                    ChurnWrite::Redefine => {
                        // Primary and reducer: two republishes.
                        counts.plan_installs += 2;
                        counts.add_event(rig.disp.stats(&ev.event).expect("alive"));
                        rig.disp
                            .destroy(&ev.event, &rig.kernel)
                            .expect("destroy by owner");
                        *ev = rig.define(op.event);
                    }
                }
                let base = ((s * OPS_PER_SLICE + i) * CHURN_RAISES_PER_OP) as u64;
                let mut sum = 0u64;
                for (j, &key) in op.keys.iter().enumerate() {
                    match ev.event.raise(black_box((u64::from(key), base + j as u64))) {
                        Ok(r) => sum = sum.wrapping_add(r),
                        Err(_) => errors += 1,
                    }
                }
                bad_sums += u64::from(sum != op.expect_sum);
                results_sum = results_sum.wrapping_add(sum);
            }
            slice_ops.len() as u64
        });
    }
    let (window_opened, window_ns, slices) = window.close();
    let total = inputs.ops.len() as u64;
    tracer.end(window_span, total);

    let span = tracer.begin("check");
    let mut checks = Checks::default();
    let mut digest = Digest::default();
    for (n, (ev, end)) in events.iter().zip(&inputs.end).enumerate() {
        // The primary is one handler more than the extension handlers.
        checks.eq(
            &format!("event {n}: handler_count reconciles"),
            rig.disp.handler_count(&ev.event),
            Ok(end.handlers + 1),
        );
        checks.eq(
            &format!("event {n}: generation reconciles"),
            ev.event.generation(),
            Ok(end.generation),
        );
        checks.eq(&format!("event {n}: gate open"), ev.event.held_len(), Ok(0));
        counts.add_event(rig.disp.stats(&ev.event).expect("alive"));
        digest.feed_all([end.handlers as u64, end.generation]);
    }
    counts.clock_advances = counts.dispatch_advances();
    checks.eq(
        "dispatcher counted every raise",
        counts.raises,
        total * CHURN_RAISES_PER_OP as u64,
    );
    digest.feed_all([
        rig.clock.now(),
        results_sum,
        counts.raises,
        counts.guard_evals,
        counts.handlers_run,
    ]);
    tracer.end(span, 1);

    // Failed operations count once each, failed identities once each.
    let ops_failed = errors + bad_sums + checks.failures.len() as u64;
    if errors + bad_sums > 0 {
        checks.failures.push(format!(
            "{errors} raises returned Err, {bad_sums} ops' raises missed the modelled sum"
        ));
    }
    RoundOutput {
        ops_attempted: total,
        ops_failed,
        failures: checks.failures,
        window_opened,
        window_ns,
        slices,
        counts,
        digest: digest.finish(),
        threads_at_window: 1,
    }
}
