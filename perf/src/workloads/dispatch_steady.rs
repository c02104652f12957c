//! `dispatch_steady` — one metered `Dispatcher`, no strands, shards or net.
//!
//! Raises in a fixed mix per 1 000: 600 single-handler fast-path, 150 keyed
//! over 250 installed guards (seed-drawn keys, 90 % hit), 100 opaque
//! 10-guard sequential, 100 via `raise_batch(64)` on the keyed event, 50
//! through a `bind_quota` event with an unlimited budget. `Clock::advance`
//! is charged as on real paths. op = raise.
//!
//! *Why:* the paper's central number (the protected in-kernel call, §5.5
//! guard scaling) and the ROADMAP's "≤ 25 ns" target need a workload where
//! the raise prologue is all of the time; barrier and executor changes must
//! not move it.

use super::{Checks, Counts, Digest, RoundOutput, Window};
use crate::gen::{SteadyInputs, STEADY_KEYS};
use crate::trace::Tracer;
use spin_core::{Dispatcher, Event, Identity, KeyFn, QuotaCell, QuotaLedger, QuotaSpec};
use spin_sal::{Clock, MachineProfile};
use std::hint::black_box;
use std::sync::Arc;

/// Blocks of [`BLOCK_RAISES`] raises in one round: 6.4 × 10⁶ raises.
pub const BLOCKS: usize = 400;
/// A block is 25 sub-blocks of 640 raises in the mix above.
const SUB_BLOCKS: u64 = 25;
const FAST: u64 = 384;
const KEYED: u64 = 96;
const OPAQUE: u64 = 64;
const BATCH: u64 = 64;
const QUOTA: u64 = 32;
pub const BLOCK_RAISES: u64 = SUB_BLOCKS * (FAST + KEYED + OPAQUE + BATCH + QUOTA);
/// Blocks per window slice.
const BLOCKS_PER_SLICE: usize = 2;
const OPAQUE_GUARDS: u64 = 10;

/// `(key, value)`: the keyed event's argument.
type KeyedArg = (u64, u64);

/// The dispatcher and the four events of the mix, installed as the
/// workload and the read probes both use them.
pub struct SteadyRig {
    pub disp: Dispatcher,
    pub clock: Clock,
    pub fast: Event<u64, u64>,
    pub keyed: Event<KeyedArg, u64>,
    pub opaque: Event<u64, u64>,
    pub metered: Event<u64, u64>,
    pub cell: Arc<QuotaCell>,
}

impl SteadyRig {
    pub fn new() -> SteadyRig {
        let clock = Clock::new();
        let disp = Dispatcher::new(
            clock.clone(),
            Arc::new(MachineProfile::alpha_axp_3000_400()),
        );
        let kernel = Identity::kernel("steady");
        let ext = Identity::extension("steady-ext");

        let (fast, owner) = disp.define::<u64, u64>("Steady.Fast", kernel.clone());
        owner.set_primary(|x| x + 1).expect("fresh event");

        // Keyed: the primary returns the value; the handler keyed on `k`
        // returns `value + k + 1`. The last handler's result stands, so a
        // hit returns the keyed result and a miss the primary's.
        let (keyed, owner) = disp.define::<KeyedArg, u64>("Steady.Keyed", kernel.clone());
        owner.set_primary(|a| a.1).expect("fresh event");
        let key = KeyFn::new(|a: &KeyedArg| a.0);
        for k in 0..STEADY_KEYS {
            keyed
                .install_keyed(ext.clone(), &key, k, move |a| a.1 + k + 1)
                .expect("install keyed");
        }

        // Opaque: ten closure guards scanned in order; exactly the one with
        // `x % 10 == j` passes and its handler returns `x + j + 1`.
        let (opaque, owner) = disp.define::<u64, u64>("Steady.Opaque", kernel.clone());
        owner.set_primary(|x| *x).expect("fresh event");
        for j in 0..OPAQUE_GUARDS {
            opaque
                .install_guarded(
                    ext.clone(),
                    move |x| x % OPAQUE_GUARDS == j,
                    move |x| x + j + 1,
                )
                .expect("install guarded");
        }

        let (metered, owner) = disp.define::<u64, u64>("Steady.Metered", kernel);
        owner.set_primary(|x| x + 2).expect("fresh event");
        let cell = QuotaLedger::new().register("steady", QuotaSpec::default());
        assert_eq!(metered.bind_quota(cell.clone()), Ok(true));

        SteadyRig {
            disp,
            clock,
            fast,
            keyed,
            opaque,
            metered,
            cell,
        }
    }

    pub fn counts(&self) -> Counts {
        let mut c = Counts::default();
        c.add_event(self.disp.stats(&self.fast).expect("alive"));
        c.add_event(self.disp.stats(&self.keyed).expect("alive"));
        c.add_event(self.disp.stats(&self.opaque).expect("alive"));
        c.add_event(self.disp.stats(&self.metered).expect("alive"));
        let q = self.cell.snapshot();
        c.quota_attempts = q.attempts;
        c.quota_refused = q.throttled + q.shed;
        c.clock_advances = c.dispatch_advances();
        c
    }
}

/// What a keyed raise must return.
pub fn keyed_expect(key: u64, value: u64) -> u64 {
    if key < STEADY_KEYS {
        value + key + 1
    } else {
        value
    }
}

pub fn run(inputs: &SteadyInputs, tracer: &mut Tracer) -> RoundOutput {
    let setup_span = tracer.begin("setup");
    let rig = SteadyRig::new();
    let keys = &inputs.keys;
    tracer.end(setup_span, 1);

    let window_span = tracer.begin("window");
    let mut window = Window::open(tracer);
    let mut x = 0u64; // every raise carries a distinct value
    let mut cursor = 0usize; // into the key pool
    let (mut got, mut want) = (0u64, 0u64);
    let mut errors = 0u64;
    let next_key = |cursor: &mut usize| {
        let k = keys[*cursor % keys.len()];
        *cursor += 1;
        k
    };
    let mut settle = |r: Result<u64, spin_core::DispatchError>, expect: u64| match r {
        Ok(v) => {
            got = got.wrapping_add(v);
            want = want.wrapping_add(expect);
        }
        Err(_) => errors += 1,
    };
    let mut blocks_left = inputs.blocks;
    while blocks_left > 0 {
        let blocks = blocks_left.min(BLOCKS_PER_SLICE) as u64;
        blocks_left -= blocks as usize;
        window.slice(|| {
            for _ in 0..blocks * SUB_BLOCKS {
                for _ in 0..FAST {
                    x += 1;
                    settle(rig.fast.raise(black_box(x)), x + 1);
                }
                for _ in 0..KEYED {
                    x += 1;
                    let k = next_key(&mut cursor);
                    settle(rig.keyed.raise(black_box((k, x))), keyed_expect(k, x));
                }
                for _ in 0..OPAQUE {
                    x += 1;
                    settle(rig.opaque.raise(black_box(x)), x + x % OPAQUE_GUARDS + 1);
                }
                let batch: Vec<KeyedArg> = (0..BATCH)
                    .map(|i| (next_key(&mut cursor), x + 1 + i))
                    .collect();
                let expects: Vec<u64> = batch.iter().map(|&(k, v)| keyed_expect(k, v)).collect();
                x += BATCH;
                for (r, e) in rig
                    .keyed
                    .raise_batch(black_box(batch))
                    .into_iter()
                    .zip(expects)
                {
                    settle(r, e);
                }
                for _ in 0..QUOTA {
                    x += 1;
                    settle(rig.metered.raise(black_box(x)), x + 2);
                }
            }
            blocks * BLOCK_RAISES
        });
    }
    let (window_opened, window_ns, slices) = window.close();
    let total = inputs.blocks as u64 * BLOCK_RAISES;
    tracer.end(window_span, total);

    let span = tracer.begin("check");
    let mut checks = Checks::default();
    checks.eq("result sum over every raise", got, want);
    let counts = rig.counts();
    checks.eq("dispatcher counted every raise", counts.raises, total);
    let per_block = |n: u64| inputs.blocks as u64 * SUB_BLOCKS * n;
    checks.eq(
        "fast-path raises",
        counts.fast_raises,
        per_block(FAST + QUOTA),
    );
    checks.eq(
        "compiled raises",
        counts.compiled_raises,
        per_block(KEYED + BATCH),
    );
    checks.eq("batched raises", counts.batched_raises, per_block(BATCH));
    let q = rig.cell.snapshot();
    checks.eq("quota attempts == admitted", q.attempts, q.admitted);
    checks.eq("quota admitted == completed", q.admitted, q.completed);
    checks.eq(
        "quota metered every bound raise",
        q.attempts,
        per_block(QUOTA),
    );
    let mut digest = Digest::default();
    digest.feed_all([
        rig.clock.now(),
        got,
        counts.raises,
        counts.guard_evals,
        counts.guards_elided,
        counts.handlers_run,
        q.vt_charged,
    ]);
    tracer.end(span, 1);

    // Failed operations count once each, failed identities once each.
    let ops_failed = errors + checks.failures.len() as u64;
    if errors > 0 {
        checks
            .failures
            .push(format!("{errors} raises returned Err"));
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
