//! Seeded input generators. The seed is consumed *here*: every workload
//! receives only the plain data these functions return, so the same seed
//! gives the same inputs and nothing else about a run depends on it.

/// splitmix64's output function: the generator step and the
/// order-independent checksum ingredient of every virtual digest.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// splitmix64.
pub struct Rng(u64);

impl Rng {
    /// A stream per `(seed, purpose)`, so adding a generator never shifts
    /// another's draws.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed) ^ mix(stream.wrapping_mul(0xa076_1d64_78bd_642f)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias at these sizes is far
    /// below anything a workload could feel.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

// ---------------------------------------------------------------- http_storm

/// Dynamic typed routes `/r0`..`/r5`; `/f6` and `/f7` are files.
pub const HTTP_ROUTES: u8 = 6;
pub const HTTP_PATHS: u8 = HTTP_ROUTES + 2;

/// One client connection of the storm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpConn {
    /// Think gap before connecting, virtual ns.
    pub gap_ns: u32,
    /// Sends a truncated request line and holds the socket.
    pub slow: bool,
    /// Index into the path table (`< HTTP_PATHS`).
    pub path: u8,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpInputs {
    /// `[client shard][connection]`, in issue order per shard.
    pub shards: Vec<Vec<HttpConn>>,
}

/// Heavy-tailed think gaps (mostly 40–200 µs, every ~16th a 2 ms pause),
/// every ~512th connection a slowloris, uniform paths.
pub fn http_inputs(seed: u64, client_shards: usize, per_shard: usize) -> HttpInputs {
    let mut rng = Rng::new(seed, 1);
    let shards = (0..client_shards)
        .map(|_| {
            (0..per_shard)
                .map(|_| {
                    let g = rng.next_u64();
                    HttpConn {
                        gap_ns: if g.is_multiple_of(16) {
                            2_000_000
                        } else {
                            40_000 + ((g >> 8) % 160_000) as u32
                        },
                        slow: rng.below(512) == 0,
                        path: rng.below(u64::from(HTTP_PATHS)) as u8,
                    }
                })
                .collect()
        })
        .collect();
    HttpInputs { shards }
}

// --------------------------------------------------------------- udp_forward

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpInputs {
    /// Payload bytes of each packet, in send order (each ≥ 16: sequence
    /// number and send timestamp ride in the first 16 bytes).
    pub sizes: Vec<u16>,
}

/// Sizes drawn 8:1:1 from {16, 256, 1400} B, so per-packet cost — not
/// per-byte cost — dominates, with both larger sizes still present.
pub fn udp_inputs(seed: u64, packets: usize) -> UdpInputs {
    let mut rng = Rng::new(seed, 2);
    let sizes = (0..packets)
        .map(|_| match rng.below(10) {
            0..=7 => 16,
            8 => 256,
            _ => 1400,
        })
        .collect();
    UdpInputs { sizes }
}

// ----------------------------------------------------------- dispatch_steady

/// Guards installed on the keyed event (keys `0..STEADY_KEYS`).
pub const STEADY_KEYS: u64 = 250;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SteadyInputs {
    /// Blocks of 16 000 raises in the fixed mix (see the workload).
    pub blocks: usize,
    /// Key pool the keyed and batched raises cycle through: 90 % hit an
    /// installed guard, 10 % miss them all.
    pub keys: Vec<u64>,
}

pub fn steady_inputs(seed: u64, blocks: usize) -> SteadyInputs {
    let mut rng = Rng::new(seed, 3);
    let keys = (0..8192)
        .map(|_| {
            if rng.below(10) == 0 {
                STEADY_KEYS + rng.below(1 << 20)
            } else {
                rng.below(STEADY_KEYS)
            }
        })
        .collect();
    SteadyInputs { blocks, keys }
}

// ------------------------------------------------------------ dispatch_churn

pub const CHURN_EVENTS: usize = 64;
/// Extension handlers per event stay within these bounds.
pub const CHURN_MIN_HANDLERS: usize = 8;
pub const CHURN_MAX_HANDLERS: usize = 64;
/// Keys handlers are installed on and raises draw from.
pub const CHURN_KEY_SPACE: u64 = 96;
/// Raises after every plan write, so each republished plan is read.
pub const CHURN_RAISES_PER_OP: usize = 16;

/// An extension handler as the model knows it. Every handler returns a
/// function of `(key, x)` that the generator can evaluate, so it can hand
/// the workload the expected sum of each op's raises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnHandler {
    /// `install_keyed` on `key`: returns `x + key + 1`.
    Keyed(u64),
    /// `install_guarded` with the opaque guard `key % modulus == 0`:
    /// returns `x ^ modulus`.
    Guarded(u64),
}

impl ChurnHandler {
    pub fn matches(&self, key: u64) -> bool {
        match *self {
            ChurnHandler::Keyed(k) => k == key,
            ChurnHandler::Guarded(m) => key.is_multiple_of(m),
        }
    }

    pub fn result(&self, x: u64) -> u64 {
        match *self {
            ChurnHandler::Keyed(k) => x.wrapping_add(k + 1),
            ChurnHandler::Guarded(m) => x ^ m,
        }
    }
}

/// How an event combines handler results (both commutative, so the
/// expected value does not depend on install order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnReducer {
    Sum,
    Xor,
}

impl ChurnReducer {
    pub fn fold(&self, acc: u64, r: u64) -> u64 {
        match self {
            ChurnReducer::Sum => acc.wrapping_add(r),
            ChurnReducer::Xor => acc ^ r,
        }
    }

    fn other(&self) -> ChurnReducer {
        match self {
            ChurnReducer::Sum => ChurnReducer::Xor,
            ChurnReducer::Xor => ChurnReducer::Sum,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnWrite {
    Install(ChurnHandler),
    /// Uninstall the handler at this position of the event's list.
    Uninstall(usize),
    SetReducer(ChurnReducer),
    /// `quiesce` → `rebind` of every extension handler → `resume`.
    Swap,
    /// `destroy` + `define` (+ primary and reducer); handlers are gone.
    Redefine,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnOp {
    pub event: usize,
    pub write: ChurnWrite,
    /// Keys of the raises that follow the write; raise `j` of op `i`
    /// carries `x = i * CHURN_RAISES_PER_OP + j`.
    pub keys: [u8; CHURN_RAISES_PER_OP],
    /// Wrapping sum of the results those raises must return.
    pub expect_sum: u64,
}

/// What the dispatcher must report for one event after the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnEventEnd {
    /// Extension handlers left installed (the primary is one more).
    pub handlers: usize,
    /// Plan republishes since the event was last defined.
    pub generation: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnInputs {
    /// Handlers installed on each event during set-up.
    pub initial: Vec<Vec<ChurnHandler>>,
    pub ops: Vec<ChurnOp>,
    pub end: Vec<ChurnEventEnd>,
}

/// Republishes a fresh event has seen once set up: primary, reducer.
pub const CHURN_DEFINE_GENERATION: u64 = 2;

struct ChurnModel {
    handlers: Vec<ChurnHandler>,
    /// Keyed handlers per key, kept beside `handlers` so that a modelled
    /// raise does not walk the whole list (generation is set-up time).
    keyed_on: [u32; CHURN_KEY_SPACE as usize],
    reducer: ChurnReducer,
    generation: u64,
}

impl ChurnModel {
    fn new(handlers: Vec<ChurnHandler>) -> ChurnModel {
        let mut m = ChurnModel {
            generation: CHURN_DEFINE_GENERATION + handlers.len() as u64,
            handlers: Vec::new(),
            keyed_on: [0; CHURN_KEY_SPACE as usize],
            reducer: ChurnReducer::Sum,
        };
        for h in handlers {
            m.install(h);
        }
        m
    }

    fn install(&mut self, h: ChurnHandler) {
        if let ChurnHandler::Keyed(k) = h {
            self.keyed_on[k as usize] += 1;
        }
        self.handlers.push(h);
    }

    fn uninstall(&mut self, pos: usize) {
        if let ChurnHandler::Keyed(k) = self.handlers.remove(pos) {
            self.keyed_on[k as usize] -= 1;
        }
    }

    /// The primary returns `x`; every matching extension handler folds in.
    fn raise(&self, key: u64, x: u64) -> u64 {
        let keyed = ChurnHandler::Keyed(key).result(x);
        let acc = (0..self.keyed_on[key as usize]).fold(x, |acc, _| self.reducer.fold(acc, keyed));
        self.handlers
            .iter()
            .filter(|h| matches!(h, ChurnHandler::Guarded(_)) && h.matches(key))
            .fold(acc, |acc, h| self.reducer.fold(acc, h.result(x)))
    }
}

fn draw_handler(rng: &mut Rng) -> ChurnHandler {
    // One opaque guard in eight: enough to keep a scan residue beside the
    // compiled table, as the net stack's events have.
    if rng.below(8) == 0 {
        ChurnHandler::Guarded(2 + rng.below(14))
    } else {
        ChurnHandler::Keyed(rng.below(CHURN_KEY_SPACE))
    }
}

/// A seed-ordered stream of plan writes in a fixed mix — per 200 ops about
/// 167 installs and uninstalls, 16 reducer changes, 16 swaps, 1 redefine —
/// with the handler counts kept inside their bounds by the generator, so
/// no op can fail.
pub fn churn_inputs(seed: u64, ops: usize) -> ChurnInputs {
    let mut rng = Rng::new(seed, 4);
    let mut models: Vec<ChurnModel> = (0..CHURN_EVENTS)
        .map(|_| {
            let n = CHURN_MIN_HANDLERS
                + rng.below((CHURN_MAX_HANDLERS - CHURN_MIN_HANDLERS + 1) as u64) as usize;
            ChurnModel::new((0..n).map(|_| draw_handler(&mut rng)).collect())
        })
        .collect();
    let initial = models.iter().map(|m| m.handlers.clone()).collect();
    let mut out = Vec::with_capacity(ops);
    for i in 0..ops {
        let event = rng.below(CHURN_EVENTS as u64) as usize;
        let m = &mut models[event];
        let n = m.handlers.len();
        // Per 200 writes: 167 installs or uninstalls, 16 reducer changes,
        // 16 swaps, 1 redefine. Installs outweigh uninstalls three to one
        // below the middle third of the handler range and the reverse
        // above it, so events spend most of the stream holding 24-48
        // handlers — the size the write probes measure — and refill after
        // a redefine empties them.
        let roll = rng.below(200);
        let install_share = if n < CHURN_MIN_HANDLERS {
            200
        } else if n < 24 {
            125
        } else if n <= 48 {
            84
        } else if n < CHURN_MAX_HANDLERS {
            42
        } else {
            0
        };
        let write = match roll {
            r if r < install_share => ChurnWrite::Install(draw_handler(&mut rng)),
            // Below the minimum everything is an install; otherwise the
            // rest of the first 167 are uninstalls.
            0..=166 => ChurnWrite::Uninstall(rng.below(n as u64) as usize),
            167..=182 => ChurnWrite::SetReducer(m.reducer.other()),
            183..=198 => ChurnWrite::Swap,
            _ => ChurnWrite::Redefine,
        };
        match write {
            ChurnWrite::Install(h) => m.install(h),
            ChurnWrite::Uninstall(pos) => m.uninstall(pos),
            ChurnWrite::SetReducer(r) => m.reducer = r,
            ChurnWrite::Swap => {}
            ChurnWrite::Redefine => {
                *m = ChurnModel::new(Vec::new());
                m.generation -= 1; // the `+= 1` below is this op's
            }
        }
        m.generation += 1;
        let mut keys = [0u8; CHURN_RAISES_PER_OP];
        let mut expect_sum = 0u64;
        for (j, slot) in keys.iter_mut().enumerate() {
            let key = rng.below(CHURN_KEY_SPACE);
            *slot = key as u8;
            let x = (i * CHURN_RAISES_PER_OP + j) as u64;
            expect_sum = expect_sum.wrapping_add(m.raise(key, x));
        }
        out.push(ChurnOp {
            event,
            write,
            keys,
            expect_sum,
        });
    }
    let end = models
        .iter()
        .map(|m| ChurnEventEnd {
            handlers: m.handlers.len(),
            generation: m.generation,
        })
        .collect();
    ChurnInputs {
        initial,
        ops: out,
        end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        assert_eq!(http_inputs(7, 3, 200), http_inputs(7, 3, 200));
        assert_ne!(http_inputs(7, 3, 200), http_inputs(8, 3, 200));
        assert_eq!(udp_inputs(7, 1000), udp_inputs(7, 1000));
        assert_ne!(udp_inputs(7, 1000), udp_inputs(8, 1000));
        assert_eq!(steady_inputs(7, 4), steady_inputs(7, 4));
        assert_ne!(steady_inputs(7, 4), steady_inputs(8, 4));
        assert_eq!(churn_inputs(7, 500), churn_inputs(7, 500));
        assert_ne!(churn_inputs(7, 500), churn_inputs(8, 500));
    }

    #[test]
    fn streams_are_independent_of_each_other() {
        // Generators draw from their own stream: sizes of one input do not
        // shift another's values.
        assert_eq!(udp_inputs(3, 10).sizes[..], udp_inputs(3, 500).sizes[..10]);
        let a = Rng::new(3, 1).next_u64();
        let b = Rng::new(3, 2).next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn http_inputs_have_the_stated_shape() {
        let inp = http_inputs(1, 11, 2000);
        assert_eq!(inp.shards.len(), 11);
        let all: Vec<&HttpConn> = inp.shards.iter().flatten().collect();
        assert_eq!(all.len(), 22_000);
        assert!(all.iter().all(|c| c.path < HTTP_PATHS));
        assert!(all
            .iter()
            .all(|c| c.gap_ns == 2_000_000 || (40_000..200_000).contains(&c.gap_ns)));
        let slow = all.iter().filter(|c| c.slow).count();
        assert!((20..=70).contains(&slow), "~1/512 slowloris, got {slow}");
        let pauses = all.iter().filter(|c| c.gap_ns == 2_000_000).count();
        assert!(
            (1100..=1650).contains(&pauses),
            "~1/16 long pauses, got {pauses}"
        );
    }

    #[test]
    fn udp_sizes_are_drawn_eight_one_one() {
        let inp = udp_inputs(1, 100_000);
        let count = |s: u16| inp.sizes.iter().filter(|&&x| x == s).count();
        assert_eq!(count(16) + count(256) + count(1400), 100_000);
        assert!((79_000..=81_000).contains(&count(16)));
        assert!((9_500..=10_500).contains(&count(256)));
        assert!((9_500..=10_500).contains(&count(1400)));
    }

    #[test]
    fn steady_keys_hit_nine_in_ten() {
        let inp = steady_inputs(1, 1);
        let hits = inp.keys.iter().filter(|&&k| k < STEADY_KEYS).count();
        assert!((7100..=7650).contains(&hits), "~90 % of 8192, got {hits}");
    }

    #[test]
    fn churn_stream_stays_in_bounds_and_reconciles() {
        let inp = churn_inputs(1, 20_000);
        assert_eq!(inp.initial.len(), CHURN_EVENTS);
        let mut counts: Vec<usize> = inp.initial.iter().map(Vec::len).collect();
        let mut gens: Vec<u64> = counts
            .iter()
            .map(|&n| CHURN_DEFINE_GENERATION + n as u64)
            .collect();
        for op in &inp.ops {
            let n = &mut counts[op.event];
            match op.write {
                ChurnWrite::Install(_) => *n += 1,
                ChurnWrite::Uninstall(pos) => {
                    assert!(pos < *n, "uninstall names a live handler");
                    *n -= 1;
                }
                ChurnWrite::Redefine => {
                    *n = 0;
                    gens[op.event] = CHURN_DEFINE_GENERATION - 1;
                }
                ChurnWrite::SetReducer(_) | ChurnWrite::Swap => {}
            }
            gens[op.event] += 1;
            assert!(*n <= CHURN_MAX_HANDLERS);
            assert!(op.keys.iter().all(|&k| u64::from(k) < CHURN_KEY_SPACE));
        }
        for (e, end) in inp.end.iter().enumerate() {
            assert_eq!((end.handlers, end.generation), (counts[e], gens[e]));
        }
        // Every kind of write occurs.
        let has = |f: fn(&ChurnWrite) -> bool| inp.ops.iter().any(|o| f(&o.write));
        assert!(has(|w| matches!(
            w,
            ChurnWrite::Install(ChurnHandler::Keyed(_))
        )));
        assert!(has(|w| matches!(
            w,
            ChurnWrite::Install(ChurnHandler::Guarded(_))
        )));
        assert!(has(|w| matches!(w, ChurnWrite::Uninstall(_))));
        assert!(has(|w| matches!(w, ChurnWrite::SetReducer(_))));
        assert!(has(|w| matches!(w, ChurnWrite::Swap)));
        assert!(has(|w| matches!(w, ChurnWrite::Redefine)));
    }

    #[test]
    fn churn_model_folds_matching_handlers_only() {
        let mut m = ChurnModel::new(vec![
            ChurnHandler::Keyed(5),
            ChurnHandler::Keyed(6),
            ChurnHandler::Guarded(5),
            ChurnHandler::Keyed(5),
        ]);
        // key 5, x 10: primary 10 + two keyed(5) 16 + guarded(5) (10 ^ 5 = 15).
        assert_eq!(m.raise(5, 10), 10 + 16 + 16 + 15);
        // key 7: nothing matches, the primary's result stands.
        assert_eq!(m.raise(7, 10), 10);
        m.uninstall(0);
        assert_eq!(m.raise(5, 10), 10 + 16 + 15);
        m.reducer = ChurnReducer::Xor;
        assert_eq!(m.raise(5, 10), 10 ^ 16 ^ 15);
    }
}
