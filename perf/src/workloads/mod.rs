//! The four workloads. Each builds its rig from generated inputs, runs a
//! timed window cut into slices, checks its outputs and returns the
//! per-layer counts it read from the program's public statistics.

pub mod dispatch_churn;
pub mod dispatch_steady;
pub mod http_storm;
pub mod udp_forward;

use crate::gen::mix;
use crate::trace::Tracer;
use spin_core::{Dispatcher, EventStats};
use spin_net::{AddressMap, IpAddr, NetStack};
use spin_sal::{Host, MulticoreBoard, Nanos};
use spin_sched::{Executor, IdleOutcome, Multicore};
use std::fmt::Debug;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// `(name, the operation `us_per_op` divides by)`.
pub const WORKLOADS: [(&str, &str); 4] = [
    ("http_storm", "connection"),
    ("udp_forward", "echoed round trip"),
    ("dispatch_steady", "raise"),
    ("dispatch_churn", "plan write"),
];

/// The seed whose virtual digests are pinned in `digests.json`.
pub const DEFAULT_SEED: u64 = 1;

/// Output checks that record instead of panicking, so a run reports every
/// identity that failed to close and still prints its metrics.
#[derive(Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    pub fn eq<T: PartialEq + Debug>(&mut self, what: &str, got: T, want: T) {
        if got != want {
            self.failures
                .push(format!("{what}: got {got:?}, want {want:?}"));
        }
    }
}

/// Defines [`Counts`] with its field-name table, so the struct, the JSON
/// record and the reader cannot drift apart.
macro_rules! counts {
    ($($(#[$doc:meta])* $field:ident),+ $(,)?) => {
        /// Work counted at layer boundaries, read from public stats after
        /// the window. All of it is virtual-time deterministic: for one
        /// seed every field repeats exactly.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct Counts {
            $($(#[$doc])* pub $field: u64,)+
        }

        impl Counts {
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), self.$field),)+]
            }

            pub fn set(&mut self, name: &str, value: u64) -> bool {
                match name {
                    $(stringify!($field) => self.$field = value,)+
                    _ => return false,
                }
                true
            }
        }
    };
}

counts! {
    mailbox_posted,
    mailbox_dropped,
    wire_frames,
    wire_dropped,
    raises,
    fast_raises,
    compiled_raises,
    batched_raises,
    guard_evals,
    guards_elided,
    handlers_run,
    quota_attempts,
    quota_refused,
    switches,
    epochs,
    shard_runs,
    frames_in,
    net_retries,
    tcp_retransmissions,
    http_requests,
    http_shed,
    http_timeouts,
    /// Plan republishes in the window, by the probe that prices them: an
    /// install (or reducer change), an uninstall, a whole-event rebind.
    plan_installs,
    plan_uninstalls,
    plan_rebinds,
    /// `Clock::advance` calls (hook-counted on traced rounds of the storm
    /// workloads, modelled from dispatch statistics on `dispatch_*`).
    clock_advances,
}

impl Counts {
    pub fn add_event(&mut self, s: EventStats) {
        self.raises += s.raises;
        self.fast_raises += s.fast_path_raises;
        self.compiled_raises += s.compiled_raises;
        self.batched_raises += s.batched_raises;
        self.guard_evals += s.guard_evaluations;
        self.guards_elided += s.guards_elided;
        self.handlers_run += s.handlers_run;
    }

    /// `Clock::advance` calls a bare (hook-free) dispatcher clock saw, from
    /// the dispatch statistics: one per fast raise; per slow raise the base
    /// charge, one per guard a closure actually evaluated, one per handler
    /// run, and on a compiled plan one per indexed hit plus at most two
    /// coalesced miss charges (before and after the hit).
    pub fn dispatch_advances(&self) -> u64 {
        // Fast raises once each, slow raises their base charge: `raises`.
        self.raises
            + (self.guard_evals - self.guards_elided)
            + self.compiled_raises * 3
            + self.handlers_run
    }
}

/// One slice of the timed window: wall time and operations completed.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub wall_ns: u64,
    pub ops: u64,
}

/// What one round hands back to the harness.
pub struct RoundOutput {
    pub ops_attempted: u64,
    /// Operations with a wrong outcome plus identities that did not close.
    pub ops_failed: u64,
    pub failures: Vec<String>,
    pub window_opened: Instant,
    pub window_ns: u64,
    pub slices: Vec<Slice>,
    pub counts: Counts,
    /// Hash of every virtual output; identical for one seed at any worker
    /// count, on any machine.
    pub digest: u64,
    /// Live threads when the window opened (every strand exists by then).
    pub threads_at_window: u64,
}

/// Rolling digest of virtual outputs, order-dependent by design (the
/// fields are fed in a fixed order).
#[derive(Default)]
pub struct Digest(u64);

impl Digest {
    pub fn feed(&mut self, x: u64) {
        self.0 = mix(self.0 ^ mix(x));
    }

    pub fn feed_all(&mut self, xs: impl IntoIterator<Item = u64>) {
        for x in xs {
            self.feed(x);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The timed window: closes slices and accumulates their wall time, and
/// mirrors each slice as a span when tracing.
pub struct Window<'t> {
    tracer: &'t mut Tracer,
    started: Instant,
    slice_started: Instant,
    slices: Vec<Slice>,
}

impl<'t> Window<'t> {
    pub fn open(tracer: &'t mut Tracer) -> Window<'t> {
        let now = Instant::now();
        Window {
            tracer,
            started: now,
            slice_started: now,
            slices: Vec::with_capacity(512),
        }
    }

    /// Runs one slice; `f` returns the operations it completed.
    pub fn slice(&mut self, f: impl FnOnce() -> u64) {
        let span = self.tracer.begin("slice");
        let ops = f();
        let now = Instant::now();
        self.tracer.end(span, ops);
        let wall_ns = now.duration_since(self.slice_started).as_nanos() as u64;
        self.slices.push(Slice { wall_ns, ops });
        self.slice_started = now;
    }

    /// Closes the window: `(when it opened, wall ns, slices)`.
    pub fn close(self) -> (Instant, u64, Vec<Slice>) {
        let wall_ns = self.started.elapsed().as_nanos() as u64;
        (self.started, wall_ns, self.slices)
    }
}

/// A counting `Clock::advance` subscriber for traced rounds.
pub fn count_advances(clock: &spin_sal::Clock, counter: &Arc<AtomicU64>) {
    let c = counter.clone();
    clock.add_advance_hook(Box::new(move |_| {
        c.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — a statistic read after the run ends.
    }));
}

/// Adds the dispatch statistics of every event of one stack's protocol
/// graph, and the stack's own frame counters.
pub fn add_stack(c: &mut Counts, disp: &Dispatcher, stack: &NetStack) {
    let ev = stack.events();
    for s in [
        disp.stats(&ev.ether_arrived),
        disp.stats(&ev.atm_arrived),
        disp.stats(&ev.t3_arrived),
        disp.stats(&ev.ip_arrived),
        disp.stats(&ev.udp_arrived),
        disp.stats(&ev.tcp_arrived),
        disp.stats(&ev.icmp_arrived),
        disp.stats(&ev.send_packet),
        disp.stats(&ev.net_ready),
    ] {
        c.add_event(s.expect("net events are never destroyed"));
    }
    let net = stack.stats();
    c.frames_in += net.frames_in;
    c.net_retries += net.retries;
}

/// The sharded rig both storms run on: one kernel shard per host, each
/// with its own executor, dispatcher and installed stack (host `i` is
/// 10.x.0.`i+1`), pumped by one `Multicore`.
pub struct ShardRig {
    pub board: MulticoreBoard,
    pub mc: Multicore,
    pub hosts: Vec<Host>,
    pub execs: Vec<Arc<Executor>>,
    pub disps: Vec<Dispatcher>,
    pub stacks: Vec<NetStack>,
    /// `Clock::advance` calls on any shard clock (traced rounds only).
    advances: Arc<AtomicU64>,
}

impl ShardRig {
    pub fn build(shards: u8, workers: usize, tracer: &mut Tracer) -> ShardRig {
        let span = tracer.begin("board");
        let board = MulticoreBoard::new();
        let mut rig = ShardRig {
            mc: Multicore::new(workers, board.lookahead()),
            board,
            hosts: Vec::new(),
            execs: Vec::new(),
            disps: Vec::new(),
            stacks: Vec::new(),
            advances: Arc::new(AtomicU64::new(0)),
        };
        let addrs = AddressMap::new();
        tracer.end(span, 1);
        for n in 1..=shards {
            let span = tracer.begin("stack_install");
            let host = rig.board.new_host(256);
            let exec = rig.mc.add_host(host.clone());
            let disp = Dispatcher::new(host.clock.clone(), host.profile.clone());
            rig.mc.wire_dispatcher(&disp, host.id);
            rig.stacks.push(NetStack::install(
                &host,
                &exec,
                &disp,
                &addrs,
                IpAddr::new(10, 0, 0, n),
                IpAddr::new(10, 1, 0, n),
                IpAddr::new(10, 2, 0, n),
            ));
            if tracer.enabled() {
                count_advances(&host.clock, &rig.advances);
            }
            rig.hosts.push(host);
            rig.execs.push(exec);
            rig.disps.push(disp);
            tracer.end(span, 1);
        }
        rig
    }

    /// Cumulative per-layer counters of the rig.
    pub fn snapshot(&self) -> Counts {
        let st = self.mc.stats();
        let mut c = Counts {
            epochs: st.epochs,
            shard_runs: st.shard_runs,
            mailbox_posted: st.mail_posted,
            mailbox_dropped: st.mail_dropped,
            switches: self.execs.iter().map(|e| e.switches()).sum(),
            clock_advances: self.advances.load(Ordering::Relaxed), // ordering: Relaxed — read between runs.
            ..Counts::default()
        };
        for wire in [&self.board.ethernet, &self.board.atm, &self.board.t3] {
            let (delivered, dropped) = wire.stats();
            c.wire_frames += delivered;
            c.wire_dropped += dropped;
        }
        for (disp, stack) in self.disps.iter().zip(&self.stacks) {
            add_stack(&mut c, disp, stack);
        }
        c
    }

    /// Runs virtual time from `from` until the rig is idle, `step` at a
    /// time, one window slice per step; `progress` reads the operations
    /// completed so far. Returns how the run ended and the final progress.
    pub fn run_sliced(
        &self,
        window: &mut Window,
        from: Nanos,
        step: Nanos,
        progress: impl Fn() -> u64,
    ) -> (IdleOutcome, u64) {
        let mut completed = 0;
        let mut deadline = from;
        loop {
            deadline += step;
            let mut outcome = IdleOutcome::DeadlineReached;
            window.slice(|| {
                outcome = self.mc.run_until(deadline);
                let now = progress();
                let ops = now - completed;
                completed = now;
                ops
            });
            if outcome != IdleOutcome::DeadlineReached {
                return (outcome, completed);
            }
        }
    }

    pub fn clocks(&self) -> impl Iterator<Item = Nanos> + '_ {
        self.hosts.iter().map(|h| h.clock.now())
    }
}

/// `after − before`, field by field: what the timed window did.
pub fn delta(after: &Counts, before: &Counts) -> Counts {
    let mut d = Counts::default();
    for ((name, a), (_, b)) in after.fields().into_iter().zip(before.fields()) {
        d.set(name, a - b);
    }
    d
}

/// Runs one round of the named workload on inputs generated from `seed`.
pub fn run(
    name: &str,
    seed: u64,
    workers: usize,
    scale_div: usize,
    tracer: &mut Tracer,
) -> Option<RoundOutput> {
    Some(match name {
        "http_storm" => {
            let inputs = crate::gen::http_inputs(
                seed,
                http_storm::CLIENT_SHARDS,
                http_storm::PER_SHARD / scale_div,
            );
            http_storm::run(&inputs, workers, tracer)
        }
        "udp_forward" => {
            let inputs = crate::gen::udp_inputs(seed, udp_forward::PACKETS / scale_div);
            udp_forward::run(&inputs, workers, tracer)
        }
        "dispatch_steady" => {
            let inputs = crate::gen::steady_inputs(seed, dispatch_steady::BLOCKS / scale_div);
            dispatch_steady::run(&inputs, tracer)
        }
        "dispatch_churn" => {
            let inputs = crate::gen::churn_inputs(seed, dispatch_churn::OPS / scale_div);
            dispatch_churn::run(&inputs, tracer)
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_record_every_failure() {
        let mut c = Checks::default();
        c.eq("same", 1, 1);
        assert!(c.failures.is_empty());
        c.eq("differs", 1, 2);
        c.eq("also differs", "a", "b");
        assert_eq!(c.failures.len(), 2);
        assert!(c.failures[0].contains("differs"));
    }

    #[test]
    fn counts_round_trip_through_their_field_table() {
        let mut c = Counts::default();
        let names: Vec<&str> = c.fields().iter().map(|(n, _)| *n).collect();
        for (i, n) in names.iter().enumerate() {
            assert!(c.set(n, i as u64 + 1));
        }
        assert!(!c.set("no_such_count", 1));
        let back: Vec<u64> = c.fields().iter().map(|(_, v)| *v).collect();
        assert_eq!(back, (1..=names.len() as u64).collect::<Vec<_>>());
        assert_eq!(c.clock_advances, names.len() as u64);
    }

    #[test]
    fn digest_depends_on_order_and_content() {
        let d = |xs: &[u64]| {
            let mut d = Digest::default();
            d.feed_all(xs.iter().copied());
            d.finish()
        };
        assert_eq!(d(&[1, 2, 3]), d(&[1, 2, 3]));
        assert_ne!(d(&[1, 2, 3]), d(&[3, 2, 1]));
        assert_ne!(d(&[1, 2, 3]), d(&[1, 2, 4]));
        assert_ne!(d(&[0]), d(&[]));
    }
}

/// Small instances of every workload: the output checks pass on honest
/// runs, fail on a tampered one, and the digest depends on the inputs and
/// on nothing else.
#[cfg(test)]
mod workload_tests {
    use super::*;
    use crate::gen;

    fn quiet() -> Tracer {
        Tracer::new(false)
    }

    #[test]
    fn dispatch_steady_checks_every_raise() {
        let inputs = gen::steady_inputs(3, 2);
        let a = dispatch_steady::run(&inputs, &mut quiet());
        assert_eq!(a.failures, Vec::<String>::new());
        assert_eq!((a.ops_attempted, a.ops_failed), (32_000, 0));
        assert_eq!(a.counts.raises, 32_000);
        assert_eq!(a.slices.len(), 1);
        let b = dispatch_steady::run(&inputs, &mut quiet());
        assert_eq!(a.digest, b.digest);
        let other = dispatch_steady::run(&gen::steady_inputs(4, 2), &mut quiet());
        assert_ne!(a.digest, other.digest);
    }

    #[test]
    fn dispatch_churn_reconciles_and_catches_a_wrong_result() {
        let inputs = gen::churn_inputs(3, 3_000);
        let a = dispatch_churn::run(&inputs, &mut quiet());
        assert_eq!(a.failures, Vec::<String>::new());
        assert_eq!((a.ops_attempted, a.ops_failed), (3_000, 0));
        assert_eq!(a.counts.raises, 3_000 * gen::CHURN_RAISES_PER_OP as u64);
        assert_eq!(a.digest, dispatch_churn::run(&inputs, &mut quiet()).digest);

        // A run whose raises return something else than the model expects
        // must fail, however fast it was.
        let mut wrong = inputs.clone();
        wrong.ops[17].expect_sum ^= 1;
        wrong.end[5].generation += 1;
        let b = dispatch_churn::run(&wrong, &mut quiet());
        assert_eq!(b.ops_failed, 2, "{:?}", b.failures);
    }

    #[test]
    fn udp_forward_is_worker_count_invariant() {
        let inputs = gen::udp_inputs(3, 600);
        let one = udp_forward::run(&inputs, 1, &mut quiet());
        assert_eq!(one.failures, Vec::<String>::new());
        assert_eq!((one.ops_attempted, one.ops_failed), (600, 0));
        assert_eq!(one.counts.wire_frames, 2_400);
        assert!(one.counts.epochs > 0);
        let two = udp_forward::run(&inputs, 2, &mut quiet());
        assert_eq!(two.ops_failed, 0);
        assert_eq!(one.digest, two.digest);
        assert_eq!(one.counts, two.counts);
    }

    #[test]
    fn http_storm_books_close_and_tracing_counts_advances() {
        let inputs = gen::http_inputs(3, http_storm::CLIENT_SHARDS, 40);
        let plain = http_storm::run(&inputs, 1, &mut quiet());
        assert_eq!(plain.failures, Vec::<String>::new());
        assert_eq!((plain.ops_attempted, plain.ops_failed), (440, 0));
        assert!(plain.counts.http_requests >= 400);
        assert_eq!(plain.counts.clock_advances, 0);

        let mut tracer = Tracer::new(true);
        let traced = http_storm::run(&inputs, 1, &mut tracer);
        assert_eq!(
            traced.digest, plain.digest,
            "tracing must not move a virtual number"
        );
        assert!(traced.counts.clock_advances > 0);
        let spans = tracer.into_spans();
        let named = |n: &str| spans.iter().filter(|s| s.name == n).count();
        assert_eq!(named("setup"), 1);
        assert_eq!(named("stack_install"), 12);
        assert_eq!(named("slice"), traced.slices.len());
        assert_eq!(
            (named("window"), named("check"), named("teardown")),
            (1, 1, 1)
        );
    }
}
