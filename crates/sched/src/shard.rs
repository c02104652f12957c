//! Per-core kernel shards under a conservative virtual-time barrier.
//!
//! [`Multicore`] runs one [`Executor`] per simulated host (*shard*), each
//! with its own clock, timer queue and inbound [`Mailbox`]. Shards execute
//! concurrently on real OS threads, yet every virtual-time output is
//! byte-identical whether the epoch plan is pumped by 1, 2 or 4 workers —
//! the determinism the shared-timeline executor gives for free, recovered
//! at multicore scale.
//!
//! # The epoch protocol (conservative PDES)
//!
//! Cross-shard effects travel only through mailboxes, and every such
//! effect has a minimum virtual latency `L` (the *lookahead*: the cheapest
//! of the cross-call latency and the wire propagations). Each epoch the
//! coordinator computes, per shard `i`:
//!
//! * `n_i` — the shard's next event time: *now* if a strand is runnable or
//!   an interrupt is pending, else the earliest local timer or pending
//!   mailbox deadline, clamped to the local clock; `None` if fully idle.
//!   The local half (`Executor::next_event_time`) changes only when the
//!   shard runs, since nothing but mail crosses shards, so the coordinator
//!   keeps it across epochs and re-reads it only for the shards it ran;
//!   the mail half is read for every shard, every epoch — one load when
//!   the mailbox is empty. Debug builds re-read every shard as well and
//!   panic, naming the shard, if a kept horizon moved without a run.
//! * `GVT = min over the Some n_j` — the global virtual time floor. When
//!   every shard is `None`, the system is done.
//! * `ñ_j = n_j`, or `GVT + L` for idle shards — an idle shard can be
//!   woken by mail no earlier than `GVT + L`, and anything *it* then sends
//!   arrives another `L` later, so `GVT + L` bounds its next send time.
//! * `grant_i = L + min over j≠i of ñ_j` — no mail can arrive at shard `i`
//!   before its grant, by induction on the chain of sends that could
//!   produce it.
//!
//! Shard `i` runs this epoch iff `n_i < grant_i`, executing up to its
//! grant. The shard whose `n_i == GVT` always qualifies (`grant_i ≥ GVT +
//! L > GVT`), so virtual time advances every epoch. Which OS thread pumps
//! which shard is irrelevant: the plan is a pure function of virtual-time
//! state, all of it deterministic.
//!
//! An epoch is **plan → deliver → run**. Between the two barriers, with
//! every worker parked, the coordinator plans and then moves the mail of
//! exactly the shards it planned from their mailboxes onto their timer
//! queues; only then do the workers run their shares. The coordinator is
//! every mailbox's only reader and nothing in the parallel phase reads
//! one, so what a shard's timer queue holds when its share starts is a
//! function of the plan history alone, at every worker count. (A shard
//! draining its own mailbox while peers are still posting into it would
//! take whatever the host had let them post so far.) An unplanned shard
//! keeps its mail: only its earliest deadline is read, for its horizon.
//! The tie rule as it stands: equal-instant envelopes delivered at the
//! same barrier fire in `(lane, seq)` order; delivered at different
//! barriers, in barrier order — deterministic, but a function of the plan
//! history; a timer queue ordered `(deadline, lane, seq)` throughout
//! would drop the second clause (DESIGN.md decision #9).
//!
//! A shard may overshoot its grant (a strand charges a big slice of work
//! in one `work()` call); mail that then lands "in its past" is delivered
//! at the shard's — deterministic — local clock instead, exactly as a real
//! core sees a late inter-processor interrupt. DESIGN.md decision #9
//! explains why this conservative barrier was chosen over optimistic
//! rollback.

use crate::executor::{Executor, IdleOutcome};
use spin_check::sync::{AtomicU64, Ordering};
use spin_fault::{FaultHook, Injection};
use spin_obs::{Obs, ObsHook, TraceKind};
use spin_sal::{lanes, Host, HostId, MailFate, Nanos};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// One kernel shard: a host plus the executor pumping it.
pub struct Shard {
    /// The simulated host (own clock, timers, mailbox).
    pub host: Host,
    /// The executor pumping this host's strands, timers and interrupts.
    pub exec: Arc<Executor>,
}

/// Counters for one run (all virtual-time deterministic).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MulticoreStats {
    /// Barrier epochs executed.
    pub epochs: u64,
    /// Shard grants executed (one per shard per epoch it ran); divided by
    /// `epochs` this is the average parallelism the plan exposed.
    pub shard_runs: u64,
    /// Envelopes posted into shard mailboxes.
    pub mail_posted: u64,
    /// Envelopes drained onto shard timer queues.
    pub mail_drained: u64,
    /// Envelopes dropped (fault injection or quarantine purge).
    pub mail_dropped: u64,
}

/// A reusable sense-reversing spin barrier: epochs are short (often a few
/// microseconds of real work), so parking on a condvar would dominate the
/// runtime — workers spin instead.
struct SpinBarrier {
    arrived: AtomicU64,
    generation: AtomicU64,
    total: u64,
}

impl SpinBarrier {
    fn new(total: u64) -> Self {
        SpinBarrier {
            arrived: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            total,
        }
    }

    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire); // ordering: Acquire — read the current generation before declaring arrival; pairs with the Release bump below.
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            // ordering: AcqRel — the last arrival must see every earlier arrival's writes (Acquire) and publish its own (Release) before opening the barrier.
            self.arrived.store(0, Ordering::Relaxed); // ordering: Relaxed — reset is ordered by the generation Release below; nobody reads it until after that.
            self.generation.fetch_add(1, Ordering::Release); // ordering: Release — opening the barrier publishes all pre-barrier writes to the spinners' Acquire loads.
        } else {
            let mut spins = 0u32;
            // ordering: Acquire — pairs with the opener's Release so post-barrier reads see all pre-barrier writes.
            while self.generation.load(Ordering::Acquire) == gen {
                std::hint::spin_loop();
                spins += 1;
                if spins >= 64 {
                    // Oversubscribed (more workers than cores): pure
                    // spinning would starve the opener for a full
                    // timeslice. Yield so it can run.
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// The multicore runtime: shards plus the epoch coordinator.
pub struct Multicore {
    shards: Vec<Shard>,
    workers: usize,
    lookahead: Nanos,
    epochs: Arc<AtomicU64>,
    shard_runs: Arc<AtomicU64>,
    obs: spin_core::hooks::HookSlot<ObsHook>,
}

impl Multicore {
    /// A runtime pumping its shards with `workers` OS threads under
    /// lookahead `L` (use [`spin_sal::MulticoreBoard::lookahead`]).
    /// `workers` only chooses how the — fixed — epoch plan is executed;
    /// all virtual-time outputs are identical for every worker count.
    pub fn new(workers: usize, lookahead: Nanos) -> Self {
        assert!(workers >= 1, "at least one worker");
        assert!(lookahead >= 1, "zero lookahead cannot make progress");
        Multicore {
            shards: Vec::new(),
            workers,
            lookahead,
            epochs: Arc::new(AtomicU64::new(0)),
            shard_runs: Arc::new(AtomicU64::new(0)),
            obs: spin_core::hooks::HookSlot::new(),
        }
    }

    /// Adds a host as a shard and returns its executor.
    pub fn add_host(&mut self, host: Host) -> Arc<Executor> {
        let exec = Executor::for_host(&host);
        self.shards.push(Shard {
            host,
            exec: exec.clone(),
        });
        exec
    }

    /// The shards, in host order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The shard carrying `host`, if any.
    pub fn shard(&self, host: HostId) -> Option<&Shard> {
        self.shards.iter().find(|s| s.host.id == host)
    }

    /// The conservative lookahead in force.
    pub fn lookahead(&self) -> Nanos {
        self.lookahead
    }

    /// Wires a dispatcher's cross-core raises (`Dispatcher::raise_on`) to
    /// the shard mailboxes: a raise targeting another shard is posted on
    /// the sender's exclusive lane and re-raised there one cross-call
    /// latency later.
    pub fn wire_dispatcher(&self, dispatcher: &spin_core::Dispatcher, home: HostId) {
        let boxes: Vec<(HostId, spin_sal::Mailbox)> = self
            .shards
            .iter()
            .map(|s| (s.host.id, s.host.mailbox.clone()))
            .collect();
        let lane = lanes::XCALL_BASE + home.0 as u64;
        dispatcher.set_xcall_router(home, move |target, deliver_at, action| {
            match boxes.iter().find(|(id, _)| *id == target) {
                Some((_, mbox)) => mbox.post(deliver_at, lane, action),
                None => false,
            }
        });
    }

    /// Posts a control action — e.g. one hot-swap phase — into `target`'s
    /// mailbox for execution at virtual time `deliver_at`. The envelope is
    /// drained onto the shard's timer queue at the next conservative epoch
    /// boundary and the action runs on the shard's own pumping thread,
    /// totally ordered (`(deliver_at, lane, seq)`) with all cross-shard
    /// traffic. That total order is what lets a swap coordinator quiesce
    /// a domain *across shards*: the gate closes at the same virtual
    /// point of the timeline no matter how many workers pump the plan.
    /// Returns `false` for an unknown host (or a dropped envelope).
    pub fn post_control(
        &self,
        target: HostId,
        deliver_at: Nanos,
        action: impl FnOnce(Nanos) + Send + 'static,
    ) -> bool {
        match self.shard(target) {
            Some(sh) => {
                sh.host
                    .mailbox
                    .post(deliver_at, lanes::CONTROL_BASE + target.0 as u64, action)
            }
            None => false,
        }
    }

    /// Installs deterministic fault injection on every mailbox post edge
    /// (the `sal.mailbox` site): delays shift delivery, failures drop the
    /// envelope, panics unwind the posting strand (contained as usual).
    pub fn set_fault_hook(&self, hook: FaultHook) {
        for sh in &self.shards {
            let h = hook.clone();
            sh.host.mailbox.set_post_hook(move |at| match h.draw() {
                Some(Injection::Delay(ns)) => MailFate::Deliver(at + ns),
                Some(Injection::Fail) => MailFate::Drop,
                Some(Injection::Panic) => h.fire_panic(),
                None => MailFate::Deliver(at),
            });
        }
    }

    /// Wires the observability subsystem: epochs and mailbox traffic are
    /// exposed as `spin_shard_*` metrics, each executor traces into its
    /// own `shard<N>` lane, and every drained envelope is traced. One-shot
    /// per runtime; charges zero virtual time.
    pub fn wire_obs(&self, obs: &Obs) {
        let _ = self.obs.set(obs.domain("multicore"));
        let epochs = self.epochs.clone();
        obs.register_gauge("shard_epochs_total", move || {
            epochs.load(Ordering::Relaxed) // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
        });
        let boxes: Vec<spin_sal::Mailbox> = self
            .shards
            .iter()
            .map(|sh| sh.host.mailbox.clone())
            .collect();
        for (metric, pick) in [
            ("shard_mail_posted_total", 0usize),
            ("shard_mail_drained_total", 1),
            ("shard_mail_dropped_total", 2),
        ] {
            let boxes = boxes.clone();
            obs.register_gauge(metric, move || {
                boxes
                    .iter()
                    .map(|m| {
                        let s = m.stats();
                        [s.0, s.1, s.2][pick]
                    })
                    .sum()
            });
        }
        for sh in &self.shards {
            let mbox = sh.host.mailbox.clone();
            obs.register_gauge(
                &format!("shard_mail_pending{{shard=\"{}\"}}", sh.host.id.0),
                move || mbox.len() as u64,
            );
            sh.exec
                .set_obs(obs.domain(&format!("shard{}", sh.host.id.0)));
        }
    }

    /// Counters for the run so far.
    pub fn stats(&self) -> MulticoreStats {
        let mut s = MulticoreStats {
            epochs: self.epochs.load(Ordering::Relaxed), // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
            shard_runs: self.shard_runs.load(Ordering::Relaxed), // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
            ..Default::default()
        };
        for sh in &self.shards {
            let (p, dr, dp) = sh.host.mailbox.stats();
            s.mail_posted += p;
            s.mail_drained += dr;
            s.mail_dropped += dp;
        }
        s
    }

    /// Runs every shard to completion. See [`Executor::run_until_idle`];
    /// `Deadlock` here aggregates blocked non-daemon strands across all
    /// shards, and is only reported when no cross-shard mail can save them.
    pub fn run_until_idle(&self) -> IdleOutcome {
        self.run_until(Nanos::MAX)
    }

    /// [`Multicore::run_until_idle`] with a global virtual-time deadline.
    pub fn run_until(&self, deadline: Nanos) -> IdleOutcome {
        if self.shards.is_empty() {
            return IdleOutcome::AllComplete;
        }
        let workers = self.workers.min(self.shards.len());
        // Every shard's local horizon, read once here and from then on
        // only for the shards an epoch ran (see `plan_epoch`).
        let mut local: Vec<Option<Nanos>> = self
            .shards
            .iter()
            .map(|sh| sh.exec.next_event_time())
            .collect();
        // The planner's buffers, reused by every epoch of this run.
        let mut next = Vec::with_capacity(self.shards.len());
        let mut plan = Vec::with_capacity(self.shards.len());
        // Worker 0 (this thread) coordinates; all workers, coordinator
        // included, execute their round-robin share of each epoch's plan
        // between two barriers. One worker is the coordinator with nobody
        // to wait for. An empty published plan tells the workers to stop:
        // a real plan always holds the GVT shard.
        let barrier = SpinBarrier::new(workers as u64);
        let plan_cell: spin_check::sync::Mutex<Vec<(usize, Nanos)>> =
            spin_check::sync::Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for w in 1..workers {
                let (barrier, plan_cell) = (&barrier, &plan_cell);
                scope.spawn(move || {
                    let mut plan = Vec::with_capacity(self.shards.len());
                    loop {
                        barrier.wait(); // plan published
                        plan.clone_from(&*plan_cell.lock());
                        if plan.is_empty() {
                            break;
                        }
                        self.run_share(&plan, w, workers);
                        barrier.wait(); // epoch complete
                    }
                });
            }
            loop {
                let planned = catch_unwind(AssertUnwindSafe(|| {
                    self.plan_epoch(deadline, &mut local, &mut next, &mut plan)
                }));
                let done = planned.unwrap_or_else(|panic| {
                    // Stop the workers before unwinding: the scope would
                    // otherwise wait for them at "plan published" forever.
                    plan_cell.lock().clear();
                    barrier.wait();
                    resume_unwind(panic)
                });
                if done.is_none() && workers.min(plan.len()) == 1 {
                    // The whole epoch is this thread's share: run it
                    // without publishing the plan or crossing a barrier.
                    // The other workers stay parked at "plan published",
                    // which orders this epoch before their next one.
                    self.run_share(&plan, 0, 1);
                    continue;
                }
                plan_cell.lock().clone_from(&plan);
                barrier.wait(); // release the plan
                if let Some(outcome) = done {
                    return outcome;
                }
                self.run_share(&plan, 0, workers);
                barrier.wait(); // wait for the epoch
            }
        })
    }

    /// Computes one epoch's plan into `plan` — `(shard index, grant)` for
    /// every shard cleared to run, a pure function of deterministic
    /// virtual-time state — and delivers those shards' mail to their timer
    /// queues, each drain as one run. Returns the run's outcome instead,
    /// and leaves `plan` empty, when there is nothing left to plan. `plan`
    /// comes in holding the previous epoch's; `local` holds each shard's
    /// local horizon (`Executor::next_event_time`) and `next` is scratch
    /// (the horizons with mail folded in).
    ///
    /// Only the shards the previous epoch ran have their local horizon
    /// re-read: nothing but mail crosses shards (DESIGN.md #9), so a shard
    /// that did not run has the horizon it had, and mail is read for every
    /// shard, every epoch — a load when its mailbox is empty (#22). Debug
    /// builds re-read every shard and name the one whose horizon moved.
    ///
    /// Runs only between the two barriers, when no worker is running and
    /// nobody can post. The unplanned shards' mailboxes are left alone on
    /// purpose: draining all of them every epoch would break ties among
    /// equal-instant envelopes by posting epoch instead of by lane while a
    /// shard sits out (it moved `http_storm`'s digest; DESIGN.md #9).
    fn plan_epoch(
        &self,
        deadline: Nanos,
        local: &mut [Option<Nanos>],
        next: &mut Vec<Option<Nanos>>,
        plan: &mut Vec<(usize, Nanos)>,
    ) -> Option<IdleOutcome> {
        for &(idx, _) in plan.iter() {
            local[idx] = self.shards[idx].exec.next_event_time();
        }
        #[cfg(all(debug_assertions, not(spin_check)))]
        for (sh, &cached) in self.shards.iter().zip(local.iter()) {
            let now = sh.exec.next_event_time();
            assert_eq!(
                now, cached,
                "shard {} moved its horizon without running: only mail may cross shards",
                sh.host.id.0
            );
        }
        plan.clear();
        next.clear();
        next.extend(self.shards.iter().zip(local.iter()).map(|(sh, &local)| {
            let mail = sh
                .host
                .mailbox
                .next_deadline()
                .map(|t| t.max(sh.host.clock.now()));
            match (local, mail) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            }
        }));
        let Some(gvt) = next.iter().flatten().min().copied() else {
            return Some(self.final_outcome());
        };
        if gvt >= deadline {
            return Some(IdleOutcome::DeadlineReached);
        }
        self.epochs.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
        let obs = self.obs.get();
        if let Some(obs) = obs {
            obs.trace(TraceKind::ShardEpoch, gvt, 0);
        }
        fill_grants(next, gvt, self.lookahead, deadline, plan);
        assert!(!plan.is_empty(), "the GVT shard always qualifies");
        // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
        self.shard_runs
            .fetch_add(plan.len() as u64, Ordering::Relaxed);
        for &(idx, _) in plan.iter() {
            let sh = &self.shards[idx];
            let run = sh.host.mailbox.drain();
            if let Some(obs) = obs {
                for env in &run {
                    obs.trace(TraceKind::MailDeliver, env.lane, env.deliver_at);
                }
            }
            sh.host.timers.schedule_run(run);
        }
        None
    }

    /// Runs one worker's share of an epoch — every `stride`-th planned
    /// shard from the `first` — each up to its grant.
    fn run_share(&self, plan: &[(usize, Nanos)], first: usize, stride: usize) {
        for &(idx, grant) in plan.iter().skip(first).step_by(stride) {
            // The per-shard outcome is not the system outcome: a "deadlocked"
            // shard may be woken by mail in a later epoch. `plan_epoch` decides.
            let _ = self.shards[idx].exec.run_until(grant);
        }
    }

    /// All shards idle and no mail in flight: done. Blocked non-daemon
    /// strands now really are deadlocked — nothing can ever wake them.
    fn final_outcome(&self) -> IdleOutcome {
        let mut blocked: Vec<String> = self
            .shards
            .iter()
            .flat_map(|sh| sh.exec.blocked_strands())
            .collect();
        blocked.sort();
        if blocked.is_empty() {
            IdleOutcome::AllComplete
        } else {
            IdleOutcome::Deadlock { blocked }
        }
    }
}

/// The grant rule of the module docs: fills `plan` with `(i, grant_i)` for
/// every shard whose horizon `next[i]` lies before its grant. `gvt` is the
/// smallest `Some` horizon and `l` the lookahead.
fn fill_grants(
    next: &[Option<Nanos>],
    gvt: Nanos,
    l: Nanos,
    deadline: Nanos,
    plan: &mut Vec<(usize, Nanos)>,
) {
    // `min over j≠i of ñ_j` is the smallest ñ unless shard `i` holds it,
    // and then the second smallest: one pass finds both.
    // An idle shard can first *send* no earlier than GVT + L (it must
    // first be woken by mail).
    let idle = gvt.saturating_add(l);
    let mut least: Option<(usize, Nanos)> = None;
    let mut second: Option<Nanos> = None;
    for (j, n) in next.iter().enumerate() {
        let eff = n.unwrap_or(idle);
        match least {
            Some((_, m)) if eff >= m => second = Some(second.map_or(eff, |s| s.min(eff))),
            _ => {
                second = least.map(|(_, m)| m);
                least = Some((j, eff));
            }
        }
    }
    plan.clear();
    for (i, n_i) in next.iter().enumerate() {
        let Some(n_i) = *n_i else { continue };
        let peers = match least {
            Some((j, m)) if j != i => Some(m),
            _ => second,
        };
        let grant = match peers {
            // Beyond the peers' own horizons, a peer can also be woken
            // by mail *this* shard sends (earliest at `n_i`); its
            // reply lands no sooner than `n_i + 2L` — one lookahead
            // out, one back. Running past that point would deliver
            // the reply into this shard's simulated past (observed as
            // a TCP segment arriving tens of milliseconds stale when
            // the peer's only local horizon was a distant
            // retransmission timer).
            Some(m) => l
                .saturating_add(m)
                .min(n_i.saturating_add(2 * l))
                .min(deadline),
            None => deadline, // single shard: no one to wait for
        };
        if n_i < grant {
            plan.push((i, grant));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spin_sal::MulticoreBoard;

    /// The grant rule as first written — a filtered min over the peers for
    /// every shard — kept as the reference [`fill_grants`] must equal.
    fn reference_grants(
        next: &[Option<Nanos>],
        gvt: Nanos,
        l: Nanos,
        deadline: Nanos,
    ) -> Vec<(usize, Nanos)> {
        let eff: Vec<Nanos> = next
            .iter()
            .map(|n| n.unwrap_or_else(|| gvt.saturating_add(l)))
            .collect();
        let mut plan = Vec::new();
        for (i, n_i) in next.iter().enumerate() {
            let Some(n_i) = *n_i else { continue };
            let grant = match eff
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &e)| e)
                .min()
            {
                Some(m) => l
                    .saturating_add(m)
                    .min(n_i.saturating_add(2 * l))
                    .min(deadline),
                None => deadline,
            };
            if n_i < grant {
                plan.push((i, grant));
            }
        }
        plan
    }

    /// Horizons that collide often (ties), sit at the far end of the
    /// timeline (saturation), or are absent (idle shards).
    fn horizon() -> impl Strategy<Value = Option<Nanos>> {
        prop_oneof![
            Just(None),
            (0u64..6).prop_map(|k| Some(k * 10_000)),
            (0u64..5_000_000).prop_map(Some),
            (0u64..3).prop_map(|k| Some(Nanos::MAX - k)),
        ]
    }

    fn assert_grants_match(next: &[Option<Nanos>], l: Nanos, deadline: Nanos) {
        let Some(gvt) = next.iter().flatten().min().copied() else {
            return; // all idle: `plan_epoch` never reaches the grant rule
        };
        let mut plan = vec![(usize::MAX, 0)]; // stale content must not survive
        fill_grants(next, gvt, l, deadline, &mut plan);
        assert_eq!(
            plan,
            reference_grants(next, gvt, l, deadline),
            "{next:?} l={l}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn grants_equal_the_reference_formula(
            next in prop::collection::vec(horizon(), 1..10),
            l in 1u64..200_000,
            deadline in prop_oneof![Just(Nanos::MAX), 0u64..6_000_000],
        ) {
            assert_grants_match(&next, l, deadline);
        }

        #[test]
        fn grants_equal_the_reference_with_one_busy_shard(
            shards in 1usize..10,
            busy in any::<prop::sample::Index>(),
            at in 0u64..5_000_000,
            l in 1u64..200_000,
        ) {
            let mut next = vec![None; shards];
            next[busy.index(shards)] = Some(at);
            assert_grants_match(&next, l, Nanos::MAX);
        }
    }

    fn rig(workers: usize, hosts: usize) -> (MulticoreBoard, Multicore) {
        let board = MulticoreBoard::new();
        let mut mc = Multicore::new(workers, board.lookahead());
        for _ in 0..hosts {
            mc.add_host(board.new_host(16));
        }
        (board, mc)
    }

    /// A strand on shard 0 has an action fire on shard 1 one lookahead
    /// later: through `post_control` — mail, the one channel between
    /// shards — or, when `legal` is false, by arming shard 1's timer queue
    /// directly. Returns shard 1's clock when the action fired (0: never).
    fn cross_shard_action(workers: usize, legal: bool) -> Nanos {
        let (board, mc) = rig(workers, 2);
        let mc = Arc::new(mc);
        let fired = Arc::new(AtomicU64::new(0));
        let (a, b) = (&mc.shards()[0].host, &mc.shards()[1].host);
        let (clock_a, clock_b, timers_b) = (a.clock.clone(), b.clock.clone(), b.timers.clone());
        let (f, target, l, runtime) = (fired.clone(), b.id, board.lookahead(), Arc::downgrade(&mc));
        mc.shards()[0].exec.spawn("poster", move |ctx| {
            ctx.work(5_000);
            let at = clock_a.now() + l;
            let action = move |_| f.store(clock_b.now(), Ordering::Relaxed); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
            if legal {
                assert!(runtime
                    .upgrade()
                    .expect("running")
                    .post_control(target, at, action));
            } else {
                timers_b.schedule_at(at, action);
            }
        });
        assert_eq!(mc.run_until_idle(), IdleOutcome::AllComplete);
        fired.load(Ordering::Relaxed) // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
    }

    /// The planner re-reads only the shards it ran (DESIGN.md #22); a debug
    /// build checks that nothing else moved, and names the shard that did.
    #[test]
    #[cfg(debug_assertions)]
    fn a_timer_armed_across_shards_trips_the_horizon_check() {
        for workers in [1, 2] {
            let panic = std::panic::catch_unwind(|| cross_shard_action(workers, false))
                .expect_err("the horizon check fires");
            let msg = panic.downcast_ref::<String>().expect("a formatted message");
            assert!(msg.contains("shard 1 moved its horizon"), "{msg}");
        }
    }

    #[test]
    fn the_same_action_through_the_mailbox_is_worker_count_invariant() {
        let base = cross_shard_action(1, true);
        assert!(base > 5_000, "fired on shard 1 after the post");
        assert_eq!(cross_shard_action(2, true), base, "2 workers diverged");
        assert_eq!(cross_shard_action(4, true), base, "4 workers diverged");
    }

    #[test]
    fn single_shard_degenerates_to_run_until_idle() {
        let (_board, mc) = rig(1, 1);
        let done = Arc::new(AtomicU64::new(0));
        let d = done.clone();
        mc.shards()[0].exec.spawn("solo", move |ctx| {
            ctx.work(10_000);
            d.store(1, Ordering::Relaxed); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
        });
        assert_eq!(mc.run_until_idle(), IdleOutcome::AllComplete);
        assert_eq!(done.load(Ordering::Relaxed), 1); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
    }

    /// Cross-shard ping over the wire: virtual arrival identical at 1, 2
    /// and 4 workers.
    #[test]
    fn cross_shard_wire_delivery_is_worker_count_invariant() {
        let run = |workers: usize| -> (Nanos, Nanos, u64) {
            let board = MulticoreBoard::new();
            let mut mc = Multicore::new(workers, board.lookahead());
            let a = board.new_host(16);
            let b = board.new_host(16);
            let a_eth = a.ethernet.clone();
            let b_nic = b.ethernet.clone();
            let b_endpoint = b.endpoint();
            let ea = mc.add_host(a);
            let eb = mc.add_host(b);
            ea.spawn("sender", move |ctx| {
                ctx.work(5_000);
                a_eth
                    .send(b_endpoint, bytes::Bytes::from_static(b"ping"))
                    .expect("fits mtu");
            });
            let got = Arc::new(AtomicU64::new(0));
            let g = got.clone();
            let clock_b = eb.clock().clone();
            eb.spawn("receiver", move |ctx| {
                while b_nic.rx_pending() == 0 {
                    ctx.sleep(50_000);
                }
                let f = b_nic.receive().expect("pending frame");
                assert_eq!(&f.payload[..], b"ping");
                g.store(clock_b.now(), Ordering::Relaxed); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
            });
            assert_eq!(mc.run_until_idle(), IdleOutcome::AllComplete);
            let st = mc.stats();
            (
                got.load(Ordering::Relaxed), // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
                eb.clock().now(),
                st.mail_posted,
            )
        };
        let base = run(1);
        assert!(base.0 > 0, "frame arrived");
        assert!(base.2 >= 1, "travelled via the mailbox");
        assert_eq!(run(2), base, "2 workers diverged");
        assert_eq!(run(4), base, "4 workers diverged");
    }

    /// A control action posted mid-run fires at its virtual deliver time
    /// on the target shard, identically at every worker count.
    #[test]
    fn control_actions_execute_at_their_virtual_instant() {
        let run = |workers: usize| -> Nanos {
            let board = MulticoreBoard::new();
            let mut mc = Multicore::new(workers, board.lookahead());
            let host = board.new_host(16);
            let id = host.id;
            let exec = mc.add_host(host);
            exec.spawn("busy", |ctx| ctx.work(100_000));
            let fired = Arc::new(AtomicU64::new(0));
            let f = fired.clone();
            let clock = exec.clock().clone();
            assert!(mc.post_control(id, 40_000, move |_| {
                f.store(clock.now(), Ordering::Relaxed); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
            }));
            assert!(
                !mc.post_control(HostId(999), 40_000, |_| {}),
                "unknown host is refused"
            );
            assert_eq!(mc.run_until_idle(), IdleOutcome::AllComplete);
            fired.load(Ordering::Relaxed) // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
        };
        let base = run(1);
        assert!(base >= 40_000, "control action ran at its virtual instant");
        assert_eq!(run(2), base, "2 workers diverged");
    }

    #[test]
    fn mailbox_fault_injection_drops_frames() {
        let board = MulticoreBoard::new();
        let mut mc = Multicore::new(1, board.lookahead());
        let a = board.new_host(16);
        let b = board.new_host(16);
        let a_eth = a.ethernet.clone();
        let b_nic = b.ethernet.clone();
        let b_endpoint = b.endpoint();
        let ea = mc.add_host(a);
        let _eb = mc.add_host(b);
        let plan = spin_fault::FaultPlan::new(11);
        plan.configure(
            spin_fault::SITE_MAILBOX,
            spin_fault::SiteConfig::fail_always(),
        );
        mc.set_fault_hook(plan.hook(spin_fault::SITE_MAILBOX));
        ea.spawn("sender", move |_| {
            a_eth
                .send(b_endpoint, bytes::Bytes::from_static(b"doomed"))
                .expect("fits mtu");
        });
        assert_eq!(mc.run_until_idle(), IdleOutcome::AllComplete);
        assert_eq!(b_nic.rx_pending(), 0, "the envelope was dropped");
        assert_eq!(mc.stats().mail_dropped, 1);
    }

    #[test]
    fn metrics_expose_shard_counters() {
        let board = MulticoreBoard::new();
        let mut mc = Multicore::new(1, board.lookahead());
        let a = board.new_host(16);
        let b = board.new_host(16);
        let a_eth = a.ethernet.clone();
        let b_endpoint = b.endpoint();
        let ea = mc.add_host(a);
        let _eb = mc.add_host(b);
        let obs = Obs::new(64);
        mc.wire_obs(&obs);
        ea.spawn("sender", move |_| {
            a_eth
                .send(b_endpoint, bytes::Bytes::from_static(b"m"))
                .expect("fits mtu");
        });
        assert_eq!(mc.run_until_idle(), IdleOutcome::AllComplete);
        let text = obs.render_prometheus();
        for needle in [
            "spin_shard_epochs_total",
            "spin_shard_mail_posted_total 1",
            "spin_shard_mail_drained_total 1",
            "spin_shard_mail_dropped_total 0",
            "spin_shard_mail_pending{shard=\"0\"} 0",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        assert!(mc.stats().epochs > 0, "epochs counted");
    }

    #[test]
    fn cross_shard_raise_via_dispatcher_router() {
        let run = |workers: usize| -> (u64, Nanos) {
            let board = MulticoreBoard::new();
            let mut mc = Multicore::new(workers, board.lookahead());
            let a = board.new_host(16);
            let b = board.new_host(16);
            let disp_a = spin_core::Dispatcher::new(a.clock.clone(), a.profile.clone());
            let disp_b = spin_core::Dispatcher::new(b.clock.clone(), b.profile.clone());
            let a_id = a.id;
            let b_id = b.id;
            let ea = mc.add_host(a);
            let eb = mc.add_host(b);
            mc.wire_dispatcher(&disp_a, a_id);
            mc.wire_dispatcher(&disp_b, b_id);
            let (ev, owner) =
                disp_b.define::<u64, u64>("Shard.Pokes", spin_core::Identity::kernel("b"));
            let hits = Arc::new(AtomicU64::new(0));
            let h = hits.clone();
            owner
                .set_primary(move |x| {
                    h.fetch_add(*x, Ordering::Relaxed); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
                    *x
                })
                .expect("primary");
            ea.spawn("raiser", move |ctx| {
                ctx.work(1_000);
                // Cross-shard: the raise is posted through a's dispatcher
                // (the caller's) and delivered by b's event one cross-call
                // latency later; the result is unobservable.
                for _ in 0..3 {
                    let posted = disp_a.raise_on(b_id, &ev, 7).expect("routed");
                    assert!(posted.is_none(), "cross-shard raises are async");
                }
            });
            let _ = (eb, disp_b);
            assert_eq!(mc.run_until_idle(), IdleOutcome::AllComplete);
            (hits.load(Ordering::Relaxed), mc.stats().mail_posted) // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
        };
        let base = run(1);
        assert_eq!(run(2), base);
    }
}
