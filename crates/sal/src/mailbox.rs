//! Inter-shard mailboxes: the only channel between per-core kernel shards.
//!
//! In multicore mode every simulated host is a *shard* with its own clock
//! and timer queue. Anything that crosses shards — wire frames, cross-core
//! event raises, control-plane actions — is posted into the destination
//! shard's [`Mailbox`] with an absolute virtual delivery time, and drained
//! onto the destination's timer queue at the next conservative-PDES safe
//! point (see `spin_sched::Multicore`).
//!
//! There is one way in, `Mailbox::post_all`: [`Mailbox::post`] is a batch
//! of one and the wire posts a run of frames as a batch of many; under one
//! lock acquisition each envelope takes the same step — post hook, quota
//! gate, lane sequence number, append — so a batch is exactly its
//! envelopes posted in order.
//! An envelope's action is boxed once, by whoever posts it, and that box is
//! what the drain hands on ([`Envelope::action`]) and the destination's
//! timer queue fires: nothing re-wraps it on the way.
//!
//! A post appends its envelope to a plain `Vec` and keeps the earliest
//! delivery time beside it; the drain sorts the batch once, into the total
//! order below, and that sorted buffer is what the destination's timer
//! queue keeps as one run ([`crate::TimerQueue::schedule_run`]): a frame
//! is ordered once between its post and its fire (DESIGN.md decision 27).
//!
//! Everything is one locked `MailboxState`, counters included: a post
//! and a drain count themselves under the lock they hold anyway. The one
//! field outside it is `pending`, an atomic mirror of the entry count,
//! because the epoch planner probes every shard's mailbox every epoch and
//! an empty one must cost it a load, not a lock. The quota gate runs under
//! this lock, so the lock order is mailbox → quota cell, never the reverse
//! (DESIGN.md decision 21).
//!
//! Determinism does not come from the OS scheduler: entries are totally
//! ordered by `(deliver_at, lane, seq)`. The *lane* is derived from the
//! sender (wire lane base + source endpoint, or the cross-call base + the
//! sending host), so concurrent posts from different senders never share a
//! lane, and `seq` is a per-lane counter, so posts from one sender keep
//! their program order. One drain's order is therefore a pure function of
//! virtual time, independent of which worker thread posted first — and
//! *which* envelopes one drain takes is too, because of who drains and
//! when: `Multicore`'s coordinator alone, between the two barriers of an
//! epoch, when no shard is running and so nobody can post (the mailboxes
//! of exactly the shards it has just planned). A drain racing its posters
//! is a legal use of this type — every operation is under the lock, and
//! spin-check's `mailbox_model` explores exactly that race — but the
//! kernel does not make it: a drain in the parallel phase would take
//! whatever the host had let the peers post so far, and equal-instant
//! envelopes from two lanes would then fire in drain-batch order.

use crate::clock::{Nanos, TimerFn};
use spin_check::sync::{AtomicU64, Mutex, Ordering};
use std::collections::HashMap;
use std::sync::Arc;

/// Disjoint lane namespaces: one base per traffic class, plus the sender's
/// endpoint/host number. Two senders (or two media) never share a lane.
pub mod lanes {
    /// Cross-core event raises (`Dispatcher::raise_on`): lane = base + the
    /// sending host id.
    pub const XCALL_BASE: u64 = 0x1_0000;
    /// Ethernet frames: lane = base + the source wire endpoint.
    pub const ETHERNET_BASE: u64 = 0x2_0000;
    /// ATM frames: lane = base + the source wire endpoint.
    pub const ATM_BASE: u64 = 0x3_0000;
    /// T3 frames: lane = base + the source wire endpoint.
    pub const T3_BASE: u64 = 0x4_0000;
    /// Control-plane actions (`Multicore::post_control` — hot-swap
    /// phases): lane = base + the target host id (one controller drives
    /// a target at a time).
    pub const CONTROL_BASE: u64 = 0x5_0000;
}

/// What a post hook decided about one envelope (deterministic fault
/// injection on the mailbox edge).
pub enum MailFate {
    /// Deliver at this (possibly shifted) virtual time.
    Deliver(Nanos),
    /// Drop the envelope on the floor.
    Drop,
}

/// A boxed delivery action: fired with the delivery time on the
/// destination shard — by its timer queue, which takes it as the box it is.
pub type MailAction = TimerFn;
type PostHook = Box<dyn Fn(Nanos) -> MailFate + Send + Sync>;
/// Per-lane occupancy gate (kernel resource quotas): consulted on every
/// post with `(lane, entries already pending on that lane)`; returning
/// `false` refuses the post (counted as dropped). Absent, posts pay one
/// `Option` check and no occupancy bookkeeping happens.
type QuotaGate = Box<dyn Fn(u64, u64) -> bool + Send + Sync>;

/// A drained envelope: fire `action` at virtual time `deliver_at` on the
/// destination shard.
pub struct Envelope {
    pub deliver_at: Nanos,
    pub lane: u64,
    pub seq: u64,
    pub action: MailAction,
}

#[derive(Default)]
struct MailboxState {
    /// Admitted envelopes in admission order; the drain sorts them into
    /// the total order `(deliver_at, lane, seq)` — see the module docs.
    entries: Vec<Envelope>,
    /// The least `deliver_at` in `entries`.
    earliest: Option<Nanos>,
    /// Per-lane sequence counters (program order within one sender).
    lane_seq: HashMap<u64, u64>,
    hook: Option<PostHook>,
    /// Per-lane pending counts, maintained only while a quota gate is
    /// installed (the ungated path does no occupancy bookkeeping).
    lane_pending: HashMap<u64, u64>,
    quota_gate: Option<QuotaGate>,
    /// Envelope counters, counted under the lock their path holds.
    posted: u64,
    drained: u64,
    dropped: u64,
}

impl MailboxState {
    /// The per-envelope step: the post hook may shift or drop it, the
    /// quota gate may refuse it, and an accepted envelope takes its lane's
    /// next sequence number and its place in the total order.
    #[inline] // as a call of its own a lone `post` measured ×1.10
    fn admit(&mut self, deliver_at: Nanos, lane: u64, action: MailAction) -> bool {
        let deliver_at = match self.hook.as_ref().map(|h| h(deliver_at)) {
            Some(MailFate::Drop) => return false,
            Some(MailFate::Deliver(at)) => at,
            None => deliver_at,
        };
        if let Some(gate) = self.quota_gate.as_ref() {
            let occupancy = self.lane_pending.entry(lane).or_insert(0);
            if !gate(lane, *occupancy) {
                return false;
            }
            *occupancy += 1;
        }
        let seq = self.lane_seq.entry(lane).or_insert(0);
        self.entries.push(Envelope {
            deliver_at,
            lane,
            seq: *seq,
            action,
        });
        *seq += 1;
        self.earliest = Some(self.earliest.map_or(deliver_at, |at| at.min(deliver_at)));
        true
    }
}

/// One shard's inbound message queue.
#[derive(Clone, Default)]
pub struct Mailbox {
    state: Arc<Mutex<MailboxState>>,
    /// Pending-entry count mirrored outside the lock: the planner probes
    /// every shard's mailbox every epoch, and an empty one must cost it
    /// one atomic load, not a lock.
    pending: Arc<AtomicU64>,
}

impl Mailbox {
    /// An empty mailbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Posts `action` for delivery at `deliver_at` on the given lane.
    ///
    /// The lane must be owned by the posting context (one sender per lane);
    /// the per-lane sequence number then makes the total order independent
    /// of cross-sender races. Returns `false` if the post hook dropped the
    /// envelope or the quota gate refused it.
    pub fn post(
        &self,
        deliver_at: Nanos,
        lane: u64,
        action: impl FnOnce(Nanos) + Send + 'static,
    ) -> bool {
        self.post_all([(deliver_at, lane, Box::new(action) as MailAction)]) == 1
    }

    /// The one way in: admits each envelope in order under one lock
    /// acquisition — `entries` is consumed under it, so the wire can build
    /// a run's envelopes as they are taken, with no `Vec` to carry them —
    /// and returns how many were accepted.
    pub(crate) fn post_all(
        &self,
        entries: impl IntoIterator<Item = (Nanos, u64, MailAction)>,
    ) -> usize {
        let mut st = self.state.lock();
        let mut accepted = 0u64;
        for (deliver_at, lane, action) in entries {
            if st.admit(deliver_at, lane, action) {
                accepted += 1;
            } else {
                st.dropped += 1;
            }
        }
        st.posted += accepted;
        self.pending.fetch_add(accepted, Ordering::Release); // ordering: Release — pairs with the Acquire emptiness probe so a probe that sees the count also sees the entries under the lock.
        accepted as usize
    }

    /// Earliest pending delivery time, if any. Fast path: one atomic load
    /// when the mailbox is empty.
    pub fn next_deadline(&self) -> Option<Nanos> {
        // ordering: Acquire — pairs with the Release in `post` so a non-zero count is followed by a consistent read under the lock.
        if self.pending.load(Ordering::Acquire) == 0 {
            return None;
        }
        self.state.lock().earliest
    }

    /// Drains every pending envelope in `(deliver_at, lane, seq)` order.
    ///
    /// Called by the epoch coordinator at the barrier, which hands the
    /// result to the local timer queue as one run
    /// ([`crate::TimerQueue::schedule_run`]): the run's sequence numbers
    /// follow this order, so equal deadlines fire in `(lane, seq)` order.
    /// The keys are unique, so the sort's result does not depend on the
    /// order the posts arrived in; it runs after the lock is released.
    pub fn drain(&self) -> Vec<Envelope> {
        // ordering: Acquire — pairs with the Release in `post`; an empty probe means nothing to drain.
        if self.pending.load(Ordering::Acquire) == 0 {
            return Vec::new();
        }
        let mut out = {
            let mut st = self.state.lock();
            let out = std::mem::take(&mut st.entries);
            st.earliest = None;
            st.lane_pending.clear();
            st.drained += out.len() as u64;
            self.pending.store(0, Ordering::Release); // ordering: Release — the drain emptied the queue under the lock; publish before the next probe.
            out
        };
        out.sort_unstable_by_key(|env| (env.deliver_at, env.lane, env.seq));
        out
    }

    /// Installs a post hook (deterministic fault injection on the mailbox
    /// edge): the hook may shift or drop each envelope.
    pub fn set_post_hook(&self, hook: impl Fn(Nanos) -> MailFate + Send + Sync + 'static) {
        self.state.lock().hook = Some(Box::new(hook));
    }

    /// Installs the per-lane occupancy gate (kernel resource quotas): the
    /// gate sees `(lane, entries already pending on that lane)` and
    /// returning `false` refuses the post, which is counted as dropped.
    /// Occupancy bookkeeping starts here — current entries are counted in
    /// under the lock, so the gate's view is exact from the first post.
    pub fn set_quota_gate(&self, gate: impl Fn(u64, u64) -> bool + Send + Sync + 'static) {
        let mut st = self.state.lock();
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for env in &st.entries {
            *counts.entry(env.lane).or_insert(0) += 1;
        }
        st.lane_pending = counts;
        st.quota_gate = Some(Box::new(gate));
    }

    /// Entries currently pending on `lane`. With a quota gate installed
    /// this is the gate's own occupancy count; without one it is computed
    /// by scanning (cold path, used by sender-side backpressure probes).
    pub fn lane_pending(&self, lane: u64) -> u64 {
        let st = self.state.lock();
        if st.quota_gate.is_some() {
            st.lane_pending.get(&lane).copied().unwrap_or(0)
        } else {
            st.entries.iter().filter(|env| env.lane == lane).count() as u64
        }
    }

    /// Number of pending envelopes.
    pub fn len(&self) -> usize {
        self.pending.load(Ordering::Acquire) as usize // ordering: Acquire — pairs with the Release in `post`/`drain`.
    }

    /// Whether the mailbox is empty (one atomic load).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// (posted, drained, dropped) envelope counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        let st = self.state.lock();
        (st.posted, st.drained, st.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn drains_in_time_lane_seq_order() {
        let mb = Mailbox::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let tag = |s: &'static str| {
            let log = log.clone();
            move |_now: Nanos| log.lock().push(s)
        };
        // Same time, different lanes; same lane, later seq; earlier time.
        mb.post(500, 7, tag("t500/l7"));
        mb.post(500, 2, tag("t500/l2#0"));
        mb.post(500, 2, tag("t500/l2#1"));
        mb.post(100, 9, tag("t100/l9"));
        assert_eq!(mb.next_deadline(), Some(100));
        let envs = mb.drain();
        for e in envs {
            (e.action)(e.deliver_at);
        }
        assert_eq!(
            *log.lock(),
            vec!["t100/l9", "t500/l2#0", "t500/l2#1", "t500/l7"]
        );
        assert!(mb.is_empty());
        assert_eq!(mb.stats(), (4, 4, 0));
    }

    #[test]
    fn post_hook_shifts_and_drops() {
        let mb = Mailbox::new();
        mb.set_post_hook(|at| {
            if at < 100 {
                MailFate::Drop
            } else {
                MailFate::Deliver(at + 1_000)
            }
        });
        assert!(!mb.post(50, 0, |_| {}));
        assert!(mb.post(200, 0, |_| {}));
        assert_eq!(mb.next_deadline(), Some(1_200));
        assert_eq!(mb.stats(), (1, 0, 1));
    }

    #[test]
    fn quota_gate_bounds_lane_occupancy_exactly() {
        let mb = Mailbox::new();
        mb.post(5, 3, |_| {}); // pre-gate entry is counted in
        mb.set_quota_gate(|lane, pending| lane != 3 || pending < 2);
        assert_eq!(mb.lane_pending(3), 1);
        assert!(mb.post(10, 3, |_| {}));
        assert!(!mb.post(20, 3, |_| {}), "lane 3 at its bound");
        assert!(mb.post(20, 4, |_| {}), "other lanes unmetered");
        assert_eq!(mb.lane_pending(3), 2);
        assert_eq!(mb.stats(), (3, 0, 1));
        // Draining releases the occupancy.
        let _ = mb.drain();
        assert_eq!(mb.lane_pending(3), 0);
        assert!(mb.post(30, 3, |_| {}));
        assert!(mb.post(40, 3, |_| {}));
        assert!(!mb.post(50, 3, |_| {}), "at its bound again");
        assert_eq!(mb.lane_pending(3), 2);
        let _ = mb.drain();
        assert!(mb.post(50, 3, |_| {}));
    }

    #[test]
    fn post_all_drains_identically_to_sequential_posts() {
        let log_a = Arc::new(Mutex::new(Vec::new()));
        let log_b = Arc::new(Mutex::new(Vec::new()));
        let tag = |log: &Arc<Mutex<Vec<&'static str>>>, s: &'static str| {
            let log = log.clone();
            move |_now: Nanos| log.lock().push(s)
        };
        // Interleaved lanes, ties on deliver_at, out-of-order times.
        let seq = [
            (500u64, 7u64, "t500/l7"),
            (500, 2, "t500/l2#0"),
            (500, 2, "t500/l2#1"),
            (100, 9, "t100/l9"),
            (100, 2, "t100/l2"),
        ];
        let a = Mailbox::new();
        for (at, lane, s) in seq {
            a.post(at, lane, tag(&log_a, s));
        }
        let b = Mailbox::new();
        b.post_all(
            seq.iter()
                .map(|&(at, lane, s)| (at, lane, Box::new(tag(&log_b, s)) as MailAction)),
        );
        assert_eq!(a.stats(), b.stats(), "before the drain");
        for lane in [2, 7, 9] {
            assert_eq!(a.lane_pending(lane), b.lane_pending(lane), "lane {lane}");
        }
        for mb in [&a, &b] {
            for e in mb.drain() {
                (e.action)(e.deliver_at);
            }
        }
        assert_eq!(*log_a.lock(), *log_b.lock());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn post_all_respects_hook_and_gate() {
        let guarded = || {
            let mb = Mailbox::new();
            mb.set_post_hook(|at| {
                if at < 100 {
                    MailFate::Drop
                } else {
                    MailFate::Deliver(at)
                }
            });
            mb.set_quota_gate(|lane, pending| lane != 3 || pending < 1);
            mb
        };
        let entries = [
            (50, 1),  // hook drops
            (200, 3), // admitted
            (300, 3), // gate refuses
            (400, 4), // admitted
        ];
        let batched = guarded();
        let accepted = batched.post_all(
            entries
                .iter()
                .map(|&(at, lane)| (at, lane, Box::new(|_| {}) as MailAction)),
        );
        assert_eq!(accepted, 2);
        assert_eq!(batched.stats(), (2, 0, 2));
        let single = guarded();
        let verdicts = entries.map(|(at, lane)| single.post(at, lane, |_| {}));
        assert_eq!(verdicts, [false, true, false, true]);
        assert_eq!(single.stats(), batched.stats());
        for lane in [1, 3, 4] {
            assert_eq!(single.lane_pending(lane), batched.lane_pending(lane));
        }
        assert_eq!(batched.lane_pending(3), 1);
    }

    /// The retired mailbox — every post inserted into a `BTreeMap` keyed by
    /// `(deliver_at, lane, seq)` — kept as the reference the `Vec` and its
    /// one sort per drain are checked against. Single-threaded: it has no
    /// lock and no `pending` mirror.
    #[derive(Default)]
    struct Retired {
        entries: BTreeMap<(Nanos, u64, u64), MailAction>,
        lane_seq: HashMap<u64, u64>,
        hook: Option<PostHook>,
        lane_pending: HashMap<u64, u64>,
        quota_gate: Option<QuotaGate>,
        posted: u64,
        drained: u64,
        dropped: u64,
    }

    impl Retired {
        fn post(&mut self, deliver_at: Nanos, lane: u64, action: MailAction) -> bool {
            let deliver_at = match self.hook.as_ref().map(|h| h(deliver_at)) {
                Some(MailFate::Drop) => {
                    self.dropped += 1;
                    return false;
                }
                Some(MailFate::Deliver(at)) => at,
                None => deliver_at,
            };
            if let Some(gate) = self.quota_gate.as_ref() {
                let occupancy = self.lane_pending.entry(lane).or_insert(0);
                if !gate(lane, *occupancy) {
                    self.dropped += 1;
                    return false;
                }
                *occupancy += 1;
            }
            let seq = self.lane_seq.entry(lane).or_insert(0);
            self.entries.insert((deliver_at, lane, *seq), action);
            *seq += 1;
            self.posted += 1;
            true
        }

        fn next_deadline(&self) -> Option<Nanos> {
            self.entries.keys().next().map(|&(at, _, _)| at)
        }

        fn drain(&mut self) -> Vec<Envelope> {
            let out: Vec<Envelope> = std::mem::take(&mut self.entries)
                .into_iter()
                .map(|((deliver_at, lane, seq), action)| Envelope {
                    deliver_at,
                    lane,
                    seq,
                    action,
                })
                .collect();
            self.lane_pending.clear();
            self.drained += out.len() as u64;
            out
        }

        fn set_quota_gate(&mut self, gate: QuotaGate) {
            let mut counts: HashMap<u64, u64> = HashMap::new();
            for &(_, lane, _) in self.entries.keys() {
                *counts.entry(lane).or_insert(0) += 1;
            }
            self.lane_pending = counts;
            self.quota_gate = Some(gate);
        }

        fn lane_pending(&self, lane: u64) -> u64 {
            if self.quota_gate.is_some() {
                self.lane_pending.get(&lane).copied().unwrap_or(0)
            } else {
                self.entries.keys().filter(|&&(_, l, _)| l == lane).count() as u64
            }
        }
    }

    #[derive(Debug, Clone)]
    enum MailOp {
        Post(Nanos, u64),
        PostAll(Vec<(Nanos, u64)>),
        Drain,
        NextDeadline,
        LanePending(u64),
        Stats,
        /// Shifts some envelopes by an amount that depends on their time,
        /// so one lane's deadlines stop being monotone, and drops others.
        InstallHook,
        /// Bounds each lane's occupancy at 1 + lane % 3.
        InstallGate,
    }

    fn shifting_hook(at: Nanos) -> MailFate {
        match at % 7 {
            3 => MailFate::Drop,
            r => MailFate::Deliver(at + r * 3),
        }
    }

    fn lane_bound(lane: u64, pending: u64) -> bool {
        pending < 1 + lane % 3
    }

    fn mail_op() -> impl Strategy<Value = MailOp> {
        // Few instants and few lanes: ties on `deliver_at` are frequent, and
        // one lane's posts come in any time order.
        let post = || (0u64..16, 0u64..6);
        let one = || post().prop_map(|(at, lane)| MailOp::Post(at, lane));
        prop_oneof![
            one(),
            one(),
            one(),
            one(),
            one(),
            one(),
            proptest::collection::vec(post(), 0..8).prop_map(MailOp::PostAll),
            Just(MailOp::Drain),
            Just(MailOp::NextDeadline),
            (0u64..6).prop_map(MailOp::LanePending),
            Just(MailOp::Stats),
            Just(MailOp::InstallHook),
            Just(MailOp::InstallGate),
        ]
    }

    /// Runs `ops` on both mailboxes and returns the two transcripts: every
    /// return value, and for each drain the keys it returned and the tags
    /// of the posts whose actions they are.
    fn mail_transcripts(ops: &[MailOp]) -> (Vec<String>, Vec<String>) {
        let mb = Mailbox::new();
        let mut old = Retired::default();
        let (mut new_log, mut old_log) = (Vec::new(), Vec::new());
        let ran = Arc::new(Mutex::new(Vec::new()));
        let action = |tag: usize| -> MailAction {
            let ran = ran.clone();
            Box::new(move |_| ran.lock().push(tag))
        };
        let drained = |envs: Vec<Envelope>| {
            let keys: Vec<_> = envs.iter().map(|e| (e.deliver_at, e.lane, e.seq)).collect();
            for env in envs {
                (env.action)(env.deliver_at);
            }
            format!(
                "drain -> {keys:?} ran {:?}",
                std::mem::take(&mut *ran.lock())
            )
        };
        let mut tag = 0;
        for op in ops {
            let (new, old) = match op {
                &MailOp::Post(at, lane) => {
                    tag += 1;
                    let new = mb.post(at, lane, action(tag));
                    let old = old.post(at, lane, action(tag));
                    (format!("post -> {new}"), format!("post -> {old}"))
                }
                MailOp::PostAll(posts) => {
                    let tags = tag + 1..=tag + posts.len();
                    tag += posts.len();
                    let new = mb.post_all(
                        posts
                            .iter()
                            .zip(tags.clone())
                            .map(|(&(at, lane), tag)| (at, lane, action(tag))),
                    );
                    let old = posts
                        .iter()
                        .zip(tags)
                        .filter(|&(&(at, lane), tag)| old.post(at, lane, action(tag)))
                        .count();
                    (format!("post_all -> {new}"), format!("post_all -> {old}"))
                }
                MailOp::Drain => (drained(mb.drain()), drained(old.drain())),
                MailOp::NextDeadline => (
                    format!("next_deadline -> {:?}", mb.next_deadline()),
                    format!("next_deadline -> {:?}", old.next_deadline()),
                ),
                &MailOp::LanePending(lane) => (
                    format!("lane_pending({lane}) -> {}", mb.lane_pending(lane)),
                    format!("lane_pending({lane}) -> {}", old.lane_pending(lane)),
                ),
                MailOp::Stats => (
                    format!("stats -> {:?} len {}", mb.stats(), mb.len()),
                    format!(
                        "stats -> {:?} len {}",
                        (old.posted, old.drained, old.dropped),
                        old.entries.len()
                    ),
                ),
                MailOp::InstallHook => {
                    mb.set_post_hook(shifting_hook);
                    old.hook = Some(Box::new(shifting_hook));
                    continue;
                }
                MailOp::InstallGate => {
                    mb.set_quota_gate(lane_bound);
                    old.set_quota_gate(Box::new(lane_bound));
                    continue;
                }
            };
            new_log.push(new);
            old_log.push(old);
        }
        new_log.push(drained(mb.drain()));
        old_log.push(drained(old.drain()));
        (new_log, old_log)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The `Vec` mailbox against the `BTreeMap` it replaced: over posts
        /// on up to six lanes with frequent equal instants and lanes whose
        /// times go backwards, with and without a post hook that shifts and
        /// drops and a quota gate installed mid-stream, every drain returns
        /// the same envelopes in the same `(deliver_at, lane, seq)` order
        /// with the same actions, and `next_deadline`, `lane_pending` and
        /// `stats` answer the same throughout.
        #[test]
        fn the_vec_drains_as_the_map_did(ops in proptest::collection::vec(mail_op(), 0..64)) {
            let (new, old) = mail_transcripts(&ops);
            prop_assert_eq!(new, old);
        }
    }

    #[test]
    fn empty_probe_is_cheap_and_correct() {
        let mb = Mailbox::new();
        assert!(mb.is_empty());
        assert_eq!(mb.next_deadline(), None);
        assert!(mb.drain().is_empty());
        mb.post(1, 0, |_| {});
        assert!(!mb.is_empty());
    }
}
