//! Readiness: the epoll-style aggregation layer over the protocol graph.
//!
//! The webscale redesign replaces one-blocking-strand-per-connection with
//! a single server strand parked on a [`NetPoller`]. Sources (sockets,
//! listeners, connections) carry a [`Registration`]; when the packet path
//! makes one readable it *notes* the fact in the stack's [`ReadyHub`] —
//! an uncharged, deduplicating scoreboard. After each inbound burst the
//! protocol thread *flushes* the hub: one `Net.Ready` raise per poller
//! (batched via `raise_batch`), demultiplexed by a keyed `GuardSpec` on
//! the poller id, exactly the compiled-dispatch shape of PR-6.
//!
//! Charging story: readiness notes piggyback on the per-packet raises
//! that already paid for the packet's trip up the graph — the note itself
//! is a scoreboard write, not an event. The flush charges one `Net.Ready`
//! raise per poller with pending tokens, amortized across every token
//! that became ready in the burst. An empty hub flushes for free, so a
//! stack with no pollers charges nothing — that is what keeps the
//! pre-webscale goldens byte-identical with this module compiled in.

use crate::stack::NetStack;
use spin_check::sync::Mutex;
use spin_core::{Event, Identity};
use spin_sal::Nanos;
use spin_sched::{Executor, KChannel, StrandCtx, WaitQueue};
use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::Arc;
use std::task::Poll;

/// Interest/readiness bit masks.
pub mod interest {
    /// Data (or a datagram) is available to read.
    pub const READABLE: u8 = 0b001;
    /// A connection is waiting to be accepted.
    pub const ACCEPT: u8 = 0b010;
    /// The peer closed (or the source otherwise reached end-of-stream).
    pub(crate) const CLOSED: u8 = 0b100;
}

/// An application-chosen identifier for one registered source.
pub type Token = u64;

/// One poller's worth of readiness, raised as a single `Net.Ready` event.
#[derive(Clone)]
pub struct ReadyBatch {
    /// The destination poller id (the keyed demux field).
    pub poller: u64,
    /// `(token, readiness mask)` pairs, in ascending token order.
    pub tokens: Vec<(Token, u8)>,
}

/// The stack-wide readiness scoreboard: notes accumulate (deduplicated,
/// masks OR-merged) between bursts and are flushed as batched `Net.Ready`
/// raises by the protocol thread.
#[derive(Default)]
pub struct ReadyHub {
    /// `(poller, token) -> mask`, BTree-ordered so a flush groups each
    /// poller's tokens contiguously and deterministically.
    pending: Mutex<BTreeMap<(u64, Token), u8>>,
}

impl ReadyHub {
    /// An empty hub.
    // uncharged: constructor.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records "`token` on `poller` became ready for `mask`". Merges into
    /// any pending note for the same source.
    // uncharged: scoreboard write; the packet that caused it already paid
    // its per-hop charges, and the flush charges the aggregated raise.
    pub fn note(&self, poller: u64, token: Token, mask: u8) {
        if mask == 0 {
            return;
        }
        *self.pending.lock().entry((poller, token)).or_insert(0) |= mask;
    }

    /// Raises everything pending as one [`ReadyBatch`] per poller through
    /// `ev` (`Net.Ready`). An empty hub raises nothing and charges
    /// nothing.
    // charged: each non-empty poller batch is one `Net.Ready` raise
    // (batched), paying the dispatcher's standard per-raise costs.
    pub fn flush(&self, ev: &Event<ReadyBatch, ()>) {
        let pending = std::mem::take(&mut *self.pending.lock());
        if pending.is_empty() {
            return;
        }
        let mut batches: Vec<ReadyBatch> = Vec::new();
        for ((poller, token), mask) in pending {
            match batches.last_mut() {
                Some(b) if b.poller == poller => b.tokens.push((token, mask)),
                _ => batches.push(ReadyBatch {
                    poller,
                    tokens: vec![(token, mask)],
                }),
            }
        }
        let _ = ev.raise_batch(batches);
    }

    /// Whether any notes are pending.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.pending.lock().is_empty()
    }
}

/// A source's handle back to its poller: the packet path calls
/// `Registration::note` when the source becomes ready.
pub struct Registration {
    hub: Arc<ReadyHub>,
    poller: u64,
    token: Token,
    mask: u8,
}

impl Registration {
    /// Notes readiness, filtered to the registered interest (`CLOSED`
    /// always passes — end-of-stream must never be silently dropped).
    // uncharged: scoreboard write (see `ReadyHub::note`).
    pub(crate) fn note(&self, what: u8) {
        let m = what & (self.mask | interest::CLOSED);
        if m != 0 {
            self.hub.note(self.poller, self.token, m);
        }
    }
}

/// A source that can be registered with a [`NetPoller`].
pub trait Pollable {
    /// Attaches `r` to this source and returns its *current* level mask,
    /// so readiness that predates the registration is not lost.
    fn register(&self, r: Registration) -> u8;
}

/// A bounded queue the packet path fills, that a strand blocks on or a
/// poller watches: the channel, the readiness bit one queued item stands
/// for, and the registration of whichever poller adopted it. A datagram
/// socket, a listener's backlog and a connection's receive side are each
/// one of these; it is the one place a source's level is computed and its
/// notes are made. Dereferences to its channel for the reading half
/// (`recv`, `try_recv`, `len`).
pub(crate) struct ReadyQueue<T: Send> {
    items: Arc<KChannel<T>>,
    ready: u8,
    reg: Mutex<Option<Registration>>,
}

impl<T: Send> ReadyQueue<T> {
    /// An empty queue of up to `depth` items, each of which makes its
    /// source ready for `ready`.
    // uncharged: constructor.
    pub(crate) fn new(exec: Arc<Executor>, depth: usize, ready: u8) -> Self {
        ReadyQueue {
            items: KChannel::new(exec, depth),
            ready,
            reg: Mutex::new(None),
        }
    }

    /// Queues `item` — dropped if the queue is full or closed, as a
    /// datagram service may — and notes the ready bit either way: a full
    /// queue is as readable as one with room.
    // charged: the push and the note are scoreboard writes; a reader
    // blocked on the queue is unblocked at the scheduler's `sync_op`.
    pub(crate) fn push(&self, item: T) {
        self.items.try_push(item);
        self.note(self.ready);
    }

    /// Ends the stream: readers drain what is queued and then see `None`,
    /// and the poller is told `CLOSED`.
    // charged: as `push` — every blocked reader is unblocked.
    pub(crate) fn close(&self) {
        self.items.close();
        self.note(interest::CLOSED);
    }

    fn note(&self, what: u8) {
        if let Some(r) = self.reg.lock().as_ref() {
            r.note(what);
        }
    }
}

impl<T: Send> Deref for ReadyQueue<T> {
    type Target = KChannel<T>;

    fn deref(&self) -> &KChannel<T> {
        &self.items
    }
}

impl<T: Send> Pollable for ReadyQueue<T> {
    // uncharged: registration is control-plane.
    fn register(&self, r: Registration) -> u8 {
        let (queued, closed) = self.items.level();
        *self.reg.lock() = Some(r);
        let mut level = 0;
        if queued > 0 {
            level |= self.ready;
        }
        if closed {
            level |= interest::CLOSED;
        }
        level
    }
}

struct PollInner {
    /// Accumulated readiness, drained by `wait`/`try_wait` in token order.
    ready: BTreeMap<Token, u8>,
    /// The strands parked in `wait`.
    waiters: WaitQueue,
}

/// An epoll-style poller: sources are added with a token and an interest
/// mask; `wait` blocks until at least one is ready and drains the set.
pub struct NetPoller {
    id: u64,
    exec: Arc<Executor>,
    hub: Arc<ReadyHub>,
    inner: Mutex<PollInner>,
}

impl NetPoller {
    /// Creates a poller on `stack`, installing its keyed `Net.Ready`
    /// demux handler.
    // uncharged: poller setup is control-plane; delivery charges per raise.
    pub fn new(stack: &NetStack) -> Arc<NetPoller> {
        Self::with_time_bound(stack, None)
    }

    /// [`NetPoller::new`] with a `time_bound` constraint on the delivery
    /// handler: a delivery burning more virtual time than `bound` is
    /// aborted by the dispatcher (the PR-3 containment machinery).
    // uncharged: poller setup is control-plane; delivery charges per raise.
    pub(crate) fn with_time_bound(stack: &NetStack, bound: Option<Nanos>) -> Arc<NetPoller> {
        let id = stack.alloc_poller_id();
        let label = format!("poller-{id}");
        if let Some(b) = bound {
            stack.set_poller_bound(&label, b);
        }
        let poller = Arc::new(NetPoller {
            id,
            exec: stack.executor().clone(),
            hub: stack.ready_hub().clone(),
            inner: Mutex::new(PollInner {
                ready: BTreeMap::new(),
                waiters: WaitQueue::default(),
            }),
        });
        let me = poller.clone();
        stack
            .events()
            .net_ready
            .install_keyed(
                Identity::extension(&label),
                &stack.events().ready_poller_key,
                id,
                move |b: &ReadyBatch| me.deliver(b),
            )
            .expect("install poller demux");
        poller
    }

    /// This poller's id (the `Net.Ready` demux key).
    // uncharged: accessor.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Registers `src` under `token` with the given interest mask. Any
    /// readiness already present on the source is folded in immediately.
    // uncharged: registration is control-plane.
    pub fn add(&self, src: &dyn Pollable, token: Token, interest_mask: u8) {
        let reg = Registration {
            hub: self.hub.clone(),
            poller: self.id,
            token,
            mask: interest_mask,
        };
        let level = src.register(reg) & (interest_mask | interest::CLOSED);
        if level != 0 {
            *self.inner.lock().ready.entry(token).or_insert(0) |= level;
        }
    }

    /// Delivery from the keyed `Net.Ready` handler (protocol-thread
    /// context; must not block).
    // charged: runs inside the `Net.Ready` raise, which pays the
    // dispatcher's per-raise costs for the whole batch.
    fn deliver(&self, batch: &ReadyBatch) {
        self.mark(&batch.tokens);
    }

    /// Posts local readiness (timer ticks, user wakeups) directly into
    /// this poller, bypassing the hub (no raise, no charge).
    // uncharged: local scoreboard write; no event is raised.
    pub(crate) fn post(&self, token: Token, mask: u8) {
        self.mark(&[(token, mask)]);
    }

    /// Folds `tokens` into the ready set and wakes every waiter.
    fn mark(&self, tokens: &[(Token, u8)]) {
        let waiters = {
            let mut inner = self.inner.lock();
            for &(token, mask) in tokens {
                *inner.ready.entry(token).or_insert(0) |= mask;
            }
            inner.waiters.wake_all()
        };
        waiters.unblock(&self.exec);
    }

    /// Blocks until at least one source is ready, then drains and returns
    /// the ready set in ascending token order.
    // uncharged: blocking costs virtual time on the scheduler's account;
    // the readiness delivery itself was charged at the raise.
    pub fn wait(&self, ctx: &StrandCtx) -> Vec<(Token, u8)> {
        ctx.wait(
            &self.inner,
            |inner| &mut inner.waiters,
            |inner| {
                if inner.ready.is_empty() {
                    Poll::Pending
                } else {
                    Poll::Ready(std::mem::take(&mut inner.ready).into_iter().collect())
                }
            },
        )
    }

    /// Drains the ready set without blocking (possibly empty).
    // uncharged: scoreboard read.
    pub fn try_wait(&self) -> Vec<(Token, u8)> {
        let mut inner = self.inner.lock();
        std::mem::take(&mut inner.ready).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testrig::TwoHosts;
    use spin_core::BlockedInStep;
    use spin_sal::HostId;
    use spin_sched::{IdleOutcome, Step};

    /// Takes everything noted in `hub` since the last call.
    fn noted(hub: &ReadyHub) -> Vec<((u64, Token), u8)> {
        std::mem::take(&mut *hub.pending.lock())
            .into_iter()
            .collect()
    }

    /// A two-deep queue whose items stand for `READABLE`, and the hub it
    /// notes to as token 7 of poller 1.
    fn watched_queue(rig: &TwoHosts) -> (Arc<ReadyQueue<u8>>, Arc<ReadyHub>) {
        let q = ReadyQueue::new(rig.exec.clone(), 2, interest::READABLE);
        let hub = Arc::new(ReadyHub::new());
        let level = q.register(Registration {
            hub: hub.clone(),
            poller: 1,
            token: 7,
            mask: interest::READABLE,
        });
        assert_eq!(level, 0, "a fresh queue is ready for nothing");
        (Arc::new(q), hub)
    }

    #[test]
    fn hub_merges_and_groups_by_poller() {
        let hub = ReadyHub::new();
        hub.note(2, 10, interest::READABLE);
        hub.note(1, 5, interest::READABLE);
        hub.note(2, 10, interest::CLOSED); // merges with the first note
        hub.note(2, 3, interest::ACCEPT);
        assert_eq!(
            noted(&hub),
            vec![
                ((1, 5), interest::READABLE),
                ((2, 3), interest::ACCEPT),
                ((2, 10), interest::READABLE | interest::CLOSED),
            ]
        );
    }

    #[test]
    fn registration_filters_by_interest_but_closed_passes() {
        let hub = Arc::new(ReadyHub::new());
        let reg = Registration {
            hub: hub.clone(),
            poller: 1,
            token: 7,
            mask: interest::ACCEPT,
        };
        reg.note(interest::READABLE); // not interested: dropped
        assert!(hub.is_empty());
        reg.note(interest::CLOSED); // always delivered
        assert!(!hub.is_empty());
    }

    #[test]
    fn a_queue_registers_at_its_level_and_the_poller_filters_it() {
        const R: u8 = interest::READABLE;
        const C: u8 = interest::CLOSED;
        let rig = TwoHosts::new();
        for (queued, closed, level) in [
            (false, false, 0),
            (true, false, R),
            (false, true, C),
            (true, true, R | C),
        ] {
            let q = ReadyQueue::new(rig.exec.clone(), 2, R);
            if queued {
                q.push(1u8); // nobody registered yet: queued, noted nowhere
            }
            if closed {
                q.close();
            }
            let ready = |interest_mask: u8| {
                let poller = NetPoller::new(&rig.b);
                poller.add(&q, 7, interest_mask);
                poller.try_wait().first().map_or(0, |&(_, mask)| mask)
            };
            assert_eq!(ready(R), level, "queued {queued}, closed {closed}");
            // The poller still filters the level by interest, and `CLOSED`
            // still passes any interest.
            assert_eq!(ready(interest::ACCEPT), level & C);
        }
    }

    #[test]
    fn a_push_onto_a_full_queue_still_notes() {
        let rig = TwoHosts::new();
        let (q, hub) = watched_queue(&rig);
        for i in 0..3 {
            q.push(i);
            assert_eq!(noted(&hub), [((1, 7), interest::READABLE)], "push {i}");
        }
        assert_eq!(q.len(), 2, "the third item found the queue full");
    }

    #[test]
    fn close_wakes_a_blocked_reader_and_notes_closed_per_call() {
        let rig = TwoHosts::new();
        let (q, hub) = watched_queue(&rig);
        let q2 = q.clone();
        let reader = rig.exec.spawn("reader", move |ctx| q2.recv(ctx));
        assert_eq!(
            rig.exec.run_until(Nanos::MAX),
            IdleOutcome::Deadlock {
                blocked: vec!["reader".to_string()]
            },
            "blocked on the empty queue"
        );
        q.close();
        assert_eq!(noted(&hub), [((1, 7), interest::CLOSED)]);
        rig.exec.run_until_idle();
        assert_eq!(
            reader.join().ok(),
            Some(None),
            "woken to the end of the stream"
        );
        q.close();
        assert_eq!(noted(&hub), [((1, 7), interest::CLOSED)], "one per call");
    }

    #[test]
    fn two_strands_waiting_on_one_poller_both_wake() {
        let rig = TwoHosts::new();
        let poller = NetPoller::new(&rig.b);
        let got = Arc::new(Mutex::new(Vec::new()));
        for name in ["first", "second"] {
            let (p, g) = (poller.clone(), got.clone());
            rig.exec.spawn(name, move |ctx| {
                let ready = p.wait(ctx);
                g.lock().push((name, ready));
            });
        }
        let p = poller.clone();
        rig.exec.spawn("poster", move |ctx| {
            p.post(1, interest::READABLE);
            ctx.yield_now(); // both waiters run: "first" drains token 1
            p.post(2, interest::READABLE);
        });
        rig.exec.run_until_idle();
        assert_eq!(
            *got.lock(),
            [
                ("first", vec![(1, interest::READABLE)]),
                ("second", vec![(2, interest::READABLE)]),
            ]
        );
    }

    #[test]
    fn an_idle_poller_wait_refused_in_a_step_leaves_nothing_queued() {
        let rig = TwoHosts::new();
        let poller = NetPoller::new(&rig.b);
        let p = poller.clone();
        // The refusal escapes the slice and finishes the stepper, so no
        // wake can run it again.
        let stepper = rig.exec.spawn_step_on(HostId(0), "stepper", 8, move |ctx| {
            p.wait(ctx);
            Step::Done
        });
        let panicked = IdleOutcome::Panicked {
            strands: vec!["stepper".to_string()],
        };
        assert_eq!(rig.exec.run_until(Nanos::MAX), panicked);
        let clock = rig.exec.clock();
        let t0 = clock.now();
        poller.post(1, interest::READABLE);
        assert_eq!(clock.now(), t0, "the post woke nobody");
        assert_eq!(rig.exec.run_until(Nanos::MAX), panicked);
        let unwound = stepper.join().expect_err("refused");
        let refused = unwound.downcast_ref::<BlockedInStep>().map(|b| b.op);
        assert_eq!(refused, Some("wait"));
    }
}
