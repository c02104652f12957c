//! In-kernel synchronization: mutexes, condition variables and channels
//! on strands.
//!
//! These are the "locks with condition variables in SPIN" used by Table 3's
//! kernel-thread measurements. They operate on the virtual timeline: a
//! contended lock blocks the strand (raising the Block hook) and unlock
//! hands off through the scheduler. Because exactly one strand runs at a
//! time, each is a state machine guarded by a host lock — the executor
//! provides the atomicity — whose waiters are [`WaitQueue`]s inside that
//! state: every blocking call here is one [`StrandCtx::wait`], and every
//! wake is [`Wakeups`] taken under the lock and unblocked after it.

use crate::executor::{Executor, StrandCtx, StrandId};
use crate::wait::{woken_once, WaitQueue, Wakeups};
use spin_check::sync::Mutex;
use spin_sal::{Cost, Nanos};
use std::collections::VecDeque;
use std::sync::Arc;
use std::task::Poll;

struct MutexState {
    owner: Option<StrandId>,
    waiters: WaitQueue,
}

/// A kernel mutex (Modula-3 `MUTEX` analogue).
pub(crate) struct KMutex {
    exec: Arc<Executor>,
    state: Mutex<MutexState>,
}

impl KMutex {
    /// Creates an unlocked mutex.
    pub(crate) fn new(exec: Arc<Executor>) -> Arc<Self> {
        Arc::new(KMutex {
            exec,
            state: Mutex::new(MutexState {
                owner: None,
                waiters: WaitQueue::default(),
            }),
        })
    }

    /// Acquires the mutex, blocking the strand while contended.
    pub(crate) fn lock(&self, ctx: &StrandCtx) {
        self.exec.clock().charge(Cost::SyncOp, 1);
        ctx.wait(
            &self.state,
            |st| &mut st.waiters,
            |st| match st.owner {
                Some(_) => Poll::Pending,
                None => {
                    st.owner = Some(ctx.id());
                    Poll::Ready(())
                }
            },
        );
    }

    /// Releases the mutex and wakes the first waiter.
    ///
    /// # Panics
    ///
    /// Panics if the calling strand does not hold the mutex — that is an
    /// extension bug the trusted package refuses to hide.
    pub(crate) fn unlock(&self, ctx: &StrandCtx) {
        self.exec.clock().charge(Cost::SyncOp, 1);
        let next = {
            let mut st = self.state.lock();
            assert_eq!(st.owner, Some(ctx.id()), "unlock by non-owner");
            st.owner = None;
            st.waiters.wake_one()
        };
        next.unblock(&self.exec);
    }

    /// Whether the mutex is currently held.
    pub(crate) fn is_locked(&self) -> bool {
        self.state.lock().owner.is_some()
    }
}

/// A condition variable tied to a [`KMutex`] at wait time.
pub(crate) struct KCondition {
    exec: Arc<Executor>,
    waiters: Mutex<WaitQueue>,
}

impl KCondition {
    /// Creates a condition with no waiters.
    pub(crate) fn new(exec: Arc<Executor>) -> Arc<Self> {
        Arc::new(KCondition {
            exec,
            waiters: Mutex::new(WaitQueue::default()),
        })
    }

    /// Atomically releases `mutex` and waits for a signal; reacquires the
    /// mutex before returning. Exactly one strand runs at a time, so
    /// nothing can signal between the release and the park.
    pub(crate) fn wait(&self, ctx: &StrandCtx, mutex: &KMutex) {
        ctx.refuse_in_step("wait");
        mutex.unlock(ctx);
        ctx.wait(&self.waiters, |q| q, woken_once());
        mutex.lock(ctx);
    }

    /// Wakes one waiter.
    pub(crate) fn signal(&self, _ctx: &StrandCtx) {
        let next = self.waiters.lock().wake_one();
        next.unblock(&self.exec);
    }

    /// Number of strands currently waiting.
    pub(crate) fn waiter_count(&self) -> usize {
        self.waiters.lock().len()
    }
}

/// A bounded FIFO channel between strands (used by protocol threads).
pub struct KChannel<T: Send> {
    exec: Arc<Executor>,
    state: Mutex<ChannelState<T>>,
}

struct ChannelState<T> {
    queue: VecDeque<T>,
    capacity: usize,
    recv_waiters: WaitQueue,
    send_waiters: WaitQueue,
    closed: bool,
}

impl<T> ChannelState<T> {
    fn receivers(&mut self) -> &mut WaitQueue {
        &mut self.recv_waiters
    }

    /// A receive's poll: the next item (or `None` once closed and
    /// drained), and the sender the space it leaves wakes.
    fn take(&mut self) -> Poll<(Option<T>, Wakeups)> {
        match self.queue.pop_front() {
            Some(item) => Poll::Ready((Some(item), self.send_waiters.wake_one())),
            None if self.closed => Poll::Ready((None, Wakeups::default())),
            None => Poll::Pending,
        }
    }
}

impl<T: Send> KChannel<T> {
    /// Creates a channel holding up to `capacity` items.
    pub fn new(exec: Arc<Executor>, capacity: usize) -> Arc<Self> {
        Arc::new(KChannel {
            exec,
            state: Mutex::new(ChannelState {
                queue: VecDeque::new(),
                capacity,
                recv_waiters: WaitQueue::default(),
                send_waiters: WaitQueue::default(),
                closed: false,
            }),
        })
    }

    /// Sends `item`, blocking while the channel is full. Returns `false`
    /// if the channel is closed.
    pub fn send(&self, ctx: &StrandCtx, item: T) -> bool {
        let mut item = Some(item);
        let (sent, wake) = ctx.wait(
            &self.state,
            |st| &mut st.send_waiters,
            |st| {
                if st.closed {
                    Poll::Ready((false, Wakeups::default()))
                } else if st.queue.len() < st.capacity {
                    st.queue.push_back(item.take().expect("item pending"));
                    Poll::Ready((true, st.recv_waiters.wake_one()))
                } else {
                    Poll::Pending
                }
            },
        );
        wake.unblock(&self.exec);
        sent
    }

    /// Receives an item, blocking while the channel is empty. Returns
    /// `None` once the channel is closed and drained.
    pub fn recv(&self, ctx: &StrandCtx) -> Option<T> {
        let (item, wake) = ctx.wait(&self.state, ChannelState::receivers, ChannelState::take);
        wake.unblock(&self.exec);
        item
    }

    /// [`KChannel::recv`] for one attempt that gives up at the virtual
    /// time `at` (see [`StrandCtx::wait_deadline`]): `None` if it timed
    /// out or the channel is closed and drained.
    pub fn recv_deadline(&self, ctx: &StrandCtx, at: Nanos) -> Option<T> {
        let (queue, take) = (ChannelState::receivers, ChannelState::take);
        let Poll::Ready((item, wake)) = ctx.wait_deadline(&self.state, queue, at, take) else {
            return None;
        };
        wake.unblock(&self.exec);
        item
    }

    /// Tries to send without blocking. Usable from non-strand contexts
    /// (timer callbacks, interrupt handlers). Returns `false` if the
    /// channel is full or closed.
    pub fn try_push(&self, item: T) -> bool {
        let wake = {
            let mut st = self.state.lock();
            if st.closed || st.queue.len() >= st.capacity {
                return false;
            }
            st.queue.push_back(item);
            st.recv_waiters.wake_one()
        };
        wake.unblock(&self.exec);
        true
    }

    /// Tries to receive without blocking.
    pub fn try_recv(&self) -> Option<T> {
        let (item, wake) = {
            let mut st = self.state.lock();
            (st.queue.pop_front(), st.send_waiters.wake_one())
        };
        wake.unblock(&self.exec);
        item
    }

    /// Closes the channel, waking all waiters: receivers, then senders.
    pub fn close(&self) {
        let (receivers, senders) = {
            let mut st = self.state.lock();
            st.closed = true;
            (st.recv_waiters.wake_all(), st.send_waiters.wake_all())
        };
        receivers.unblock(&self.exec);
        senders.unblock(&self.exec);
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Items queued and whether the channel is closed, in one reading (a
    /// poller's level for the channel at registration).
    pub fn level(&self) -> (usize, bool) {
        let st = self.state.lock();
        (st.queue.len(), st.closed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{IdleOutcome, Step};
    use spin_core::BlockedInStep;
    use spin_sal::{HostId, SimBoard};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn exec() -> Arc<Executor> {
        let board = SimBoard::new();
        Executor::on(board.clock.clone(), board.timers.clone())
    }

    #[test]
    fn mutex_provides_mutual_exclusion() {
        let e = exec();
        let m = KMutex::new(e.clone());
        let counter = Arc::new(Mutex::new((0u32, 0u32))); // (current, max)
        for i in 0..4 {
            let m = m.clone();
            let c = counter.clone();
            e.spawn(&format!("t{i}"), move |ctx| {
                for _ in 0..5 {
                    m.lock(ctx);
                    {
                        let mut c = c.lock();
                        c.0 += 1;
                        c.1 = c.1.max(c.0);
                    }
                    ctx.yield_now(); // try to interleave inside the section
                    c.lock().0 -= 1;
                    m.unlock(ctx);
                }
            });
        }
        assert_eq!(e.run_until_idle(), IdleOutcome::AllComplete);
        assert_eq!(counter.lock().1, 1, "two strands were inside the lock");
    }

    #[test]
    fn condition_signal_wakes_one_waiter() {
        let e = exec();
        let m = KMutex::new(e.clone());
        let c = KCondition::new(e.clone());
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..2 {
            let (m, c, log) = (m.clone(), c.clone(), log.clone());
            e.spawn(&format!("waiter{i}"), move |ctx| {
                m.lock(ctx);
                c.wait(ctx, &m);
                log.lock().push(format!("woke{i}"));
                m.unlock(ctx);
            });
        }
        let (m2, c2, log2) = (m.clone(), c.clone(), log.clone());
        e.spawn("signaler", move |ctx| {
            // Let both waiters get onto the condition first.
            ctx.yield_now();
            m2.lock(ctx);
            log2.lock().push("signal".into());
            c2.signal(ctx);
            m2.unlock(ctx);
            c2.signal(ctx);
        });
        assert_eq!(e.run_until_idle(), IdleOutcome::AllComplete);
        assert_eq!(log.lock().len(), 3);
        assert_eq!(log.lock()[0], "signal");
    }

    #[test]
    fn ping_pong_with_condvars_terminates() {
        // The Table 3 Ping-Pong shape: two strands signal each other.
        let e = exec();
        let m = KMutex::new(e.clone());
        let c = KCondition::new(e.clone());
        let turn = Arc::new(Mutex::new(0u32));
        for (i, name) in ["ping", "pong"].iter().enumerate() {
            let (m, c, turn) = (m.clone(), c.clone(), turn.clone());
            e.spawn(name, move |ctx| {
                for _ in 0..10 {
                    m.lock(ctx);
                    while *turn.lock() % 2 != i as u32 {
                        c.wait(ctx, &m);
                    }
                    *turn.lock() += 1;
                    c.signal(ctx);
                    m.unlock(ctx);
                }
            });
        }
        assert_eq!(e.run_until_idle(), IdleOutcome::AllComplete);
        assert_eq!(*turn.lock(), 20);
    }

    #[test]
    fn channel_passes_items_in_order() {
        let e = exec();
        let ch = KChannel::new(e.clone(), 4);
        let got = Arc::new(Mutex::new(Vec::new()));
        let ch2 = ch.clone();
        e.spawn("producer", move |ctx| {
            for i in 0..10 {
                ch2.send(ctx, i);
            }
            ch2.close();
        });
        let (ch3, got2) = (ch.clone(), got.clone());
        e.spawn("consumer", move |ctx| {
            while let Some(v) = ch3.recv(ctx) {
                got2.lock().push(v);
            }
        });
        assert_eq!(e.run_until_idle(), IdleOutcome::AllComplete);
        assert_eq!(*got.lock(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_channel_blocks_producer() {
        let e = exec();
        let ch = KChannel::new(e.clone(), 1);
        let ch2 = ch.clone();
        let produced = Arc::new(Mutex::new(0));
        let p2 = produced.clone();
        e.spawn("producer", move |ctx| {
            for i in 0..3 {
                ch2.send(ctx, i);
                *p2.lock() += 1;
            }
            ch2.close();
        });
        let ch3 = ch.clone();
        e.spawn("slow-consumer", move |ctx| {
            ctx.sleep(1_000);
            while ch3.recv(ctx).is_some() {
                ctx.sleep(1_000);
            }
        });
        assert_eq!(e.run_until_idle(), IdleOutcome::AllComplete);
        assert_eq!(*produced.lock(), 3);
    }

    /// A thread strand runs `setup` and yields; a run-to-completion slice
    /// then tries `wait`, which must be refused; then the thread strand
    /// runs `wake`. Returns what refused the wait and what `wake` charged.
    fn refuse_then_wake(
        e: &Arc<Executor>,
        setup: impl FnOnce(&StrandCtx) + Send + 'static,
        wait: impl FnOnce(&StrandCtx) + Send + 'static,
        wake: impl FnOnce(&StrandCtx) + Send + 'static,
    ) -> (Option<&'static str>, Nanos) {
        let charged = Arc::new(Mutex::new(None));
        let c2 = charged.clone();
        e.spawn("waker", move |ctx| {
            setup(ctx);
            ctx.yield_now();
            let clock = ctx.executor().clock().clone();
            let t0 = clock.now();
            wake(ctx);
            *c2.lock() = Some(clock.now() - t0);
        });
        let refused = Arc::new(Mutex::new(None));
        let r2 = refused.clone();
        let mut wait = Some(wait);
        let stepper = e.spawn_step_on(HostId(0), "stepper", 8, move |ctx| {
            let wait = wait.take().expect("the stepper runs one slice");
            let unwound = catch_unwind(AssertUnwindSafe(|| wait(ctx))).expect_err("refused");
            *r2.lock() = unwound.downcast_ref::<BlockedInStep>().map(|b| b.op);
            Step::Done
        });
        assert_eq!(e.run_until_idle(), IdleOutcome::AllComplete);
        assert!(!e.panicked(stepper), "no wake ran the stepper again");
        let charged = charged.lock().expect("the waker ran");
        let refused = *refused.lock();
        (refused, charged)
    }

    #[test]
    fn a_wait_refused_in_a_step_leaves_nothing_queued() {
        let sync_op = Cost::SyncOp.ns();

        let e = exec();
        let m = KMutex::new(e.clone());
        let (m1, m2, m3) = (m.clone(), m.clone(), m.clone());
        let got = refuse_then_wake(
            &e,
            move |ctx| m1.lock(ctx),
            move |ctx| m2.lock(ctx),
            move |ctx| m3.unlock(ctx),
        );
        assert_eq!(got, (Some("wait"), sync_op), "contended KMutex::lock");

        let e = exec();
        let (m, c) = (KMutex::new(e.clone()), KCondition::new(e.clone()));
        let (m1, c1, c2) = (m.clone(), c.clone(), c.clone());
        let got = refuse_then_wake(
            &e,
            |_| {},
            move |ctx| {
                m1.lock(ctx);
                c1.wait(ctx, &m1);
            },
            move |ctx| c2.signal(ctx),
        );
        assert_eq!(got, (Some("wait"), 0), "KCondition::wait");
        assert!(m.is_locked(), "refused before the mutex was released");
        assert_eq!(c.waiter_count(), 0);

        let e = exec();
        let ch = KChannel::new(e.clone(), 1);
        assert!(ch.try_push(0));
        let (ch1, ch2) = (ch.clone(), ch.clone());
        let got = refuse_then_wake(
            &e,
            |_| {},
            move |ctx| {
                ch1.send(ctx, 1);
            },
            move |_| assert_eq!(ch2.try_recv(), Some(0)),
        );
        assert_eq!(got, (Some("wait"), 0), "KChannel::send on a full channel");

        let e = exec();
        let ch = KChannel::new(e.clone(), 1);
        let (ch1, ch2) = (ch.clone(), ch.clone());
        let got = refuse_then_wake(
            &e,
            |_| {},
            move |ctx| {
                ch1.recv(ctx);
            },
            move |_| assert!(ch2.try_push(1)),
        );
        assert_eq!(got, (Some("wait"), 0), "KChannel::recv on an empty channel");
    }
}
