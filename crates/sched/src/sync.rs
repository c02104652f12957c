//! In-kernel synchronization: mutexes and condition variables on strands.
//!
//! These are the "locks with condition variables in SPIN" used by Table 3's
//! kernel-thread measurements. They operate on the virtual timeline: a
//! contended lock blocks the strand (raising the Block hook) and unlock
//! hands off through the scheduler. Because exactly one strand runs at a
//! time, the implementations are simple state machines guarded by a host
//! lock — the executor provides the atomicity.

use crate::executor::{Executor, StrandCtx, StrandId};
use spin_check::sync::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

struct MutexState {
    owner: Option<StrandId>,
    waiters: VecDeque<StrandId>,
}

/// A kernel mutex (Modula-3 `MUTEX` analogue).
pub struct KMutex {
    exec: Arc<Executor>,
    state: Mutex<MutexState>,
}

impl KMutex {
    /// Creates an unlocked mutex.
    pub fn new(exec: Arc<Executor>) -> Arc<Self> {
        Arc::new(KMutex {
            exec,
            state: Mutex::new(MutexState {
                owner: None,
                waiters: VecDeque::new(),
            }),
        })
    }

    /// Acquires the mutex, blocking the strand while contended.
    pub fn lock(&self, ctx: &StrandCtx) {
        self.exec.clock().advance(self.exec.profile().sync_op);
        loop {
            {
                let mut st = self.state.lock();
                if st.owner.is_none() {
                    st.owner = Some(ctx.id());
                    return;
                }
                st.waiters.push_back(ctx.id());
            }
            ctx.block();
        }
    }

    /// Releases the mutex and wakes the first waiter.
    ///
    /// # Panics
    ///
    /// Panics if the calling strand does not hold the mutex — that is an
    /// extension bug the trusted package refuses to hide.
    pub fn unlock(&self, ctx: &StrandCtx) {
        self.exec.clock().advance(self.exec.profile().sync_op);
        let next = {
            let mut st = self.state.lock();
            assert_eq!(st.owner, Some(ctx.id()), "unlock by non-owner");
            st.owner = None;
            st.waiters.pop_front()
        };
        if let Some(w) = next {
            self.exec.unblock(w);
        }
    }

    /// Runs `f` with the mutex held.
    pub fn with<R>(&self, ctx: &StrandCtx, f: impl FnOnce() -> R) -> R {
        self.lock(ctx);
        let r = f();
        self.unlock(ctx);
        r
    }

    /// Whether the mutex is currently held.
    pub fn is_locked(&self) -> bool {
        self.state.lock().owner.is_some()
    }
}

/// A condition variable tied to a [`KMutex`] at wait time.
pub struct KCondition {
    exec: Arc<Executor>,
    waiters: Mutex<VecDeque<StrandId>>,
}

impl KCondition {
    /// Creates a condition with no waiters.
    pub fn new(exec: Arc<Executor>) -> Arc<Self> {
        Arc::new(KCondition {
            exec,
            waiters: Mutex::new(VecDeque::new()),
        })
    }

    /// Atomically releases `mutex` and waits for a signal; reacquires the
    /// mutex before returning.
    pub fn wait(&self, ctx: &StrandCtx, mutex: &KMutex) {
        self.waiters.lock().push_back(ctx.id());
        mutex.unlock(ctx);
        ctx.block();
        mutex.lock(ctx);
    }

    /// Wakes one waiter.
    pub fn signal(&self, _ctx: &StrandCtx) {
        let next = self.waiters.lock().pop_front();
        if let Some(w) = next {
            self.exec.unblock(w);
        }
    }

    /// Wakes every waiter.
    pub fn broadcast(&self, _ctx: &StrandCtx) {
        let all: Vec<StrandId> = self.waiters.lock().drain(..).collect();
        for w in all {
            self.exec.unblock(w);
        }
    }

    /// Number of strands currently waiting.
    pub fn waiter_count(&self) -> usize {
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
    recv_waiters: VecDeque<StrandId>,
    send_waiters: VecDeque<StrandId>,
    closed: bool,
}

impl<T: Send> KChannel<T> {
    /// Creates a channel holding up to `capacity` items.
    pub fn new(exec: Arc<Executor>, capacity: usize) -> Arc<Self> {
        Arc::new(KChannel {
            exec,
            state: Mutex::new(ChannelState {
                queue: VecDeque::new(),
                capacity,
                recv_waiters: VecDeque::new(),
                send_waiters: VecDeque::new(),
                closed: false,
            }),
        })
    }

    /// Sends `item`, blocking while the channel is full. Returns `false`
    /// if the channel is closed.
    pub fn send(&self, ctx: &StrandCtx, item: T) -> bool {
        let mut item = Some(item);
        loop {
            let wake = {
                let mut st = self.state.lock();
                if st.closed {
                    return false;
                }
                if st.queue.len() < st.capacity {
                    st.queue.push_back(item.take().expect("item pending"));
                    st.recv_waiters.pop_front()
                } else {
                    st.send_waiters.push_back(ctx.id());
                    None
                }
            };
            if item.is_none() {
                if let Some(w) = wake {
                    self.exec.unblock(w);
                }
                return true;
            }
            ctx.block();
        }
    }

    /// Receives an item, blocking while the channel is empty. Returns
    /// `None` once the channel is closed and drained.
    pub fn recv(&self, ctx: &StrandCtx) -> Option<T> {
        loop {
            let (item, wake) = {
                let mut st = self.state.lock();
                match st.queue.pop_front() {
                    Some(item) => (Some(item), st.send_waiters.pop_front()),
                    None if st.closed => return None,
                    None => {
                        st.recv_waiters.push_back(ctx.id());
                        (None, None)
                    }
                }
            };
            if let Some(w) = wake {
                self.exec.unblock(w);
            }
            match item {
                Some(item) => return Some(item),
                None => ctx.block(),
            }
        }
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
            st.recv_waiters.pop_front()
        };
        if let Some(w) = wake {
            self.exec.unblock(w);
        }
        true
    }

    /// Tries to receive without blocking.
    pub fn try_recv(&self) -> Option<T> {
        let (item, wake) = {
            let mut st = self.state.lock();
            (st.queue.pop_front(), st.send_waiters.pop_front())
        };
        if let Some(w) = wake {
            self.exec.unblock(w);
        }
        item
    }

    /// Closes the channel, waking all waiters.
    pub fn close(&self) {
        let waiters: Vec<StrandId> = {
            let mut st = self.state.lock();
            st.closed = true;
            let mut v: Vec<StrandId> = st.recv_waiters.drain(..).collect();
            v.extend(st.send_waiters.drain(..));
            v
        };
        for w in waiters {
            self.exec.unblock(w);
        }
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
    use crate::executor::IdleOutcome;
    use spin_sal::SimBoard;

    fn exec() -> Arc<Executor> {
        let board = SimBoard::new();
        Executor::new(
            board.clock.clone(),
            board.timers.clone(),
            board.profile.clone(),
        )
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
            c2.broadcast(ctx);
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
                    c.broadcast(ctx);
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
}
