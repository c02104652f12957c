//! One way to wait: a [`WaitQueue`] of parked strands inside the waited-on
//! state, and the loop around it. Every blocking wait in the kernel polls
//! its state under the state's lock; on `Pending` it parks on a queue in
//! that state, drops the lock and blocks; woken, it polls again.
//!
//! * A wait is refused inside a run-to-completion slice before it parks,
//!   so a refused wait leaves nothing queued.
//! * A waker takes [`Wakeups`] under the lock and unblocks them after
//!   dropping it, in queue order, one [`Executor::unblock`] per entry —
//!   duplicates included, since each charges and raises `Strand.Unblock`.
//! * A timed wait that times out leaves its entry queued.

use crate::executor::{Executor, StrandCtx, StrandId};
use spin_check::sync::Mutex;
use spin_sal::Nanos;
use std::collections::VecDeque;
use std::task::Poll;

/// Strands parked on one condition of some locked state, oldest first.
#[derive(Default)]
pub struct WaitQueue {
    parked: VecDeque<StrandId>,
}

impl WaitQueue {
    /// Entries queued (a strand parked twice counts twice).
    pub(crate) fn len(&self) -> usize {
        self.parked.len()
    }

    /// Takes the oldest entry.
    pub fn wake_one(&mut self) -> Wakeups {
        Wakeups {
            first: self.parked.pop_front(),
            rest: VecDeque::new(),
        }
    }

    /// Takes every entry; a lone waiter leaves the queue its buffer.
    pub fn wake_all(&mut self) -> Wakeups {
        let first = self.parked.pop_front();
        let rest = match self.parked.is_empty() {
            true => VecDeque::new(),
            false => std::mem::take(&mut self.parked),
        };
        Wakeups { first, rest }
    }
}

/// Entries taken off a [`WaitQueue`] under its lock, to unblock after it.
#[must_use = "a wakeup taken and never unblocked is lost"]
#[derive(Default)]
pub struct Wakeups {
    first: Option<StrandId>,
    rest: VecDeque<StrandId>,
}

impl Wakeups {
    /// Whether there is nobody to wake.
    pub(crate) fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    /// Unblocks every entry, in queue order.
    pub fn unblock(self, exec: &Executor) {
        for id in self.first.into_iter().chain(self.rest) {
            exec.unblock(id);
        }
    }
}

impl StrandCtx {
    /// Waits until `poll`, run under `state`'s lock, is ready. On
    /// `Pending` — which must leave the state as it found it — the strand
    /// parks on the queue `queue` picks out of the state and blocks.
    pub fn wait<S, R>(
        &self,
        state: &Mutex<S>,
        queue: impl Fn(&mut S) -> &mut WaitQueue,
        mut poll: impl FnMut(&mut S) -> Poll<R>,
    ) -> R {
        loop {
            if let Poll::Ready(r) = self.poll_or_park(state, &queue, &mut poll) {
                return r;
            }
            self.block();
        }
    }

    /// [`StrandCtx::wait`] for one attempt of a caller that retries: it
    /// blocks at most once, until a waker or the virtual time `at`, and
    /// returns what `poll` answers then.
    pub fn wait_deadline<S, R>(
        &self,
        state: &Mutex<S>,
        queue: impl Fn(&mut S) -> &mut WaitQueue,
        at: Nanos,
        mut poll: impl FnMut(&mut S) -> Poll<R>,
    ) -> Poll<R> {
        if let Poll::Ready(r) = self.poll_or_park(state, &queue, &mut poll) {
            return Poll::Ready(r);
        }
        let (exec, id, timers) = (self.executor().clone(), self.id(), self.executor().timers());
        let timer = timers.schedule_at(at, move |_| exec.unblock(id));
        self.block();
        timers.cancel(timer);
        poll(&mut state.lock())
    }

    fn poll_or_park<S, R>(
        &self,
        state: &Mutex<S>,
        queue: &impl Fn(&mut S) -> &mut WaitQueue,
        poll: &mut impl FnMut(&mut S) -> Poll<R>,
    ) -> Poll<R> {
        let mut st = state.lock();
        let answer = poll(&mut st);
        if answer.is_pending() {
            self.refuse_in_step("wait");
            queue(&mut st).parked.push_back(self.id());
        }
        answer
    }
}

/// A poll pending once: a condition variable's or wait channel's wait,
/// which ends at the first wake, whatever sent it.
pub(crate) fn woken_once<S>() -> impl FnMut(&mut S) -> Poll<()> {
    let mut parked = false;
    move |_| match std::mem::replace(&mut parked, true) {
        true => Poll::Ready(()),
        false => Poll::Pending,
    }
}
