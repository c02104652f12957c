//! The DEC OSF/1 kernel-thread interface as a SPIN extension.
//!
//! "The interface supporting DEC OSF/1 kernel threads allows us to
//! incorporate the vendor's device drivers directly into the kernel"
//! (§4.2). The interface is the classic BSD `thread_sleep` /
//! `thread_wakeup` on a wait channel; here it is an extension implemented
//! directly on strands — "the implementations of these interfaces are built
//! directly from strands and not layered on top of others".

use crate::executor::{Executor, Strand, StrandCtx};
use crate::wait::{woken_once, WaitQueue};
use spin_check::sync::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// A wait channel (an opaque kernel address in OSF/1).
pub type WaitChannel = u64;

/// The OSF/1 kernel-thread compatibility package.
// paper: §4.2, the DEC OSF/1 kernel-thread interface (PAPER.md).
#[derive(Clone)]
pub struct OsfThreads {
    exec: Arc<Executor>,
    channels: Arc<Mutex<HashMap<WaitChannel, WaitQueue>>>,
}

impl OsfThreads {
    /// Binds the package to an executor.
    // paper: §4.2, the DEC OSF/1 kernel-thread interface (PAPER.md).
    pub fn new(exec: Arc<Executor>) -> Self {
        OsfThreads {
            exec,
            channels: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Creates a kernel thread (vendor drivers fork worker threads).
    // paper: §4.2, the DEC OSF/1 kernel-thread interface (PAPER.md).
    pub fn kernel_thread(
        &self,
        name: &str,
        f: impl FnOnce(&StrandCtx) + Send + 'static,
    ) -> Strand<()> {
        self.exec.spawn(name, f)
    }

    /// `thread_sleep`: blocks the calling thread on `chan`.
    // paper: §4.2, the DEC OSF/1 kernel-thread interface (PAPER.md).
    pub fn thread_sleep(&self, ctx: &StrandCtx, chan: WaitChannel) {
        ctx.wait(
            &self.channels,
            |ch| ch.entry(chan).or_default(),
            woken_once(),
        );
    }

    /// `thread_wakeup`: wakes every thread sleeping on `chan`. Returns how
    /// many were woken.
    // paper: §4.2, the DEC OSF/1 kernel-thread interface (PAPER.md).
    pub fn thread_wakeup(&self, chan: WaitChannel) -> usize {
        let mut sleepers = self.channels.lock().remove(&chan).unwrap_or_default();
        let n = sleepers.len();
        sleepers.wake_all().unblock(&self.exec);
        n
    }

    /// `thread_wakeup_one`: wakes the first sleeper only.
    // paper: §4.2, the DEC OSF/1 kernel-thread interface (PAPER.md).
    pub fn thread_wakeup_one(&self, chan: WaitChannel) -> bool {
        let woken = match self.channels.lock().get_mut(&chan) {
            Some(q) => q.wake_one(),
            None => return false,
        };
        let any = !woken.is_empty();
        woken.unblock(&self.exec);
        any
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spin_sal::SimBoard;

    fn pkg() -> OsfThreads {
        let board = SimBoard::new();
        OsfThreads::new(Executor::on(board.clock.clone(), board.timers.clone()))
    }

    #[test]
    fn sleep_and_wakeup_round_trip() {
        let t = pkg();
        let log = Arc::new(Mutex::new(Vec::new()));
        const CHAN: WaitChannel = 0xC0FFEE;
        for i in 0..2 {
            let (t2, log) = (t.clone(), log.clone());
            t.kernel_thread(&format!("sleeper{i}"), move |ctx| {
                t2.thread_sleep(ctx, CHAN);
                log.lock().push(i);
            });
        }
        let t3 = t.clone();
        t.kernel_thread("waker", move |_| {
            assert_eq!(t3.thread_wakeup(CHAN), 2);
        });
        t.exec.run_until_idle();
        assert_eq!(log.lock().len(), 2);
    }

    #[test]
    fn wakeup_one_wakes_in_fifo_order() {
        let t = pkg();
        let log = Arc::new(Mutex::new(Vec::new()));
        const CHAN: WaitChannel = 7;
        for i in 0..2 {
            let (t2, log) = (t.clone(), log.clone());
            t.kernel_thread(&format!("s{i}"), move |ctx| {
                t2.thread_sleep(ctx, CHAN);
                log.lock().push(i);
            });
        }
        let t3 = t.clone();
        t.kernel_thread("waker", move |ctx| {
            assert!(t3.thread_wakeup_one(CHAN));
            ctx.yield_now();
            assert!(t3.thread_wakeup_one(CHAN));
            assert!(!t3.thread_wakeup_one(CHAN));
        });
        t.exec.run_until_idle();
        assert_eq!(*log.lock(), vec![0, 1]);
    }

    #[test]
    fn wakeup_on_empty_channel_is_harmless() {
        let t = pkg();
        assert_eq!(t.thread_wakeup(123), 0);
    }
}
