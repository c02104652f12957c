//! An application-specific scheduler stacked on the global scheduler.
//!
//! §4.2: "Additional application-specific schedulers can be placed on top
//! of the global scheduler using Checkpoint and Resume events to
//! relinquish or receive control of the processor. That is, an
//! application-specific scheduler presents itself to the global scheduler
//! as a thread package."
//!
//! [`TaskPackage`] is such a scheduler: it multiplexes many lightweight
//! *tasks* onto one carrier strand. The global scheduler sees a single
//! strand; the package decides, in its own priority order, which task runs
//! whenever the global scheduler gives the carrier the processor. It
//! installs guarded handlers on `Strand.Checkpoint`/`Strand.Resume` —
//! guarded to *its own carrier*, per the capability rule — to observe the
//! processor arriving and leaving.

use crate::events::{StrandEvents, StrandRef};
use crate::executor::{Executor, StrandCtx};
use crate::wait::WaitQueue;
use spin_check::sync::Counter;
use spin_check::sync::Mutex;
use spin_core::Identity;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::task::Poll;

/// A schedulable task: a priority and a body.
struct Task {
    priority: u8,
    seq: u64, // FIFO among equal priorities
    body: Box<dyn FnOnce(&StrandCtx) + Send>,
}

impl PartialEq for Task {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for Task {}
impl PartialOrd for Task {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Task {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority first; FIFO within a priority.
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

struct PackageState {
    queue: BinaryHeap<Task>,
    next_seq: u64,
    /// The carrier, while it waits for a task.
    carrier: WaitQueue,
}

/// Statistics observed through the strand events.
#[derive(Debug, Clone, Copy, Default)]
pub struct PackageStats {
    /// Times the global scheduler handed us the processor.
    pub resumes: u64,
    /// Times the processor was reclaimed from us.
    pub checkpoints: u64,
    /// Tasks completed.
    pub tasks_run: u64,
}

/// The user-level task package.
// paper: §4.2, an application-specific scheduler stacked on the global one.
pub struct TaskPackage {
    exec: Arc<Executor>,
    state: Arc<Mutex<PackageState>>,
    resumes: Arc<Counter>,
    checkpoints: Arc<Counter>,
    tasks_run: Arc<Counter>,
}

impl TaskPackage {
    /// Starts a package: spawns the carrier strand at `priority` and hooks
    /// the strand events (guarded to the carrier).
    // paper: §4.2, an application-specific scheduler stacked on the global one.
    pub fn start(
        exec: &Arc<Executor>,
        events: &StrandEvents,
        name: &str,
        priority: u8,
    ) -> Arc<TaskPackage> {
        let state = Arc::new(Mutex::new(PackageState {
            queue: BinaryHeap::new(),
            next_seq: 0,
            carrier: WaitQueue::default(),
        }));
        let tasks_run = Arc::new(Counter::default());
        let st2 = state.clone();
        let tr2 = tasks_run.clone();
        let carrier = exec.spawn_on(spin_sal::HostId(0), name, priority, move |ctx| {
            loop {
                let task = ctx.wait(
                    &st2,
                    |st| &mut st.carrier,
                    |st| st.queue.pop().map_or(Poll::Pending, Poll::Ready),
                );
                (task.body)(ctx);
                tr2.add(1);

                // A preemption safe point between tasks keeps the package
                // honest with the global quantum.
                ctx.preempt_point();
            }
        });
        let carrier = carrier.id();
        exec.set_daemon(carrier);

        // Observe our carrier's Checkpoint/Resume through the dispatcher,
        // guarded to strands we hold a capability for (just the carrier).
        let resumes = Arc::new(Counter::default());
        let checkpoints = Arc::new(Counter::default());
        let (r2, c2) = (resumes.clone(), checkpoints.clone());
        let me = carrier;
        events
            .resume
            .install_guarded(
                Identity::extension(name),
                move |s: &StrandRef| s.0 == me,
                move |_| {
                    r2.add(1);
                },
            )
            .expect("install resume observer");
        let me = carrier;
        events
            .checkpoint
            .install_guarded(
                Identity::extension(name),
                move |s: &StrandRef| s.0 == me,
                move |_| {
                    c2.add(1);
                },
            )
            .expect("install checkpoint observer");

        Arc::new(TaskPackage {
            exec: exec.clone(),
            state,
            resumes,
            checkpoints,
            tasks_run,
        })
    }

    /// Submits a task at a priority; the package orders its own work.
    /// Wakes the carrier only if it is waiting for a task.
    // paper: §4.2, an application-specific scheduler stacked on the global one.
    pub fn submit(&self, priority: u8, body: impl FnOnce(&StrandCtx) + Send + 'static) {
        let wakeups = {
            let mut st = self.state.lock();
            let seq = st.next_seq;
            st.next_seq += 1;
            st.queue.push(Task {
                priority,
                seq,
                body: Box::new(body),
            });
            st.carrier.wake_one()
        };
        wakeups.unblock(&self.exec);
    }

    /// Event-observed statistics.
    // paper: §4.2, an application-specific scheduler stacked on the global one.
    pub fn stats(&self) -> PackageStats {
        PackageStats {
            resumes: self.resumes.get(),
            checkpoints: self.checkpoints.get(),
            tasks_run: self.tasks_run.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spin_core::Dispatcher;
    use spin_sal::SimBoard;

    fn rig() -> (Arc<Executor>, StrandEvents) {
        let board = SimBoard::new();
        let exec = Executor::on(board.clock.clone(), board.timers.clone());
        let disp = Dispatcher::on(board.clock.clone());
        let events = StrandEvents::attach(&exec, &disp);
        (exec, events)
    }

    #[test]
    fn tasks_run_in_package_priority_order_not_submission_order() {
        let (exec, events) = rig();
        let pkg = TaskPackage::start(&exec, &events, "app-sched", 8);
        let log = Arc::new(Mutex::new(Vec::new()));
        for (prio, tag) in [(1u8, "low"), (9, "high"), (5, "mid")] {
            let log = log.clone();
            pkg.submit(prio, move |_| log.lock().push(tag));
        }
        exec.run_until_idle();
        assert_eq!(*log.lock(), vec!["high", "mid", "low"]);
        assert_eq!(pkg.stats().tasks_run, 3);
    }

    #[test]
    fn the_package_observes_resume_and_checkpoint_via_events() {
        let (exec, events) = rig();
        let pkg = TaskPackage::start(&exec, &events, "app-sched", 8);
        // A competing strand forces real multiplexing.
        exec.spawn("competitor", |ctx| {
            for _ in 0..5 {
                ctx.work(1_250_000);
                ctx.preempt_point();
            }
        });
        for _ in 0..5 {
            pkg.submit(5, |ctx| ctx.work(1_250_000)); // each exceeds the quantum
        }
        exec.run_until_idle();
        let stats = pkg.stats();
        assert!(
            stats.resumes >= 5,
            "carrier was given the CPU repeatedly: {stats:?}"
        );
        assert_eq!(stats.resumes, stats.checkpoints, "every slice is bracketed");
        assert_eq!(stats.tasks_run, 5);
    }

    #[test]
    fn two_packages_share_the_processor_without_interference() {
        let (exec, events) = rig();
        let a = TaskPackage::start(&exec, &events, "pkg-a", 8);
        let b = TaskPackage::start(&exec, &events, "pkg-b", 8);
        let counts = Arc::new(Mutex::new((0u32, 0u32)));
        for _ in 0..10 {
            let c = counts.clone();
            a.submit(1, move |_| c.lock().0 += 1);
            let c = counts.clone();
            b.submit(1, move |_| c.lock().1 += 1);
        }
        exec.run_until_idle();
        assert_eq!(*counts.lock(), (10, 10));
        // Each package only observed its own carrier (the guard at work).
        assert_eq!(a.stats().resumes, a.stats().checkpoints);
        assert_eq!(b.stats().resumes, b.stats().checkpoints);
    }
}
