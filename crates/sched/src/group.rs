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
use crate::executor::{Executor, StrandCtx, StrandId};
use spin_check::sync::Mutex;
use spin_check::sync::{AtomicU64, Ordering};
use spin_core::Identity;
use std::collections::BinaryHeap;
use std::sync::Arc;

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
    closed: bool,
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
pub struct TaskPackage {
    exec: Arc<Executor>,
    state: Arc<Mutex<PackageState>>,
    carrier: StrandId,
    resumes: Arc<AtomicU64>,
    checkpoints: Arc<AtomicU64>,
    tasks_run: Arc<AtomicU64>,
}

impl TaskPackage {
    /// Starts a package: spawns the carrier strand at `priority` and hooks
    /// the strand events (guarded to the carrier).
    pub fn start(
        exec: &Arc<Executor>,
        events: &StrandEvents,
        name: &str,
        priority: u8,
    ) -> Arc<TaskPackage> {
        let state = Arc::new(Mutex::new(PackageState {
            queue: BinaryHeap::new(),
            next_seq: 0,
            closed: false,
        }));
        let tasks_run = Arc::new(AtomicU64::new(0));
        let st2 = state.clone();
        let tr2 = tasks_run.clone();
        let carrier = exec.spawn_on(spin_sal::HostId(0), name, priority, move |ctx| {
            loop {
                let task = {
                    let mut st = st2.lock();
                    match st.queue.pop() {
                        Some(t) => Some(t),
                        None if st.closed => break,
                        None => None,
                    }
                };
                match task {
                    Some(t) => {
                        (t.body)(ctx);
                        tr2.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
                                                             // A preemption safe point between tasks keeps the
                                                             // package honest with the global quantum.
                        ctx.preempt_point();
                    }
                    // Only this package wakes its carrier, and it does so
                    // unconditionally: the kernel's one hand-rolled park.
                    None => ctx.block(),
                }
            }
        });
        exec.set_daemon(carrier);

        // Observe our carrier's Checkpoint/Resume through the dispatcher,
        // guarded to strands we hold a capability for (just the carrier).
        let resumes = Arc::new(AtomicU64::new(0));
        let checkpoints = Arc::new(AtomicU64::new(0));
        let (r2, c2) = (resumes.clone(), checkpoints.clone());
        let me = carrier;
        events
            .resume
            .install_guarded(
                Identity::extension(name),
                move |s: &StrandRef| s.0 == me,
                move |_| {
                    r2.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
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
                    c2.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
                },
            )
            .expect("install checkpoint observer");

        Arc::new(TaskPackage {
            exec: exec.clone(),
            state,
            carrier,
            resumes,
            checkpoints,
            tasks_run,
        })
    }

    /// Submits a task at a priority; the package orders its own work.
    pub fn submit(&self, priority: u8, body: impl FnOnce(&StrandCtx) + Send + 'static) {
        {
            let mut st = self.state.lock();
            let seq = st.next_seq;
            st.next_seq += 1;
            st.queue.push(Task {
                priority,
                seq,
                body: Box::new(body),
            });
        }
        self.exec.unblock(self.carrier);
    }

    /// Closes the package; the carrier exits once drained.
    pub fn shutdown(&self) {
        self.state.lock().closed = true;
        self.exec.unblock(self.carrier);
    }

    /// Event-observed statistics.
    pub fn stats(&self) -> PackageStats {
        PackageStats {
            resumes: self.resumes.load(Ordering::Relaxed), // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
            checkpoints: self.checkpoints.load(Ordering::Relaxed), // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
            tasks_run: self.tasks_run.load(Ordering::Relaxed), // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
        }
    }

    /// The carrier strand the global scheduler sees.
    pub fn carrier(&self) -> StrandId {
        self.carrier
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spin_core::Dispatcher;
    use spin_sal::SimBoard;

    fn rig() -> (Arc<Executor>, StrandEvents) {
        let board = SimBoard::new();
        let exec = Executor::new(
            board.clock.clone(),
            board.timers.clone(),
            board.profile.clone(),
        );
        let disp = Dispatcher::new(board.clock.clone(), board.profile.clone());
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
        pkg.shutdown();
        exec.run_until_idle();
        assert_eq!(*log.lock(), vec!["high", "mid", "low"]);
        assert_eq!(pkg.stats().tasks_run, 3);
    }

    #[test]
    fn the_package_observes_resume_and_checkpoint_via_events() {
        let (exec, events) = rig();
        exec.set_quantum(20_000);
        let pkg = TaskPackage::start(&exec, &events, "app-sched", 8);
        // A competing strand forces real multiplexing.
        exec.spawn("competitor", |ctx| {
            for _ in 0..5 {
                ctx.work(25_000);
                ctx.preempt_point();
            }
        });
        for _ in 0..5 {
            pkg.submit(5, |ctx| ctx.work(25_000)); // each exceeds the quantum
        }
        pkg.shutdown();
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
        a.shutdown();
        b.shutdown();
        exec.run_until_idle();
        assert_eq!(*counts.lock(), (10, 10));
        // Each package only observed its own carrier (the guard at work).
        assert_eq!(a.stats().resumes, a.stats().checkpoints);
        assert_eq!(b.stats().resumes, b.stats().checkpoints);
    }
}
