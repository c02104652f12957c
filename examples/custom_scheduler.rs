//! Extensible scheduling (§4.2): observe strand events through the
//! dispatcher and replace the global scheduling policy with an
//! application-specific one.
//!
//! "An application can provide its own thread package and scheduler that
//! executes within the kernel." Here a shortest-job-first policy replaces
//! the default round-robin priority scheduler, and a profiler extension
//! watches `Strand.Resume` events to report the schedule.
//!
//! Run with: `cargo run --example custom_scheduler`

use parking_lot::Mutex;
use spin_os::core::{Dispatcher, Identity};
use spin_os::sal::SimBoard;
use spin_os::sched::{Executor, SchedulerPolicy, StrandEvents, StrandId, StrandRef};
use std::collections::HashMap;
use std::sync::Arc;

/// An application-specific policy: shortest declared job first.
struct ShortestJobFirst {
    declared: Arc<Mutex<HashMap<StrandId, u64>>>,
    ready: Vec<StrandId>,
}

impl SchedulerPolicy for ShortestJobFirst {
    fn enqueue(&mut self, strand: StrandId, _priority: u8) {
        self.ready.push(strand);
    }
    fn dequeue(&mut self) -> Option<StrandId> {
        if self.ready.is_empty() {
            return None;
        }
        let declared = self.declared.lock();
        let (i, _) = self
            .ready
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| declared.get(s).copied().unwrap_or(u64::MAX))?;
        Some(self.ready.remove(i))
    }
}

fn main() {
    let board = SimBoard::new();
    let exec = Executor::on(board.clock.clone(), board.timers.clone());
    let dispatcher = Dispatcher::on(board.clock.clone());
    let events = StrandEvents::attach(&exec, &dispatcher);

    // A profiler extension observes every Resume through the dispatcher.
    let schedule = Arc::new(Mutex::new(Vec::new()));
    let s2 = schedule.clone();
    events
        .resume
        .install(Identity::extension("profiler"), move |s: &StrandRef| {
            s2.lock().push(s.0);
        })
        .expect("observe resumes");

    // Declare three jobs with different lengths, spawned long-first.
    let declared = Arc::new(Mutex::new(HashMap::new()));
    let order = Arc::new(Mutex::new(Vec::new()));
    let mut ids = Vec::new();
    for (name, work) in [
        ("long", 9_000_000u64),
        ("medium", 3_000_000),
        ("short", 500_000),
    ] {
        let order2 = order.clone();
        let id = exec.spawn(name, move |ctx| {
            ctx.work(work);
            order2.lock().push(name);
        });
        declared.lock().insert(id, work);
        ids.push(id);
    }

    // Swap in the application-specific policy (a trusted operation; "the
    // global scheduling policy is replaceable").
    exec.set_policy(Box::new(ShortestJobFirst {
        declared: declared.clone(),
        ready: Vec::new(),
    }));

    exec.run_until_idle();
    println!("completion order under SJF: {:?}", order.lock());
    println!("resume trace: {:?}", schedule.lock());
    assert_eq!(*order.lock(), vec!["short", "medium", "long"]);
    println!("custom scheduler OK");
}
