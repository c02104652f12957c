//! `sched` probes: what a strand switch, a sleep/wake, a spawn and one
//! barrier epoch cost.

use super::Bench;
use spin_sal::{MulticoreBoard, SimBoard, TimerQueue};
use spin_sched::{Executor, IdleOutcome, Multicore};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn executor() -> Arc<Executor> {
    let board = SimBoard::new();
    Executor::new(
        board.clock.clone(),
        board.timers.clone(),
        board.profile.clone(),
    )
}

/// Two strands yielding to each other: every `yield_now` is one switch —
/// an OS-thread condvar hand-off through the executor's main thread.
pub fn switch_ns(bench: &mut Bench, span: &str) -> f64 {
    let [ns] = bench.measure_parts(span, || {
        let exec = executor();
        for name in ["ping", "pong"] {
            exec.spawn(name, |ctx| {
                for _ in 0..2_000 {
                    ctx.yield_now();
                }
            });
        }
        let t0 = Instant::now();
        assert_eq!(exec.run_until_idle(), IdleOutcome::AllComplete);
        (exec.switches(), [t0.elapsed().as_nanos() as u64])
    });
    ns
}

/// Schedules a timer `step` ahead that re-arms itself `left` more times.
fn rearm(timers: TimerQueue, at: u64, step: u64, left: Arc<AtomicU64>) {
    let t2 = timers.clone();
    timers.schedule_at(at, move |now| {
        // ordering: Relaxed — the chain runs on one thread.
        if left.fetch_sub(1, Ordering::Relaxed) > 1 {
            rearm(t2, now + step, step, left);
        }
    });
}

pub fn run(bench: &mut Bench) {
    let ns = switch_ns(bench, "sched.executor.switch_ns");
    bench.push("sched.executor.switch_ns", ns);

    // One strand sleeping: block, timer, wake, switch back in.
    let [ns] = bench.measure_parts("sched.executor.sleep_wake_ns", || {
        let exec = executor();
        exec.spawn("sleeper", |ctx| {
            for _ in 0..2_000 {
                ctx.sleep(1_000);
            }
        });
        let t0 = Instant::now();
        assert_eq!(exec.run_until_idle(), IdleOutcome::AllComplete);
        (2_000, [t0.elapsed().as_nanos() as u64])
    });
    bench.push("sched.executor.sleep_wake_ns", ns);

    // Strands that do nothing: thread creation, first switch, exit.
    bench.probe_us("sched.executor.spawn_us", || {
        let exec = executor();
        for _ in 0..200 {
            exec.spawn("empty", |_| {});
        }
        assert_eq!(exec.run_until_idle(), IdleOutcome::AllComplete);
        200
    });

    // Twelve shards with no strands and no mail; one timer chain on shard 0
    // steps further than a grant reaches, so every firing is one epoch: the
    // planner's scan plus the grant loop's constant.
    let [ns] = bench.measure_parts("sched.shard.epoch_ns", || {
        let board = MulticoreBoard::new();
        let mut mc = Multicore::new(1, board.lookahead());
        let hosts: Vec<_> = (0..12).map(|_| board.new_host(16)).collect();
        for h in &hosts {
            mc.add_host(h.clone());
        }
        let step = 4 * board.lookahead();
        rearm(
            hosts[0].timers.clone(),
            step,
            step,
            Arc::new(AtomicU64::new(5_000)),
        );
        let t0 = Instant::now();
        assert_eq!(mc.run_until_idle(), IdleOutcome::AllComplete);
        (mc.stats().epochs, [t0.elapsed().as_nanos() as u64])
    });
    bench.push("sched.shard.epoch_ns", ns);
}
