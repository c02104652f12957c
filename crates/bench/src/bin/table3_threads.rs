//! Table 3: thread management overhead in microseconds.
//!
//! Fork-Join and Ping-Pong for kernel and user threads on DEC OSF/1, Mach
//! and SPIN, including SPIN's two C-Threads structures (layered vs
//! integrated). SPIN rows are measured; baselines are modelled.

use spin_baseline::{MachModel, Osf1Model};
use spin_bench::{render_table, us, JsonReport, Row};
use spin_sal::SimBoard;
use spin_sched::{
    measure_fork_join, measure_kernel_fork_join, measure_kernel_ping_pong, measure_ping_pong,
    CThreadsImpl, Executor,
};
use std::sync::Arc;

fn exec() -> Arc<Executor> {
    let board = SimBoard::new();
    Executor::on(board.clock.clone(), board.timers.clone())
}

fn main() {
    let osf1 = Osf1Model;
    let mach = MachModel;

    let rows = vec![
        Row::new(
            "Fork-Join: DEC OSF/1 kernel",
            198.0,
            us(osf1.kernel_fork_join()),
        ),
        Row::new(
            "Fork-Join: DEC OSF/1 user",
            1230.0,
            us(osf1.user_fork_join()),
        ),
        Row::new("Fork-Join: Mach kernel", 101.0, us(mach.kernel_fork_join())),
        Row::new("Fork-Join: Mach user", 338.0, us(mach.user_fork_join())),
        Row::new(
            "Fork-Join: SPIN kernel",
            22.0,
            us(measure_kernel_fork_join(&exec())),
        ),
        Row::new(
            "Fork-Join: SPIN user layered",
            262.0,
            us(measure_fork_join(CThreadsImpl::Layered, &exec())),
        ),
        Row::new(
            "Fork-Join: SPIN user integrated",
            111.0,
            us(measure_fork_join(CThreadsImpl::Integrated, &exec())),
        ),
        Row::new(
            "Ping-Pong: DEC OSF/1 kernel",
            21.0,
            us(osf1.kernel_ping_pong()),
        ),
        Row::new(
            "Ping-Pong: DEC OSF/1 user",
            264.0,
            us(osf1.user_ping_pong()),
        ),
        Row::new("Ping-Pong: Mach kernel", 71.0, us(mach.kernel_ping_pong())),
        Row::new("Ping-Pong: Mach user", 115.0, us(mach.user_ping_pong())),
        Row::new(
            "Ping-Pong: SPIN kernel",
            17.0,
            us(measure_kernel_ping_pong(&exec())),
        ),
        Row::new(
            "Ping-Pong: SPIN user layered",
            159.0,
            us(measure_ping_pong(CThreadsImpl::Layered, &exec())),
        ),
        Row::new(
            "Ping-Pong: SPIN user integrated",
            85.0,
            us(measure_ping_pong(CThreadsImpl::Integrated, &exec())),
        ),
    ];
    print!(
        "{}",
        render_table("Table 3: thread management overhead", "µs", &rows)
    );
    JsonReport::new(
        "table3_threads",
        "Table 3: thread management overhead",
        "µs",
    )
    .rows(&rows)
    .write_if_requested();
}
