//! Table 3: thread management overhead in microseconds.
//!
//! Fork-Join and Ping-Pong for kernel and user threads on DEC OSF/1, Mach
//! and SPIN, including SPIN's two C-Threads structures (layered vs
//! integrated). SPIN rows are measured (`spin_bench::scenario`); baselines
//! are modelled.

use spin_baseline::{MachModel, Osf1Model};
use spin_bench::scenario::{table3_threads, Wiring};
use spin_bench::{render_table, us, JsonReport, Row};

fn main() {
    let osf1 = Osf1Model;
    let mach = MachModel;
    let [[fj_kernel, fj_layered, fj_integrated], [pp_kernel, pp_layered, pp_integrated]] =
        table3_threads(&Wiring::bare());

    let table = [
        (
            "Fork-Join: DEC OSF/1 kernel",
            198.0,
            osf1.kernel_fork_join(),
        ),
        ("Fork-Join: DEC OSF/1 user", 1230.0, osf1.user_fork_join()),
        ("Fork-Join: Mach kernel", 101.0, mach.kernel_fork_join()),
        ("Fork-Join: Mach user", 338.0, mach.user_fork_join()),
        ("Fork-Join: SPIN kernel", 22.0, fj_kernel),
        ("Fork-Join: SPIN user layered", 262.0, fj_layered),
        ("Fork-Join: SPIN user integrated", 111.0, fj_integrated),
        ("Ping-Pong: DEC OSF/1 kernel", 21.0, osf1.kernel_ping_pong()),
        ("Ping-Pong: DEC OSF/1 user", 264.0, osf1.user_ping_pong()),
        ("Ping-Pong: Mach kernel", 71.0, mach.kernel_ping_pong()),
        ("Ping-Pong: Mach user", 115.0, mach.user_ping_pong()),
        ("Ping-Pong: SPIN kernel", 17.0, pp_kernel),
        ("Ping-Pong: SPIN user layered", 159.0, pp_layered),
        ("Ping-Pong: SPIN user integrated", 85.0, pp_integrated),
    ];
    let rows: Vec<Row> = table
        .iter()
        .map(|&(label, paper, ns)| Row::new(label, paper, us(ns)))
        .collect();
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
