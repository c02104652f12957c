//! Table 2: protected communication overhead in microseconds.
//!
//! "Protected in-kernel call", "System call" and "Cross-address space
//! call" on DEC OSF/1, Mach and SPIN. SPIN's rows are *measured* on the
//! simulated paths (`spin_bench::scenario`); OSF/1's and Mach's come from
//! the structural models.

use spin_baseline::{MachModel, Osf1Model};
use spin_bench::scenario::{in_kernel_call, syscall, xas, Wiring};
use spin_bench::{render_table, us, JsonReport, Row};

fn main() {
    let osf1 = Osf1Model;
    let mach = MachModel;
    let bare = Wiring::bare();

    let rows = vec![
        Row::new(
            "SPIN: protected in-kernel call",
            0.13,
            us(in_kernel_call(&bare)),
        ),
        Row::new("SPIN: system call", 4.0, us(syscall(&bare))),
        Row::new("SPIN: cross-address space call", 89.0, us(xas(&bare))),
        Row::new("DEC OSF/1: system call", 5.0, us(osf1.null_syscall())),
        Row::new(
            "DEC OSF/1: cross-address space call",
            845.0,
            us(osf1.cross_address_space_call()),
        ),
        Row::new("Mach: system call", 7.0, us(mach.null_syscall())),
        Row::new(
            "Mach: cross-address space call",
            104.0,
            us(mach.cross_address_space_call()),
        ),
    ];
    print!(
        "{}",
        render_table("Table 2: protected communication overhead", "µs", &rows)
    );
    println!("\nNeither DEC OSF/1 nor Mach support protected in-kernel communication.");
    JsonReport::new(
        "table2_comm",
        "Table 2: protected communication overhead",
        "µs",
    )
    .rows(&rows)
    .write_if_requested();
}
