//! Table 4: virtual memory operation overheads in microseconds.
//!
//! Dirty, Fault, Trap, Prot1, Prot100, Unprot100, Appel1, Appel2 on
//! DEC OSF/1 (signals + mprotect), Mach (external pager) and SPIN
//! (application-specific syscalls + in-kernel fault handlers). SPIN rows
//! are measured on the simulated VM; baselines are modelled.

use spin_baseline::{MachModel, Osf1Model};
use spin_bench::scenario::{table4_vm, Wiring};
use spin_bench::{render_table, us, JsonReport, Row};

fn main() {
    let osf1 = Osf1Model;
    let mach = MachModel;

    let [dirty, fault, trap, prot1, prot100, unprot100, appel1, appel2] =
        table4_vm(&Wiring::bare());

    let rows = vec![
        Row::new("Dirty: SPIN", 2.0, us(dirty)),
        Row::new("Fault: DEC OSF/1", 329.0, us(osf1.vm_fault())),
        Row::new("Fault: Mach", 415.0, us(mach.vm_fault())),
        Row::new("Fault: SPIN", 29.0, us(fault)),
        Row::new("Trap: DEC OSF/1", 260.0, us(osf1.vm_trap())),
        Row::new("Trap: Mach", 185.0, us(mach.vm_trap())),
        Row::new("Trap: SPIN", 7.0, us(trap)),
        Row::new("Prot1: DEC OSF/1", 45.0, us(osf1.vm_prot1())),
        Row::new("Prot1: Mach", 106.0, us(mach.vm_prot1())),
        Row::new("Prot1: SPIN", 16.0, us(prot1)),
        Row::new("Prot100: DEC OSF/1", 1041.0, us(osf1.vm_prot100())),
        Row::new("Prot100: Mach", 1792.0, us(mach.vm_prot100())),
        Row::new("Prot100: SPIN", 213.0, us(prot100)),
        Row::new("Unprot100: DEC OSF/1", 1016.0, us(osf1.vm_unprot100())),
        Row::new("Unprot100: Mach", 302.0, us(mach.vm_unprot100())),
        Row::new("Unprot100: SPIN", 214.0, us(unprot100)),
        Row::new("Appel1: DEC OSF/1", 382.0, us(osf1.vm_appel1())),
        Row::new("Appel1: Mach", 819.0, us(mach.vm_appel1())),
        Row::new("Appel1: SPIN", 39.0, us(appel1)),
        Row::new("Appel2: DEC OSF/1", 351.0, us(osf1.vm_appel2())),
        Row::new("Appel2: Mach", 608.0, us(mach.vm_appel2())),
        Row::new("Appel2: SPIN", 29.0, us(appel2)),
    ];
    print!(
        "{}",
        render_table("Table 4: virtual memory operation overheads", "µs", &rows)
    );
    println!("\nNeither DEC OSF/1 nor Mach provide an interface for querying page state (Dirty).");
    JsonReport::new(
        "table4_vm",
        "Table 4: virtual memory operation overheads",
        "µs",
    )
    .rows(&rows)
    .write_if_requested();
}
