//! Table 6: round-trip latency to route 16-byte packets through a
//! protocol forwarder (µs), TCP and UDP over Ethernet and ATM.
//!
//! SPIN's forwarder is an in-stack extension on the middle host; OSF/1's
//! is a user-level process splicing sockets, which adds boundary crossings
//! and copies per forwarded packet (and cannot forward control packets).

use spin_baseline::Osf1Model;
use spin_bench::scenario::{table6_forward, Wiring};
use spin_bench::{render_table, us, JsonReport, Row};
use spin_sal::MachineProfile;
use std::sync::Arc;

fn main() {
    let p = Arc::new(MachineProfile::alpha_axp_3000_400());
    let osf1 = Osf1Model::new(p);

    // (label, SPIN paper µs, OSF/1 paper µs), in `table6_forward`'s order.
    let paper = [
        ("TCP Ethernet", 1420.0, 2080.0),
        ("TCP ATM", 1067.0, 1730.0),
        ("UDP Ethernet", 1344.0, 1607.0),
        ("UDP ATM", 1024.0, 1389.0),
    ];
    let mut rows = Vec::new();
    for ((label, spin_paper, osf_paper), spin_ns) in
        paper.into_iter().zip(table6_forward(&Wiring::bare()))
    {
        rows.push(Row::new(&format!("{label}: SPIN"), spin_paper, us(spin_ns)));
        rows.push(Row::new(
            &format!("{label}: DEC OSF/1 (user-level)"),
            osf_paper,
            us(osf1.forwarder_round_trip(spin_ns, 16)),
        ));
    }
    print!(
        "{}",
        render_table(
            "Table 6: 16-byte round trip through a protocol forwarder",
            "µs",
            &rows
        )
    );
    println!("\nThe OSF/1 user-level splice also violates TCP end-to-end semantics (§5.3);");
    println!("SPIN's in-stack forwarder forwards SYN/FIN/RST and preserves them.");
    JsonReport::new(
        "table6_forward",
        "Table 6: 16-byte round trip through a protocol forwarder",
        "µs",
    )
    .rows(&rows)
    .write_if_requested();
}
