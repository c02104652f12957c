//! Table 5: network protocol latency (µs) and receive bandwidth (Mb/s).
//!
//! UDP/IP between two hosts over Ethernet and ATM: 16-byte round trips for
//! latency, large packets (1500/8132 on the wire) for bandwidth. SPIN rows
//! are measured end-to-end through the simulated stack; OSF/1 rows add the
//! modelled user-level crossings and copies.

use spin_baseline::Osf1Model;
use spin_bench::scenario::{table5_net, Table5, Wiring, ATM_BW_PAYLOAD, ETH_BW_PAYLOAD};
use spin_bench::{render_table, us, JsonReport, Row};

fn main() {
    let osf1 = Osf1Model;

    let Table5 {
        eth_rtt: spin_eth_rtt,
        atm_rtt: spin_atm_rtt,
        eth_bw: spin_eth_bw,
        atm_bw: spin_atm_bw,
    } = table5_net(&Wiring::bare());

    let rows = vec![
        Row::new(
            "Latency Ethernet: DEC OSF/1",
            789.0,
            us(osf1.udp_round_trip(spin_eth_rtt, 16)),
        ),
        Row::new("Latency Ethernet: SPIN", 565.0, us(spin_eth_rtt)),
        Row::new(
            "Latency ATM: DEC OSF/1",
            631.0,
            us(osf1.udp_round_trip(spin_atm_rtt, 16)),
        ),
        Row::new("Latency ATM: SPIN", 421.0, us(spin_atm_rtt)),
    ];
    print!(
        "{}",
        render_table("Table 5a: UDP/IP round-trip latency", "µs", &rows)
    );
    let latency_rows = rows;

    let rows = vec![
        Row::new(
            "Bandwidth Ethernet: DEC OSF/1",
            8.9,
            osf1.receive_bandwidth_mbps(spin_eth_bw, ETH_BW_PAYLOAD),
        ),
        Row::new("Bandwidth Ethernet: SPIN", 8.9, spin_eth_bw),
        Row::new(
            "Bandwidth ATM: DEC OSF/1",
            27.9,
            osf1.receive_bandwidth_mbps(spin_atm_bw, ATM_BW_PAYLOAD),
        ),
        Row::new("Bandwidth ATM: SPIN", 33.0, spin_atm_bw),
    ];
    print!(
        "{}",
        render_table("Table 5b: receive bandwidth", "Mb/s", &rows)
    );
    println!("\nThe FORE cards' programmed I/O caps usable ATM bandwidth near 53 Mb/s (§5).");
    JsonReport::new(
        "table5_net",
        "Table 5: network latency and bandwidth",
        "µs latency / Mb/s bandwidth",
    )
    .rows(&latency_rows)
    .rows(&rows)
    .write_if_requested();
}
