//! Distributed shared memory (§4.1): two kernels share a page over the
//! network purely through fault handlers — a counter incremented from
//! both sides stays coherent.
//!
//! Run with: `cargo run --example dsm_counter`

use spin_os::core::Dispatcher;
use spin_os::dsm::DsmNode;
use spin_os::net::{Medium, TwoHosts};
use spin_os::vm::{PhysAddrService, TranslationService, VirtAddrService};

fn main() {
    let rig = TwoHosts::new();
    let disp_a = Dispatcher::on(rig.board.clock.clone());
    let disp_b = Dispatcher::on(rig.board.clock.clone());
    let trans_a = TranslationService::new(rig.host_a.mmu.clone(), rig.board.clock.clone(), &disp_a);
    let trans_b = TranslationService::new(rig.host_b.mmu.clone(), rig.board.clock.clone(), &disp_b);
    let phys_a = PhysAddrService::new(rig.host_a.mem.clone(), &disp_a);
    let phys_b = PhysAddrService::new(rig.host_b.mem.clone(), &disp_b);
    let virt = VirtAddrService::new();
    let region = virt.allocate(1).unwrap();
    let (ctx_a, ctx_b) = (trans_a.create(), trans_b.create());

    let node_a = DsmNode::install(
        &rig.a,
        &rig.exec,
        &trans_a,
        &phys_a,
        &rig.host_a.mem,
        ctx_a,
        region.clone(),
        rig.b.ip_on(Medium::Ethernet),
        true,
    );
    let node_b = DsmNode::install(
        &rig.b,
        &rig.exec,
        &trans_b,
        &phys_b,
        &rig.host_b.mem,
        ctx_b,
        region,
        rig.a.ip_on(Medium::Ethernet),
        false,
    );

    let base = node_a.base();
    const TURNS: u64 = 5;

    // Each side increments the shared counter on its turn (even = A's
    // turn, odd = B's). Every handoff migrates the page over the wire.
    let (ta, ma) = (trans_a.clone(), rig.host_a.mem.clone());
    rig.exec.spawn("host-a", move |ctx| {
        for _ in 0..TURNS {
            loop {
                let mut b = [0u8; 8];
                ta.read(ctx_a, base, &mut b, &ma).unwrap();
                let v = u64::from_be_bytes(b);
                if v % 2 == 0 {
                    ta.write(ctx_a, base, &(v + 1).to_be_bytes(), &ma).unwrap();
                    break;
                }
                ctx.sleep(1_000_000);
            }
        }
    });
    let (tb, mb) = (trans_b.clone(), rig.host_b.mem.clone());
    rig.exec.spawn("host-b", move |ctx| {
        for _ in 0..TURNS {
            loop {
                let mut b = [0u8; 8];
                tb.read(ctx_b, base, &mut b, &mb).unwrap();
                let v = u64::from_be_bytes(b);
                if v % 2 == 1 {
                    tb.write(ctx_b, base, &(v + 1).to_be_bytes(), &mb).unwrap();
                    break;
                }
                ctx.sleep(1_000_000);
            }
        }
    });
    rig.exec.run_until_idle();

    // Read the final value from A.
    let final_value = {
        let mut b = [0u8; 8];
        let done = std::sync::Arc::new(parking_lot::Mutex::new(0u64));
        let d2 = done.clone();
        let (ta, ma) = (trans_a.clone(), rig.host_a.mem.clone());
        rig.exec.spawn("final-read", move |_| {
            let mut buf = [0u8; 8];
            ta.read(ctx_a, base, &mut buf, &ma).unwrap();
            *d2.lock() = u64::from_be_bytes(buf);
        });
        rig.exec.run_until_idle();
        let v = *done.lock();
        b[..].copy_from_slice(&v.to_be_bytes());
        v
    };
    println!("final counter: {final_value} (expected {})", 2 * TURNS);
    println!("node A stats: {:?}", node_a.stats());
    println!("node B stats: {:?}", node_b.stats());
    assert_eq!(final_value, 2 * TURNS);
    assert!(node_a.stats().invalidations + node_b.stats().invalidations >= TURNS);
    println!("dsm counter OK");
}
