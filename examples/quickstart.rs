//! Quickstart: boot a SPIN kernel, export a Console service, and load the
//! paper's Figure 1 `Gatekeeper` extension.
//!
//! Demonstrates the four §1.1 techniques end to end: co-location (the
//! extension runs in the kernel), enforced modularity (the console handle
//! is opaque), logical protection domains (the extension is an object file
//! resolved against the kernel's exports), and dynamic call binding (the
//! console's `Write` is an event another extension can observe).
//!
//! Run with: `cargo run --example quickstart`

use spin_os::core::{Dispatcher, Event, Identity, Interface, Kernel, ObjectFileBuilder};
use spin_os::sal::SimBoard;
use std::sync::Arc;

/// The opaque console capability (the paper's `Console.T`).
struct ConsoleT {
    device: spin_os::sal::Console,
}

/// What the Console interface exports: typed procedures (which are also
/// events — "any procedure exported by an interface is also an event").
struct ConsoleService {
    write: Event<(Arc<ConsoleT>, String), ()>,
    open: Arc<dyn Fn() -> Arc<ConsoleT> + Send + Sync>,
}

fn main() {
    // Boot a kernel on one simulated Alpha workstation.
    let board = SimBoard::new();
    let host = board.new_host(256);
    let kernel = Kernel::boot(host.clone());
    let dispatcher: &Dispatcher = kernel.dispatcher();

    // --- The Console implementation module exports itself (Figure 1). ---
    let console = Arc::new(ConsoleT {
        device: host.console.clone(),
    });
    let (write_ev, write_owner) = dispatcher
        .define::<(Arc<ConsoleT>, String), ()>("Console.Write", Identity::kernel("Console"));
    write_owner
        .set_primary(|(t, msg): &(Arc<ConsoleT>, String)| {
            t.device.put_str(msg);
        })
        .expect("fresh event");
    let open_console = console.clone();
    let service = Arc::new(ConsoleService {
        write: write_ev.clone(),
        open: Arc::new(move || open_console.clone()),
    });
    kernel.publish(Interface::new("ConsoleService").export("service", service));

    // --- The Gatekeeper extension links against it dynamically. ---
    let mut gatekeeper = ObjectFileBuilder::new("gatekeeper");
    let console_import = gatekeeper.import::<ConsoleService>("ConsoleService", "service");
    let domain = kernel
        .load_extension(gatekeeper.sign())
        .expect("gatekeeper links");
    println!(
        "loaded extension domain: {domain:?} (fully resolved: {})",
        domain.fully_resolved()
    );

    // IntruderAlert(): exactly the Figure 1 body. The extension holds an
    // opaque Console.T — it cannot reach the device fields, only the
    // interface procedures.
    let svc = console_import.get().expect("resolved at load time");
    let c = (svc.open)();
    svc.write
        .raise((c.clone(), "Intruder Alert".to_string()))
        .expect("console write");

    // --- Dynamic call binding: a monitoring extension observes writes. ---
    write_ev
        .install(
            Identity::extension("auditor"),
            |(_, msg): &(Arc<ConsoleT>, String)| {
                println!("auditor saw a console write: {msg:?}");
            },
        )
        .expect("auditor may observe");
    svc.write
        .raise((c, " -- second alert".to_string()))
        .expect("console write");

    println!("console output: {:?}", host.console.output());
    println!(
        "virtual time elapsed: {:.1} µs on the DEC Alpha AXP 3000/400 profile",
        board.clock.now() as f64 / 1000.0,
    );

    assert_eq!(host.console.output(), "Intruder Alert -- second alert");
    println!("quickstart OK");
}
