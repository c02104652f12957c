//! Extensible memory management (§4.1): compose the three services, fork
//! an address space with copy-on-write, and demand-page a region from
//! disk — all through extensions handling `Translation.*` fault events.
//!
//! Run with: `cargo run --example fault_handling`

use parking_lot::Mutex;
use spin_os::core::Kernel;
use spin_os::sal::{Protection, SimBoard};
use spin_os::sched::{Executor, KChannel};
use spin_os::vm::{DiskPager, UnixAsExtension, VmService};
use std::sync::Arc;

fn main() {
    let board = SimBoard::new();
    let host = board.new_host(512);
    let exec = Executor::for_host(&host);
    let kernel = Kernel::boot(host.clone());
    let vm = VmService::install(&kernel);

    // --- §4.1's composition: a page, a frame, a mapping. ---
    let ctx_id = vm.trans.create();
    let v = vm.virt.allocate(1).unwrap();
    let p = vm.phys.allocate(1, Default::default()).unwrap();
    vm.trans
        .add_mapping(ctx_id, &v, &p, Protection::READ_WRITE)
        .unwrap();
    vm.trans
        .write(ctx_id, v.base(), b"composed from three services", &host.mem)
        .unwrap();
    println!("mapped one page at {:#x} and wrote through it", v.base());

    // --- The UNIX address-space extension: fork with COW. ---
    let unix = UnixAsExtension::install(
        vm.trans.clone(),
        vm.phys.clone(),
        vm.virt.clone(),
        host.mem.clone(),
    );
    let parent = unix.create();
    let base = unix.allocate(&parent, 2, Protection::READ_WRITE).unwrap();
    unix.write(&parent, base, b"inherited data").unwrap();
    let child = unix.copy(&parent).unwrap();
    println!(
        "forked: {} copy-on-write shares pending",
        unix.cow_pending()
    );
    unix.write(&child, base, b"child's own data").unwrap(); // triggers COW
    let mut buf = [0u8; 14];
    unix.read(&parent, base, &mut buf).unwrap();
    println!("parent still sees: {:?}", String::from_utf8_lossy(&buf));
    assert_eq!(&buf, b"inherited data");
    unix.read(&child, base, &mut buf).unwrap();
    assert_eq!(&buf, b"child's own da");

    // --- Demand paging from disk. ---
    // Stage recognizable data on disk blocks 50..52.
    use spin_os::sal::{BlockId, DiskRequest, BLOCK_SIZE};
    for (b, fill) in [(50u64, b'S'), (51, b'P')] {
        let disk = host.disk.clone();
        exec.spawn("stage", move |ctx| {
            let done = KChannel::new(ctx.executor().clone(), 1);
            let d2 = done.clone();
            disk.submit(
                DiskRequest::Write(BlockId(b), vec![fill; BLOCK_SIZE]),
                move |r| {
                    r.unwrap();
                    d2.try_push(());
                },
            );
            done.recv(ctx);
        });
    }
    exec.run_until_idle();

    let paged_ctx = vm.trans.create();
    let region = vm.virt.allocate(2).unwrap();
    vm.trans.reserve(paged_ctx, &region).unwrap();
    let pager = DiskPager::install(
        exec.clone(),
        vm.trans.clone(),
        vm.phys.clone(),
        host.disk.clone(),
        paged_ctx,
        region.clone(),
        50,
    );

    let trans = vm.trans.clone();
    let mem = host.mem.clone();
    let base = region.base();
    let result = Arc::new(Mutex::new(Vec::new()));
    let r2 = result.clone();
    exec.spawn("app", move |_| {
        let mut b = [0u8; 1];
        trans.read(paged_ctx, base, &mut b, &mem).unwrap();
        r2.lock().push(b[0]);
        trans
            .read(paged_ctx, base + BLOCK_SIZE as u64, &mut b, &mem)
            .unwrap();
        r2.lock().push(b[0]);
    });
    exec.run_until_idle();
    println!(
        "demand-paged bytes: {:?}; pager stats: {:?}",
        String::from_utf8_lossy(&result.lock()),
        pager.stats()
    );
    assert_eq!(*result.lock(), vec![b'S', b'P']);
    assert_eq!(pager.stats().faults, 2);
    println!("fault handling OK");
}
