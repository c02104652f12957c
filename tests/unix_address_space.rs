//! Integration: the UNIX address-space extension under stress — deep fork
//! chains, COW fault storms, and reclaim interacting with translation.

use spin_os::core::{Dispatcher, Kernel};
use spin_os::sal::{Protection, SimBoard};
use spin_os::vm::{PhysAttrib, UnixAsExtension, VmService};
use std::sync::Arc;

fn setup() -> (Kernel, UnixAsExtension, VmService) {
    let board = SimBoard::new();
    let host = board.new_host(1024);
    let kernel = Kernel::boot(host.clone());
    let vm = VmService::install(&kernel);
    let unix = UnixAsExtension::install(
        vm.trans.clone(),
        vm.phys.clone(),
        vm.virt.clone(),
        host.mem.clone(),
    );
    (kernel, unix, vm)
}

#[test]
fn three_generation_fork_chain_isolates_writes() {
    let (_k, unix, _vm) = setup();
    let gen0 = unix.create();
    let base = unix.allocate(&gen0, 2, Protection::READ_WRITE).unwrap();
    unix.write(&gen0, base, b"gen0").unwrap();

    let gen1 = unix.copy(&gen0).unwrap();
    let gen2 = unix.copy(&gen1).unwrap();

    unix.write(&gen2, base, b"gen2").unwrap();
    unix.write(&gen1, base, b"gen1").unwrap();

    let mut buf = [0u8; 4];
    unix.read(&gen0, base, &mut buf).unwrap();
    assert_eq!(&buf, b"gen0");
    unix.read(&gen1, base, &mut buf).unwrap();
    assert_eq!(&buf, b"gen1");
    unix.read(&gen2, base, &mut buf).unwrap();
    assert_eq!(&buf, b"gen2");
}

#[test]
fn cow_fault_storm_resolves_every_share() {
    let (_k, unix, _vm) = setup();
    let parent = unix.create();
    const PAGES: u64 = 20;
    let base = unix
        .allocate(&parent, PAGES, Protection::READ_WRITE)
        .unwrap();
    for i in 0..PAGES {
        unix.write(&parent, base + i * 8192, &[i as u8]).unwrap();
    }
    let child = unix.copy(&parent).unwrap();
    assert_eq!(unix.cow_pending(), 2 * PAGES as usize);
    // The child dirties every page; the parent dirties every page after.
    for i in 0..PAGES {
        unix.write(&child, base + i * 8192, &[100 + i as u8])
            .unwrap();
    }
    for i in 0..PAGES {
        unix.write(&parent, base + i * 8192, &[200 + i as u8])
            .unwrap();
    }
    assert_eq!(unix.cow_pending(), 0, "every share resolved");
    let mut buf = [0u8; 1];
    for i in 0..PAGES {
        unix.read(&child, base + i * 8192, &mut buf).unwrap();
        assert_eq!(buf[0], 100 + i as u8);
        unix.read(&parent, base + i * 8192, &mut buf).unwrap();
        assert_eq!(buf[0], 200 + i as u8);
    }
}

#[test]
fn reclaim_invalidates_mappings_across_spaces() {
    let (k, _unix, vm) = setup();
    let _disp: &Dispatcher = k.dispatcher();
    // Two contexts share one physical region.
    let ctx_a = vm.trans.create();
    let ctx_b = vm.trans.create();
    let v_a = vm.virt.allocate(1).unwrap();
    let v_b = vm.virt.allocate(1).unwrap();
    let p = vm.phys.allocate(1, PhysAttrib::default()).unwrap();
    vm.trans
        .add_mapping(ctx_a, &v_a, &p, Protection::READ)
        .unwrap();
    vm.trans
        .add_mapping(ctx_b, &v_b, &p, Protection::READ)
        .unwrap();

    // The physical service reclaims the page; the translation service
    // "ultimately invalidates any mappings to a reclaimed page" (§4.1).
    let taken = vm.phys.reclaim(p.clone()).unwrap();
    assert_eq!(taken.id(), p.id());
    let invalidated = vm.trans.invalidate_phys(&p).unwrap();
    assert_eq!(invalidated, 2);
    use spin_os::sal::Access;
    assert!(vm.trans.access(ctx_a, v_a.base(), Access::Read).is_err());
    assert!(vm.trans.access(ctx_b, v_b.base(), Access::Read).is_err());
}

#[test]
fn address_space_composition_uses_only_public_services() {
    // §4.1: applications "may define their own [models] in terms of the
    // lower-level services". Build a tiny shared-memory model directly.
    let (_k, _unix, vm) = setup();
    let writer = vm.trans.create();
    let reader = vm.trans.create();
    let shared_phys = vm.phys.allocate(1, PhysAttrib::default()).unwrap();
    let v_w = vm.virt.allocate(1).unwrap();
    let v_r = vm.virt.allocate(1).unwrap();
    vm.trans
        .add_mapping(writer, &v_w, &shared_phys, Protection::READ_WRITE)
        .unwrap();
    vm.trans
        .add_mapping(reader, &v_r, &shared_phys, Protection::READ)
        .unwrap();

    let board_mem = {
        // Reach the same PhysMem the services use.
        vm.phys.memory().clone()
    };
    vm.trans
        .write(writer, v_w.base() + 5, b"shared!", &board_mem)
        .unwrap();
    let mut buf = [0u8; 7];
    vm.trans
        .read(reader, v_r.base() + 5, &mut buf, &board_mem)
        .unwrap();
    assert_eq!(&buf, b"shared!");
    // The reader cannot write through its read-only view.
    assert!(vm
        .trans
        .write(reader, v_r.base(), &[1], &board_mem)
        .is_err());
    let _ = Arc::strong_count(&shared_phys);
}
