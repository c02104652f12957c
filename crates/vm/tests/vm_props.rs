//! Property tests for the memory services: the mapping algebra
//! (add/remove/protect/examine against a reference model) and fault
//! classification.

use proptest::prelude::*;
use spin_core::Dispatcher;
use spin_sal::Access;
use spin_sal::{Protection, SimBoard, PAGE_SHIFT};
use spin_vm::{
    FaultKind, PhysAddrService, PhysAttrib, TranslationService, VirtAddrService, VmError,
};
use std::collections::HashMap;

struct Rig {
    trans: TranslationService,
    phys: PhysAddrService,
    virt: VirtAddrService,
}

fn rig() -> Rig {
    let board = SimBoard::new();
    let host = board.new_host(256);
    let disp = Dispatcher::new(board.clock.clone(), board.profile.clone());
    Rig {
        trans: TranslationService::new(
            host.mmu.clone(),
            board.clock.clone(),
            board.profile.clone(),
            &disp,
        ),
        phys: PhysAddrService::new(host.mem.clone(), &disp),
        virt: VirtAddrService::new(),
    }
}

#[derive(Debug, Clone)]
enum MapOp {
    /// Map page `i` (of a fixed pool) with the given writability.
    Map { slot: usize, writable: bool },
    /// Unmap page `i`.
    Unmap { slot: usize },
    /// Change protection of page `i`.
    Protect { slot: usize, writable: bool },
}

fn op_strategy(slots: usize) -> impl Strategy<Value = MapOp> {
    prop_oneof![
        (0..slots, any::<bool>()).prop_map(|(slot, writable)| MapOp::Map { slot, writable }),
        (0..slots).prop_map(|slot| MapOp::Unmap { slot }),
        (0..slots, any::<bool>()).prop_map(|(slot, writable)| MapOp::Protect { slot, writable }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mapping_algebra_matches_reference_model(
        ops in prop::collection::vec(op_strategy(12), 1..50)
    ) {
        const SLOTS: usize = 12;
        let r = rig();
        let ctx = r.trans.create();
        // A pool of single-page virtual regions and physical pages.
        let vregions: Vec<_> = (0..SLOTS).map(|_| r.virt.allocate(1).unwrap()).collect();
        let pregions: Vec<_> =
            (0..SLOTS).map(|_| r.phys.allocate(1, PhysAttrib::default()).unwrap()).collect();
        for v in &vregions {
            r.trans.reserve(ctx, v).unwrap();
        }
        // Reference model: slot -> writable.
        let mut model: HashMap<usize, bool> = HashMap::new();

        for op in ops {
            match op {
                MapOp::Map { slot, writable } => {
                    let prot = if writable { Protection::READ_WRITE } else { Protection::READ };
                    r.trans.add_mapping(ctx, &vregions[slot], &pregions[slot], prot).unwrap();
                    model.insert(slot, writable);
                }
                MapOp::Unmap { slot } => {
                    r.trans.remove_mapping(ctx, &vregions[slot]).unwrap();
                    model.remove(&slot);
                }
                MapOp::Protect { slot, writable } => {
                    let prot = if writable { Protection::READ_WRITE } else { Protection::READ };
                    let outcome = r.trans.protect_page(ctx, vregions[slot].base(), prot);
                    prop_assert_eq!(outcome.is_ok(), model.contains_key(&slot));
                    if let Some(w) = model.get_mut(&slot) {
                        *w = writable;
                    }
                }
            }
            // The system agrees with the model on every slot.
            for (slot, v) in vregions.iter().enumerate() {
                let read = r.trans.access(ctx, v.base(), Access::Read);
                let write = r.trans.access(ctx, v.base(), Access::Write);
                match model.get(&slot) {
                    Some(true) => {
                        prop_assert!(read.is_ok());
                        prop_assert!(write.is_ok());
                    }
                    Some(false) => {
                        prop_assert!(read.is_ok());
                        let prot_fault = matches!(
                            write,
                            Err(VmError::Unresolved { kind: FaultKind::ProtectionFault, .. })
                        );
                        prop_assert!(prot_fault);
                    }
                    None => {
                        let not_present = matches!(
                            read,
                            Err(VmError::Unresolved { kind: FaultKind::PageNotPresent, .. })
                        );
                        prop_assert!(not_present);
                    }
                }
            }
        }
    }

    #[test]
    fn unreserved_addresses_are_always_bad(addr in 0x200_0000_0000u64..0x300_0000_0000u64) {
        let r = rig();
        let ctx = r.trans.create();
        let err = r.trans.access(ctx, addr, Access::Read).unwrap_err();
        let bad = matches!(err, VmError::Unresolved { kind: FaultKind::BadAddress, .. });
        prop_assert!(bad);
    }

    #[test]
    fn guest_data_round_trips_across_page_boundaries(
        offset in 0u64..16384,
        data in prop::collection::vec(any::<u8>(), 1..600)
    ) {
        let r = rig();
        let board = SimBoard::new();
        let host = board.new_host(64);
        let disp = Dispatcher::new(board.clock.clone(), board.profile.clone());
        let trans = TranslationService::new(host.mmu.clone(), board.clock.clone(), board.profile.clone(), &disp);
        let phys = PhysAddrService::new(host.mem.clone(), &disp);
        let virt = VirtAddrService::new();
        let ctx = trans.create();
        let pages = ((offset as usize + data.len()) >> PAGE_SHIFT) as u64 + 1;
        let v = virt.allocate(pages).unwrap();
        let p = phys.allocate(pages as usize, PhysAttrib::default()).unwrap();
        trans.add_mapping(ctx, &v, &p, Protection::READ_WRITE).unwrap();
        trans.write(ctx, v.base() + offset, &data, &host.mem).unwrap();
        let mut back = vec![0u8; data.len()];
        trans.read(ctx, v.base() + offset, &mut back, &host.mem).unwrap();
        prop_assert_eq!(back, data);
        let _ = r;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn physical_allocator_conserves_frames(
        sizes in prop::collection::vec(1usize..8, 1..20)
    ) {
        let r = rig();
        let total = r.phys.free_frames();
        let mut held = Vec::new();
        for s in &sizes {
            match r.phys.allocate(*s, PhysAttrib::default()) {
                Ok(region) => held.push(region),
                Err(_) => break,
            }
        }
        let allocated: usize = held.iter().map(|r| r.pages()).sum();
        prop_assert_eq!(r.phys.free_frames(), total - allocated);
        for region in &held {
            r.phys.deallocate(region).unwrap();
        }
        prop_assert_eq!(r.phys.free_frames(), total, "all frames returned");
    }
}
