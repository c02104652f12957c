//! Wiring the memory services into a booted kernel.
//!
//! [`VmService::install`] creates the three decomposed services over the
//! kernel's host, publishes them as interfaces in `SpinPublic` (so
//! extensions can link against `PhysAddr`, `VirtAddr` and `Translation`),
//! and registers them with the nameserver under the names the paper's
//! Figure 1 style uses.

use crate::phys::PhysAddrService;
use crate::translation::TranslationService;
use crate::virt::VirtAddrService;
use spin_core::{Identity, Interface, Kernel};
use std::sync::Arc;

/// The installed memory-management core services.
#[derive(Clone)]
pub struct VmService {
    pub phys: PhysAddrService,
    pub virt: VirtAddrService,
    pub trans: TranslationService,
}

impl VmService {
    /// Installs the services on `kernel` and publishes their interfaces.
    pub fn install(kernel: &Kernel) -> VmService {
        let host = kernel.host();
        let dispatcher = kernel.dispatcher();
        let phys = PhysAddrService::new(host.mem.clone(), dispatcher);
        let virt = VirtAddrService::new();
        let trans = TranslationService::new(host.mmu.clone(), host.clock.clone(), dispatcher);
        kernel.publish(Interface::new("PhysAddr").export("service", Arc::new(phys.clone())));
        kernel.publish(Interface::new("VirtAddr").export("service", Arc::new(virt.clone())));
        kernel.publish(Interface::new("Translation").export("service", Arc::new(trans.clone())));
        let svc = VmService { phys, virt, trans };
        // The bundle handle itself is the typed-import anchor: the three
        // per-service types are also exported through SpinPublic, so
        // `import_typed::<VmService>()` is the unambiguous way in.
        let domain = spin_core::Domain::create_from_module(
            "vm",
            vec![
                Interface::new("Vm").export("service", Arc::new(svc.clone())),
                Interface::new("PhysAddr").export("service", Arc::new(svc.phys.clone())),
                Interface::new("VirtAddr").export("service", Arc::new(svc.virt.clone())),
                Interface::new("Translation").export("service", Arc::new(svc.trans.clone())),
            ],
        );
        let _ = kernel
            .nameserver()
            .register("MemoryServices", domain, Identity::kernel("vm"));
        svc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spin_sal::SimBoard;

    #[test]
    fn install_publishes_interfaces() {
        let board = SimBoard::new();
        let kernel = Kernel::boot(board.new_host(64));
        let vm = VmService::install(&kernel);
        // An extension can import the services through SpinPublic.
        let phys: Arc<PhysAddrService> = kernel.spin_public().get("PhysAddr", "service").unwrap();
        assert_eq!(phys.free_frames(), vm.phys.free_frames());
        let _trans: Arc<TranslationService> =
            kernel.spin_public().get("Translation", "service").unwrap();
        let svc = kernel
            .nameserver()
            .import_typed::<VmService>(&Identity::extension("pager"))
            .unwrap();
        assert_eq!(svc.name(), "MemoryServices");
        assert!(svc.domain().lookup_symbol("VirtAddr", "service").is_some());
        assert_eq!(svc.phys.free_frames(), vm.phys.free_frames());
    }

    #[test]
    fn composition_example_from_section_4() {
        // "In SPIN it is straightforward to allocate a single virtual
        // page, a physical page, and then create a mapping between the
        // two."
        let board = SimBoard::new();
        let kernel = Kernel::boot(board.new_host(64));
        let vm = VmService::install(&kernel);
        let ctx = vm.trans.create();
        let v = vm.virt.allocate(1).unwrap();
        let p = vm.phys.allocate(1, Default::default()).unwrap();
        vm.trans
            .add_mapping(ctx, &v, &p, spin_sal::Protection::READ_WRITE)
            .unwrap();
        vm.trans
            .write(ctx, v.base(), b"composed", &kernel.host().mem)
            .unwrap();
        let mut buf = [0u8; 8];
        vm.trans
            .read(ctx, v.base(), &mut buf, &kernel.host().mem)
            .unwrap();
        assert_eq!(&buf, b"composed");
    }
}
