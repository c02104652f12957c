//! The Mach task abstraction as a kernel extension.
//!
//! "Another kernel extension defines a memory management interface
//! supporting Mach's task abstraction. Applications may use these
//! interfaces, or they may define their own in terms of the lower-level
//! services" (§4.1). The interface shape follows Mach's `vm_allocate` /
//! `vm_protect` / `vm_deallocate` over a task port.

use crate::phys::{PhysAddrService, PhysAttrib, PhysRegion};
use crate::translation::{TranslationService, VmError};
use crate::virt::{VirtAddrService, VirtRegion};
use spin_check::sync::Mutex;
use spin_sal::ContextId;
use spin_sal::{PhysMem, Protection};
use std::collections::HashMap;
use std::sync::Arc;

struct TaskRegion {
    virt: Arc<VirtRegion>,
    phys: Arc<PhysRegion>,
}

/// A Mach task: an address space addressed by region base.
pub struct MachTask {
    ctx: ContextId,
    regions: Mutex<HashMap<u64, TaskRegion>>,
}

/// The Mach-task extension.
#[derive(Clone)]
pub struct MachTaskExtension {
    trans: TranslationService,
    phys: PhysAddrService,
    virt: VirtAddrService,
    mem: PhysMem,
}

impl MachTaskExtension {
    /// Installs the extension over the core services.
    // paper: §4.1, the Mach task interface (PAPER.md: "Mach tasks").
    pub fn install(
        trans: TranslationService,
        phys: PhysAddrService,
        virt: VirtAddrService,
        mem: PhysMem,
    ) -> MachTaskExtension {
        MachTaskExtension {
            trans,
            phys,
            virt,
            mem,
        }
    }

    /// `task_create`.
    // paper: §4.1, the Mach task interface (PAPER.md: "Mach tasks").
    pub fn task_create(&self) -> Arc<MachTask> {
        Arc::new(MachTask {
            ctx: self.trans.create(),
            regions: Mutex::new(HashMap::new()),
        })
    }

    /// `vm_allocate`: maps `pages` of zero-filled memory, returning the
    /// base address.
    // paper: §4.1, the Mach task interface (PAPER.md: "Mach tasks").
    pub fn vm_allocate(&self, task: &MachTask, pages: u64) -> Result<u64, VmError> {
        let virt = self.virt.allocate(pages).map_err(|_| VmError::Stale)?;
        let phys = self
            .phys
            .allocate(pages as usize, PhysAttrib::default())
            .map_err(|_| VmError::Stale)?;
        self.trans
            .add_mapping(task.ctx, &virt, &phys, Protection::READ_WRITE)?;
        let base = virt.base();
        task.regions.lock().insert(base, TaskRegion { virt, phys });
        Ok(base)
    }

    /// `vm_deallocate` by region base address.
    // paper: §4.1, the Mach task interface (PAPER.md: "Mach tasks").
    pub fn vm_deallocate(&self, task: &MachTask, base: u64) -> Result<(), VmError> {
        let region = task.regions.lock().remove(&base).ok_or(VmError::Stale)?;
        self.trans.remove_mapping(task.ctx, &region.virt)?;
        self.phys
            .deallocate(&region.phys)
            .map_err(|_| VmError::Stale)?;
        self.virt
            .deallocate(&region.virt)
            .map_err(|_| VmError::Stale)
    }

    /// `vm_protect` over a whole region.
    // paper: §4.1, the Mach task interface (PAPER.md: "Mach tasks").
    pub fn vm_protect(&self, task: &MachTask, base: u64, prot: Protection) -> Result<(), VmError> {
        let regions = task.regions.lock();
        let region = regions.get(&base).ok_or(VmError::Stale)?;
        self.trans.protect_region(task.ctx, &region.virt, prot)
    }

    /// `vm_write`.
    // paper: §4.1, the Mach task interface (PAPER.md: "Mach tasks").
    pub fn vm_write(&self, task: &MachTask, va: u64, data: &[u8]) -> Result<(), VmError> {
        self.trans.write(task.ctx, va, data, &self.mem)
    }

    /// `vm_read`.
    // paper: §4.1, the Mach task interface (PAPER.md: "Mach tasks").
    pub fn vm_read(&self, task: &MachTask, va: u64, buf: &mut [u8]) -> Result<(), VmError> {
        self.trans.read(task.ctx, va, buf, &self.mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spin_core::Dispatcher;
    use spin_sal::SimBoard;

    fn ext() -> MachTaskExtension {
        let board = SimBoard::new();
        let host = board.new_host(64);
        let disp = Dispatcher::on(board.clock.clone());
        MachTaskExtension::install(
            TranslationService::new(host.mmu.clone(), board.clock.clone(), &disp),
            PhysAddrService::new(host.mem.clone(), &disp),
            VirtAddrService::new(),
            host.mem.clone(),
        )
    }

    #[test]
    fn allocate_write_read() {
        let e = ext();
        let task = e.task_create();
        let base = e.vm_allocate(&task, 2).unwrap();
        e.vm_write(&task, base + 100, b"mach").unwrap();
        let mut buf = [0u8; 4];
        e.vm_read(&task, base + 100, &mut buf).unwrap();
        assert_eq!(&buf, b"mach");
        assert_eq!(task.regions.lock().len(), 1);
    }

    #[test]
    fn protect_blocks_writes() {
        let e = ext();
        let task = e.task_create();
        let base = e.vm_allocate(&task, 1).unwrap();
        e.vm_protect(&task, base, Protection::READ).unwrap();
        assert!(e.vm_write(&task, base, &[1]).is_err());
        let mut buf = [0u8; 1];
        assert!(e.vm_read(&task, base, &mut buf).is_ok());
    }

    #[test]
    fn deallocate_unmaps_and_frees() {
        let e = ext();
        let task = e.task_create();
        let base = e.vm_allocate(&task, 1).unwrap();
        e.vm_deallocate(&task, base).unwrap();
        let mut buf = [0u8; 1];
        assert!(e.vm_read(&task, base, &mut buf).is_err());
        assert!(e.vm_deallocate(&task, base).is_err());
        assert_eq!(task.regions.lock().len(), 0);
        assert_eq!(
            e.vm_allocate(&task, 1).unwrap(),
            base,
            "the range is reused"
        );
    }
}
