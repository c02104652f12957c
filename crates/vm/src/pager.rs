//! Demand paging from disk, as a kernel extension.
//!
//! One of the higher-level services §4.1 says can be defined on the fault
//! events: "Implementors of higher level memory management abstractions
//! can use these events to define services, such as demand paging". The
//! [`DiskPager`] backs a reserved virtual region with a run of disk
//! blocks; its `Translation.PageNotPresent` handler allocates a frame,
//! reads the block (blocking the faulting strand on the disk interrupt),
//! and installs the mapping.

use crate::phys::{PhysAddrService, PhysAttrib, PhysRegion};
use crate::translation::{FaultAction, FaultInfo, TranslationService};
use crate::virt::VirtRegion;
use spin_check::hooks::HookSlot;
use spin_check::sync::Mutex;
use spin_core::Identity;
use spin_fault::{FaultHook, Injection};
use spin_sal::{BlockId, Disk, DiskRequest};
use spin_sal::{ContextId, Cost};
use spin_sal::{Protection, PAGE_SHIFT};
use spin_sched::{Executor, KChannel};
use std::sync::Arc;

/// Statistics for a pager instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagerStats {
    pub faults: u64,
    pub pages_read: u64,
}

/// A disk-backed demand pager for one region of one context.
pub struct DiskPager {
    stats: Arc<Mutex<PagerStats>>,
    /// Frames the pager has faulted in (kept live here).
    resident: Arc<Mutex<Vec<Arc<PhysRegion>>>>,
    /// Fault-injection hook (`vm.pager` site), drawn at the top of every
    /// page fault the pager handles. An injected panic unwinds out of the
    /// handler and is contained by the dispatcher; an injected failure
    /// surfaces as `FaultAction::Fail` — a pager that could not service
    /// the fault.
    faults: Arc<HookSlot<FaultHook>>,
}

impl DiskPager {
    /// Installs a pager: `region` (already reserved in `ctx`) is backed by
    /// blocks `base_block..base_block + region.pages()`.
    #[allow(clippy::too_many_arguments)]
    pub fn install(
        exec: Arc<Executor>,
        trans: TranslationService,
        phys: PhysAddrService,
        disk: Disk,
        ctx: ContextId,
        region: Arc<VirtRegion>,
        base_block: u64,
    ) -> Arc<DiskPager> {
        let pager = Arc::new(DiskPager {
            stats: Arc::new(Mutex::new(PagerStats::default())),
            resident: Arc::new(Mutex::new(Vec::new())),
            faults: Arc::new(HookSlot::new()),
        });
        let (stats, resident) = (pager.stats.clone(), pager.resident.clone());
        let fault_hook = pager.faults.clone();
        let guard_region = region.clone();
        trans
            .clone()
            .events()
            .page_not_present
            .install_guarded(
                Identity::extension("DiskPager"),
                move |info: &FaultInfo| info.ctx == ctx && guard_region.contains(info.va),
                move |info: &FaultInfo| {
                    stats.lock().faults += 1;
                    if let Some(h) = fault_hook.get() {
                        match h.draw() {
                            Some(Injection::Panic) => h.fire_panic(),
                            Some(Injection::Delay(ns)) => exec.clock().charge(Cost::Injected, ns),
                            Some(Injection::Fail) => return FaultAction::Fail,
                            None => {}
                        }
                    }
                    let sctx = match exec.current_ctx() {
                        Some(c) => c,
                        None => return FaultAction::Fail, // not on a strand
                    };
                    // Allocate the frame.
                    let frame_region = match phys.allocate(1, PhysAttrib::default()) {
                        Ok(r) => r,
                        Err(_) => return FaultAction::Fail,
                    };
                    let frame = match frame_region.with_frames(|f| f[0]) {
                        Ok(f) => f,
                        Err(_) => return FaultAction::Fail,
                    };
                    // Read the backing block, blocking this strand.
                    let page_index = (info.va - region.base()) >> PAGE_SHIFT;
                    let block = BlockId(base_block + page_index);
                    let done: Arc<KChannel<Option<Vec<u8>>>> = KChannel::new(exec.clone(), 1);
                    let d2 = done.clone();
                    disk.submit(DiskRequest::Read(block), move |r| {
                        // Hand over the data (or the failure) and wake the
                        // faulting strand.
                        d2.try_push(r.ok());
                    });
                    let data = match done.recv(&sctx) {
                        Some(Some(d)) => d,
                        _ => return FaultAction::Fail,
                    };
                    phys.memory().write(frame, 0, &data);
                    let vpn = info.va >> PAGE_SHIFT;
                    if trans
                        .map_page(info.ctx, vpn, frame, Protection::READ_WRITE)
                        .is_err()
                    {
                        return FaultAction::Fail;
                    }
                    stats.lock().pages_read += 1;
                    resident.lock().push(frame_region);
                    FaultAction::Resolved
                },
            )
            .expect("install pager handler");
        pager
    }

    /// Wires the deterministic fault-injection plan's `vm.pager` site.
    /// One-shot; absent hooks cost nothing on the fault path.
    pub fn set_fault_hook(&self, hook: FaultHook) {
        let _ = self.faults.set(hook);
    }

    /// Fault/read counters.
    pub fn stats(&self) -> PagerStats {
        *self.stats.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::virt::VirtAddrService;
    use spin_core::Dispatcher;
    use spin_sal::SimBoard;
    use spin_sal::BLOCK_SIZE;

    #[test]
    fn faults_read_pages_from_disk_on_demand() {
        let board = SimBoard::new();
        let host = board.new_host(128);
        let exec = Executor::for_host(&host);
        let disp = Dispatcher::on(board.clock.clone());
        let trans = TranslationService::new(host.mmu.clone(), board.clock.clone(), &disp);
        let phys = PhysAddrService::new(host.mem.clone(), &disp);
        let virt = VirtAddrService::new();

        // Write recognizable content to backing blocks 10 and 11.
        let exec2 = exec.clone();
        let disk = host.disk.clone();
        for (i, fill) in [(10u64, 0xAAu8), (11, 0xBB)] {
            let d = disk.clone();
            exec.spawn("writer", move |ctx| {
                let done: Arc<KChannel<()>> = KChannel::new(ctx.executor().clone(), 1);
                let d2 = done.clone();
                d.submit(
                    DiskRequest::Write(BlockId(i), vec![fill; BLOCK_SIZE]),
                    move |r| {
                        r.unwrap();
                        d2.try_push(());
                    },
                );
                done.recv(ctx);
            });
        }
        exec.run_until_idle();

        let ctx_id = trans.create();
        let region = virt.allocate(2).unwrap();
        trans.reserve(ctx_id, &region).unwrap();
        let pager = DiskPager::install(
            exec2.clone(),
            trans.clone(),
            phys.clone(),
            disk,
            ctx_id,
            region.clone(),
            10,
        );

        let mem = host.mem.clone();
        let trans2 = trans.clone();
        let base = region.base();
        let ok = Arc::new(Mutex::new(false));
        let ok2 = ok.clone();
        exec2.spawn("app", move |_| {
            let mut buf = [0u8; 1];
            trans2.read(ctx_id, base, &mut buf, &mem).unwrap();
            assert_eq!(buf, [0xAA]);
            trans2
                .read(ctx_id, base + BLOCK_SIZE as u64, &mut buf, &mem)
                .unwrap();
            assert_eq!(buf, [0xBB]);
            // Second touch: already resident, no new fault.
            trans2.read(ctx_id, base, &mut buf, &mem).unwrap();
            *ok2.lock() = true;
        });
        let outcome = exec2.run_until_idle();
        assert_eq!(outcome, spin_sched::IdleOutcome::AllComplete);
        assert!(*ok.lock());
        let stats = pager.stats();
        assert_eq!(stats.faults, 2, "one fault per page, none on re-touch");
        assert_eq!(stats.pages_read, 2);
        assert_eq!(pager.resident.lock().len(), 2);
    }
}
