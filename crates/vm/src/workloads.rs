//! The Table 4 virtual-memory workloads (Appel & Li), SPIN paths.
//!
//! "Table 4 shows the time to execute several commonly referenced virtual
//! memory benchmarks" (§5.2):
//!
//! * **Dirty** — query the status of a virtual page (an interface neither
//!   DEC OSF/1 nor Mach provides);
//! * **Trap** — latency between a page fault and the handler executing;
//! * **Fault** — perceived latency of a faulting access: reflect the
//!   fault, enable access in the handler, resume the faulting thread;
//! * **Prot1 / Prot100 / Unprot100** — protection changes over 1 and 100
//!   pages;
//! * **Appel1** — fault on a protected page, resolve it in the handler and
//!   protect another page;
//! * **Appel2** — protect 100 pages, fault on each, resolving in the
//!   handler (reported per page).
//!
//! "SPIN uses kernel extensions to define application-specific system
//! calls for virtual memory management" — each workload here enters
//! through the system-call trap path and runs the extension in the kernel.

use crate::phys::{PhysAddrService, PhysAttrib, PhysRegion};
use crate::translation::{FaultAction, FaultInfo, TranslationService};
use crate::virt::{VirtAddrService, VirtRegion};
use spin_check::sync::Mutex;
use spin_core::{Dispatcher, Identity};
use spin_sal::{Access, ContextId};
use spin_sal::{Clock, MachineProfile, Nanos, PhysMem, Protection, SimBoard, PAGE_SHIFT};
use std::sync::Arc;

/// A rigged kernel with a 100-page application region, for the Table 4
/// measurements.
pub struct VmWorkbench {
    pub clock: Clock,
    pub profile: Arc<MachineProfile>,
    pub trans: TranslationService,
    pub phys: PhysAddrService,
    pub virt: VirtAddrService,
    pub mem: PhysMem,
    pub ctx: ContextId,
    pub region: Arc<VirtRegion>,
    #[allow(dead_code)]
    backing: Arc<PhysRegion>,
}

/// Pages in the benchmark region (the paper uses 100).
const BENCH_PAGES: u64 = 100;

impl Default for VmWorkbench {
    fn default() -> Self {
        Self::new()
    }
}

impl VmWorkbench {
    /// Builds the workbench: one context with 100 pages mapped read-write.
    pub fn new() -> VmWorkbench {
        let board = SimBoard::new();
        let host = board.new_host(256);
        let disp = Dispatcher::new(board.clock.clone(), board.profile.clone());
        let trans = TranslationService::new(
            host.mmu.clone(),
            board.clock.clone(),
            board.profile.clone(),
            &disp,
        );
        let phys = PhysAddrService::new(host.mem.clone(), &disp);
        let virt = VirtAddrService::new();
        let ctx = trans.create();
        let region = virt.allocate(BENCH_PAGES).unwrap();
        let backing = phys
            .allocate(BENCH_PAGES as usize, PhysAttrib::default())
            .unwrap();
        trans
            .add_mapping(ctx, &region, &backing, Protection::READ_WRITE)
            .unwrap();
        VmWorkbench {
            clock: board.clock.clone(),
            profile: board.profile.clone(),
            trans,
            phys,
            virt,
            mem: host.mem.clone(),
            ctx,
            region,
            backing,
        }
    }

    fn page(&self, i: u64) -> u64 {
        self.region.base() + (i << PAGE_SHIFT)
    }

    /// The application-specific system-call crossing (user → extension).
    fn syscall_crossing(&self) {
        let p = &self.profile;
        self.clock.advance(
            p.trap_entry
                + p.event_raise_base
                + p.guard_eval
                + p.handler_invoke
                + p.inter_module_call,
        );
    }

    fn syscall_return(&self) {
        self.clock.advance(self.profile.trap_exit);
    }

    /// Per-call VM service entry work (capability and region validation).
    fn vm_entry(&self) {
        self.clock.advance(self.profile.vm_call_fixed);
    }

    /// **Dirty**: query the dirty state of a page from an extension.
    pub fn dirty_ns(&self) -> Nanos {
        let t0 = self.clock.now();
        let _ = self.trans.examine(self.ctx, self.page(0)).unwrap();
        self.clock.now() - t0
    }

    /// **Trap**: fault-to-handler latency.
    pub fn trap_ns(&self) -> Nanos {
        self.trans
            .protect_page(self.ctx, self.page(1), Protection::NONE)
            .unwrap();
        let entered = Arc::new(Mutex::new(0u64));
        let (e2, clock2) = (entered.clone(), self.clock.clone());
        let profile2 = self.profile.clone();
        let trans2 = self.trans.clone();
        let va = self.page(1);
        let id = self
            .trans
            .events()
            .protection_fault
            .install_guarded(
                Identity::extension("trapbench"),
                move |i: &FaultInfo| i.va == va,
                move |i: &FaultInfo| {
                    *e2.lock() = clock2.now();
                    clock2.advance(profile2.vm_call_fixed);
                    trans2
                        .protect_page(i.ctx, i.va, Protection::READ_WRITE)
                        .unwrap();
                    FaultAction::Resolved
                },
            )
            .unwrap();
        let t0 = self.clock.now();
        self.trans.access(self.ctx, va, Access::Read).unwrap();
        let _ = id;
        let handler_at = *entered.lock();
        handler_at - t0
    }

    /// **Fault**: full perceived fault latency (resolve + resume).
    pub fn fault_ns(&self) -> Nanos {
        let va = self.page(2);
        self.trans
            .protect_page(self.ctx, va, Protection::NONE)
            .unwrap();
        let trans2 = self.trans.clone();
        let (clock2, profile2) = (self.clock.clone(), self.profile.clone());
        self.trans
            .events()
            .protection_fault
            .install_guarded(
                Identity::extension("faultbench"),
                move |i: &FaultInfo| i.va == va,
                move |i: &FaultInfo| {
                    clock2.advance(profile2.vm_call_fixed);
                    trans2
                        .protect_page(i.ctx, i.va, Protection::READ_WRITE)
                        .unwrap();
                    FaultAction::Resolved
                },
            )
            .unwrap();
        let t0 = self.clock.now();
        self.trans.access(self.ctx, va, Access::Read).unwrap();
        self.clock.now() - t0
    }

    /// **Prot1**: one protection increase through the app-specific syscall.
    pub fn prot1_ns(&self) -> Nanos {
        let t0 = self.clock.now();
        self.syscall_crossing();
        self.vm_entry();
        self.trans
            .protect_page(self.ctx, self.page(3), Protection::READ)
            .unwrap();
        self.syscall_return();
        self.clock.now() - t0
    }

    /// **Prot100**: protect 100 pages in one call.
    pub fn prot100_ns(&self) -> Nanos {
        let t0 = self.clock.now();
        self.syscall_crossing();
        self.vm_entry();
        for i in 0..BENCH_PAGES {
            self.trans
                .protect_page(self.ctx, self.page(i), Protection::READ)
                .unwrap();
        }
        self.syscall_return();
        self.clock.now() - t0
    }

    /// **Unprot100**: restore 100 pages to read-write in one call. "SPIN's
    /// extension does not lazily evaluate the request, but enables the
    /// access as requested" — so it costs the same as Prot100.
    pub fn unprot100_ns(&self) -> Nanos {
        let t0 = self.clock.now();
        self.syscall_crossing();
        self.vm_entry();
        for i in 0..BENCH_PAGES {
            self.trans
                .protect_page(self.ctx, self.page(i), Protection::READ_WRITE)
                .unwrap();
        }
        self.syscall_return();
        self.clock.now() - t0
    }

    /// **Appel1**: fault on a protected page; in the handler, resolve it
    /// and protect another page.
    pub fn appel1_ns(&self) -> Nanos {
        let va = self.page(10);
        let other = self.page(11);
        self.trans
            .protect_page(self.ctx, va, Protection::NONE)
            .unwrap();
        let trans2 = self.trans.clone();
        let (clock2, profile2) = (self.clock.clone(), self.profile.clone());
        self.trans
            .events()
            .protection_fault
            .install_guarded(
                Identity::extension("appel1"),
                move |i: &FaultInfo| i.va == va,
                move |i: &FaultInfo| {
                    clock2.advance(2 * profile2.vm_call_fixed);
                    trans2
                        .protect_page(i.ctx, i.va, Protection::READ_WRITE)
                        .unwrap();
                    trans2.protect_page(i.ctx, other, Protection::NONE).unwrap();
                    FaultAction::Resolved
                },
            )
            .unwrap();
        let t0 = self.clock.now();
        self.trans.access(self.ctx, va, Access::Write).unwrap();
        self.clock.now() - t0
    }

    /// **Appel2**: protect 100 pages, fault on each, resolving in the
    /// handler. Returns the average cost **per page**.
    pub fn appel2_ns(&self) -> Nanos {
        let base = self.region.base();
        let end = base + (BENCH_PAGES << PAGE_SHIFT);
        let trans2 = self.trans.clone();
        let (clock2, profile2) = (self.clock.clone(), self.profile.clone());
        self.trans
            .events()
            .protection_fault
            .install_guarded(
                Identity::extension("appel2"),
                move |i: &FaultInfo| i.va >= base && i.va < end,
                move |i: &FaultInfo| {
                    clock2.advance(profile2.vm_call_fixed);
                    trans2
                        .protect_page(i.ctx, i.va, Protection::READ_WRITE)
                        .unwrap();
                    FaultAction::Resolved
                },
            )
            .unwrap();
        let t0 = self.clock.now();
        self.syscall_crossing();
        self.vm_entry();
        for i in 0..BENCH_PAGES {
            self.trans
                .protect_page(self.ctx, self.page(i), Protection::NONE)
                .unwrap();
        }
        self.syscall_return();
        for i in 0..BENCH_PAGES {
            self.trans
                .access(self.ctx, self.page(i), Access::Write)
                .unwrap();
        }
        (self.clock.now() - t0) / BENCH_PAGES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirty_is_cheapest_of_all() {
        let w = VmWorkbench::new();
        let dirty = w.dirty_ns();
        assert!(dirty < 3_000, "Dirty = {dirty} ns, paper says 2 µs");
    }

    #[test]
    fn trap_is_less_than_fault() {
        let w = VmWorkbench::new();
        let trap = w.trap_ns();
        let w2 = VmWorkbench::new();
        let fault = w2.fault_ns();
        assert!(trap < fault, "trap {trap} must undercut fault {fault}");
        // Paper: Trap 7 µs, Fault 29 µs; we assert the band loosely.
        assert!((1_000..15_000).contains(&trap), "Trap = {trap} ns");
        assert!((3_000..40_000).contains(&fault), "Fault = {fault} ns");
    }

    #[test]
    fn prot100_scales_roughly_linearly() {
        let w = VmWorkbench::new();
        let p1 = w.prot1_ns();
        let p100 = w.prot100_ns();
        assert!(p100 > 10 * p1, "Prot100 {p100} vs Prot1 {p1}");
        assert!(p100 < 200 * p1);
    }

    #[test]
    fn unprot100_equals_prot100_no_lazy_evaluation() {
        let w = VmWorkbench::new();
        let p = w.prot100_ns();
        let u = w.unprot100_ns();
        let ratio = p as f64 / u as f64;
        assert!((0.9..1.1).contains(&ratio), "Prot100 {p} vs Unprot100 {u}");
    }

    #[test]
    fn appel1_costs_more_than_a_plain_fault() {
        let w = VmWorkbench::new();
        let fault = w.fault_ns();
        let w2 = VmWorkbench::new();
        let appel1 = w2.appel1_ns();
        assert!(appel1 >= fault, "Appel1 {appel1} vs Fault {fault}");
    }

    #[test]
    fn appel2_per_page_is_fault_scale() {
        let w = VmWorkbench::new();
        let per_page = w.appel2_ns();
        assert!(
            (3_000..40_000).contains(&per_page),
            "Appel2 = {per_page} ns/page"
        );
    }
}
