//! The translation service (Figure 3, `INTERFACE Translation`).
//!
//! "The translation service is used to express the relationship between
//! virtual addresses and physical memory. This service interprets
//! references to both virtual and physical addresses, constructs mappings
//! between the two, and installs the mappings into the processor's MMU.
//! The translation service raises a set of events that correspond to
//! various exceptional MMU conditions" (§4.1):
//!
//! * `Translation.BadAddress` — access to an unallocated virtual address,
//! * `Translation.PageNotPresent` — access to an allocated, unmapped page,
//! * `Translation.ProtectionFault` — access forbidden by the protection.
//!
//! "Implementors of higher level memory management abstractions can use
//! these events to define services, such as demand paging \[or\]
//! copy-on-write" — see `spin_vm::pager` and `spin_vm::address_space`.

use crate::phys::{PhysError, PhysRegion};
use crate::virt::VirtRegion;
use spin_check::hooks::HookSlot;
use spin_check::sync::Mutex;
use spin_check::sync::{AtomicU64, Ordering};
use spin_core::{Dispatcher, Event, EventOwner, Identity};
use spin_obs::{ObsHook, TraceKind};
use spin_sal::{Access, ContextId, MmuFault, Pte};
use spin_sal::{Clock, FrameId, MachineProfile, Mmu, Protection, PAGE_SHIFT};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Information passed to fault handlers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultInfo {
    pub ctx: ContextId,
    pub va: u64,
    pub access: Access,
}

/// What a fault handler decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The handler repaired the mapping; retry the access.
    Resolved,
    /// The access is genuinely illegal; fail it.
    Fail,
}

/// Errors from the translation service and the access path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// No context with that id.
    NoSuchContext,
    /// Virtual and physical regions differ in page count.
    SizeMismatch { virt_pages: u64, phys_pages: usize },
    /// A capability was stale.
    Stale,
    /// The fault handlers failed (or declined) to resolve an access.
    Unresolved { info: FaultInfo, kind: FaultKind },
}

impl From<PhysError> for VmError {
    fn from(_: PhysError) -> Self {
        VmError::Stale
    }
}

/// Which exceptional condition a fault was classified as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    BadAddress,
    PageNotPresent,
    ProtectionFault,
}

/// The owner capability of one fault event.
type FaultOwner = EventOwner<FaultInfo, FaultAction>;

/// The three fault events, exported as a bundle.
#[derive(Clone)]
pub struct TranslationEvents {
    pub page_not_present: Event<FaultInfo, FaultAction>,
    pub bad_address: Event<FaultInfo, FaultAction>,
    pub protection_fault: Event<FaultInfo, FaultAction>,
}

struct CtxState {
    /// Virtual ranges registered (reserved or mapped) in this context;
    /// an access outside them is `BadAddress`.
    ranges: Vec<(u64, u64)>, // (base, end)
}

struct TransState {
    contexts: HashMap<ContextId, CtxState>,
    /// Reverse map: frame → mappings, used to invalidate on reclaim.
    rmap: BTreeMap<FrameId, BTreeSet<(ContextId, u64)>>,
}

/// The translation service for one host.
#[derive(Clone)]
pub struct TranslationService {
    mmu: Mmu,
    clock: Clock,
    profile: Arc<MachineProfile>,
    state: Arc<Mutex<TransState>>,
    events: TranslationEvents,
    /// Keeps the primary-implementation capabilities alive (and private).
    #[allow(dead_code)]
    owners: Arc<(FaultOwner, FaultOwner, FaultOwner)>,
    /// Observability hook (vm domain): absent until wired, and the fault
    /// path then pays one atomic load. Charges zero virtual time.
    obs: Arc<HookSlot<ObsHook>>,
    /// Faults delivered to handlers: the vm domain's `vm_faults` row.
    faults: Arc<AtomicU64>,
}

impl TranslationService {
    /// Creates the service over a host MMU and defines the fault events.
    // uncharged: service construction is control-plane.
    pub fn new(
        mmu: Mmu,
        clock: Clock,
        profile: Arc<MachineProfile>,
        dispatcher: &Dispatcher,
    ) -> TranslationService {
        let ident = Identity::kernel("Translation");
        let (pnp, pnp_o) = dispatcher
            .define::<FaultInfo, FaultAction>("Translation.PageNotPresent", ident.clone());
        let (bad, bad_o) =
            dispatcher.define::<FaultInfo, FaultAction>("Translation.BadAddress", ident.clone());
        let (prot, prot_o) =
            dispatcher.define::<FaultInfo, FaultAction>("Translation.ProtectionFault", ident);
        // Default implementations fail the access; extensions may install
        // handlers that resolve specific faults.
        pnp_o
            .set_primary(|_| FaultAction::Fail)
            .expect("fresh event");
        bad_o
            .set_primary(|_| FaultAction::Fail)
            .expect("fresh event");
        prot_o
            .set_primary(|_| FaultAction::Fail)
            .expect("fresh event");
        TranslationService {
            mmu,
            clock,
            profile,
            state: Arc::new(Mutex::new(TransState {
                contexts: HashMap::new(),
                rmap: BTreeMap::new(),
            })),
            events: TranslationEvents {
                page_not_present: pnp,
                bad_address: bad,
                protection_fault: prot,
            },
            owners: Arc::new((pnp_o, bad_o, prot_o)),
            obs: Arc::new(HookSlot::new()),
            faults: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The fault events (for extension handler installation).
    // uncharged: accessor.
    pub fn events(&self) -> &TranslationEvents {
        &self.events
    }

    /// Wires the observability subsystem: delivered faults are traced and
    /// counted to the vm domain. One-shot; charges zero virtual time.
    // uncharged: one-shot control-plane wiring.
    pub fn set_obs(&self, hook: ObsHook) {
        if self.obs.set(hook.clone()) {
            let book = self.faults.clone();
            hook.read(move |t| t.vm_faults += book.load(Ordering::Relaxed)); // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
        }
    }

    /// `Translation.Create`: a new addressing context.
    // charged: in the Mmu (pte_update per context creation).
    pub fn create(&self) -> ContextId {
        let id = self.mmu.create_context();
        self.state
            .lock()
            .contexts
            .insert(id, CtxState { ranges: Vec::new() });
        id
    }

    /// `Translation.Destroy`.
    // charged: in the Mmu (tlb_invalidate on context teardown).
    pub fn destroy(&self, ctx: ContextId) -> Result<(), VmError> {
        self.state
            .lock()
            .contexts
            .remove(&ctx)
            .ok_or(VmError::NoSuchContext)?;
        self.mmu
            .destroy_context(ctx)
            .map_err(|_| VmError::NoSuchContext)?;
        let mut st = self.state.lock();
        for set in st.rmap.values_mut() {
            set.retain(|&(c, _)| c != ctx);
        }
        Ok(())
    }

    /// Registers a virtual region with a context *without mapping it*, so
    /// accesses fault as `PageNotPresent` rather than `BadAddress` (the
    /// hook demand paging hangs off).
    // uncharged: bookkeeping only; the later fault/mapping operations carry the charges.
    pub fn reserve(&self, ctx: ContextId, virt: &Arc<VirtRegion>) -> Result<(), VmError> {
        if !virt.is_live() {
            return Err(VmError::Stale);
        }
        let mut st = self.state.lock();
        let c = st.contexts.get_mut(&ctx).ok_or(VmError::NoSuchContext)?;
        c.ranges.push((virt.base(), virt.end()));
        Ok(())
    }

    /// `Translation.AddMapping`: maps `virt` onto `phys` page-for-page with
    /// `prot` in `ctx`.
    // charged: in the Mmu (pte_update per installed page).
    pub fn add_mapping(
        &self,
        ctx: ContextId,
        virt: &Arc<VirtRegion>,
        phys: &Arc<PhysRegion>,
        prot: Protection,
    ) -> Result<(), VmError> {
        if !virt.is_live() {
            return Err(VmError::Stale);
        }
        let frames: Vec<FrameId> = phys.with_frames(|f| f.to_vec())?;
        if virt.pages() != frames.len() as u64 {
            return Err(VmError::SizeMismatch {
                virt_pages: virt.pages(),
                phys_pages: frames.len(),
            });
        }
        {
            let mut st = self.state.lock();
            let c = st.contexts.get_mut(&ctx).ok_or(VmError::NoSuchContext)?;
            if !c
                .ranges
                .iter()
                .any(|&(b, e)| b == virt.base() && e == virt.end())
            {
                c.ranges.push((virt.base(), virt.end()));
            }
            for (i, &frame) in frames.iter().enumerate() {
                st.rmap
                    .entry(frame)
                    .or_default()
                    .insert((ctx, virt.vpn(i as u64)));
            }
        }
        for (i, &frame) in frames.iter().enumerate() {
            self.mmu
                .install(ctx, virt.vpn(i as u64), frame, prot)
                .map_err(|_| VmError::NoSuchContext)?;
        }
        Ok(())
    }

    /// Maps a single page of a region (used by fault handlers).
    // charged: in the Mmu (pte_update for the installed page).
    pub fn map_page(
        &self,
        ctx: ContextId,
        vpn: u64,
        frame: FrameId,
        prot: Protection,
    ) -> Result<(), VmError> {
        self.state
            .lock()
            .rmap
            .entry(frame)
            .or_default()
            .insert((ctx, vpn));
        self.mmu
            .install(ctx, vpn, frame, prot)
            .map_err(|_| VmError::NoSuchContext)
    }

    /// `Translation.RemoveMapping` for a whole region.
    // charged: in the Mmu (pte_update + tlb_invalidate per removed page).
    pub fn remove_mapping(&self, ctx: ContextId, virt: &Arc<VirtRegion>) -> Result<(), VmError> {
        for i in 0..virt.pages() {
            let vpn = virt.vpn(i);
            if let Ok(Some(pte)) = self.mmu.remove(ctx, vpn) {
                let mut st = self.state.lock();
                if let Some(set) = st.rmap.get_mut(&pte.frame) {
                    set.remove(&(ctx, vpn));
                }
            }
        }
        Ok(())
    }

    /// `Translation.ExamineMapping`: the installed PTE for `va`, if any.
    /// This is the paper's `Dirty` query path (Table 4) — a direct service
    /// call that neither OSF/1 nor Mach can express.
    pub(crate) fn examine(&self, ctx: ContextId, va: u64) -> Result<Option<Pte>, VmError> {
        self.clock
            .advance(self.profile.inter_module_call + self.profile.pmap_op);
        self.mmu
            .examine(ctx, va >> PAGE_SHIFT)
            .map_err(|_| VmError::NoSuchContext)
    }

    /// Changes the protection of one page.
    pub fn protect_page(&self, ctx: ContextId, va: u64, prot: Protection) -> Result<(), VmError> {
        self.clock.advance(self.profile.pmap_op);
        self.mmu
            .protect(ctx, va >> PAGE_SHIFT, prot)
            .map_err(|e| match e {
                MmuFault::NoSuchContext(_) => VmError::NoSuchContext,
                _ => VmError::Unresolved {
                    info: FaultInfo {
                        ctx,
                        va,
                        access: Access::Read,
                    },
                    kind: FaultKind::PageNotPresent,
                },
            })
    }

    /// Changes the protection of a whole region.
    pub(crate) fn protect_region(
        &self,
        ctx: ContextId,
        virt: &Arc<VirtRegion>,
        prot: Protection,
    ) -> Result<(), VmError> {
        for i in 0..virt.pages() {
            self.protect_page(ctx, virt.base() + (i << PAGE_SHIFT), prot)?;
        }
        Ok(())
    }

    /// Invalidates every mapping of the frames in `phys` (the reclaim
    /// path: "the translation service ultimately invalidates any mappings
    /// to a reclaimed page").
    // charged: in the Mmu (pte_update + tlb_invalidate per invalidated mapping).
    pub fn invalidate_phys(&self, phys: &Arc<PhysRegion>) -> Result<usize, VmError> {
        // Raw access: the region may already have been reclaimed.
        let frames: Vec<FrameId> = phys.with_frames_raw(|f| f.to_vec());
        let mut invalidated = 0;
        for frame in frames {
            let mappings: Vec<(ContextId, u64)> = {
                let mut st = self.state.lock();
                st.rmap
                    .remove(&frame)
                    .map(|s| s.into_iter().collect())
                    .unwrap_or_default()
            };
            for (ctx, vpn) in mappings {
                let _ = self.mmu.remove(ctx, vpn);
                invalidated += 1;
            }
        }
        Ok(invalidated)
    }

    fn classify(&self, ctx: ContextId, va: u64, fault: MmuFault) -> FaultKind {
        match fault {
            MmuFault::Protection { .. } => FaultKind::ProtectionFault,
            MmuFault::NoSuchContext(_) => FaultKind::BadAddress,
            MmuFault::Miss { .. } => {
                let st = self.state.lock();
                let reserved = st
                    .contexts
                    .get(&ctx)
                    .map(|c| c.ranges.iter().any(|&(b, e)| va >= b && va < e))
                    .unwrap_or(false);
                if reserved {
                    FaultKind::PageNotPresent
                } else {
                    FaultKind::BadAddress
                }
            }
        }
    }

    /// The CPU access path: translates `va`, and on a fault charges the
    /// trap crossing, raises the corresponding event, and retries once if
    /// a handler resolved it.
    pub fn access(&self, ctx: ContextId, va: u64, access: Access) -> Result<FrameId, VmError> {
        for attempt in 0..2 {
            match self.mmu.translate(ctx, va, access) {
                Ok(frame) => return Ok(frame),
                Err(fault) => {
                    let kind = self.classify(ctx, va, fault);
                    let info = FaultInfo { ctx, va, access };
                    if attempt == 1 {
                        return Err(VmError::Unresolved { info, kind });
                    }
                    self.faults.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
                    if let Some(obs) = self.obs.get() {
                        obs.trace(TraceKind::VmFault, va, kind as u64);
                    }
                    // Enter the kernel trap path and dispatch to handlers.
                    self.clock
                        .advance(self.profile.trap_entry + self.profile.vm_fault_save);
                    let ev = match kind {
                        FaultKind::PageNotPresent => &self.events.page_not_present,
                        FaultKind::BadAddress => &self.events.bad_address,
                        FaultKind::ProtectionFault => &self.events.protection_fault,
                    };
                    let action = ev.raise(info).unwrap_or(FaultAction::Fail);
                    if action == FaultAction::Fail {
                        self.clock.advance(self.profile.trap_exit);
                        return Err(VmError::Unresolved { info, kind });
                    }
                    // Resume the faulting thread and retry the access.
                    self.clock
                        .advance(self.profile.context_switch + self.profile.trap_exit);
                }
            }
        }
        unreachable!("loop returns on both paths");
    }

    /// Reads guest memory through the access path.
    pub fn read(
        &self,
        ctx: ContextId,
        va: u64,
        buf: &mut [u8],
        mem: &spin_sal::PhysMem,
    ) -> Result<(), VmError> {
        let mut done = 0;
        while done < buf.len() {
            let addr = va + done as u64;
            let frame = self.access(ctx, addr, Access::Read)?;
            let off = spin_sal::page_offset(addr);
            let n = (spin_sal::PAGE_SIZE - off).min(buf.len() - done);
            mem.read(frame, off, &mut buf[done..done + n]);
            self.clock.advance(self.profile.copy(n));
            done += n;
        }
        Ok(())
    }

    /// Writes guest memory through the access path.
    pub fn write(
        &self,
        ctx: ContextId,
        va: u64,
        buf: &[u8],
        mem: &spin_sal::PhysMem,
    ) -> Result<(), VmError> {
        let mut done = 0;
        while done < buf.len() {
            let addr = va + done as u64;
            let frame = self.access(ctx, addr, Access::Write)?;
            let off = spin_sal::page_offset(addr);
            let n = (spin_sal::PAGE_SIZE - off).min(buf.len() - done);
            mem.write(frame, off, &buf[done..done + n]);
            self.clock.advance(self.profile.copy(n));
            done += n;
        }
        Ok(())
    }

    /// The underlying MMU (trusted services only).
    // uncharged: accessor.
    pub fn mmu(&self) -> &Mmu {
        &self.mmu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phys::{PhysAddrService, PhysAttrib};
    use crate::virt::VirtAddrService;
    use spin_sal::{PhysMem, SimBoard};

    struct Rig {
        trans: TranslationService,
        phys: PhysAddrService,
        virt: VirtAddrService,
        mem: PhysMem,
    }

    fn rig() -> Rig {
        let board = SimBoard::new();
        let host = board.new_host(64);
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
            mem: host.mem.clone(),
        }
    }

    #[test]
    fn map_read_write_round_trip() {
        let r = rig();
        let ctx = r.trans.create();
        let v = r.virt.allocate(2).unwrap();
        let p = r.phys.allocate(2, PhysAttrib::default()).unwrap();
        r.trans
            .add_mapping(ctx, &v, &p, Protection::READ_WRITE)
            .unwrap();
        r.trans
            .write(ctx, v.base() + 100, b"hello", &r.mem)
            .unwrap();
        let mut buf = [0u8; 5];
        r.trans.read(ctx, v.base() + 100, &mut buf, &r.mem).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn size_mismatch_is_rejected() {
        let r = rig();
        let ctx = r.trans.create();
        let v = r.virt.allocate(2).unwrap();
        let p = r.phys.allocate(3, PhysAttrib::default()).unwrap();
        assert!(matches!(
            r.trans.add_mapping(ctx, &v, &p, Protection::READ),
            Err(VmError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn unallocated_access_is_bad_address() {
        let r = rig();
        let ctx = r.trans.create();
        let err = r.trans.access(ctx, 0xDEAD_0000, Access::Read).unwrap_err();
        assert!(matches!(
            err,
            VmError::Unresolved {
                kind: FaultKind::BadAddress,
                ..
            }
        ));
    }

    #[test]
    fn reserved_but_unmapped_is_page_not_present() {
        let r = rig();
        let ctx = r.trans.create();
        let v = r.virt.allocate(1).unwrap();
        r.trans.reserve(ctx, &v).unwrap();
        let err = r.trans.access(ctx, v.base(), Access::Read).unwrap_err();
        assert!(matches!(
            err,
            VmError::Unresolved {
                kind: FaultKind::PageNotPresent,
                ..
            }
        ));
    }

    #[test]
    fn write_to_read_only_is_protection_fault() {
        let r = rig();
        let ctx = r.trans.create();
        let v = r.virt.allocate(1).unwrap();
        let p = r.phys.allocate(1, PhysAttrib::default()).unwrap();
        r.trans.add_mapping(ctx, &v, &p, Protection::READ).unwrap();
        let err = r.trans.access(ctx, v.base(), Access::Write).unwrap_err();
        assert!(matches!(
            err,
            VmError::Unresolved {
                kind: FaultKind::ProtectionFault,
                ..
            }
        ));
    }

    #[test]
    fn handler_can_resolve_a_fault() {
        let r = rig();
        let ctx = r.trans.create();
        let v = r.virt.allocate(1).unwrap();
        let p = r.phys.allocate(1, PhysAttrib::default()).unwrap();
        r.trans.add_mapping(ctx, &v, &p, Protection::READ).unwrap();
        // An extension that upgrades protection on write faults (the Appel
        // & Li pattern).
        let trans2 = r.trans.clone();
        r.trans
            .events()
            .protection_fault
            .install(Identity::extension("gc"), move |info: &FaultInfo| {
                trans2
                    .protect_page(info.ctx, info.va, Protection::READ_WRITE)
                    .unwrap();
                FaultAction::Resolved
            })
            .unwrap();
        assert!(r.trans.access(ctx, v.base(), Access::Write).is_ok());
    }

    #[test]
    fn dirty_query_via_examine() {
        let r = rig();
        let ctx = r.trans.create();
        let v = r.virt.allocate(1).unwrap();
        let p = r.phys.allocate(1, PhysAttrib::default()).unwrap();
        r.trans
            .add_mapping(ctx, &v, &p, Protection::READ_WRITE)
            .unwrap();
        assert!(!r.trans.examine(ctx, v.base()).unwrap().unwrap().dirty);
        r.trans.write(ctx, v.base(), &[1], &r.mem).unwrap();
        assert!(r.trans.examine(ctx, v.base()).unwrap().unwrap().dirty);
    }

    #[test]
    fn invalidate_phys_removes_all_mappings() {
        let r = rig();
        let ctx_a = r.trans.create();
        let ctx_b = r.trans.create();
        let v_a = r.virt.allocate(1).unwrap();
        let v_b = r.virt.allocate(1).unwrap();
        let p = r.phys.allocate(1, PhysAttrib::default()).unwrap();
        r.trans
            .add_mapping(ctx_a, &v_a, &p, Protection::READ)
            .unwrap();
        r.trans
            .add_mapping(ctx_b, &v_b, &p, Protection::READ)
            .unwrap();
        assert!(r.trans.access(ctx_a, v_a.base(), Access::Read).is_ok());
        let n = r.trans.invalidate_phys(&p).unwrap();
        assert_eq!(n, 2);
        assert!(r.trans.access(ctx_a, v_a.base(), Access::Read).is_err());
        assert!(r.trans.access(ctx_b, v_b.base(), Access::Read).is_err());
    }

    #[test]
    fn destroyed_context_rejects_operations() {
        let r = rig();
        let ctx = r.trans.create();
        r.trans.destroy(ctx).unwrap();
        assert!(matches!(r.trans.destroy(ctx), Err(VmError::NoSuchContext)));
        let v = r.virt.allocate(1).unwrap();
        assert!(matches!(
            r.trans.reserve(ctx, &v),
            Err(VmError::NoSuchContext)
        ));
    }
}
