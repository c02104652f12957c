//! UNIX address-space semantics as a kernel extension.
//!
//! "The SPIN core services do not define an address space model directly
//! ... we have built an extension that implements UNIX address space
//! semantics for applications. It exports an interface for copying an
//! existing address space, and for allocating additional memory within
//! one. For each new address space, the extension allocates a new context
//! from the translation service. This context is subsequently filled in
//! with virtual and physical address resources obtained from the memory
//! allocation services" (§4.1).
//!
//! Copying uses copy-on-write, built — exactly as §4.1 suggests — on the
//! `Translation.ProtectionFault` event: `copy` downgrades writable pages
//! to read-only in both spaces, and the extension's fault handler gives
//! the writer a private copy.

use crate::phys::{PhysAddrService, PhysAttrib, PhysRegion};
use crate::translation::{FaultAction, FaultInfo, TranslationService, VmError};
use crate::virt::{VirtAddrService, VirtRegion};
use spin_check::sync::Mutex;
use spin_core::Identity;
use spin_sal::ContextId;
use spin_sal::{PhysMem, Protection, PAGE_SHIFT};
use std::collections::HashMap;
use std::sync::Arc;

struct Segment {
    virt: Arc<VirtRegion>,
    phys: Arc<PhysRegion>,
    prot: Protection,
}

/// One UNIX address space.
pub struct UnixAddressSpace {
    ctx: ContextId,
    segments: Mutex<Vec<Segment>>,
}

/// A copy-on-write share: one frame referenced by several spaces.
struct CowShare {
    frame: spin_sal::FrameId,
    sharers: u32,
}

/// The UNIX address-space extension.
/// Copy-on-write shares keyed by (context, virtual page).
type CowMap = HashMap<(ContextId, u64), Arc<Mutex<CowShare>>>;

#[derive(Clone)]
pub struct UnixAsExtension {
    trans: TranslationService,
    phys: PhysAddrService,
    virt: VirtAddrService,
    mem: PhysMem,
    cow: Arc<Mutex<CowMap>>,
    /// Copies made by fault handlers, kept live by the extension.
    private_pages: Arc<Mutex<Vec<Arc<PhysRegion>>>>,
}

impl UnixAsExtension {
    /// Installs the extension: composes the three core services and hooks
    /// `Translation.ProtectionFault` for copy-on-write.
    pub fn install(
        trans: TranslationService,
        phys: PhysAddrService,
        virt: VirtAddrService,
        mem: PhysMem,
    ) -> UnixAsExtension {
        let ext = UnixAsExtension {
            trans: trans.clone(),
            phys,
            virt,
            mem,
            cow: Arc::new(Mutex::new(HashMap::new())),
            private_pages: Arc::new(Mutex::new(Vec::new())),
        };
        let ext2 = ext.clone();
        let cow2 = ext.cow.clone();
        trans
            .events()
            .protection_fault
            .install_guarded(
                Identity::extension("UnixAS"),
                move |info: &FaultInfo| {
                    cow2.lock().contains_key(&(info.ctx, info.va >> PAGE_SHIFT))
                },
                move |info: &FaultInfo| match ext2.resolve_cow(info) {
                    Ok(()) => FaultAction::Resolved,
                    Err(_) => FaultAction::Fail,
                },
            )
            .expect("install COW handler");
        ext
    }

    /// Creates an empty address space.
    pub fn create(&self) -> Arc<UnixAddressSpace> {
        Arc::new(UnixAddressSpace {
            ctx: self.trans.create(),
            segments: Mutex::new(Vec::new()),
        })
    }

    /// Allocates `pages` of zeroed memory in `space` (the `brk`/`mmap`
    /// analogue). Returns the base virtual address.
    pub fn allocate(
        &self,
        space: &UnixAddressSpace,
        pages: u64,
        prot: Protection,
    ) -> Result<u64, VmError> {
        let virt = self.virt.allocate(pages).map_err(|_| VmError::Stale)?;
        let phys = self
            .phys
            .allocate(pages as usize, PhysAttrib::default())
            .map_err(|_| VmError::Stale)?;
        self.trans.add_mapping(space.ctx, &virt, &phys, prot)?;
        let base = virt.base();
        space.segments.lock().push(Segment { virt, phys, prot });
        Ok(base)
    }

    /// Copies `parent` into a new space with copy-on-write sharing (the
    /// `fork` analogue).
    pub fn copy(&self, parent: &UnixAddressSpace) -> Result<Arc<UnixAddressSpace>, VmError> {
        let child = self.create();
        let parent_segments = parent.segments.lock();
        let mut child_segments = child.segments.lock();
        for seg in parent_segments.iter() {
            // The child maps the same frames at the same addresses.
            self.trans
                .add_mapping(child.ctx, &seg.virt, &seg.phys, seg.prot)?;
            if seg.prot.write {
                // Downgrade both sides and register the shares. If the
                // parent's page is itself still COW-shared (a chained
                // fork), the child joins the *existing* share — a fresh
                // share here would let the last writer reclaim the frame
                // in place while an older generation still maps it.
                for i in 0..seg.virt.pages() {
                    let va = seg.virt.base() + (i << PAGE_SHIFT);
                    let vpn = seg.virt.vpn(i);
                    let frame = seg.phys.with_frames(|f| f[i as usize])?;
                    self.trans.protect_page(parent.ctx, va, Protection::READ)?;
                    self.trans.protect_page(child.ctx, va, Protection::READ)?;
                    let mut cow = self.cow.lock();
                    match cow.get(&(parent.ctx, vpn)).cloned() {
                        Some(existing) => {
                            existing.lock().sharers += 1;
                            cow.insert((child.ctx, vpn), existing);
                        }
                        None => {
                            let share = Arc::new(Mutex::new(CowShare { frame, sharers: 2 }));
                            cow.insert((parent.ctx, vpn), share.clone());
                            cow.insert((child.ctx, vpn), share);
                        }
                    }
                }
            }
            child_segments.push(Segment {
                virt: seg.virt.clone(),
                phys: seg.phys.clone(),
                prot: seg.prot,
            });
        }
        drop(child_segments);
        Ok(child)
    }

    /// Resolves a copy-on-write fault: the last sharer reclaims the frame
    /// in place; earlier writers get a private copy.
    fn resolve_cow(&self, info: &FaultInfo) -> Result<(), VmError> {
        let vpn = info.va >> PAGE_SHIFT;
        let share = {
            let cow = self.cow.lock();
            match cow.get(&(info.ctx, vpn)) {
                Some(s) => s.clone(),
                None => return Err(VmError::Stale),
            }
        };
        let mut sh = share.lock();
        if sh.sharers <= 1 {
            // Sole owner now: upgrade in place.
            self.trans
                .protect_page(info.ctx, info.va, Protection::READ_WRITE)?;
            self.cow.lock().remove(&(info.ctx, vpn));
            return Ok(());
        }
        // Copy the page for this writer.
        let new_phys = self
            .phys
            .allocate(1, PhysAttrib::default())
            .map_err(|_| VmError::Stale)?;
        let new_frame = new_phys.with_frames(|f| f[0])?;
        self.mem.copy_frame(sh.frame, new_frame);
        self.trans
            .map_page(info.ctx, vpn, new_frame, Protection::READ_WRITE)?;
        sh.sharers -= 1;
        self.cow.lock().remove(&(info.ctx, vpn));
        self.private_pages.lock().push(new_phys);
        Ok(())
    }

    /// Writes into a space through the fault path.
    pub fn write(&self, space: &UnixAddressSpace, va: u64, data: &[u8]) -> Result<(), VmError> {
        self.trans.write(space.ctx, va, data, &self.mem)
    }

    /// Reads from a space through the fault path.
    pub fn read(&self, space: &UnixAddressSpace, va: u64, buf: &mut [u8]) -> Result<(), VmError> {
        self.trans.read(space.ctx, va, buf, &self.mem)
    }

    /// Pending copy-on-write shares (diagnostics).
    pub fn cow_pending(&self) -> usize {
        self.cow.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spin_core::Dispatcher;
    use spin_sal::SimBoard;

    fn ext() -> UnixAsExtension {
        let board = SimBoard::new();
        let host = board.new_host(128);
        let disp = Dispatcher::new(board.clock.clone(), board.profile.clone());
        UnixAsExtension::install(
            TranslationService::new(
                host.mmu.clone(),
                board.clock.clone(),
                board.profile.clone(),
                &disp,
            ),
            PhysAddrService::new(host.mem.clone(), &disp),
            VirtAddrService::new(),
            host.mem.clone(),
        )
    }

    #[test]
    fn allocate_and_use_memory() {
        let e = ext();
        let space = e.create();
        let base = e.allocate(&space, 2, Protection::READ_WRITE).unwrap();
        e.write(&space, base + 10, b"unix").unwrap();
        let mut buf = [0u8; 4];
        e.read(&space, base + 10, &mut buf).unwrap();
        assert_eq!(&buf, b"unix");
    }

    #[test]
    fn copied_space_sees_parent_data() {
        let e = ext();
        let parent = e.create();
        let base = e.allocate(&parent, 1, Protection::READ_WRITE).unwrap();
        e.write(&parent, base, b"shared").unwrap();
        let child = e.copy(&parent).unwrap();
        let mut buf = [0u8; 6];
        e.read(&child, base, &mut buf).unwrap();
        assert_eq!(&buf, b"shared");
    }

    #[test]
    fn cow_isolates_writes_between_parent_and_child() {
        let e = ext();
        let parent = e.create();
        let base = e.allocate(&parent, 1, Protection::READ_WRITE).unwrap();
        e.write(&parent, base, b"original").unwrap();
        let child = e.copy(&parent).unwrap();
        assert_eq!(e.cow_pending(), 2);

        // Child writes: gets a private copy.
        e.write(&child, base, b"child!!!").unwrap();
        let mut buf = [0u8; 8];
        e.read(&parent, base, &mut buf).unwrap();
        assert_eq!(&buf, b"original", "parent must not see the child's write");
        e.read(&child, base, &mut buf).unwrap();
        assert_eq!(&buf, b"child!!!");

        // Parent writes: now the sole sharer, upgraded in place.
        e.write(&parent, base, b"parent!!").unwrap();
        e.read(&parent, base, &mut buf).unwrap();
        assert_eq!(&buf, b"parent!!");
        assert_eq!(e.cow_pending(), 0, "all shares resolved");
    }

    #[test]
    fn read_only_segments_are_shared_without_cow() {
        let e = ext();
        let parent = e.create();
        let _ = e.allocate(&parent, 1, Protection::READ).unwrap();
        let _child = e.copy(&parent).unwrap();
        assert_eq!(e.cow_pending(), 0, "read-only segments need no COW");
    }

    #[test]
    fn spaces_are_isolated() {
        let e = ext();
        let a = e.create();
        let b = e.create();
        let base = e.allocate(&a, 1, Protection::READ_WRITE).unwrap();
        let mut buf = [0u8; 1];
        assert!(
            e.read(&b, base, &mut buf).is_err(),
            "b never mapped this address"
        );
    }
}
