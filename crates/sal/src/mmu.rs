//! The simulated memory-management unit: addressing contexts, page tables,
//! protection bits and a TLB.
//!
//! This is the hardware that the `Translation` service in `spin-vm` drives.
//! The sal interface matches the paper's description — "install a page table
//! entry" — and every operation charges the machine profile for PTE updates,
//! TLB fills and invalidations.

use crate::clock::Clock;
use crate::cost::MachineProfile;
use crate::mem::FrameId;
use crate::PAGE_SHIFT;
use spin_check::sync::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Identifier of an addressing context (an address-space number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContextId(pub u32);

/// Page protection bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Protection {
    pub read: bool,
    pub write: bool,
    pub execute: bool,
}

impl Protection {
    /// No access at all (the page is mapped but unreadable).
    pub const NONE: Protection = Protection {
        read: false,
        write: false,
        execute: false,
    };
    /// Read-only access.
    pub const READ: Protection = Protection {
        read: true,
        write: false,
        execute: false,
    };
    /// Read and write access.
    pub const READ_WRITE: Protection = Protection {
        read: true,
        write: true,
        execute: false,
    };
    /// Full access.
    pub const ALL: Protection = Protection {
        read: true,
        write: true,
        execute: true,
    };

    /// Whether these bits permit the given access.
    #[inline]
    fn allows(self, access: Access) -> bool {
        match access {
            Access::Read => self.read,
            Access::Write => self.write,
            Access::Execute => self.execute,
        }
    }
}

/// The kind of memory access being translated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    Read,
    Write,
    Execute,
}

/// A fault reported by the MMU during translation.
///
/// The MMU cannot distinguish "allocated but unmapped" from "never
/// allocated"; both surface as [`MmuFault::Miss`]. The `Translation` service
/// in `spin-vm` consults the `VirtAddr` service to turn a miss into either
/// `PageNotPresent` or `BadAddress`, as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmuFault {
    /// The addressing context does not exist.
    NoSuchContext(ContextId),
    /// No translation for this virtual page.
    Miss {
        ctx: ContextId,
        vpn: u64,
        access: Access,
    },
    /// A translation exists but forbids the access.
    Protection {
        ctx: ContextId,
        vpn: u64,
        access: Access,
        have: Protection,
    },
}

/// One page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    pub frame: FrameId,
    pub prot: Protection,
    /// Set by the MMU on any successful write translation; the basis of the
    /// paper's `Dirty` query (Table 4), which OSF/1 and Mach cannot express.
    pub dirty: bool,
    /// Set by the MMU on any successful translation.
    pub referenced: bool,
}

/// A per-context page table (single flat level; the shape of the table is
/// not observable through the sal interface).
#[derive(Debug, Default, Clone)]
struct PageTable {
    entries: HashMap<u64, Pte>,
}

const TLB_SLOTS: usize = 64;

/// A direct-mapped translation lookaside buffer.
///
/// 64 slots indexed by virtual page number; each slot remembers the
/// addressing context it was filled for. `spin-bench` reproduces the TLB
/// fill cost of fault paths through this cache.
#[derive(Debug)]
struct Tlb {
    slots: Vec<Option<(ContextId, u64, Pte)>>,
}

impl Default for Tlb {
    fn default() -> Self {
        Tlb {
            slots: vec![None; TLB_SLOTS],
        }
    }
}

impl Tlb {
    fn slot(vpn: u64) -> usize {
        (vpn as usize) % TLB_SLOTS
    }

    fn lookup(&mut self, ctx: ContextId, vpn: u64) -> Option<Pte> {
        match self.slots[Self::slot(vpn)] {
            Some((c, v, pte)) if c == ctx && v == vpn => Some(pte),
            _ => None,
        }
    }

    fn fill(&mut self, ctx: ContextId, vpn: u64, pte: Pte) {
        self.slots[Self::slot(vpn)] = Some((ctx, vpn, pte));
    }

    fn invalidate(&mut self, ctx: ContextId, vpn: u64) {
        if let Some((c, v, _)) = self.slots[Self::slot(vpn)] {
            if c == ctx && v == vpn {
                self.slots[Self::slot(vpn)] = None;
            }
        }
    }

    fn invalidate_context(&mut self, ctx: ContextId) {
        for s in &mut self.slots {
            if matches!(s, Some((c, _, _)) if *c == ctx) {
                *s = None;
            }
        }
    }
}

struct MmuState {
    contexts: HashMap<ContextId, PageTable>,
    tlb: Tlb,
    next_ctx: u32,
}

/// The simulated MMU for one host.
///
/// Clones share state. All mutating operations charge the machine profile
/// through the shared clock.
#[derive(Clone)]
pub struct Mmu {
    state: Arc<Mutex<MmuState>>,
    clock: Clock,
    profile: Arc<MachineProfile>,
}

impl Mmu {
    /// Creates an MMU with no addressing contexts.
    pub(crate) fn new(clock: Clock, profile: Arc<MachineProfile>) -> Self {
        Mmu {
            state: Arc::new(Mutex::new(MmuState {
                contexts: HashMap::new(),
                tlb: Tlb::default(),
                next_ctx: 1,
            })),
            clock,
            profile,
        }
    }

    /// Creates a fresh addressing context.
    pub fn create_context(&self) -> ContextId {
        let mut st = self.state.lock();
        let id = ContextId(st.next_ctx);
        st.next_ctx += 1;
        st.contexts.insert(id, PageTable::default());
        self.clock.advance(self.profile.pte_update);
        id
    }

    /// Destroys a context, dropping all of its translations.
    pub fn destroy_context(&self, ctx: ContextId) -> Result<(), MmuFault> {
        let mut st = self.state.lock();
        st.contexts
            .remove(&ctx)
            .ok_or(MmuFault::NoSuchContext(ctx))?;
        st.tlb.invalidate_context(ctx);
        self.clock.advance(self.profile.tlb_invalidate);
        Ok(())
    }

    /// Installs (or replaces) the translation for `vpn`.
    pub fn install(
        &self,
        ctx: ContextId,
        vpn: u64,
        frame: FrameId,
        prot: Protection,
    ) -> Result<(), MmuFault> {
        let mut st = self.state.lock();
        let table = st
            .contexts
            .get_mut(&ctx)
            .ok_or(MmuFault::NoSuchContext(ctx))?;
        table.entries.insert(
            vpn,
            Pte {
                frame,
                prot,
                dirty: false,
                referenced: false,
            },
        );
        st.tlb.invalidate(ctx, vpn);
        self.clock.advance(self.profile.pte_update);
        Ok(())
    }

    /// Removes the translation for `vpn`. Returns the old entry if present.
    pub fn remove(&self, ctx: ContextId, vpn: u64) -> Result<Option<Pte>, MmuFault> {
        let mut st = self.state.lock();
        let table = st
            .contexts
            .get_mut(&ctx)
            .ok_or(MmuFault::NoSuchContext(ctx))?;
        let old = table.entries.remove(&vpn);
        st.tlb.invalidate(ctx, vpn);
        self.clock
            .advance(self.profile.pte_update + self.profile.tlb_invalidate);
        Ok(old)
    }

    /// Changes the protection on an existing translation.
    pub fn protect(&self, ctx: ContextId, vpn: u64, prot: Protection) -> Result<(), MmuFault> {
        let mut st = self.state.lock();
        let table = st
            .contexts
            .get_mut(&ctx)
            .ok_or(MmuFault::NoSuchContext(ctx))?;
        match table.entries.get_mut(&vpn) {
            Some(pte) => {
                pte.prot = prot;
                st.tlb.invalidate(ctx, vpn);
                self.clock
                    .advance(self.profile.pte_update + self.profile.tlb_invalidate);
                Ok(())
            }
            None => Err(MmuFault::Miss {
                ctx,
                vpn,
                access: Access::Read,
            }),
        }
    }

    /// Reads the page-table entry for `vpn` without charging translation
    /// costs (the paper's `Dirty`/`ExamineMapping` query path).
    pub fn examine(&self, ctx: ContextId, vpn: u64) -> Result<Option<Pte>, MmuFault> {
        let st = self.state.lock();
        let table = st.contexts.get(&ctx).ok_or(MmuFault::NoSuchContext(ctx))?;
        Ok(table.entries.get(&vpn).copied())
    }

    /// Translates a virtual address for `access`, updating TLB and
    /// referenced/dirty bits, and returns the physical frame.
    pub fn translate(&self, ctx: ContextId, va: u64, access: Access) -> Result<FrameId, MmuFault> {
        let vpn = va >> PAGE_SHIFT;
        let mut st = self.state.lock();
        if !st.contexts.contains_key(&ctx) {
            return Err(MmuFault::NoSuchContext(ctx));
        }
        // TLB first.
        if let Some(pte) = st.tlb.lookup(ctx, vpn) {
            if pte.prot.allows(access) {
                if access == Access::Write {
                    // Keep the page table's dirty bit authoritative.
                    let table = st.contexts.get_mut(&ctx).expect("checked above");
                    if let Some(e) = table.entries.get_mut(&vpn) {
                        e.dirty = true;
                    }
                }
                return Ok(pte.frame);
            }
            return Err(MmuFault::Protection {
                ctx,
                vpn,
                access,
                have: pte.prot,
            });
        }
        // TLB miss: walk the table and charge the fill.
        self.clock.advance(self.profile.tlb_fill);
        let table = st.contexts.get_mut(&ctx).expect("checked above");
        match table.entries.get_mut(&vpn) {
            Some(pte) => {
                pte.referenced = true;
                if !pte.prot.allows(access) {
                    return Err(MmuFault::Protection {
                        ctx,
                        vpn,
                        access,
                        have: pte.prot,
                    });
                }
                if access == Access::Write {
                    pte.dirty = true;
                }
                let snapshot = *pte;
                st.tlb.fill(ctx, vpn, snapshot);
                Ok(snapshot.frame)
            }
            None => Err(MmuFault::Miss { ctx, vpn, access }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mmu() -> Mmu {
        Mmu::new(Clock::new(), Arc::new(MachineProfile::alpha_axp_3000_400()))
    }

    #[test]
    fn translate_unmapped_is_miss() {
        let m = mmu();
        let ctx = m.create_context();
        assert_eq!(
            m.translate(ctx, 0x4000, Access::Read),
            Err(MmuFault::Miss {
                ctx,
                vpn: 0x4000 >> PAGE_SHIFT,
                access: Access::Read
            })
        );
    }

    #[test]
    fn install_translate_remove() {
        let m = mmu();
        let ctx = m.create_context();
        m.install(ctx, 5, FrameId(9), Protection::READ_WRITE)
            .unwrap();
        let va = 5 << PAGE_SHIFT;
        assert_eq!(m.translate(ctx, va, Access::Read), Ok(FrameId(9)));
        assert_eq!(m.translate(ctx, va + 100, Access::Write), Ok(FrameId(9)));
        let old = m.remove(ctx, 5).unwrap().unwrap();
        assert_eq!(old.frame, FrameId(9));
        assert!(old.dirty, "write should have set the dirty bit");
        assert!(m.translate(ctx, va, Access::Read).is_err());
    }

    #[test]
    fn protection_is_enforced_even_on_tlb_hits() {
        let m = mmu();
        let ctx = m.create_context();
        m.install(ctx, 1, FrameId(0), Protection::READ).unwrap();
        let va = 1 << PAGE_SHIFT;
        assert!(m.translate(ctx, va, Access::Read).is_ok()); // fills TLB
        let err = m.translate(ctx, va, Access::Write).unwrap_err();
        assert!(matches!(err, MmuFault::Protection { .. }));
    }

    #[test]
    fn protect_downgrade_invalidates_tlb() {
        let m = mmu();
        let ctx = m.create_context();
        m.install(ctx, 1, FrameId(0), Protection::READ_WRITE)
            .unwrap();
        let va = 1 << PAGE_SHIFT;
        assert!(m.translate(ctx, va, Access::Write).is_ok());
        m.protect(ctx, 1, Protection::READ).unwrap();
        assert!(m.translate(ctx, va, Access::Write).is_err());
        assert!(m.translate(ctx, va, Access::Read).is_ok());
    }

    #[test]
    fn contexts_are_isolated() {
        let m = mmu();
        let a = m.create_context();
        let b = m.create_context();
        m.install(a, 1, FrameId(0), Protection::ALL).unwrap();
        assert!(m.translate(b, 1 << PAGE_SHIFT, Access::Read).is_err());
        m.destroy_context(a).unwrap();
        assert_eq!(
            m.translate(a, 1 << PAGE_SHIFT, Access::Read),
            Err(MmuFault::NoSuchContext(a))
        );
        // b still works independently.
        m.install(b, 1, FrameId(1), Protection::ALL).unwrap();
        assert_eq!(
            m.translate(b, 1 << PAGE_SHIFT, Access::Read),
            Ok(FrameId(1))
        );
    }

    #[test]
    fn dirty_bit_tracks_writes_only() {
        let m = mmu();
        let ctx = m.create_context();
        m.install(ctx, 7, FrameId(2), Protection::READ_WRITE)
            .unwrap();
        let va = 7 << PAGE_SHIFT;
        m.translate(ctx, va, Access::Read).unwrap();
        assert!(!m.examine(ctx, 7).unwrap().unwrap().dirty);
        m.translate(ctx, va, Access::Write).unwrap();
        assert!(m.examine(ctx, 7).unwrap().unwrap().dirty);
    }

    #[test]
    fn tlb_charges_fill_on_miss_only() {
        let m = mmu();
        let clock = m.clock.clone();
        let ctx = m.create_context();
        m.install(ctx, 3, FrameId(0), Protection::ALL).unwrap();
        let va = 3 << PAGE_SHIFT;
        let before = clock.now();
        m.translate(ctx, va, Access::Read).unwrap(); // miss + fill
        let after_miss = clock.now();
        m.translate(ctx, va, Access::Read).unwrap(); // hit
        let after_hit = clock.now();
        assert!(after_miss > before);
        assert_eq!(after_hit, after_miss, "TLB hit should be free");
    }
}
