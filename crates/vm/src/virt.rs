//! The virtual address service (Figure 3, `INTERFACE VirtAddr`).
//!
//! "The virtual address service allocates capabilities for virtual
//! addresses, where the capability's referent is composed of a virtual
//! address, a length, and an address space identifier that makes the
//! address unique" (§4.1).

use spin_check::sync::Mutex;
use spin_check::sync::{AtomicBool, Ordering};
use spin_sal::{PAGE_SHIFT, PAGE_SIZE};
use std::sync::Arc;

/// Errors from the virtual address service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VirtError {
    /// The virtual address space is exhausted.
    OutOfAddressSpace,
    /// The capability was already deallocated.
    StaleCapability,
}

/// A capability for a range of virtual addresses (`VirtAddr.T`).
pub struct VirtRegion {
    base: u64,
    pages: u64,
    live: AtomicBool,
}

impl VirtRegion {
    /// First virtual address of the region.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Length in pages.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// Length in bytes.
    pub(crate) fn len(&self) -> u64 {
        self.pages * PAGE_SIZE as u64
    }

    /// One past the last virtual address.
    pub(crate) fn end(&self) -> u64 {
        self.base + self.len()
    }

    /// Whether `va` falls inside the region.
    pub fn contains(&self, va: u64) -> bool {
        va >= self.base && va < self.end()
    }

    /// The virtual page number of page `i` of the region.
    pub fn vpn(&self, i: u64) -> u64 {
        (self.base >> PAGE_SHIFT) + i
    }

    /// Whether the capability is still valid.
    pub(crate) fn is_live(&self) -> bool {
        self.live.load(Ordering::Acquire) // ordering: Acquire — pairs with the teardown swap's release half.
    }
}

impl std::fmt::Debug for VirtRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VirtRegion[{:#x}..{:#x}]", self.base, self.end())
    }
}

/// The virtual address service: a page-granular allocator over one
/// address-space identifier's range.
#[derive(Clone)]
pub struct VirtAddrService {
    state: Arc<Mutex<Allocator>>,
}

struct Allocator {
    /// Next never-used address (bump).
    next: u64,
    limit: u64,
    /// Freed ranges for reuse: (base, pages).
    free: Vec<(u64, u64)>,
}

impl Default for VirtAddrService {
    fn default() -> Self {
        Self::new()
    }
}

impl VirtAddrService {
    /// A service managing the canonical user range.
    pub fn new() -> VirtAddrService {
        // Start above page 0 so null dereferences are always BadAddress.
        VirtAddrService {
            state: Arc::new(Mutex::new(Allocator {
                next: 0x0001_0000,
                limit: 0x0000_0400_0000_0000, // 4 TB of virtual space
                free: Vec::new(),
            })),
        }
    }

    /// `VirtAddr.Allocate`: allocates `pages` of virtual address space.
    pub fn allocate(&self, pages: u64) -> Result<Arc<VirtRegion>, VirtError> {
        assert!(pages > 0, "zero-page virtual allocation");
        let mut st = self.state.lock();
        // First-fit over the free list.
        if let Some(i) = st.free.iter().position(|&(_, n)| n >= pages) {
            let (base, n) = st.free[i];
            if n == pages {
                st.free.remove(i);
            } else {
                st.free[i] = (base + pages * PAGE_SIZE as u64, n - pages);
            }
            return Ok(Arc::new(VirtRegion {
                base,
                pages,
                live: AtomicBool::new(true),
            }));
        }
        let bytes = pages * PAGE_SIZE as u64;
        if st.next + bytes > st.limit {
            return Err(VirtError::OutOfAddressSpace);
        }
        let base = st.next;
        st.next += bytes;
        Ok(Arc::new(VirtRegion {
            base,
            pages,
            live: AtomicBool::new(true),
        }))
    }

    /// `VirtAddr.Deallocate`: invalidates the capability and recycles the
    /// range.
    pub(crate) fn deallocate(&self, region: &Arc<VirtRegion>) -> Result<(), VirtError> {
        // ordering: AcqRel — exactly one unmapper wins and owns the teardown.
        if !region.live.swap(false, Ordering::AcqRel) {
            return Err(VirtError::StaleCapability);
        }
        self.state.lock().free.push((region.base, region.pages));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint_and_page_aligned() {
        let s = VirtAddrService::new();
        let a = s.allocate(4).unwrap();
        let b = s.allocate(2).unwrap();
        assert_eq!(a.base() % PAGE_SIZE as u64, 0);
        assert!(a.end() <= b.base() || b.end() <= a.base());
        assert_eq!(a.pages(), 4);
        assert_eq!(a.len(), 4 * PAGE_SIZE as u64);
    }

    #[test]
    fn contains_and_vpn() {
        let s = VirtAddrService::new();
        let r = s.allocate(2).unwrap();
        assert!(r.contains(r.base()));
        assert!(r.contains(r.end() - 1));
        assert!(!r.contains(r.end()));
        assert_eq!(r.vpn(1), (r.base() >> PAGE_SHIFT) + 1);
    }

    #[test]
    fn deallocated_ranges_are_reused() {
        let s = VirtAddrService::new();
        let a = s.allocate(3).unwrap();
        let base = a.base();
        s.deallocate(&a).unwrap();
        assert_eq!(s.deallocate(&a), Err(VirtError::StaleCapability));
        let b = s.allocate(3).unwrap();
        assert_eq!(b.base(), base, "first-fit should reuse the freed range");
    }

    #[test]
    fn partial_reuse_splits_free_ranges() {
        let s = VirtAddrService::new();
        let a = s.allocate(4).unwrap();
        let base = a.base();
        s.deallocate(&a).unwrap();
        let b = s.allocate(2).unwrap();
        let c = s.allocate(2).unwrap();
        assert_eq!(b.base(), base);
        assert_eq!(c.base(), base + 2 * PAGE_SIZE as u64);
    }

    #[test]
    fn null_page_is_never_allocated() {
        let s = VirtAddrService::new();
        let r = s.allocate(1).unwrap();
        assert!(r.base() >= 0x1_0000);
    }
}
