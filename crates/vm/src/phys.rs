//! The physical address service (Figure 3, `INTERFACE PhysAddr`).
//!
//! "The physical address service controls the use and allocation of
//! physical pages. Clients raise the Allocate event to request physical
//! memory with a certain size and an optional series of attributes that
//! reflect preferences for machine specific parameters such as color or
//! contiguity. ... clients of the physical address service receive a
//! capability for the memory" (§4.1).
//!
//! A [`PhysRegion`] is that capability: it names frames without exposing
//! them to arbitrary addressing, and it is invalidated on deallocation so a
//! retained stale capability errors instead of aliasing reused memory.
//!
//! "The physical page service may at any time reclaim physical memory by
//! raising the `PhysAddr.Reclaim` event. The interface allows the handler
//! for this event to volunteer an alternative page" — see
//! [`PhysAddrService::reclaim`].

use spin_check::sync::Mutex;
use spin_check::sync::{AtomicBool, Counter, Ordering};
use spin_core::{Dispatcher, Event, Identity};
use spin_sal::{FrameId, PhysMem};
use std::sync::Arc;

/// Number of page colors the allocator distinguishes (cache-conscious
/// allocation, as in the paper's citation of Romer et al.).
const COLORS: u32 = 16;

/// Allocation preferences.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhysAttrib {
    /// Prefer frames of this cache color.
    pub color: Option<u32>,
    /// Require physically contiguous frames.
    pub contiguous: bool,
}

/// Errors from the physical address service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhysError {
    /// Not enough free frames (with the requested attributes).
    OutOfMemory { requested: usize },
    /// The capability was already deallocated.
    StaleCapability,
}

/// A capability for allocated physical memory (`PhysAddr.T`).
///
/// Opaque: holders can ask for its size and hand it to the translation
/// service, but cannot address the frames directly.
pub struct PhysRegion {
    id: u64,
    frames: Vec<FrameId>,
    live: AtomicBool,
}

impl PhysRegion {
    /// Number of pages in the region.
    pub fn pages(&self) -> usize {
        self.frames.len()
    }

    /// Whether the capability is still valid.
    pub(crate) fn is_live(&self) -> bool {
        self.live.load(Ordering::Acquire) // ordering: Acquire — pairs with the teardown swap's release half.
    }

    /// Internal: the backing frames (used by the translation service and
    /// pagers, which are trusted).
    pub(crate) fn frames(&self) -> Result<&[FrameId], PhysError> {
        if self.is_live() {
            Ok(&self.frames)
        } else {
            Err(PhysError::StaleCapability)
        }
    }

    /// Trusted accessor for core services in other crates (e.g. the file
    /// system's buffer cache). Fails on stale capabilities.
    pub fn with_frames<R>(&self, f: impl FnOnce(&[FrameId]) -> R) -> Result<R, PhysError> {
        Ok(f(self.frames()?))
    }

    /// Trusted accessor that works even on reclaimed regions — the
    /// translation service must be able to tear down mappings *after* the
    /// physical service has reclaimed the capability (§4.1's ordering:
    /// reclaim first, "ultimately invalidate" after).
    pub(crate) fn with_frames_raw<R>(&self, f: impl FnOnce(&[FrameId]) -> R) -> R {
        f(&self.frames)
    }

    /// The region's unique id.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl std::fmt::Debug for PhysRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PhysRegion#{}[{} pages]", self.id, self.frames.len())
    }
}

/// Arguments of the `PhysAddr.Reclaim` event: the service's candidate.
#[derive(Clone)]
pub struct ReclaimRequest {
    pub candidate: Arc<PhysRegion>,
}

struct FreeList {
    free: Vec<FrameId>,
}

/// The physical address service.
#[derive(Clone)]
pub struct PhysAddrService {
    mem: PhysMem,
    state: Arc<Mutex<FreeList>>,
    next_id: Arc<Counter>,
    /// `PhysAddr.Reclaim`.
    pub reclaim_event: Event<ReclaimRequest, Arc<PhysRegion>>,
}

impl PhysAddrService {
    /// Creates the service over a host's physical memory.
    pub fn new(mem: PhysMem, dispatcher: &Dispatcher) -> PhysAddrService {
        let free = (0..mem.frame_count() as u32).map(FrameId).collect();
        let (reclaim_event, reclaim_owner) = dispatcher.define::<ReclaimRequest, Arc<PhysRegion>>(
            "PhysAddr.Reclaim",
            Identity::kernel("PhysAddr"),
        );
        // Default implementation: accept the candidate.
        reclaim_owner
            .set_primary(|req: &ReclaimRequest| req.candidate.clone())
            .expect("fresh event");
        PhysAddrService {
            mem,
            state: Arc::new(Mutex::new(FreeList { free })),
            next_id: Arc::new(Counter::new(1)),
            reclaim_event,
        }
    }

    /// `PhysAddr.Allocate`: allocates `pages` frames with `attrib`.
    pub fn allocate(&self, pages: usize, attrib: PhysAttrib) -> Result<Arc<PhysRegion>, PhysError> {
        let mut st = self.state.lock();
        if st.free.len() < pages {
            return Err(PhysError::OutOfMemory { requested: pages });
        }
        let frames = if attrib.contiguous {
            Self::take_contiguous(&mut st.free, pages)
                .ok_or(PhysError::OutOfMemory { requested: pages })?
        } else if let Some(color) = attrib.color {
            Self::take_colored(&mut st.free, pages, color)
                .ok_or(PhysError::OutOfMemory { requested: pages })?
        } else {
            let at = st.free.len() - pages;
            st.free.split_off(at)
        };
        for &f in &frames {
            self.mem.zero(f);
        }
        Ok(Arc::new(PhysRegion {
            id: self.next_id.fetch_add(1),
            frames,
            live: AtomicBool::new(true),
        }))
    }

    fn take_contiguous(free: &mut Vec<FrameId>, pages: usize) -> Option<Vec<FrameId>> {
        free.sort_unstable();
        let ids: Vec<u32> = free.iter().map(|f| f.0).collect();
        let mut run_start = 0;
        for i in 0..ids.len() {
            if i > 0 && ids[i] != ids[i - 1] + 1 {
                run_start = i;
            }
            if i - run_start + 1 == pages {
                let taken: Vec<FrameId> = free.drain(run_start..=i).collect();
                return Some(taken);
            }
        }
        None
    }

    fn take_colored(free: &mut Vec<FrameId>, pages: usize, color: u32) -> Option<Vec<FrameId>> {
        let mut taken = Vec::with_capacity(pages);
        let mut i = 0;
        while i < free.len() && taken.len() < pages {
            if free[i].0 % COLORS == color % COLORS {
                taken.push(free.remove(i));
            } else {
                i += 1;
            }
        }
        if taken.len() == pages {
            Some(taken)
        } else {
            free.extend(taken);
            None
        }
    }

    /// `PhysAddr.Deallocate`: returns the region's frames and invalidates
    /// the capability.
    pub fn deallocate(&self, region: &Arc<PhysRegion>) -> Result<(), PhysError> {
        // ordering: AcqRel — exactly one unmapper wins and owns the teardown.
        if !region.live.swap(false, Ordering::AcqRel) {
            return Err(PhysError::StaleCapability);
        }
        self.state.lock().free.extend(region.frames.iter().copied());
        Ok(())
    }

    /// `PhysAddr.Reclaim`: asks handlers whether an alternative should be
    /// surrendered instead of `candidate`, then deallocates the chosen
    /// region and returns it.
    pub fn reclaim(&self, candidate: Arc<PhysRegion>) -> Result<Arc<PhysRegion>, PhysError> {
        let chosen = self
            .reclaim_event
            .raise(ReclaimRequest {
                candidate: candidate.clone(),
            })
            .unwrap_or(candidate);
        self.deallocate(&chosen)?;
        Ok(chosen)
    }

    /// Free frames remaining.
    pub fn free_frames(&self) -> usize {
        self.state.lock().free.len()
    }

    /// The backing physical memory (trusted services only).
    pub fn memory(&self) -> &PhysMem {
        &self.mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> PhysAddrService {
        PhysAddrService::new(PhysMem::new(64), &Dispatcher::unmetered())
    }

    #[test]
    fn allocate_and_deallocate_round_trip() {
        let s = service();
        let before = s.free_frames();
        let r = s.allocate(4, PhysAttrib::default()).unwrap();
        assert_eq!(r.pages(), 4);
        assert_eq!(s.free_frames(), before - 4);
        s.deallocate(&r).unwrap();
        assert_eq!(s.free_frames(), before);
    }

    #[test]
    fn stale_capabilities_are_rejected() {
        let s = service();
        let r = s.allocate(1, PhysAttrib::default()).unwrap();
        s.deallocate(&r).unwrap();
        assert_eq!(s.deallocate(&r), Err(PhysError::StaleCapability));
        assert!(r.with_frames(|_| ()).is_err());
        assert!(!r.is_live());
    }

    #[test]
    fn out_of_memory_is_reported() {
        let s = service();
        assert!(matches!(
            s.allocate(1000, PhysAttrib::default()),
            Err(PhysError::OutOfMemory { requested: 1000 })
        ));
    }

    #[test]
    fn contiguous_allocation_is_contiguous() {
        let s = service();
        // Fragment the free list a little first.
        let a = s.allocate(3, PhysAttrib::default()).unwrap();
        let r = s
            .allocate(
                8,
                PhysAttrib {
                    contiguous: true,
                    ..Default::default()
                },
            )
            .unwrap();
        r.with_frames(|frames| {
            for w in frames.windows(2) {
                assert_eq!(w[1].0, w[0].0 + 1, "frames must be contiguous");
            }
        })
        .unwrap();
        s.deallocate(&a).unwrap();
    }

    #[test]
    fn colored_allocation_respects_color() {
        let s = service();
        let r = s
            .allocate(
                2,
                PhysAttrib {
                    color: Some(5),
                    ..Default::default()
                },
            )
            .unwrap();
        r.with_frames(|frames| {
            for f in frames {
                assert_eq!(f.0 % COLORS, 5);
            }
        })
        .unwrap();
    }

    #[test]
    fn allocated_frames_are_zeroed() {
        let s = service();
        let r = s.allocate(1, PhysAttrib::default()).unwrap();
        let frame = r.with_frames(|f| f[0]).unwrap();
        s.memory().write(frame, 0, &[0xFF]);
        s.deallocate(&r).unwrap();
        // Reallocate until we get the same frame back; it must be zero.
        for _ in 0..64 {
            let r2 = s.allocate(1, PhysAttrib::default()).unwrap();
            let f2 = r2.with_frames(|f| f[0]).unwrap();
            if f2 == frame {
                let mut b = [0xAAu8];
                s.memory().read(f2, 0, &mut b);
                assert_eq!(b, [0]);
                return;
            }
        }
        panic!("frame never reallocated");
    }

    #[test]
    fn reclaim_lets_handlers_volunteer_alternatives() {
        let s = service();
        let precious = s.allocate(1, PhysAttrib::default()).unwrap();
        let spare = s.allocate(1, PhysAttrib::default()).unwrap();
        // A client protects its precious page by volunteering the spare.
        let (precious_id, spare2) = (precious.id(), spare.clone());
        s.reclaim_event
            .install(
                Identity::extension("buffercache"),
                move |req: &ReclaimRequest| {
                    if req.candidate.id() == precious_id {
                        spare2.clone()
                    } else {
                        req.candidate.clone()
                    }
                },
            )
            .unwrap();
        let taken = s.reclaim(precious.clone()).unwrap();
        assert_eq!(taken.id(), spare.id());
        assert!(precious.is_live(), "the volunteered page was taken instead");
        assert!(!spare.is_live());
    }
}
