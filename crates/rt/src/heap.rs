//! The kernel heap and its Bartlett-style mostly-copying collector.
//!
//! The heap is an append-only set of **pages**; objects are bump-allocated
//! into the current page of the current *space* (an epoch counter). A
//! collection flips to a new space and then:
//!
//! 1. pages referenced by **ambiguous roots** (conservative stack/register
//!    analogues) are *pinned*: promoted wholesale into the new space without
//!    moving — every object on them survives, exactly as in Bartlett's
//!    collector where an ambiguous pointer may not be updated;
//! 2. objects reachable from **exact roots** are *copied* into fresh
//!    new-space pages, leaving forwarding entries; exact roots and all
//!    traced interior references are rewritten;
//! 3. a Cheney-style scan traces copied and pinned objects until closure;
//! 4. unpinned old-space pages are dropped, reclaiming every dead object.
//!
//! A `Gc` reference that survives only by being stale (its object died or
//! moved while unrooted) can never alias a new object: page ids and slot
//! indices are never reused, so dereferencing it yields
//! [`GcError::Dangling`]. This is the reproduction of the paper's claim that
//! "a rogue client can\[not\] violate the type system by retaining a
//! reference to a freed object" (§5.5).

use crate::trace::{Trace, Tracer};
use spin_check::sync::Mutex;
use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::marker::PhantomData;
use std::sync::{Arc, Weak};

/// Bytes per heap page (collector granularity, not the MMU page size).
const GC_PAGE_BYTES: usize = 4096;

/// Per-object header overhead charged against page capacity.
const HEADER_BYTES: usize = 16;

/// The location of an object in the heap. Never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Addr {
    pub(crate) page: u32,
    pub(crate) index: u32,
}

/// A typed, copyable reference to a heap object.
///
/// `Gc` is *not* a root: an object reachable only through unrooted `Gc`
/// values is reclaimed at the next collection. Hold a [`Root`] (exact) or an
/// ambiguous pin to keep an object alive across collections.
pub struct Gc<T: Trace> {
    pub(crate) addr: Addr,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Trace> Clone for Gc<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Trace> Copy for Gc<T> {}

impl<T: Trace> std::fmt::Debug for Gc<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gc({}:{})", self.addr.page, self.addr.index)
    }
}

impl<T: Trace> PartialEq for Gc<T> {
    fn eq(&self, other: &Self) -> bool {
        self.addr == other.addr
    }
}
impl<T: Trace> Eq for Gc<T> {}

/// Errors from heap operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcError {
    /// The reference's object has been reclaimed or moved while unrooted.
    Dangling,
    /// The reference's type does not match the stored object (internal
    /// invariant violation; unreachable through the safe API).
    TypeMismatch,
    /// The heap is at capacity even after collection.
    HeapFull,
}

trait Erased: Send {
    fn trace_mut(&mut self, tracer: &mut Tracer<'_>);
    fn as_any(&self) -> &dyn Any;
}

impl<T: Trace> Erased for T {
    fn trace_mut(&mut self, tracer: &mut Tracer<'_>) {
        self.trace(tracer);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

struct Slot {
    obj: Box<dyn Erased>,
    size: usize,
}

struct Page {
    /// Slot storage; `None` = moved out during a collection.
    slots: Vec<Option<Slot>>,
    /// Forwarding table for objects moved out of this page (live only
    /// during a collection).
    forwards: HashMap<u32, Addr>,
    bytes: usize,
    space: u64,
    pinned: bool,
}

impl Page {
    fn new(space: u64) -> Self {
        Page {
            slots: Vec::new(),
            forwards: HashMap::new(),
            bytes: 0,
            space,
            pinned: false,
        }
    }
}

type RootCell = Arc<Mutex<Addr>>;

struct HeapState {
    pages: BTreeMap<u32, Page>,
    next_page: u32,
    space: u64,
    /// Page currently receiving small allocations.
    alloc_page: Option<u32>,
    exact_roots: Vec<Weak<Mutex<Addr>>>,
    ambiguous_roots: Vec<Weak<Mutex<Addr>>>,
    live_bytes: usize,
    capacity_bytes: usize,
    enabled: bool,
    stats: HeapStats,
    /// Live bytes after each collection, summed over collections.
    bytes_surviving: u64,
}

/// Cumulative heap statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    pub allocations: u64,
    pub allocated_bytes: u64,
    pub collections: u64,
    pub objects_copied: u64,
    pub objects_promoted: u64,
    pub bytes_freed: u64,
    pub pages_pinned: u64,
}

/// Result of one collection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectionStats {
    pub objects_copied: u64,
    pub bytes_copied: u64,
    pub objects_promoted: u64,
    pub pages_pinned: u64,
    pub bytes_freed: u64,
    pub live_bytes_after: u64,
}

/// An exact root: keeps its object alive and is rewritten on copy.
pub struct Root<T: Trace> {
    cell: RootCell,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Trace> Root<T> {
    /// The current (possibly relocated) reference.
    pub fn get(&self) -> Gc<T> {
        Gc {
            addr: *self.cell.lock(),
            _marker: PhantomData,
        }
    }
}

/// An ambiguous root: pins the object's page during collections, as a
/// conservatively-scanned stack word would in Bartlett's collector.
pub struct AmbiguousPin<T: Trace> {
    cell: RootCell,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Trace> AmbiguousPin<T> {
    /// The pinned reference (never rewritten: pinned objects do not move).
    pub fn get(&self) -> Gc<T> {
        Gc {
            addr: *self.cell.lock(),
            _marker: PhantomData,
        }
    }
}

/// The garbage-collected kernel heap.
///
/// Cloning shares the heap. All operations are internally synchronized; do
/// not call heap methods from within a [`KernelHeap::with`] closure (the
/// heap lock is held for the closure's duration).
#[derive(Clone)]
pub struct KernelHeap {
    state: Arc<Mutex<HeapState>>,
    /// Observability hook (gc domain): absent until wired, and the alloc
    /// path never consults it — only completed collections report.
    obs: Arc<spin_check::hooks::HookSlot<spin_obs::ObsHook>>,
    /// Fault-injection hook (`rt.heap` site), drawn at the top of every
    /// allocation. `Fail` manifests as [`GcError::HeapFull`] — a heap at
    /// capacity — and `Panic` unwinds (contained by the dispatcher when
    /// the allocating code runs inside a handler). `Delay` is ignored:
    /// the heap has no clock, and allocation charges no virtual time.
    faults: Arc<spin_check::hooks::HookSlot<spin_fault::FaultHook>>,
}

impl Default for KernelHeap {
    fn default() -> Self {
        Self::new()
    }
}

impl KernelHeap {
    /// A heap with the default 16 MB capacity.
    pub fn new() -> Self {
        Self::with_capacity(16 * 1024 * 1024)
    }

    /// A heap bounded at `capacity_bytes` of live data.
    pub fn with_capacity(capacity_bytes: usize) -> Self {
        KernelHeap {
            obs: Arc::new(spin_check::hooks::HookSlot::new()),
            faults: Arc::new(spin_check::hooks::HookSlot::new()),
            state: Arc::new(Mutex::new(HeapState {
                pages: BTreeMap::new(),
                next_page: 0,
                space: 0,
                alloc_page: None,
                exact_roots: Vec::new(),
                ambiguous_roots: Vec::new(),
                live_bytes: 0,
                capacity_bytes,
                enabled: true,
                stats: HeapStats::default(),
                bytes_surviving: 0,
            })),
        }
    }

    /// Enables or disables the collector (§5.5's "disable the collector
    /// during the tests"). Explicit [`KernelHeap::collect`] still works.
    pub fn set_enabled(&self, enabled: bool) {
        self.state.lock().enabled = enabled;
    }

    /// Wires the observability subsystem: completed collections are traced
    /// to the gc domain, which reads the heap's collections, surviving
    /// bytes and pages. One-shot; charges zero virtual time.
    pub fn set_obs(&self, hook: spin_obs::ObsHook) {
        if self.obs.set(hook.clone()) {
            let book = self.state.clone();
            hook.read(move |t| {
                let st = book.lock();
                t.gc_collections += st.stats.collections;
                t.gc_bytes_surviving += st.bytes_surviving;
                t.pages_held += st.pages.len() as u64;
            });
        }
    }

    /// Wires the deterministic fault-injection plan's `rt.heap` site.
    /// One-shot; absent hooks cost nothing on the alloc path.
    pub fn set_fault_hook(&self, hook: spin_fault::FaultHook) {
        let _ = self.faults.set(hook);
    }

    /// Allocates a new object, collecting first if the heap is full and the
    /// collector is enabled.
    pub fn alloc<T: Trace>(&self, value: T) -> Result<Gc<T>, GcError> {
        if let Some(h) = self.faults.get() {
            match h.draw() {
                Some(spin_fault::Injection::Panic) => h.fire_panic(),
                Some(spin_fault::Injection::Fail) => return Err(GcError::HeapFull),
                Some(spin_fault::Injection::Delay(_)) | None => {}
            }
        }
        let size = std::mem::size_of::<T>() + HEADER_BYTES;
        {
            let st = self.state.lock();
            if st.live_bytes + size > st.capacity_bytes {
                if !st.enabled {
                    return Err(GcError::HeapFull);
                }
                drop(st);
                self.collect();
                let st = self.state.lock();
                if st.live_bytes + size > st.capacity_bytes {
                    return Err(GcError::HeapFull);
                }
            }
        }
        let mut st = self.state.lock();
        st.stats.allocations += 1;
        st.stats.allocated_bytes += size as u64;
        let addr = Self::bump(
            &mut st,
            Slot {
                obj: Box::new(value),
                size,
            },
        );
        Ok(Gc {
            addr,
            _marker: PhantomData,
        })
    }

    fn bump(st: &mut HeapState, slot: Slot) -> Addr {
        let size = slot.size;
        let space = st.space;
        let page_id = match st.alloc_page {
            Some(p)
                if st.pages[&p].bytes + size <= GC_PAGE_BYTES && st.pages[&p].space == space =>
            {
                p
            }
            _ => {
                let id = st.next_page;
                st.next_page += 1;
                st.pages.insert(id, Page::new(space));
                st.alloc_page = Some(id);
                id
            }
        };
        let page = st.pages.get_mut(&page_id).expect("just ensured");
        let index = page.slots.len() as u32;
        page.slots.push(Some(slot));
        page.bytes += size;
        st.live_bytes += size;
        Addr {
            page: page_id,
            index,
        }
    }

    /// Reads an object through its reference.
    ///
    /// Returns [`GcError::Dangling`] if the object was reclaimed or moved
    /// while unrooted — the safe outcome the collector guarantees.
    pub fn with<T: Trace, R>(&self, gc: Gc<T>, f: impl FnOnce(&T) -> R) -> Result<R, GcError> {
        let st = self.state.lock();
        let slot = st
            .pages
            .get(&gc.addr.page)
            .and_then(|p| p.slots.get(gc.addr.index as usize))
            .and_then(|s| s.as_ref())
            .ok_or(GcError::Dangling)?;
        let v = slot
            .obj
            .as_any()
            .downcast_ref::<T>()
            .ok_or(GcError::TypeMismatch)?;
        Ok(f(v))
    }

    /// Copies the object out (for `T: Clone`).
    pub fn get<T: Trace + Clone>(&self, gc: Gc<T>) -> Result<T, GcError> {
        self.with(gc, |v| v.clone())
    }

    /// Registers an exact root for `gc`.
    pub fn root<T: Trace>(&self, gc: Gc<T>) -> Root<T> {
        let cell = Arc::new(Mutex::new(gc.addr));
        self.state.lock().exact_roots.push(Arc::downgrade(&cell));
        Root {
            cell,
            _marker: PhantomData,
        }
    }

    /// Allocates and immediately roots an object.
    pub fn alloc_root<T: Trace>(&self, value: T) -> Result<Root<T>, GcError> {
        let gc = self.alloc(value)?;
        Ok(self.root(gc))
    }

    /// Registers an ambiguous root: the object's page is pinned during
    /// collections and the object never moves.
    pub fn pin_ambiguous<T: Trace>(&self, gc: Gc<T>) -> AmbiguousPin<T> {
        let cell = Arc::new(Mutex::new(gc.addr));
        self.state
            .lock()
            .ambiguous_roots
            .push(Arc::downgrade(&cell));
        AmbiguousPin {
            cell,
            _marker: PhantomData,
        }
    }

    /// Whether the reference is currently valid.
    pub fn is_live<T: Trace>(&self, gc: Gc<T>) -> bool {
        let st = self.state.lock();
        st.pages
            .get(&gc.addr.page)
            .and_then(|p| p.slots.get(gc.addr.index as usize))
            .map(|s| s.is_some())
            .unwrap_or(false)
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> HeapStats {
        self.state.lock().stats
    }

    /// Bytes currently attributed to live (or conservatively retained)
    /// objects.
    pub fn live_bytes(&self) -> usize {
        self.state.lock().live_bytes
    }

    /// Runs a full collection and returns what it did.
    pub fn collect(&self) -> CollectionStats {
        let mut st = self.state.lock();
        let st = &mut *st;
        let old_space = st.space;
        st.space += 1;
        let new_space = st.space;
        st.alloc_page = None;

        let mut cstats = CollectionStats::default();
        let bytes_before: usize = st.live_bytes;

        // Phase 1: pin pages referenced by live ambiguous roots.
        st.ambiguous_roots.retain(|w| w.upgrade().is_some());
        let ambiguous: Vec<Addr> = st
            .ambiguous_roots
            .iter()
            .filter_map(|w| w.upgrade())
            .map(|c| *c.lock())
            .collect();
        let mut worklist: Vec<Addr> = Vec::new();
        for addr in ambiguous {
            if let Some(page) = st.pages.get_mut(&addr.page) {
                if page.space == old_space && !page.pinned {
                    page.pinned = true;
                    page.space = new_space;
                    cstats.pages_pinned += 1;
                    // Every object on a pinned page survives and must be
                    // scanned.
                    for (i, slot) in page.slots.iter().enumerate() {
                        if slot.is_some() {
                            worklist.push(Addr {
                                page: addr.page,
                                index: i as u32,
                            });
                            cstats.objects_promoted += 1;
                        }
                    }
                }
            }
        }

        // forward(): ensure the object at `addr` is in the new space,
        // returning its (possibly new) address.
        fn forward(
            st: &mut HeapState,
            addr: Addr,
            new_space: u64,
            worklist: &mut Vec<Addr>,
            cstats: &mut CollectionStats,
        ) -> Addr {
            let page = match st.pages.get(&addr.page) {
                Some(p) => p,
                None => return addr, // already-dead reference: leave stale
            };
            if page.space == new_space {
                return addr; // pinned-promoted or already new-space
            }
            if let Some(&fwd) = page.forwards.get(&addr.index) {
                return fwd;
            }
            // Move the object into the new space.
            let slot = {
                let page = st.pages.get_mut(&addr.page).expect("checked above");
                match page
                    .slots
                    .get_mut(addr.index as usize)
                    .and_then(|s| s.take())
                {
                    Some(s) => {
                        page.bytes -= s.size;
                        s
                    }
                    None => return addr, // dead slot: stale reference
                }
            };
            // The moved bytes were already counted in live_bytes; bump()
            // re-adds them, so compensate.
            st.live_bytes -= slot.size;
            cstats.objects_copied += 1;
            cstats.bytes_copied += slot.size as u64;
            let new_addr = KernelHeap::bump(st, slot);
            st.pages
                .get_mut(&addr.page)
                .expect("source page exists")
                .forwards
                .insert(addr.index, new_addr);
            worklist.push(new_addr);
            new_addr
        }

        // Phase 2: forward exact roots.
        st.exact_roots.retain(|w| w.upgrade().is_some());
        let roots: Vec<RootCell> = st.exact_roots.iter().filter_map(|w| w.upgrade()).collect();
        for cell in roots {
            let mut addr = cell.lock();
            *addr = forward(st, *addr, new_space, &mut worklist, &mut cstats);
        }

        // Phase 3: Cheney scan to closure.
        while let Some(addr) = worklist.pop() {
            // Temporarily remove the object so we can trace it with &mut
            // while forward() mutates the heap.
            let mut slot = {
                let page = match st.pages.get_mut(&addr.page) {
                    Some(p) => p,
                    None => continue,
                };
                match page
                    .slots
                    .get_mut(addr.index as usize)
                    .and_then(|s| s.take())
                {
                    Some(s) => s,
                    None => continue,
                }
            };
            {
                let mut visit = |edge: &mut Addr| {
                    *edge = forward(st, *edge, new_space, &mut worklist, &mut cstats);
                };
                let mut tracer = Tracer { visit: &mut visit };
                slot.obj.trace_mut(&mut tracer);
            }
            if let Some(page) = st.pages.get_mut(&addr.page) {
                page.slots[addr.index as usize] = Some(slot);
            }
        }

        // Phase 4: drop unpinned old-space pages; tidy survivors.
        let dead: Vec<u32> = st
            .pages
            .iter()
            .filter(|(_, p)| p.space == old_space)
            .map(|(&id, _)| id)
            .collect();
        for id in dead {
            let page = st.pages.remove(&id).expect("listed above");
            st.live_bytes -= page.bytes;
            cstats.bytes_freed += page.bytes as u64;
        }
        for page in st.pages.values_mut() {
            page.forwards.clear();
            page.pinned = false;
        }

        cstats.live_bytes_after = st.live_bytes as u64;
        debug_assert!(st.live_bytes <= bytes_before);
        st.stats.collections += 1;
        st.stats.objects_copied += cstats.objects_copied;
        st.stats.objects_promoted += cstats.objects_promoted;
        st.stats.bytes_freed += cstats.bytes_freed;
        st.stats.pages_pinned += cstats.pages_pinned;
        st.bytes_surviving += cstats.live_bytes_after;
        if let Some(obs) = self.obs.get() {
            obs.trace(
                spin_obs::TraceKind::GcPause,
                cstats.live_bytes_after,
                cstats.objects_copied,
            );
        }
        cstats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_read_back() {
        let heap = KernelHeap::new();
        let gc = heap.alloc(42u64).unwrap();
        assert_eq!(heap.with(gc, |v| v + 1), Ok(43));
        assert_eq!(heap.get(gc), Ok(42));
    }

    #[test]
    fn unrooted_objects_die_at_collection() {
        let heap = KernelHeap::new();
        let gc = heap.alloc(7u64).unwrap();
        assert!(heap.is_live(gc));
        let stats = heap.collect();
        assert!(!heap.is_live(gc));
        assert_eq!(heap.get(gc), Err(GcError::Dangling));
        assert!(stats.bytes_freed > 0);
    }

    #[test]
    fn exact_roots_survive_and_are_rewritten() {
        let heap = KernelHeap::new();
        let root = heap.alloc_root(99u64).unwrap();
        let before = root.get();
        let stats = heap.collect();
        let after = root.get();
        assert_eq!(heap.get(after), Ok(99));
        assert_eq!(stats.objects_copied, 1);
        // The object moved: copying collectors compact.
        assert_ne!(before.addr, after.addr);
        // The stale pre-collection reference is detected, not misread.
        assert_eq!(heap.get(before), Err(GcError::Dangling));
    }

    #[test]
    fn ambiguous_pins_do_not_move() {
        let heap = KernelHeap::new();
        let gc = heap.alloc(5u32).unwrap();
        let pin = heap.pin_ambiguous(gc);
        let stats = heap.collect();
        assert_eq!(stats.pages_pinned, 1);
        assert_eq!(pin.get().addr, gc.addr, "pinned objects must not move");
        assert_eq!(heap.get(gc), Ok(5));
    }

    #[test]
    fn dropping_a_root_frees_the_object_next_gc() {
        let heap = KernelHeap::new();
        let root = heap.alloc_root(1u8).unwrap();
        let gc = root.get();
        drop(root);
        heap.collect();
        assert!(!heap.is_live(gc));
    }

    struct Node {
        value: u64,
        next: Option<Gc<Node>>,
    }
    impl Trace for Node {
        fn trace(&mut self, tracer: &mut Tracer<'_>) {
            tracer.edge_opt(&mut self.next);
        }
    }

    #[test]
    fn interior_references_are_traced_and_rewritten() {
        let heap = KernelHeap::new();
        let tail = heap
            .alloc(Node {
                value: 2,
                next: None,
            })
            .unwrap();
        let head = heap
            .alloc(Node {
                value: 1,
                next: Some(tail),
            })
            .unwrap();
        let root = heap.root(head);
        heap.collect();
        let head = root.get();
        let tail_val = heap
            .with(head, |n| n.next.expect("tail survives"))
            .and_then(|t| heap.with(t, |n| n.value))
            .unwrap();
        assert_eq!(tail_val, 2);
        // Unreferenced garbage is gone: allocate one more orphan and check
        // that only the rooted chain remains after another collection.
        heap.alloc(Node {
            value: 3,
            next: None,
        })
        .unwrap();
        let stats = heap.collect();
        assert_eq!(stats.objects_copied, 2);
    }

    /// A node whose edge is set after allocation, closing a cycle.
    struct CycleNode {
        next: std::cell::Cell<Option<Gc<CycleNode>>>,
    }
    impl Trace for CycleNode {
        fn trace(&mut self, tracer: &mut Tracer<'_>) {
            tracer.edge_opt(self.next.get_mut());
        }
    }

    #[test]
    fn cycles_are_collected_when_unrooted() {
        let heap = KernelHeap::new();
        let node = |next| CycleNode {
            next: std::cell::Cell::new(next),
        };
        let a = heap.alloc(node(None)).unwrap();
        let b = heap.alloc(node(Some(a))).unwrap();
        heap.with(a, |n| n.next.set(Some(b))).unwrap();
        heap.collect();
        assert!(!heap.is_live(a));
        assert!(!heap.is_live(b));
    }

    #[test]
    fn heap_full_triggers_collection_then_errors() {
        let heap = KernelHeap::with_capacity(4096);
        // Fill with garbage; auto-collection should reclaim and keep going.
        for i in 0..500u64 {
            heap.alloc(i).unwrap();
        }
        assert!(heap.stats().collections > 0);
        // Now pin everything live so nothing can be reclaimed.
        let mut roots = Vec::new();
        loop {
            match heap.alloc_root(0u64) {
                Ok(r) => roots.push(r),
                Err(GcError::HeapFull) => break,
                Err(e) => panic!("unexpected error {e:?}"),
            }
            if roots.len() > 10_000 {
                panic!("heap never filled");
            }
        }
    }

    #[test]
    fn disabled_collector_reports_full_instead_of_collecting() {
        let heap = KernelHeap::with_capacity(256);
        heap.set_enabled(false);
        let mut last = Ok(());
        for i in 0..100u64 {
            if let Err(e) = heap.alloc(i) {
                last = Err(e);
                break;
            }
        }
        assert_eq!(last, Err(GcError::HeapFull));
        assert_eq!(heap.stats().collections, 0);
    }

    #[test]
    fn stats_accumulate() {
        let heap = KernelHeap::new();
        let _r = heap.alloc_root(1u64).unwrap();
        heap.alloc(2u64).unwrap();
        heap.collect();
        heap.collect();
        let s = heap.stats();
        assert_eq!(s.allocations, 2);
        assert_eq!(s.collections, 2);
        assert!(s.bytes_freed > 0);
    }

    #[test]
    fn pinned_page_objects_survive_conservatively() {
        // Bartlett's cost: *everything* on a pinned page survives, even
        // objects that are actually dead.
        let heap = KernelHeap::new();
        let garbage = heap.alloc(1u8).unwrap();
        let pinned = heap.alloc(2u8).unwrap(); // same page as `garbage`
        let _pin = heap.pin_ambiguous(pinned);
        heap.collect();
        assert!(heap.is_live(garbage), "same-page garbage survives a pin");
        // After the pin is dropped, the next collection reclaims both.
        drop(_pin);
        heap.collect();
        assert!(!heap.is_live(garbage));
    }
}
