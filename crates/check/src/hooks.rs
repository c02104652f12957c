//! Hook registration primitives shared by every instrumented subsystem.
//!
//! PRs 2–4 grew three copy-pasted registration patterns: the one-shot
//! `OnceLock<ObsHook>` / `OnceLock<FaultHook>` slots scattered through
//! `core`, `net`, `rt` and `sched`, and the hand-rolled advance-hook list
//! inside `sal::Clock`. This module is the single implementation both
//! collapse onto:
//!
//! - [`HookSlot`] — a write-once slot whose *absent* path costs exactly one
//!   atomic load (the `OnceLock` presence check). Instrumented fast paths
//!   branch on `slot.get()` and pay nothing when unwired.
//! - [`HookRegistry`] — a multi-subscriber list with the same
//!   atomic-presence fast path: `is_armed()` is one relaxed load, and
//!   `snapshot()` hands back an immutable `Arc` of the subscriber list so
//!   callers invoke hooks without holding the registry lock (the pattern
//!   `Clock::advance` has used since PR 2).
//!
//! Because the types are built on [`crate::sync`], a `--cfg spin_check`
//! build swaps in the instrumented primitives and the model checker
//! explores hook registration races like any other kernel structure.

use crate::sync::{Arc, AtomicBool, AtomicU64, OnceLock, Ordering, RwLock};

/// A write-once hook slot with a single-atomic-load absent path.
///
/// `set` wins exactly once; later calls return `false` and drop the hook
/// (matching the `OnceLock::set(...).ok()` idiom the subsystems used).
pub struct HookSlot<T> {
    cell: OnceLock<T>,
}

impl<T> HookSlot<T> {
    pub fn new() -> HookSlot<T> {
        HookSlot {
            cell: OnceLock::new(),
        }
    }

    /// Installs the hook if the slot is empty. Returns `false` (and drops
    /// `hook`) if a hook was already installed.
    pub fn set(&self, hook: T) -> bool {
        self.cell.set(hook).is_ok()
    }

    /// The fast path: one atomic load when empty.
    #[inline]
    pub fn get(&self) -> Option<&T> {
        self.cell.get()
    }

    /// Whether a hook has been installed.
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.cell.get().is_some()
    }
}

impl<T> Default for HookSlot<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for HookSlot<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HookSlot")
            .field("armed", &self.is_armed())
            .finish()
    }
}

/// Identifies one subscriber in a [`HookRegistry`] for later removal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HookId(u64);

/// A multi-subscriber hook list with an atomic-presence fast path.
///
/// Readers call [`HookRegistry::snapshot`]; when no hook is registered it
/// returns `None` after a single atomic load. When hooks exist it clones
/// an `Arc` of the immutable subscriber vector, so hooks are invoked with
/// no lock held and writers never block readers mid-invocation.
pub struct HookRegistry<T> {
    entries: RwLock<Arc<Vec<(HookId, T)>>>,
    next: AtomicU64,
    armed: AtomicBool,
}

impl<T: Clone> HookRegistry<T> {
    pub fn new() -> HookRegistry<T> {
        HookRegistry {
            entries: RwLock::new(Arc::new(Vec::new())),
            next: AtomicU64::new(1),
            armed: AtomicBool::new(false),
        }
    }

    /// Registers a hook; it stays installed until [`remove`](Self::remove)d.
    pub fn add(&self, hook: T) -> HookId {
        let id = HookId(self.next.fetch_add(1, Ordering::Relaxed)); // ordering: Relaxed — id allocation only needs uniqueness, not synchronization.
        let mut entries = self.entries.write();
        let mut list = entries.as_ref().clone();
        list.push((id, hook));
        *entries = Arc::new(list);
        self.armed.store(true, Ordering::Release); // ordering: Release — pairs with the Acquire in is_armed/snapshot so a reader that sees the flag also sees the list.
        id
    }

    /// Removes one hook. Returns `false` if the id was never registered
    /// or was already removed.
    pub fn remove(&self, id: HookId) -> bool {
        let mut entries = self.entries.write();
        let before = entries.len();
        if before == 0 {
            return false;
        }
        let list: Vec<(HookId, T)> = entries.iter().filter(|(h, _)| *h != id).cloned().collect();
        let removed = list.len() != before;
        if removed {
            if list.is_empty() {
                self.armed.store(false, Ordering::Release); // ordering: Release — disarm before publishing the empty list; a stale armed=true only costs a snapshot of an empty vec.
            }
            *entries = Arc::new(list);
        }
        removed
    }

    /// The fast path: one atomic load when nothing is registered.
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Acquire) // ordering: Acquire — pairs with the Release in add; seeing true implies the list write is visible.
    }

    /// An immutable snapshot of the subscriber list, or `None` (after one
    /// atomic load) when the registry is empty.
    pub fn snapshot(&self) -> Option<Arc<Vec<(HookId, T)>>> {
        if !self.is_armed() {
            return None;
        }
        let snap = self.entries.read().clone();
        if snap.is_empty() {
            None
        } else {
            Some(snap)
        }
    }

    /// Number of registered hooks (slow path; takes the lock).
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    pub fn is_empty(&self) -> bool {
        !self.is_armed()
    }
}

impl<T: Clone> Default for HookRegistry<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for HookRegistry<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HookRegistry")
            .field("armed", &self.armed.load(Ordering::Relaxed)) // ordering: Relaxed — debug output, not a synchronization point.
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_sets_once() {
        let slot: HookSlot<u32> = HookSlot::new();
        assert!(!slot.is_armed());
        assert!(slot.get().is_none());
        assert!(slot.set(7));
        assert!(!slot.set(8), "second set loses");
        assert_eq!(slot.get(), Some(&7));
        assert!(slot.is_armed());
    }

    #[test]
    fn registry_add_remove_snapshot() {
        let reg: HookRegistry<u32> = HookRegistry::new();
        assert!(reg.snapshot().is_none());
        let a = reg.add(1);
        let b = reg.add(2);
        assert_eq!(reg.len(), 2);
        let snap = reg.snapshot().expect("armed");
        assert_eq!(snap.iter().map(|(_, v)| *v).collect::<Vec<_>>(), vec![1, 2]);
        assert!(reg.remove(a));
        assert!(!reg.remove(a), "double remove");
        assert_eq!(reg.snapshot().expect("still armed").len(), 1);
        assert!(reg.remove(b));
        assert!(reg.snapshot().is_none(), "disarmed when empty");
        assert!(reg.is_empty());
    }
}
