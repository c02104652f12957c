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
//! - [`HookRegistry`] — a multi-subscriber list a reader walks with loads
//!   only: an append-only chain of write-once nodes, so
//!   [`HookRegistry::for_each`] takes no lock, bumps no refcount and
//!   allocates nothing, and each hook runs with no lock held. `is_armed()`
//!   is one load of the live count. `Clock::advance` pays this on every
//!   charge of every packet, which is why it is not an `RwLock<Arc<Vec>>`
//!   (three locked read-modify-writes per walk) any more — see DESIGN.md
//!   decision 18.
//!
//! Because the types are built on [`crate::sync`], a `--cfg spin_check`
//! build swaps in the instrumented primitives and the model checker
//! explores hook registration races like any other kernel structure.

use crate::sync::{AtomicBool, AtomicUsize, Mutex, OnceLock, Ordering};

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
    pub(crate) fn is_armed(&self) -> bool {
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

/// One subscription: written once when it is linked, never moved or freed
/// while the registry lives, so a walker needs nothing but loads to read it.
struct Node<T> {
    id: HookId,
    hook: T,
    /// Tombstone set by [`HookRegistry::remove`]; a walker skips the node.
    removed: AtomicBool,
    next: OnceLock<Box<Node<T>>>,
}

/// A multi-subscriber hook list whose readers only load.
///
/// The subscribers are an append-only chain of write-once nodes in
/// installation order. [`HookRegistry::for_each`] walks it with one load
/// of the live count, then one `OnceLock` load and one tombstone load per
/// node — no lock, no refcount, no allocation — and calls each hook with
/// nothing held, so a hook may block or deschedule its caller. Writers
/// (`add`, `remove`) serialise on a mutex readers never touch.
///
/// The one trade: `remove` tombstones its node instead of unlinking it, so
/// a removed hook (and what its closure captured) stays allocated until
/// the registry drops. That is bounded by the subscriptions ever made on
/// the registry — for a clock, the executors and observers ever built on
/// it — not by the number of charges.
pub struct HookRegistry<T> {
    head: OnceLock<Box<Node<T>>>,
    /// The next [`HookId`]; holding it is what serialises writers.
    next_id: Mutex<u64>,
    /// Subscriptions linked and not removed: the presence flag.
    live: AtomicUsize,
}

impl<T> HookRegistry<T> {
    pub fn new() -> HookRegistry<T> {
        HookRegistry {
            head: OnceLock::new(),
            next_id: Mutex::new(1),
            live: AtomicUsize::new(0),
        }
    }

    /// Registers a hook after every hook already registered; it stays
    /// installed until [`remove`](Self::remove)d.
    pub fn add(&self, hook: T) -> HookId {
        let mut next_id = self.next_id.lock();
        let id = HookId(*next_id);
        *next_id += 1;
        // Planted bug for the model checker (`--cfg spin_check_mutant`):
        // counting the subscription live before its node is linked lets a
        // reader see the registry armed and then walk a chain that does
        // not hold the hook yet. `registry_armed_implies_walk_finds_the_hook`
        // must catch this.
        #[cfg(spin_check_mutant)]
        self.live.fetch_add(1, Ordering::Release); // ordering: Release — the planted bug keeps the trunk's ordering; only its position is wrong.
        let mut tail = &self.head;
        while let Some(node) = tail.get() {
            tail = &node.next;
        }
        let node = Box::new(Node {
            id,
            hook,
            removed: AtomicBool::new(false),
            next: OnceLock::new(),
        });
        assert!(
            tail.set(node).is_ok(),
            "the writer lock makes this the only appender"
        );
        #[cfg(not(spin_check_mutant))]
        self.live.fetch_add(1, Ordering::Release); // ordering: Release — pairs with the Acquire in is_armed: a reader that sees the count also sees the linked node.
        id
    }

    /// Removes one hook: a walk that starts after this returns does not
    /// call it. Returns `false` if the id was never registered or was
    /// already removed.
    pub fn remove(&self, id: HookId) -> bool {
        let _writer = self.next_id.lock();
        let mut cur = self.head.get();
        while let Some(node) = cur {
            if node.id == id {
                // ordering: Release — pairs with the Acquire in for_each; what the remover did before is visible to a walker that skips the node.
                let was_removed = node.removed.swap(true, Ordering::Release);
                if !was_removed {
                    self.live.fetch_sub(1, Ordering::Release); // ordering: Release — after the tombstone: a stale nonzero count only costs a walk that skips the node.
                }
                return !was_removed;
            }
            cur = node.next.get();
        }
        false
    }

    /// The fast path: one atomic load when nothing is registered.
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.live.load(Ordering::Acquire) != 0 // ordering: Acquire — pairs with the Release in add; seeing the count implies the node's link is visible.
    }

    /// Calls `f` on every registered hook, in installation order, with no
    /// lock held — one load and nothing else when the registry is empty.
    /// A hook added or removed while the walk runs is called at most once.
    #[inline]
    pub fn for_each(&self, mut f: impl FnMut(&T)) {
        if !self.is_armed() {
            return;
        }
        let mut cur = self.head.get();
        while let Some(node) = cur {
            // ordering: Acquire — pairs with the Release in remove.
            if !node.removed.load(Ordering::Acquire) {
                f(&node.hook);
            }
            cur = node.next.get();
        }
    }

    pub fn is_empty(&self) -> bool {
        !self.is_armed()
    }
}

impl<T> Drop for HookRegistry<T> {
    fn drop(&mut self) {
        // Unlink node by node: the derived drop would recurse once per
        // subscription ever made.
        let mut next = self.head.take();
        while let Some(mut node) = next {
            next = node.next.take();
        }
    }
}

impl<T> Default for HookRegistry<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for HookRegistry<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HookRegistry")
            .field("live", &self.live.load(Ordering::Relaxed)) // ordering: Relaxed — debug output, not a synchronization point.
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

    fn walk(reg: &HookRegistry<u32>) -> Vec<u32> {
        let mut seen = Vec::new();
        reg.for_each(|v| seen.push(*v));
        seen
    }

    #[test]
    fn registry_add_remove_walk() {
        let reg: HookRegistry<u32> = HookRegistry::new();
        assert!(reg.is_empty());
        assert!(walk(&reg).is_empty());
        let a = reg.add(1);
        let b = reg.add(2);
        assert_ne!(a, b);
        assert_eq!(walk(&reg), vec![1, 2], "installation order");
        assert!(reg.remove(a));
        assert!(!reg.remove(a), "double remove");
        assert_eq!(walk(&reg), vec![2]);
        assert!(reg.is_armed(), "still armed");
        let c = reg.add(3);
        assert_eq!(walk(&reg), vec![2, 3], "appended past a tombstone");
        assert!(reg.remove(b));
        assert!(reg.remove(c));
        assert!(walk(&reg).is_empty());
        assert!(reg.is_empty(), "disarmed when empty");
    }

    #[test]
    fn a_long_chain_drops_without_recursing() {
        // One stack frame per node would not fit this thread's stack.
        let small = std::thread::Builder::new().stack_size(32 * 1024);
        let body = || {
            let reg: HookRegistry<u64> = HookRegistry::new();
            for i in 0..10_000 {
                let id = reg.add(i);
                assert!(reg.remove(id));
            }
            assert!(reg.is_empty());
        };
        small
            .spawn(body)
            .expect("spawn")
            .join()
            .expect("dropped iteratively");
    }
}
