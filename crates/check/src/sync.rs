//! The sync facade the kernel's concurrency-critical crates import from.
//!
//! Normal builds re-export the real primitives verbatim — the facade
//! compiles to *nothing* (same types, same codegen), which the bench
//! goldens verify byte-for-byte. Under `--cfg spin_check` (set via
//! `RUSTFLAGS` by `scripts/verify.sh`) the same names resolve to the
//! instrumented types in [`crate::instr`], and every atomic access, lock
//! acquisition and `OnceLock` touch becomes a schedule point of the
//! bounded-DFS explorer in [`crate::model`].
//!
//! The `spin-lint` gate (rule F1) enforces that every kernel crate
//! imports these names rather than `std::sync::atomic` / `parking_lot`
//! directly, so new concurrent code cannot silently bypass the checker.
//!
//! A count or an id that publishes nothing is a [`Counter`], the one type
//! here that is not a std name: its `Relaxed` accesses are justified once,
//! below, so every `Ordering::` left at a call site names a pairing. The
//! facade mirrors only the atomics some crate calls.

pub use std::sync::atomic::Ordering;
pub use std::sync::{Arc, Weak};

#[cfg(not(spin_check))]
mod imp {
    pub use parking_lot::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
    pub use std::sync::OnceLock;
}

#[cfg(spin_check)]
mod imp {
    // `Condvar` is unmodeled (see `instr::Condvar`): the executor's baton
    // hand-off blocks real OS threads, which the bounded-DFS explorer never
    // does. It is here so `sched` builds under this cfg and the checks can
    // drive an `Executor` through strands that never park.
    pub use crate::instr::{
        AtomicBool, AtomicU64, AtomicUsize, Condvar, Mutex, MutexGuard, OnceLock, RwLock,
        RwLockReadGuard, RwLockWriteGuard,
    };
}

pub use imp::*;

/// A `u64` count that publishes nothing: a statistic, a test's tally, an
/// id or sequence-number allocator. Nobody learns anything else from
/// reading it, so every access is `Relaxed` — a reader takes a snapshot,
/// an allocator needs only that no two adds return the same value (a
/// read-modify-write gives that at any ordering), and whatever a reader
/// must see besides the count is ordered by a lock, a join or the end of
/// a run. A value that does publish something (a length a lock-free
/// reader trusts, a flag, a clock) is not a `Counter`: it stays an atomic
/// whose every access names its pairing. A narrower sequence (a `u16`
/// ping number, a `u32` port or ISN) is the count truncated to its width,
/// the same sequence its wrapping atomic produced.
///
/// It is one [`AtomicU64`] of this facade, so a `--cfg spin_check` build
/// instruments it as it does the atomic, operation for operation.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A count starting at `start`.
    #[inline]
    pub const fn new(start: u64) -> Counter {
        Counter(AtomicU64::new(start))
    }

    /// Adds `n`. Adding zero touches nothing: most of a raise's counts
    /// move by zero on most raises, and a `lock xadd` of zero costs what
    /// one of one does.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            // ordering: Relaxed — a count publishes nothing (see the type's doc).
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds `n` and returns the count before it: an allocator's next id.
    #[inline]
    pub fn fetch_add(&self, n: u64) -> u64 {
        // ordering: Relaxed — a count publishes nothing (see the type's doc).
        self.0.fetch_add(n, Ordering::Relaxed)
    }

    /// The count now.
    #[inline]
    pub fn get(&self) -> u64 {
        // ordering: Relaxed — a count publishes nothing (see the type's doc).
        self.0.load(Ordering::Relaxed)
    }
}
