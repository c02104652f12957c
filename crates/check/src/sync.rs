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

pub use std::sync::atomic::Ordering;
pub use std::sync::{Arc, Weak};

#[cfg(not(spin_check))]
mod imp {
    pub use parking_lot::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
    pub use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU32, AtomicU64, AtomicUsize};
    pub use std::sync::OnceLock;
}

#[cfg(spin_check)]
mod imp {
    // `Condvar` is unmodeled (see `instr::Condvar`): the executor's baton
    // hand-off blocks real OS threads, which the bounded-DFS explorer never
    // does. It is here so `sched` builds under this cfg and the checks can
    // drive an `Executor` through strands that never park.
    pub use crate::instr::{
        AtomicBool, AtomicU16, AtomicU32, AtomicU64, AtomicUsize, Condvar, Mutex, MutexGuard,
        OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard,
    };
}

pub use imp::*;
