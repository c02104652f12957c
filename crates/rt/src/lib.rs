//! `spin-rt` — the Modula-3 runtime analogue for the SPIN reproduction.
//!
//! The paper's `rt` component is "a version of the DEC SRC Modula-3 runtime
//! system that supports automatic memory management and exception
//! processing" (§5.1). Its role in the architecture is safety-critical:
//!
//! > "An extensible system cannot depend on the correctness of unprivileged
//! > clients for its memory integrity. [...] SPIN uses a trace-based,
//! > mostly-copying garbage collector to safely reclaim memory resources.
//! > The collector serves as a safety net for untrusted extensions." (§5.5)
//!
//! This crate implements that collector: a Bartlett-style **mostly-copying**
//! semispace collector over a paged kernel heap. Objects referenced only by
//! *exact* roots are copied (compacted) into the new space; pages referenced
//! by *ambiguous* roots (the analogue of conservatively-scanned stacks and
//! registers) are **pinned** and promoted in place. Exception processing is
//! Rust's `Result`, so no analogue is needed.
//!
//! There is deliberately no `free`: as in SPIN, resources released by an
//! extension "either through inaction or as a result of premature
//! termination, are eventually reclaimed" by collection, and a stale
//! reference can never observe an object of a different type — it observes
//! a checked [`GcError::Dangling`] instead.

#![forbid(unsafe_code)]

mod heap;
mod trace;

pub use heap::{AmbiguousPin, CollectionStats, Gc, GcError, HeapStats, KernelHeap, Root};
pub use trace::{Trace, Tracer};
