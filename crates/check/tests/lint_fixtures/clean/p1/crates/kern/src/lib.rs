//! P1-clean fixture: every plain `pub` item is named from another file,
//! skipped as a colliding name, kept by the fixpoint, or exempt. The
//! `pub use` below names `square` and `Area` but is no use of them:
//! `perf/src` and `tests/` are.

#![forbid(unsafe_code)]

mod shapes;

pub use shapes::{square, Area};

/// Named by the root crate's `tests/`.
pub fn tested() -> u64 {
    1
}

/// Named only from `perf/src`, which builds against the crates.
pub fn measured() -> u64 {
    2
}

/// Named by `shapes.rs`, another file of this crate.
pub const SIDES: u32 = 4;

/// Named by `tests/`; each has a `size`, declared twice in this file and
/// so skipped, not guessed.
pub struct Left;
pub struct Right;

impl Left {
    pub fn size(&self) -> u32 {
        1
    }
}

impl Right {
    pub fn size(&self) -> u32 {
        2
    }
}

/// An interface the paper describes, kept without a caller.
// paper: the fixture's described interface.
pub fn described() -> u64 {
    3
}
