//! P1-clean fixture: every plain `pub` item is named from outside its
//! crate, skipped as a colliding name, kept by the fixpoint, or exempt.
//! The `pub use` below names `square`, `corner` and `Area` but is no use
//! of them: `perf/src` and `tests/` are.

#![forbid(unsafe_code)]

mod shapes;

pub use shapes::{corner, square, Area};

/// Named by the root crate's `tests/`.
pub fn tested() -> u64 {
    1
}

/// Named only from `perf/src`, which builds against the crates.
pub fn measured() -> u64 {
    2
}

/// Named only by this crate's own `tests/`, which build against it from
/// outside.
pub fn own_tested() -> u64 {
    5
}

/// Named only by `src/bin/tool.rs`, a crate of its own.
pub fn for_the_bin() -> u64 {
    6
}

/// Named by no other crate: the fixpoint keeps it because the signature
/// of `corner` in `shapes.rs`, which `perf/src` names, mentions it.
pub struct Corner;

/// Named by `tests/`. Its field keeps `Second`, which only the field's
/// second type argument names.
pub struct Holder {
    pub pair: Result<u8, Second>,
}

pub struct Second;

/// Named by `tests/`; each has a `size`, declared twice in this file and
/// named by `tests/`, so kept, and counted as kept only by a shared name.
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

/// Named by `tests/` through its path, the only way another crate can call
/// a function that takes no `self`.
pub struct Dial;

impl Dial {
    pub fn new() -> Dial {
        Dial
    }
}
