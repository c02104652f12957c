//! P1 fixture: `orphan` is named only by this file's own tests and
//! `Unseen` only by `orphan`'s signature, so both fire (lines 11 and 16).
//! So does `sibling` (line 24), which only `relayed.rs`, a module of
//! this crate, calls; and in `relayed.rs`, `Relayed`, which only
//! `pub use`s name, and `Internal`, re-exported below but named only
//! inside this crate. A `///` doc line is not the `// paper:` exemption.

#![forbid(unsafe_code)]

/// paper: a doc comment does not exempt.
pub fn orphan() -> Unseen {
    Unseen
}

/// Kept by nothing: the one signature naming it is dead.
pub struct Unseen;

/// Named from the root crate's `tests/`, so live.
pub fn used() -> u32 {
    2
}

/// Called only from `relayed.rs`: a caller in the same crate is no caller.
pub fn sibling() -> u32 {
    3
}

mod relayed;

pub use relayed::{Internal, Relayed};

mod shared;

pub use shared::{Gauge, Ghost, Left, Meter};

mod binding;

pub use binding::{launch, start, Carrier, Probe};

fn internal() -> Internal {
    Internal
}

#[cfg(test)]
mod tests {
    #[test]
    fn orphan_builds() {
        let _ = super::orphan();
        let _ = super::internal();
    }
}
