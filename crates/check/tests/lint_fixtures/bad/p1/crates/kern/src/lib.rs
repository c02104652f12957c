//! P1 fixture: `orphan` is named only by this file's own tests and
//! `Unseen` only by `orphan`'s signature, so both fire (lines 9 and 14),
//! and so does `Relayed` in `relayed.rs`, which only `pub use`s name. A
//! `///` doc line is not the `// paper:` exemption.

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

mod relayed;

pub use relayed::Relayed;

#[cfg(test)]
mod tests {
    #[test]
    fn orphan_builds() {
        let _ = super::orphan();
    }
}
