//! Named only by the crate root's `pub use` and another crate's: a
//! re-export is not a use, so `Relayed` fires (line 5), and so does
//! `Internal` (line 8), which the root re-exports and only this crate names.

pub struct Relayed;

/// The crate root re-exports it, but no other crate names it.
pub struct Internal;

pub(crate) fn relay() -> u32 {
    crate::sibling()
}
