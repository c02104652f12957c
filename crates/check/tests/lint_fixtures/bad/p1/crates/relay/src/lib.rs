//! Another crate re-exports `kern::Relayed`: a `pub use` in another
//! crate's `src` does not rescue it either.

#![forbid(unsafe_code)]

pub use kern::Relayed;
