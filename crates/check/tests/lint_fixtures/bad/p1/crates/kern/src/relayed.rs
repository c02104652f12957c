//! Named only by the crate root's `pub use` and another crate's: a
//! re-export is not a use, so `Relayed` fires (line 4).

pub struct Relayed;
