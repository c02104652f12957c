//! Shared names. `make` is declared twice and no other crate names it,
//! so both fire (lines 12 and 19), and so does `Ghost` (line 6), which
//! only their signatures name. `Gauge::new` fires too (line 28): the root
//! tests call `Meter::new`, another type's `new`, and a function without
//! `self` is called from another crate only by its type's path.
pub struct Ghost;

pub struct Left;

impl Left {
    /// Named by no other crate.
    pub fn make(&self) -> Ghost {
        Ghost
    }
}

impl crate::Unseen {
    /// The second `make`: the name is shared, and still nobody calls it.
    pub fn make(&self) -> Ghost {
        Ghost
    }
}

pub struct Gauge;

impl Gauge {
    /// Only `Meter::new` is called outside this crate.
    pub fn new() -> Gauge {
        Gauge
    }
}

pub struct Meter;

impl Meter {
    pub fn new() -> Meter {
        Meter
    }
}
