//! Binding names: `start` (line 9) and `Probe` (line 14) fire. The live
//! `launch` binds a parameter named `start` and a generic named `Probe`,
//! and the live `Carrier` a field named `start`; a name followed by a
//! lone `:` is a binding, not a use, so neither keeps its namesake
//! alive.

/// Named by no other crate, and by no signature: only by the bindings
/// below.
pub fn start() -> u32 {
    1
}

/// Named by no other crate: only a generic below is called `Probe`.
pub struct Probe;

pub fn launch<Probe: Copy>(start: u32) -> u32 {
    start
}

pub struct Carrier {
    pub start: u32,
}
