//! P1 fixture under a `*` entry: the wall-clock read is waived, but
//! `stale`, which nothing outside this crate names, fires (line 11).

/// Named from the root crate's `tests/`, so live.
pub fn wall_ns() -> u128 {
    std::time::Instant::now().elapsed().as_nanos()
}

/// Named by nothing: the `*` entry does not waive P1.
#[allow(dead_code)]
pub fn stale() -> u32 {
    4
}
