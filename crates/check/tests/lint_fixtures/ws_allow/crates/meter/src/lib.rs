//! Fixture measurement crate: waived by the `rule = "*"` entry, so its
//! by-design wall-clock reads produce no findings. P1 still holds here,
//! and the root `tests/` name its one item.

pub fn wall_ns() -> u128 {
    std::time::Instant::now().elapsed().as_nanos()
}
