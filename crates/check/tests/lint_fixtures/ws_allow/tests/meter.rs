//! Names the fixture measurement crate's API: its `*` entry waives every
//! rule but P1.

#[test]
fn meter_api() {
    let _ = meter::wall_ns();
}
