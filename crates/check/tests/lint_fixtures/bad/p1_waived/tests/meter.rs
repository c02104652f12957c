//! Names `wall_ns` only.

#[test]
fn meter_api() {
    let _ = meter::wall_ns();
}
