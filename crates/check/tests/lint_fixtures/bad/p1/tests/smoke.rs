//! Names `used`, `Left`, `Gauge`, `Meter::new`, `launch` and `Carrier`;
//! `orphan`, `Unseen`, `make`, `Gauge::new`, `start` and `Probe` it never
//! names.

#[test]
fn smoke() {
    assert_eq!(kern::used(), 2);
    let _ = (kern::Left, kern::Gauge, kern::Meter::new());
    let _: Option<kern::Carrier> = None;
    assert_eq!(kern::launch::<u8>(3), 3);
}
