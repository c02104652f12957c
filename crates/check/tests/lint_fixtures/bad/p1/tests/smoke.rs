//! Names `used`, `Left`, `Gauge` and `Meter::new`; `orphan`, `Unseen`,
//! `make` and `Gauge::new` it never names.

#[test]
fn smoke() {
    assert_eq!(kern::used(), 2);
    let _ = (kern::Left, kern::Gauge, kern::Meter::new());
}
