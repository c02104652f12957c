//! Names `used`; `orphan` and `Unseen` it never names.

#[test]
fn smoke() {
    assert_eq!(kern::used(), 2);
}
