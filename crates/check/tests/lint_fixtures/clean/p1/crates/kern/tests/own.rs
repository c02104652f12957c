//! The crate's own integration tests link it as an outside crate.

#[test]
fn own() {
    assert_eq!(kern::own_tested(), 5);
}
