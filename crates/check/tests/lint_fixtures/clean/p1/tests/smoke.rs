//! The root crate's tests name `tested`, `Left` and `Right`.

#[test]
fn smoke() {
    assert_eq!(kern::tested(), 1);
    assert_eq!(kern::Left.size() + kern::Right.size(), 3);
}
