//! The root crate's tests name `tested`, `Holder`, `Left`, `Right` and
//! `Dial::new`, and import the `Area` trait to call its method.

use kern::Area;

#[test]
fn smoke() {
    assert_eq!(kern::tested(), 1);
    assert!(kern::Holder { pair: Ok(1) }.pair.is_ok());
    assert_eq!(kern::Left.size() + kern::Right.size(), 3);
    assert_eq!(kern::square().area(), 4);
    let _ = kern::Dial::new();
}
