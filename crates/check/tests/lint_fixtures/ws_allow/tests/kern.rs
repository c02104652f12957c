//! Names the fixture kernel's API, so P1 is silent on it.

#[test]
fn kern_api() {
    assert_eq!(kern::double(kern::ring::first(&[2])), 4);
}
