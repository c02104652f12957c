//! Names `user::total`.

#[test]
fn smoke() {
    assert_eq!(user::total(), 2);
}
