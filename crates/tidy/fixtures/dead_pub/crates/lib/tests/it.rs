#[test]
fn it() {
    assert_eq!(lib::TESTS_ONLY, 2);
    lib::waived();
}
