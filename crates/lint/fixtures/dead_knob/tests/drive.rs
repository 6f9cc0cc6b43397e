//! K1 fixture: an integration test is a caller.

#[test]
fn drives() {
    drive(config(), grid());
    caller();
}
