//! Dead-surface fixture: an integration test is not a caller.

#[test]
fn drives() {
    drive(config(), grid());
    caller();
}
