//! Dead-surface fixture: an example is a caller.

fn main() {
    drive(config(), grid());
}
