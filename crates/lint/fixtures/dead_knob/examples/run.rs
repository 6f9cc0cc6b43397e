//! K1 fixture: an example is a caller.

fn main() {
    drive(config(), grid());
}
