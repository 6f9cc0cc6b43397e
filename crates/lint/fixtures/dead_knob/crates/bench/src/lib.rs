//! K1 fixture: crates outside the seven simulation crates are out of scope.

pub fn unscoped_fn() {}
