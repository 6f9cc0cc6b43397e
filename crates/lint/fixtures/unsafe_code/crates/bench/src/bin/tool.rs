//! U1 fixture: a binary root is a crate root too, and this one dropped
//! `#![forbid(unsafe_code)]`.

fn main() {}
