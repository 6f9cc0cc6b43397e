//! U1 fixture: the one crate root that says `deny`, so that its kernel
//! dispatch can `expect` the lint on its one `unsafe` block.

#![deny(unsafe_code)]
