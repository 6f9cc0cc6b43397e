//! U1 fixture: the one crate root that says `deny`, so that its dispatch
//! file's single `allow` compiles.

#![deny(unsafe_code)]

mod sha_ni;
