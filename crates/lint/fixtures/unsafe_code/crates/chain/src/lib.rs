//! U1 fixture: a clean crate root.

#![forbid(unsafe_code)]

pub fn label() -> &'static str {
    "nothing unsafe here"
}
