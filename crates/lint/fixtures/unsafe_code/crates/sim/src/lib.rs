//! U1 fixture: a crate root that dropped `#![forbid(unsafe_code)]` and then
//! used what it no longer forbids.

#![warn(missing_docs)]

/// Reads past the end of nothing in particular.
pub fn first_byte(bytes: &[u8]) -> u8 {
    // SAFETY: a comment does not make this the dispatch file.
    unsafe { *bytes.get_unchecked(0) }
}
