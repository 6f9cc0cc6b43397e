//! U1 fixture: a crate root that dropped `#![forbid(unsafe_code)]`.

#![warn(missing_docs)]

/// The first byte, in safe code: U1 reads the root's lint level, not the
/// code under it.
pub fn first_byte(bytes: &[u8]) -> Option<u8> {
    bytes.first().copied()
}
