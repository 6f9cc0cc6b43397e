//! Revision-aware block heights (ICS-02).

use std::fmt;

use serde::{Deserialize, Serialize};
use xcc_tendermint::abci::AttrValue;

/// A block height qualified by a revision number, as used by IBC clients to
/// survive chain upgrades.
///
/// # Example
///
/// ```rust
/// use xcc_ibc::height::Height;
///
/// let h = Height::new(0, 42);
/// assert!(h < Height::new(0, 43));
/// assert!(h < Height::new(1, 1));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Height {
    /// The chain revision (bumped on hard forks / upgrades).
    pub revision: u64,
    /// The block height within the revision.
    pub height: u64,
}

impl Height {
    /// Creates a height.
    pub fn new(revision: u64, height: u64) -> Self {
        Height { revision, height }
    }

    /// A height in revision zero, the common case in this workspace.
    pub fn at(height: u64) -> Self {
        Height {
            revision: 0,
            height,
        }
    }

    /// The zero height, used to mean "no timeout height".
    pub const ZERO: Height = Height {
        revision: 0,
        height: 0,
    };

    /// `true` if this is the zero sentinel.
    pub fn is_zero(&self) -> bool {
        self.revision == 0 && self.height == 0
    }

    /// Adds `n` blocks within the same revision.
    pub fn add(&self, n: u64) -> Height {
        Height {
            revision: self.revision,
            height: self.height + n,
        }
    }
}

impl fmt::Display for Height {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.revision, self.height)
    }
}

/// An event attribute holding the pair, shown as `Display` shows it.
impl From<Height> for AttrValue {
    fn from(h: Height) -> Self {
        AttrValue::Height {
            revision: h.revision,
            height: h.height,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_revision_then_height() {
        assert!(Height::new(0, 100) < Height::new(1, 1));
        assert!(Height::new(0, 5) < Height::new(0, 6));
        assert_eq!(Height::at(7), Height::new(0, 7));
    }

    #[test]
    fn zero_sentinel() {
        assert!(Height::ZERO.is_zero());
        assert!(!Height::at(1).is_zero());
    }

    #[test]
    fn arithmetic_helpers() {
        assert_eq!(Height::at(5).add(10), Height::at(15));
    }

    #[test]
    fn display_format() {
        assert_eq!(Height::new(2, 30).to_string(), "2-30");
        assert_eq!(AttrValue::from(Height::new(2, 30)).to_string(), "2-30");
    }
}
