//! Identifiers used throughout the IBC protocol: clients, connections,
//! channels, ports and packet sequences.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// Validates an ICS-24 identifier: lowercase alphanumerics plus `-`, `_` and
/// `.`, between 2 and 64 characters.
fn valid_identifier(s: &str) -> bool {
    (2..=64).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || matches!(c, '-' | '_' | '.'))
}

macro_rules! identifier {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        ///
        /// The text is shared: a clone is a reference-count bump, so packets,
        /// channel ends, map keys and journal records can name a channel
        /// without copying its name.
        #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
        pub struct $name(Arc<str>);

        impl $name {
            /// Wraps a raw identifier string.
            ///
            /// # Panics
            ///
            /// Panics if the string is not a valid ICS-24 identifier.
            pub fn new(id: impl Into<Arc<str>>) -> Self {
                let id = id.into();
                assert!(valid_identifier(&id), concat!(stringify!($name), " must be a valid ICS-24 identifier, got {:?}"), id);
                $name(id)
            }

            /// The canonical counter-based identifier, e.g. `channel-0`.
            pub fn with_index(index: u64) -> Self {
                $name(format!("{}-{}", $prefix, index).into())
            }

            /// The identifier as a string slice.
            pub fn as_str(&self) -> &str {
                &self.0
            }

            /// The identifier's shared text: what an event attribute holds,
            /// for a reference-count bump instead of a copy.
            pub fn shared(&self) -> Arc<str> {
                Arc::clone(&self.0)
            }

            /// The counter of a canonical `prefix-N` identifier, if this is
            /// one (e.g. `channel-3` → `Some(3)`).
            pub fn index(&self) -> Option<u64> {
                self.0
                    .rsplit_once('-')
                    .and_then(|(_, tail)| tail.parse().ok())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.0)
            }
        }

        impl std::str::FromStr for $name {
            type Err = InvalidIdentifier;

            fn from_str(s: &str) -> Result<Self, Self::Err> {
                if valid_identifier(s) {
                    Ok($name(s.into()))
                } else {
                    Err(InvalidIdentifier { value: s.to_string() })
                }
            }
        }
    };
}

/// Error returned when parsing an invalid ICS-24 identifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidIdentifier {
    /// The rejected string.
    pub value: String,
}

impl fmt::Display for InvalidIdentifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid ICS-24 identifier: {:?}", self.value)
    }
}

impl std::error::Error for InvalidIdentifier {}

identifier!(
    /// Identifies a light client hosted on a chain (ICS-02), e.g.
    /// `07-tendermint-0`.
    ClientId,
    "07-tendermint"
);

identifier!(
    /// Identifies a connection between two chains (ICS-03), e.g.
    /// `connection-0`.
    ConnectionId,
    "connection"
);

identifier!(
    /// Identifies a channel over a connection (ICS-04), e.g. `channel-0`.
    ChannelId,
    "channel"
);

identifier!(
    /// Identifies the application module bound to a channel end, e.g.
    /// `transfer` for ICS-20 fungible token transfers.
    PortId,
    "port"
);

identifier!(
    /// Identifies a chain in a testnet topology, e.g. `ibc-0`. Chain
    /// identifiers follow the same ICS-24 character rules as the other
    /// identifiers so they can appear in client/connection metadata.
    ChainId,
    "chain"
);

impl PortId {
    /// The well-known port of the ICS-20 fungible token transfer module.
    pub fn transfer() -> Self {
        PortId("transfer".into())
    }
}

/// A packet sequence number, scoped to a (port, channel) pair and strictly
/// increasing from 1.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Sequence(pub u64);

impl Sequence {
    /// The first sequence number used on a fresh channel.
    pub const FIRST: Sequence = Sequence(1);

    /// The next sequence after this one.
    pub fn next(self) -> Sequence {
        Sequence(self.0 + 1)
    }

    /// The raw value.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Sequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Sequence {
    fn from(v: u64) -> Self {
        Sequence(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    #[test]
    fn canonical_identifiers() {
        assert_eq!(ClientId::with_index(0).as_str(), "07-tendermint-0");
        assert_eq!(ConnectionId::with_index(3).as_str(), "connection-3");
        assert_eq!(ChannelId::with_index(7).as_str(), "channel-7");
        assert_eq!(PortId::transfer().as_str(), "transfer");
    }

    #[test]
    fn parsing_accepts_valid_and_rejects_invalid() {
        assert!(ChannelId::from_str("channel-0").is_ok());
        assert!(ChannelId::from_str("C").is_err());
        assert!(ChannelId::from_str("has space").is_err());
        assert!(ChannelId::from_str("UPPER").is_err());
        let err = PortId::from_str("!").unwrap_err();
        assert!(err.to_string().contains("invalid ICS-24 identifier"));
    }

    #[test]
    fn shared_text_is_not_a_copy() {
        let channel = ChannelId::with_index(3);
        assert!(Arc::ptr_eq(&channel.shared(), &channel.0));
    }

    #[test]
    #[should_panic(expected = "valid ICS-24 identifier")]
    fn constructor_panics_on_invalid() {
        ClientId::new("");
    }

    #[test]
    fn sequences_increment() {
        let s = Sequence::FIRST;
        assert_eq!(s.value(), 1);
        assert_eq!(s.next().value(), 2);
        assert_eq!(Sequence::from(9).to_string(), "9");
    }

    #[test]
    fn identifiers_order_and_display() {
        let a = ChannelId::with_index(0);
        let b = ChannelId::with_index(1);
        assert!(a < b);
        assert_eq!(a.to_string(), "channel-0");
    }

    #[test]
    fn canonical_identifiers_expose_their_index() {
        assert_eq!(ChannelId::with_index(7).index(), Some(7));
        assert_eq!(ClientId::with_index(0).index(), Some(0));
        assert_eq!(PortId::transfer().index(), None);
        assert_eq!(ChannelId::new("mychannel").index(), None);
    }

    #[test]
    fn chain_identifiers_follow_ics24_rules() {
        assert_eq!(ChainId::new("ibc-0").as_str(), "ibc-0");
        assert_eq!(ChainId::with_index(2).as_str(), "chain-2");
        assert!(ChainId::from_str("ibc-hub").is_ok());
        assert!(ChainId::from_str("Gaia").is_err());
    }
}
