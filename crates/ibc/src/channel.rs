//! ICS-04 channel semantics: channel ends and handshake states.
//!
//! Every channel is *unordered*, as in the paper's testbed and in common
//! ICS-20 deployments: packets may be delivered in any order, and a receipt
//! per sequence records delivery.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::ids::{ChannelId, ConnectionId, PortId, Sequence};

/// The lifecycle state of a channel end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChannelState {
    /// `ChanOpenInit` executed on this chain.
    Init,
    /// `ChanOpenTry` executed on this chain.
    TryOpen,
    /// Handshake complete; packets may flow.
    Open,
    /// The channel is closed; no further packets may be sent.
    Closed,
}

/// The counterparty of a channel end.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelCounterparty {
    /// Port on the counterparty chain.
    pub port_id: PortId,
    /// Channel identifier on the counterparty chain, once known.
    pub channel_id: Option<ChannelId>,
}

/// One end of an IBC channel.
///
/// # Example
///
/// ```rust
/// use xcc_ibc::channel::{ChannelCounterparty, ChannelEnd, ChannelState};
/// use xcc_ibc::ids::{ConnectionId, PortId};
///
/// let end = ChannelEnd::new(
///     ChannelState::Open,
///     ChannelCounterparty { port_id: PortId::transfer(), channel_id: None },
///     ConnectionId::with_index(0),
/// );
/// assert!(end.is_open());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelEnd {
    /// Current handshake state.
    pub state: ChannelState,
    /// Counterparty port/channel.
    pub counterparty: ChannelCounterparty,
    /// The connection this channel runs over.
    pub connection_id: ConnectionId,
    /// Application version string (ICS-20 uses `ics20-1`), shared like the
    /// identifiers so that a handler's edit-a-copy of the end copies no text.
    pub version: Arc<str>,
    /// Next sequence number to assign to an outgoing packet.
    pub next_sequence_send: Sequence,
}

impl ChannelEnd {
    /// Creates a channel end whose first packet gets sequence 1.
    pub fn new(
        state: ChannelState,
        counterparty: ChannelCounterparty,
        connection_id: ConnectionId,
    ) -> Self {
        ChannelEnd {
            state,
            counterparty,
            connection_id,
            version: "ics20-1".into(),
            next_sequence_send: Sequence::FIRST,
        }
    }

    /// `true` once the handshake has completed on this end.
    pub fn is_open(&self) -> bool {
        self.state == ChannelState::Open
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_channel_end_defaults() {
        let end = ChannelEnd::new(
            ChannelState::Init,
            ChannelCounterparty {
                port_id: PortId::transfer(),
                channel_id: None,
            },
            ConnectionId::with_index(0),
        );
        assert!(!end.is_open());
        assert_eq!(end.next_sequence_send, Sequence::FIRST);
        assert_eq!(&*end.version, "ics20-1");
    }

    #[test]
    fn open_channel_reports_open() {
        let mut end = ChannelEnd::new(
            ChannelState::Init,
            ChannelCounterparty {
                port_id: PortId::transfer(),
                channel_id: Some(ChannelId::with_index(4)),
            },
            ConnectionId::with_index(1),
        );
        end.state = ChannelState::Open;
        assert!(end.is_open());
    }
}
