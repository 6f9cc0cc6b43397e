//! Errors produced by IBC handlers.

use crate::height::Height;
use crate::ids::{ChannelId, ClientId, ConnectionId, PortId, Sequence};

/// Errors raised by the IBC core and application handlers.
#[derive(Debug, Clone, PartialEq)]
pub enum IbcError {
    /// A referenced client does not exist.
    ClientNotFound {
        /// The missing client.
        client_id: ClientId,
    },
    /// A referenced connection does not exist.
    ConnectionNotFound {
        /// The missing connection.
        connection_id: ConnectionId,
    },
    /// A referenced channel does not exist.
    ChannelNotFound {
        /// Port of the missing channel.
        port_id: PortId,
        /// The missing channel.
        channel_id: ChannelId,
    },
    /// The channel (or connection) is not in the state the handler requires.
    InvalidState {
        /// Description of the expected versus actual state.
        reason: String,
    },
    /// The light client rejected a header update.
    ClientUpdateFailed {
        /// Underlying verification failure.
        reason: String,
    },
    /// The light client's trust period has lapsed: updates and proof
    /// verification are permanently rejected until out-of-band recovery
    /// (governance-style client substitution, which the simulation does not
    /// model). Injected by the `ClientExpiry` fault event.
    ClientExpired {
        /// The expired client.
        client_id: ClientId,
    },
    /// The client has no consensus state at the height a proof refers to.
    ConsensusStateNotFound {
        /// The client queried.
        client_id: ClientId,
        /// The missing height.
        height: Height,
    },
    /// A proof failed verification.
    InvalidProof {
        /// What the proof was supposed to demonstrate.
        context: String,
    },
    /// The packet has already been relayed; re-delivery is redundant.
    ///
    /// Hermes reports this as "packet messages are redundant" — the error the
    /// paper observes thousands of times when two uncoordinated relayers
    /// serve the same channel (§IV-A).
    PacketAlreadyReceived {
        /// Sequence of the redundant packet.
        sequence: Sequence,
    },
    /// The acknowledgement has already been processed on the sending chain.
    PacketAlreadyAcknowledged {
        /// Sequence of the redundant acknowledgement.
        sequence: Sequence,
    },
    /// No commitment exists for the packet being acknowledged or timed out.
    PacketCommitmentNotFound {
        /// Sequence of the unknown packet.
        sequence: Sequence,
    },
    /// The commitment stored on-chain does not match the packet supplied.
    PacketCommitmentMismatch {
        /// Sequence of the mismatched packet.
        sequence: Sequence,
    },
    /// The packet has timed out and can no longer be received.
    PacketTimedOut {
        /// Sequence of the expired packet.
        sequence: Sequence,
        /// The timeout height carried by the packet.
        timeout_height: Height,
    },
    /// Timeout was claimed for a packet that has not actually timed out.
    TimeoutNotReached {
        /// Sequence of the packet.
        sequence: Sequence,
    },
    /// An ICS-20 application error (bad denomination, insufficient funds…).
    Transfer {
        /// Description of the failure.
        reason: String,
    },
}

impl std::fmt::Display for IbcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IbcError::ClientNotFound { client_id } => write!(f, "client {client_id} not found"),
            IbcError::ConnectionNotFound { connection_id } => {
                write!(f, "connection {connection_id} not found")
            }
            IbcError::ChannelNotFound {
                port_id,
                channel_id,
            } => {
                write!(f, "channel {port_id}/{channel_id} not found")
            }
            IbcError::InvalidState { reason } => write!(f, "invalid state: {reason}"),
            IbcError::ClientUpdateFailed { reason } => write!(f, "client update failed: {reason}"),
            IbcError::ClientExpired { client_id } => {
                write!(f, "client {client_id} expired: trust period lapsed")
            }
            IbcError::ConsensusStateNotFound { client_id, height } => {
                write!(
                    f,
                    "no consensus state for client {client_id} at height {height}"
                )
            }
            IbcError::InvalidProof { context } => write!(f, "invalid proof: {context}"),
            IbcError::PacketAlreadyReceived { sequence } => {
                write!(
                    f,
                    "packet messages are redundant: sequence {sequence} already received"
                )
            }
            IbcError::PacketAlreadyAcknowledged { sequence } => {
                write!(
                    f,
                    "packet messages are redundant: sequence {sequence} already acknowledged"
                )
            }
            IbcError::PacketCommitmentNotFound { sequence } => {
                write!(f, "packet commitment not found for sequence {sequence}")
            }
            IbcError::PacketCommitmentMismatch { sequence } => {
                write!(f, "packet commitment mismatch for sequence {sequence}")
            }
            IbcError::PacketTimedOut {
                sequence,
                timeout_height,
            } => {
                write!(f, "packet {sequence} timed out at height {timeout_height}")
            }
            IbcError::TimeoutNotReached { sequence } => {
                write!(f, "packet {sequence} has not timed out yet")
            }
            IbcError::Transfer { reason } => write!(f, "transfer failed: {reason}"),
        }
    }
}

impl std::error::Error for IbcError {}

/// The ABCI code of a receive or acknowledgement some relayer already
/// delivered: ibc-go's "packet messages are redundant" (§IV-A).
pub const CODE_REDUNDANT_PACKET: u32 = 410;

impl IbcError {
    /// The `DeliverTx` code of a message that failed with this error: 2xx
    /// clients, 3xx connections, 4xx channels and packets, 5xx ICS-20.
    pub fn code(&self) -> u32 {
        match self {
            IbcError::ClientNotFound { .. } => 201,
            IbcError::ClientUpdateFailed { .. } => 202,
            IbcError::ClientExpired { .. } => 203,
            IbcError::ConsensusStateNotFound { .. } => 204,
            IbcError::ConnectionNotFound { .. } => 301,
            IbcError::ChannelNotFound { .. } => 401,
            IbcError::InvalidState { .. } => 402,
            IbcError::InvalidProof { .. } => 403,
            IbcError::PacketCommitmentNotFound { .. } => 404,
            IbcError::PacketCommitmentMismatch { .. } => 405,
            IbcError::PacketTimedOut { .. } => 406,
            IbcError::TimeoutNotReached { .. } => 407,
            IbcError::PacketAlreadyReceived { .. } | IbcError::PacketAlreadyAcknowledged { .. } => {
                CODE_REDUNDANT_PACKET
            }
            IbcError::Transfer { .. } => 501,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redundant_packet_error_uses_hermes_wording() {
        let err = IbcError::PacketAlreadyReceived {
            sequence: Sequence::from(5),
        };
        assert!(err.to_string().contains("packet messages are redundant"));
    }

    #[test]
    fn display_covers_key_variants() {
        let errors = [
            IbcError::ClientNotFound {
                client_id: ClientId::with_index(0),
            }
            .to_string(),
            IbcError::ChannelNotFound {
                port_id: PortId::transfer(),
                channel_id: ChannelId::with_index(2),
            }
            .to_string(),
            IbcError::PacketTimedOut {
                sequence: Sequence::from(9),
                timeout_height: Height::at(100),
            }
            .to_string(),
            IbcError::Transfer {
                reason: "insufficient funds".into(),
            }
            .to_string(),
        ];
        assert!(errors[0].contains("07-tendermint-0"));
        assert!(errors[1].contains("transfer/channel-2"));
        assert!(errors[2].contains("timed out"));
        assert!(errors[3].contains("insufficient funds"));
    }

    #[test]
    fn expired_client_error_names_the_client_and_cause() {
        let err = IbcError::ClientExpired {
            client_id: ClientId::with_index(1),
        };
        let text = err.to_string();
        assert!(text.contains("07-tendermint-1"));
        assert!(text.contains("trust period lapsed"));
    }
}
