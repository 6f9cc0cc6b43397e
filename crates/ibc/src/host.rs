//! ICS-24 host path construction.
//!
//! Every provable IBC state item lives at a well-known path in the host's
//! commitment store. The constructors here are used both by the writing side
//! (the IBC module) and by the verifying side (the counterparty checking a
//! proof), so the two can never disagree on a key.

use crate::height::Height;
use crate::ids::{ChannelId, ClientId, ConnectionId, PortId, Sequence};

/// Path of a client's client state.
pub fn client_state_path(client_id: &ClientId) -> String {
    format!("clients/{client_id}/clientState")
}

/// Path of a client's consensus state at a height.
pub fn consensus_state_path(client_id: &ClientId, height: Height) -> String {
    format!("clients/{client_id}/consensusStates/{height}")
}

/// Path of a connection end.
pub fn connection_path(connection_id: &ConnectionId) -> String {
    format!("connections/{connection_id}")
}

/// Path of a channel end.
pub fn channel_path(port_id: &PortId, channel_id: &ChannelId) -> String {
    format!("channelEnds/ports/{port_id}/channels/{channel_id}")
}

/// Path of a packet commitment.
pub fn packet_commitment_path(
    port_id: &PortId,
    channel_id: &ChannelId,
    sequence: Sequence,
) -> String {
    format!("commitments/ports/{port_id}/channels/{channel_id}/sequences/{sequence}")
}

/// Path of a packet receipt (unordered channels).
pub fn packet_receipt_path(port_id: &PortId, channel_id: &ChannelId, sequence: Sequence) -> String {
    format!("receipts/ports/{port_id}/channels/{channel_id}/sequences/{sequence}")
}

/// Path of a packet acknowledgement commitment.
pub fn packet_acknowledgement_path(
    port_id: &PortId,
    channel_id: &ChannelId,
    sequence: Sequence,
) -> String {
    format!("acks/ports/{port_id}/channels/{channel_id}/sequences/{sequence}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_are_namespaced_and_distinct() {
        let port = PortId::transfer();
        let chan = ChannelId::with_index(0);
        let seq = Sequence::from(5);
        let paths = [
            client_state_path(&ClientId::with_index(0)),
            consensus_state_path(&ClientId::with_index(0), Height::at(10)),
            connection_path(&ConnectionId::with_index(0)),
            channel_path(&port, &chan),
            packet_commitment_path(&port, &chan, seq),
            packet_receipt_path(&port, &chan, seq),
            packet_acknowledgement_path(&port, &chan, seq),
        ];
        let mut sorted = paths;
        sorted.sort();
        assert!(
            sorted.windows(2).all(|pair| pair[0] != pair[1]),
            "store paths must be pairwise distinct: {sorted:?}"
        );
    }

    #[test]
    fn commitment_paths_follow_ics24_shape() {
        assert_eq!(
            packet_commitment_path(
                &PortId::transfer(),
                &ChannelId::with_index(0),
                Sequence::from(1)
            ),
            "commitments/ports/transfer/channels/channel-0/sequences/1"
        );
        assert_eq!(
            packet_acknowledgement_path(
                &PortId::transfer(),
                &ChannelId::with_index(3),
                Sequence::from(7)
            ),
            "acks/ports/transfer/channels/channel-3/sequences/7"
        );
    }
}
