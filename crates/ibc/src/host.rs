//! ICS-24 host path construction.
//!
//! Every provable IBC state item lives at a well-known path in the host's
//! commitment store. The constructors here are used both by the writing side
//! (the IBC module) and by the verifying side (the counterparty checking a
//! proof), so the two can never disagree on a key.

use std::fmt::Write as _;

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

/// The prefix every packet commitment of one channel end is stored under.
/// The trailing `/sequences/` is what keeps `channel-1` from matching
/// `channel-10`.
pub fn packet_commitment_prefix(port_id: &PortId, channel_id: &ChannelId) -> String {
    format!("commitments/ports/{port_id}/channels/{channel_id}/sequences/")
}

/// Path of a packet commitment.
pub fn packet_commitment_path(
    port_id: &PortId,
    channel_id: &ChannelId,
    sequence: Sequence,
) -> String {
    let mut path = packet_commitment_prefix(port_id, channel_id);
    // Writing to a `String` cannot fail.
    let _ = write!(path, "{sequence}");
    path
}

/// The sequence a packet-commitment path under `prefix` was written for;
/// `None` when `path` is not under `prefix` or its suffix is not a sequence.
pub fn sequence_under(prefix: &str, path: &str) -> Option<Sequence> {
    path.strip_prefix(prefix)?.parse().ok().map(Sequence)
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
    fn a_commitment_path_is_its_prefix_plus_a_sequence_that_parses_back() {
        let port = PortId::transfer();
        for index in [0, 1, 10] {
            let chan = ChannelId::with_index(index);
            let prefix = packet_commitment_prefix(&port, &chan);
            for seq in [1, 9, 10, 99, 100, u64::MAX] {
                let path = packet_commitment_path(&port, &chan, Sequence::from(seq));
                assert!(path.starts_with(&prefix), "{path} is not under {prefix}");
                assert_eq!(sequence_under(&prefix, &path), Some(Sequence::from(seq)));
            }
        }
    }

    #[test]
    fn a_channels_prefix_matches_no_other_channel_and_no_other_family() {
        let port = PortId::transfer();
        let one = ChannelId::with_index(1);
        let ten = ChannelId::with_index(10);
        let prefix = packet_commitment_prefix(&port, &one);
        // Without the trailing separator `channel-1` would be a prefix of
        // `channel-10`'s paths.
        assert_eq!(
            prefix,
            "commitments/ports/transfer/channels/channel-1/sequences/"
        );
        let seq = Sequence::from(7);
        for foreign in [
            packet_commitment_path(&port, &ten, seq),
            packet_receipt_path(&port, &one, seq),
            packet_acknowledgement_path(&port, &one, seq),
            channel_path(&port, &one),
        ] {
            assert!(!foreign.starts_with(&prefix), "{foreign}");
            assert_eq!(sequence_under(&prefix, &foreign), None);
        }
    }

    #[test]
    fn a_suffix_that_is_not_a_sequence_is_skipped_not_unwrapped() {
        let prefix = packet_commitment_prefix(&PortId::transfer(), &ChannelId::with_index(0));
        for suffix in ["", "x", "7/extra", "-1", "18446744073709551616"] {
            assert_eq!(sequence_under(&prefix, &format!("{prefix}{suffix}")), None);
        }
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
