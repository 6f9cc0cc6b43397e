//! ICS-24 host path construction.
//!
//! Every provable IBC state item lives at a well-known path in the host's
//! commitment store. The constructors here are used both by the writing side
//! (the IBC module) and by the verifying side (the counterparty checking a
//! proof), so the two can never disagree on a key.
//!
//! A store keeps its keys to the end of a run, so each constructor writes
//! its path into a `String` of exactly the path's length: `format!` would
//! reserve an estimate (twice the literal text) instead, and the key would
//! carry the difference.

use std::fmt::Write as _;

use crate::height::Height;
use crate::ids::{ChannelId, ClientId, ConnectionId, PortId, Sequence};

/// One piece of a path: text as it is, or a number in decimal.
#[derive(Clone, Copy)]
enum Piece<'a> {
    Text(&'a str),
    Number(u64),
}

use Piece::{Number, Text};

/// The path made of `pieces`, in a `String` whose capacity is exactly its
/// length: the length is summed first and the text written into storage
/// allocated once, so converting the path into a `Box<str>` reallocates
/// nothing.
fn exact<'a>(pieces: impl IntoIterator<Item = Piece<'a>, IntoIter: Clone>) -> String {
    let pieces = pieces.into_iter();
    let len = (pieces.clone())
        .map(|piece| match piece {
            Text(text) => text.len(),
            Number(n) => n.checked_ilog10().map_or(1, |log| log as usize + 1),
        })
        .sum();
    let mut path = String::with_capacity(len);
    for piece in pieces {
        match piece {
            Text(text) => path.push_str(text),
            // Writing to a `String` cannot fail.
            Number(n) => {
                let _ = write!(path, "{n}");
            }
        }
    }
    path
}

/// Path of a client's client state.
pub fn client_state_path(client_id: &ClientId) -> String {
    exact([
        Text("clients/"),
        Text(client_id.as_str()),
        Text("/clientState"),
    ])
}

/// Path of a client's consensus state at a height, the height written as
/// `revision-height`.
pub fn consensus_state_path(client_id: &ClientId, height: Height) -> String {
    exact([
        Text("clients/"),
        Text(client_id.as_str()),
        Text("/consensusStates/"),
        Number(height.revision),
        Text("-"),
        Number(height.height),
    ])
}

/// Path of a connection end.
pub fn connection_path(connection_id: &ConnectionId) -> String {
    exact([Text("connections/"), Text(connection_id.as_str())])
}

/// Path of a channel end.
pub fn channel_path(port_id: &PortId, channel_id: &ChannelId) -> String {
    exact([
        Text("channelEnds/ports/"),
        Text(port_id.as_str()),
        Text("/channels/"),
        Text(channel_id.as_str()),
    ])
}

/// The path of one channel end's item under `family`, ending in
/// `/sequences/` and then `sequence`, if any.
fn sequence_path(
    family: &str,
    port_id: &PortId,
    channel_id: &ChannelId,
    sequence: Option<Sequence>,
) -> String {
    let head = [
        Text(family),
        Text("/ports/"),
        Text(port_id.as_str()),
        Text("/channels/"),
        Text(channel_id.as_str()),
        Text("/sequences/"),
    ];
    exact(head.into_iter().chain(sequence.map(|s| Number(s.value()))))
}

/// The prefix every packet commitment of one channel end is stored under.
/// The trailing `/sequences/` is what keeps `channel-1` from matching
/// `channel-10`.
pub fn packet_commitment_prefix(port_id: &PortId, channel_id: &ChannelId) -> String {
    sequence_path("commitments", port_id, channel_id, None)
}

/// Path of a packet commitment: [`packet_commitment_prefix`] followed by
/// the sequence.
pub fn packet_commitment_path(
    port_id: &PortId,
    channel_id: &ChannelId,
    sequence: Sequence,
) -> String {
    sequence_path("commitments", port_id, channel_id, Some(sequence))
}

/// The sequence a packet-commitment path under `prefix` was written for;
/// `None` when `path` is not under `prefix` or its suffix is not a sequence.
pub fn sequence_under(prefix: &str, path: &str) -> Option<Sequence> {
    path.strip_prefix(prefix)?.parse().ok().map(Sequence)
}

/// Path of a packet receipt (unordered channels).
pub fn packet_receipt_path(port_id: &PortId, channel_id: &ChannelId, sequence: Sequence) -> String {
    sequence_path("receipts", port_id, channel_id, Some(sequence))
}

/// Path of a packet acknowledgement commitment.
pub fn packet_acknowledgement_path(
    port_id: &PortId,
    channel_id: &ChannelId,
    sequence: Sequence,
) -> String {
    sequence_path("acks", port_id, channel_id, Some(sequence))
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

    /// Every constructor writes the bytes `format!` wrote before it, and
    /// fills its storage exactly, at the digit boundaries of the numbers it
    /// writes.
    #[test]
    fn paths_are_allocated_at_their_exact_length() {
        let port = PortId::transfer();
        for index in [0, 9, 10] {
            let chan = ChannelId::with_index(index);
            let client = ClientId::with_index(index);
            for n in [1, 9, 10, 99, 100, u64::MAX] {
                let seq = Sequence::from(n);
                let height = Height::new(n, u64::MAX - n);
                let connection = ConnectionId::with_index(index);
                let paths = [
                    (
                        client_state_path(&client),
                        format!("clients/{client}/clientState"),
                    ),
                    (
                        consensus_state_path(&client, height),
                        format!("clients/{client}/consensusStates/{height}"),
                    ),
                    (
                        connection_path(&connection),
                        format!("connections/{connection}"),
                    ),
                    (
                        channel_path(&port, &chan),
                        format!("channelEnds/ports/{port}/channels/{chan}"),
                    ),
                    (
                        packet_commitment_prefix(&port, &chan),
                        format!("commitments/ports/{port}/channels/{chan}/sequences/"),
                    ),
                    (
                        packet_commitment_path(&port, &chan, seq),
                        format!("commitments/ports/{port}/channels/{chan}/sequences/{seq}"),
                    ),
                    (
                        packet_receipt_path(&port, &chan, seq),
                        format!("receipts/ports/{port}/channels/{chan}/sequences/{seq}"),
                    ),
                    (
                        packet_acknowledgement_path(&port, &chan, seq),
                        format!("acks/ports/{port}/channels/{chan}/sequences/{seq}"),
                    ),
                ];
                for (path, formatted) in paths {
                    assert_eq!(path, formatted);
                    assert_eq!(path.capacity(), path.len(), "{path}");
                }
            }
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
