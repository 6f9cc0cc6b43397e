//! IBC ABCI events and their parsing.
//!
//! Relayers never see chain state directly: they learn about pending packets
//! by scanning the ABCI events emitted during transaction execution
//! (`send_packet`, `recv_packet`, `write_acknowledgement`, …) and then pull
//! the packet data back out of those events. The emitters and parsers here
//! are the two halves of that contract.

use crate::height::Height;
use crate::ids::{ChannelId, PortId, Sequence};
use crate::packet::{Acknowledgement, Packet};
use xcc_sim::SimTime;
use xcc_tendermint::abci::Event;
use xcc_tendermint::hash::hex;

/// Event type emitted when a packet is sent.
pub const SEND_PACKET: &str = "send_packet";
/// Event type emitted when a packet is received.
pub const RECV_PACKET: &str = "recv_packet";
/// Event type emitted when an acknowledgement is written by the receiver.
pub const WRITE_ACK: &str = "write_acknowledgement";
/// Event type emitted when an acknowledgement is processed by the sender.
pub const ACK_PACKET: &str = "acknowledge_packet";
/// Event type emitted when a packet times out.
pub const TIMEOUT_PACKET: &str = "timeout_packet";

/// An event of `kind` carrying the seven attributes every packet event
/// has, with room for `extra` more, so the attribute list is sized once.
fn packet_event(kind: &'static str, packet: &Packet, extra: usize) -> Event {
    let event = Event {
        kind,
        attributes: Vec::with_capacity(7 + extra),
    };
    event
        .with_attr("packet_sequence", packet.sequence.to_string())
        .with_attr("packet_src_port", packet.source_port.as_str())
        .with_attr("packet_src_channel", packet.source_channel.as_str())
        .with_attr("packet_dst_port", packet.destination_port.as_str())
        .with_attr("packet_dst_channel", packet.destination_channel.as_str())
        .with_attr("packet_timeout_height", packet.timeout_height.to_string())
        .with_attr(
            "packet_timeout_timestamp",
            packet.timeout_timestamp.as_nanos().to_string(),
        )
}

fn decode_data(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    let bytes = s.as_bytes();
    for pair in bytes.chunks(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push((hi * 16 + lo) as u8);
    }
    Some(out)
}

/// Builds the `send_packet` event for a freshly sent packet.
///
/// Hex keeps the data attribute printable while staying proportional in size
/// to the real payload, which matters for the WebSocket frame accounting.
pub fn send_packet_event(packet: &Packet) -> Event {
    packet_event(SEND_PACKET, packet, 1).with_attr("packet_data_hex", hex(&packet.data))
}

/// Builds the `recv_packet` event for a received packet.
pub fn recv_packet_event(packet: &Packet) -> Event {
    packet_event(RECV_PACKET, packet, 1).with_attr("packet_data_hex", hex(&packet.data))
}

/// Builds the `write_acknowledgement` event.
pub fn write_ack_event(packet: &Packet, ack: &Acknowledgement) -> Event {
    let ack_text = match ack {
        Acknowledgement::Success { .. } => "success".to_string(),
        Acknowledgement::Error { error } => format!("error:{error}"),
    };
    packet_event(WRITE_ACK, packet, 2)
        .with_attr("packet_data_hex", hex(&packet.data))
        .with_attr("packet_ack", ack_text)
}

/// Builds the `acknowledge_packet` event.
pub fn ack_packet_event(packet: &Packet) -> Event {
    packet_event(ACK_PACKET, packet, 0)
}

/// Builds the `timeout_packet` event.
pub fn timeout_packet_event(packet: &Packet) -> Event {
    packet_event(TIMEOUT_PACKET, packet, 0)
}

/// Reconstructs a [`Packet`] from a packet-carrying event (`send_packet`,
/// `recv_packet`, `write_acknowledgement`, `acknowledge_packet` or
/// `timeout_packet`).
///
/// Returns `None` for events of other types or with missing attributes.
/// Acknowledge/timeout events carry no payload, so the reconstructed packet's
/// `data` is empty for those kinds. This is exactly the "message extraction"
/// step of the relayer pipeline.
pub fn packet_from_event(event: &Event) -> Option<Packet> {
    let sequence = packet_sequence(event)?;
    let timeout = event.attr("packet_timeout_height")?;
    let (revision, height) = timeout.split_once('-')?;
    Some(Packet {
        sequence,
        source_port: event.attr("packet_src_port")?.parse().ok()?,
        source_channel: event.attr("packet_src_channel")?.parse().ok()?,
        destination_port: event.attr("packet_dst_port")?.parse().ok()?,
        destination_channel: event.attr("packet_dst_channel")?.parse().ok()?,
        data: decode_data(event.attr("packet_data_hex").unwrap_or(""))?,
        timeout_height: Height::new(revision.parse().ok()?, height.parse().ok()?),
        timeout_timestamp: SimTime::from_nanos(
            event.attr("packet_timeout_timestamp")?.parse().ok()?,
        ),
    })
}

/// The sequence of the packet a packet-carrying event is about — all that
/// telemetry needs of it, without rebuilding the [`Packet`].
///
/// Returns `None` for events of other types or without the attribute.
pub fn packet_sequence(event: &Event) -> Option<Sequence> {
    if !matches!(
        event.kind,
        SEND_PACKET | RECV_PACKET | WRITE_ACK | ACK_PACKET | TIMEOUT_PACKET
    ) {
        return None;
    }
    let sequence = event.attr("packet_sequence")?.parse::<u64>().ok()?;
    Some(Sequence::from(sequence))
}

/// Helper for filtering a transaction's events down to the ones a relayer for
/// a given source channel cares about.
pub fn is_for_channel(event: &Event, port: &PortId, channel: &ChannelId) -> bool {
    match event.kind {
        SEND_PACKET | ACK_PACKET | TIMEOUT_PACKET => {
            event.attr("packet_src_port") == Some(port.as_str())
                && event.attr("packet_src_channel") == Some(channel.as_str())
        }
        RECV_PACKET | WRITE_ACK => {
            event.attr("packet_dst_port") == Some(port.as_str())
                && event.attr("packet_dst_channel") == Some(channel.as_str())
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_packet() -> Packet {
        Packet {
            sequence: Sequence::from(12),
            source_port: PortId::transfer(),
            source_channel: ChannelId::with_index(0),
            destination_port: PortId::transfer(),
            destination_channel: ChannelId::with_index(5),
            data: b"{\"denom\":\"uatom\",\"amount\":\"10\"}".to_vec(),
            timeout_height: Height::new(0, 500),
            timeout_timestamp: SimTime::from_secs(1_000),
        }
    }

    #[test]
    fn send_packet_event_roundtrips() {
        let packet = sample_packet();
        let event = send_packet_event(&packet);
        assert_eq!(event.kind, SEND_PACKET);
        let parsed = packet_from_event(&event).unwrap();
        assert_eq!(parsed, packet);
    }

    #[test]
    fn write_ack_event_roundtrips_packet_and_ack() {
        let packet = sample_packet();
        let event = write_ack_event(&packet, &Acknowledgement::success());
        assert_eq!(packet_from_event(&event).unwrap(), packet);
        assert_eq!(event.attr("packet_ack"), Some("success"));

        let err_event = write_ack_event(&packet, &Acknowledgement::error("denied"));
        assert_eq!(err_event.attr("packet_ack"), Some("error:denied"));
    }

    #[test]
    fn non_packet_events_do_not_parse() {
        let event = Event::new("transfer").with_attr("amount", "10uatom");
        assert!(packet_from_event(&event).is_none());
    }

    fn the_five_packet_events() -> [Event; 5] {
        let packet = sample_packet();
        [
            send_packet_event(&packet),
            recv_packet_event(&packet),
            write_ack_event(&packet, &Acknowledgement::success()),
            ack_packet_event(&packet),
            timeout_packet_event(&packet),
        ]
    }

    #[test]
    fn packet_sequence_reads_what_packet_from_event_reads() {
        for event in the_five_packet_events() {
            assert_eq!(
                packet_sequence(&event),
                packet_from_event(&event).map(|p| p.sequence),
                "{}",
                event.kind
            );
            assert_eq!(packet_sequence(&event), Some(Sequence::from(12)));
        }
        let other = Event::new("transfer").with_attr("packet_sequence", "12");
        assert_eq!(packet_sequence(&other), None);
    }

    /// Captured at the commit before `kind` and the keys became `&'static
    /// str` (PR 21). The WebSocket frame limit and the `BlockResults`
    /// response size are sums of these, so they are part of the simulated
    /// result, not of the representation.
    #[test]
    fn encoded_sizes_are_pinned() {
        let events = the_five_packet_events();
        assert_eq!(
            events.each_ref().map(Event::encoded_size),
            [348, 348, 383, 270, 266]
        );
        let [send, ..] = events;
        let message =
            Event::new("message").with_attr("action", "/ibc.applications.transfer.v1.MsgTransfer");
        let result = xcc_tendermint::abci::DeliverTxResult {
            code: 0,
            log: String::new(),
            gas_used: 96_000,
            gas_wanted: 120_000,
            events: vec![message, send],
        };
        assert_eq!(result.encoded_size(), 490);
    }

    #[test]
    fn ack_packet_event_has_no_data_attribute() {
        let packet = sample_packet();
        let event = ack_packet_event(&packet);
        assert_eq!(event.kind, ACK_PACKET);
        assert!(event.attr("packet_data_hex").is_none());
        assert_eq!(event.attr("packet_sequence"), Some("12"));
    }

    #[test]
    fn channel_filtering_uses_source_or_destination_as_appropriate() {
        let packet = sample_packet();
        let send = send_packet_event(&packet);
        let recv = recv_packet_event(&packet);
        let src_chan = ChannelId::with_index(0);
        let dst_chan = ChannelId::with_index(5);
        assert!(is_for_channel(&send, &PortId::transfer(), &src_chan));
        assert!(!is_for_channel(&send, &PortId::transfer(), &dst_chan));
        assert!(is_for_channel(&recv, &PortId::transfer(), &dst_chan));
        assert!(!is_for_channel(&recv, &PortId::transfer(), &src_chan));
    }

    #[test]
    fn hex_data_encoding_roundtrips_arbitrary_bytes() {
        let data: Vec<u8> = (0..=255u8).collect();
        assert_eq!(hex(&[0x00, 0x9f, 0xa0, 0xff]), "009fa0ff");
        assert_eq!(decode_data(&hex(&data)).unwrap(), data);
        assert!(decode_data("abc").is_none());
        assert!(decode_data("zz").is_none());
    }
}
