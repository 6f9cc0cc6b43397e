//! IBC ABCI events: building them and reading them back.
//!
//! Relayers never see chain state directly: they learn about pending packets
//! by scanning the ABCI events emitted during transaction execution
//! (`send_packet`, `recv_packet`, `write_acknowledgement`, …) and then pull
//! the packet data back out of those events. The emitters and readers here
//! are the two halves of that contract; the attributes between them are
//! typed values ([`AttrValue`]), so neither half formats or parses text.

use std::sync::Arc;

use crate::height::Height;
use crate::ids::{ChannelId, PortId, Sequence};
use crate::packet::{Acknowledgement, Packet};
use xcc_sim::SimTime;
use xcc_tendermint::abci::{AttrValue, Event};

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
///
/// The attributes are the packet's own values — numbers, the height pair and
/// its identifiers' shared text — so building one formats nothing.
fn packet_event(kind: &'static str, packet: &Packet, extra: usize) -> Event {
    let event = Event {
        kind,
        attributes: Vec::with_capacity(7 + extra),
    };
    event
        .with_attr("packet_sequence", packet.sequence.value())
        .with_attr("packet_src_port", packet.source_port.shared())
        .with_attr("packet_src_channel", packet.source_channel.shared())
        .with_attr("packet_dst_port", packet.destination_port.shared())
        .with_attr("packet_dst_channel", packet.destination_channel.shared())
        .with_attr("packet_timeout_height", packet.timeout_height)
        .with_attr(
            "packet_timeout_timestamp",
            packet.timeout_timestamp.as_nanos(),
        )
}

/// The packet's data, kept as bytes and shown as hex: printable, and
/// proportional in size to the real payload, which matters for the WebSocket
/// frame accounting.
fn with_data(event: Event, packet: &Packet) -> Event {
    event.with_attr("packet_data_hex", AttrValue::Hex(packet.data.clone()))
}

/// Builds the `send_packet` event for a freshly sent packet.
pub fn send_packet_event(packet: &Packet) -> Event {
    with_data(packet_event(SEND_PACKET, packet, 1), packet)
}

/// Builds the `recv_packet` event for a received packet.
pub fn recv_packet_event(packet: &Packet) -> Event {
    with_data(packet_event(RECV_PACKET, packet, 1), packet)
}

/// Builds the `write_acknowledgement` event.
pub fn write_ack_event(packet: &Packet, ack: &Acknowledgement) -> Event {
    let ack_text = match ack {
        Acknowledgement::Success { .. } => AttrValue::Static("success"),
        Acknowledgement::Error { error } => AttrValue::Text(format!("error:{error}")),
    };
    with_data(packet_event(WRITE_ACK, packet, 2), packet).with_attr("packet_ack", ack_text)
}

/// Builds the `acknowledge_packet` event.
pub fn ack_packet_event(packet: &Packet) -> Event {
    packet_event(ACK_PACKET, packet, 0)
}

/// Builds the `timeout_packet` event.
pub fn timeout_packet_event(packet: &Packet) -> Event {
    packet_event(TIMEOUT_PACKET, packet, 0)
}

/// The shared text of identifier attribute `key`.
fn shared<'a>(event: &'a Event, key: &str) -> Option<&'a Arc<str>> {
    match event.attr(key)? {
        AttrValue::Shared(text) => Some(text),
        _ => None,
    }
}

/// Identifier attribute `key`, validated as parsing it would be but not
/// copied.
fn identifier<T: TryFrom<Arc<str>>>(event: &Event, key: &str) -> Option<T> {
    T::try_from(Arc::clone(shared(event, key)?)).ok()
}

/// Number attribute `key`.
fn number(event: &Event, key: &str) -> Option<u64> {
    match event.attr(key)? {
        AttrValue::Number(n) => Some(*n),
        _ => None,
    }
}

/// Reconstructs a [`Packet`] from a packet-carrying event (`send_packet`,
/// `recv_packet`, `write_acknowledgement`, `acknowledge_packet` or
/// `timeout_packet`).
///
/// Returns `None` for events of other types, or with an attribute missing or
/// of another shape than the emitters above give it. Acknowledge/timeout
/// events carry no payload, so the reconstructed packet's `data` is empty for
/// those kinds. This is exactly the "message extraction" step of the relayer
/// pipeline: it reads values back, parsing and copying no text.
pub fn packet_from_event(event: &Event) -> Option<Packet> {
    let sequence = packet_sequence(event)?;
    let &AttrValue::Height { revision, height } = event.attr("packet_timeout_height")? else {
        return None;
    };
    let data = match event.attr("packet_data_hex") {
        None => Vec::new(),
        Some(AttrValue::Hex(bytes)) => bytes.clone(),
        Some(_) => return None,
    };
    Some(Packet {
        sequence,
        source_port: identifier(event, "packet_src_port")?,
        source_channel: identifier(event, "packet_src_channel")?,
        destination_port: identifier(event, "packet_dst_port")?,
        destination_channel: identifier(event, "packet_dst_channel")?,
        data,
        timeout_height: Height::new(revision, height),
        timeout_timestamp: SimTime::from_nanos(number(event, "packet_timeout_timestamp")?),
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
    number(event, "packet_sequence").map(Sequence::from)
}

/// Helper for filtering a transaction's events down to the ones a relayer for
/// a given source channel cares about.
pub fn is_for_channel(event: &Event, port: &PortId, channel: &ChannelId) -> bool {
    let is = |key, id: &str| shared(event, key).is_some_and(|text| **text == *id);
    match event.kind {
        SEND_PACKET | ACK_PACKET | TIMEOUT_PACKET => {
            is("packet_src_port", port.as_str()) && is("packet_src_channel", channel.as_str())
        }
        RECV_PACKET | WRITE_ACK => {
            is("packet_dst_port", port.as_str()) && is("packet_dst_channel", channel.as_str())
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
        assert_eq!(
            event.attr("packet_ack"),
            Some(&AttrValue::Static("success"))
        );

        let err_event = write_ack_event(&packet, &Acknowledgement::error("denied"));
        let error = AttrValue::Text("error:denied".to_string());
        assert_eq!(err_event.attr("packet_ack"), Some(&error));
    }

    #[test]
    fn non_packet_events_do_not_parse() {
        let event = Event::new("transfer").with_attr("amount", "10uatom");
        assert!(packet_from_event(&event).is_none());
    }

    /// One typed path: an attribute of another shape than the emitters give
    /// it is missing, not parsed, and a shared identifier is validated as
    /// parsing it was.
    #[test]
    fn attributes_of_another_shape_do_not_parse() {
        let packet = sample_packet();
        let with = |key: &str, value: AttrValue| {
            let mut event = send_packet_event(&packet);
            let slot = event.attributes.iter_mut().find(|a| a.key == key).unwrap();
            slot.value = value;
            event
        };
        let text = |s: &str| AttrValue::Text(s.to_string());
        for event in [
            with("packet_sequence", text("12")),
            with("packet_src_channel", text("channel-0")),
            with("packet_dst_port", AttrValue::Static("transfer")),
            with("packet_dst_channel", AttrValue::Shared("Channel 5".into())),
            with("packet_timeout_height", text("0-500")),
            with("packet_timeout_timestamp", text("1000000000000")),
            with("packet_data_hex", text("7b22")),
        ] {
            assert_eq!(packet_from_event(&event), None, "{:?}", event.attributes);
        }
        let sequence = with("packet_sequence", text("12"));
        assert_eq!(packet_sequence(&sequence), None);
        let channel = with("packet_src_channel", text("channel-0"));
        assert!(!is_for_channel(
            &channel,
            &PortId::transfer(),
            &ChannelId::with_index(0)
        ));
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
        let other = Event::new("transfer").with_attr("packet_sequence", 12u64);
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

        // Captured at the commit before attribute values stopped being
        // strings: every number at a digit boundary, both ends of the data's
        // range, an error acknowledgement and the `update_client` event.
        let send_size =
            |change: fn(&mut Packet)| send_packet_event(&sample_with(change)).encoded_size();
        let sizes = [
            send_size(|p| p.sequence = Sequence::from(9)),
            send_size(|p| p.sequence = Sequence::from(10)),
            send_size(|p| p.sequence = Sequence::from(u64::MAX)),
            send_size(|p| p.timeout_timestamp = SimTime::from_nanos(0)),
            send_size(|p| p.timeout_timestamp = SimTime::from_nanos(u64::MAX)),
            send_size(|p| p.timeout_height = Height::new(1, 0)),
            send_size(|p| p.timeout_height = Height::new(0, 10)),
            send_size(|p| p.data = Vec::new()),
            send_size(|p| p.data = vec![0x00, 0xff]),
        ];
        assert_eq!(sizes, [347, 348, 366, 336, 355, 346, 347, 286, 290]);
        let error = write_ack_event(&sample_packet(), &Acknowledgement::error("denied"));
        assert_eq!(error.encoded_size(), 388);
        assert_eq!(update_client_event().encoded_size(), 89);
    }

    /// The sample packet with one field changed.
    fn sample_with(change: impl FnOnce(&mut Packet)) -> Packet {
        let mut packet = sample_packet();
        change(&mut packet);
        packet
    }

    /// What a verified header at height 10 makes a client emit: the one
    /// event every relayed block carries.
    fn update_client_event() -> Event {
        use crate::client::tests::{source_chain, update_for};
        use xcc_tendermint::hash::sha256;
        let node = source_chain(10);
        let mut module = crate::module::IbcModule::new("chain-b");
        let genesis = &node.block_at(1).unwrap().block.header;
        let (client, _) = module.create_client(genesis, sha256(b"root-1"));
        let update = update_for(&node, 10, sha256(b"root-10"));
        let mut events = module.update_client(&client, &update).unwrap();
        assert_eq!(events.len(), 1);
        events.pop().unwrap()
    }

    /// Every attribute's text, as the strings the events held when this was
    /// captured; rendering an attribute must give exactly these.
    #[test]
    fn attribute_texts_are_pinned() {
        fn texts(event: &Event) -> Vec<(&'static str, String)> {
            (event.attributes.iter())
                .map(|a| (a.key, a.value.to_string()))
                .collect()
        }
        let pairs = |pairs: &[(&'static str, &str)]| -> Vec<(&'static str, String)> {
            (pairs.iter())
                .map(|&(key, text)| (key, text.to_string()))
                .collect()
        };
        let common = |sequence, height, timestamp| {
            [
                ("packet_sequence", sequence),
                ("packet_src_port", "transfer"),
                ("packet_src_channel", "channel-0"),
                ("packet_dst_port", "transfer"),
                ("packet_dst_channel", "channel-5"),
                ("packet_timeout_height", height),
                ("packet_timeout_timestamp", timestamp),
            ]
        };
        let sample = common("12", "0-500", "1000000000000");
        let data = (
            "packet_data_hex",
            "7b2264656e6f6d223a227561746f6d222c22616d6f756e74223a223130227d",
        );
        let [send, recv, write_ack, ack, timeout] = the_five_packet_events();
        assert_eq!(texts(&send), pairs(&[&sample[..], &[data]].concat()));
        assert_eq!(texts(&recv), pairs(&[&sample[..], &[data]].concat()));
        let success = [data, ("packet_ack", "success")];
        assert_eq!(texts(&write_ack), pairs(&[&sample[..], &success].concat()));
        assert_eq!(texts(&ack), pairs(&sample));
        assert_eq!(texts(&timeout), pairs(&sample));

        let error = write_ack_event(&sample_packet(), &Acknowledgement::error("denied"));
        let failure = [data, ("packet_ack", "error:denied")];
        assert_eq!(texts(&error), pairs(&[&sample[..], &failure].concat()));

        let edge = sample_with(|p| {
            p.sequence = Sequence::from(u64::MAX);
            p.timeout_height = Height::new(1, 0);
            p.timeout_timestamp = SimTime::from_nanos(0);
            p.data = vec![0x00, 0xff];
        });
        let edge_texts = common("18446744073709551615", "1-0", "0");
        let edge_data = [("packet_data_hex", "00ff")];
        assert_eq!(
            texts(&send_packet_event(&edge)),
            pairs(&[&edge_texts[..], &edge_data].concat())
        );

        assert_eq!(
            texts(&update_client_event()),
            pairs(&[
                ("client_id", "07-tendermint-0"),
                ("consensus_height", "0-10")
            ])
        );
    }

    #[test]
    fn ack_packet_event_has_no_data_attribute() {
        let packet = sample_packet();
        let event = ack_packet_event(&packet);
        assert_eq!(event.kind, ACK_PACKET);
        assert!(event.attr("packet_data_hex").is_none());
        assert_eq!(event.attr("packet_sequence"), Some(&AttrValue::Number(12)));
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
}
