//! IBC ABCI events: building them and reading them back.
//!
//! Relayers never see chain state directly: they learn about pending packets
//! by scanning the ABCI events emitted during transaction execution
//! (`send_packet`, `recv_packet`, `write_acknowledgement`, …) and then pull
//! the packet data back out of those events. The emitters and readers here
//! are the two halves of that contract.
//!
//! A packet event holds its packet, not a copy of its fields: the [`Packet`]
//! is the event's shared [`EventRecord`], an [`Rc`] that the channel end's
//! send log (for `send_packet`) or the other event of the same receipt (for
//! `recv_packet` and `write_acknowledgement`) holds too. Its eight
//! attributes — seven without the data, for `acknowledge_packet` and
//! `timeout_packet` — are rendered only when something asks for them, and
//! sized without rendering; the readers take the packet's fields as they
//! are, so neither half formats or parses text.

use std::any::Any;
use std::rc::Rc;

use crate::ids::{ChannelId, PortId, Sequence};
use crate::packet::{Acknowledgement, Packet};
use xcc_tendermint::abci::{encoded_attr_size, AttrValue, Event, EventAttribute, EventRecord};

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

/// Whether an event of `kind` shows its packet's data. Acknowledge and
/// timeout events carry no payload.
fn shows_data(kind: &str) -> bool {
    matches!(kind, SEND_PACKET | RECV_PACKET | WRITE_ACK)
}

/// A packet event's attributes, in the order the events have always listed
/// them: the seven every packet event has, then the data as hex —
/// printable, and proportional in size to the real payload, which matters
/// for the WebSocket frame accounting.
impl EventRecord for Packet {
    fn attributes(&self, kind: &'static str) -> Vec<EventAttribute> {
        let mut attributes = Vec::with_capacity(8);
        let mut push = |key, value| attributes.push(EventAttribute { key, value });
        push("packet_sequence", self.sequence.value().into());
        push("packet_src_port", self.source_port.shared().into());
        push("packet_src_channel", self.source_channel.shared().into());
        push("packet_dst_port", self.destination_port.shared().into());
        push(
            "packet_dst_channel",
            self.destination_channel.shared().into(),
        );
        push("packet_timeout_height", self.timeout_height.into());
        push(
            "packet_timeout_timestamp",
            self.timeout_timestamp.as_nanos().into(),
        );
        if shows_data(kind) {
            push("packet_data_hex", AttrValue::Hex(self.data.clone()));
        }
        attributes
    }

    fn encoded_size(&self, kind: &'static str) -> usize {
        let number = |key, n: u64| encoded_attr_size(key, AttrValue::Number(n).text_len());
        let data = if shows_data(kind) {
            encoded_attr_size("packet_data_hex", 2 * self.data.len())
        } else {
            0
        };
        number("packet_sequence", self.sequence.value())
            + encoded_attr_size("packet_src_port", self.source_port.as_str().len())
            + encoded_attr_size("packet_src_channel", self.source_channel.as_str().len())
            + encoded_attr_size("packet_dst_port", self.destination_port.as_str().len())
            + encoded_attr_size(
                "packet_dst_channel",
                self.destination_channel.as_str().len(),
            )
            + encoded_attr_size(
                "packet_timeout_height",
                AttrValue::from(self.timeout_height).text_len(),
            )
            + number(
                "packet_timeout_timestamp",
                self.timeout_timestamp.as_nanos(),
            )
            + data
    }
}

/// Builds the `send_packet` event for a freshly sent packet, sharing the
/// handle the channel end's send log holds.
pub fn send_packet_event(packet: &Rc<Packet>) -> Event {
    Event::new(SEND_PACKET, []).with_record(packet.clone())
}

/// Builds the `recv_packet` event for a received packet, sharing `packet`
/// with the receipt's `write_acknowledgement` event.
pub fn recv_packet_event(packet: &Rc<Packet>) -> Event {
    Event::new(RECV_PACKET, []).with_record(packet.clone())
}

/// Builds the `write_acknowledgement` event.
pub fn write_ack_event(packet: &Rc<Packet>, ack: &Acknowledgement) -> Event {
    let ack_text = match ack {
        Acknowledgement::Success { .. } => AttrValue::Static("success"),
        Acknowledgement::Error { error } => AttrValue::Text(format!("error:{error}")),
    };
    Event::new(WRITE_ACK, [("packet_ack", ack_text)]).with_record(packet.clone())
}

/// The packet without its data: what an acknowledge or timeout event holds,
/// since it shows no payload.
fn without_data(packet: &Packet) -> Rc<Packet> {
    Rc::new(Packet {
        sequence: packet.sequence,
        source_port: packet.source_port.clone(),
        source_channel: packet.source_channel.clone(),
        destination_port: packet.destination_port.clone(),
        destination_channel: packet.destination_channel.clone(),
        data: Vec::new(),
        timeout_height: packet.timeout_height,
        timeout_timestamp: packet.timeout_timestamp,
    })
}

/// Builds the `acknowledge_packet` event.
pub fn ack_packet_event(packet: &Packet) -> Event {
    Event::new(ACK_PACKET, []).with_record(without_data(packet))
}

/// Builds the `timeout_packet` event.
pub fn timeout_packet_event(packet: &Packet) -> Event {
    Event::new(TIMEOUT_PACKET, []).with_record(without_data(packet))
}

/// The record of an event of a packet kind: `None` for events of other
/// kinds.
fn packet_record(event: &Event) -> Option<&Rc<dyn EventRecord>> {
    if !matches!(
        event.kind,
        SEND_PACKET | RECV_PACKET | WRITE_ACK | ACK_PACKET | TIMEOUT_PACKET
    ) {
        return None;
    }
    event.record()
}

/// The packet a packet-carrying event holds: `None` for events of other
/// kinds, and for an event of a packet kind that holds no [`Packet`] — one
/// whose attributes were listed by hand, say.
fn packet_of(event: &Event) -> Option<&Packet> {
    let record: &dyn Any = &**packet_record(event)?;
    record.downcast_ref()
}

/// The [`Packet`] a packet-carrying event (`send_packet`, `recv_packet`,
/// `write_acknowledgement`, `acknowledge_packet` or `timeout_packet`)
/// holds.
///
/// Returns `None` for events of other types, or for an event that holds no
/// packet. Acknowledge/timeout events carry no payload, so the packet's
/// `data` is empty for those kinds. This is exactly the "message
/// extraction" step of the relayer pipeline: the event's handle — the
/// allocation the emitting chain's send log (for `send_packet`) or receipt
/// (for `recv_packet` and `write_acknowledgement`) holds — parsing no text
/// and copying nothing.
pub fn packet_from_event(event: &Event) -> Option<Rc<Packet>> {
    let record: Rc<dyn Any> = packet_record(event)?.clone();
    record.downcast().ok()
}

/// The sequence of the packet a packet-carrying event is about — all that
/// telemetry needs of it, without copying the [`Packet`].
///
/// Returns `None` for events of other types or that hold no packet.
pub fn packet_sequence(event: &Event) -> Option<Sequence> {
    packet_of(event).map(|packet| packet.sequence)
}

/// Helper for filtering a transaction's events down to the ones a relayer for
/// a given source channel cares about.
pub fn is_for_channel(event: &Event, port: &PortId, channel: &ChannelId) -> bool {
    let Some(packet) = packet_of(event) else {
        return false;
    };
    match event.kind {
        SEND_PACKET | ACK_PACKET | TIMEOUT_PACKET => {
            packet.source_port == *port && packet.source_channel == *channel
        }
        RECV_PACKET | WRITE_ACK => {
            packet.destination_port == *port && packet.destination_channel == *channel
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::height::Height;
    use xcc_sim::SimTime;

    fn sample_packet() -> Rc<Packet> {
        Rc::new(Packet {
            sequence: Sequence::from(12),
            source_port: PortId::transfer(),
            source_channel: ChannelId::with_index(0),
            destination_port: PortId::transfer(),
            destination_channel: ChannelId::with_index(5),
            data: b"{\"denom\":\"uatom\",\"amount\":\"10\"}".to_vec(),
            timeout_height: Height::new(0, 500),
            timeout_timestamp: SimTime::from_secs(1_000),
        })
    }

    #[test]
    fn send_packet_event_roundtrips() {
        let packet = sample_packet();
        let event = send_packet_event(&packet);
        assert_eq!(event.kind, SEND_PACKET);
        let parsed = packet_from_event(&event).unwrap();
        assert!(Rc::ptr_eq(&parsed, &packet));
    }

    #[test]
    fn write_ack_event_roundtrips_packet_and_ack() {
        let packet = sample_packet();
        let event = write_ack_event(&packet, &Acknowledgement::success());
        assert!(Rc::ptr_eq(&packet_from_event(&event).unwrap(), &packet));
        assert_eq!(event.attr("packet_ack"), Some(AttrValue::Static("success")));

        let err_event = write_ack_event(&packet, &Acknowledgement::error("denied"));
        let error = AttrValue::Text("error:denied".to_string());
        assert_eq!(err_event.attr("packet_ack"), Some(error));
    }

    #[test]
    fn non_packet_events_do_not_parse() {
        let event = Event::new("transfer", [("amount", "10uatom".into())]);
        assert!(packet_from_event(&event).is_none());
    }

    /// One typed path: the readers take a packet event's fields from the
    /// packet it holds. An event of a packet kind whose attributes are
    /// listed by hand — even with exactly the values and shapes a genuine
    /// one renders — holds no packet, and all three readers refuse it.
    #[test]
    fn hand_listed_packet_events_do_not_parse() {
        let packet = sample_packet();
        let listed = |kind| {
            let rendered = write_ack_event(&packet, &Acknowledgement::success()).attributes();
            let rendered = <[EventAttribute; 9]>::try_from(rendered).unwrap();
            Event::new(kind, rendered.map(|a| (a.key, a.value)))
        };
        for kind in [
            SEND_PACKET,
            RECV_PACKET,
            WRITE_ACK,
            ACK_PACKET,
            TIMEOUT_PACKET,
        ] {
            let event = listed(kind);
            assert_eq!(event.attr("packet_sequence"), Some(AttrValue::Number(12)));
            assert_eq!(packet_from_event(&event), None, "{kind}");
            assert_eq!(packet_sequence(&event), None, "{kind}");
            for channel in [&packet.source_channel, &packet.destination_channel] {
                assert!(
                    !is_for_channel(&event, &PortId::transfer(), channel),
                    "{kind}"
                );
            }
        }
    }

    /// The packet a transfer sends is one allocation: the channel end's send
    /// log and the `send_packet` event hold the same handle, and so do the
    /// `recv_packet` and `write_acknowledgement` events of its receipt.
    /// `packet_from_event` hands out that handle, not a copy.
    #[test]
    fn a_sent_packet_is_held_once() {
        use crate::module::tests::{connected_pair, ctx, sync_root, transfer_params, TestBank};
        let (mut a, mut b, chan_a, _) = connected_pair();
        let mut bank_a = TestBank::default();
        bank_a.set("alice", "uatom", 1_000);
        let params = transfer_params(&chan_a, 250, 1_000);
        let sent = a.send_transfer(&ctx(2), &mut bank_a, &params).unwrap();
        let held = packet_of(&sent[0]).unwrap();
        let logged = a
            .end(&PortId::transfer(), &chan_a)
            .and_then(|end| end.sent_packet(held.sequence));
        assert!(std::ptr::eq(&**logged.unwrap(), held));
        let extracted = packet_from_event(&sent[0]).unwrap();
        assert!(Rc::ptr_eq(&extracted, logged.unwrap()));

        sync_root(&mut b, &a, 3);
        let proof = a
            .end(&PortId::transfer(), &chan_a)
            .and_then(|end| end.prove_commitment(held.sequence))
            .unwrap();
        let (_, received) = b
            .recv_packet(
                &ctx(3),
                &mut TestBank::default(),
                held,
                &proof,
                Height::at(3),
            )
            .unwrap();
        let [recv, write_ack] = &received[..] else {
            panic!("a receipt emits two events");
        };
        assert_eq!([recv.kind, write_ack.kind], [RECV_PACKET, WRITE_ACK]);
        let [recv, write_ack] = [recv, write_ack].map(|event| packet_of(event).unwrap());
        assert!(std::ptr::eq(recv, write_ack));
        assert!(!std::ptr::eq(recv, held));
        assert_eq!(recv, held);
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

    /// A packet event's size is the size of the attributes it renders,
    /// computed without rendering them, at every number's digit boundary.
    #[test]
    fn a_packet_is_sized_as_it_renders() {
        let edges = [
            sample_packet(),
            sample_with(|p| p.sequence = Sequence::from(u64::MAX)),
            sample_with(|p| p.timeout_height = Height::new(10, 0)),
            sample_with(|p| p.timeout_timestamp = SimTime::from_nanos(9)),
            sample_with(|p| p.data = Vec::new()),
        ];
        for packet in &edges {
            let events = [
                send_packet_event(packet),
                recv_packet_event(packet),
                write_ack_event(packet, &Acknowledgement::error("denied")),
                ack_packet_event(packet),
                timeout_packet_event(packet),
            ];
            for event in events {
                let rendered = event.attributes();
                let attributes: usize = rendered.iter().map(EventAttribute::encoded_size).sum();
                let expected = event.kind.len() + attributes + 16;
                assert_eq!(event.encoded_size(), expected, "{}", event.kind);
            }
        }
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
        let other = Event::new("transfer", [("packet_sequence", 12u64.into())]);
        assert_eq!(packet_sequence(&other), None);
    }

    /// Captured at the commit before `kind` and the keys became `&'static
    /// str` (PR 21). The WebSocket frame size is a sum of these, so they are
    /// part of the simulated result, not of the representation.
    #[test]
    fn encoded_sizes_are_pinned() {
        let events = the_five_packet_events();
        assert_eq!(
            events.each_ref().map(Event::encoded_size),
            [348, 348, 383, 270, 266]
        );
        let [send, ..] = events;
        let message = Event::new(
            "message",
            [("action", "/ibc.applications.transfer.v1.MsgTransfer".into())],
        );
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
    fn sample_with(change: impl FnOnce(&mut Packet)) -> Rc<Packet> {
        let mut packet = sample_packet();
        change(Rc::make_mut(&mut packet));
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
            (event.attributes().iter())
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
        assert_eq!(event.attr("packet_sequence"), Some(AttrValue::Number(12)));
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
