//! Application BlockChain Interface (ABCI).
//!
//! Tendermint treats transactions as opaque bytes and delegates their
//! validation and execution to the application through this interface, just
//! like the real ABCI described in §II-A of the paper.
//!
//! # Events
//!
//! A committed block keeps the [`Event`]s of its transactions to the end of
//! a run, because relayers learn about packets only from them. An event
//! therefore holds as little as it can: a static kind, the attributes built
//! for it alone in an exactly sized slice, and optionally a shared
//! [`EventRecord`] — a packet the emitting module keeps anyway, or a
//! `message` event's action, one per message type — whose attributes follow
//! a fixed schema and are rendered only when something asks
//! ([`Event::attributes`], [`Event::attr`]). [`Event::encoded_size`], the §V
//! frame accounting, is computed without rendering anything.

use std::any::Any;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::block::{Header, RawTx};
use crate::hash::Hash;

/// The value of an [`EventAttribute`]: the value itself, in one of the
/// shapes the workspace emits, rendered as text only when something asks.
///
/// An event's size is a simulated quantity (the §V WebSocket frame limit),
/// so each shape knows the length of its text ([`AttrValue::text_len`]) and
/// `Display` prints exactly that text.
/// Building an attribute therefore formats nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrValue {
    /// Text built for this attribute.
    Text(String),
    /// Text fixed in the emitting module's source, e.g. a type URL.
    Static(&'static str),
    /// A shared identifier, e.g. a channel id: a clone is a reference-count
    /// bump.
    Shared(Arc<str>),
    /// An unsigned integer, shown in decimal.
    Number(u64),
    /// A revision-qualified height, shown as `revision-height`.
    Height {
        /// The revision number.
        revision: u64,
        /// The height within the revision.
        height: u64,
    },
    /// Raw bytes, shown as lower-case hex: printable, and twice the payload
    /// in size.
    Hex(Vec<u8>),
}

/// Decimal digits of `n`.
fn digits(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |log| log as usize + 1)
}

impl AttrValue {
    /// Length in bytes of the value's text, without rendering it.
    pub fn text_len(&self) -> usize {
        match self {
            AttrValue::Text(text) => text.len(),
            AttrValue::Static(text) => text.len(),
            AttrValue::Shared(text) => text.len(),
            AttrValue::Number(n) => digits(*n),
            AttrValue::Height { revision, height } => digits(*revision) + 1 + digits(*height),
            AttrValue::Hex(bytes) => 2 * bytes.len(),
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Text(text) => f.write_str(text),
            AttrValue::Static(text) => f.write_str(text),
            AttrValue::Shared(text) => f.write_str(text),
            AttrValue::Number(n) => write!(f, "{n}"),
            AttrValue::Height { revision, height } => write!(f, "{revision}-{height}"),
            AttrValue::Hex(bytes) => bytes.iter().try_for_each(|b| write!(f, "{b:02x}")),
        }
    }
}

impl From<String> for AttrValue {
    fn from(text: String) -> Self {
        AttrValue::Text(text)
    }
}

impl From<&'static str> for AttrValue {
    fn from(text: &'static str) -> Self {
        AttrValue::Static(text)
    }
}

impl From<Arc<str>> for AttrValue {
    fn from(text: Arc<str>) -> Self {
        AttrValue::Shared(text)
    }
}

impl From<u64> for AttrValue {
    fn from(n: u64) -> Self {
        AttrValue::Number(n)
    }
}

/// A key/value attribute attached to an [`Event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventAttribute {
    /// Attribute key, e.g. `packet_src_channel`. Keys are a fixed schema
    /// written in the emitting module's source, never data.
    pub key: &'static str,
    /// Attribute value.
    pub value: AttrValue,
}

impl EventAttribute {
    /// What the attribute adds to [`Event::encoded_size`]: its key, its
    /// value's text and 8 bytes of framing.
    pub fn encoded_size(&self) -> usize {
        encoded_attr_size(self.key, self.value.text_len())
    }
}

/// What one attribute adds to [`Event::encoded_size`], given its key and
/// the length of its value's text — for an [`EventRecord`] that sizes its
/// attributes without building them.
pub fn encoded_attr_size(key: &str, text_len: usize) -> usize {
    key.len() + text_len + 8
}

/// Attributes an event shows from a record shared behind an [`Rc`] instead
/// of copied into the event: one the emitting module keeps anyway — a sent
/// packet — or one the application keeps per message type — the `message`
/// event's `action`.
///
/// The attributes follow a fixed schema per event kind, so the record
/// renders them when something asks ([`Event::attributes`], [`Event::attr`])
/// and sizes them without rendering ([`Event::encoded_size`]). A reader that
/// knows the record's type gets it back through [`Event::record`], as a
/// reference through `&dyn Any` or as a handle of its own through
/// `Rc<dyn Any>`.
pub trait EventRecord: Any + fmt::Debug {
    /// The attributes an event of `kind` shows of the record, in order.
    fn attributes(&self, kind: &'static str) -> Vec<EventAttribute>;

    /// [`encoded_attr_size`] summed over [`EventRecord::attributes`], without
    /// building them.
    fn encoded_size(&self, kind: &'static str) -> usize;
}

/// An ABCI event emitted during transaction execution.
///
/// Relayers discover pending IBC packets by scanning these events (e.g.
/// `send_packet`, `write_acknowledgement`). An event's attributes are those
/// of its shared [`EventRecord`], if it has one, followed by the ones listed
/// for it alone.
///
/// # Example
///
/// ```rust
/// use xcc_tendermint::abci::{AttrValue, Event};
///
/// let ev = Event::new(
///     "update_client",
///     [
///         ("client_id", "07-tendermint-0".into()),
///         ("revision", 1u64.into()),
///     ],
/// );
/// assert_eq!(ev.attr("revision"), Some(AttrValue::Number(1)));
/// assert_eq!(ev.attr("client_id").unwrap().to_string(), "07-tendermint-0");
/// assert_eq!(ev.encoded_size(), "update_client".len() + (9 + 15 + 8) + (8 + 1 + 8) + 16);
/// ```
#[derive(Debug, Clone)]
pub struct Event {
    /// The event type, e.g. `send_packet` — like the attribute keys, part of
    /// a static schema: naming it costs no allocation and no copy.
    pub kind: &'static str,
    /// The attributes built for this event alone, sized exactly.
    listed: Box<[EventAttribute]>,
    /// The shared record whose attributes come first.
    record: Option<Rc<dyn EventRecord>>,
}

impl Event {
    /// Creates an event with exactly the listed attributes (none for `[]`).
    pub fn new<const N: usize>(
        kind: &'static str,
        attributes: [(&'static str, AttrValue); N],
    ) -> Self {
        let listed = attributes
            .into_iter()
            .map(|(key, value)| EventAttribute { key, value })
            .collect();
        Event {
            kind,
            listed,
            record: None,
        }
    }

    /// The event with `record`'s attributes shown before its listed ones.
    pub fn with_record(mut self, record: Rc<dyn EventRecord>) -> Self {
        self.record = Some(record);
        self
    }

    /// The handle of the shared record the event shows, if it has one.
    pub fn record(&self) -> Option<&Rc<dyn EventRecord>> {
        self.record.as_ref()
    }

    /// Every attribute, rendered: the record's, then the listed ones.
    pub fn attributes(&self) -> Vec<EventAttribute> {
        let mut attributes = self
            .record
            .as_ref()
            .map_or_else(Vec::new, |record| record.attributes(self.kind));
        attributes.extend_from_slice(&self.listed);
        attributes
    }

    /// The value of the first attribute with the given key.
    pub fn attr(&self, key: &str) -> Option<AttrValue> {
        self.attributes()
            .into_iter()
            .find(|a| a.key == key)
            .map(|a| a.value)
    }

    /// Approximate encoded size of the event in bytes, used for the
    /// WebSocket frame-size accounting of §V.
    pub fn encoded_size(&self) -> usize {
        let record = self
            .record
            .as_ref()
            .map_or(0, |record| record.encoded_size(self.kind));
        self.kind.len()
            + record
            + self
                .listed
                .iter()
                .map(EventAttribute::encoded_size)
                .sum::<usize>()
            + 16
    }
}

/// Result of `CheckTx`: admission control for the mempool.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckTxResult {
    /// Zero for success, non-zero application error code otherwise.
    pub code: u32,
    /// Human-readable log (error message on failure).
    pub log: String,
    /// Gas the transaction requests.
    pub gas_wanted: u64,
    /// The fee-paying account, used for per-account mempool accounting.
    pub sender: String,
    /// The account sequence number carried by the transaction.
    pub sequence: u64,
}

impl CheckTxResult {
    /// `true` when the transaction was accepted.
    pub fn is_ok(&self) -> bool {
        self.code == 0
    }
}

/// Result of `DeliverTx`: the outcome of executing one transaction.
#[derive(Debug, Clone)]
pub struct DeliverTxResult {
    /// Zero for success, non-zero application error code otherwise.
    pub code: u32,
    /// Human-readable log (error message on failure).
    pub log: String,
    /// Gas consumed by execution.
    pub gas_used: u64,
    /// Gas requested by the transaction.
    pub gas_wanted: u64,
    /// Events emitted during execution.
    pub events: Vec<Event>,
}

impl DeliverTxResult {
    /// `true` when execution succeeded.
    pub fn is_ok(&self) -> bool {
        self.code == 0
    }

    /// Approximate encoded size of the result (log plus events), used by the
    /// RPC response-size cost model.
    pub fn encoded_size(&self) -> usize {
        self.log.len() + self.events.iter().map(Event::encoded_size).sum::<usize>() + 64
    }
}

/// The interface a blockchain application exposes to the consensus engine.
///
/// The flow per block is: `begin_block`, `deliver_tx` for every transaction,
/// `end_block`, `commit`. `check_tx` runs against the mempool outside block
/// execution.
///
/// # The CheckTx → DeliverTx hand-off
///
/// Consensus sees transactions as opaque bytes, but the application has to
/// parse them to check them, and would parse the same bytes again to execute
/// them a block later. `check_tx` may therefore return its parsed form
/// beside the verdict; the node keeps it on the mempool entry — and only
/// there: a rejected transaction leaves nothing behind, a committed block
/// stores the [`RawTx`] alone — and moves it into `deliver_tx`. An
/// application with nothing worth keeping sets `Decoded = ()` and returns
/// `None`.
pub trait Application {
    /// The application's parsed form of a transaction.
    type Decoded;

    /// Validates a transaction for mempool admission. The second value is
    /// the parsed transaction to hand to [`Application::deliver_tx`]; it is
    /// dropped unless the transaction is admitted.
    fn check_tx(&mut self, tx: &RawTx) -> (CheckTxResult, Option<Self::Decoded>);

    /// Signals the start of a new block.
    fn begin_block(&mut self, header: &Header);

    /// Executes one transaction against the application state. `decoded` is
    /// what `check_tx` returned for this same `tx`, when the node still has
    /// it; without it the application parses `tx` itself.
    fn deliver_tx(&mut self, tx: &RawTx, decoded: Option<Self::Decoded>) -> DeliverTxResult;

    /// Signals the end of the block, before the state is committed.
    fn end_block(&mut self, height: u64);

    /// Commits the application state and returns the new application hash.
    fn commit(&mut self) -> Hash;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_builder_and_lookup() {
        let ev = Event::new(
            "recv_packet",
            [
                ("packet_sequence", 42u64.into()),
                ("packet_dst_channel", "channel-1".into()),
            ],
        );
        assert_eq!(ev.attr("packet_sequence"), Some(AttrValue::Number(42)));
        assert_eq!(ev.attr("missing"), None);
        assert!(ev.encoded_size() > "recv_packet".len());
    }

    /// A committed block keeps one `Event` slot per event to the end of a
    /// run: a static kind, a boxed slice and an optional shared record.
    #[test]
    fn an_event_slot_is_48_bytes() {
        assert_eq!(std::mem::size_of::<Event>(), 48);
    }

    /// Every shape's `text_len` is the length of what `Display` prints, at
    /// the digit boundaries of each number.
    #[test]
    fn text_len_is_the_length_of_the_rendered_text() {
        let mut values = vec![
            AttrValue::Text("error:denied".to_string()),
            AttrValue::Text(String::new()),
            AttrValue::Static("/ibc.core.channel.v1.MsgRecvPacket"),
            AttrValue::Shared("channel-10".into()),
            AttrValue::Hex(Vec::new()),
            AttrValue::Hex(vec![0x00, 0x0f, 0xf0, 0xff]),
        ];
        for n in [0, 1, 9, 10, 99, 100, u64::MAX / 10, u64::MAX] {
            values.push(AttrValue::Number(n));
            values.push(AttrValue::Height {
                revision: n,
                height: u64::MAX - n,
            });
        }
        for value in values {
            assert_eq!(value.text_len(), value.to_string().len(), "{value:?}");
        }
        assert_eq!(
            AttrValue::Number(u64::MAX).to_string(),
            "18446744073709551615"
        );
        let height = AttrValue::Height {
            revision: 1,
            height: 0,
        };
        assert_eq!(height.to_string(), "1-0");
        let every_byte: Vec<u8> = (0..=255).collect();
        assert_eq!(
            AttrValue::Hex(every_byte.clone()).to_string(),
            crate::hash::hex(&every_byte)
        );
    }

    #[test]
    fn check_and_deliver_result_flags() {
        let ok = CheckTxResult {
            code: 0,
            log: String::new(),
            gas_wanted: 10,
            sender: "a".into(),
            sequence: 0,
        };
        let err = CheckTxResult {
            code: 4,
            log: "unauthorized".into(),
            gas_wanted: 0,
            sender: "a".into(),
            sequence: 0,
        };
        assert!(ok.is_ok());
        assert!(!err.is_ok());

        let d = DeliverTxResult {
            code: 0,
            log: String::new(),
            gas_used: 5,
            gas_wanted: 10,
            events: vec![Event::new("x", [])],
        };
        assert!(d.is_ok());
        assert!(d.encoded_size() > 0);
    }
}
