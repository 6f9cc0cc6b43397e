//! Application BlockChain Interface (ABCI).
//!
//! Tendermint treats transactions as opaque bytes and delegates their
//! validation and execution to the application through this interface, just
//! like the real ABCI described in §II-A of the paper.

use serde::{Deserialize, Serialize};

use crate::block::{Header, RawTx};
use crate::hash::Hash;

/// A key/value attribute attached to an [`Event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventAttribute {
    /// Attribute key, e.g. `packet_src_channel`. Keys are a fixed schema
    /// written in the emitting module's source, never data.
    pub key: &'static str,
    /// Attribute value.
    pub value: String,
}

/// An ABCI event emitted during transaction execution.
///
/// Relayers discover pending IBC packets by scanning these events (e.g.
/// `send_packet`, `write_acknowledgement`).
///
/// # Example
///
/// ```rust
/// use xcc_tendermint::abci::Event;
///
/// let ev = Event::new("send_packet")
///     .with_attr("packet_sequence", "1")
///     .with_attr("packet_src_channel", "channel-0");
/// assert_eq!(ev.attr("packet_sequence"), Some("1"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// The event type, e.g. `send_packet` — like the attribute keys, part of
    /// a static schema: naming it costs no allocation and no copy.
    pub kind: &'static str,
    /// Event attributes.
    pub attributes: Vec<EventAttribute>,
}

impl Event {
    /// Creates an event with no attributes.
    pub fn new(kind: &'static str) -> Self {
        Event {
            kind,
            attributes: Vec::new(),
        }
    }

    /// Builder-style attribute addition.
    pub fn with_attr(mut self, key: &'static str, value: impl Into<String>) -> Self {
        self.attributes.push(EventAttribute {
            key,
            value: value.into(),
        });
        self
    }

    /// Looks up the first attribute with the given key.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|a| a.key == key)
            .map(|a| a.value.as_str())
    }

    /// Approximate encoded size of the event in bytes, used for the
    /// WebSocket frame-size accounting of §V.
    pub fn encoded_size(&self) -> usize {
        self.kind.len()
            + self
                .attributes
                .iter()
                .map(|a| a.key.len() + a.value.len() + 8)
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
        let ev = Event::new("recv_packet")
            .with_attr("packet_sequence", "42")
            .with_attr("packet_dst_channel", "channel-1");
        assert_eq!(ev.attr("packet_sequence"), Some("42"));
        assert_eq!(ev.attr("missing"), None);
        assert!(ev.encoded_size() > "recv_packet".len());
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
            events: vec![Event::new("x")],
        };
        assert!(d.is_ok());
        assert!(d.encoded_size() > 0);
    }
}
