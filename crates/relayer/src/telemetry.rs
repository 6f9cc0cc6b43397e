//! Relayer telemetry: per-packet step timestamps and error log.
//!
//! The paper's latency analysis (Fig. 12) decomposes each cross-chain
//! transfer into 13 steps, from the broadcast of the transfer message to the
//! confirmation of the acknowledgement. The relayer records a timestamp for
//! every step of every packet it handles; the framework's Analysis module
//! consumes this log to rebuild the paper's figures.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use xcc_ibc::ids::{ChannelId, Sequence};
use xcc_rpc::endpoint::UnconfirmedSequence;
use xcc_rpc::websocket::WsError;
use xcc_sim::{prof, SimTime};
use xcc_tendermint::node::SubmitError;

use crate::relayer::ChainRole;

/// The 13 steps of a complete cross-chain transfer (Fig. 12 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TransferStep {
    /// 1. The transfer transaction is broadcast to the source chain.
    TransferBroadcast,
    /// 2. The relayer extracts the transfer message from block events.
    TransferMsgExtraction,
    /// 3. The relayer confirms the transfer transaction was committed.
    TransferConfirmation,
    /// 4. The relayer pulls the packet data and proofs from the source chain.
    TransferDataPull,
    /// 5. The relayer builds the receive message.
    RecvBuild,
    /// 6. The receive transaction is broadcast to the destination chain.
    RecvBroadcast,
    /// 7. The relayer extracts the receive message from destination events.
    RecvMsgExtraction,
    /// 8. The relayer confirms the receive transaction was committed.
    RecvConfirmation,
    /// 9. The relayer pulls the acknowledgement data from the destination.
    RecvDataPull,
    /// 10. The relayer builds the acknowledgement message.
    AckBuild,
    /// 11. The acknowledgement transaction is broadcast to the source chain.
    AckBroadcast,
    /// 12. The relayer extracts the acknowledgement from source events.
    AckMsgExtraction,
    /// 13. The relayer confirms the acknowledgement was committed.
    AckConfirmation,
}

impl TransferStep {
    /// All steps in execution order.
    pub const ALL: [TransferStep; 13] = [
        TransferStep::TransferBroadcast,
        TransferStep::TransferMsgExtraction,
        TransferStep::TransferConfirmation,
        TransferStep::TransferDataPull,
        TransferStep::RecvBuild,
        TransferStep::RecvBroadcast,
        TransferStep::RecvMsgExtraction,
        TransferStep::RecvConfirmation,
        TransferStep::RecvDataPull,
        TransferStep::AckBuild,
        TransferStep::AckBroadcast,
        TransferStep::AckMsgExtraction,
        TransferStep::AckConfirmation,
    ];

    /// The 1-based index the paper uses for the step.
    pub fn index(&self) -> usize {
        self.slot() + 1
    }

    /// The step's dense 0-based storage slot (`ALL[slot()] == *self`).
    const fn slot(self) -> usize {
        match self {
            TransferStep::TransferBroadcast => 0,
            TransferStep::TransferMsgExtraction => 1,
            TransferStep::TransferConfirmation => 2,
            TransferStep::TransferDataPull => 3,
            TransferStep::RecvBuild => 4,
            TransferStep::RecvBroadcast => 5,
            TransferStep::RecvMsgExtraction => 6,
            TransferStep::RecvConfirmation => 7,
            TransferStep::RecvDataPull => 8,
            TransferStep::AckBuild => 9,
            TransferStep::AckBroadcast => 10,
            TransferStep::AckMsgExtraction => 11,
            TransferStep::AckConfirmation => 12,
        }
    }

    /// A short human-readable label matching the paper's legend.
    pub fn label(&self) -> &'static str {
        match self {
            TransferStep::TransferBroadcast => "Transfer broadcast",
            TransferStep::TransferMsgExtraction => "Transfer msg. extraction",
            TransferStep::TransferConfirmation => "Transfer confirmation",
            TransferStep::TransferDataPull => "Transfer data pull",
            TransferStep::RecvBuild => "Recv build",
            TransferStep::RecvBroadcast => "Recv broadcast",
            TransferStep::RecvMsgExtraction => "Recv msg. extraction",
            TransferStep::RecvConfirmation => "Recv confirmation",
            TransferStep::RecvDataPull => "Recv data pull",
            TransferStep::AckBuild => "Ack build",
            TransferStep::AckBroadcast => "Ack broadcast",
            TransferStep::AckMsgExtraction => "Ack msg. extraction",
            TransferStep::AckConfirmation => "Ack confirmation",
        }
    }
}

/// A logged relayer error (redundant packets, failed event collection,
/// sequence mismatches…), one kind per cause Hermes logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelayerError {
    /// When the error occurred.
    pub at: SimTime,
    /// What went wrong.
    pub kind: RelayerErrorKind,
}

/// The cause of a [`RelayerError`]. `to` names the chain the relayer was
/// relaying towards: the destination for packets, the source for
/// acknowledgements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelayerErrorKind {
    /// The relayer process with this id crashed.
    Crashed(usize),
    /// The relayer process with this id restarted cold.
    Restarted(usize),
    /// A block's events could not be collected ("Failed to collect events").
    EventCollection(WsError),
    /// One of the relayer's transactions committed on `on` with a non-zero
    /// `code`, releasing `released` in-flight packets to the clear scan.
    FailedCommit {
        /// The chain that committed the transaction.
        on: ChainRole,
        /// Its `DeliverTx` code.
        code: u32,
        /// In-flight packet markers it released.
        released: usize,
    },
    /// `skipped` packets another relayer already relayed were dropped
    /// before broadcast ("packet messages are redundant", §IV-A).
    Redundant {
        /// The chain they were relayed towards.
        to: ChainRole,
        /// How many were dropped.
        skipped: usize,
    },
    /// The clear scan found `pending` unrelayed packets (or
    /// acknowledgements) on the path whose source end is `channel`.
    Clearing {
        /// The chain they are relayed towards.
        to: ChainRole,
        /// How many the scan found.
        pending: usize,
        /// The path's channel on the source chain.
        channel: ChannelId,
    },
    /// A batch was held because the account's sequence straddles a commit.
    HoldingBatch(UnconfirmedSequence),
    /// The node refused a broadcast (§V's account-sequence mismatch is
    /// `CheckTxFailed` with `ante::CODE_SEQUENCE_MISMATCH`).
    Broadcast(SubmitError),
}

/// Number of step columns per channel, one per [`TransferStep`].
const STEP_SLOTS: usize = TransferStep::ALL.len();

/// The cell value of a step that was not recorded for a packet. No step can
/// complete at `SimTime::MAX` (`record_on` debug-asserts it), and a recorded
/// time always wins the `min` against it.
const UNRECORDED: SimTime = SimTime::MAX;

/// One channel's step times, one column per step, indexed by sequence offset.
///
/// Packet sequences on a channel are consecutive counters handed out by the
/// chain, so `columns[step.slot()][sequence - base]` addresses a packet's
/// step without a tree node. A column grows only when its step is recorded,
/// up to the highest sequence recorded for it, so a log that records one
/// step holds one 8-byte cell per packet rather than a 13-slot row; a gap
/// or a packet that skipped the step costs one [`UNRECORDED`] cell. `base`
/// is the smallest sequence recorded on the channel, shared by every column.
#[derive(Debug, Clone)]
struct ChannelLog {
    /// Sequence value addressed by index 0 of every column.
    base: u64,
    columns: [Vec<SimTime>; STEP_SLOTS],
}

impl ChannelLog {
    /// A log whose first record or merge will be at `base`; a channel's log
    /// is created only for one, so no stored log is empty.
    fn starting_at(base: u64) -> Self {
        ChannelLog {
            base,
            columns: Default::default(),
        }
    }

    /// Makes index 0 address `seq` if it lies below `base`, shifting every
    /// recorded column up by the difference.
    fn lower_base(&mut self, seq: u64) {
        if seq < self.base {
            let missing = (self.base - seq) as usize;
            for column in self.columns.iter_mut().filter(|c| !c.is_empty()) {
                column.splice(0..0, std::iter::repeat_n(UNRECORDED, missing));
            }
            self.base = seq;
        }
    }

    /// Records `time` for `seq` in column `slot`; the earliest time wins.
    fn record(&mut self, seq: u64, slot: usize, time: SimTime) {
        self.lower_base(seq);
        let column = &mut self.columns[slot];
        let idx = (seq - self.base) as usize;
        if idx >= column.len() {
            column.resize(idx + 1, UNRECORDED);
        }
        column[idx] = column[idx].min(time);
    }

    /// The time recorded for `seq` in column `slot`.
    fn get(&self, seq: u64, slot: usize) -> Option<SimTime> {
        let idx = seq.checked_sub(self.base)?;
        let time = *self.columns[slot].get(usize::try_from(idx).ok()?)?;
        (time != UNRECORDED).then_some(time)
    }

    /// The recorded times of column `slot`, in ascending sequence order.
    fn times(&self, slot: usize) -> impl Iterator<Item = SimTime> + '_ {
        self.columns[slot]
            .iter()
            .copied()
            .filter(|time| *time != UNRECORDED)
    }

    /// Every sequence with at least one recorded step, ascending: the union
    /// of the columns, taken one column at a time.
    fn sequences(&self) -> impl Iterator<Item = u64> + '_ {
        let mut tracked: Vec<bool> = Vec::new();
        for column in &self.columns {
            if tracked.len() < column.len() {
                tracked.resize(column.len(), false);
            }
            for (row, time) in tracked.iter_mut().zip(column) {
                *row |= *time != UNRECORDED;
            }
        }
        tracked
            .into_iter()
            .enumerate()
            .filter(|(_, row)| *row)
            .map(|(idx, _)| self.base + idx as u64)
    }

    /// Merges `other` column by column; per cell, the earliest time wins.
    /// Each target column is sized once, exactly, from the source.
    fn merge(&mut self, other: &ChannelLog) {
        self.lower_base(other.base);
        let offset = (other.base - self.base) as usize;
        for (column, source) in self.columns.iter_mut().zip(&other.columns) {
            if source.is_empty() {
                continue;
            }
            let end = offset + source.len();
            if end > column.len() {
                column.reserve_exact(end - column.len());
                column.resize(end, UNRECORDED);
            }
            for (cell, time) in column[offset..end].iter_mut().zip(source) {
                *cell = (*cell).min(*time);
            }
        }
    }
}

/// The per-packet step log of one relayer instance.
///
/// Packets are keyed by `(channel index, sequence)`: packet sequences are
/// scoped to one channel end, so in multi-channel deployments two distinct
/// packets legitimately share a sequence number and only the pair is unique.
/// [`record`](TelemetryLog::record) addresses channel 0 — the primary
/// channel, and the only one in every single-channel experiment — while the
/// `*_on` methods take an explicit channel index.
///
/// Internally each channel stores one column of times per step, indexed by
/// sequence offset (see `ChannelLog`): a record or a lookup is O(1) in the
/// packet count, and the log holds a cell only for a step some packet of
/// the channel recorded.
#[derive(Debug, Clone, Default)]
pub struct TelemetryLog {
    channels: BTreeMap<u64, ChannelLog>,
    errors: Vec<RelayerError>,
}

impl TelemetryLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `step` completed for packet `sequence` of channel 0 at
    /// `time`. The earliest recorded time wins if a step is recorded twice.
    pub fn record(&mut self, sequence: Sequence, step: TransferStep, time: SimTime) {
        self.record_on(0, sequence, step, time);
    }

    /// Records that `step` completed for packet `sequence` of the channel at
    /// index `channel` at `time`; the earliest recorded time wins. `time`
    /// must not be `SimTime::MAX`, which the log reserves for "not recorded".
    pub fn record_on(
        &mut self,
        channel: u64,
        sequence: Sequence,
        step: TransferStep,
        time: SimTime,
    ) {
        debug_assert!(time != UNRECORDED, "SimTime::MAX marks an unrecorded step");
        prof::bump_telemetry_record();
        let sequence = sequence.value();
        self.channels
            .entry(channel)
            .or_insert_with(|| ChannelLog::starting_at(sequence))
            .record(sequence, step.slot(), time);
    }

    /// Records an error.
    pub fn record_error(&mut self, at: SimTime, kind: RelayerErrorKind) {
        self.errors.push(RelayerError { at, kind });
    }

    /// The recorded errors, in insertion order.
    pub fn errors(&self) -> &[RelayerError] {
        &self.errors
    }

    /// The time at which `step` completed for `sequence` on the channel at
    /// index `channel`, if recorded.
    pub fn step_time_on(
        &self,
        channel: u64,
        sequence: Sequence,
        step: TransferStep,
    ) -> Option<SimTime> {
        self.channels
            .get(&channel)?
            .get(sequence.value(), step.slot())
    }

    /// Every completion time recorded for `step` across every channel, one
    /// per packet, in (channel, sequence) order.
    pub fn step_times(&self, step: TransferStep) -> impl Iterator<Item = SimTime> + '_ {
        self.channels
            .values()
            .flat_map(move |chan| chan.times(step.slot()))
    }

    /// Number of packets (across every channel) that completed `step`.
    pub fn count_for_step(&self, step: TransferStep) -> usize {
        self.step_times(step).count()
    }

    /// Every tracked packet as a `(channel index, sequence)` pair, in
    /// (channel, sequence) order.
    pub fn packets(&self) -> Vec<(u64, Sequence)> {
        self.channels
            .iter()
            .flat_map(|(channel, chan)| {
                chan.sequences()
                    .map(move |seq| (*channel, Sequence::from(seq)))
            })
            .collect()
    }

    /// Merges another log into this one (used when aggregating the telemetry
    /// of several relayer instances), shifting every channel index by
    /// `channel_offset`; per step, the earliest time wins. The records were
    /// counted when `other` took them, so merging counts none.
    ///
    /// Relayer processes number channels locally (their first assigned
    /// channel is 0); when a fleet spans several topology edges the
    /// aggregator re-keys each process's log into the global edge-major
    /// channel space by passing the edge's channel offset.
    pub fn merge_offset(&mut self, other: &TelemetryLog, channel_offset: u64) {
        for (channel, chan) in &other.channels {
            self.channels
                .entry(channel + channel_offset)
                .or_insert_with(|| ChannelLog::starting_at(chan.base))
                .merge(chan);
        }
        self.errors.extend(other.errors.iter().cloned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_are_ordered_and_labelled() {
        assert_eq!(TransferStep::ALL.len(), 13);
        assert_eq!(TransferStep::TransferBroadcast.index(), 1);
        assert_eq!(TransferStep::AckConfirmation.index(), 13);
        assert_eq!(TransferStep::RecvDataPull.label(), "Recv data pull");
    }

    #[test]
    fn record_keeps_earliest_time() {
        let mut log = TelemetryLog::new();
        let seq = Sequence::from(1);
        log.record(seq, TransferStep::RecvBroadcast, SimTime::from_secs(20));
        log.record(seq, TransferStep::RecvBroadcast, SimTime::from_secs(10));
        log.record(seq, TransferStep::RecvBroadcast, SimTime::from_secs(30));
        assert_eq!(
            log.step_time_on(0, seq, TransferStep::RecvBroadcast),
            Some(SimTime::from_secs(10))
        );
    }

    #[test]
    fn counting_and_listing_steps() {
        let mut log = TelemetryLog::new();
        for i in 1..=5u64 {
            log.record(
                Sequence::from(i),
                TransferStep::TransferBroadcast,
                SimTime::from_secs(i),
            );
        }
        log.record(
            Sequence::from(1),
            TransferStep::AckConfirmation,
            SimTime::from_secs(100),
        );
        assert_eq!(log.count_for_step(TransferStep::TransferBroadcast), 5);
        assert_eq!(log.count_for_step(TransferStep::AckConfirmation), 1);
        assert_eq!(log.step_times(TransferStep::TransferBroadcast).count(), 5);
        assert_eq!(log.packets().len(), 5);
        assert_eq!(
            log.step_time_on(0, Sequence::from(9), TransferStep::RecvBuild),
            None
        );
    }

    #[test]
    fn columns_grow_both_ways_without_phantom_packets() {
        let mut log = TelemetryLog::new();
        let step = TransferStep::RecvBroadcast;
        log.record(Sequence::from(10), step, SimTime::from_secs(1));
        // Growing downwards and leaving gaps must not invent packets.
        log.record(Sequence::from(2), step, SimTime::from_secs(2));
        log.record(Sequence::from(6), step, SimTime::from_secs(3));
        assert_eq!(
            log.packets(),
            [2, 6, 10].map(|seq| (0, Sequence::from(seq)))
        );
        assert_eq!(log.count_for_step(step), 3);
        assert_eq!(log.step_time_on(0, Sequence::from(5), step), None);
        assert_eq!(log.step_time_on(0, Sequence::from(1), step), None);
        assert_eq!(log.step_time_on(0, Sequence::from(11), step), None);
        assert_eq!(
            log.step_time_on(0, Sequence::from(6), step),
            Some(SimTime::from_secs(3))
        );
    }

    #[test]
    fn errors_are_logged_by_kind() {
        let mut log = TelemetryLog::new();
        let redundant = RelayerErrorKind::Redundant {
            to: ChainRole::Destination,
            skipped: 4,
        };
        log.record_error(SimTime::from_secs(1), redundant.clone());
        log.record_error(SimTime::from_secs(2), RelayerErrorKind::Crashed(0));
        log.record_error(SimTime::from_secs(3), redundant.clone());
        assert_eq!(log.errors().len(), 3);
        let redundant = log.errors().iter().filter(|e| e.kind == redundant);
        assert_eq!(redundant.count(), 2);
    }

    #[test]
    fn merge_takes_earliest_and_concatenates_errors() {
        let mut a = TelemetryLog::new();
        let mut b = TelemetryLog::new();
        a.record(
            Sequence::from(1),
            TransferStep::RecvBroadcast,
            SimTime::from_secs(10),
        );
        b.record(
            Sequence::from(1),
            TransferStep::RecvBroadcast,
            SimTime::from_secs(5),
        );
        b.record(
            Sequence::from(2),
            TransferStep::RecvBroadcast,
            SimTime::from_secs(7),
        );
        b.record_error(SimTime::from_secs(1), RelayerErrorKind::Crashed(1));
        a.merge_offset(&b, 0);
        assert_eq!(
            a.step_time_on(0, Sequence::from(1), TransferStep::RecvBroadcast),
            Some(SimTime::from_secs(5))
        );
        assert_eq!(a.packets().len(), 2);
        assert_eq!(a.errors().len(), 1);
    }

    #[test]
    fn channels_keep_independent_sequence_spaces() {
        let mut log = TelemetryLog::new();
        let seq = Sequence::from(1);
        log.record_on(0, seq, TransferStep::RecvBroadcast, SimTime::from_secs(1));
        log.record_on(1, seq, TransferStep::RecvBroadcast, SimTime::from_secs(2));
        // Same sequence on two channels: two distinct packets.
        assert_eq!(log.packets(), vec![(0, seq), (1, seq)]);
        assert_eq!(
            log.step_time_on(1, seq, TransferStep::RecvBroadcast),
            Some(SimTime::from_secs(2))
        );
        // Channel-agnostic views aggregate.
        assert_eq!(log.count_for_step(TransferStep::RecvBroadcast), 2);
        assert_eq!(log.step_times(TransferStep::RecvBroadcast).count(), 2);
        assert_eq!(
            log.step_time_on(0, seq, TransferStep::RecvBroadcast),
            Some(SimTime::from_secs(1))
        );
    }
}
