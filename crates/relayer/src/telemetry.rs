//! Relayer telemetry: per-packet step timestamps and error log.
//!
//! The paper's latency analysis (Fig. 12) decomposes each cross-chain
//! transfer into 13 steps, from the broadcast of the transfer message to the
//! confirmation of the acknowledgement. The relayer records a timestamp for
//! every step of every packet it handles; the framework's Analysis module
//! consumes this log to rebuild the paper's figures.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use xcc_ibc::ids::Sequence;
use xcc_sim::{prof, SimTime};

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
/// sequence mismatches…), mirroring Hermes' log lines.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RelayerError {
    /// When the error occurred.
    pub at: SimTime,
    /// The error message.
    pub message: String,
}

/// Number of storage slots per packet, one per [`TransferStep`].
const STEP_SLOTS: usize = TransferStep::ALL.len();

/// The recorded step times of one packet, indexed by `TransferStep::slot`.
type PacketSteps = [Option<SimTime>; STEP_SLOTS];

/// One channel's packet rows, stored densely by sequence offset.
///
/// Packet sequences on a channel are consecutive counters handed out by the
/// chain, so a per-sequence `Vec` row indexed by `sequence - base` replaces
/// the former per-packet `BTreeMap` without losing sparseness where it
/// matters: `base` tracks the smallest sequence seen, and the occasional gap
/// costs one empty 13-slot row instead of a tree node per step.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct ChannelLog {
    /// Sequence value addressed by `rows[0]`.
    base: u64,
    rows: Vec<PacketSteps>,
}

impl ChannelLog {
    const EMPTY_ROW: PacketSteps = [None; STEP_SLOTS];

    /// The row for `seq`, growing the dense storage in either direction.
    fn row_mut(&mut self, seq: u64) -> &mut PacketSteps {
        if self.rows.is_empty() {
            self.base = seq;
            self.rows.push(Self::EMPTY_ROW);
        } else if seq < self.base {
            let missing = (self.base - seq) as usize;
            self.rows
                .splice(0..0, std::iter::repeat_n(Self::EMPTY_ROW, missing));
            self.base = seq;
        }
        let idx = (seq - self.base) as usize;
        if idx >= self.rows.len() {
            self.rows.resize(idx + 1, Self::EMPTY_ROW);
        }
        &mut self.rows[idx]
    }

    /// The row for `seq`, if within the stored range.
    fn row(&self, seq: u64) -> Option<&PacketSteps> {
        let idx = seq.checked_sub(self.base)?;
        self.rows.get(idx as usize)
    }

    /// `(sequence, row)` for every packet with at least one recorded step,
    /// in ascending sequence order (gap filler rows are skipped).
    fn tracked(&self) -> impl Iterator<Item = (u64, &PacketSteps)> {
        let base = self.base;
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, row)| row.iter().any(Option::is_some))
            .map(move |(i, row)| (base + i as u64, row))
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
/// Internally each channel stores its packets as dense rows indexed by
/// sequence offset (see `ChannelLog`); lookups and records are O(1) in the
/// packet count where the former triple-`BTreeMap` keying paid a tree walk
/// per step.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
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
    /// index `channel` at `time`; the earliest recorded time wins.
    pub fn record_on(
        &mut self,
        channel: u64,
        sequence: Sequence,
        step: TransferStep,
        time: SimTime,
    ) {
        prof::bump_telemetry_record();
        self.record_inner(channel, sequence, step, time);
    }

    /// The record path shared with [`merge_offset`](TelemetryLog::merge_offset),
    /// which re-files already-counted records and must not bump the xcc-prof
    /// counter again.
    fn record_inner(
        &mut self,
        channel: u64,
        sequence: Sequence,
        step: TransferStep,
        time: SimTime,
    ) {
        let cell = &mut self
            .channels
            .entry(channel)
            .or_default()
            .row_mut(sequence.value())[step.slot()];
        match cell {
            Some(existing) if *existing <= time => {}
            _ => *cell = Some(time),
        }
    }

    /// Records an error line.
    pub fn record_error(&mut self, at: SimTime, message: impl Into<String>) {
        self.errors.push(RelayerError {
            at,
            message: message.into(),
        });
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
            .get(&channel)
            .and_then(|chan| chan.row(sequence.value()))
            .and_then(|row| row[step.slot()])
    }

    /// All completion times recorded for `step` across every channel, one
    /// per packet, in (channel, sequence) order.
    pub fn times_for_step(&self, step: TransferStep) -> Vec<SimTime> {
        self.channels
            .values()
            .flat_map(|chan| chan.rows.iter())
            .filter_map(|row| row[step.slot()])
            .collect()
    }

    /// Number of packets (across every channel) that completed `step`.
    pub fn count_for_step(&self, step: TransferStep) -> usize {
        self.channels
            .values()
            .flat_map(|chan| chan.rows.iter())
            .filter(|row| row[step.slot()].is_some())
            .count()
    }

    /// Every tracked packet as a `(channel index, sequence)` pair.
    pub fn packets(&self) -> Vec<(u64, Sequence)> {
        self.channels
            .iter()
            .flat_map(|(channel, chan)| {
                chan.tracked()
                    .map(move |(seq, _)| (*channel, Sequence::from(seq)))
            })
            .collect()
    }

    /// Merges another log into this one (used when aggregating the telemetry
    /// of several relayer instances), shifting every channel index by
    /// `channel_offset`; per step, the earliest time wins.
    ///
    /// Relayer processes number channels locally (their first assigned
    /// channel is 0); when a fleet spans several topology edges the
    /// aggregator re-keys each process's log into the global edge-major
    /// channel space by passing the edge's channel offset.
    pub fn merge_offset(&mut self, other: &TelemetryLog, channel_offset: u64) {
        for (channel, chan) in &other.channels {
            for (seq, row) in chan.tracked() {
                for (slot, time) in row.iter().enumerate() {
                    if let Some(time) = *time {
                        self.record_inner(
                            channel + channel_offset,
                            Sequence::from(seq),
                            TransferStep::ALL[slot],
                            time,
                        );
                    }
                }
            }
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
        assert_eq!(log.times_for_step(TransferStep::TransferBroadcast).len(), 5);
        assert_eq!(log.packets().len(), 5);
        assert_eq!(
            log.step_time_on(0, Sequence::from(9), TransferStep::RecvBuild),
            None
        );
    }

    #[test]
    fn dense_rows_grow_both_ways_without_phantom_packets() {
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
    fn errors_are_logged_and_searchable() {
        let mut log = TelemetryLog::new();
        log.record_error(SimTime::from_secs(1), "packet messages are redundant");
        log.record_error(SimTime::from_secs(2), "account sequence mismatch");
        log.record_error(SimTime::from_secs(3), "packet messages are redundant");
        assert_eq!(log.errors().len(), 3);
        let redundant = log
            .errors()
            .iter()
            .filter(|e| e.message.contains("redundant"));
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
        b.record_error(SimTime::from_secs(1), "x");
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
        assert_eq!(log.times_for_step(TransferStep::RecvBroadcast).len(), 2);
        assert_eq!(
            log.step_time_on(0, seq, TransferStep::RecvBroadcast),
            Some(SimTime::from_secs(1))
        );
    }
}
