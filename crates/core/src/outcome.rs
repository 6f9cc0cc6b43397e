//! The unified result of any scenario run.
//!
//! Every run — regardless of scenario family — produces the full metric set
//! as one [`ScenarioOutcome`], exposed through typed accessors and emitted as
//! JSON or CSV through [`crate::report::ExecutionReport`].

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::report::ExecutionReport;
use crate::spec::ExperimentSpec;

/// Canonical metric keys shared by reports, outcomes and CSV emission.
pub mod keys {
    /// Completed cross-chain transfers per second over the window (§III-E).
    pub const THROUGHPUT_TFPS: &str = "throughput_tfps";
    /// Committed transfer messages per second on the source chain (Fig. 6).
    pub const TENDERMINT_THROUGHPUT_TFPS: &str = "tendermint_throughput_tfps";
    /// Average source-chain block interval in seconds (Fig. 7).
    pub const AVG_BLOCK_INTERVAL_SECS: &str = "avg_block_interval_secs";
    /// Transfers requested from the CLI (Table I "Requests made").
    pub const REQUESTS_MADE: &str = "requests_made";
    /// Transfers accepted into the mempool (Table I "Submitted").
    pub const SUBMITTED: &str = "submitted";
    /// Transfers committed on the source chain (Table I "Committed").
    pub const COMMITTED: &str = "committed";
    /// Transfers that fully completed within the window (Figs. 10–11).
    pub const COMPLETED: &str = "completed";
    /// Transfer + receive committed, acknowledgement missing.
    pub const PARTIAL: &str = "partial";
    /// Only the transfer committed.
    pub const INITIATED: &str = "initiated";
    /// Requested but never committed to the source chain.
    pub const NOT_COMMITTED: &str = "not_committed";
    /// Redundant packet-message occurrences (multi-relayer effect, §IV-A).
    pub const REDUNDANT_PACKET_ERRORS: &str = "redundant_packet_errors";
    /// Blocks whose event collection failed (WebSocket limit, §V).
    pub const EVENT_COLLECTION_FAILURES: &str = "event_collection_failures";
    /// Packets relayed by the packet-clear scan instead of event delivery
    /// (0 when the strategy's `packet_clear_interval` is 0).
    pub const PACKETS_CLEARED: &str = "packets_cleared";
    /// Failed broadcast attempts across all relayers (§V's account-sequence
    /// race is the dominant source).
    pub const BROADCAST_FAILURES: &str = "broadcast_failures";
    /// Receive transactions the destination chain committed *and failed* as
    /// redundant — a packet physically submitted twice, the signature of a
    /// relayer that lost its dedup state across a crash.
    pub const DOUBLE_SUBMITTED: &str = "double_submitted";
    /// Source-chain packets still outstanding (neither acknowledged nor
    /// timed out) when the run ended.
    pub const STRANDED_PACKETS: &str = "stranded_packets";
    /// Seconds from the first fault to the first transfer completion at or
    /// after it. Omitted when the fault plan is empty or nothing completed
    /// after the fault.
    pub const FIRST_COMPLETION_AFTER_FAULT_SECS: &str = "first_completion_after_fault_secs";
    /// Seconds from the last relayer restart to the first receive
    /// confirmation at or after it — the restarted process's time to resume
    /// useful delivery. Omitted when the plan has no restart or nothing was
    /// received afterwards.
    pub const RECOVERY_SECS: &str = "recovery_secs";
    /// End-to-end completion latency of the batch in seconds (Fig. 13).
    pub const COMPLETION_LATENCY_SECS: &str = "completion_latency_secs";
    /// Duration of the transfer phase (steps 1–4), seconds (Fig. 12).
    pub const TRANSFER_PHASE_SECS: &str = "transfer_phase_secs";
    /// Duration of the receive phase (steps 5–9), seconds (Fig. 12).
    pub const RECV_PHASE_SECS: &str = "recv_phase_secs";
    /// Duration of the acknowledgement phase (steps 10–13), seconds (Fig. 12).
    pub const ACK_PHASE_SECS: &str = "ack_phase_secs";
    /// Time spent in the transfer data-pull step, seconds (Fig. 12).
    pub const TRANSFER_PULL_SECS: &str = "transfer_pull_secs";
    /// Time spent in the receive data-pull step, seconds (Fig. 12).
    pub const RECV_PULL_SECS: &str = "recv_pull_secs";
    /// Fraction of total time spent in RPC data pulls (≈0.69 in the paper).
    pub const DATA_PULL_SHARE: &str = "data_pull_share";

    /// Set to 1 when the deployment failed to set up (its topology did not
    /// resolve, or an IBC handshake could not complete) and the run produced
    /// no data. Successful runs never emit the key.
    pub const SETUP_FAILED: &str = "setup_failed";
    /// Second-leg transfers the hop forwarder submitted (0 when the
    /// workload's hop plan has no active route).
    pub const FORWARDED: &str = "forwarded";
    /// Average first-leg completion latency in seconds (transfer broadcast →
    /// ack confirmation on the first-leg channel), aggregated over routes and
    /// additionally emitted per route via [`on_route`]. Omitted when no
    /// route completed a first leg.
    pub const HOP1_LATENCY_SECS: &str = "hop1_latency_secs";
    /// Average second-leg completion latency in seconds, aggregated and per
    /// route like [`HOP1_LATENCY_SECS`].
    pub const HOP2_LATENCY_SECS: &str = "hop2_latency_secs";
    /// Average forwarder lag in seconds (first-leg ack commit → second-leg
    /// broadcast), aggregated and per route like [`HOP1_LATENCY_SECS`].
    pub const FORWARD_LAG_SECS: &str = "forward_lag_secs";

    /// The per-channel variant of a metric key, e.g. `completed[channel-2]`.
    ///
    /// Every run emits the completion metrics once per channel under these
    /// keys in addition to the aggregates, its only channel included.
    pub fn on_channel(base: &str, channel: usize) -> String {
        format!("{base}[channel-{channel}]")
    }

    /// The per-hop-route variant of a metric key, e.g.
    /// `hop1_latency_secs[route-0]`.
    pub fn on_route(base: &str, route: usize) -> String {
        format!("{base}[route-{route}]")
    }
}

/// The unified, serializable result of one scenario run.
///
/// Outcomes carry the spec that produced them, so a results file is
/// self-describing and any point of any figure can be re-run from its
/// outcome alone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// The spec that produced this outcome.
    pub spec: ExperimentSpec,
    /// Every metric the analysis module computed, keyed by [`keys`].
    pub metrics: BTreeMap<String, f64>,
}

impl ScenarioOutcome {
    /// Creates an empty outcome for `spec`.
    pub fn new(spec: ExperimentSpec) -> Self {
        ScenarioOutcome {
            spec,
            metrics: BTreeMap::new(),
        }
    }

    /// Sets (or replaces) a metric.
    pub fn set(&mut self, key: &str, value: f64) {
        self.metrics.insert(key.to_string(), value);
    }

    /// Reads a raw metric, if present.
    pub fn metric(&self, key: &str) -> Option<f64> {
        self.metrics.get(key).copied()
    }

    fn count(&self, key: &str) -> u64 {
        self.metric(key).unwrap_or(0.0) as u64
    }

    fn float(&self, key: &str) -> f64 {
        self.metric(key).unwrap_or(0.0)
    }

    // -- typed accessors -----------------------------------------------------

    /// The configured input rate in transfers per second.
    pub fn input_rate_rps(&self) -> f64 {
        self.spec.workload.input_rate_rps()
    }

    /// Completed transfers per second over the measurement window.
    pub fn throughput_tfps(&self) -> f64 {
        self.float(keys::THROUGHPUT_TFPS)
    }

    /// Committed transfer messages per second on the source chain (Fig. 6).
    pub fn tendermint_throughput_tfps(&self) -> f64 {
        self.float(keys::TENDERMINT_THROUGHPUT_TFPS)
    }

    /// Average source-chain block interval in seconds (Fig. 7).
    pub fn avg_block_interval_secs(&self) -> f64 {
        self.float(keys::AVG_BLOCK_INTERVAL_SECS)
    }

    /// Transfers requested from the CLI.
    pub fn requests_made(&self) -> u64 {
        self.count(keys::REQUESTS_MADE)
    }

    /// Transfers accepted into the source chain's mempool.
    pub fn submitted(&self) -> u64 {
        self.count(keys::SUBMITTED)
    }

    /// Transfers committed on the source chain.
    pub fn committed(&self) -> u64 {
        self.count(keys::COMMITTED)
    }

    /// Fully completed transfers within the measurement window.
    pub fn completed(&self) -> u64 {
        self.count(keys::COMPLETED)
    }

    /// Partially completed transfers (transfer + receive only).
    pub fn partial(&self) -> u64 {
        self.count(keys::PARTIAL)
    }

    /// Transfers that were only initiated.
    pub fn initiated(&self) -> u64 {
        self.count(keys::INITIATED)
    }

    /// Transfers never committed to the source chain.
    pub fn not_committed(&self) -> u64 {
        self.count(keys::NOT_COMMITTED)
    }

    /// Transfers stuck mid-flight: committed on the source chain but neither
    /// completed nor timed out (the §V WebSocket-limit signature).
    pub fn stuck(&self) -> u64 {
        self.initiated() + self.partial()
    }

    /// Redundant packet-message occurrences across all relayers.
    pub fn redundant_packet_errors(&self) -> u64 {
        self.count(keys::REDUNDANT_PACKET_ERRORS)
    }

    /// Blocks whose event collection failed.
    pub fn event_collection_failures(&self) -> u64 {
        self.count(keys::EVENT_COLLECTION_FAILURES)
    }

    /// Packets relayed by the packet-clear scan.
    pub fn packets_cleared(&self) -> u64 {
        self.count(keys::PACKETS_CLEARED)
    }

    /// Failed broadcast attempts across all relayers.
    pub fn broadcast_failures(&self) -> u64 {
        self.count(keys::BROADCAST_FAILURES)
    }

    /// Packets the destination chain rejected on-chain as redundant.
    pub fn double_submitted(&self) -> u64 {
        self.count(keys::DOUBLE_SUBMITTED)
    }

    /// Packets still outstanding on the source chain at the end of the run.
    pub fn stranded_packets(&self) -> u64 {
        self.count(keys::STRANDED_PACKETS)
    }

    /// Seconds from the last relayer restart to the first receive
    /// confirmation after it, when the run recorded one.
    pub fn recovery_secs(&self) -> Option<f64> {
        self.metric(keys::RECOVERY_SECS)
    }

    /// End-to-end completion latency of the batch in seconds.
    pub fn completion_latency_secs(&self) -> f64 {
        self.float(keys::COMPLETION_LATENCY_SECS)
    }

    /// Duration of the transfer phase (steps 1–4) in seconds.
    pub fn transfer_phase_secs(&self) -> f64 {
        self.float(keys::TRANSFER_PHASE_SECS)
    }

    /// Duration of the receive phase (steps 5–9) in seconds.
    pub fn recv_phase_secs(&self) -> f64 {
        self.float(keys::RECV_PHASE_SECS)
    }

    /// Duration of the acknowledgement phase (steps 10–13) in seconds.
    pub fn ack_phase_secs(&self) -> f64 {
        self.float(keys::ACK_PHASE_SECS)
    }

    /// Time spent in the transfer data-pull step, in seconds.
    pub fn transfer_pull_secs(&self) -> f64 {
        self.float(keys::TRANSFER_PULL_SECS)
    }

    /// Time spent in the receive data-pull step, in seconds.
    pub fn recv_pull_secs(&self) -> f64 {
        self.float(keys::RECV_PULL_SECS)
    }

    /// Fraction of the total time spent in RPC data pulls.
    pub fn data_pull_share(&self) -> f64 {
        self.float(keys::DATA_PULL_SHARE)
    }

    /// Second-leg transfers the hop forwarder submitted.
    pub fn forwarded(&self) -> u64 {
        self.count(keys::FORWARDED)
    }

    /// Average first-leg completion latency in seconds, when a route
    /// completed a first leg.
    pub fn hop1_latency_secs(&self) -> Option<f64> {
        self.metric(keys::HOP1_LATENCY_SECS)
    }

    /// Average second-leg completion latency in seconds, when a route
    /// completed a second leg.
    pub fn hop2_latency_secs(&self) -> Option<f64> {
        self.metric(keys::HOP2_LATENCY_SECS)
    }

    /// Number of channels the deployment opened.
    pub fn channel_count(&self) -> usize {
        self.spec.deployment.channel_count.max(1)
    }

    /// A per-channel metric, e.g.
    /// `metric_on(keys::COMPLETED, 1)`.
    pub fn metric_on(&self, base: &str, channel: usize) -> Option<f64> {
        self.metric(&keys::on_channel(base, channel))
    }

    /// Fully completed transfers of one channel.
    pub fn completed_on(&self, channel: usize) -> u64 {
        self.metric_on(keys::COMPLETED, channel).unwrap_or(0.0) as u64
    }

    // -- emission ------------------------------------------------------------

    /// Converts the outcome into an [`ExecutionReport`] named after the spec,
    /// carrying every metric plus a deployment note.
    pub fn to_report(&self) -> ExecutionReport {
        let mut report = ExecutionReport::new(self.spec.name.clone());
        for (key, value) in &self.metrics {
            report.set_metric(key.clone(), *value);
        }
        report.add_note(format!(
            "{} relayer(s), {} ms RTT, seed {}",
            self.spec.deployment.relayer_count,
            self.spec.deployment.network_rtt_ms,
            self.spec.deployment.seed
        ));
        report
    }

    /// Serializes the outcome (spec included) to pretty JSON.
    ///
    /// # Panics
    ///
    /// Panics only if serialization fails, which would indicate a bug in the
    /// outcome structure itself.
    #[expect(
        clippy::expect_used,
        reason = "serialisation fails only on a bug in the outcome structure itself"
    )]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("outcome serialisation cannot fail")
    }
}

/// Renders a batch of outcomes as a CSV table: one row per outcome, one
/// column per metric (the union of all keys, sorted), prefixed by the spec
/// name and seed so sweep output is self-describing.
pub fn csv_table(outcomes: &[ScenarioOutcome]) -> String {
    let mut columns: Vec<&str> = Vec::new();
    for outcome in outcomes {
        for key in outcome.metrics.keys() {
            if !columns.contains(&key.as_str()) {
                columns.push(key);
            }
        }
    }
    columns.sort_unstable();

    let mut out = String::from("name,seed");
    for column in &columns {
        out.push(',');
        out.push_str(column);
    }
    out.push('\n');
    for outcome in outcomes {
        let name = outcome.spec.name.replace(',', ";");
        out.push_str(&name);
        out.push(',');
        out.push_str(&outcome.spec.deployment.seed.to_string());
        for column in &columns {
            out.push(',');
            if let Some(value) = outcome.metric(column) {
                out.push_str(&format!("{value}"));
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ExperimentSpec;

    fn sample_outcome(name: &str, tfps: f64) -> ScenarioOutcome {
        let mut o = ScenarioOutcome::new(ExperimentSpec::relayer_throughput().named(name));
        o.set(keys::THROUGHPUT_TFPS, tfps);
        o.set(keys::COMPLETED, 250.0);
        o
    }

    #[test]
    fn accessors_read_back_metrics() {
        let o = sample_outcome("t", 81.5);
        assert_eq!(o.throughput_tfps(), 81.5);
        assert_eq!(o.completed(), 250);
        assert_eq!(o.partial(), 0);
        assert_eq!(o.metric("missing"), None);
    }

    #[test]
    fn outcomes_round_trip_through_json_identically() {
        let o = sample_outcome("round-trip", 42.25);
        let json = o.to_json();
        let back: ScenarioOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(back, o);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn report_carries_every_metric() {
        let o = sample_outcome("rep", 3.0);
        let report = o.to_report();
        assert_eq!(report.metric(keys::THROUGHPUT_TFPS), Some(3.0));
        assert_eq!(report.metric(keys::COMPLETED), Some(250.0));
        assert_eq!(report.name, "rep");
    }

    #[test]
    fn csv_table_has_union_of_columns() {
        let mut a = sample_outcome("a", 1.0);
        a.set(keys::PARTIAL, 2.0);
        let b = sample_outcome("b", 2.0);
        let csv = csv_table(&[a, b]);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "name,seed,completed,partial,throughput_tfps"
        );
        assert_eq!(lines.next().unwrap(), "a,42,250,2,1");
        assert_eq!(lines.next().unwrap(), "b,42,250,,2");
    }
}
