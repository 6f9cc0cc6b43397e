//! Spec-driven scenario execution.
//!
//! [`run`] takes an [`ExperimentSpec`], deploys a fresh testnet, executes the
//! configured workload and returns the unified
//! [`crate::outcome::ScenarioOutcome`] carrying every metric
//! the paper reports.

use xcc_relayer::relayer::RelayerStats;

use crate::analysis;
use crate::outcome::{keys, ScenarioOutcome};
use crate::runner::{run_experiment, RunOutput};
use crate::spec::ExperimentSpec;
use crate::testnet::SetupError;

/// Executes a spec end to end and returns its raw data for custom analysis,
/// or the [`SetupError`] when the deployment cannot be built.
pub fn try_run_raw(spec: &ExperimentSpec) -> Result<RunOutput, SetupError> {
    run_experiment(&spec.resolved_deployment(), &spec.workload)
}

/// Executes a spec end to end and returns its raw data for custom analysis.
///
/// Most callers want [`run`]; this entry point exists for examples and tests
/// that inspect chains, telemetry or block records directly. Specs whose
/// deployment can fail to set up (hand-written topologies) should use
/// [`try_run_raw`].
#[expect(
    clippy::expect_used,
    reason = "convenience front end for tests and examples; the fallible path is try_run_raw"
)]
pub fn run_raw(spec: &ExperimentSpec) -> RunOutput {
    try_run_raw(spec).expect("experiment setup succeeds for this spec")
}

/// Computes the unified outcome of a finished run.
///
/// Every metric is computed for every run — the spec's kind picks defaults
/// at build time, never the shape of the result. The keys depend only on
/// the run's channels and hop routes; a value that does not exist (a
/// recovery clock that never started, a hop latency of a route that
/// completed nothing) is omitted, never reported as zero.
pub fn outcome_from(spec: &ExperimentSpec, run: &RunOutput) -> ScenarioOutcome {
    let mut outcome = ScenarioOutcome::new(spec.clone());
    let breakdown = analysis::completion_breakdown(run);
    let steps = analysis::step_breakdown(run);
    let relayer_total =
        |count: fn(&RelayerStats) -> u64| run.relayer_stats.iter().map(count).sum::<u64>() as f64;

    outcome.set(keys::THROUGHPUT_TFPS, analysis::throughput_tfps(run));
    outcome.set(
        keys::TENDERMINT_THROUGHPUT_TFPS,
        analysis::tendermint_throughput_tfps(run),
    );
    outcome.set(
        keys::AVG_BLOCK_INTERVAL_SECS,
        analysis::average_block_interval_secs(run),
    );
    outcome.set(keys::REQUESTS_MADE, run.submission.requests_made as f64);
    outcome.set(keys::SUBMITTED, run.submission.submitted as f64);
    outcome.set(keys::COMMITTED, analysis::committed_transfers(run) as f64);
    outcome.set(keys::COMPLETED, breakdown.completed as f64);
    outcome.set(keys::PARTIAL, breakdown.partial as f64);
    outcome.set(keys::INITIATED, breakdown.initiated as f64);
    outcome.set(keys::NOT_COMMITTED, breakdown.not_committed as f64);
    outcome.set(
        keys::REDUNDANT_PACKET_ERRORS,
        analysis::redundant_packet_errors(run) as f64,
    );
    outcome.set(
        keys::EVENT_COLLECTION_FAILURES,
        relayer_total(|s| s.event_collection_failures),
    );
    outcome.set(
        keys::COMPLETION_LATENCY_SECS,
        analysis::completion_latency(run).unwrap_or(steps.total_secs),
    );
    outcome.set(keys::TRANSFER_PHASE_SECS, steps.transfer_phase_secs);
    outcome.set(keys::RECV_PHASE_SECS, steps.recv_phase_secs);
    outcome.set(keys::ACK_PHASE_SECS, steps.ack_phase_secs);
    outcome.set(keys::TRANSFER_PULL_SECS, steps.transfer_pull_secs);
    outcome.set(keys::RECV_PULL_SECS, steps.recv_pull_secs);
    outcome.set(keys::DATA_PULL_SHARE, steps.data_pull_share());
    outcome.set(keys::PACKETS_CLEARED, relayer_total(|s| s.packets_cleared));
    outcome.set(
        keys::BROADCAST_FAILURES,
        relayer_total(|s| s.broadcast_failures),
    );
    outcome.set(
        keys::DOUBLE_SUBMITTED,
        analysis::double_submitted_packets(run) as f64,
    );
    outcome.set(
        keys::STRANDED_PACKETS,
        analysis::stranded_packets(run) as f64,
    );
    // The two recovery clocks are omitted (not zero) when the run never
    // recovered, so a stranded run is distinguishable from an instant
    // recovery.
    if let Some(secs) = analysis::time_to_first_completed_after_fault(run) {
        outcome.set(keys::FIRST_COMPLETION_AFTER_FAULT_SECS, secs);
    }
    if let Some(secs) = analysis::recovery_secs(run) {
        outcome.set(keys::RECOVERY_SECS, secs);
    }

    // The multi-hop decomposition: how many second legs the forwarder
    // spawned and how long each leg (and the forwarding gap between them)
    // took, aggregated and per route.
    outcome.set(keys::FORWARDED, run.forward_stats.submitted as f64);
    let mut hop1 = Vec::new();
    let mut hop2 = Vec::new();
    let mut lag = Vec::new();
    for (ri, route) in run.hop_routes.iter().enumerate() {
        if let Some(secs) = analysis::channel_completion_latency(run, route.first_leg) {
            outcome.set(&keys::on_route(keys::HOP1_LATENCY_SECS, ri), secs);
            hop1.push(secs);
        }
        if let Some(secs) = analysis::channel_completion_latency(run, route.second_leg) {
            outcome.set(&keys::on_route(keys::HOP2_LATENCY_SECS, ri), secs);
            hop2.push(secs);
        }
        if let Some(secs) = analysis::forward_lag_secs(run, ri) {
            outcome.set(&keys::on_route(keys::FORWARD_LAG_SECS, ri), secs);
            lag.push(secs);
        }
    }
    let mean = |values: &[f64]| values.iter().sum::<f64>() / values.len() as f64;
    if !hop1.is_empty() {
        outcome.set(keys::HOP1_LATENCY_SECS, mean(&hop1));
    }
    if !hop2.is_empty() {
        outcome.set(keys::HOP2_LATENCY_SECS, mean(&hop2));
    }
    if !lag.is_empty() {
        outcome.set(keys::FORWARD_LAG_SECS, mean(&lag));
    }

    // The completion metrics once per channel, beside the aggregates.
    let window = (run.measurement_end - run.measurement_start).as_secs_f64();
    for channel in 0..run.paths.len() {
        let b = analysis::completion_breakdown_on(run, channel);
        outcome.set(
            &keys::on_channel(keys::COMPLETED, channel),
            b.completed as f64,
        );
        outcome.set(&keys::on_channel(keys::PARTIAL, channel), b.partial as f64);
        outcome.set(
            &keys::on_channel(keys::INITIATED, channel),
            b.initiated as f64,
        );
        outcome.set(
            &keys::on_channel(keys::NOT_COMMITTED, channel),
            b.not_committed as f64,
        );
        outcome.set(
            &keys::on_channel(keys::COMMITTED, channel),
            analysis::committed_transfers_on(run, channel) as f64,
        );
        let tfps = if window > 0.0 {
            b.completed as f64 / window
        } else {
            0.0
        };
        outcome.set(&keys::on_channel(keys::THROUGHPUT_TFPS, channel), tfps);
    }
    outcome
}

/// Deploys, executes and analyses one spec, or reports why setup failed.
pub fn try_run(spec: &ExperimentSpec) -> Result<ScenarioOutcome, SetupError> {
    let raw = try_run_raw(spec)?;
    Ok(outcome_from(spec, &raw))
}

/// Deploys, executes and analyses one spec: the single entry point every
/// figure, sweep and test goes through.
///
/// A spec whose deployment cannot set up (an invalid hand-written topology,
/// a failed handshake) still yields an outcome — with the single
/// `setup_failed` metric set — instead of panicking, so one bad point cannot
/// take down a whole sweep.
pub fn run(spec: &ExperimentSpec) -> ScenarioOutcome {
    match try_run(spec) {
        Ok(outcome) => outcome,
        Err(_) => {
            let mut outcome = ScenarioOutcome::new(spec.clone());
            outcome.set(keys::SETUP_FAILED, 1.0);
            outcome
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_tendermint_run_commits_requested_transfers() {
        let outcome = run(&ExperimentSpec::tendermint_throughput()
            .input_rate(40)
            .rtt_ms(0)
            .seed(1));
        assert_eq!(outcome.requests_made(), 40 * 5 * 15);
        assert_eq!(outcome.submitted(), outcome.requests_made());
        assert!(outcome.committed() > 0);
        assert!(outcome.tendermint_throughput_tfps() > 0.0);
        assert!(outcome.avg_block_interval_secs() >= 5.0);
    }

    /// Every submission hands the chain the transaction its client built,
    /// so a whole run encodes exactly one transaction per
    /// `broadcast_tx_sync` and decodes none, however many of them commit.
    #[test]
    fn the_smoke_run_encodes_each_submitted_transaction_once_and_decodes_none() {
        let entry = crate::registry::get("smoke").expect("registered");
        let spec = &entry.grid(crate::sweep::SweepMode::Quick).points()[0];
        let work = run_raw(spec).work;
        let broadcasts = work.rpc_calls["broadcast_tx_sync"];
        assert!(broadcasts > 0);
        assert_eq!(work.txs_encoded, broadcasts);
        assert_eq!(work.txs_decoded, 0);
    }

    #[test]
    fn small_relayer_run_completes_transfers() {
        let outcome = run(&ExperimentSpec::relayer_throughput()
            .input_rate(20)
            .relayers(1)
            .rtt_ms(0)
            .measurement_blocks(6)
            .seed(1));
        assert!(
            outcome.completed() > 0,
            "completed = {}",
            outcome.completed()
        );
        assert!(outcome.throughput_tfps() > 0.0);
        assert_eq!(
            outcome.completed() + outcome.partial() + outcome.initiated() + outcome.not_committed(),
            20 * 5 * 6
        );
    }

    #[test]
    fn latency_run_reports_phase_breakdown() {
        let outcome = run(&ExperimentSpec::latency()
            .transfers(300)
            .submission_blocks(1)
            .rtt_ms(0)
            .seed(1));
        assert!(outcome.completion_latency_secs() > 0.0);
        assert!(outcome.recv_phase_secs() >= 0.0);
        assert!(outcome.data_pull_share() > 0.0 && outcome.data_pull_share() < 1.0);
    }

    /// The counts the paper's findings are made of are in every outcome —
    /// a fault-free two-chain run with one channel and no clearing as much
    /// as a hub run — and so is each channel's breakdown, the only channel
    /// included.
    #[test]
    fn every_run_reports_every_count_and_every_channel() {
        use crate::topology::Topology;

        let pair = run(&ExperimentSpec::relayer_throughput()
            .input_rate(20)
            .measurement_blocks(3)
            .rtt_ms(0)
            .seed(42));
        let hub = run(&ExperimentSpec::latency()
            .transfers(120)
            .measurement_blocks(8)
            .rtt_ms(0)
            .channel_weights([1, 1, 0, 0])
            .topology(Topology::hub_and_spoke(2))
            .hop_plan(Topology::hub_and_spoke_routes(2, 1))
            .seed(42));
        for outcome in [&pair, &hub] {
            for key in [
                keys::STRANDED_PACKETS,
                keys::BROADCAST_FAILURES,
                keys::DOUBLE_SUBMITTED,
                keys::PACKETS_CLEARED,
                keys::FORWARDED,
            ] {
                assert!(
                    outcome.metric(key).is_some(),
                    "{}: no {key}",
                    outcome.spec.name
                );
            }
            for base in [
                keys::COMPLETED,
                keys::PARTIAL,
                keys::INITIATED,
                keys::NOT_COMMITTED,
                keys::COMMITTED,
                keys::THROUGHPUT_TFPS,
            ] {
                assert!(
                    outcome.metric_on(base, 0).is_some(),
                    "{}: no {base}[channel-0]",
                    outcome.spec.name
                );
            }
        }
        assert_eq!(pair.metric_on(keys::COMPLETED, 1), None);
        assert_eq!(pair.completed_on(0), pair.completed());
        assert!(hub.forwarded() > 0);
    }

    #[test]
    fn splitting_submission_reduces_latency_for_large_batches() {
        let base = ExperimentSpec::latency().transfers(1_200).rtt_ms(0).seed(7);
        let single = run(&base.clone().submission_blocks(1));
        let split = run(&base.submission_blocks(4));
        assert!(
            split.completion_latency_secs() < single.completion_latency_secs(),
            "split {} vs single {}",
            split.completion_latency_secs(),
            single.completion_latency_secs()
        );
    }
}
