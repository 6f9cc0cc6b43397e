//! The Analysis module: the Cross-chain Event Processor and the metrics the
//! paper reports (throughput, latency, completion status, block intervals,
//! per-step breakdowns).

use serde::{Deserialize, Serialize};

use xcc_relayer::telemetry::TransferStep;
use xcc_sim::SimTime;

use crate::runner::{outstanding_packets, RunOutput};

/// The completion status of a transfer at the end of the measurement window
/// (Figs. 10 and 11 of the paper).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompletionBreakdown {
    /// Transfer, receive and acknowledgement all committed.
    pub completed: u64,
    /// Transfer and receive committed, acknowledgement missing.
    pub partial: u64,
    /// Only the transfer committed.
    pub initiated: u64,
    /// Requested but never committed to the source chain.
    pub not_committed: u64,
}

impl CompletionBreakdown {
    /// Total number of transfer requests accounted for.
    pub fn total(&self) -> u64 {
        self.completed + self.partial + self.initiated + self.not_committed
    }
}

/// Durations of the three message phases and the two data-pull steps of
/// Fig. 12, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StepBreakdown {
    /// End-to-end latency from the first transfer broadcast to the last
    /// acknowledgement confirmation.
    pub total_secs: f64,
    /// Duration of the transfer phase (steps 1–4).
    pub transfer_phase_secs: f64,
    /// Duration of the receive phase (steps 5–9).
    pub recv_phase_secs: f64,
    /// Duration of the acknowledgement phase (steps 10–13).
    pub ack_phase_secs: f64,
    /// Time spent in the transfer data-pull step.
    pub transfer_pull_secs: f64,
    /// Time spent in the receive (acknowledgement) data-pull step.
    pub recv_pull_secs: f64,
}

impl StepBreakdown {
    /// Fraction of the total time spent pulling data over RPC — the paper
    /// reports roughly 69%.
    pub fn data_pull_share(&self) -> f64 {
        if self.total_secs <= 0.0 {
            0.0
        } else {
            (self.transfer_pull_secs + self.recv_pull_secs) / self.total_secs
        }
    }
}

/// Number of transfers committed to the source chain during the run, summed
/// over every open channel.
pub fn committed_transfers(run: &RunOutput) -> u64 {
    (0..run.paths.len())
        .map(|ch| committed_transfers_on(run, ch))
        .sum()
}

/// Number of transfers committed to the source chain on one channel (the
/// channel's own source chain in topology runs).
pub fn committed_transfers_on(run: &RunOutput, channel: usize) -> u64 {
    let path = &run.paths[channel];
    let (src, _) = run.path_ends[channel];
    run.chains[src]
        .borrow()
        .app()
        .ibc()
        .sent_sequences(&path.port, &path.src_channel)
        .len() as u64
}

/// Number of transfers that completed (acknowledgement committed on the
/// source chain) no later than `cutoff`.
pub fn completed_within(run: &RunOutput, cutoff: SimTime) -> u64 {
    run.telemetry
        .times_for_step(TransferStep::AckConfirmation)
        .into_iter()
        .filter(|t| *t <= cutoff)
        .count() as u64
}

/// Cross-chain throughput in transfers per second over the measurement
/// window, as defined in §III-E: completed transfers divided by the window
/// duration.
pub fn throughput_tfps(run: &RunOutput) -> f64 {
    let window = run.measurement_end - run.measurement_start;
    if window.is_zero() {
        return 0.0;
    }
    completed_within(run, run.measurement_end) as f64 / window.as_secs_f64()
}

/// Source-chain throughput in committed transfer messages per second over the
/// measurement window (the Fig. 6 metric — no relaying required).
pub fn tendermint_throughput_tfps(run: &RunOutput) -> f64 {
    let window = run.measurement_end - run.measurement_start;
    if window.is_zero() {
        return 0.0;
    }
    committed_transfers(run) as f64 / window.as_secs_f64()
}

/// Average interval between consecutive source-chain blocks during the
/// measurement window (Fig. 7).
pub fn average_block_interval_secs(run: &RunOutput) -> f64 {
    let intervals: Vec<f64> = run
        .blocks_a
        .iter()
        .filter(|b| b.committed_at <= run.measurement_end)
        .map(|b| b.interval.as_secs_f64())
        .collect();
    if intervals.is_empty() {
        0.0
    } else {
        intervals.iter().sum::<f64>() / intervals.len() as f64
    }
}

/// Classifies every requested transfer at the end of the measurement window
/// (Figs. 10 and 11), summed over every open channel.
pub fn completion_breakdown(run: &RunOutput) -> CompletionBreakdown {
    let mut total = CompletionBreakdown::default();
    for channel in 0..run.paths.len() {
        let b = completion_breakdown_on(run, channel);
        total.completed += b.completed;
        total.partial += b.partial;
        total.initiated += b.initiated;
        total.not_committed += b.not_committed;
    }
    total
}

/// Classifies one channel's requested transfers at the end of the
/// measurement window. The per-channel breakdowns sum to
/// [`completion_breakdown`] by construction — `tests/multi_channel.rs` pins
/// this invariant.
pub fn completion_breakdown_on(run: &RunOutput, channel: usize) -> CompletionBreakdown {
    let cutoff = run.measurement_end;
    let committed = committed_transfers_on(run, channel);
    let requested: u64 = run
        .submission_records
        .iter()
        .filter(|r| r.channel == channel)
        .map(|r| r.transfers as u64)
        .sum();

    let mut completed = 0u64;
    let mut partial = 0u64;
    let mut initiated = 0u64;
    let ch = channel as u64;
    for (packet_channel, seq) in run.telemetry.packets() {
        if packet_channel != ch {
            continue;
        }
        let acked = run
            .telemetry
            .step_time_on(ch, seq, TransferStep::AckConfirmation)
            .map(|t| t <= cutoff)
            .unwrap_or(false);
        let received = run
            .telemetry
            .step_time_on(ch, seq, TransferStep::RecvConfirmation)
            .map(|t| t <= cutoff)
            .unwrap_or(false);
        if acked {
            completed += 1;
        } else if received {
            partial += 1;
        } else {
            initiated += 1;
        }
    }
    // Transfers committed on chain but never observed by any relayer (e.g.
    // when event collection failed) are still "initiated".
    let observed = completed + partial + initiated;
    if committed > observed {
        initiated += committed - observed;
    }
    CompletionBreakdown {
        completed,
        partial,
        initiated,
        not_committed: requested.saturating_sub(committed),
    }
}

/// The per-phase latency breakdown of Fig. 12.
pub fn step_breakdown(run: &RunOutput) -> StepBreakdown {
    let earliest = |step: TransferStep| run.telemetry.times_for_step(step).into_iter().min();
    let latest = |step: TransferStep| run.telemetry.times_for_step(step).into_iter().max();

    let start = earliest(TransferStep::TransferBroadcast).unwrap_or(SimTime::ZERO);
    let end = latest(TransferStep::AckConfirmation).unwrap_or(start);
    let transfer_end = latest(TransferStep::TransferDataPull).unwrap_or(start);
    let recv_end = latest(TransferStep::RecvDataPull).unwrap_or(transfer_end);

    // The pulls run back-to-back on the packet worker, so the span from the
    // first to the last pull completion measures the time spent in that step.
    let pull_window = |step: TransferStep| -> f64 {
        match (earliest(step), latest(step)) {
            (Some(first), Some(last)) => (last - first).as_secs_f64(),
            _ => 0.0,
        }
    };

    StepBreakdown {
        total_secs: (end - start).as_secs_f64(),
        transfer_phase_secs: (transfer_end - start).as_secs_f64(),
        recv_phase_secs: (recv_end - transfer_end).as_secs_f64(),
        ack_phase_secs: (end - recv_end).as_secs_f64(),
        transfer_pull_secs: pull_window(TransferStep::TransferDataPull),
        recv_pull_secs: pull_window(TransferStep::RecvDataPull),
    }
}

/// End-to-end completion latency: the time from the first transfer broadcast
/// until every requested transfer completed (Fig. 13's metric). Returns
/// `None` when not all transfers completed.
pub fn completion_latency(run: &RunOutput) -> Option<f64> {
    let completed = run.telemetry.count_for_step(TransferStep::AckConfirmation) as u64;
    if completed < run.submission.submitted || completed == 0 {
        return None;
    }
    let start = run
        .telemetry
        .times_for_step(TransferStep::TransferBroadcast)
        .into_iter()
        .min()?;
    let end = run
        .telemetry
        .times_for_step(TransferStep::AckConfirmation)
        .into_iter()
        .max()?;
    Some((end - start).as_secs_f64())
}

/// Total count of "packet messages are redundant" occurrences across all
/// relayers (the §IV-A multi-relayer observation).
pub fn redundant_packet_errors(run: &RunOutput) -> u64 {
    let skipped: u64 = run
        .relayer_stats
        .iter()
        .map(|s| s.packets_skipped_already_relayed)
        .sum();
    skipped + double_submitted_packets(run)
}

/// Number of receive transactions the destination chain *committed and
/// failed* as redundant — a packet physically submitted twice.
///
/// This deliberately excludes relayer-side skips (a skip is the dedup
/// machinery working): after a crash-and-restart, a relayer that lost its
/// in-memory pending queues may re-relay packets it already delivered, and
/// only an on-chain redundant failure proves a genuine double submission.
/// The fault scenarios and `tests/fault_recovery.rs` pin this at zero for a
/// single restarted relayer.
pub fn double_submitted_packets(run: &RunOutput) -> u64 {
    // Scan every distinct packet-destination chain (only chain B in the
    // legacy pair topology).
    let mut dsts: Vec<usize> = Vec::new();
    for &(_, dst) in &run.path_ends {
        if !dsts.contains(&dst) {
            dsts.push(dst);
        }
    }
    let mut count = 0u64;
    for dst in dsts {
        let chain = run.chains[dst].borrow();
        for height in 1..=chain.height() {
            if let Some(block) = chain.block_at(height) {
                count += block
                    .results
                    .iter()
                    .filter(|r| !r.is_ok() && r.log.contains("redundant"))
                    .count() as u64;
            }
        }
    }
    count
}

/// Packets committed on the source chain whose commitment is still
/// outstanding when the run ends: neither acknowledged nor timed out. With an
/// expired client (the `ClientExpiry` fault) and no workload timeout these
/// are the transfers stranded forever; with timeouts configured they drain
/// back to zero as refunds land.
pub fn stranded_packets(run: &RunOutput) -> u64 {
    outstanding_packets(&run.paths, &run.path_ends, &run.chains)
}

/// Average seconds from transfer broadcast to acknowledgement confirmation
/// over the packets of one global channel — the completion latency of one
/// leg of a multi-hop route. `None` when no packet on the channel recorded
/// both steps.
pub fn channel_completion_latency(run: &RunOutput, channel: usize) -> Option<f64> {
    let ch = channel as u64;
    let mut total = 0.0f64;
    let mut count = 0u64;
    for (packet_channel, seq) in run.telemetry.packets() {
        if packet_channel != ch {
            continue;
        }
        let start = run
            .telemetry
            .step_time_on(ch, seq, TransferStep::TransferBroadcast);
        let end = run
            .telemetry
            .step_time_on(ch, seq, TransferStep::AckConfirmation);
        if let (Some(start), Some(end)) = (start, end) {
            total += (end - start).as_secs_f64();
            count += 1;
        }
    }
    if count == 0 {
        None
    } else {
        Some(total / count as f64)
    }
}

/// Average seconds the hop forwarder took from a first-leg ack commit to
/// broadcasting the matching second-leg transaction, over one route's
/// accepted forwards. `None` when the route forwarded nothing.
pub fn forward_lag_secs(run: &RunOutput, route: usize) -> Option<f64> {
    let mut total = 0.0f64;
    let mut count = 0u64;
    for record in &run.forwards {
        if record.route != route || !record.submission.accepted {
            continue;
        }
        total += (record.submission.broadcast_at - record.triggered_at).as_secs_f64();
        count += 1;
    }
    if count == 0 {
        None
    } else {
        Some(total / count as f64)
    }
}

/// Seconds from the fault plan's first fault until the first transfer
/// completion (source-chain acknowledgement) at or after it. `None` when the
/// plan is empty or nothing completed after the fault — the scenario layer
/// reports that as "no recovery observed".
pub fn time_to_first_completed_after_fault(run: &RunOutput) -> Option<f64> {
    let fault_at = SimTime::ZERO + run.deployment.fault_plan.first_fault_at()?;
    first_step_at_or_after(run, TransferStep::AckConfirmation, fault_at)
        .map(|t| (t - fault_at).as_secs_f64())
}

/// Seconds from the last `RelayerRestart` in the fault plan until the first
/// receive confirmation at or after it — the restarted process's time to
/// resume useful delivery. `None` when the plan schedules no restart or no
/// recv ever confirmed afterwards.
pub fn recovery_secs(run: &RunOutput) -> Option<f64> {
    let restart_at = SimTime::ZERO + run.deployment.fault_plan.last_restart_at()?;
    first_step_at_or_after(run, TransferStep::RecvConfirmation, restart_at)
        .map(|t| (t - restart_at).as_secs_f64())
}

/// The earliest telemetry time for `step` at or after `cutoff`.
fn first_step_at_or_after(run: &RunOutput, step: TransferStep, cutoff: SimTime) -> Option<SimTime> {
    run.telemetry
        .times_for_step(step)
        .into_iter()
        .filter(|t| *t >= cutoff)
        .min()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeploymentConfig, WorkloadConfig};
    use crate::runner::run_experiment;

    fn small_run(relayers: usize) -> RunOutput {
        let deployment = DeploymentConfig {
            user_accounts: 2,
            relayer_count: relayers,
            network_rtt_ms: 0,
            ..DeploymentConfig::default()
        };
        let workload = WorkloadConfig {
            total_transfers: 100,
            submission_blocks: 1,
            measurement_blocks: 3,
            completion_grace_blocks: 40,
            ..WorkloadConfig::default()
        };
        run_experiment(&deployment, &workload).expect("pair deployment builds")
    }

    #[test]
    fn metrics_cover_a_complete_small_run() {
        let run = small_run(1);
        assert_eq!(committed_transfers(&run), 100);
        let breakdown = completion_breakdown(&run);
        assert_eq!(breakdown.total(), 100);
        assert_eq!(breakdown.not_committed, 0);
        assert!(breakdown.completed > 0);
        assert!(throughput_tfps(&run) > 0.0);
        assert!(tendermint_throughput_tfps(&run) > 0.0);
        assert!(average_block_interval_secs(&run) >= 5.0);

        let steps = step_breakdown(&run);
        assert!(steps.total_secs > 0.0);
        // With a single 100-packet batch there is only one pull per phase, so
        // the share can legitimately be zero; it must just stay a fraction.
        assert!((0.0..1.0).contains(&steps.data_pull_share()));

        assert!(completion_latency(&run).unwrap() > 0.0);
    }

    #[test]
    fn fault_metrics_track_a_crash_and_restart_run() {
        use crate::fault::{FaultEvent, FaultPlan};
        use xcc_relayer::strategy::RelayerStrategy;
        use xcc_sim::SimDuration;

        let deployment = DeploymentConfig {
            user_accounts: 2,
            relayer_count: 1,
            network_rtt_ms: 0,
            relayer_strategy: RelayerStrategy::default().packet_clearing(2),
            // Crash before the first transfer block commits, restart two
            // blocks later: the restarted process must recover the missed
            // work via inbox replay and the packet-clear scan.
            fault_plan: FaultPlan::new([
                FaultEvent::RelayerCrash {
                    relayer: 0,
                    at: SimDuration::from_secs(4),
                },
                FaultEvent::RelayerRestart {
                    relayer: 0,
                    at: SimDuration::from_secs(16),
                },
            ]),
            ..DeploymentConfig::default()
        };
        let workload = WorkloadConfig {
            total_transfers: 60,
            submission_blocks: 1,
            measurement_blocks: 4,
            run_to_completion: true,
            completion_grace_blocks: 40,
            ..WorkloadConfig::default()
        };
        let run = run_experiment(&deployment, &workload).expect("pair deployment builds");
        // Everything recovers: no packet is submitted twice on-chain, none
        // stay stranded, and both recovery clocks produce a reading.
        assert_eq!(double_submitted_packets(&run), 0);
        assert_eq!(stranded_packets(&run), 0);
        assert!(recovery_secs(&run).is_some());
        assert!(time_to_first_completed_after_fault(&run).unwrap() >= 0.0);
        assert_eq!(
            run.telemetry.count_for_step(TransferStep::AckConfirmation),
            60
        );
    }

    #[test]
    fn two_relayers_generate_redundancy_signals() {
        let run = small_run(2);
        // With two uncoordinated relayers at zero latency, at least one of
        // redundancy skips or failed redundant transactions must appear.
        assert!(redundant_packet_errors(&run) > 0);
    }
}
