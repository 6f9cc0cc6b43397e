//! Acceptance tests for the pluggable relayer pipeline.
//!
//! * **Accounting invariants**: in two-relayer runs, every receive message
//!   committed to the destination chain is either the packet's unique
//!   successful delivery or an on-chain redundant failure, and the
//!   pre-broadcast skips reported by `RelayerStats` match the telemetry
//!   error log.
//! * **Counterfactual behaviour**: each non-default strategy moves the
//!   metric the paper says it should.

use std::collections::BTreeSet;

use ibc_perf_repro::chain::ante;
use ibc_perf_repro::chain::msg::Msg;
use ibc_perf_repro::chain::tx::Tx;
use ibc_perf_repro::framework::scenarios;
use ibc_perf_repro::framework::spec::ExperimentSpec;
use ibc_perf_repro::framework::ScenarioOutcome;
use ibc_perf_repro::ibc::error::CODE_REDUNDANT_PACKET;
use ibc_perf_repro::relayer::strategy::{RelayerStrategy, SequenceTracking};
use ibc_perf_repro::relayer::telemetry::{RelayerError, RelayerErrorKind, TransferStep};
use ibc_perf_repro::tendermint::node::SubmitError;

const GOLDENS: &str = include_str!("fixtures/default_strategy_goldens.json");
const SEQUENCE_RACE_GOLDENS: &str = include_str!("fixtures/sequence_race_goldens.json");
const STRATEGY_ARMS_GOLDENS: &str = include_str!("fixtures/strategy_arms_goldens.json");

/// The strategies a fixture pins. `tests/goldens.rs` replays every fixture
/// (regenerate with `goldens --set <set>`).
fn pinned_strategies(fixture: &str) -> Vec<RelayerStrategy> {
    serde_json::from_str::<Vec<ScenarioOutcome>>(fixture)
        .unwrap()
        .into_iter()
        .map(|g| g.spec.deployment.relayer_strategy)
        .collect()
}

/// The pre-refactor monolithic relayer's fig8/fig9/fig11/fig12 outcomes are
/// pinned under the default strategy, one golden per figure point.
#[test]
fn default_strategy_reproduces_pre_refactor_goldens() {
    let strategies = pinned_strategies(GOLDENS);
    assert_eq!(strategies, vec![RelayerStrategy::default(); 5]);
}

fn two_relayer_spec() -> ExperimentSpec {
    ExperimentSpec::relayer_throughput()
        .input_rate(40)
        .relayers(2)
        .rtt_ms(200)
        .measurement_blocks(6)
        .seed(3)
}

#[test]
fn redundant_message_accounting_sums_to_the_packet_totals() {
    let run = scenarios::run_raw(&two_relayer_spec());

    // Count every MsgRecvPacket committed to the destination chain, split by
    // execution outcome.
    let mut successful_recv_msgs = 0u64;
    let mut redundant_failed_msgs = 0u64;
    let mut redundant_failed_txs = 0u64;
    let mut other_failed_msgs = 0u64;
    {
        let chain = run.chain_b.borrow();
        for height in 1..=chain.height() {
            let block = chain.block_at(height).unwrap();
            for (raw, result) in block.block.data.txs.iter().zip(&block.results) {
                let tx = Tx::decode(raw).expect("committed txs decode");
                let recv_msgs = tx
                    .msgs
                    .iter()
                    .filter(|m| matches!(m, Msg::IbcRecvPacket { .. }))
                    .count() as u64;
                if recv_msgs == 0 {
                    continue;
                }
                if result.is_ok() {
                    successful_recv_msgs += recv_msgs;
                } else if result.code == CODE_REDUNDANT_PACKET {
                    redundant_failed_msgs += recv_msgs;
                    redundant_failed_txs += 1;
                } else {
                    // Sequence races between the two instances' retries can
                    // fail a committed transaction too; those packets are
                    // re-relayed later, they are just not redundancy.
                    other_failed_msgs += recv_msgs;
                }
            }
        }
    }

    // Unique deliveries: each packet is received at most once on chain.
    let chain_a = run.chain_a.borrow();
    let sent = chain_a
        .app()
        .ibc()
        .sent_sequences(&run.path.port, &run.path.src_channel);
    let received_on_b = {
        let chain_b = run.chain_b.borrow();
        let unreceived: BTreeSet<_> = chain_b
            .app()
            .ibc()
            .unreceived_packets(&run.path.port, &run.path.dst_channel, &sent)
            .into_iter()
            .collect();
        sent.iter().filter(|s| !unreceived.contains(s)).count() as u64
    };
    assert!(received_on_b > 0, "the run must relay something");
    assert_eq!(
        successful_recv_msgs, received_on_b,
        "every successful recv message delivers exactly one new packet"
    );
    assert!(
        redundant_failed_msgs > 0,
        "two uncoordinated relayers must collide on chain"
    );

    // Pre-broadcast skips: the stats counters match the telemetry error log.
    let skipped: u64 = run
        .relayer_stats
        .iter()
        .map(|s| s.packets_skipped_already_relayed)
        .sum();
    let skip_errors: u64 = run
        .telemetry
        .errors()
        .iter()
        .map(|e| match e.kind {
            RelayerErrorKind::Redundant { skipped, .. } => skipped as u64,
            _ => 0,
        })
        .sum();
    assert_eq!(skipped, skip_errors, "stats and telemetry must agree");

    // No coordination policy: nothing is deliberately left to peers, and
    // every committed recv message is accounted for: the unique delivery,
    // an on-chain redundant collision, or a sequence race being retried.
    assert!(run
        .relayer_stats
        .iter()
        .all(|s| s.packets_left_to_peers == 0));
    let committed_recv_msgs = successful_recv_msgs + redundant_failed_msgs + other_failed_msgs;
    assert_eq!(
        committed_recv_msgs + skipped,
        2 * received_on_b + other_failed_msgs,
        "both instances attempt every delivered packet exactly once: \
         one success, one collision or pre-broadcast skip"
    );

    // The outcome metric the figures report equals the independently
    // counted redundancy signals.
    let outcome = scenarios::outcome_from(&two_relayer_spec(), &run);
    assert_eq!(
        outcome.redundant_packet_errors(),
        skipped + redundant_failed_txs,
        "redundant_packet_errors = pre-broadcast skips + failed redundant txs"
    );

    // Telemetry sees exactly the unique deliveries.
    assert_eq!(
        run.telemetry.count_for_step(TransferStep::RecvConfirmation) as u64,
        received_on_b
    );
}

/// The §V race is pinned under both sequence-tracking arms.
#[test]
fn sequence_race_outcomes_replay_their_goldens() {
    let tracking: Vec<SequenceTracking> = pinned_strategies(SEQUENCE_RACE_GOLDENS)
        .into_iter()
        .map(|strategy| strategy.sequence_tracking)
        .collect();
    assert_eq!(
        tracking,
        [SequenceTracking::Resync, SequenceTracking::MempoolAware]
    );
}

/// Every non-default strategy arm and the frame-limit path are pinned: one
/// golden per arm.
#[test]
fn strategy_arm_outcomes_replay_their_goldens() {
    let strategies = pinned_strategies(STRATEGY_ARMS_GOLDENS);
    assert_eq!(strategies.len(), 6);
    assert!(!strategies.contains(&RelayerStrategy::default()));
}

/// A spec whose relayer flushes deterministically straddle destination
/// commits (seeded, so the race reproduces bit for bit): the §V
/// account-sequence race's permanent repro.
fn sequence_race_spec() -> ExperimentSpec {
    ExperimentSpec::relayer_throughput()
        .input_rate(40)
        .relayers(1)
        .rtt_ms(0)
        .measurement_blocks(6)
        .seed(42)
}

/// Counts the transactions committed to the destination chain that failed
/// on-chain for a non-redundancy reason — the burned submission windows the
/// §V race leaves behind (a duplicate-sequence retry, or the receive batch
/// whose client update was lost to one).
fn burned_windows(run: &ibc_perf_repro::framework::runner::RunOutput) -> u64 {
    let chain = run.chain_b.borrow();
    let mut burned = 0u64;
    for height in 1..=chain.height() {
        let block = chain.block_at(height).unwrap();
        for result in &block.results {
            if !result.is_ok() && result.code != CODE_REDUNDANT_PACKET {
                burned += 1;
            }
        }
    }
    burned
}

/// Whether `error` is a broadcast `CheckTx` refused for its stale account
/// sequence (§V).
fn sequence_mismatch(error: &RelayerError) -> bool {
    matches!(
        error.kind,
        RelayerErrorKind::Broadcast(SubmitError::CheckTxFailed {
            code: ante::CODE_SEQUENCE_MISMATCH,
            ..
        })
    )
}

/// The §V straddled-commit race, pinned as a counterfactual pair: the
/// default `Resync` tracking loses submission windows to duplicate
/// sequences, and `MempoolAware` tracking makes both the broadcast failures
/// and the burned windows vanish without losing throughput.
#[test]
fn straddled_commits_lose_windows_under_resync_and_none_under_mempool_aware() {
    let base = sequence_race_spec();

    // Under Resync, the race is visible at every level: failed broadcast
    // attempts, transactions burned on chain, and a sequence-mismatch error
    // in the telemetry log.
    let resync = scenarios::run_raw(&base);
    let resync_failures: u64 = resync
        .relayer_stats
        .iter()
        .map(|s| s.broadcast_failures)
        .sum();
    assert!(
        resync_failures > 0,
        "the repro must exhibit the sequence race"
    );
    assert!(
        burned_windows(&resync) > 0,
        "a straddled commit burns committed transactions under Resync"
    );
    assert!(resync.telemetry.errors().iter().any(sequence_mismatch));

    // Under MempoolAware, the same workload shows neither.
    let mempool = scenarios::run_raw(
        &base
            .clone()
            .sequence_tracking(SequenceTracking::MempoolAware),
    );
    let mempool_failures: u64 = mempool
        .relayer_stats
        .iter()
        .map(|s| s.broadcast_failures)
        .sum();
    assert_eq!(
        mempool_failures, 0,
        "mempool-aware tracking never burns a broadcast on the race"
    );
    assert_eq!(
        burned_windows(&mempool),
        0,
        "no committed transaction fails once straddles hold the batch"
    );
    assert!(!mempool.telemetry.errors().iter().any(sequence_mismatch));

    // Holding a straddled batch delays it one block; it must never cost
    // completed transfers.
    let resync_outcome = scenarios::outcome_from(&base, &resync);
    let mempool_outcome = scenarios::outcome_from(
        &base.sequence_tracking(SequenceTracking::MempoolAware),
        &mempool,
    );
    assert!(
        mempool_outcome.completed() >= resync_outcome.completed(),
        "mempool-aware completed {} vs resync {}",
        mempool_outcome.completed(),
        resync_outcome.completed()
    );
    // Both arms' outcomes carry the race's cost, equal to the relayers'
    // own counters.
    assert_eq!(
        resync_outcome.metric("broadcast_failures"),
        Some(resync_failures as f64),
        "the resync metric agrees with the stats"
    );
    assert_eq!(
        mempool_outcome.metric("broadcast_failures"),
        Some(mempool_failures as f64),
        "the mempool-aware metric agrees with the stats"
    );
}

/// Mempool-aware tracking composed with the packet-clear scan: an
/// acknowledgement held by a straddled source commit must not be picked up
/// again by the clear scan (which would enqueue a duplicate
/// `MsgAcknowledgement` and burn a transaction on-chain). No committed
/// transaction may fail on either chain, and every transfer still
/// acknowledges exactly once.
///
/// The spec is chosen to hold acknowledgements: a probe counting the holds
/// read 3 held acknowledgement batches (100 each) beside 7 held receive
/// batches. `sequence_race_spec` with clearing holds 3 receive batches and
/// no acknowledgement.
#[test]
fn held_acknowledgements_are_not_duplicated_by_the_clear_scan() {
    let run = scenarios::run_raw(
        &ExperimentSpec::relayer_throughput()
            .input_rate(80)
            .relayers(1)
            .rtt_ms(200)
            .measurement_blocks(10)
            .seed(42)
            .packet_clearing(2)
            .sequence_tracking(SequenceTracking::MempoolAware),
    );
    let errors = run.telemetry.errors();
    assert!(
        errors
            .iter()
            .any(|e| matches!(e.kind, RelayerErrorKind::HoldingBatch(_))),
        "the spec must straddle commits, or nothing is held"
    );
    let failures: u64 = run.relayer_stats.iter().map(|s| s.broadcast_failures).sum();
    assert_eq!(failures, 0);
    for chain in [&run.chain_a, &run.chain_b] {
        let chain = chain.borrow();
        for height in 1..=chain.height() {
            let block = chain.block_at(height).unwrap();
            for result in &block.results {
                assert!(
                    result.is_ok(),
                    "committed tx failed at height {height}: {}",
                    result.log
                );
            }
        }
    }
    // Exactly-once acknowledgement per transfer the run completed.
    let acked = run.telemetry.count_for_step(TransferStep::AckConfirmation);
    assert!(acked > 0);
}

#[test]
fn coordinated_relayers_eliminate_redundant_work() {
    let base = two_relayer_spec();
    let default = scenarios::run(&base);
    let coordinated = scenarios::run(&base.strategy(RelayerStrategy::coordinated()));

    assert!(default.redundant_packet_errors() > 0);
    assert_eq!(coordinated.redundant_packet_errors(), 0);
    assert!(
        coordinated.throughput_tfps() >= default.throughput_tfps(),
        "partitioning must not lose throughput (coordinated {:.1} vs default {:.1})",
        coordinated.throughput_tfps(),
        default.throughput_tfps()
    );
    // Conservation holds under every coordination mode.
    for outcome in [&default, &coordinated] {
        assert_eq!(
            outcome.completed() + outcome.partial() + outcome.initiated() + outcome.not_committed(),
            outcome.requests_made()
        );
    }
}

#[test]
fn batched_and_parallel_fetchers_beat_sequential_pulls() {
    let base = ExperimentSpec::relayer_throughput()
        .input_rate(60)
        .relayers(1)
        .rtt_ms(200)
        .measurement_blocks(6)
        .seed(42);
    let sequential = scenarios::run(&base);
    let batched = scenarios::run(&base.strategy(RelayerStrategy::batched_pulls()));
    assert!(
        batched.completed() > sequential.completed(),
        "batched pulls must complete more transfers (batched {} vs sequential {})",
        batched.completed(),
        sequential.completed()
    );

    // Large enough that overlapping the round trips crosses a block
    // boundary — completion latency is quantized to block commits, so small
    // savings inside one block round are invisible.
    let latency_base = ExperimentSpec::latency()
        .transfers(600)
        .submission_blocks(1)
        .rtt_ms(200)
        .seed(42);
    let sequential_latency = scenarios::run(&latency_base);
    let parallel_latency =
        scenarios::run(&latency_base.strategy(RelayerStrategy::parallel_fetch()));
    assert!(
        parallel_latency.completion_latency_secs() < sequential_latency.completion_latency_secs(),
        "overlapping the pulls must cut completion latency ({:.1}s vs {:.1}s)",
        parallel_latency.completion_latency_secs(),
        sequential_latency.completion_latency_secs()
    );
}

#[test]
fn adaptive_submission_still_completes_every_transfer() {
    let run = scenarios::run_raw(
        &ExperimentSpec::latency()
            .transfers(250)
            .submission_blocks(1)
            .rtt_ms(0)
            .user_accounts(4)
            .seed(42)
            .strategy(RelayerStrategy::adaptive_submission(3)),
    );
    assert_eq!(
        run.telemetry.count_for_step(TransferStep::AckConfirmation),
        250
    );
}

#[test]
fn strategies_sweep_like_any_other_axis() {
    use ibc_perf_repro::framework::sweep::SweepGrid;

    let grid = SweepGrid::new(
        ExperimentSpec::relayer_throughput()
            .input_rate(20)
            .rtt_ms(0)
            .measurement_blocks(3)
            .seed(1),
    )
    .strategies([RelayerStrategy::default(), RelayerStrategy::batched_pulls()]);
    let points = grid.points();
    assert_eq!(points.len(), 2);
    assert!(points[0].name.ends_with("/strategy=default"));
    assert!(points[1].name.ends_with("/strategy=batched"));
    // Strategy-swept specs stay JSON-round-trippable.
    for point in &points {
        let back: ExperimentSpec = serde_json::from_str(&point.to_json()).unwrap();
        assert_eq!(&back, point);
    }
    let outcomes = grid.run();
    assert_eq!(outcomes.len(), 2);
    assert!(outcomes.iter().all(|o| o.completed() > 0));
}
