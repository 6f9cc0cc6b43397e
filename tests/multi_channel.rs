//! Acceptance tests for the multi-channel relaying subsystem.
//!
//! * **Per-channel accounting**: the per-channel completion breakdowns sum
//!   to the aggregate, channel by channel and category by category.
//! * **Channel policies**: dedicated relayers eliminate the redundant work
//!   fair-share instances duplicate, and weighted workloads land on the
//!   channels their weights name.
//! * **Deployment-limit knobs**: a tiny WebSocket frame limit strands the
//!   oversized window's transfers; enabling the packet-clear interval
//!   rescues them with the frame limit unchanged.

use ibc_perf_repro::framework::analysis;
use ibc_perf_repro::framework::outcome::keys;
use ibc_perf_repro::framework::scenarios;
use ibc_perf_repro::framework::spec::ExperimentSpec;
use ibc_perf_repro::framework::ScenarioOutcome;
use ibc_perf_repro::relayer::strategy::{ChannelPolicy, RelayerStrategy};
use ibc_perf_repro::relayer::telemetry::TransferStep;

const MULTI_CHANNEL_GOLDENS: &str = include_str!("fixtures/multi_channel_goldens.json");

/// The two-channel fixture pins small default-strategy runs with
/// per-channel metrics; `tests/goldens.rs` replays it (regenerate with
/// `goldens --set multi_channel`).
#[test]
fn two_channel_default_strategy_replays_the_golden_fixture() {
    let goldens: Vec<ScenarioOutcome> = serde_json::from_str(MULTI_CHANNEL_GOLDENS).unwrap();
    assert_eq!(goldens.len(), 2, "one uniform + one weighted golden");
    for golden in goldens {
        assert_eq!(golden.spec.deployment.channel_count, 2);
        assert_eq!(
            golden.spec.deployment.relayer_strategy,
            RelayerStrategy::default()
        );
        // Multi-channel outcomes carry per-channel metrics.
        assert!(golden.metric_on(keys::COMPLETED, 0).is_some());
        assert!(golden.metric_on(keys::COMPLETED, 1).is_some());
    }
}

fn two_channel_spec() -> ExperimentSpec {
    ExperimentSpec::relayer_throughput()
        .input_rate(40)
        .relayers(1)
        .channels(2)
        .rtt_ms(0)
        .measurement_blocks(5)
        .seed(7)
}

#[test]
fn per_channel_breakdowns_sum_to_the_aggregate() {
    let spec = two_channel_spec();
    let run = scenarios::run_raw(&spec);
    let aggregate = analysis::completion_breakdown(&run);
    assert_eq!(run.paths.len(), 2);

    let mut sum = [0u64; 4];
    for channel in 0..run.paths.len() {
        let b = analysis::completion_breakdown_on(&run, channel);
        sum[0] += b.completed;
        sum[1] += b.partial;
        sum[2] += b.initiated;
        sum[3] += b.not_committed;
        // Uniform round-robin: both channels carry traffic.
        assert!(
            analysis::committed_transfers_on(&run, channel) > 0,
            "channel {channel} got no traffic"
        );
    }
    assert_eq!(sum[0], aggregate.completed);
    assert_eq!(sum[1], aggregate.partial);
    assert_eq!(sum[2], aggregate.initiated);
    assert_eq!(sum[3], aggregate.not_committed);
    assert_eq!(aggregate.total(), run.submission.requests_made);

    // The outcome's per-channel metrics agree with the analysis, and the
    // per-channel completed counts sum to the aggregate metric.
    let outcome = scenarios::outcome_from(&spec, &run);
    let per_channel_total: u64 = (0..run.paths.len())
        .map(|ch| outcome.completed_on(ch))
        .sum();
    assert_eq!(per_channel_total, outcome.completed());
    for channel in 0..run.paths.len() {
        assert_eq!(
            outcome.completed_on(channel),
            analysis::completion_breakdown_on(&run, channel).completed
        );
    }
}

#[test]
fn two_channel_transfers_complete_on_both_channels_end_to_end() {
    // One submission window, run to completion: every transfer must finish.
    // (Multi-window workloads can lose a window to the §V account-sequence
    // race when consecutive flushes straddle a commit — a modeled Hermes
    // behaviour that single-channel runs exhibit identically.)
    let spec = ExperimentSpec::latency()
        .transfers(400)
        .submission_blocks(1)
        .rtt_ms(0)
        .channels(2)
        .user_accounts(4)
        .seed(1);
    let run = scenarios::run_raw(&spec);
    // Every requested transfer acknowledges back, despite the interleaving.
    assert_eq!(
        run.telemetry.count_for_step(TransferStep::AckConfirmation) as u64,
        run.submission.submitted
    );
    // Vouchers exist for both destination channel ends: funds really moved
    // over two distinct channels.
    let chain_b = run.chain_b.borrow();
    for path in &run.paths {
        let voucher = format!("transfer/{}/uatom", path.dst_channel);
        let total: u128 = (0..4)
            .map(|i| {
                chain_b
                    .app()
                    .bank()
                    .balance(&format!("user-{i}").into(), &voucher)
            })
            .sum();
        assert!(total > 0, "no vouchers for {}", path.dst_channel);
    }
}

#[test]
fn weighted_workload_respects_channel_weights() {
    let spec = ExperimentSpec::relayer_throughput()
        .input_rate(60)
        .relayers(1)
        .channels(2)
        .channel_weights([3, 1])
        .rtt_ms(0)
        .measurement_blocks(4)
        .seed(3);
    let run = scenarios::run_raw(&spec);
    let on_0 = analysis::committed_transfers_on(&run, 0);
    let on_1 = analysis::committed_transfers_on(&run, 1);
    assert_eq!(on_0 + on_1, analysis::committed_transfers(&run));
    // 3:1 weights at 3 transactions per window: channel 0 gets at least
    // twice channel 1's traffic.
    assert!(
        on_0 >= 2 * on_1 && on_1 > 0,
        "weights not respected: {on_0} vs {on_1}"
    );
}

#[test]
fn dedicated_relayers_eliminate_cross_instance_redundancy() {
    let base = ExperimentSpec::relayer_throughput()
        .input_rate(40)
        .relayers(2)
        .channels(2)
        .rtt_ms(200)
        .measurement_blocks(5)
        .seed(3);
    let fair = scenarios::run(&base);
    // `relayer_count` is the per-channel replica count for a dedicated
    // fleet, so the fair deployment's two shared processes compare against
    // one dedicated process per channel — the same total fleet size.
    let dedicated = scenarios::run(&base.clone().relayers(1).strategy(
        RelayerStrategy::with_channel_policy(ChannelPolicy::Dedicated),
    ));
    let priority = scenarios::run(&base.clone().strategy(RelayerStrategy::with_channel_policy(
        ChannelPolicy::Priority,
    )));
    assert!(
        fair.redundant_packet_errors() > 0,
        "two fair-share relayers must collide"
    );
    assert_eq!(
        dedicated.redundant_packet_errors(),
        0,
        "one relayer process per channel leaves nothing to duplicate"
    );
    // Asking a dedicated fleet for redundancy brings the collisions back:
    // two replicas per channel compete exactly like two shared instances.
    let redundant_fleet = scenarios::run(&base.strategy(RelayerStrategy::with_channel_policy(
        ChannelPolicy::Dedicated,
    )));
    assert!(
        redundant_fleet.redundant_packet_errors() > 0,
        "two replicas per channel must collide within their channel group"
    );
    // Every policy conserves the requested transfers.
    for outcome in [&fair, &dedicated, &priority, &redundant_fleet] {
        assert_eq!(
            outcome.completed() + outcome.partial() + outcome.initiated() + outcome.not_committed(),
            outcome.requests_made()
        );
    }
}

#[test]
fn packet_clearing_rescues_transfers_stranded_by_the_frame_limit() {
    // An oversized first window against a 64 KiB frame: event collection
    // fails and everything is stuck, exactly like §V at 16 MiB.
    let base = ExperimentSpec::websocket_limit()
        .transfers(2_000)
        .frame_limit(64 << 10)
        .seed(42);
    let stranded = scenarios::run(&base);
    assert!(stranded.event_collection_failures() > 0);
    assert!(
        stranded.stuck() > stranded.requests_made() / 2,
        "most transfers must be stuck without clearing ({} of {})",
        stranded.stuck(),
        stranded.requests_made()
    );
    assert_eq!(stranded.packets_cleared(), 0);

    // Same frame limit, clearing every 3 blocks: the scan finds the
    // stranded packets in chain state and relays them.
    let cleared = scenarios::run(&base.packet_clearing(3));
    assert!(cleared.packets_cleared() > 0);
    assert!(
        cleared.completed() > stranded.completed(),
        "clearing must rescue transfers ({} vs {})",
        cleared.completed(),
        stranded.completed()
    );
    assert!(
        cleared.stuck() < stranded.stuck(),
        "clearing must shrink the stuck set ({} vs {})",
        cleared.stuck(),
        stranded.stuck()
    );
}
