//! Acceptance tests for the dedicated relayer fleet and the event-driven
//! runner.
//!
//! * **The scaling claim**: the `dedicated_scaling` golden fixture pins one
//!   shared relayer process capped flat across 4 channels vs a dedicated
//!   fleet of one process per channel delivering ≥2× the throughput at the
//!   same configuration.
//! * **Fleet determinism**: `dedicated_scaling`-shaped sweeps produce
//!   bit-identical outcomes run twice, on a multi-threaded worker pool, and
//!   under `XCC_SWEEP_THREADS>1`.
//! * **Baseline regression**: `ChannelPolicy::Dedicated` with a single
//!   channel deploys exactly the single-relayer baseline.
//! * **Per-process lanes**: a dedicated fleet really is one simulated
//!   process per channel, each with its own RPC lane pair.

use ibc_perf_repro::framework::scenarios;
use ibc_perf_repro::framework::spec::ExperimentSpec;
use ibc_perf_repro::framework::sweep::{run_parallel, run_sequential, SweepGrid};
use ibc_perf_repro::framework::ScenarioOutcome;
use ibc_perf_repro::relayer::strategy::ChannelPolicy;

const DEDICATED_SCALING_GOLDENS: &str = include_str!("fixtures/dedicated_scaling_goldens.json");

/// The acceptance bar of the fleet refactor: at 4 channels and one
/// `relayer_count` of capacity, the dedicated per-channel fleet must deliver
/// at least twice the shared process's throughput (`tests/goldens.rs`
/// checks that both arms replay their pinned outcomes bit for bit).
#[test]
fn dedicated_scaling_fixture_replays_and_breaks_the_shared_cap() {
    let goldens: Vec<ScenarioOutcome> =
        serde_json::from_str(DEDICATED_SCALING_GOLDENS).expect("golden fixture parses");
    assert_eq!(goldens.len(), 2, "one shared + one dedicated golden");

    let mut shared_tfps = None;
    let mut dedicated_tfps = None;
    for golden in goldens {
        assert_eq!(golden.spec.deployment.channel_count, 4);
        assert_eq!(golden.spec.deployment.relayer_count, 1);
        match golden.spec.deployment.relayer_strategy.channel_policy {
            ChannelPolicy::Dedicated => dedicated_tfps = Some(golden.throughput_tfps()),
            _ => shared_tfps = Some(golden.throughput_tfps()),
        }
    }
    let shared = shared_tfps.expect("fixture carries the shared-process arm");
    let dedicated = dedicated_tfps.expect("fixture carries the dedicated arm");
    assert!(shared > 0.0, "the shared arm completes transfers");
    assert!(
        dedicated >= 2.0 * shared,
        "a dedicated process per channel must at least double the shared \
         process's throughput at 4 channels ({dedicated:.1} vs {shared:.1} TFPS)"
    );
}

fn small_dedicated_scaling_grid() -> SweepGrid {
    SweepGrid::new(
        ExperimentSpec::relayer_throughput()
            .named("dedicated_scaling")
            .relayers(1)
            .rtt_ms(0)
            .input_rate(40)
            .measurement_blocks(4)
            .seed(42),
    )
    .channel_counts([2])
    .channel_policies([ChannelPolicy::FairShare, ChannelPolicy::Dedicated])
}

/// Running the `dedicated_scaling` sweep twice — and once on a parallel
/// worker pool, and once with `XCC_SWEEP_THREADS` forcing more than one
/// worker — produces bit-identical `ScenarioOutcome`s: fleet expansion,
/// per-process wake scheduling and the RPC lane forks are all deterministic
/// in the spec alone.
#[test]
fn dedicated_scaling_is_deterministic_across_runs_and_threads() {
    let grid = small_dedicated_scaling_grid();
    let specs = grid.points();
    assert_eq!(specs.len(), 2);

    let first = run_sequential(&specs);
    let second = run_sequential(&specs);
    assert_eq!(first, second, "two sequential runs diverged");

    let parallel = run_parallel(&specs, 3);
    assert_eq!(first, parallel, "a parallel worker pool changed outcomes");

    // The environment knob the bench binaries use takes the same path.
    std::env::set_var("XCC_SWEEP_THREADS", "3");
    let from_env = grid.run();
    std::env::remove_var("XCC_SWEEP_THREADS");
    assert_eq!(first, from_env, "XCC_SWEEP_THREADS>1 changed outcomes");
}

/// `Dedicated` with `channel_count == 1` expands to exactly one process
/// pinned to channel 0 — the single-relayer baseline by construction, so
/// every metric matches the default-policy run bit for bit.
#[test]
fn dedicated_with_one_channel_equals_the_single_relayer_baseline() {
    let base = ExperimentSpec::relayer_throughput()
        .relayers(1)
        .channels(1)
        .rtt_ms(0)
        .input_rate(30)
        .measurement_blocks(4)
        .seed(11);
    let baseline = scenarios::run(&base);
    let dedicated = scenarios::run(&base.channel_policy(ChannelPolicy::Dedicated));
    assert_eq!(
        baseline.metrics, dedicated.metrics,
        "a single-channel dedicated fleet must equal the baseline schedule"
    );
}

/// A dedicated fleet is real processes: one per channel (times
/// `relayer_count` replicas), each with its own RPC lane pair that actually
/// served queries.
#[test]
fn dedicated_fleet_builds_one_process_per_channel_with_own_lanes() {
    let spec = ExperimentSpec::relayer_throughput()
        .relayers(1)
        .channels(3)
        .rtt_ms(0)
        .input_rate(30)
        .measurement_blocks(3)
        .seed(5)
        .channel_policy(ChannelPolicy::Dedicated);
    let run = scenarios::run_raw(&spec);
    assert_eq!(run.relayer_stats.len(), 3, "one process per channel");
    assert_eq!(run.rpc_lanes.len(), 3, "one lane pair per process");
    for (process, (src_lane, dst_lane)) in run.rpc_lanes.iter().enumerate() {
        assert!(
            src_lane.served > 0,
            "process {process} never used its source lane"
        );
        assert!(
            dst_lane.served > 0,
            "process {process} never used its destination lane"
        );
    }
    // Every process did receive-path work for its own channel.
    for (process, stats) in run.relayer_stats.iter().enumerate() {
        assert!(
            stats.recv_txs_submitted > 0,
            "process {process} relayed nothing on its channel"
        );
    }

    // Redundancy composes: two replicas per channel double the fleet.
    let redundant = scenarios::run_raw(&spec.relayers(2));
    assert_eq!(redundant.relayer_stats.len(), 6, "3 channels × 2 replicas");
    assert_eq!(redundant.rpc_lanes.len(), 6);
}
