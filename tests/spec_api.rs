//! Acceptance tests for the spec-driven experiment API: serde round-trips,
//! registry completeness, and parallel-vs-sequential sweep determinism.

use ibc_perf_repro::framework::registry;
use ibc_perf_repro::framework::spec::{ExperimentSpec, ScenarioKind};
use ibc_perf_repro::framework::sweep::{self, SweepGrid, SweepMode};
use ibc_perf_repro::framework::ScenarioOutcome;
use ibc_perf_repro::relayer::strategy::{
    ChannelPolicy, CoordinationMode, FetchStrategy, RelayerStrategy, SequenceTracking,
    SubmissionMode,
};

#[test]
fn every_spec_family_round_trips_through_serde_identically() {
    let specs = [
        ExperimentSpec::tendermint_throughput()
            .input_rate(250)
            .rtt_ms(200)
            .seed(1),
        ExperimentSpec::relayer_throughput()
            .input_rate(60)
            .relayers(2)
            .rtt_ms(200)
            .measurement_blocks(10)
            .seed(42),
        ExperimentSpec::latency()
            .transfers(5_000)
            .submission_blocks(4)
            .seed(7),
        ExperimentSpec::websocket_limit()
            .transfers(60_000)
            .named("ws"),
    ];
    for spec in specs {
        let json = spec.to_json();
        let parsed: ExperimentSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, spec);
        // JSON → spec → JSON is byte-identical.
        assert_eq!(parsed.to_json(), json);
    }
}

#[test]
fn spec_json_is_human_readable_and_complete() {
    let json = ExperimentSpec::relayer_throughput()
        .input_rate(60)
        .to_json();
    for field in [
        "name",
        "kind",
        "deployment",
        "workload",
        "relayer_count",
        "network_rtt_ms",
        "seed",
    ] {
        assert!(json.contains(field), "spec JSON misses `{field}`:\n{json}");
    }
}

#[test]
fn registry_lookup_returns_every_figure_name() {
    let expected = [
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "table1",
        "fig8_batched_pulls",
        "fig11_coordinated",
        "fig12_parallel_fetch",
        "fig13_adaptive_submission",
        "multi_channel_scaling",
        "frame_limit_sweep",
        "channel_contention",
        "sequence_race",
        "dedicated_scaling",
        "relayer_crash",
        "chain_halt",
        "client_expiry",
        "hub_spoke_scaling",
        "mesh_contention",
        "smoke",
    ];
    let names: Vec<&str> = registry::entries().iter().map(|e| e.name).collect();
    assert_eq!(names, expected);
    for name in expected {
        let entry = registry::get(name).unwrap_or_else(|| panic!("{name} missing from registry"));
        assert!(!entry.title.is_empty(), "{name} has no title");
        for mode in [SweepMode::Quick, SweepMode::Full] {
            let grid = entry.grid(mode);
            assert!(!grid.points().is_empty(), "{name} expands to no points");
            // Every point is a well-formed, serializable spec.
            for point in grid.points() {
                let back: ExperimentSpec = serde_json::from_str(&point.to_json()).unwrap();
                assert_eq!(back, point);
            }
        }
    }
    assert!(registry::get("fig99").is_none());
}

#[test]
fn registry_grids_cover_all_scenario_kinds() {
    let kinds: Vec<ScenarioKind> = registry::entries()
        .iter()
        .map(|e| e.grid(SweepMode::Quick).base.kind)
        .collect();
    for kind in [
        ScenarioKind::TendermintThroughput,
        ScenarioKind::RelayerThroughput,
        ScenarioKind::Latency,
        ScenarioKind::WebSocketLimit,
    ] {
        assert!(
            kinds.contains(&kind),
            "no registered scenario covers {kind:?}"
        );
    }
}

/// Asserts that the registered scenarios run every arm of one strategy enum:
/// `slot` numbers the arms `0..N` through an exhaustive match, so a new arm
/// does not compile until it is given a slot (and a name in `names`), and
/// this then fails until some registered scenario's grid runs it.
fn assert_every_arm_runs<T, const N: usize>(
    strategies: &[RelayerStrategy],
    arm: fn(&RelayerStrategy) -> T,
    slot: fn(T) -> usize,
    names: [&str; N],
) {
    let mut run = [false; N];
    for strategy in strategies {
        run[slot(arm(strategy))] = true;
    }
    let unrun: Vec<&str> = (0..N).filter(|i| !run[*i]).map(|i| names[i]).collect();
    assert!(unrun.is_empty(), "no registered scenario runs {unrun:?}");
}

#[test]
fn every_strategy_arm_is_run_by_a_registered_scenario() {
    let strategies: Vec<RelayerStrategy> = registry::entries()
        .iter()
        .flat_map(|entry| entry.grid(SweepMode::Quick).points())
        .map(|point| point.deployment.relayer_strategy)
        .collect();
    assert_every_arm_runs(
        &strategies,
        |s| s.fetcher,
        |arm| match arm {
            FetchStrategy::Sequential => 0,
            FetchStrategy::Batched => 1,
            FetchStrategy::Parallel => 2,
        },
        ["Sequential", "Batched", "Parallel"],
    );
    assert_every_arm_runs(
        &strategies,
        |s| s.submission,
        |arm| match arm {
            SubmissionMode::Eager => 0,
            SubmissionMode::Adaptive { .. } => 1,
        },
        ["Eager", "Adaptive"],
    );
    assert_every_arm_runs(
        &strategies,
        |s| s.coordination,
        |arm| match arm {
            CoordinationMode::None => 0,
            CoordinationMode::SequencePartition => 1,
        },
        ["None", "SequencePartition"],
    );
    assert_every_arm_runs(
        &strategies,
        |s| s.channel_policy,
        |arm| match arm {
            ChannelPolicy::FairShare => 0,
            ChannelPolicy::Priority => 1,
            ChannelPolicy::Dedicated => 2,
        },
        ["FairShare", "Priority", "Dedicated"],
    );
    assert_every_arm_runs(
        &strategies,
        |s| s.sequence_tracking,
        |arm| match arm {
            SequenceTracking::Resync => 0,
            SequenceTracking::MempoolAware => 1,
        },
        ["Resync", "MempoolAware"],
    );
}

#[test]
fn parallel_sweep_is_byte_identical_to_sequential() {
    // A multi-point grid crossing relayer counts × rates × RTTs, small
    // enough for CI; every point is a different run.
    let specs: Vec<ExperimentSpec> = [1, 2]
        .into_iter()
        .flat_map(|relayers| {
            let base = ExperimentSpec::relayer_throughput()
                .measurement_blocks(4)
                .relayers(relayers)
                .seed(42);
            let name = format!("{}/relayers={relayers}", base.name);
            let grid = SweepGrid::new(base.named(name))
                .input_rates([10, 20])
                .rtts_ms([0, 200]);
            grid.points()
        })
        .collect();
    assert_eq!(specs.len(), 8);
    for (i, spec) in specs.iter().enumerate() {
        assert!(!specs[..i].contains(spec), "{} repeats a point", spec.name);
    }

    let sequential = sweep::run_sequential(&specs);
    let parallel = sweep::run_parallel(&specs, 4);
    assert_eq!(sequential, parallel);

    // Byte-identical, not merely equal: serialize both outcome lists.
    let seq_json: Vec<String> = sequential.iter().map(ScenarioOutcome::to_json).collect();
    let par_json: Vec<String> = parallel.iter().map(ScenarioOutcome::to_json).collect();
    assert_eq!(seq_json, par_json);

    // And the sweep did real work: outcomes carry live metrics.
    assert!(sequential.iter().all(|o| o.requests_made() > 0));
}
