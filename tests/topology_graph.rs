//! Topology-graph tests: the two-chain degeneracy of the N-chain testnet and
//! the conservation laws of multi-hop forwarding.
//!
//! Two pillars, matching the guarantees the topology refactor makes:
//!
//! * **Two-chain degeneracy**: an explicit `Topology::line(2)` — two chains,
//!   one edge — is the legacy chain pair spelled as a graph. Every outcome
//!   metric must be bit-identical to the legacy pair path (the sentinel
//!   topology), whatever the seed: the graph generalisation costs nothing
//!   when the graph is the old shape.
//! * **Multi-hop conservation**: on a hub-and-spoke run driven to
//!   completion, every first-leg acknowledgement triggers exactly one
//!   second-leg transfer, no second leg is broadcast before the
//!   acknowledgement that justifies it commits, and no route completes
//!   transfers on one leg that the other leg never carried.

use proptest::prelude::*;

use ibc_perf_repro::framework::scenarios;
use ibc_perf_repro::framework::spec::ExperimentSpec;
use ibc_perf_repro::framework::{HopRoute, ScenarioOutcome, Topology};
use ibc_perf_repro::relayer::telemetry::TransferStep;

const HUB_SPOKE_GOLDENS: &str = include_str!("fixtures/hub_spoke_scaling_goldens.json");
const MESH_GOLDENS: &str = include_str!("fixtures/mesh_contention_goldens.json");

fn parse(fixture: &str) -> Vec<ScenarioOutcome> {
    serde_json::from_str(fixture).expect("golden fixture parses")
}

/// Both topology-scenario fixture sets — the hub-and-spoke multi-hop grid
/// and the full-mesh grid, each with its single-pair control arm — replay
/// bit-identically: graph setup, per-chain block streams, hop forwarding
/// and per-hop analysis are all deterministic in the spec.
#[test]
fn topology_scenario_fixtures_replay_bit_identically() {
    for (set, fixture) in [
        ("hub_spoke_scaling", HUB_SPOKE_GOLDENS),
        ("mesh_contention", MESH_GOLDENS),
    ] {
        for golden in parse(fixture) {
            let rerun = scenarios::run(&golden.spec);
            assert_eq!(
                rerun.metrics, golden.metrics,
                "{set}: {} drifted from its golden fixture",
                golden.spec.name
            );
        }
    }
}

/// A small rate-driven spec of the fig8 family, the shape most sensitive to
/// event-loop scheduling.
fn rate_spec(seed: u64) -> ExperimentSpec {
    ExperimentSpec::relayer_throughput()
        .named("topology/degeneracy/rate")
        .relayers(2)
        .rtt_ms(200)
        .input_rate(40)
        .measurement_blocks(4)
        .seed(seed)
}

/// A small fixed-batch spec of the fig12 family, driven to full completion.
fn batch_spec(seed: u64) -> ExperimentSpec {
    ExperimentSpec::latency()
        .named("topology/degeneracy/batch")
        .transfers(200)
        .submission_blocks(2)
        .rtt_ms(0)
        .seed(seed)
}

/// `Topology::line(2)` names the same chains (`ibc-0`, `ibc-1`) and the same
/// single edge as the legacy-pair sentinel, so resolving it must produce the
/// identical deployment — and the identical run, metric for metric, across
/// seeds and both workload families.
#[test]
fn line2_topology_is_bit_identical_to_the_legacy_pair() {
    for seed in [1, 7, 42] {
        for spec in [rate_spec(seed), batch_spec(seed)] {
            assert!(spec.deployment.topology.is_legacy_pair());
            let legacy = scenarios::run(&spec);
            let explicit = scenarios::run(&spec.clone().topology(Topology::line(2)));
            // The specs differ (one carries the explicit graph), so compare
            // the full metric maps rather than the whole outcome.
            assert_eq!(
                legacy.metrics, explicit.metrics,
                "line(2) diverged from the legacy pair at seed {seed} ({})",
                legacy.spec.name
            );
        }
    }
}

/// The same degeneracy through the sweep layer: a `topologies` axis point
/// carrying `line(2)` matches the bare base spec.
#[test]
fn sweep_topology_axis_preserves_the_degeneracy() {
    let base = rate_spec(42);
    let points = ibc_perf_repro::framework::SweepGrid::new(base.clone())
        .topologies([Topology::line(2)])
        .points();
    assert_eq!(points.len(), 1);
    assert_eq!(
        scenarios::run(&base).metrics,
        scenarios::run(&points[0]).metrics
    );
}

/// A hub with two spokes, the workload on the spoke→hub channels and the hop
/// plan chaining each first leg onto a hub→spoke channel.
fn hub_spec(seed: u64, transfers: u64) -> ExperimentSpec {
    ExperimentSpec::latency()
        .named("topology/hops")
        .transfers(transfers)
        .submission_blocks(1)
        .measurement_blocks(4)
        .rtt_ms(0)
        .relayers(1)
        .channel_weights([1, 1, 0, 0])
        .hop_plan(Topology::hub_and_spoke_routes(2))
        .topology(Topology::hub_and_spoke(2))
        .seed(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Across seeds and batch sizes, the hop forwarder conserves transfers:
    /// second legs are triggered only by committed first-leg acks (and never
    /// broadcast before them), every first-leg ack produces exactly one
    /// second-leg transfer, and both legs of every route acknowledge the
    /// same number of packets — nothing is forwarded twice, dropped, or
    /// completed one-legged.
    #[test]
    fn hop_forwarding_conserves_transfers(seed in 0u64..1_000, transfers in 40u64..120) {
        let spec = hub_spec(seed, transfers);
        let run = scenarios::run_raw(&spec);
        let routes: Vec<HopRoute> = run.hop_routes.clone();
        prop_assert_eq!(routes.len(), 2);

        // Causality: a second-leg broadcast never precedes the first-leg
        // ack commit that triggered it, and every broadcast was accepted.
        for record in &run.forwards {
            prop_assert!(record.submission.accepted, "rejected forward: {:?}", record.submission.error);
            prop_assert!(
                record.submission.broadcast_at >= record.triggered_at,
                "second leg broadcast at {:?} before its trigger at {:?}",
                record.submission.broadcast_at,
                record.triggered_at
            );
        }

        // Conservation, globally: one second-leg transfer per workload
        // transfer, none rejected.
        prop_assert_eq!(run.forward_stats.submitted, transfers);
        prop_assert_eq!(run.forward_stats.rejected, 0);

        // Conservation, per route: the second leg carries exactly the
        // packets the first leg acknowledged, and both legs acknowledge
        // the same count — no transfer completes without both legs.
        let acks_on = |channel: usize| {
            let channel = channel as u64;
            run.telemetry
                .packets()
                .into_iter()
                .filter(|&(c, seq)| {
                    c == channel
                        && run
                            .telemetry
                            .step_time_on(c, seq, TransferStep::AckConfirmation)
                            .is_some()
                })
                .count() as u64
        };
        for (ri, route) in routes.iter().enumerate() {
            let first_acks = acks_on(route.first_leg);
            let forwarded: u64 = run
                .forwards
                .iter()
                .filter(|r| r.route == ri && r.submission.accepted)
                .map(|r| r.submission.transfers as u64)
                .sum();
            prop_assert_eq!(
                forwarded,
                first_acks,
                "route {} forwarded {} legs for {} first-leg acks",
                ri,
                forwarded,
                first_acks
            );
            prop_assert_eq!(acks_on(route.second_leg), first_acks);
        }

        // Every leg of every transfer completed: two acks per transfer.
        let total_acks = run
            .telemetry
            .times_for_step(TransferStep::AckConfirmation)
            .len() as u64;
        prop_assert_eq!(total_acks, 2 * transfers);
    }
}
