//! Topology-graph tests: the topology fixtures, the sweep axis's pair arm
//! and the conservation laws of multi-hop forwarding.
//!
//! * **The pair arm**: a `topologies` axis point carrying `line(2)` — the
//!   default topology — runs exactly the base spec, and a spec whose
//!   topology names no chain fails setup instead of running a pair.
//! * **Multi-hop conservation**: on a hub-and-spoke run driven to
//!   completion, every first-leg acknowledgement triggers exactly one
//!   second-leg transfer, no second leg is broadcast before the
//!   acknowledgement that justifies it commits, and no route completes
//!   transfers on one leg that the other leg never carried.

use proptest::prelude::*;

use ibc_perf_repro::framework::outcome::keys;
use ibc_perf_repro::framework::scenarios;
use ibc_perf_repro::framework::spec::ExperimentSpec;
use ibc_perf_repro::framework::testnet::SetupError;
use ibc_perf_repro::framework::topology::TopologyError;
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

/// A `topologies` axis point carrying `line(2)`, the default pair, matches
/// the bare base spec.
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

/// The pair arm of a topology fixture, its topology spelt as the empty graph
/// that fixtures written before the pair was `line(2)` carry: it names no
/// chain, so setup fails and `run` reports `setup_failed`.
#[test]
fn an_empty_topology_fails_setup() {
    let pair_arm = &parse(HUB_SPOKE_GOLDENS)[0].spec;
    assert_eq!(pair_arm.deployment.topology, Topology::default());
    let json = serde_json::to_string(pair_arm).unwrap();
    let pair = serde_json::to_string(&Topology::default()).unwrap();
    let empty = json.replace(&pair, r#"{"chains":[],"edges":[]}"#);
    assert_ne!(empty, json);
    let spec: ExperimentSpec = serde_json::from_str(&empty).unwrap();
    assert_eq!(
        scenarios::try_run(&spec).err(),
        Some(SetupError::Topology {
            source: TopologyError::TooFewChains { count: 0 }
        })
    );
    let outcome = scenarios::run(&spec);
    assert_eq!(outcome.metric(keys::SETUP_FAILED), Some(1.0));
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
        let total_acks = run.telemetry.count_for_step(TransferStep::AckConfirmation) as u64;
        prop_assert_eq!(total_acks, 2 * transfers);
    }
}
