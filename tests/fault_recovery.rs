//! Recovery-property tests for the fault-injection subsystem.
//!
//! Two pillars, matching the dependability claims the fault scenarios add
//! on top of the paper's performance testbed:
//!
//! * **Fixtures and the recovery bound**: the fault fixtures pin one
//!   golden per sweep arm (`tests/goldens.rs` replays them), and the crash
//!   arm obeys the packet-clearing bound of one `packet_clear_interval`
//!   plus one block.
//! * **Recovery properties**: across seeds, crash instants and outage
//!   lengths, a crashed-and-restarted relayer never double-submits a
//!   receive the destination chain already committed, and — with packet
//!   clearing enabled — every transfer initiated before the fault
//!   eventually completes (nothing strands).

use proptest::prelude::*;

use ibc_perf_repro::framework::fault::{FaultEvent, FaultPlan};
use ibc_perf_repro::framework::scenarios;
use ibc_perf_repro::framework::spec::ExperimentSpec;
use ibc_perf_repro::framework::ScenarioOutcome;
use ibc_perf_repro::sim::SimDuration;

const RELAYER_CRASH_GOLDENS: &str = include_str!("fixtures/relayer_crash_goldens.json");
const CHAIN_HALT_GOLDENS: &str = include_str!("fixtures/chain_halt_goldens.json");
const CLIENT_EXPIRY_GOLDENS: &str = include_str!("fixtures/client_expiry_goldens.json");

fn parse(fixture: &str) -> Vec<ScenarioOutcome> {
    serde_json::from_str(fixture).expect("golden fixture parses")
}

/// The three fault-scenario fixtures pin one golden per sweep arm: fault
/// scheduling, restarts, halts and client expiry are all inside the
/// deterministic event-loop trace, which `tests/goldens.rs` replays.
#[test]
fn fault_scenario_fixtures_replay_bit_identically() {
    let fixtures = [
        RELAYER_CRASH_GOLDENS,
        CHAIN_HALT_GOLDENS,
        CLIENT_EXPIRY_GOLDENS,
    ];
    assert_eq!(fixtures.map(|fixture| parse(fixture).len()), [2, 3, 2]);
}

/// The regression bound on time-to-recovery: with packet clearing every N
/// source blocks, a restarted relayer resumes useful delivery within one
/// clear interval plus one block — the worst case of restarting right after
/// a clear height and waiting out the next scan plus its delivery block.
#[test]
fn crash_recovery_obeys_the_packet_clearing_bound() {
    let crashed: Vec<ScenarioOutcome> = parse(RELAYER_CRASH_GOLDENS)
        .into_iter()
        .filter(|o| !o.spec.deployment.fault_plan.is_empty())
        .collect();
    assert!(!crashed.is_empty(), "the fixture pins a crash arm");
    for outcome in crashed {
        let clear_interval = outcome
            .spec
            .deployment
            .relayer_strategy
            .packet_clear_interval;
        assert!(
            clear_interval > 0,
            "the crash scenario relies on packet clearing as its recovery mechanism"
        );
        let bound = (clear_interval + 1) as f64 * outcome.avg_block_interval_secs();
        let recovery = outcome
            .recovery_secs()
            .expect("the crash arm observes a recovery");
        assert!(
            (0.0..=bound).contains(&recovery),
            "{}: time-to-recovery {recovery:.3}s outside the clearing bound {bound:.3}s",
            outcome.spec.name
        );
        assert_eq!(outcome.double_submitted(), 0);
        assert_eq!(outcome.stranded_packets(), 0);
    }
}

/// A small crash/restart run: a fixed batch submitted over the first blocks,
/// one relayer that crashes at `crash_at` and restarts `down` seconds later,
/// packet clearing every 2 source blocks as the recovery mechanism.
fn crash_spec(seed: u64, crash_at: u64, down: u64) -> ExperimentSpec {
    ExperimentSpec::latency()
        .named("prop/fault_recovery")
        .transfers(40)
        .submission_blocks(2)
        .measurement_blocks(10)
        .rtt_ms(0)
        .packet_clearing(2)
        .seed(seed)
        .fault_plan(FaultPlan::new([
            FaultEvent::RelayerCrash {
                relayer: 0,
                at: SimDuration::from_secs(crash_at),
            },
            FaultEvent::RelayerRestart {
                relayer: 0,
                at: SimDuration::from_secs(crash_at + down),
            },
        ]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whatever the seed, crash instant or outage length, the restarted
    /// process never commits a receive the destination chain has already
    /// executed: the pre-broadcast unreceived-packets filter and the
    /// in-flight marker bookkeeping hold across a cold restart.
    #[test]
    fn a_restarted_relayer_never_double_submits(
        seed in 0u64..1_000,
        crash_at in 6u64..20,
        down in 3u64..12,
    ) {
        let outcome = scenarios::run(&crash_spec(seed, crash_at, down));
        prop_assert_eq!(
            outcome.double_submitted(),
            0,
            "seed={} crash_at={}s down={}s double-submitted a receive",
            seed, crash_at, down
        );
    }

    /// With packet clearing enabled, every transfer initiated before the
    /// fault eventually completes: the clear scan rescues whatever the
    /// crashed incarnation dropped, so nothing is stranded and the whole
    /// batch drains.
    #[test]
    fn transfers_initiated_before_a_fault_complete_once_cleared(
        seed in 0u64..1_000,
        crash_at in 6u64..20,
    ) {
        let outcome = scenarios::run(&crash_spec(seed, crash_at, 8));
        prop_assert_eq!(
            outcome.stranded_packets(),
            0,
            "seed={} crash_at={}s stranded packets",
            seed, crash_at
        );
        prop_assert_eq!(
            outcome.completed(),
            40,
            "seed={} crash_at={}s lost transfers",
            seed, crash_at
        );
    }
}
