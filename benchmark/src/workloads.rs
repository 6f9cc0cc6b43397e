//! The four single-spec workloads and how their inputs derive from the seed.
//!
//! The simulator receives only the generated [`ExperimentSpec`]; the seed is
//! a harness argument. It currently feeds the deployment's random stream
//! only (RPC latency jitter, which the constant-RTT model does not draw
//! from), so outcomes are identical across seeds — the seed exists so that a
//! later change which makes the simulator seed-sensitive is measured on a
//! seed it was not tuned on.
//!
//! Sizes are chosen so one `try_run` costs about two host seconds: the
//! acceptance driver makes 92 runs of eight `try_run`s each under a fixed
//! time cap, and block production and the relayer's pulls are superlinear in
//! the number of outstanding commitments, so longer windows buy no new
//! behaviour, only fewer repetitions.

use xcc_framework::outcome::ScenarioOutcome;
use xcc_framework::spec::ExperimentSpec;
use xcc_relayer::strategy::SequenceTracking;

/// What a workload measures in simulated time, which decides how its
/// simulated throughput is read and whether it must drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Rate-driven relayed stream, stopped at the end of the window.
    RelayedStream,
    /// Rate-driven source-chain inclusion, no relayer.
    ChainOnly,
    /// One burst relayed until every transfer is acknowledged.
    Drain,
}

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    /// One line on why the workload exists (mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    pub shape: Shape,
    build: fn() -> ExperimentSpec,
}

/// Round-trip time of every relayed workload (the paper's WAN setting).
const RTT_MS: u64 = 200;
/// Measurement window of the two rate-driven workloads, in source blocks.
const STREAM_BLOCKS: u64 = 20;

fn relay_steady() -> ExperimentSpec {
    ExperimentSpec::relayer_throughput()
        .input_rate(60)
        .relayers(1)
        .rtt_ms(RTT_MS)
        .measurement_blocks(STREAM_BLOCKS)
}

fn chain_only() -> ExperimentSpec {
    ExperimentSpec::tendermint_throughput()
        .input_rate(200)
        .measurement_blocks(STREAM_BLOCKS)
}

// `MempoolAware` on the two drain workloads is deliberate: under the paper's
// default `Resync` tracking the same burst strands a share of its packets
// (the §V sequence race) and the runner then burns all 600 grace blocks,
// which would make "drained" unusable as a correctness check. `relay_steady`
// keeps the paper default, so both tracking paths are covered.
fn batch_drain() -> ExperimentSpec {
    ExperimentSpec::latency()
        .transfers(3_000)
        .rtt_ms(RTT_MS)
        .sequence_tracking(SequenceTracking::MempoolAware)
}

fn lossy_clear() -> ExperimentSpec {
    ExperimentSpec::latency()
        .transfers(3_600)
        .rtt_ms(RTT_MS)
        .sequence_tracking(SequenceTracking::MempoolAware)
        .frame_limit(256 * 1024)
        .packet_clearing(4)
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "relay_steady",
        why: "Fig. 8 shape: 60 rps stream through one relayer at 200 ms RTT; every layer is busy every block",
        shape: Shape::RelayedStream,
        build: relay_steady,
    },
    Workload {
        name: "chain_only",
        why: "Fig. 6 shape: 200 rps with no relayer; block production only, bypasses relayer, RPC pulls and telemetry",
        shape: Shape::ChainOnly,
        build: chain_only,
    },
    Workload {
        name: "batch_drain",
        why: "Fig. 12 shape: one 3000-transfer burst relayed to completion; few huge blocks and pulls instead of a stream",
        shape: Shape::Drain,
        build: batch_drain,
    },
    Workload {
        name: "lossy_clear",
        why: "Sec. V shape: burst under a 256 KiB frame limit; event collection fails and the clear scan does the relaying",
        shape: Shape::Drain,
        build: lossy_clear,
    },
];

/// Looks a workload up by its `--workload` name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Generates the workload's input from the seed.
    pub fn spec(&self, seed: u64) -> ExperimentSpec {
        (self.build)().named(self.name).seed(seed)
    }

    /// Whether the run must end with every packet acknowledged.
    pub fn drains(&self) -> bool {
        self.shape == Shape::Drain
    }

    /// Simulated transfers per simulated second — the paper's axis, read the
    /// way each shape defines it: completed transfers over the window for
    /// the relayed stream, committed transfers over the window for the bare
    /// chain, and the whole burst over its completion latency for a drain.
    pub fn sim_tfps(&self, outcome: &ScenarioOutcome) -> f64 {
        match self.shape {
            Shape::RelayedStream => outcome.throughput_tfps(),
            Shape::ChainOnly => outcome.tendermint_throughput_tfps(),
            Shape::Drain => {
                let latency = outcome.completion_latency_secs();
                if latency > 0.0 {
                    outcome.submitted() as f64 / latency
                } else {
                    0.0
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_spec_json() {
        for workload in &WORKLOADS {
            assert_eq!(
                workload.spec(7).to_json(),
                workload.spec(7).to_json(),
                "{}",
                workload.name
            );
            assert_ne!(workload.spec(7).to_json(), workload.spec(8).to_json());
            assert_eq!(workload.spec(7).deployment.seed, 7);
        }
    }

    #[test]
    fn workload_names_are_unique_and_resolvable() {
        for workload in &WORKLOADS {
            let found = by_name(workload.name).expect("registered");
            assert_eq!(found.why, workload.why);
            assert!(workload.why.len() <= 200);
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn shapes_match_the_spec_they_build() {
        let steady = by_name("relay_steady").unwrap().spec(1);
        assert_eq!(steady.workload.total_transfers, 60 * 5 * STREAM_BLOCKS);
        assert_eq!(steady.deployment.relayer_count, 1);
        assert!(!steady.workload.run_to_completion);
        let bare = by_name("chain_only").unwrap().spec(1);
        assert_eq!(bare.deployment.relayer_count, 0);
        for name in ["batch_drain", "lossy_clear"] {
            let spec = by_name(name).unwrap().spec(1);
            assert!(spec.workload.run_to_completion, "{name}");
            assert_eq!(spec.workload.submission_blocks, 1, "{name}");
        }
        let lossy = by_name("lossy_clear").unwrap().spec(1);
        assert_eq!(lossy.deployment.relayer_strategy.packet_clear_interval, 4);
    }
}
