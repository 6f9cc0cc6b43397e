//! Experiment configuration: deployment and workload parameters.
//!
//! These two structs correspond to the "Deployment configuration" and
//! "Workload configuration" inputs of the framework's Setup and Benchmark
//! modules (Fig. 5 of the paper). The defaults reproduce the paper's
//! experiment settings (§III-C/D).

use serde::{Deserialize, Serialize};

use xcc_relayer::strategy::RelayerStrategy;
use xcc_sim::SimDuration;

use crate::fault::FaultPlan;
use crate::topology::{HopRoute, Topology};
use crate::workload::TRANSFERS_PER_TX;

/// Parameters of the deployed testnet (the Setup module's input).
///
/// Every field added after the first golden fixtures were committed carries
/// `#[serde(default)]`, so spec JSON written before the field existed still
/// parses — to the value [`DeploymentConfig::default`] gives it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploymentConfig {
    /// Identifier of the source chain.
    pub source_chain_id: String,
    /// Identifier of the destination chain.
    pub destination_chain_id: String,
    /// Emulated round-trip network latency in milliseconds (0 or 200 in the
    /// paper).
    pub network_rtt_ms: u64,
    /// Minimum block interval (the paper configures 5 seconds).
    pub min_block_interval: SimDuration,
    /// Number of relayer instances serving the cross-chain channels.
    pub relayer_count: usize,
    /// Number of concurrent transfer channels opened between the two chains
    /// (the paper's testbed uses exactly 1). Every relayer serves every
    /// channel unless the strategy's channel policy dedicates instances.
    #[serde(default = "default_channel_count")]
    pub channel_count: usize,
    /// The pipeline strategy every relayer instance runs; the default is the
    /// paper's Hermes pipeline (see [`RelayerStrategy`]).
    #[serde(default)]
    pub relayer_strategy: RelayerStrategy,
    /// Number of funded user accounts available to the workload generator.
    pub user_accounts: usize,
    /// The experiment seed. No run draws from it: it stays in every spec
    /// (and so in every fixture's spec JSON) for a model that will.
    pub seed: u64,
    /// When true, scenario outcomes additionally report the relayers'
    /// `broadcast_failures` counter as a metric. Off by default so the
    /// metric maps of runs that never asked for it — the pre-knob golden
    /// fixtures included — stay unchanged; the
    /// [`sequence_tracking`](crate::spec::ExperimentSpec::sequence_tracking)
    /// spec builder switches it on for both arms of the §V sequence-race
    /// comparison.
    #[serde(default)]
    pub report_broadcast_failures: bool,
    /// The deterministic fault schedule injected into the run (relayer
    /// crash/restart, chain halt, block stretch, light-client expiry). The
    /// default is the empty plan, which schedules nothing — runs and fixtures
    /// written before fault injection existed are bit-identical to an
    /// explicit empty plan (see docs/DETERMINISM.md).
    #[serde(default)]
    pub fault_plan: FaultPlan,
    /// The chain graph the testnet deploys. The default (empty) topology is
    /// the legacy-pair sentinel: it resolves to
    /// `source_chain_id → destination_chain_id` with `channel_count`
    /// channels, so spec JSON written before topologies existed (every
    /// earlier golden fixture) parses to a deployment that behaves
    /// bit-identically to the old pair path.
    #[serde(default)]
    pub topology: Topology,
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        DeploymentConfig {
            source_chain_id: "ibc-0".to_string(),
            destination_chain_id: "ibc-1".to_string(),
            network_rtt_ms: 200,
            min_block_interval: SimDuration::from_secs(5),
            relayer_count: 1,
            channel_count: 1,
            relayer_strategy: RelayerStrategy::default(),
            user_accounts: 64,
            seed: 42,
            report_broadcast_failures: false,
            fault_plan: FaultPlan::default(),
            topology: Topology::default(),
        }
    }
}

/// Pre-multi-channel JSON has no `channel_count`: the paper's single channel.
fn default_channel_count() -> usize {
    1
}

/// Parameters of the benchmark workload (the Benchmark module's input).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Total number of cross-chain transfers to request.
    pub total_transfers: u64,
    /// Number of consecutive block windows the submission is spread over
    /// (Fig. 13 varies this from 1 to 64).
    pub submission_blocks: u64,
    /// Length of the measurement window in source-chain blocks (15 for the
    /// Tendermint experiments, 50 for the relayer experiments).
    pub measurement_blocks: u64,
    /// Packet timeout expressed in destination-chain blocks (0 disables the
    /// height timeout).
    pub timeout_blocks: u64,
    /// If true, keep producing blocks after the measurement window until all
    /// in-flight transfers either complete or time out (used by the latency
    /// experiments).
    pub run_to_completion: bool,
    /// Hard cap on additional blocks produced while running to completion.
    pub completion_grace_blocks: u64,
    /// Relative traffic weights per channel in a multi-channel deployment:
    /// transaction `i` targets the channel picked by a deterministic
    /// weighted round-robin over these weights. Empty means uniform
    /// round-robin across every open channel (and is the only sensible value
    /// for single-channel deployments).
    #[serde(default)]
    pub channel_weights: Vec<u64>,
    /// Multi-hop routes: once a transfer submitted on a route's `first_leg`
    /// channel is acknowledged, the runner forwards it as a fresh transfer on
    /// the `second_leg` channel (src → hub → dst as two chained IBC
    /// transfers). Empty (the default, and the value every pre-topology JSON
    /// parses to) disables forwarding; routes whose channels are out of range
    /// for the deployed topology are ignored.
    #[serde(default)]
    pub hop_plan: Vec<HopRoute>,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            total_transfers: 5_000,
            submission_blocks: 1,
            measurement_blocks: 50,
            timeout_blocks: 0,
            run_to_completion: true,
            completion_grace_blocks: 400,
            channel_weights: Vec::new(),
            hop_plan: Vec::new(),
        }
    }
}

impl WorkloadConfig {
    /// A workload expressed as the paper's "input rate": `rate` requests per
    /// second sustained for `measurement_blocks` windows of the nominal
    /// 5-second block interval.
    pub fn from_input_rate(rate_rps: u64, measurement_blocks: u64) -> Self {
        let transfers_per_window = rate_rps * 5;
        WorkloadConfig {
            total_transfers: transfers_per_window * measurement_blocks,
            submission_blocks: measurement_blocks,
            measurement_blocks,
            ..WorkloadConfig::default()
        }
    }

    /// Transfers submitted per block window.
    pub fn transfers_per_window(&self) -> u64 {
        self.total_transfers.div_ceil(self.submission_blocks.max(1))
    }

    /// Transactions submitted per block window.
    pub fn txs_per_window(&self) -> u64 {
        self.transfers_per_window()
            .div_ceil(TRANSFERS_PER_TX as u64)
    }

    /// The nominal input rate in requests (transfers) per second assuming
    /// 5-second blocks, as the paper defines it.
    pub fn input_rate_rps(&self) -> f64 {
        self.transfers_per_window() as f64 / 5.0
    }

    /// The deterministic channel-targeting pattern for a deployment with
    /// `channel_count` channels: transaction `i` targets channel
    /// `pattern[i % pattern.len()]`.
    ///
    /// With empty `channel_weights` this is a uniform round-robin
    /// `[0, 1, …, n-1]`; with weights, each channel appears once per weight
    /// unit (`[2, 1]` → `[0, 0, 1]`). Channels beyond the weight list get
    /// weight 0 and receive no traffic; a weight list longer than the
    /// channel list is truncated.
    pub fn channel_pattern(&self, channel_count: usize) -> Vec<usize> {
        let n = channel_count.max(1);
        if self.channel_weights.is_empty() {
            return (0..n).collect();
        }
        let pattern: Vec<usize> = self
            .channel_weights
            .iter()
            .take(n)
            .enumerate()
            .flat_map(|(channel, weight)| std::iter::repeat_n(channel, *weight as usize))
            .collect();
        if pattern.is_empty() {
            (0..n).collect()
        } else {
            pattern
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_settings() {
        let d = DeploymentConfig::default();
        assert_eq!(d.network_rtt_ms, 200);
        assert_eq!(d.min_block_interval, SimDuration::from_secs(5));
        assert_eq!(d.relayer_strategy, RelayerStrategy::default());
    }

    #[test]
    fn deployment_round_trips_and_tolerates_pre_strategy_json() {
        let mut d = DeploymentConfig {
            relayer_strategy: RelayerStrategy::batched_pulls(),
            ..DeploymentConfig::default()
        };
        d.seed = 7;
        let json = serde_json::to_string(&d).unwrap();
        let back: DeploymentConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);

        // Config JSON written before the strategy field existed still parses,
        // falling back to the paper-default pipeline.
        let legacy = json
            .split_once(",\"relayer_strategy\"")
            .map(|(head, tail)| {
                let rest = tail.split_once(",\"user_accounts\"").unwrap().1;
                format!("{head},\"user_accounts\"{rest}")
            })
            .unwrap();
        assert!(!legacy.contains("relayer_strategy"));
        let parsed: DeploymentConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(parsed.relayer_strategy, RelayerStrategy::default());
        assert_eq!(parsed.seed, 7);
    }

    #[test]
    fn input_rate_conversion_matches_paper_examples() {
        // "a request rate of 1,000 transfers per second corresponds to a
        // batch of 5,000 transfers being submitted every 5 seconds".
        let w = WorkloadConfig::from_input_rate(1_000, 15);
        assert_eq!(w.transfers_per_window(), 5_000);
        assert_eq!(w.txs_per_window(), 50);
        assert_eq!(w.total_transfers, 75_000);
        assert!((w.input_rate_rps() - 1_000.0).abs() < f64::EPSILON);
    }

    #[test]
    fn pre_multi_channel_json_still_parses() {
        // Deployment / workload JSON written before `channel_count` /
        // `channel_weights` existed (the golden fixtures) must parse to the
        // single-channel uniform defaults.
        let deployment_json = serde_json::to_string(&DeploymentConfig::default()).unwrap();
        let legacy = deployment_json.replace(",\"channel_count\":1", "");
        assert!(!legacy.contains("channel_count"));
        let parsed: DeploymentConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(parsed.channel_count, 1);

        let workload_json = serde_json::to_string(&WorkloadConfig::default()).unwrap();
        let legacy = workload_json.replace(",\"channel_weights\":[]", "");
        assert!(!legacy.contains("channel_weights"));
        let parsed: WorkloadConfig = serde_json::from_str(&legacy).unwrap();
        assert!(parsed.channel_weights.is_empty());
        assert_eq!(parsed, WorkloadConfig::default());
    }

    #[test]
    fn pre_knob_json_defaults_broadcast_failure_reporting_off() {
        // Deployment JSON written before the broadcast-failure reporting
        // knob existed (the golden fixtures) must parse to no extra metrics.
        let json = serde_json::to_string(&DeploymentConfig::default()).unwrap();
        let legacy = json.replace(",\"report_broadcast_failures\":false", "");
        assert!(!legacy.contains("report_broadcast_failures"));
        let parsed: DeploymentConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(parsed, DeploymentConfig::default());
        assert!(!parsed.report_broadcast_failures);
    }

    #[test]
    fn pre_fault_json_still_parses_to_the_empty_plan() {
        // Deployment JSON written before fault injection existed (every
        // earlier golden fixture) must parse to the empty fault plan, and an
        // explicit plan must survive a round trip.
        let json = serde_json::to_string(&DeploymentConfig::default()).unwrap();
        let legacy = json.replace(",\"fault_plan\":{\"events\":[]}", "");
        assert!(!legacy.contains("fault_plan"));
        let parsed: DeploymentConfig = serde_json::from_str(&legacy).unwrap();
        assert!(parsed.fault_plan.is_empty());
        assert_eq!(parsed, DeploymentConfig::default());

        let faulted = DeploymentConfig {
            fault_plan: FaultPlan::new([
                crate::fault::FaultEvent::RelayerCrash {
                    relayer: 0,
                    at: SimDuration::from_secs(16),
                },
                crate::fault::FaultEvent::RelayerRestart {
                    relayer: 0,
                    at: SimDuration::from_secs(26),
                },
            ]),
            ..DeploymentConfig::default()
        };
        let back: DeploymentConfig =
            serde_json::from_str(&serde_json::to_string(&faulted).unwrap()).unwrap();
        assert_eq!(back, faulted);
    }

    #[test]
    fn pre_topology_json_still_parses_to_the_pair_sentinel() {
        // Deployment / workload JSON written before topologies existed
        // (every earlier golden fixture) must parse to the legacy-pair
        // sentinel and an empty hop plan.
        let json = serde_json::to_string(&DeploymentConfig::default()).unwrap();
        let legacy = json.replace(",\"topology\":{\"chains\":[],\"edges\":[]}", "");
        assert!(!legacy.contains("topology"));
        let parsed: DeploymentConfig = serde_json::from_str(&legacy).unwrap();
        assert!(parsed.topology.is_legacy_pair());
        assert_eq!(parsed, DeploymentConfig::default());

        let workload_json = serde_json::to_string(&WorkloadConfig::default()).unwrap();
        let legacy = workload_json.replace(",\"hop_plan\":[]", "");
        assert!(!legacy.contains("hop_plan"));
        let parsed: WorkloadConfig = serde_json::from_str(&legacy).unwrap();
        assert!(parsed.hop_plan.is_empty());
        assert_eq!(parsed, WorkloadConfig::default());

        // An explicit topology and hop plan survive a round trip.
        let meshed = DeploymentConfig {
            topology: Topology::hub_and_spoke(3),
            ..DeploymentConfig::default()
        };
        let back: DeploymentConfig =
            serde_json::from_str(&serde_json::to_string(&meshed).unwrap()).unwrap();
        assert_eq!(back, meshed);
        let hopped = WorkloadConfig {
            hop_plan: Topology::hub_and_spoke_routes(3),
            ..WorkloadConfig::default()
        };
        let back: WorkloadConfig =
            serde_json::from_str(&serde_json::to_string(&hopped).unwrap()).unwrap();
        assert_eq!(back, hopped);
    }

    #[test]
    fn channel_patterns_follow_weights() {
        let uniform = WorkloadConfig::default();
        assert_eq!(uniform.channel_pattern(1), vec![0]);
        assert_eq!(uniform.channel_pattern(3), vec![0, 1, 2]);

        let weighted = WorkloadConfig {
            channel_weights: vec![2, 1],
            ..WorkloadConfig::default()
        };
        assert_eq!(weighted.channel_pattern(2), vec![0, 0, 1]);
        // Extra channels beyond the weight list get no traffic; surplus
        // weights are truncated to the open channels.
        assert_eq!(weighted.channel_pattern(3), vec![0, 0, 1]);
        assert_eq!(weighted.channel_pattern(1), vec![0, 0]);
        // All-zero weights fall back to uniform round-robin.
        let zeros = WorkloadConfig {
            channel_weights: vec![0, 0],
            ..WorkloadConfig::default()
        };
        assert_eq!(zeros.channel_pattern(2), vec![0, 1]);
    }

    #[test]
    fn window_computations_round_up() {
        let w = WorkloadConfig {
            total_transfers: 250,
            submission_blocks: 2,
            ..WorkloadConfig::default()
        };
        assert_eq!(w.transfers_per_window(), 125);
        assert_eq!(w.txs_per_window(), 2);
    }
}
