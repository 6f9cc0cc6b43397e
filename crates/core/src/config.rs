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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploymentConfig {
    /// Emulated round-trip network latency in milliseconds (0 or 200 in the
    /// paper).
    pub network_rtt_ms: u64,
    /// Minimum block interval (the paper configures 5 seconds).
    pub min_block_interval: SimDuration,
    /// Number of relayer instances serving the cross-chain channels.
    pub relayer_count: usize,
    /// Number of concurrent transfer channels opened on every edge of the
    /// topology (the paper's testbed uses exactly 1). Every relayer serves every
    /// channel unless the strategy's channel policy dedicates instances.
    pub channel_count: usize,
    /// The pipeline strategy every relayer instance runs; the default is the
    /// paper's Hermes pipeline (see [`RelayerStrategy`]).
    pub relayer_strategy: RelayerStrategy,
    /// Number of funded user accounts available to the workload generator.
    pub user_accounts: usize,
    /// The experiment seed. No run draws from it: it stays in every spec
    /// (and so in every fixture's spec JSON) for a model that will.
    pub seed: u64,
    /// The deterministic fault schedule injected into the run (relayer
    /// crash/restart, chain halt, block stretch, light-client expiry). The
    /// default is the empty plan, which schedules nothing.
    pub fault_plan: FaultPlan,
    /// The chain graph the testnet deploys; the default is the paper's pair
    /// `ibc-0 → ibc-1`.
    pub topology: Topology,
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        DeploymentConfig {
            network_rtt_ms: 200,
            min_block_interval: SimDuration::from_secs(5),
            relayer_count: 1,
            channel_count: 1,
            relayer_strategy: RelayerStrategy::default(),
            user_accounts: 64,
            seed: 42,
            fault_plan: FaultPlan::default(),
            topology: Topology::default(),
        }
    }
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
    pub channel_weights: Vec<u64>,
    /// Multi-hop routes: once a transfer submitted on a route's `first_leg`
    /// channel is acknowledged, the runner forwards it as a fresh transfer on
    /// the `second_leg` channel (src → hub → dst as two chained IBC
    /// transfers). Empty (the default) disables forwarding; routes whose
    /// channels are out of range for the deployed topology are ignored.
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
    fn deployment_round_trips() {
        let mut d = DeploymentConfig {
            relayer_strategy: RelayerStrategy::batched_pulls(),
            ..DeploymentConfig::default()
        };
        d.seed = 7;
        let json = serde_json::to_string(&d).unwrap();
        let back: DeploymentConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn config_json_missing_a_field_does_not_parse() {
        let json = serde_json::to_string(&DeploymentConfig::default()).unwrap();
        let short = json.replace(",\"channel_count\":1", "");
        assert_ne!(short, json);
        let err = serde_json::from_str::<DeploymentConfig>(&short).unwrap_err();
        assert!(
            err.to_string().contains("missing field `channel_count`"),
            "{err}"
        );

        let json = serde_json::to_string(&WorkloadConfig::default()).unwrap();
        let short = json.replace(",\"hop_plan\":[]", "");
        assert_ne!(short, json);
        let err = serde_json::from_str::<WorkloadConfig>(&short).unwrap_err();
        assert!(
            err.to_string().contains("missing field `hop_plan`"),
            "{err}"
        );
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
    fn fault_plan_round_trips() {
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
    fn topology_and_hop_plan_round_trip() {
        let meshed = DeploymentConfig {
            topology: Topology::hub_and_spoke(3),
            ..DeploymentConfig::default()
        };
        let back: DeploymentConfig =
            serde_json::from_str(&serde_json::to_string(&meshed).unwrap()).unwrap();
        assert_eq!(back, meshed);
        let hopped = WorkloadConfig {
            hop_plan: Topology::hub_and_spoke_routes(3, 1),
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
