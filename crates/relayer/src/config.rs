//! Relayer configuration.

use serde::{Deserialize, Serialize};

use xcc_chain::account::AccountId;
use xcc_sim::SimDuration;

use crate::strategy::RelayerStrategy;

/// Configuration of one Hermes-like relayer instance.
///
/// Defaults follow the paper's deployment: at most 100 messages per
/// transaction, the relayer co-located with the full nodes it queries, and no
/// packet-clear interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RelayerConfig {
    /// Maximum number of messages batched into one transaction (Hermes caps
    /// this at 100).
    pub max_msgs_per_tx: usize,
    /// The relayer's fee-paying account on the source chain.
    pub source_account: AccountId,
    /// The relayer's fee-paying account on the destination chain.
    pub destination_account: AccountId,
    /// CPU time to build (encode, sign, assemble proofs into) one message.
    pub build_cost_per_msg: SimDuration,
    /// Fixed processing overhead when handling one block's event batch.
    pub event_processing_overhead: SimDuration,
    /// Extra processing stagger applied per replica index within the
    /// process's coordination group (`coordination_id`, falling back to the
    /// process id), modelling the slightly different event arrival and
    /// scheduling of independent relayer processes competing for the same
    /// work.
    pub per_instance_stagger: SimDuration,
    /// The pipeline strategy this instance runs (event source, data fetcher,
    /// submission policy, coordination, channel policy, and the
    /// frame-limit / packet-clear-interval deployment knobs). The default
    /// reproduces the paper's Hermes pipeline.
    pub strategy: RelayerStrategy,
    /// How many relayer instances serve the channel in total — the divisor
    /// the coordination policy partitions work by. For a dedicated fleet
    /// this is the number of redundant replicas *per channel*, not the fleet
    /// size.
    pub instances: usize,
    /// Pins this process to a single channel index: the process serves that
    /// channel and ignores every other, regardless of the strategy's channel
    /// policy. Set by the testnet builder when
    /// [`ChannelPolicy::Dedicated`](crate::strategy::ChannelPolicy::Dedicated)
    /// expands the deployment into one relayer process per channel; `None`
    /// (the default) leaves channel routing to the channel policy.
    pub channel_assignment: Option<usize>,
    /// The identity this process presents to the coordination policy, when
    /// it differs from the process id. A dedicated fleet numbers its
    /// processes globally but coordinates redundancy *within* each channel's
    /// replica group, so replicas of different channels reuse coordination
    /// ids 0..replicas. `None` (the default) uses the process id.
    pub coordination_id: Option<usize>,
}

impl Default for RelayerConfig {
    fn default() -> Self {
        RelayerConfig {
            max_msgs_per_tx: 100,
            source_account: AccountId::new("relayer"),
            destination_account: AccountId::new("relayer"),
            build_cost_per_msg: SimDuration::from_micros(1_500),
            event_processing_overhead: SimDuration::from_millis(10),
            per_instance_stagger: SimDuration::from_millis(35),
            strategy: RelayerStrategy::default(),
            instances: 1,
            channel_assignment: None,
            coordination_id: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_hermes_limits() {
        let cfg = RelayerConfig::default();
        assert_eq!(cfg.max_msgs_per_tx, 100);
        // The packet-clear interval lives on the strategy; the paper's
        // deployment disables it.
        assert_eq!(cfg.strategy.packet_clear_interval, 0);
    }
}
