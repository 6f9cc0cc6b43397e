//! Relayer configuration: the five values a deployment sets per process, and
//! the four pipeline constants no deployment varies (one becomes a field when
//! two scenarios need different values of it). The testnet builder makes a
//! [`RelayerConfig`]; it is not a serde type, because an `ExperimentSpec`
//! carries a [`RelayerStrategy`], never a `RelayerConfig`.

use xcc_chain::account::AccountId;
use xcc_sim::SimDuration;

use crate::strategy::RelayerStrategy;

/// Maximum number of messages batched into one transaction: Hermes' cap, and
/// the value the paper's deployment ran.
pub const MAX_MSGS_PER_TX: usize = 100;

/// CPU time to build (encode, sign, assemble proofs into) one message.
pub const BUILD_COST_PER_MSG: SimDuration = SimDuration::from_micros(1_500);

/// Fixed processing overhead when handling one block's event batch.
pub const EVENT_PROCESSING_OVERHEAD: SimDuration = SimDuration::from_millis(10);

/// Extra processing stagger applied per replica index within the process's
/// coordination group (`coordination_id`),
/// modelling the slightly different event arrival and scheduling of
/// independent relayer processes competing for the same work.
pub const PER_INSTANCE_STAGGER: SimDuration = SimDuration::from_millis(35);

/// Configuration of one Hermes-like relayer instance.
///
/// Defaults follow the paper's deployment: one instance, the relayer
/// co-located with the full nodes it queries, and no packet-clear interval.
#[derive(Debug, Clone, PartialEq)]
pub struct RelayerConfig {
    /// The relayer's fee-paying account, the same on both chains (the
    /// testnet funds every `relayer-<id>` account on every chain).
    pub account: AccountId,
    /// The pipeline strategy this instance runs (data fetcher, submission
    /// policy, coordination, channel policy, sequence tracking, and the
    /// frame-limit / packet-clear-interval deployment knobs). The default
    /// reproduces the paper's Hermes pipeline.
    pub strategy: RelayerStrategy,
    /// How many relayer instances serve the channel in total — the divisor
    /// the coordination policy partitions work by. For a dedicated fleet
    /// this is the number of redundant replicas *per channel*, not the fleet
    /// size.
    pub instances: usize,
    /// Pins this process to a single channel index: the process serves that
    /// channel and ignores every other. Set by the testnet builder when
    /// [`ChannelPolicy::Dedicated`](crate::strategy::ChannelPolicy::Dedicated)
    /// expands the deployment into one relayer process per channel; `None`
    /// (the default) serves every channel of the process's paths.
    pub channel_assignment: Option<usize>,
    /// The identity this process presents to the coordination policy: its
    /// replica index within its coordination group. A shared fleet numbers
    /// replicas like processes; a dedicated fleet numbers its processes
    /// globally but coordinates redundancy *within* each channel's replica
    /// group, so replicas of different channels reuse coordination ids
    /// 0..replicas.
    pub coordination_id: usize,
}

impl Default for RelayerConfig {
    fn default() -> Self {
        RelayerConfig {
            account: AccountId::new("relayer"),
            strategy: RelayerStrategy::default(),
            instances: 1,
            channel_assignment: None,
            coordination_id: 0,
        }
    }
}
