//! Declarative experiment specifications.
//!
//! An [`ExperimentSpec`] bundles everything one experiment run needs — a
//! name, the scenario family it belongs to, a [`DeploymentConfig`] and a
//! [`WorkloadConfig`] — into one serializable value. Specs are built with a
//! fluent builder:
//!
//! ```rust
//! use xcc_framework::spec::ExperimentSpec;
//!
//! let spec = ExperimentSpec::relayer_throughput()
//!     .input_rate(60)
//!     .relayers(2)
//!     .rtt_ms(200)
//!     .seed(42);
//! assert_eq!(spec.deployment.relayer_count, 2);
//! assert_eq!(spec.workload.input_rate_rps(), 60.0);
//! ```
//!
//! Because a spec is plain serde data, it can be stored next to the figures
//! it produced, diffed between runs, and fed to the [`sweep`](crate::sweep)
//! engine, which expands parameter grids into lists of specs and executes
//! them in parallel.

use serde::{Deserialize, Serialize};

use xcc_relayer::strategy::{ChannelPolicy, RelayerStrategy, SequenceTracking};

use crate::config::{DeploymentConfig, WorkloadConfig};
use crate::fault::FaultPlan;
use crate::topology::{HopRoute, Topology};

/// The scenario family a spec belongs to — which of the paper's experiment
/// shapes it reproduces. The family selects builder defaults; every family's
/// run produces the same unified [`ScenarioOutcome`](crate::outcome::ScenarioOutcome).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScenarioKind {
    /// Source-chain inclusion throughput, no relaying (Table I, Figs. 6–7).
    TendermintThroughput,
    /// Cross-chain throughput / completion with relayers (Figs. 8–11).
    RelayerThroughput,
    /// Batch completion latency measured to full completion (Figs. 12–13).
    Latency,
    /// The §V WebSocket 16 MiB frame-limit deployment challenge.
    WebSocketLimit,
}

impl ScenarioKind {
    /// Whether the workload of this family is expressed as a sustained input
    /// rate (transfers per second over the measurement window).
    pub fn is_rate_driven(&self) -> bool {
        matches!(
            self,
            ScenarioKind::TendermintThroughput | ScenarioKind::RelayerThroughput
        )
    }
}

/// A complete, serializable description of one experiment run.
///
/// `deployment.user_accounts == 0` means "size automatically": the runner
/// allocates one funded account per transaction per window, which is what
/// every paper experiment uses. The builder constructors start from that
/// automatic sizing; set an explicit count with
/// [`user_accounts`](ExperimentSpec::user_accounts).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Human-readable name, used in reports and figure tables.
    pub name: String,
    /// The scenario family this spec reproduces.
    pub kind: ScenarioKind,
    /// Testnet deployment parameters.
    pub deployment: DeploymentConfig,
    /// Benchmark workload parameters.
    pub workload: WorkloadConfig,
}

impl ExperimentSpec {
    fn base(
        name: &str,
        kind: ScenarioKind,
        deployment: DeploymentConfig,
        workload: WorkloadConfig,
    ) -> Self {
        ExperimentSpec {
            name: name.to_string(),
            kind,
            deployment,
            workload,
        }
    }

    /// A Tendermint-throughput experiment (Table I, Figs. 6–7): sustained
    /// input rate over 15 blocks, no relayers, inclusion only.
    pub fn tendermint_throughput() -> Self {
        let workload = WorkloadConfig {
            run_to_completion: false,
            ..WorkloadConfig::from_input_rate(1_000, 15)
        };
        let deployment = DeploymentConfig {
            relayer_count: 0,
            user_accounts: 0,
            ..DeploymentConfig::default()
        };
        Self::base(
            "tendermint_throughput",
            ScenarioKind::TendermintThroughput,
            deployment,
            workload,
        )
    }

    /// A relayer-throughput experiment (Figs. 8–11): sustained input rate
    /// relayed across the channel, measured over a window of source blocks.
    pub fn relayer_throughput() -> Self {
        let workload = WorkloadConfig {
            run_to_completion: false,
            ..WorkloadConfig::from_input_rate(60, 50)
        };
        let deployment = DeploymentConfig {
            relayer_count: 1,
            user_accounts: 0,
            ..DeploymentConfig::default()
        };
        Self::base(
            "relayer_throughput",
            ScenarioKind::RelayerThroughput,
            deployment,
            workload,
        )
    }

    /// A latency experiment (Figs. 12–13): a fixed batch submitted over a
    /// number of block windows and measured to full completion.
    pub fn latency() -> Self {
        let workload = WorkloadConfig {
            total_transfers: 5_000,
            submission_blocks: 1,
            measurement_blocks: 1,
            run_to_completion: true,
            completion_grace_blocks: 600,
            ..WorkloadConfig::default()
        };
        let deployment = DeploymentConfig {
            relayer_count: 1,
            user_accounts: 0,
            ..DeploymentConfig::default()
        };
        Self::base("latency", ScenarioKind::Latency, deployment, workload)
    }

    /// The WebSocket frame-limit experiment (§V): one oversized block window,
    /// event collection failing at the 16 MiB frame.
    pub fn websocket_limit() -> Self {
        let workload = WorkloadConfig {
            total_transfers: 60_000,
            submission_blocks: 1,
            measurement_blocks: 12,
            timeout_blocks: 6,
            run_to_completion: false,
            ..WorkloadConfig::default()
        };
        let deployment = DeploymentConfig {
            relayer_count: 1,
            network_rtt_ms: 0,
            user_accounts: 0,
            ..DeploymentConfig::default()
        };
        Self::base(
            "websocket_limit",
            ScenarioKind::WebSocketLimit,
            deployment,
            workload,
        )
    }

    // -- fluent builder methods ---------------------------------------------

    /// Renames the spec (figure tables and reports show this name).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the sustained input rate in transfers per second, keeping the
    /// current number of measurement windows (the paper's "request rate").
    ///
    /// Only meaningful for the rate-driven families
    /// ([`TendermintThroughput`](ScenarioKind::TendermintThroughput),
    /// [`RelayerThroughput`](ScenarioKind::RelayerThroughput)); for the
    /// batch-defined families this is a no-op — use
    /// [`transfers`](ExperimentSpec::transfers) there instead.
    pub fn input_rate(mut self, rate_rps: u64) -> Self {
        if self.kind.is_rate_driven() {
            let windows = self.workload.measurement_blocks.max(1);
            let rated = WorkloadConfig::from_input_rate(rate_rps, windows);
            self.workload.total_transfers = rated.total_transfers;
            self.workload.submission_blocks = rated.submission_blocks;
        }
        self
    }

    /// Sets the measurement window length in source blocks. For rate-driven
    /// families the per-window transfer count is preserved, so this scales
    /// the total workload rather than diluting it.
    pub fn measurement_blocks(mut self, blocks: u64) -> Self {
        if self.kind.is_rate_driven() {
            let per_window = self.workload.transfers_per_window();
            self.workload.total_transfers = per_window * blocks.max(1);
            self.workload.submission_blocks = blocks.max(1);
        }
        self.workload.measurement_blocks = blocks.max(1);
        self
    }

    /// Sets the total number of transfers (latency / websocket families).
    pub fn transfers(mut self, total: u64) -> Self {
        self.workload.total_transfers = total;
        self
    }

    /// Sets the number of block windows the submission is spread over
    /// (Fig. 13's submission strategy). For the latency family the
    /// measurement window follows the submission window, as in the paper.
    pub fn submission_blocks(mut self, blocks: u64) -> Self {
        self.workload.submission_blocks = blocks;
        if self.kind == ScenarioKind::Latency {
            self.workload.measurement_blocks = blocks.max(1);
        }
        self
    }

    /// Sets the packet timeout in destination-chain blocks (0 disables it).
    pub fn timeout_blocks(mut self, blocks: u64) -> Self {
        self.workload.timeout_blocks = blocks;
        self
    }

    /// Sets the number of relayer instances serving the channels.
    pub fn relayers(mut self, count: usize) -> Self {
        self.deployment.relayer_count = count;
        self
    }

    /// Sets the number of concurrent transfer channels opened between the
    /// two chains (the paper's testbed uses 1).
    ///
    /// ```rust
    /// use xcc_framework::spec::ExperimentSpec;
    ///
    /// let spec = ExperimentSpec::relayer_throughput().channels(4);
    /// assert_eq!(spec.deployment.channel_count, 4);
    /// ```
    pub fn channels(mut self, count: usize) -> Self {
        self.deployment.channel_count = count.max(1);
        self
    }

    /// Sets the per-channel traffic weights the workload targets channels
    /// with (empty = uniform round-robin); see
    /// [`WorkloadConfig::channel_pattern`].
    pub fn channel_weights(mut self, weights: impl IntoIterator<Item = u64>) -> Self {
        self.workload.channel_weights = weights.into_iter().collect();
        self
    }

    /// Sets the strategy's channel policy — how relayer processes divide the
    /// deployment's channels. [`ChannelPolicy::Dedicated`] changes the fleet
    /// topology itself: the testnet builds one relayer process per channel
    /// (times `relayer_count` redundant replicas per channel), each with its
    /// own RPC lanes, instead of `relayer_count` shared processes.
    ///
    /// ```rust
    /// use xcc_framework::spec::ExperimentSpec;
    /// use xcc_relayer::strategy::ChannelPolicy;
    ///
    /// let spec = ExperimentSpec::relayer_throughput()
    ///     .channels(4)
    ///     .channel_policy(ChannelPolicy::Dedicated);
    /// assert_eq!(spec.deployment.relayer_strategy.label(), "dedicated");
    /// ```
    pub fn channel_policy(mut self, policy: ChannelPolicy) -> Self {
        self.deployment.relayer_strategy.channel_policy = policy;
        self
    }

    /// Sets the relayers' WebSocket frame limit in bytes (`0` restores
    /// Tendermint's 16 MiB default) — the §V deployment limit as a knob.
    pub fn frame_limit(mut self, bytes: u64) -> Self {
        self.deployment.relayer_strategy = self.deployment.relayer_strategy.frame_limit(bytes);
        self
    }

    /// Sets the relayers' packet-clear interval in source blocks (`0`
    /// disables clearing, the paper's deployment).
    pub fn packet_clearing(mut self, blocks: u64) -> Self {
        self.deployment.relayer_strategy = self.deployment.relayer_strategy.packet_clearing(blocks);
        self
    }

    /// Sets the relayers' account-sequence tracking across straddled commits
    /// (§V's sequence race).
    ///
    /// ```rust
    /// use xcc_framework::spec::ExperimentSpec;
    /// use xcc_relayer::strategy::SequenceTracking;
    ///
    /// let spec = ExperimentSpec::relayer_throughput()
    ///     .sequence_tracking(SequenceTracking::MempoolAware);
    /// assert_eq!(spec.deployment.relayer_strategy.label(), "mempool-seq");
    /// ```
    pub fn sequence_tracking(mut self, tracking: SequenceTracking) -> Self {
        self.deployment.relayer_strategy =
            self.deployment.relayer_strategy.sequence_tracking(tracking);
        self
    }

    /// Sets the relayer pipeline strategy (data fetcher, submission policy,
    /// coordination, channel policy and the deployment-limit knobs) every
    /// instance runs.
    ///
    /// ```rust
    /// use xcc_framework::spec::ExperimentSpec;
    /// use xcc_relayer::strategy::RelayerStrategy;
    ///
    /// let spec = ExperimentSpec::relayer_throughput()
    ///     .input_rate(60)
    ///     .strategy(RelayerStrategy::batched_pulls());
    /// assert_eq!(spec.deployment.relayer_strategy.label(), "batched");
    /// ```
    pub fn strategy(mut self, strategy: RelayerStrategy) -> Self {
        self.deployment.relayer_strategy = strategy;
        self
    }

    /// Sets the deterministic fault schedule the runner injects (relayer
    /// crashes/restarts, chain halts, block stretches, client expiries).
    /// The default is the empty plan, which schedules nothing.
    ///
    /// ```rust
    /// use xcc_framework::fault::{FaultEvent, FaultPlan};
    /// use xcc_framework::spec::ExperimentSpec;
    /// use xcc_sim::SimDuration;
    ///
    /// let spec = ExperimentSpec::relayer_throughput().fault_plan(FaultPlan::new([
    ///     FaultEvent::RelayerCrash { relayer: 0, at: SimDuration::from_secs(16) },
    ///     FaultEvent::RelayerRestart { relayer: 0, at: SimDuration::from_secs(26) },
    /// ]));
    /// assert_eq!(spec.deployment.fault_plan.label(), "crash0@16s+restart0@26s");
    /// ```
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.deployment.fault_plan = plan;
        self
    }

    /// Sets the deployment's chain topology (the default is the paper's
    /// two-chain pair).
    ///
    /// ```rust
    /// use xcc_framework::spec::ExperimentSpec;
    /// use xcc_framework::topology::Topology;
    ///
    /// let spec = ExperimentSpec::relayer_throughput().topology(Topology::hub_and_spoke(3));
    /// assert_eq!(spec.deployment.topology.chains.len(), 4);
    /// ```
    pub fn topology(mut self, topology: Topology) -> Self {
        self.deployment.topology = topology;
        self
    }

    /// Sets the workload's multi-hop plan: each route chains a second
    /// transfer leg onto completed first legs (src → hub → dst). Routes
    /// whose channel indices are out of the deployment's range are ignored
    /// at run time, so one plan can be swept across topologies; an in-range
    /// route that does not chain fails setup.
    ///
    /// ```rust
    /// use xcc_framework::spec::ExperimentSpec;
    /// use xcc_framework::topology::Topology;
    ///
    /// let spec = ExperimentSpec::relayer_throughput()
    ///     .topology(Topology::hub_and_spoke(3))
    ///     .hop_plan(Topology::hub_and_spoke_routes(3, 1));
    /// assert_eq!(spec.workload.hop_plan.len(), 3);
    /// ```
    pub fn hop_plan(mut self, routes: impl IntoIterator<Item = HopRoute>) -> Self {
        self.workload.hop_plan = routes.into_iter().collect();
        self
    }

    /// Sets the emulated network round-trip time in milliseconds.
    pub fn rtt_ms(mut self, rtt: u64) -> Self {
        self.deployment.network_rtt_ms = rtt;
        self
    }

    /// Sets the experiment seed, which no run draws from today.
    pub fn seed(mut self, seed: u64) -> Self {
        self.deployment.seed = seed;
        self
    }

    /// Overrides the automatic funded-account sizing.
    pub fn user_accounts(mut self, accounts: usize) -> Self {
        self.deployment.user_accounts = accounts;
        self
    }

    // -- resolution ---------------------------------------------------------

    /// The deployment with automatic account sizing resolved: when
    /// `user_accounts` is 0, one funded account per transaction per window is
    /// allocated (so no account is reused within a window).
    pub fn resolved_deployment(&self) -> DeploymentConfig {
        let mut deployment = self.deployment.clone();
        if deployment.user_accounts == 0 {
            deployment.user_accounts = self.workload.txs_per_window().max(1) as usize;
        }
        deployment
    }

    /// Serializes the spec to pretty JSON.
    ///
    /// # Panics
    ///
    /// Panics only if serialization fails, which would indicate a bug in the
    /// spec structure itself.
    #[expect(
        clippy::expect_used,
        reason = "serialisation fails only on a bug in the spec structure itself"
    )]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serialisation cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_reproduces_the_paper_configurations() {
        let spec = ExperimentSpec::relayer_throughput()
            .input_rate(60)
            .relayers(2)
            .rtt_ms(200)
            .measurement_blocks(10)
            .seed(7);
        assert_eq!(spec.workload.total_transfers, 60 * 5 * 10);
        assert_eq!(spec.workload.submission_blocks, 10);
        assert_eq!(spec.workload.measurement_blocks, 10);
        assert!(!spec.workload.run_to_completion);
        assert_eq!(spec.deployment.relayer_count, 2);
        assert_eq!(spec.deployment.network_rtt_ms, 200);
        assert_eq!(spec.deployment.seed, 7);
    }

    #[test]
    fn builder_is_order_insensitive_for_rate_and_window() {
        let a = ExperimentSpec::relayer_throughput()
            .input_rate(80)
            .measurement_blocks(20);
        let b = ExperimentSpec::relayer_throughput()
            .measurement_blocks(20)
            .input_rate(80);
        assert_eq!(a.workload, b.workload);
    }

    #[test]
    fn latency_submission_blocks_drive_measurement_window() {
        let spec = ExperimentSpec::latency()
            .transfers(1_200)
            .submission_blocks(4);
        assert_eq!(spec.workload.total_transfers, 1_200);
        assert_eq!(spec.workload.submission_blocks, 4);
        assert_eq!(spec.workload.measurement_blocks, 4);
        assert!(spec.workload.run_to_completion);
    }

    #[test]
    fn automatic_account_sizing_matches_the_window() {
        let spec = ExperimentSpec::tendermint_throughput().input_rate(1_000);
        // 5,000 transfers per window at 100 per tx = 50 accounts.
        assert_eq!(spec.resolved_deployment().user_accounts, 50);
        let explicit = spec.user_accounts(7);
        assert_eq!(explicit.resolved_deployment().user_accounts, 7);
    }

    #[test]
    fn multi_channel_and_limit_knobs_build_into_the_spec() {
        let spec = ExperimentSpec::relayer_throughput()
            .channels(3)
            .channel_weights([4, 1, 1])
            .frame_limit(1 << 20)
            .packet_clearing(5);
        assert_eq!(spec.deployment.channel_count, 3);
        assert_eq!(spec.workload.channel_weights, vec![4, 1, 1]);
        assert_eq!(
            spec.deployment.relayer_strategy.ws_frame_limit_bytes,
            1 << 20
        );
        assert_eq!(spec.deployment.relayer_strategy.packet_clear_interval, 5);
        // Channel counts are clamped to at least one.
        assert_eq!(
            ExperimentSpec::relayer_throughput()
                .channels(0)
                .deployment
                .channel_count,
            1
        );
        // The knobs survive a JSON round trip.
        let back: ExperimentSpec = serde_json::from_str(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn specs_round_trip_through_json_identically() {
        let spec = ExperimentSpec::websocket_limit()
            .transfers(123)
            .seed(9)
            .named("ws-test");
        let json = spec.to_json();
        let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), json);
    }
}
