//! Declarative relayer strategies: the serde-able configuration whose arms
//! are the relayer's pipeline stages (their behaviour is in
//! [`crate::stages`]).
//!
//! The paper measures one fixed relayer pipeline — Hermes' WebSocket
//! subscription, sequential chunked RPC data pulls, eager per-block
//! submission and no coordination between instances — and shows that this
//! pipeline, not consensus, caps cross-chain throughput (Figs. 8 vs 6) and
//! dominates completion latency (Fig. 12). A [`RelayerStrategy`] names each
//! of those pipeline decisions so the "what if?" counterfactuals become
//! ordinary experiment configuration; every arm is run by a registered
//! scenario:
//!
//! | Stage | Paper behaviour | Counterfactuals |
//! |---|---|---|
//! | [`FetchStrategy`] | sequential chunked pulls | batched, parallel |
//! | [`SubmissionMode`] | eager per-block | adaptive |
//! | [`CoordinationMode`] | none (redundant work) | sequence partition |
//! | [`ChannelPolicy`] | one channel (fair share) | priority, dedicated |
//! | [`SequenceTracking`] | committed-state resync (loses straddled windows, §V) | mempool-aware |
//!
//! Block events always arrive over the WebSocket subscription; its §V frame
//! limit and Hermes' packet-clear interval are the strategy's two
//! deployment-limit knobs.
//!
//! A strategy is plain serde data embedded in the framework's
//! `DeploymentConfig`, so it round-trips through JSON, sweeps like any other
//! experiment axis and is selectable from `ExperimentSpec`:
//!
//! ```rust
//! use xcc_relayer::strategy::{FetchStrategy, RelayerStrategy};
//!
//! let strategy = RelayerStrategy::batched_pulls();
//! assert_eq!(strategy.fetcher, FetchStrategy::Batched);
//! assert_ne!(strategy, RelayerStrategy::default());
//! assert_eq!(strategy.label(), "batched");
//! ```

use serde::{Deserialize, Serialize};

/// How the relayer pulls packet data and proofs back out of a chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum FetchStrategy {
    /// One chunked query per source transaction, issued back to back — the
    /// Hermes behaviour whose sequential round trips make up ~69% of
    /// completion latency in Fig. 12.
    #[default]
    Sequential,
    /// One query for the whole batch: the per-block scan cost is paid once
    /// (plus a per-item pagination surcharge) instead of once per chunk.
    Batched,
    /// The sequential chunked queries, but issued concurrently: the RPC
    /// server still serves them one at a time, yet queueing and network
    /// round trips overlap instead of accumulating.
    Parallel,
}

/// When the relayer turns collected packets into receive transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SubmissionMode {
    /// Relay every block's packets immediately (the paper's behaviour).
    #[default]
    Eager,
    /// Relay as soon as a full transaction's worth of packets is pending, or
    /// when the window expires — batching under load, eager when idle.
    Adaptive {
        /// The longest a pending packet may wait, in source blocks.
        max_window_blocks: u64,
    },
}

/// How multiple relayer instances divide the channel's work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum CoordinationMode {
    /// Every instance relays everything it observes. With more than one
    /// relayer this loses work to redundant messages, as in Figs. 9 and 11.
    #[default]
    None,
    /// Static partitioning: the instance whose index equals
    /// `sequence % instance_count` relays a packet, everyone else ignores it.
    SequencePartition,
}

/// How the relayer keeps its account sequences in step with each chain —
/// the strategy arm behind the paper's §V "account sequence mismatch"
/// deployment challenge.
///
/// The relayer signs every transaction with a locally tracked sequence.
/// While its transactions sit in a chain's mempool across a block commit
/// (a *straddled* commit), the chain's `CheckTx` state resets to the
/// committed sequence, so the relayer's continuation is rejected and the
/// naive recovery burns an entire submission window on a duplicate
/// sequence. The two arms differ exactly in that recovery:
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SequenceTracking {
    /// On a mismatch, re-query the chain's *committed* sequence and retry
    /// once with it — Hermes' behaviour, and the paper's. Across a straddled
    /// commit the committed sequence is stale (the relayer's own
    /// transactions still occupy it in the mempool), so the retry collides
    /// on-chain and the window's messages are lost.
    #[default]
    Resync,
    /// Track the check-state sequence locally and reconcile against the
    /// mempool-aware `account_sequence_unconfirmed` query before flushing:
    /// when the check state was reset under the relayer's in-flight window,
    /// hold the batch for the next block instead of burning it on a
    /// duplicate sequence. Straddled commits delay a flush by one block but
    /// never lose it, and broadcast failures drop to zero.
    MempoolAware,
}

impl SequenceTracking {
    /// A short label for sweep-point names and report rows.
    pub fn label(&self) -> &'static str {
        match self {
            SequenceTracking::Resync => "resync",
            SequenceTracking::MempoolAware => "mempool",
        }
    }
}

/// How one relayer instance divides its attention between the channels of a
/// multi-channel deployment (the per-channel scheduling layer).
///
/// With a single channel every policy behaves identically; the policies only
/// diverge when `DeploymentConfig::channel_count > 1` (the
/// `multi_channel_scaling` and `channel_contention` registry scenarios).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ChannelPolicy {
    /// Every instance serves every channel, rotating which channel's batch
    /// is relayed first each block so no channel is systematically starved.
    #[default]
    FairShare,
    /// Every instance serves every channel in fixed channel-index order:
    /// channel 0's batch always goes out first, lower-priority channels wait
    /// behind it on the shared packet worker.
    Priority,
    /// A dedicated relayer process per channel: the deployment expands into
    /// one relayer process for every channel (times `relayer_count`
    /// redundant replicas per channel), each pinned to its channel with its
    /// own RPC lanes — real fleet topology, not a rotation order. A relayer
    /// built without a channel assignment serves every channel in fixed
    /// order, like `Priority`.
    Dedicated,
}

impl ChannelPolicy {
    /// A short label for sweep-point names and report rows.
    pub fn label(&self) -> &'static str {
        match self {
            ChannelPolicy::FairShare => "fair-share",
            ChannelPolicy::Priority => "priority",
            ChannelPolicy::Dedicated => "dedicated",
        }
    }
}

/// The full, serializable strategy: one choice per pipeline stage, the
/// channel scheduling policy, and the deployment-limit knobs.
///
/// `RelayerStrategy::default()` reproduces the paper's Hermes-like pipeline
/// bit for bit; the named constructors build the counterfactual strategies
/// the registry's `*_batched_pulls` / `*_parallel_fetch` / `*_coordinated` /
/// `*_adaptive_submission` scenarios probe, and the
/// [`frame_limit`](RelayerStrategy::frame_limit) /
/// [`packet_clearing`](RelayerStrategy::packet_clearing) knobs turn the §V
/// deployment limits into sweepable configuration (`frame_limit_sweep`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RelayerStrategy {
    /// Packet data / proof retrieval.
    pub fetcher: FetchStrategy,
    /// Receive-path submission batching.
    pub submission: SubmissionMode,
    /// Work division between relayer instances.
    pub coordination: CoordinationMode,
    /// Channel scheduling across a multi-channel deployment.
    pub channel_policy: ChannelPolicy,
    /// Maximum WebSocket frame size in bytes for the event subscription;
    /// `0` means Tendermint's 16 MiB default.
    pub ws_frame_limit_bytes: u64,
    /// Every how many source blocks the relayer scans chain state for
    /// committed-but-unrelayed packets and clears them (Hermes'
    /// `clear_interval`); `0` disables clearing, as in the paper's
    /// deployment. Clearing is what rescues transfers stranded by an
    /// oversized WebSocket frame.
    pub packet_clear_interval: u64,
    /// Account-sequence management across straddled commits (§V's sequence
    /// race). The default reproduces Hermes' lossy committed-state resync.
    pub sequence_tracking: SequenceTracking,
}

impl RelayerStrategy {
    /// The paper's pipeline: sequential pulls, eager submission, no
    /// coordination. Identical to `Default::default()`.
    pub fn paper_default() -> Self {
        RelayerStrategy::default()
    }

    /// The paper pipeline with the data pulls batched into one query.
    pub fn batched_pulls() -> Self {
        RelayerStrategy {
            fetcher: FetchStrategy::Batched,
            ..RelayerStrategy::default()
        }
    }

    /// The paper pipeline with the chunked data pulls issued concurrently.
    pub fn parallel_fetch() -> Self {
        RelayerStrategy {
            fetcher: FetchStrategy::Parallel,
            ..RelayerStrategy::default()
        }
    }

    /// The paper pipeline with sequence-partitioned relayer instances.
    pub fn coordinated() -> Self {
        RelayerStrategy {
            coordination: CoordinationMode::SequencePartition,
            ..RelayerStrategy::default()
        }
    }

    /// The paper pipeline with backlog-adaptive submission batching.
    pub fn adaptive_submission(max_window_blocks: u64) -> Self {
        RelayerStrategy {
            submission: SubmissionMode::Adaptive {
                max_window_blocks: max_window_blocks.max(1),
            },
            ..RelayerStrategy::default()
        }
    }

    /// The paper pipeline with the given channel scheduling policy (only
    /// meaningful in multi-channel deployments).
    pub fn with_channel_policy(policy: ChannelPolicy) -> Self {
        RelayerStrategy {
            channel_policy: policy,
            ..RelayerStrategy::default()
        }
    }

    /// Returns this strategy with the WebSocket frame limit set to `bytes`
    /// (`0` restores Tendermint's 16 MiB default). This is the §V deployment
    /// limit as a sweepable knob — see the `frame_limit_sweep` scenario.
    pub fn frame_limit(mut self, bytes: u64) -> Self {
        self.ws_frame_limit_bytes = bytes;
        self
    }

    /// Returns this strategy with a packet-clear scan every `blocks` source
    /// blocks (`0` disables clearing, the paper's deployment).
    pub fn packet_clearing(mut self, blocks: u64) -> Self {
        self.packet_clear_interval = blocks;
        self
    }

    /// Returns this strategy with the given account-sequence tracking mode
    /// ([`SequenceTracking::Resync`] restores the paper's lossy behaviour).
    pub fn sequence_tracking(mut self, tracking: SequenceTracking) -> Self {
        self.sequence_tracking = tracking;
        self
    }

    /// A short label for sweep-point names and report rows: the non-default
    /// stage choices joined by `+`, or `"default"`.
    pub fn label(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        match self.fetcher {
            FetchStrategy::Sequential => {}
            FetchStrategy::Batched => parts.push("batched".to_string()),
            FetchStrategy::Parallel => parts.push("parallel".to_string()),
        }
        match self.submission {
            SubmissionMode::Eager => {}
            SubmissionMode::Adaptive { .. } => parts.push("adaptive".to_string()),
        }
        match self.coordination {
            CoordinationMode::None => {}
            CoordinationMode::SequencePartition => parts.push("partitioned".to_string()),
        }
        match self.channel_policy {
            ChannelPolicy::FairShare => {}
            ChannelPolicy::Priority => parts.push("priority".to_string()),
            ChannelPolicy::Dedicated => parts.push("dedicated".to_string()),
        }
        if self.ws_frame_limit_bytes != 0 {
            parts.push(format!("frame{}", self.ws_frame_limit_bytes));
        }
        if self.packet_clear_interval != 0 {
            parts.push(format!("clear{}", self.packet_clear_interval));
        }
        if self.sequence_tracking == SequenceTracking::MempoolAware {
            parts.push("mempool-seq".to_string());
        }
        if parts.is_empty() {
            "default".to_string()
        } else {
            parts.join("+")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_pipeline() {
        let s = RelayerStrategy::default();
        assert_eq!(s, RelayerStrategy::paper_default());
        assert_eq!(s.fetcher, FetchStrategy::Sequential);
        assert_eq!(s.submission, SubmissionMode::Eager);
        assert_eq!(s.coordination, CoordinationMode::None);
        assert_eq!(s.label(), "default");
    }

    #[test]
    fn constructors_change_exactly_one_stage() {
        assert_eq!(
            RelayerStrategy::batched_pulls().fetcher,
            FetchStrategy::Batched
        );
        assert_eq!(
            RelayerStrategy::parallel_fetch().fetcher,
            FetchStrategy::Parallel
        );
        assert_eq!(
            RelayerStrategy::coordinated().coordination,
            CoordinationMode::SequencePartition
        );
        assert_eq!(
            RelayerStrategy::adaptive_submission(4).submission,
            SubmissionMode::Adaptive {
                max_window_blocks: 4
            }
        );
    }

    #[test]
    fn labels_compose_non_default_stages() {
        let s = RelayerStrategy {
            fetcher: FetchStrategy::Batched,
            submission: SubmissionMode::Adaptive {
                max_window_blocks: 2,
            },
            coordination: CoordinationMode::SequencePartition,
            ..RelayerStrategy::default()
        };
        assert_eq!(s.label(), "batched+adaptive+partitioned");
        assert_eq!(
            RelayerStrategy::with_channel_policy(ChannelPolicy::Dedicated).label(),
            "dedicated"
        );
        assert_eq!(
            RelayerStrategy::default()
                .frame_limit(1 << 20)
                .packet_clearing(5)
                .label(),
            "frame1048576+clear5"
        );
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a strategy is configuration: its serde::Value round trip is what a spec file goes through"
    )]
    fn strategies_round_trip_through_the_serde_shim() {
        for s in [
            RelayerStrategy::default(),
            RelayerStrategy::batched_pulls(),
            RelayerStrategy::parallel_fetch(),
            RelayerStrategy::coordinated(),
            RelayerStrategy::adaptive_submission(4),
            RelayerStrategy::with_channel_policy(ChannelPolicy::Priority),
            RelayerStrategy::default()
                .frame_limit(4 << 20)
                .packet_clearing(3),
            RelayerStrategy::default().sequence_tracking(SequenceTracking::MempoolAware),
        ] {
            let back = RelayerStrategy::from_value(&s.to_value()).unwrap();
            assert_eq!(back, s);
        }
    }

    #[test]
    fn sequence_tracking_knob_builds_and_labels() {
        let s = RelayerStrategy::default().sequence_tracking(SequenceTracking::MempoolAware);
        assert_eq!(s.sequence_tracking, SequenceTracking::MempoolAware);
        assert_eq!(s.label(), "mempool-seq");
        assert_eq!(
            RelayerStrategy::batched_pulls()
                .sequence_tracking(SequenceTracking::MempoolAware)
                .label(),
            "batched+mempool-seq"
        );
        assert_eq!(SequenceTracking::Resync.label(), "resync");
        assert_eq!(SequenceTracking::MempoolAware.label(), "mempool");
        assert_eq!(
            RelayerStrategy::default().sequence_tracking(SequenceTracking::Resync),
            RelayerStrategy::default()
        );
    }
}
