//! The relayer pipeline stages: the behaviour of each arm of a
//! [`RelayerStrategy`], as methods on the strategy enums themselves.
//!
//! [`Relayer`](crate::relayer::Relayer) is a thin driver over four decisions,
//! mirroring the paper's Fig. 4 decomposition of Hermes, after each committed
//! block's events arrive over the WebSocket subscription
//! [`RelayerStrategy::subscription`] describes:
//!
//! 1. [`FetchStrategy::fetch_packet_data`] / [`FetchStrategy::fetch_ack_data`]
//!    pull packet data and proofs back out of a chain;
//! 2. [`SubmissionMode::should_flush`] decides when pending packets are
//!    relayed;
//! 3. [`CoordinationMode::assigned`] divides work between relayer instances;
//! 4. [`ChannelPolicy::flush_order`] orders one instance's attention between
//!    channels.
//!
//! Every stage works in simulated time: the methods take the instant an
//! operation starts and return the instant its results are in hand, with all
//! RPC traffic priced through the endpoint's FIFO queue model.
//!
//! ```rust
//! use xcc_relayer::strategy::RelayerStrategy;
//! use xcc_ibc::ids::Sequence;
//!
//! // Ask the partitioned-coordination strategy who relays packet #7 of a
//! // two-relayer deployment.
//! let coordination = RelayerStrategy::coordinated().coordination;
//! assert!(!coordination.assigned(0, 2, Sequence::from(7)));
//! assert!(coordination.assigned(1, 2, Sequence::from(7)));
//! ```

use std::collections::BTreeMap;

use xcc_ibc::commitment::CommitmentProof;
use xcc_ibc::ids::{ChannelId, PortId, Sequence};
use xcc_ibc::packet::Acknowledgement;
use xcc_rpc::endpoint::RpcEndpoint;
use xcc_rpc::websocket::WebSocketSubscription;
use xcc_sim::SimTime;

use crate::strategy::{
    ChannelPolicy, CoordinationMode, FetchStrategy, RelayerStrategy, SubmissionMode,
};

// ---------------------------------------------------------------------------
// Event subscription
// ---------------------------------------------------------------------------

impl RelayerStrategy {
    /// The WebSocket subscription this strategy's frame-limit knob
    /// describes (`0` is Tendermint's 16 MiB default). A relayer holds one
    /// per chain; the `frame_limit_sweep` registry scenario exercises its
    /// §V failure mode, Hermes' "Failed to collect events" on an oversized
    /// frame.
    ///
    /// ```rust
    /// use xcc_chain::chain::Chain;
    /// use xcc_chain::genesis::GenesisConfig;
    /// use xcc_relayer::strategy::RelayerStrategy;
    /// use xcc_rpc::endpoint::RpcEndpoint;
    /// use xcc_sim::{SimDuration, SimTime};
    ///
    /// let chain = Chain::new(GenesisConfig::new("chain-a")).into_shared();
    /// chain.borrow_mut().produce_block(SimTime::from_secs(5));
    /// let rpc = RpcEndpoint::new(chain, SimDuration::ZERO);
    ///
    /// let mut subscription = RelayerStrategy::default().subscription();
    /// let batch = subscription.collect_block_events(&rpc, 1).unwrap();
    /// assert_eq!(batch.committed.block.header.height, 1);
    /// ```
    pub fn subscription(&self) -> WebSocketSubscription {
        match self.ws_frame_limit_bytes {
            0 => WebSocketSubscription::default(),
            limit => WebSocketSubscription::new(limit as usize),
        }
    }
}

// ---------------------------------------------------------------------------
// Data fetcher
// ---------------------------------------------------------------------------

/// The result of pulling data for a batch of sequences.
#[derive(Debug, Clone)]
pub struct Fetched<T> {
    /// What came back, per packet sequence — a commitment proof per packet,
    /// or an acknowledgement with its proof (missing entries were not found
    /// on chain and are skipped by the build step, as in Hermes).
    pub items: BTreeMap<u64, T>,
    /// When each requested sequence's data was in the relayer's hands; the
    /// driver stamps the `TransferDataPull` / `RecvDataPull` telemetry step
    /// with these.
    pub pull_times: Vec<(Sequence, SimTime)>,
    /// When the last response arrived: the fetch stage's completion time.
    pub done_at: SimTime,
}

/// Pulls packet data and proofs out of a chain's RPC endpoint — the stage
/// the paper measures as ~69% of completion latency (Fig. 12).
///
/// The `fig8_batched_pulls` and `fig12_parallel_fetch` registry scenarios
/// exercise the non-default arms, built from
/// [`RelayerStrategy::batched_pulls`] and [`RelayerStrategy::parallel_fetch`].
///
/// ```rust
/// use xcc_chain::chain::Chain;
/// use xcc_chain::genesis::GenesisConfig;
/// use xcc_ibc::ids::{ChannelId, PortId, Sequence};
/// use xcc_relayer::strategy::FetchStrategy;
/// use xcc_rpc::endpoint::RpcEndpoint;
/// use xcc_sim::{SimDuration, SimTime};
///
/// // 200 ms round trip: 100 ms each way.
/// let make_rpc = || {
///     let chain = Chain::new(GenesisConfig::new("chain-a")).into_shared();
///     chain.borrow_mut().produce_block(SimTime::from_secs(5));
///     RpcEndpoint::new(chain, SimDuration::from_millis(100))
/// };
/// let seqs: Vec<Sequence> = (1..=250).map(Sequence::from).collect();
/// let (port, channel) = (PortId::transfer(), ChannelId::with_index(0));
///
/// // Three 100-packet chunks: issued back to back vs all at once.
/// let sequential = FetchStrategy::Sequential.fetch_packet_data(
///     &mut make_rpc(), SimTime::ZERO, 1, &port, &channel, &seqs, 100);
/// let parallel = FetchStrategy::Parallel.fetch_packet_data(
///     &mut make_rpc(), SimTime::ZERO, 1, &port, &channel, &seqs, 100);
/// assert!(parallel.done_at < sequential.done_at, "overlap wins round trips");
/// ```
impl FetchStrategy {
    /// Fetches the packets' commitment proofs from the **source** chain,
    /// priced against the block at `height`.
    #[allow(clippy::too_many_arguments)]
    pub fn fetch_packet_data(
        self,
        rpc: &mut RpcEndpoint,
        start: SimTime,
        height: u64,
        port: &PortId,
        channel: &ChannelId,
        sequences: &[Sequence],
        chunk_size: usize,
    ) -> Fetched<CommitmentProof> {
        self.fetch(start, sequences, chunk_size, |at, chunk| {
            let pull = match self {
                FetchStrategy::Batched => {
                    rpc.pull_packet_data_batched(at, height, port, channel, chunk)
                }
                _ => rpc.pull_packet_data(at, height, port, channel, chunk),
            };
            let found = pull.value.into_iter();
            (
                pull.ready_at,
                found.map(|(seq, proof)| (seq.value(), proof)),
            )
        })
    }

    /// Fetches the packets' acknowledgements from the **destination** chain,
    /// priced against the (recv-heavy) block at `height`.
    #[allow(clippy::too_many_arguments)]
    pub fn fetch_ack_data(
        self,
        rpc: &mut RpcEndpoint,
        start: SimTime,
        height: u64,
        port: &PortId,
        channel: &ChannelId,
        sequences: &[Sequence],
        chunk_size: usize,
    ) -> Fetched<(Acknowledgement, CommitmentProof)> {
        self.fetch(start, sequences, chunk_size, |at, chunk| {
            let pull = match self {
                FetchStrategy::Batched => {
                    rpc.pull_ack_data_batched(at, height, port, channel, chunk)
                }
                _ => rpc.pull_ack_data(at, height, port, channel, chunk),
            };
            let found = pull.value.into_iter();
            (
                pull.ready_at,
                found.map(|(seq, ack, proof)| (seq.value(), (ack, proof))),
            )
        })
    }

    /// The chunk loop shared by both directions: one `pull` query per chunk
    /// of `sequences`, answering with the response's arrival time and the
    /// `(sequence, item)` pairs found. `Batched` makes the whole batch one
    /// chunk; `Sequential` issues each `chunk_size` chunk only after the
    /// previous response arrived; `Parallel` issues every chunk at `start`,
    /// so the single-server RPC queue still serializes service times but
    /// queueing overlaps the network round trips instead of adding to them.
    fn fetch<T, I: Iterator<Item = (u64, T)>>(
        self,
        start: SimTime,
        sequences: &[Sequence],
        chunk_size: usize,
        mut pull: impl FnMut(SimTime, &[Sequence]) -> (SimTime, I),
    ) -> Fetched<T> {
        let chunk_len = match self {
            FetchStrategy::Batched => sequences.len(),
            FetchStrategy::Sequential | FetchStrategy::Parallel => chunk_size,
        };
        let mut issue_at = start;
        let mut done_at = start;
        let mut items = BTreeMap::new();
        let mut pull_times = Vec::with_capacity(sequences.len());
        // `chunks` panics on a zero size: a zero `chunk_size` means 1.
        for chunk in sequences.chunks(chunk_len.max(1)) {
            let (ready_at, found) = pull(issue_at, chunk);
            items.extend(found);
            pull_times.extend(chunk.iter().map(|seq| (*seq, ready_at)));
            done_at = done_at.max(ready_at);
            if self == FetchStrategy::Sequential {
                issue_at = ready_at;
            }
        }
        Fetched {
            items,
            pull_times,
            done_at,
        }
    }
}

// ---------------------------------------------------------------------------
// Submission policy
// ---------------------------------------------------------------------------

impl SubmissionMode {
    /// Decides, once per source block with pending packets, whether the
    /// pending receive batch is relayed now or held for a larger batch:
    /// `pending_msgs` packets are waiting after the current block's events;
    /// `true` relays them now.
    ///
    /// `blocks_held` is the caller's count of pending source blocks since
    /// the last flush — the only mutable state of the stage. A zero
    /// `max_msgs_per_tx` behaves as one (the relayer passes
    /// [`MAX_MSGS_PER_TX`](crate::config::MAX_MSGS_PER_TX)).
    ///
    /// The `fig13_adaptive_submission` registry scenario exercises the
    /// non-default policy, built from
    /// [`RelayerStrategy::adaptive_submission`].
    ///
    /// ```rust
    /// use xcc_relayer::strategy::SubmissionMode;
    ///
    /// // A two-block window holds a part-filled batch for one more block.
    /// let policy = SubmissionMode::Adaptive { max_window_blocks: 2 };
    /// let mut blocks_held = 0;
    /// assert!(!policy.should_flush(&mut blocks_held, 40, 100));
    /// assert!(policy.should_flush(&mut blocks_held, 80, 100));
    /// ```
    pub fn should_flush(
        self,
        blocks_held: &mut u64,
        pending_msgs: usize,
        max_msgs_per_tx: usize,
    ) -> bool {
        let SubmissionMode::Adaptive { max_window_blocks } = self else {
            return true;
        };
        let full_tx = pending_msgs >= max_msgs_per_tx.max(1);
        *blocks_held += 1;
        // At least one block is held by now, so a zero window from a
        // hand-written strategy needs no clamp: it flushes like a window of 1.
        let flush = full_tx || *blocks_held >= max_window_blocks;
        if flush {
            *blocks_held = 0;
        }
        flush
    }
}

// ---------------------------------------------------------------------------
// Coordination policy
// ---------------------------------------------------------------------------

impl CoordinationMode {
    /// Whether instance `relayer_id` of `relayer_count` is responsible for
    /// relaying `sequence`. Without coordination that is every instance, and
    /// with more than one the duplicates are rejected on chain or skipped
    /// after the unreceived-packet query (Figs. 9 and 11); partitioning picks
    /// exactly one.
    ///
    /// The `fig11_coordinated` registry scenario exercises the non-default
    /// policy, built from [`RelayerStrategy::coordinated`].
    ///
    /// ```rust
    /// use xcc_ibc::ids::Sequence;
    /// use xcc_relayer::strategy::CoordinationMode;
    ///
    /// // Exactly one of three instances owns each sequence.
    /// let policy = CoordinationMode::SequencePartition;
    /// let owners: Vec<usize> = (0..3)
    ///     .filter(|id| policy.assigned(*id, 3, Sequence::from(11)))
    ///     .collect();
    /// assert_eq!(owners, vec![2]);
    /// ```
    pub fn assigned(self, relayer_id: usize, relayer_count: usize, sequence: Sequence) -> bool {
        match self {
            CoordinationMode::None => true,
            CoordinationMode::SequencePartition => {
                relayer_count <= 1 || sequence.value() % relayer_count as u64 == relayer_id as u64
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Channel scheduler
// ---------------------------------------------------------------------------

/// Orders a relayer instance's attention between the channels of a
/// multi-channel deployment: in which order their pending batches are
/// flushed on the shared packet worker. Which channels an instance serves at
/// all is the deployment's decision, not the policy's: the testnet builder
/// expands [`ChannelPolicy::Dedicated`] into one process pinned to each
/// channel (`RelayerConfig::channel_assignment`).
///
/// The `multi_channel_scaling` and `channel_contention` registry scenarios
/// exercise the non-default policies (see
/// [`RelayerStrategy::with_channel_policy`]).
///
/// ```rust
/// use xcc_relayer::strategy::ChannelPolicy;
///
/// // Fair share rotates the flush order with the block height...
/// assert_eq!(ChannelPolicy::FairShare.flush_order(10, 3), vec![1, 2, 0]);
/// // ...while priority always starts from the first channel.
/// assert_eq!(ChannelPolicy::Priority.flush_order(10, 3), vec![0, 1, 2]);
/// ```
impl ChannelPolicy {
    /// The order in which this instance flushes the deployment's
    /// `channel_count` channels for the block at `height` (channels the
    /// process is not pinned to are filtered by the caller).
    pub fn flush_order(self, height: u64, channel_count: usize) -> Vec<usize> {
        let n = channel_count.max(1);
        let start = match self {
            ChannelPolicy::FairShare => (height % n as u64) as usize,
            ChannelPolicy::Priority | ChannelPolicy::Dedicated => 0,
        };
        (0..n).map(|i| (start + i) % n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedulers_rotate_prioritize_and_dedicate() {
        let fair = ChannelPolicy::FairShare;
        assert_eq!(fair.flush_order(0, 3), vec![0, 1, 2]);
        assert_eq!(fair.flush_order(1, 3), vec![1, 2, 0]);
        assert_eq!(fair.flush_order(5, 3), vec![2, 0, 1]);

        let priority = ChannelPolicy::Priority;
        for height in [0u64, 3, 17] {
            assert_eq!(priority.flush_order(height, 3), vec![0, 1, 2]);
        }

        let dedicated = ChannelPolicy::Dedicated;
        assert_eq!(dedicated.flush_order(17, 3), vec![0, 1, 2]);
        // Single-channel deployments reduce every policy to the same plan.
        for scheduler in [fair, priority, dedicated] {
            assert_eq!(scheduler.flush_order(9, 1), vec![0]);
        }
    }

    /// An endpoint on a chain whose block 1 holds one bank send that
    /// succeeds and one that passes `CheckTx` but overdraws at `DeliverTx`.
    fn rpc_with_a_mixed_block() -> RpcEndpoint {
        use xcc_chain::chain::Chain;
        use xcc_chain::coin::Coin;
        use xcc_chain::genesis::GenesisConfig;
        use xcc_chain::msg::Msg;
        use xcc_chain::tx::Tx;
        use xcc_sim::SimDuration;
        let chain =
            Chain::new(GenesisConfig::new("chain-a").with_funded_accounts("user", 2, 100_000_000))
                .into_shared();
        {
            let mut c = chain.borrow_mut();
            for (user, amount) in [("user-0", 1), ("user-1", 1_000_000_000)] {
                let tx = Tx::new(
                    user.into(),
                    0,
                    vec![Msg::BankSend {
                        from: user.into(),
                        to: "user-0".into(),
                        amount: Coin::new("uatom", amount),
                    }],
                    "uatom",
                );
                c.submit_tx(tx, SimTime::ZERO).unwrap();
            }
            c.produce_block(SimTime::from_secs(5));
        }
        RpcEndpoint::new(chain, SimDuration::ZERO)
    }

    #[test]
    fn the_subscription_delivers_the_stored_block_itself() {
        let rpc = rpc_with_a_mixed_block();
        let mut subscription = RelayerStrategy::default().subscription();
        let pushed = subscription.collect_block_events(&rpc, 1).unwrap();
        let chain = rpc.chain().borrow();
        let stored = chain.block_at(1).unwrap();
        assert!(std::rc::Rc::ptr_eq(&pushed.committed, stored));

        let txs: Vec<_> = pushed.txs().collect();
        let hashes: Vec<_> = stored.block.data.txs.iter().map(|tx| tx.hash()).collect();
        assert_eq!(hashes, [txs[0].0, txs[1].0]);
        assert_eq!((txs[0].1, txs[0].2.len()), (0, 2));
        assert_eq!((txs[1].1, txs[1].2.len()), (111, 0), "insufficient funds");

        // Pinned from the commit before the block store was shared: the §V
        // frame size of this block.
        assert_eq!(stored.events_payload_bytes, 1111);
        assert_eq!(pushed.payload_bytes, 1111);
    }

    #[test]
    fn frame_limit_knob_configures_the_subscription() {
        let rpc = rpc_with_a_mixed_block();
        let collect = |strategy: RelayerStrategy| {
            strategy
                .subscription()
                .collect_block_events(&rpc, 1)
                .map_err(|e| e.to_string())
        };
        // A one-byte limit must fail collection where the default succeeds.
        let tiny = collect(RelayerStrategy::default().frame_limit(1));
        assert!(tiny.unwrap_err().contains("Failed to collect events"));
        assert!(collect(RelayerStrategy::default()).is_ok());
    }

    /// A strategy arm as a hand-written config file spells it.
    #[expect(
        clippy::disallowed_methods,
        reason = "reads a strategy arm from JSON text the way a config file spells it; configuration, not the transaction path"
    )]
    fn parsed<T: serde::Deserialize>(json: &str) -> T {
        T::from_value(&serde::json::parse(json).expect("valid JSON")).expect("a strategy arm")
    }

    #[test]
    fn eager_always_flushes() {
        let mut held = 0;
        let eager = SubmissionMode::Eager;
        assert!(eager.should_flush(&mut held, 1, 100));
        assert!(eager.should_flush(&mut held, 0, 100));
        assert_eq!(held, 0);
    }

    #[test]
    fn adaptive_flushes_on_full_tx_or_window_expiry() {
        let mut held = 0;
        let adaptive = SubmissionMode::Adaptive {
            max_window_blocks: 4,
        };
        assert!(
            adaptive.should_flush(&mut held, 100, 100),
            "full tx flushes at once"
        );
        assert!(!adaptive.should_flush(&mut held, 10, 100));
        assert!(!adaptive.should_flush(&mut held, 20, 100));
        assert!(!adaptive.should_flush(&mut held, 30, 100));
        assert!(
            adaptive.should_flush(&mut held, 30, 100),
            "window expiry flushes"
        );

        // Zeros from outside: a zero window is one block, and a zero
        // `max_msgs_per_tx` is a one-message transaction, not "always full".
        let zero = parsed::<SubmissionMode>(r#"{"Adaptive":{"max_window_blocks":0}}"#);
        assert!(zero.should_flush(&mut held, 1, 100));
        assert!(!adaptive.should_flush(&mut held, 0, 0));
        assert!(adaptive.should_flush(&mut held, 1, 0));
    }

    #[test]
    fn partition_assigns_exactly_one_instance() {
        let partition = CoordinationMode::SequencePartition;
        for seq in 1u64..=20 {
            let seq = Sequence::from(seq);
            let owners = (0..3).filter(|id| partition.assigned(*id, 3, seq)).count();
            assert_eq!(owners, 1);
        }
        // Single-instance deployments always own everything.
        assert!(partition.assigned(0, 1, Sequence::from(9)));
    }

    #[test]
    fn no_coordination_assigns_everyone() {
        let none = CoordinationMode::None;
        assert!(none.assigned(0, 2, Sequence::from(1)));
        assert!(none.assigned(1, 2, Sequence::from(1)));
    }
}
