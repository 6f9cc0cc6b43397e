//! The relayer pipeline stages: trait objects built from a
//! [`crate::strategy::RelayerStrategy`].
//!
//! [`Relayer`](crate::relayer::Relayer) is a thin driver over four stages,
//! mirroring the paper's Fig. 4 decomposition of Hermes:
//!
//! 1. an [`EventSource`] delivers each committed block's events;
//! 2. a [`DataFetcher`] pulls packet data and proofs back out of a chain;
//! 3. a [`SubmissionPolicy`] decides when pending packets are relayed;
//! 4. a [`CoordinationPolicy`] divides work between relayer instances.
//!
//! Every stage works in simulated time: implementations take the instant an
//! operation starts and return the instant its results are in hand, with all
//! RPC traffic priced through the endpoint's FIFO queue model.
//!
//! ```rust
//! use xcc_relayer::stages::CoordinationPolicy;
//! use xcc_relayer::strategy::RelayerStrategy;
//! use xcc_ibc::ids::Sequence;
//!
//! // Build the stage bundle for the partitioned-coordination strategy and
//! // check who relays packet #7 of a two-relayer deployment.
//! let stages = RelayerStrategy::coordinated().build();
//! assert!(!stages.coordination.assigned(0, 2, 10, Sequence::from(7)));
//! assert!(stages.coordination.assigned(1, 2, 10, Sequence::from(7)));
//! ```

use std::collections::BTreeMap;

use xcc_ibc::commitment::CommitmentProof;
use xcc_ibc::ids::{ChannelId, PortId, Sequence};
use xcc_ibc::packet::Acknowledgement;
use xcc_rpc::endpoint::RpcEndpoint;
use xcc_rpc::websocket::WebSocketSubscription;
use xcc_sim::{SimDuration, SimTime};

use crate::strategy::{
    ChannelPolicy, CoordinationMode, EventSourceKind, FetchStrategy, RelayerStrategy,
    SubmissionMode,
};

pub use xcc_rpc::websocket::BlockEventBatch;

// ---------------------------------------------------------------------------
// Event source
// ---------------------------------------------------------------------------

/// Delivers the events of newly committed blocks to the relayer.
///
/// `relayer_delay` is the relayer-side processing overhead (event handling
/// plus the per-instance stagger); implementations add their own transport
/// delay and return the simulated instant the batch reaches the packet
/// worker.
///
/// The `frame_limit_sweep` registry scenario exercises this stage's failure
/// mode — the configured frame limit comes from
/// [`RelayerStrategy::frame_limit`],
/// and [`RelayerStrategy::polling_events`]
/// swaps in the limit-free polling implementation.
///
/// ```rust
/// use xcc_chain::chain::Chain;
/// use xcc_chain::genesis::GenesisConfig;
/// use xcc_relayer::stages::{EventSource, WebSocketEventSource};
/// use xcc_rpc::cost::RpcCostModel;
/// use xcc_rpc::endpoint::RpcEndpoint;
/// use xcc_sim::{DetRng, LatencyModel, SimDuration, SimTime};
///
/// let chain = Chain::new(GenesisConfig::new("chain-a")).into_shared();
/// chain.borrow_mut().produce_block(SimTime::from_secs(5));
/// let mut rpc = RpcEndpoint::new(
///     chain,
///     RpcCostModel::default(),
///     LatencyModel::Zero,
///     DetRng::new(1),
/// );
///
/// let mut source = WebSocketEventSource::default();
/// let commit = SimTime::from_secs(5);
/// let (at, batch) = source.collect(&mut rpc, 1, commit, SimDuration::from_millis(10));
/// assert!(at > commit, "delivery adds transport + processing delay");
/// assert_eq!(batch.unwrap().height, 1);
/// ```
pub trait EventSource {
    /// Collects the events of the block at `height`, committed at
    /// `commit_time`. Returns the delivery instant together with the batch,
    /// or with the transport error message (e.g. Hermes' "Failed to collect
    /// events" on an oversized WebSocket frame).
    fn collect(
        &mut self,
        rpc: &mut RpcEndpoint,
        height: u64,
        commit_time: SimTime,
        relayer_delay: SimDuration,
    ) -> (SimTime, Result<BlockEventBatch, String>);

    /// A short name for reports and debugging.
    fn kind(&self) -> &'static str;
}

/// The paper's event path: a per-relayer WebSocket `NewBlock` subscription,
/// free of RPC-queue cost but subject to the 16 MiB frame limit (§V).
#[derive(Debug, Default)]
pub struct WebSocketEventSource {
    subscription: WebSocketSubscription,
}

impl WebSocketEventSource {
    /// A subscription with an explicit frame limit (tests and §V scenarios).
    pub fn with_frame_limit(max_frame_bytes: usize) -> Self {
        WebSocketEventSource {
            subscription: WebSocketSubscription::new(max_frame_bytes),
        }
    }
}

impl EventSource for WebSocketEventSource {
    fn collect(
        &mut self,
        rpc: &mut RpcEndpoint,
        height: u64,
        commit_time: SimTime,
        relayer_delay: SimDuration,
    ) -> (SimTime, Result<BlockEventBatch, String>) {
        let at = commit_time + self.subscription.delivery_overhead() + relayer_delay;
        let result = self
            .subscription
            .collect_block_events(rpc, height)
            .map_err(|e| e.to_string());
        (at, result)
    }

    fn kind(&self) -> &'static str {
        "websocket"
    }
}

/// Polls each block's transaction results over the RPC endpoint instead of
/// subscribing: immune to the frame limit, but every block pays a queued
/// `block_results` query whose response time defers event handling.
#[derive(Debug, Default)]
pub struct PollingEventSource;

impl EventSource for PollingEventSource {
    fn collect(
        &mut self,
        rpc: &mut RpcEndpoint,
        height: u64,
        commit_time: SimTime,
        relayer_delay: SimDuration,
    ) -> (SimTime, Result<BlockEventBatch, String>) {
        let resp = rpc.block_tx_results(commit_time + relayer_delay, height);
        let payload_bytes = resp.response_bytes;
        let tx_events = std::rc::Rc::new(
            resp.value
                .into_iter()
                .map(|view| (view.hash, view.code, view.events))
                .collect::<Vec<_>>(),
        );
        (
            resp.ready_at,
            Ok(BlockEventBatch {
                height,
                tx_events,
                payload_bytes,
            }),
        )
    }

    fn kind(&self) -> &'static str {
        "polling"
    }
}

// ---------------------------------------------------------------------------
// Data fetcher
// ---------------------------------------------------------------------------

/// The result of pulling packet commitments for a batch of sequences.
#[derive(Debug, Clone)]
pub struct FetchedPackets {
    /// Commitment proof per packet sequence (missing entries were not found
    /// on chain and are skipped by the build step, as in Hermes).
    pub proofs: BTreeMap<u64, CommitmentProof>,
    /// When each requested sequence's data was in the relayer's hands; the
    /// driver stamps the `TransferDataPull` telemetry step with these.
    pub pull_times: Vec<(Sequence, SimTime)>,
    /// When the last response arrived: the fetch stage's completion time.
    pub done_at: SimTime,
}

/// The result of pulling acknowledgements for a batch of sequences.
#[derive(Debug, Clone)]
pub struct FetchedAcks {
    /// Acknowledgement and proof per packet sequence.
    pub acks: BTreeMap<u64, (Acknowledgement, CommitmentProof)>,
    /// When each requested sequence's data was in the relayer's hands
    /// (stamps the `RecvDataPull` telemetry step).
    pub pull_times: Vec<(Sequence, SimTime)>,
    /// When the last response arrived.
    pub done_at: SimTime,
}

/// Pulls packet data and proofs out of a chain's RPC endpoint — the stage
/// the paper measures as ~69% of completion latency (Fig. 12).
///
/// The `fig8_batched_pulls` and `fig12_parallel_fetch` registry scenarios
/// exercise the non-default fetchers, built from
/// [`RelayerStrategy::batched_pulls`]
/// and
/// [`RelayerStrategy::parallel_fetch`].
///
/// ```rust
/// use xcc_chain::chain::Chain;
/// use xcc_chain::genesis::GenesisConfig;
/// use xcc_ibc::ids::{ChannelId, PortId, Sequence};
/// use xcc_relayer::stages::{DataFetcher, ParallelFetcher, SequentialFetcher};
/// use xcc_rpc::cost::RpcCostModel;
/// use xcc_rpc::endpoint::RpcEndpoint;
/// use xcc_sim::{DetRng, LatencyModel, SimTime};
///
/// let make_rpc = || {
///     let chain = Chain::new(GenesisConfig::new("chain-a")).into_shared();
///     chain.borrow_mut().produce_block(SimTime::from_secs(5));
///     RpcEndpoint::new(
///         chain,
///         RpcCostModel::default(),
///         LatencyModel::constant_rtt_ms(200),
///         DetRng::new(1),
///     )
/// };
/// let seqs: Vec<Sequence> = (1..=250).map(Sequence::from).collect();
/// let (port, channel) = (PortId::transfer(), ChannelId::with_index(0));
///
/// // Three 100-packet chunks: issued back to back vs all at once.
/// let sequential = SequentialFetcher.fetch_packet_data(
///     &mut make_rpc(), SimTime::ZERO, 1, &port, &channel, &seqs, 100);
/// let parallel = ParallelFetcher.fetch_packet_data(
///     &mut make_rpc(), SimTime::ZERO, 1, &port, &channel, &seqs, 100);
/// assert!(parallel.done_at < sequential.done_at, "overlap wins round trips");
/// ```
pub trait DataFetcher {
    /// Fetches the packets' commitment proofs from the **source** chain,
    /// priced against the block at `height`.
    #[allow(clippy::too_many_arguments)]
    fn fetch_packet_data(
        &self,
        rpc: &mut RpcEndpoint,
        start: SimTime,
        height: u64,
        port: &PortId,
        channel: &ChannelId,
        sequences: &[Sequence],
        chunk_size: usize,
    ) -> FetchedPackets;

    /// Fetches the packets' acknowledgements from the **destination** chain,
    /// priced against the (recv-heavy) block at `height`.
    #[allow(clippy::too_many_arguments)]
    fn fetch_ack_data(
        &self,
        rpc: &mut RpcEndpoint,
        start: SimTime,
        height: u64,
        port: &PortId,
        channel: &ChannelId,
        sequences: &[Sequence],
        chunk_size: usize,
    ) -> FetchedAcks;

    /// A short name for reports and debugging.
    fn kind(&self) -> &'static str;
}

/// Shared body of the chunked fetchers: one `pull_*` query per
/// `chunk_size` sequences. `overlap: false` issues each chunk only after the
/// previous response arrived (Hermes' sequential behaviour); `overlap: true`
/// issues every chunk at the stage start, so the single-server RPC queue
/// still serializes service times but queueing overlaps the network round
/// trips instead of adding to them.
#[allow(clippy::too_many_arguments)]
fn chunked_packet_fetch(
    rpc: &mut RpcEndpoint,
    start: SimTime,
    height: u64,
    port: &PortId,
    channel: &ChannelId,
    sequences: &[Sequence],
    chunk_size: usize,
    overlap: bool,
) -> FetchedPackets {
    let mut issue_at = start;
    let mut done_at = start;
    let mut proofs = BTreeMap::new();
    let mut pull_times = Vec::with_capacity(sequences.len());
    for chunk in sequences.chunks(chunk_size.max(1)) {
        let pull = rpc.pull_packet_data(issue_at, height, port, channel, chunk);
        for (packet, proof) in pull.value {
            proofs.insert(packet.sequence.value(), proof);
        }
        for seq in chunk {
            pull_times.push((*seq, pull.ready_at));
        }
        done_at = done_at.max(pull.ready_at);
        if !overlap {
            issue_at = pull.ready_at;
        }
    }
    FetchedPackets {
        proofs,
        pull_times,
        done_at,
    }
}

/// The acknowledgement-side twin of `chunked_packet_fetch`.
#[allow(clippy::too_many_arguments)]
fn chunked_ack_fetch(
    rpc: &mut RpcEndpoint,
    start: SimTime,
    height: u64,
    port: &PortId,
    channel: &ChannelId,
    sequences: &[Sequence],
    chunk_size: usize,
    overlap: bool,
) -> FetchedAcks {
    let mut issue_at = start;
    let mut done_at = start;
    let mut acks = BTreeMap::new();
    let mut pull_times = Vec::with_capacity(sequences.len());
    for chunk in sequences.chunks(chunk_size.max(1)) {
        let pull = rpc.pull_ack_data(issue_at, height, port, channel, chunk);
        for (seq, ack, proof) in pull.value {
            acks.insert(seq.value(), (ack, proof));
        }
        for seq in chunk {
            pull_times.push((*seq, pull.ready_at));
        }
        done_at = done_at.max(pull.ready_at);
        if !overlap {
            issue_at = pull.ready_at;
        }
    }
    FetchedAcks {
        acks,
        pull_times,
        done_at,
    }
}

/// Hermes' behaviour: one chunked query per source transaction, each issued
/// only after the previous response arrived, each paying the full per-block
/// scan cost.
#[derive(Debug, Default)]
pub struct SequentialFetcher;

impl DataFetcher for SequentialFetcher {
    fn fetch_packet_data(
        &self,
        rpc: &mut RpcEndpoint,
        start: SimTime,
        height: u64,
        port: &PortId,
        channel: &ChannelId,
        sequences: &[Sequence],
        chunk_size: usize,
    ) -> FetchedPackets {
        chunked_packet_fetch(
            rpc, start, height, port, channel, sequences, chunk_size, false,
        )
    }

    fn fetch_ack_data(
        &self,
        rpc: &mut RpcEndpoint,
        start: SimTime,
        height: u64,
        port: &PortId,
        channel: &ChannelId,
        sequences: &[Sequence],
        chunk_size: usize,
    ) -> FetchedAcks {
        chunked_ack_fetch(
            rpc, start, height, port, channel, sequences, chunk_size, false,
        )
    }

    fn kind(&self) -> &'static str {
        "sequential"
    }
}

/// The sequential chunked queries issued concurrently: every chunk's
/// request enters the RPC queue at the stage's start, so the single-server
/// queue still serializes service times but queueing overlaps the network
/// round trips instead of adding to them.
#[derive(Debug, Default)]
pub struct ParallelFetcher;

impl DataFetcher for ParallelFetcher {
    fn fetch_packet_data(
        &self,
        rpc: &mut RpcEndpoint,
        start: SimTime,
        height: u64,
        port: &PortId,
        channel: &ChannelId,
        sequences: &[Sequence],
        chunk_size: usize,
    ) -> FetchedPackets {
        chunked_packet_fetch(
            rpc, start, height, port, channel, sequences, chunk_size, true,
        )
    }

    fn fetch_ack_data(
        &self,
        rpc: &mut RpcEndpoint,
        start: SimTime,
        height: u64,
        port: &PortId,
        channel: &ChannelId,
        sequences: &[Sequence],
        chunk_size: usize,
    ) -> FetchedAcks {
        chunked_ack_fetch(
            rpc, start, height, port, channel, sequences, chunk_size, true,
        )
    }

    fn kind(&self) -> &'static str {
        "parallel"
    }
}

/// One query for the whole batch: the block scan is paid once plus a
/// per-item surcharge (`RpcCostModel::batched_pull_per_item`).
#[derive(Debug, Default)]
pub struct BatchedFetcher;

impl DataFetcher for BatchedFetcher {
    fn fetch_packet_data(
        &self,
        rpc: &mut RpcEndpoint,
        start: SimTime,
        height: u64,
        port: &PortId,
        channel: &ChannelId,
        sequences: &[Sequence],
        _chunk_size: usize,
    ) -> FetchedPackets {
        let pull = rpc.pull_packet_data_batched(start, height, port, channel, sequences);
        let done_at = pull.ready_at;
        let proofs = pull
            .value
            .into_iter()
            .map(|(packet, proof)| (packet.sequence.value(), proof))
            .collect();
        FetchedPackets {
            proofs,
            pull_times: sequences.iter().map(|seq| (*seq, done_at)).collect(),
            done_at,
        }
    }

    fn fetch_ack_data(
        &self,
        rpc: &mut RpcEndpoint,
        start: SimTime,
        height: u64,
        port: &PortId,
        channel: &ChannelId,
        sequences: &[Sequence],
        _chunk_size: usize,
    ) -> FetchedAcks {
        let pull = rpc.pull_ack_data_batched(start, height, port, channel, sequences);
        let done_at = pull.ready_at;
        let acks = pull
            .value
            .into_iter()
            .map(|(seq, ack, proof)| (seq.value(), (ack, proof)))
            .collect();
        FetchedAcks {
            acks,
            pull_times: sequences.iter().map(|seq| (*seq, done_at)).collect(),
            done_at,
        }
    }

    fn kind(&self) -> &'static str {
        "batched"
    }
}

// ---------------------------------------------------------------------------
// Submission policy
// ---------------------------------------------------------------------------

/// Decides, once per source block with pending packets, whether the pending
/// receive batch is relayed now or held for a larger batch.
///
/// The `fig13_adaptive_submission` registry scenario exercises the
/// non-default policy, built from
/// [`RelayerStrategy::adaptive_submission`].
///
/// ```rust
/// use xcc_relayer::stages::{SubmissionPolicy, WindowedSubmission};
///
/// // A two-block window holds the first block's packets for one more block.
/// let mut policy = WindowedSubmission::new(2);
/// assert!(!policy.should_flush(40, 100));
/// assert!(policy.should_flush(80, 100));
/// ```
pub trait SubmissionPolicy {
    /// `pending_msgs` packets are waiting after the current block's events;
    /// return `true` to relay them now.
    fn should_flush(&mut self, pending_msgs: usize, max_msgs_per_tx: usize) -> bool;

    /// A short name for reports and debugging.
    fn kind(&self) -> &'static str;
}

/// Relay every block's packets immediately (the paper's behaviour).
#[derive(Debug, Default)]
pub struct EagerSubmission;

impl SubmissionPolicy for EagerSubmission {
    fn should_flush(&mut self, _pending_msgs: usize, _max_msgs_per_tx: usize) -> bool {
        true
    }

    fn kind(&self) -> &'static str {
        "eager"
    }
}

/// Hold pending packets for a fixed number of source blocks, then relay them
/// as one batch.
#[derive(Debug)]
pub struct WindowedSubmission {
    window_blocks: u64,
    blocks_waited: u64,
}

impl WindowedSubmission {
    /// A policy flushing every `window_blocks` pending source blocks.
    pub fn new(window_blocks: u64) -> Self {
        WindowedSubmission {
            window_blocks: window_blocks.max(1),
            blocks_waited: 0,
        }
    }
}

impl SubmissionPolicy for WindowedSubmission {
    fn should_flush(&mut self, _pending_msgs: usize, _max_msgs_per_tx: usize) -> bool {
        self.blocks_waited += 1;
        if self.blocks_waited >= self.window_blocks {
            self.blocks_waited = 0;
            true
        } else {
            false
        }
    }

    fn kind(&self) -> &'static str {
        "windowed"
    }
}

/// Flush as soon as a full transaction's worth of packets is pending, or
/// when the window expires — batches under load, stays eager when idle.
#[derive(Debug)]
pub struct AdaptiveSubmission {
    max_window_blocks: u64,
    blocks_waited: u64,
}

impl AdaptiveSubmission {
    /// A policy waiting at most `max_window_blocks` pending source blocks.
    pub fn new(max_window_blocks: u64) -> Self {
        AdaptiveSubmission {
            max_window_blocks: max_window_blocks.max(1),
            blocks_waited: 0,
        }
    }
}

impl SubmissionPolicy for AdaptiveSubmission {
    fn should_flush(&mut self, pending_msgs: usize, max_msgs_per_tx: usize) -> bool {
        self.blocks_waited += 1;
        if pending_msgs >= max_msgs_per_tx.max(1) || self.blocks_waited >= self.max_window_blocks {
            self.blocks_waited = 0;
            true
        } else {
            false
        }
    }

    fn kind(&self) -> &'static str {
        "adaptive"
    }
}

// ---------------------------------------------------------------------------
// Coordination policy
// ---------------------------------------------------------------------------

/// Divides the channel's packets between relayer instances.
///
/// The `fig11_coordinated` registry scenario exercises the non-default
/// policies, built from
/// [`RelayerStrategy::coordinated`]
/// and
/// [`RelayerStrategy::leader_lease`].
///
/// ```rust
/// use xcc_ibc::ids::Sequence;
/// use xcc_relayer::stages::{CoordinationPolicy, SequencePartitionCoordination};
///
/// // Exactly one of three instances owns each sequence.
/// let policy = SequencePartitionCoordination;
/// let owners: Vec<usize> = (0..3)
///     .filter(|id| policy.assigned(*id, 3, 7, Sequence::from(11)))
///     .collect();
/// assert_eq!(owners, vec![2]);
/// ```
pub trait CoordinationPolicy {
    /// Whether instance `relayer_id` of `relayer_count` is responsible for
    /// relaying `sequence`, observed at source block `src_height`.
    fn assigned(
        &self,
        relayer_id: usize,
        relayer_count: usize,
        src_height: u64,
        sequence: Sequence,
    ) -> bool;

    /// A short name for reports and debugging.
    fn kind(&self) -> &'static str;
}

/// No coordination: every instance relays everything it observes, and with
/// more than one instance the duplicates are rejected on chain or skipped
/// after the unreceived-packet query (Figs. 9 and 11).
#[derive(Debug, Default)]
pub struct NoCoordination;

impl CoordinationPolicy for NoCoordination {
    fn assigned(&self, _id: usize, _count: usize, _height: u64, _sequence: Sequence) -> bool {
        true
    }

    fn kind(&self) -> &'static str {
        "none"
    }
}

/// Static sequence-range partitioning: packet `s` belongs to instance
/// `s % relayer_count`, eliminating redundant messages entirely.
#[derive(Debug, Default)]
pub struct SequencePartitionCoordination;

impl CoordinationPolicy for SequencePartitionCoordination {
    fn assigned(&self, id: usize, count: usize, _height: u64, sequence: Sequence) -> bool {
        count <= 1 || sequence.value() % count as u64 == id as u64
    }

    fn kind(&self) -> &'static str {
        "sequence-partition"
    }
}

/// Rotating leadership: for each `lease_blocks`-long window of source
/// heights exactly one instance relays every packet.
#[derive(Debug)]
pub struct LeaderLeaseCoordination {
    lease_blocks: u64,
}

impl LeaderLeaseCoordination {
    /// A lease rotation every `lease_blocks` source blocks.
    pub fn new(lease_blocks: u64) -> Self {
        LeaderLeaseCoordination {
            lease_blocks: lease_blocks.max(1),
        }
    }
}

impl CoordinationPolicy for LeaderLeaseCoordination {
    fn assigned(&self, id: usize, count: usize, height: u64, _sequence: Sequence) -> bool {
        count <= 1 || (height / self.lease_blocks) % count as u64 == id as u64
    }

    fn kind(&self) -> &'static str {
        "leader-lease"
    }
}

// ---------------------------------------------------------------------------
// Channel scheduler
// ---------------------------------------------------------------------------

/// Divides a relayer instance's attention between the channels of a
/// multi-channel deployment: which channels this instance serves at all, and
/// in which order their pending batches are flushed on the shared packet
/// worker.
///
/// Built from the [`ChannelPolicy`] arm of
/// [`RelayerStrategy`]; the
/// `multi_channel_scaling` and `channel_contention` registry scenarios
/// exercise the non-default policies (see
/// [`RelayerStrategy::with_channel_policy`]).
///
/// ```rust
/// use xcc_relayer::stages::{ChannelScheduler, DedicatedScheduler, FairShareScheduler};
///
/// // Fair share rotates the flush order with the block height...
/// let fair = FairShareScheduler;
/// assert_eq!(fair.flush_order(10, 3), vec![1, 2, 0]);
/// // ...while a dedicated deployment pins channel 2 to instance 0 of 2.
/// let dedicated = DedicatedScheduler;
/// assert!(dedicated.serves(0, 2, 2));
/// assert!(!dedicated.serves(1, 2, 2));
/// ```
pub trait ChannelScheduler {
    /// Whether instance `relayer_id` of `relayer_count` serves the channel
    /// at `channel_index` at all.
    fn serves(&self, relayer_id: usize, relayer_count: usize, channel_index: usize) -> bool;

    /// The order in which this instance flushes the deployment's
    /// `channel_count` channels for the block at `height` (unserved channels
    /// are filtered by the caller via [`serves`](ChannelScheduler::serves)).
    fn flush_order(&self, height: u64, channel_count: usize) -> Vec<usize>;

    /// A short name for reports and debugging.
    fn kind(&self) -> &'static str;
}

/// Every instance serves every channel; the flush order rotates with the
/// block height so no channel is systematically relayed last.
#[derive(Debug, Default)]
pub struct FairShareScheduler;

impl ChannelScheduler for FairShareScheduler {
    fn serves(&self, _id: usize, _count: usize, _channel: usize) -> bool {
        true
    }

    fn flush_order(&self, height: u64, channel_count: usize) -> Vec<usize> {
        let n = channel_count.max(1);
        let start = (height % n as u64) as usize;
        (0..n).map(|i| (start + i) % n).collect()
    }

    fn kind(&self) -> &'static str {
        "fair-share"
    }
}

/// Every instance serves every channel in fixed index order: channel 0's
/// batch always goes out first, lower-priority channels queue behind it.
#[derive(Debug, Default)]
pub struct PriorityScheduler;

impl ChannelScheduler for PriorityScheduler {
    fn serves(&self, _id: usize, _count: usize, _channel: usize) -> bool {
        true
    }

    fn flush_order(&self, _height: u64, channel_count: usize) -> Vec<usize> {
        (0..channel_count.max(1)).collect()
    }

    fn kind(&self) -> &'static str {
        "priority"
    }
}

/// One relayer instance per channel: instance `channel_index %
/// relayer_count` serves the channel, every other instance ignores it.
#[derive(Debug, Default)]
pub struct DedicatedScheduler;

impl ChannelScheduler for DedicatedScheduler {
    fn serves(&self, id: usize, count: usize, channel: usize) -> bool {
        count <= 1 || channel % count == id
    }

    fn flush_order(&self, _height: u64, channel_count: usize) -> Vec<usize> {
        (0..channel_count.max(1)).collect()
    }

    fn kind(&self) -> &'static str {
        "dedicated"
    }
}

// ---------------------------------------------------------------------------
// Stage bundle
// ---------------------------------------------------------------------------

/// The built pipeline: one stage object per decision, owned by one relayer
/// instance.
pub struct Stages {
    /// Event delivery from the source chain.
    pub src_events: Box<dyn EventSource>,
    /// Event delivery from the destination chain.
    pub dst_events: Box<dyn EventSource>,
    /// Packet data / proof retrieval (both directions).
    pub fetcher: Box<dyn DataFetcher>,
    /// Receive-path submission batching.
    pub submission: Box<dyn SubmissionPolicy>,
    /// Work division between instances.
    pub coordination: Box<dyn CoordinationPolicy>,
    /// Channel scheduling across a multi-channel deployment.
    pub scheduler: Box<dyn ChannelScheduler>,
}

impl std::fmt::Debug for Stages {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stages")
            .field("src_events", &self.src_events.kind())
            .field("dst_events", &self.dst_events.kind())
            .field("fetcher", &self.fetcher.kind())
            .field("submission", &self.submission.kind())
            .field("coordination", &self.coordination.kind())
            .field("scheduler", &self.scheduler.kind())
            .finish()
    }
}

impl RelayerStrategy {
    fn event_source(&self) -> Box<dyn EventSource> {
        match self.event_source {
            EventSourceKind::WebSocket => match self.ws_frame_limit_bytes {
                0 => Box::new(WebSocketEventSource::default()),
                limit => Box::new(WebSocketEventSource::with_frame_limit(limit as usize)),
            },
            EventSourceKind::Polling => Box::new(PollingEventSource),
        }
    }

    /// Instantiates the stage objects this strategy describes.
    pub fn build(&self) -> Stages {
        let fetcher: Box<dyn DataFetcher> = match self.fetcher {
            FetchStrategy::Sequential => Box::new(SequentialFetcher),
            FetchStrategy::Batched => Box::new(BatchedFetcher),
            FetchStrategy::Parallel => Box::new(ParallelFetcher),
        };
        let submission: Box<dyn SubmissionPolicy> = match self.submission {
            SubmissionMode::Eager => Box::new(EagerSubmission),
            SubmissionMode::Windowed { blocks } => Box::new(WindowedSubmission::new(blocks)),
            SubmissionMode::Adaptive { max_window_blocks } => {
                Box::new(AdaptiveSubmission::new(max_window_blocks))
            }
        };
        let coordination: Box<dyn CoordinationPolicy> = match self.coordination {
            CoordinationMode::None => Box::new(NoCoordination),
            CoordinationMode::SequencePartition => Box::new(SequencePartitionCoordination),
            CoordinationMode::LeaderLease { lease_blocks } => {
                Box::new(LeaderLeaseCoordination::new(lease_blocks))
            }
        };
        let scheduler: Box<dyn ChannelScheduler> = match self.channel_policy {
            ChannelPolicy::FairShare => Box::new(FairShareScheduler),
            ChannelPolicy::Priority => Box::new(PriorityScheduler),
            ChannelPolicy::Dedicated => Box::new(DedicatedScheduler),
        };
        Stages {
            src_events: self.event_source(),
            dst_events: self.event_source(),
            fetcher,
            submission,
            coordination,
            scheduler,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_matches_the_strategy_choices() {
        let default = RelayerStrategy::default().build();
        assert_eq!(default.src_events.kind(), "websocket");
        assert_eq!(default.fetcher.kind(), "sequential");
        assert_eq!(default.submission.kind(), "eager");
        assert_eq!(default.coordination.kind(), "none");
        assert_eq!(default.scheduler.kind(), "fair-share");

        let tuned = RelayerStrategy {
            event_source: crate::strategy::EventSourceKind::Polling,
            fetcher: FetchStrategy::Parallel,
            submission: SubmissionMode::Windowed { blocks: 3 },
            coordination: CoordinationMode::LeaderLease { lease_blocks: 5 },
            channel_policy: ChannelPolicy::Dedicated,
            ..RelayerStrategy::default()
        }
        .build();
        assert_eq!(tuned.src_events.kind(), "polling");
        assert_eq!(tuned.fetcher.kind(), "parallel");
        assert_eq!(tuned.submission.kind(), "windowed");
        assert_eq!(tuned.coordination.kind(), "leader-lease");
        assert_eq!(tuned.scheduler.kind(), "dedicated");
        assert!(format!("{tuned:?}").contains("parallel"));
    }

    #[test]
    fn schedulers_rotate_prioritize_and_dedicate() {
        let fair = FairShareScheduler;
        assert_eq!(fair.flush_order(0, 3), vec![0, 1, 2]);
        assert_eq!(fair.flush_order(1, 3), vec![1, 2, 0]);
        assert_eq!(fair.flush_order(5, 3), vec![2, 0, 1]);
        assert!(fair.serves(1, 2, 0));

        let priority = PriorityScheduler;
        for height in [0u64, 3, 17] {
            assert_eq!(priority.flush_order(height, 3), vec![0, 1, 2]);
        }
        assert!(priority.serves(1, 2, 0));

        let dedicated = DedicatedScheduler;
        // Exactly one of N instances owns each channel.
        for channel in 0..4usize {
            let owners = (0..2)
                .filter(|id| dedicated.serves(*id, 2, channel))
                .count();
            assert_eq!(owners, 1);
        }
        // Single-instance deployments serve everything.
        assert!(dedicated.serves(0, 1, 3));
        // Single-channel deployments reduce every policy to the same plan.
        for scheduler in [&fair as &dyn ChannelScheduler, &priority, &dedicated] {
            assert_eq!(scheduler.flush_order(9, 1), vec![0]);
        }
    }

    #[test]
    fn frame_limit_knob_configures_the_event_source() {
        let mut rpc = {
            use xcc_chain::chain::Chain;
            use xcc_chain::coin::Coin;
            use xcc_chain::genesis::GenesisConfig;
            use xcc_chain::msg::Msg;
            use xcc_chain::tx::Tx;
            use xcc_rpc::cost::RpcCostModel;
            use xcc_sim::{DetRng, LatencyModel};
            let chain = Chain::new(GenesisConfig::new("chain-a").with_funded_accounts(
                "user",
                2,
                100_000_000,
            ))
            .into_shared();
            {
                let mut c = chain.borrow_mut();
                let tx = Tx::new(
                    "user-0".into(),
                    0,
                    vec![Msg::BankSend {
                        from: "user-0".into(),
                        to: "user-1".into(),
                        amount: Coin::new("uatom", 1),
                    }],
                    "uatom",
                );
                c.submit_tx(&tx, SimTime::ZERO).unwrap();
                c.produce_block(SimTime::from_secs(5));
            }
            RpcEndpoint::new(
                chain,
                RpcCostModel::default(),
                LatencyModel::Zero,
                DetRng::new(1),
            )
        };
        // A one-byte limit must fail collection where the default succeeds.
        let mut tiny = RelayerStrategy::default().frame_limit(1).build();
        let (_, result) =
            tiny.src_events
                .collect(&mut rpc, 1, SimTime::from_secs(5), SimDuration::ZERO);
        assert!(result.unwrap_err().contains("Failed to collect events"));
        let mut default = RelayerStrategy::default().build();
        let (_, result) =
            default
                .src_events
                .collect(&mut rpc, 1, SimTime::from_secs(5), SimDuration::ZERO);
        assert!(result.is_ok());
    }

    #[test]
    fn eager_always_flushes_and_windowed_counts_blocks() {
        let mut eager = EagerSubmission;
        assert!(eager.should_flush(1, 100));
        assert!(eager.should_flush(0, 100));

        let mut windowed = WindowedSubmission::new(3);
        assert!(!windowed.should_flush(10, 100));
        assert!(!windowed.should_flush(20, 100));
        assert!(windowed.should_flush(30, 100));
        // The counter restarts after a flush.
        assert!(!windowed.should_flush(10, 100));
    }

    #[test]
    fn adaptive_flushes_on_full_tx_or_window_expiry() {
        let mut adaptive = AdaptiveSubmission::new(4);
        assert!(adaptive.should_flush(100, 100), "full tx flushes at once");
        assert!(!adaptive.should_flush(10, 100));
        assert!(!adaptive.should_flush(20, 100));
        assert!(!adaptive.should_flush(30, 100));
        assert!(adaptive.should_flush(30, 100), "window expiry flushes");
    }

    #[test]
    fn partition_and_lease_assign_exactly_one_instance() {
        let partition = SequencePartitionCoordination;
        let lease = LeaderLeaseCoordination::new(4);
        for height in [1u64, 7, 9] {
            for seq in 1u64..=20 {
                let seq = Sequence::from(seq);
                let partition_owners = (0..3)
                    .filter(|id| partition.assigned(*id, 3, height, seq))
                    .count();
                let lease_owners = (0..3)
                    .filter(|id| lease.assigned(*id, 3, height, seq))
                    .count();
                assert_eq!(partition_owners, 1);
                assert_eq!(lease_owners, 1);
            }
        }
        // Single-instance deployments always own everything.
        assert!(partition.assigned(0, 1, 1, Sequence::from(9)));
        assert!(lease.assigned(0, 1, 1, Sequence::from(9)));
        // Leases rotate with height.
        assert!(lease.assigned(0, 2, 0, Sequence::from(1)));
        assert!(lease.assigned(1, 2, 4, Sequence::from(1)));
    }

    #[test]
    fn no_coordination_assigns_everyone() {
        let none = NoCoordination;
        assert!(none.assigned(0, 2, 1, Sequence::from(1)));
        assert!(none.assigned(1, 2, 1, Sequence::from(1)));
    }
}
