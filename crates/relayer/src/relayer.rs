//! The relayer instance: a thin driver over the strategy's pipeline stages.
//!
//! The architecture mirrors Fig. 4 of the paper: a supervisor subscribed to
//! both chains' event streams hands each new block to the packet worker for
//! the affected channel direction; the worker pulls packet data and proofs
//! from the source chain's RPC endpoint, builds batched transactions of at
//! most 100 messages, and submits them through the chain endpoint, tracking
//! its own account sequence. Every step is timestamped into the telemetry
//! log.
//!
//! A relayer is a **simulated process**: the experiment runner never calls
//! pipeline code directly. Block commits only *notify* a process
//! ([`Relayer::notify_source_block`] / [`Relayer::notify_dest_block`], both
//! O(1) inbox pushes), and the process performs its work when the runner
//! delivers its next `RelayerWake` event through [`Relayer::wake`]. Each
//! process owns its two RPC endpoints — one lane per chain, each with its
//! own FIFO queue and backlog accounting — so RPC serialization is strictly
//! per-process: a fleet of dedicated per-channel processes pulls data
//! concurrently in virtual time where a single process serializes the same
//! work on one lane pair ([`Relayer::lane_stats`] exposes the accounting).
//!
//! Where the paper's Hermes hard-codes each of those decisions, this driver
//! asks the arm of the [`RelayerStrategy`](crate::strategy::RelayerStrategy)
//! in the relayer's [`RelayerConfig`], whose behaviour lives in
//! [`crate::stages`]:
//!
//! * [`EventSourceKind`](crate::strategy::EventSourceKind) delivers block
//!   events (WebSocket push vs RPC polling);
//! * [`FetchStrategy`](crate::strategy::FetchStrategy) pulls packet data and
//!   proofs (sequential vs batched vs parallel);
//! * [`SubmissionMode`](crate::strategy::SubmissionMode) decides when
//!   pending packets are relayed (eager vs windowed vs adaptive);
//! * [`CoordinationMode`](crate::strategy::CoordinationMode) divides work
//!   between instances (none vs partition vs leases);
//! * [`ChannelPolicy`](crate::strategy::ChannelPolicy) divides one
//!   instance's attention between the channels it serves (fair-share vs
//!   priority vs dedicated-relayer-per-channel).
//!
//! Unlike the paper's testbed, a relayer serves a *list* of relay paths:
//! per-channel packet and acknowledgement bookkeeping is keyed by the
//! channel's index in that list, and each block's pending batches are
//! flushed channel by channel in the scheduler's order on the shared packet
//! worker. With a single channel and the default strategy the driver issues
//! exactly the same RPC calls at exactly the same simulated instants as the
//! paper's monolithic pipeline — `tests/relayer_strategies.rs` pins this
//! against golden fixtures.
//!
//! When the strategy's `packet_clear_interval` is non-zero the driver also
//! runs Hermes' packet-clear scan: every N blocks it checks chain state for
//! committed-but-unrelayed packets (e.g. those stranded by an oversized
//! WebSocket frame, §V) and relays them even though their events were never
//! delivered.
//!
//! The broadcast path itself is built around one
//! [`crate::sequence::SequenceTracker`] per chain (shared
//! by every channel), whose behaviour across the §V account-sequence race is
//! the strategy's [`SequenceTracking`] arm: the default committed-state
//! resync reproduces the paper's lossy recovery, while the mempool-aware
//! tracker holds a batch whenever the chain's check state straddled a commit
//! under the relayer's in-flight transactions.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use xcc_chain::account::AccountId;
use xcc_chain::msg::Msg;
use xcc_chain::tx::Tx;
use xcc_ibc::events as ibc_events;
use xcc_ibc::height::Height;
use xcc_ibc::ids::{ChainId, ChannelId, ClientId, PortId, Sequence};
use xcc_ibc::packet::Packet;
use xcc_rpc::endpoint::{BlockEventBatch, BroadcastError, LaneStats, RpcEndpoint};
use xcc_rpc::websocket::WebSocketSubscription;
use xcc_sim::{prof, SimDuration, SimTime};
use xcc_tendermint::abci::Event;
use xcc_tendermint::hash::Hash;

use crate::config::{
    RelayerConfig, BUILD_COST_PER_MSG, EVENT_PROCESSING_OVERHEAD, MAX_MSGS_PER_TX,
    PER_INSTANCE_STAGGER,
};
use crate::sequence::SequenceTracker;
use crate::strategy::SequenceTracking;
use crate::telemetry::{TelemetryLog, TransferStep};
use ChainRole::{Destination, Source};

/// One block-commit notification waiting in a relayer process's inbox.
///
/// Delivering a notification is O(1); all pipeline work it implies happens
/// at the process's next [`Relayer::wake`].
///
/// `(chain, committed height, commit instant)`.
type BlockNotice = (ChainRole, u64, SimTime);

/// Which side of the relay path a chain plays for this relayer — and the
/// index of that chain's [`ChainEnd`] in the relayer's per-chain state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChainRole {
    /// The chain transfers originate from.
    Source,
    /// The chain transfers are delivered to.
    Destination,
}

impl ChainRole {
    /// The chain at the other end of the path: the one whose state proves
    /// what a transaction landing on `self` claims.
    fn other(self) -> ChainRole {
        match self {
            Source => Destination,
            Destination => Source,
        }
    }
}

/// The identifiers of one channel the relayer serves.
///
/// A path is keyed by its `(src_chain, dst_chain)` endpoints rather than an
/// implicit A/B orientation, so the same relayer type serves any edge of an
/// N-chain topology graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelayPath {
    /// The chain transfers originate from on this path.
    pub src_chain: ChainId,
    /// The chain transfers are delivered to on this path.
    pub dst_chain: ChainId,
    /// The port on both ends (`transfer` for ICS-20).
    pub port: PortId,
    /// Channel end on the source chain.
    pub src_channel: ChannelId,
    /// Channel end on the destination chain.
    pub dst_channel: ChannelId,
    /// The client hosted on the destination chain that tracks the source.
    pub client_on_dst: ClientId,
    /// The client hosted on the source chain that tracks the destination.
    pub client_on_src: ClientId,
}

impl RelayPath {
    /// The client hosted on the `host` end of this path (tracking the other
    /// end).
    fn client_on(&self, host: ChainRole) -> &ClientId {
        match host {
            Source => &self.client_on_src,
            Destination => &self.client_on_dst,
        }
    }
}

/// Aggregate counters describing one relayer's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelayerStats {
    /// Receive transactions submitted to the destination chain.
    pub recv_txs_submitted: u64,
    /// Acknowledgement transactions submitted to the source chain.
    pub ack_txs_submitted: u64,
    /// Timeout transactions submitted to the source chain.
    pub timeout_txs_submitted: u64,
    /// Packets skipped because the destination already received them
    /// (observed redundancy avoided before broadcast).
    pub packets_skipped_already_relayed: u64,
    /// Packets this instance observed but left to another instance under the
    /// configured coordination policy or channel scheduler.
    pub packets_left_to_peers: u64,
    /// Broadcast *attempts* that failed (sequence mismatches, full
    /// mempools…).
    ///
    /// Counting semantics (pinned by
    /// `relayer::tests::both_failed_attempts_of_one_submission_count_twice`):
    /// this counts failed RPC attempts, not logical submissions — a single
    /// logical submission whose initial attempt and post-resync retry both
    /// fail contributes **two**. The counter therefore reads as "how often
    /// did a broadcast come back rejected", matching what an operator grepping
    /// relayer logs for failed `broadcast_tx_sync` calls would see.
    pub broadcast_failures: u64,
    /// Blocks whose events could not be collected over the WebSocket.
    pub event_collection_failures: u64,
    /// Packets relayed by the packet-clear scan instead of event delivery.
    pub packets_cleared: u64,
}

/// How many missed block heights per chain a restarting relayer replays
/// into its own inbox (most recent first — older gaps are the packet-clear
/// scan's job). Bounds the restart backlog no matter how long the process
/// was down, so a crashed process's memory of the outage is O(1) and its
/// restart work is O(window).
pub const RESTART_REPLAY_WINDOW: u64 = 32;

/// Everything the relayer knows about one of its two chains. The
/// per-direction state is keyed by the chain its transactions land on:
/// receive transactions on the destination end, acknowledgement and timeout
/// transactions on the source end.
struct ChainEnd {
    /// This process's own RPC connection to the chain's full node.
    rpc: RpcEndpoint,
    /// Account-sequence state towards the chain — one tracker per chain,
    /// shared by every channel this instance serves, so the channels of a
    /// multi-channel deployment can never race each other on the relayer's
    /// own account.
    seq: SequenceTracker,
    /// The relayer's fee-paying account on the chain.
    account: AccountId,
    fee_denom: String,
    /// The `NewBlock` event subscription to the chain.
    events: WebSocketSubscription,
    /// When the packet worker submitting to this chain is next free.
    worker_free: SimTime,
    /// Transactions accepted into the chain's mempool but not yet observed
    /// committed, by transaction hash, with the in-flight markers each
    /// carries. A transaction that commits **failed** (§V's
    /// account-sequence race striking at DeliverTx) emits no packet events,
    /// so watching the per-transaction commit result is the only way to
    /// learn that its packets never arrived: on observing a failed commit
    /// the markers are released from `inflight` so the next packet-clear
    /// scan picks the packets up again. Entries leave the list on *any*
    /// commit of their hash, keeping it bounded by the mempool.
    inflight_txs: Vec<(Hash, Vec<(usize, u64)>)>,
    /// Packets whose transaction towards this chain this relayer has
    /// broadcast successfully but not yet observed committed — on the
    /// destination end the receive path's in-flight set, on the source end
    /// the acknowledgement path's — so the clear scan never re-relays a
    /// packet that is merely sitting in the chain's mempool (while packets
    /// whose broadcast was rejected stay eligible for a future clear).
    inflight: BTreeSet<(usize, u64)>,
    /// The newest block the chain committed while this process was crashed,
    /// if any — everything the process needs to rebuild a bounded inbox at
    /// restart.
    missed: Option<u64>,
    /// The highest height of the chain this process has handled, the low
    /// watermark of the restart replay.
    last_processed: u64,
}

impl ChainEnd {
    fn new(config: &RelayerConfig, account: &AccountId, mut rpc: RpcEndpoint) -> Self {
        let seq = SequenceTracker::new(
            config.strategy.sequence_tracking,
            rpc.account_sequence(SimTime::ZERO, account).value,
        );
        let fee_denom = rpc.chain().borrow().app().fee_denom().to_string();
        ChainEnd {
            rpc,
            seq,
            account: account.clone(),
            fee_denom,
            events: config.strategy.subscription(),
            worker_free: SimTime::ZERO,
            inflight_txs: Vec::new(),
            inflight: BTreeSet::new(),
            missed: None,
            last_processed: 0,
        }
    }
}

/// A Hermes-like relayer serving one or more channels between two chains.
pub struct Relayer {
    id: usize,
    config: RelayerConfig,
    paths: Vec<RelayPath>,
    /// Per-chain state, indexed by `ChainRole`.
    ends: [ChainEnd; 2],
    /// Pending source blocks since the last receive flush — the submission
    /// mode's only state (see `SubmissionMode::should_flush`).
    blocks_held: u64,
    telemetry: TelemetryLog,
    stats: RelayerStats,
    /// Packets collected but not yet relayed: `(channel index, (committing
    /// source height, packet))` in arrival order (the submission policy may
    /// hold them across source blocks; data pulls are priced against the
    /// committing block). The packet is one allocation shared with
    /// `pending_delivery`.
    pending_recv: Vec<(usize, (u64, Rc<Packet>))>,
    /// Packets this relayer has seen sent but not yet observed as received,
    /// keyed by `(channel index, sequence)`, kept for timeout detection.
    pending_delivery: BTreeMap<(usize, u64), Rc<Packet>>,
    /// Acknowledgements held back by mempool-aware sequence tracking because
    /// the source chain's check state straddled a commit; merged into the
    /// next destination block's acknowledgement batch.
    deferred_acks: Vec<(usize, Packet)>,
    /// Block-commit notifications not yet processed: the runner (or the
    /// synchronous `on_*_block` wrappers) drains this in FIFO order at the
    /// next [`wake`](Relayer::wake).
    inbox: VecDeque<BlockNotice>,
    /// Whether the process is currently crashed: notifications are absorbed
    /// into the O(1) missed-height slots instead of the inbox, and wakes are
    /// no-ops until [`restart`](Relayer::restart).
    crashed: bool,
}

impl Relayer {
    /// Creates a relayer instance with its own RPC connections to both
    /// chains' full nodes, serving `paths` (one entry per channel, in
    /// deployment channel order), running the strategy in `config`.
    ///
    /// # Panics
    ///
    /// Panics when `paths` is empty — a relayer must serve at least one
    /// channel.
    pub fn with_paths(
        id: usize,
        config: RelayerConfig,
        paths: Vec<RelayPath>,
        src_rpc: RpcEndpoint,
        dst_rpc: RpcEndpoint,
    ) -> Self {
        assert!(!paths.is_empty(), "a relayer serves at least one channel");
        let ends = [
            ChainEnd::new(&config, &config.source_account, src_rpc),
            ChainEnd::new(&config, &config.destination_account, dst_rpc),
        ];
        Relayer {
            id,
            config,
            paths,
            ends,
            blocks_held: 0,
            telemetry: TelemetryLog::new(),
            stats: RelayerStats::default(),
            pending_recv: Vec::new(),
            pending_delivery: BTreeMap::new(),
            deferred_acks: Vec::new(),
            inbox: VecDeque::new(),
            crashed: false,
        }
    }

    /// This relayer's index (0-based).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Every relay path served, in deployment channel order.
    pub fn paths(&self) -> &[RelayPath] {
        &self.paths
    }

    /// The per-step telemetry collected so far.
    pub fn telemetry(&self) -> &TelemetryLog {
        &self.telemetry
    }

    /// Aggregate activity counters.
    pub fn stats(&self) -> &RelayerStats {
        &self.stats
    }

    /// Accounting snapshots of this process's two RPC lanes (source-chain
    /// lane, destination-chain lane). Every process owns its lanes, so the
    /// numbers describe exactly the serialization *this* process
    /// experienced.
    pub fn lane_stats(&self) -> (LaneStats, LaneStats) {
        let [src, dst] = &self.ends;
        (src.rpc.lane_stats(), dst.rpc.lane_stats())
    }

    /// The channel this process is pinned to, if the deployment dedicated it
    /// to one (see `RelayerConfig::channel_assignment`).
    pub fn channel_assignment(&self) -> Option<usize> {
        self.config.channel_assignment
    }

    /// The relayer-side share of the event delivery delay: fixed processing
    /// overhead plus the per-instance stagger modelling independently
    /// scheduled relayer processes. The stagger indexes by the process's
    /// replica id within its coordination group (like
    /// [`assigned`](Relayer::assigned)), so a dedicated fleet's per-channel
    /// replica group sees exactly the staggers a same-sized shared
    /// deployment would — fleet position across channels never skews event
    /// delivery.
    fn relayer_delay(&self) -> SimDuration {
        let replica = self.config.coordination_id.unwrap_or(self.id);
        EVENT_PROCESSING_OVERHEAD + PER_INSTANCE_STAGGER * replica as u64
    }

    /// Whether this instance relays `sequence` under the coordination
    /// policy. A dedicated-fleet process coordinates under its replica id
    /// within the channel's replica group (`config.coordination_id`), not
    /// its global process id.
    fn assigned(&self, src_height: u64, sequence: Sequence) -> bool {
        self.config.strategy.coordination.assigned(
            self.config.coordination_id.unwrap_or(self.id),
            self.config.instances.max(1),
            src_height,
            sequence,
        )
    }

    /// Whether this instance serves the channel at `channel` at all: a
    /// pinned channel assignment (dedicated fleets) wins, otherwise the
    /// strategy's channel policy decides.
    fn serves_channel(&self, channel: usize) -> bool {
        if let Some(assigned) = self.config.channel_assignment {
            return channel == assigned;
        }
        self.config
            .strategy
            .channel_policy
            .serves(self.id, self.config.instances.max(1), channel)
    }

    /// The channels this instance flushes for the block at `height`, in
    /// channel-policy order, unserved channels filtered out.
    fn served_flush_order(&self, height: u64) -> Vec<usize> {
        self.config
            .strategy
            .channel_policy
            .flush_order(height, self.paths.len())
            .into_iter()
            .filter(|ch| self.serves_channel(*ch))
            .collect()
    }

    /// The index of the served channel whose **source** end `event` belongs
    /// to, if any.
    fn src_channel_of(&self, event: &Event) -> Option<usize> {
        self.paths
            .iter()
            .position(|p| ibc_events::is_for_channel(event, &p.port, &p.src_channel))
    }

    /// The index of the served channel whose **destination** end `event`
    /// belongs to, if any.
    fn dst_channel_of(&self, event: &Event) -> Option<usize> {
        self.paths
            .iter()
            .position(|p| ibc_events::is_for_channel(event, &p.port, &p.dst_channel))
    }

    /// Whether the packet-clear scan runs at `height`.
    fn clear_due(&self, height: u64) -> bool {
        let interval = self.config.strategy.packet_clear_interval;
        interval > 0 && height.is_multiple_of(interval)
    }

    /// Enqueues a block-commit notification from the chain playing `on`.
    ///
    /// While the process is crashed the notification collapses into the O(1)
    /// missed-height slot instead of the inbox: a long outage can neither
    /// grow the crashed process's memory unboundedly nor be silently
    /// forgotten — [`restart`](Relayer::restart) replays the most recent
    /// [`RESTART_REPLAY_WINDOW`] missed heights from the slot.
    fn notify(&mut self, on: ChainRole, height: u64, committed_at: SimTime) {
        if self.crashed {
            let missed = &mut self.ends[on as usize].missed;
            *missed = Some(missed.unwrap_or(0).max(height));
            return;
        }
        self.inbox.push_back((on, height, committed_at));
    }

    /// Enqueues a source-chain block-commit notification. O(1): all pipeline
    /// work happens at the next [`wake`](Relayer::wake). Crashed processes
    /// absorb it into a missed-height slot that
    /// [`restart`](Relayer::restart) replays.
    pub fn notify_source_block(&mut self, height: u64, committed_at: SimTime) {
        self.notify(Source, height, committed_at);
    }

    /// Enqueues a destination-chain block-commit notification; see
    /// [`notify_source_block`](Relayer::notify_source_block).
    pub fn notify_dest_block(&mut self, height: u64, committed_at: SimTime) {
        self.notify(Destination, height, committed_at);
    }

    /// Runs this relayer process: drains the inbox in FIFO order, performing
    /// the pipeline work each block notification implies on this process's
    /// own virtual-time lane (its per-chain RPC endpoints and worker
    /// watermarks — nothing here touches another process's state).
    ///
    /// Returns the instant at which the process next needs a wake *without*
    /// a block notification, or `None` when every obligation is tied to a
    /// future block commit (the common case: held batches and deferred
    /// acknowledgements can only make progress after the next commit, which
    /// arrives as its own notification). The runner schedules a
    /// `RelayerWake` event for a `Some` return. Wakes are idempotent: waking
    /// with an empty inbox is a no-op, so spurious wakes are harmless.
    pub fn wake(&mut self, _now: SimTime) -> Option<SimTime> {
        if self.crashed {
            // A crashed process does no work; pending wakes fall through
            // harmlessly, like wakes delivered to an empty inbox.
            return None;
        }
        while let Some((on, height, committed_at)) = self.inbox.pop_front() {
            match on {
                Source => self.handle_source_block(height, committed_at),
                Destination => self.handle_dest_block(height, committed_at),
            }
        }
        None
    }

    /// Crashes the process at `now`: every piece of in-memory pipeline state
    /// — pending packet queues, the submission window count, in-flight sets,
    /// deferred acknowledgements, the inbox and both [`SequenceTracker`]
    /// caches — is lost, exactly as for a killed OS process. What survives is
    /// what lives *outside* the process: chain state, and the experiment's
    /// measurement tape (the telemetry log and stats aggregate the process's
    /// lifetime across incarnations, the way a scrape target's history
    /// outlives one process). Until [`restart`](Relayer::restart),
    /// notifications collapse into the missed-height slots and wakes are
    /// no-ops.
    pub fn crash(&mut self, now: SimTime) {
        self.crashed = true;
        self.pending_recv.clear();
        self.blocks_held = 0;
        self.pending_delivery.clear();
        self.deferred_acks.clear();
        self.inbox.clear();
        for end in &mut self.ends {
            end.inflight.clear();
            end.inflight_txs.clear();
            end.missed = None;
        }
        self.telemetry
            .record_error(now, format!("relayer process {} crashed", self.id));
    }

    /// Restarts the crashed process cold at `now`: both account-sequence
    /// trackers are re-seeded from the chains' committed state over this
    /// process's own RPC lanes (the cold-cache resync a real relayer does at
    /// boot), the worker watermarks move to `now`, and the most recent
    /// [`RESTART_REPLAY_WINDOW`] block heights missed on each chain are
    /// replayed into the inbox so the process catches up through its normal
    /// wake path. Gaps older than the window are left to the packet-clear
    /// scan, which reads chain state rather than events. A no-op on a
    /// process that is not crashed.
    pub fn restart(&mut self, now: SimTime) {
        if !self.crashed {
            return;
        }
        self.crashed = false;
        let tracking = self.config.strategy.sequence_tracking;
        for end in &mut self.ends {
            let committed = end.rpc.account_sequence(now, &end.account).value;
            end.seq = SequenceTracker::new(tracking, committed);
            end.worker_free = now;
        }
        self.telemetry
            .record_error(now, format!("relayer process {} restarted", self.id));
        // Bounded replay: the missed slots carry only the newest height per
        // chain, so the backlog is the window, never the outage length.
        for on in [Source, Destination] {
            let end = &mut self.ends[on as usize];
            let Some(newest) = end.missed.take() else {
                continue;
            };
            let from =
                (end.last_processed + 1).max(newest.saturating_sub(RESTART_REPLAY_WINDOW - 1));
            self.inbox
                .extend((from..=newest).map(|height| (on, height, now)));
        }
    }

    /// The head of both block handlers: notes the commit of the block at
    /// `height` on the chain playing `on`, then collects the block's events.
    /// Returns the instant the events reach the packet worker and the batch
    /// — `None` when collection failed, which is counted and logged here.
    fn collect_block(
        &mut self,
        on: ChainRole,
        height: u64,
        commit_time: SimTime,
    ) -> (SimTime, Option<BlockEventBatch>) {
        let delay = self.relayer_delay();
        let end = &mut self.ends[on as usize];
        end.last_processed = end.last_processed.max(height);
        // The commit may have reset the chain's check state under our
        // in-flight window; a mempool-aware tracker reconciles before the
        // next broadcast towards that chain.
        end.seq.note_commit();
        let (event_time, collected) = self.config.strategy.event_source.collect_events(
            &mut end.events,
            &mut end.rpc,
            height,
            commit_time,
            delay,
        );
        match collected {
            Ok(batch) => (event_time, Some(batch)),
            Err(message) => {
                self.stats.event_collection_failures += 1;
                self.telemetry.record_error(event_time, message);
                (event_time, None)
            }
        }
    }

    /// Handles a newly committed block on the **source** chain: extracts
    /// send-packet events, pulls packet data and proofs, and submits receive
    /// transactions to the destination chain. Also records acknowledgement
    /// confirmations observed in the block, and — when the strategy's clear
    /// interval is due — scans chain state for packets whose events were
    /// never delivered.
    fn handle_source_block(&mut self, height: u64, commit_time: SimTime) {
        let (event_time, batch) = self.collect_block(Source, height, commit_time);
        if let Some(batch) = batch {
            self.process_source_events(height, commit_time, event_time, &batch);
        }
        if self.clear_due(height) {
            self.clear_unrelayed_recvs(height, event_time);
        }
    }

    fn process_source_events(
        &mut self,
        height: u64,
        commit_time: SimTime,
        event_time: SimTime,
        batch: &BlockEventBatch,
    ) {
        for (hash, code, events) in batch.txs() {
            self.note_committed_tx(Source, &hash, code, event_time);
            if code != 0 {
                continue;
            }
            for event in events {
                let Some(channel) = self.src_channel_of(event) else {
                    continue;
                };
                match event.kind {
                    ibc_events::SEND_PACKET => {
                        if let Some(packet) = ibc_events::packet_from_event(event) {
                            if !self.serves_channel(channel) {
                                self.stats.packets_left_to_peers += 1;
                                continue;
                            }
                            self.telemetry.record_on(
                                channel as u64,
                                packet.sequence,
                                TransferStep::TransferMsgExtraction,
                                event_time,
                            );
                            self.telemetry.record_on(
                                channel as u64,
                                packet.sequence,
                                TransferStep::TransferConfirmation,
                                event_time,
                            );
                            if self.assigned(height, packet.sequence) {
                                // One allocation: timeout watch + relay queue.
                                let packet = Rc::new(packet);
                                self.pending_delivery
                                    .insert((channel, packet.sequence.value()), Rc::clone(&packet));
                                self.pending_recv.push((channel, (height, packet)));
                            } else {
                                self.stats.packets_left_to_peers += 1;
                            }
                        }
                    }
                    ibc_events::ACK_PACKET => {
                        if let Some(sequence) = ibc_events::packet_sequence(event) {
                            if !self.serves_channel(channel) {
                                continue;
                            }
                            self.telemetry.record_on(
                                channel as u64,
                                sequence,
                                TransferStep::AckMsgExtraction,
                                commit_time,
                            );
                            self.telemetry.record_on(
                                channel as u64,
                                sequence,
                                TransferStep::AckConfirmation,
                                commit_time,
                            );
                            // The acknowledgement is committed: the packet's
                            // life cycle is over on every in-flight set.
                            let marker = (channel, sequence.value());
                            for end in &mut self.ends {
                                end.inflight.remove(&marker);
                            }
                            self.pending_delivery.remove(&marker);
                        }
                    }
                    ibc_events::TIMEOUT_PACKET => {
                        if let Some(sequence) = ibc_events::packet_sequence(event) {
                            let marker = (channel, sequence.value());
                            self.pending_delivery.remove(&marker);
                            self.ends[Destination as usize].inflight.remove(&marker);
                        }
                    }
                    _ => {}
                }
            }
        }

        if self.pending_recv.is_empty() {
            return;
        }
        if !self.config.strategy.submission.should_flush(
            &mut self.blocks_held,
            self.pending_recv.len(),
            MAX_MSGS_PER_TX,
        ) {
            return;
        }
        let mut pending = std::mem::take(&mut self.pending_recv);
        for channel in self.served_flush_order(height) {
            let batch = take_channel(&mut pending, channel);
            if !batch.is_empty() {
                self.relay_recv_batch(channel, event_time, batch);
            }
        }
    }

    /// Settles the in-flight transaction list for `on` against one
    /// committed transaction: a tracked transaction leaves the list as soon
    /// as its hash commits, and a **failed** commit (code != 0 — §V's
    /// account-sequence race striking at DeliverTx rather than CheckTx)
    /// additionally releases the packet markers it carried. A failed
    /// transaction emits no packet events, so without this release its
    /// packets would stay marked "in flight" forever and the packet-clear
    /// scan — which deliberately skips in-flight packets — could never
    /// rescue them.
    fn note_committed_tx(&mut self, on: ChainRole, hash: &Hash, code: u32, at: SimTime) {
        let end = &mut self.ends[on as usize];
        let Some(pos) = end.inflight_txs.iter().position(|(h, _)| h == hash) else {
            return;
        };
        let (_, markers) = end.inflight_txs.remove(pos);
        if code == 0 {
            return;
        }
        for marker in &markers {
            end.inflight.remove(marker);
        }
        let kind = match on {
            Source => "acknowledgement",
            Destination => "receive",
        };
        self.telemetry.record_error(
            at,
            format!(
                "{kind} tx committed with code {code}: released {} in-flight packet \
                 markers to the clear scan",
                markers.len()
            ),
        );
    }

    /// Handles a newly committed block on the **destination** chain: records
    /// receive confirmations, pulls acknowledgement data, submits
    /// acknowledgement transactions back to the source chain, and submits
    /// timeouts for expired undelivered packets.
    fn handle_dest_block(&mut self, height: u64, commit_time: SimTime) {
        let (event_time, delivered) = self.collect_block(Destination, height, commit_time);
        let mut acked_packets: Vec<(usize, Packet)> = Vec::new();
        for (hash, code, events) in delivered.iter().flat_map(BlockEventBatch::txs) {
            self.note_committed_tx(Destination, &hash, code, event_time);
            if code != 0 {
                continue;
            }
            for event in events {
                let Some(channel) = self.dst_channel_of(event) else {
                    continue;
                };
                if event.kind != ibc_events::WRITE_ACK || !self.serves_channel(channel) {
                    continue;
                }
                if let Some(packet) = ibc_events::packet_from_event(event) {
                    self.telemetry.record_on(
                        channel as u64,
                        packet.sequence,
                        TransferStep::RecvMsgExtraction,
                        event_time,
                    );
                    self.telemetry.record_on(
                        channel as u64,
                        packet.sequence,
                        TransferStep::RecvConfirmation,
                        event_time,
                    );
                    let marker = (channel, packet.sequence.value());
                    self.pending_delivery.remove(&marker);
                    self.ends[Destination as usize].inflight.remove(&marker);
                    // The packet was already counted towards
                    // `packets_left_to_peers` on the source side if it
                    // belongs to another instance; here the assignment
                    // only routes the acknowledgement work.
                    if self.assigned(height, packet.sequence) {
                        acked_packets.push((channel, packet));
                    }
                }
            }
        }

        // A failed event collection leaves the supervisor without a block to
        // hand to the packet workers: neither acknowledgements nor timeouts
        // are relayed for it, exactly like the pre-knob pipeline (§V's
        // "neither relayed nor timed out"). Only the clear scan — which
        // reads chain state, not events — still runs.
        if delivered.is_some() {
            // Acknowledgements held back by a straddled source commit ride
            // along with this block's batch (mempool-aware tracking only;
            // the vector is always empty otherwise).
            if !self.deferred_acks.is_empty() {
                let mut held = std::mem::take(&mut self.deferred_acks);
                held.append(&mut acked_packets);
                acked_packets = held;
            }
            let dest_height = height;
            let dest_time = commit_time;
            for channel in self.served_flush_order(height) {
                let batch = take_channel(&mut acked_packets, channel);
                if !batch.is_empty() {
                    self.relay_ack_batch(channel, dest_height, event_time, batch);
                }
                self.relay_timeouts(channel, dest_height, dest_time, event_time);
            }
        }
        if self.clear_due(height) {
            self.clear_unrelayed_acks(height, event_time);
        }
    }

    /// Filters out packets the destination already received, then pulls
    /// data, builds and broadcasts `MsgRecvPacket` batches for one channel.
    fn relay_recv_batch(
        &mut self,
        channel: usize,
        event_time: SimTime,
        mut packets: Vec<(u64, Rc<Packet>)>,
    ) {
        let path = self.paths[channel].clone();
        let dst = &mut self.ends[Destination as usize];
        let mut t = event_time.max(dst.worker_free);

        // Skip packets the destination has already received (another relayer
        // beat us to them).
        let sequences: Vec<Sequence> = packets.iter().map(|(_, p)| p.sequence).collect();
        let unreceived_resp =
            dst.rpc
                .unreceived_packets(t, &path.port, &path.dst_channel, &sequences);
        t = unreceived_resp.ready_at;
        let unreceived: BTreeSet<Sequence> = unreceived_resp.value.into_iter().collect();
        let queued = packets.len();
        packets.retain(|(_, p)| unreceived.contains(&p.sequence));
        let skipped = queued - packets.len();
        if skipped > 0 {
            self.stats.packets_skipped_already_relayed += skipped as u64;
            self.telemetry.record_error(
                t,
                format!("skipping {skipped} packets: packet messages are redundant"),
            );
        }
        if packets.is_empty() {
            self.ends[Destination as usize].worker_free = t;
            return;
        }
        self.deliver_recv_batch(channel, t, packets);
    }

    /// The shared delivery tail of the receive path: pulls packet data and
    /// proofs, updates the destination-side client and broadcasts the
    /// `MsgRecvPacket` chunks. `packets` must already be filtered to those
    /// the destination has not received. Returns the number of packets whose
    /// receive transaction was accepted into the destination mempool.
    fn deliver_recv_batch(
        &mut self,
        channel: usize,
        start: SimTime,
        packets: Vec<(u64, Rc<Packet>)>,
    ) -> u64 {
        // Mempool-aware sequence tracking: when the destination's check
        // state straddled a commit under our in-flight window, hold the
        // batch — it rejoins the pending queue and flushes after the window
        // drains, instead of burning on a duplicate sequence.
        let (t_ready, ready) = self.ensure_sequence_ready(Destination, start);
        if !ready {
            self.pending_recv
                .extend(packets.into_iter().map(|held| (channel, held)));
            self.ends[Destination as usize].worker_free = t_ready;
            return 0;
        }
        let path = self.paths[channel].clone();
        let mut t = t_ready;

        // Data pull through the configured fetch strategy, one fetch per
        // origin block so every packet's pull is priced against the block
        // that committed it (with eager submission there is exactly one
        // group: the block just handled).
        let mut proofs = BTreeMap::new();
        for group in packets.chunk_by(|(a, _), (b, _)| a == b) {
            let group_seqs: Vec<Sequence> = group.iter().map(|(_, p)| p.sequence).collect();
            let fetch = self.config.strategy.fetcher.fetch_packet_data(
                &mut self.ends[Source as usize].rpc,
                t,
                group[0].0,
                &path.port,
                &path.src_channel,
                &group_seqs,
                MAX_MSGS_PER_TX,
            );
            for (seq, at) in &fetch.pull_times {
                self.telemetry
                    .record_on(channel as u64, *seq, TransferStep::TransferDataPull, *at);
            }
            t = fetch.done_at;
            proofs.extend(fetch.items);
        }

        // The one copy a relayed packet costs: the message owns its packet,
        // and the timeout watch still holds the other handle.
        let packets = packets
            .into_iter()
            .map(|(_, p)| Rc::unwrap_or_clone(p))
            .collect();
        self.submit_batch(
            Destination,
            channel,
            t,
            packets,
            |packet, proof_height, signer| {
                Some(Msg::IbcRecvPacket {
                    proof_commitment: proofs.remove(&packet.sequence.value())?,
                    packet,
                    proof_height,
                    signer: signer.clone(),
                })
            },
        )
    }

    /// Pulls acknowledgement data, builds and broadcasts `MsgAcknowledgement`
    /// batches back to the source chain for one channel. Returns the number
    /// of acknowledgements accepted into the source mempool.
    fn relay_ack_batch(
        &mut self,
        channel: usize,
        dst_height: u64,
        event_time: SimTime,
        mut acked: Vec<Packet>,
    ) -> u64 {
        // Mempool-aware sequence tracking: a straddled source commit defers
        // the acknowledgements to the next destination block's batch.
        let start = event_time.max(self.ends[Source as usize].worker_free);
        let (t_ready, ready) = self.ensure_sequence_ready(Source, start);
        if !ready {
            self.deferred_acks
                .extend(acked.into_iter().map(|p| (channel, p)));
            self.ends[Source as usize].worker_free = t_ready;
            return 0;
        }
        let path = self.paths[channel].clone();
        let mut t = t_ready;

        // Skip acknowledgements whose commitments are already cleared on the
        // source chain (another relayer acknowledged them first).
        let sequences: Vec<Sequence> = acked.iter().map(|p| p.sequence).collect();
        let unacked_resp = self.ends[Source as usize].rpc.unacknowledged_packets(
            t,
            &path.port,
            &path.src_channel,
            &sequences,
        );
        t = unacked_resp.ready_at;
        let unacked: BTreeSet<Sequence> = unacked_resp.value.into_iter().collect();
        let held = acked.len();
        acked.retain(|p| unacked.contains(&p.sequence));
        let skipped = held - acked.len();
        if skipped > 0 {
            self.stats.packets_skipped_already_relayed += skipped as u64;
            self.telemetry.record_error(
                t,
                format!("skipping {skipped} acknowledgements: packet messages are redundant"),
            );
        }
        if acked.is_empty() {
            self.ends[Source as usize].worker_free = t;
            return 0;
        }

        // Acknowledgement data pull (the dominant cost in Fig. 12), through
        // the configured fetch strategy.
        let relay_seqs: Vec<Sequence> = acked.iter().map(|p| p.sequence).collect();
        let fetch = self.config.strategy.fetcher.fetch_ack_data(
            &mut self.ends[Destination as usize].rpc,
            t,
            dst_height,
            &path.port,
            &path.dst_channel,
            &relay_seqs,
            MAX_MSGS_PER_TX,
        );
        for (seq, at) in &fetch.pull_times {
            self.telemetry
                .record_on(channel as u64, *seq, TransferStep::RecvDataPull, *at);
        }
        let mut ack_proofs = fetch.items;

        self.submit_batch(
            Source,
            channel,
            fetch.done_at,
            acked,
            |packet, proof_height, signer| {
                let (acknowledgement, proof_acked) = ack_proofs.remove(&packet.sequence.value())?;
                Some(Msg::IbcAcknowledgement {
                    packet,
                    acknowledgement,
                    proof_acked,
                    proof_height,
                    signer: signer.clone(),
                })
            },
        )
    }

    /// Brings the client hosted on the `to` end of `channel`'s path up to
    /// date: pulls the update from the proving end at `at` and broadcasts it
    /// to `to` in its own transaction, ahead of the messages it lets the
    /// chain verify. Returns when the broadcast response arrived and the
    /// height proofs verify at — `None`, with nothing broadcast, when the
    /// proving chain has no header to offer.
    fn update_client(
        &mut self,
        to: ChainRole,
        channel: usize,
        at: SimTime,
    ) -> (SimTime, Option<Height>) {
        let update_resp = self.ends[to.other() as usize].rpc.client_update_data(at);
        let Some(update) = update_resp.value else {
            return (update_resp.ready_at, None);
        };
        let proof_height = Height::at(update.header.height);
        let msgs = vec![Msg::IbcUpdateClient {
            client_id: self.paths[channel].client_on(to).clone(),
            update: Box::new(update),
            signer: self.ends[to as usize].account.clone(),
        }];
        let (t, _) = self.broadcast(to, update_resp.ready_at, msgs);
        (t, Some(proof_height))
    }

    /// The shared submit tail of the receive (`to` = destination) and
    /// acknowledgement (`to` = source) paths: updates the client on `to`,
    /// then builds and broadcasts `packets` in chunks of at most
    /// [`MAX_MSGS_PER_TX`] messages, stamping the build and broadcast steps
    /// and marking every accepted chunk in flight. `make_msg` moves one
    /// packet into its message, given `(packet, proof height, signer)`, or
    /// answers `None` for a packet whose data pull found nothing. Returns
    /// the number of packets whose transaction was accepted into `to`'s
    /// mempool.
    fn submit_batch(
        &mut self,
        to: ChainRole,
        channel: usize,
        start: SimTime,
        packets: Vec<Packet>,
        mut make_msg: impl FnMut(Packet, Height, &AccountId) -> Option<Msg>,
    ) -> u64 {
        let (build_step, broadcast_step) = match to {
            Destination => (TransferStep::RecvBuild, TransferStep::RecvBroadcast),
            Source => (TransferStep::AckBuild, TransferStep::AckBroadcast),
        };
        let (mut t, proof_height) = self.update_client(to, channel, start);
        let Some(proof_height) = proof_height else {
            self.ends[to as usize].worker_free = t;
            return 0;
        };

        let mut txs = 0u64;
        let mut accepted = 0u64;
        let mut packets = packets.into_iter();
        while packets.len() > 0 {
            let chunk_len = packets.len().min(MAX_MSGS_PER_TX);
            t += BUILD_COST_PER_MSG * chunk_len as u64;
            let mut msgs = Vec::with_capacity(chunk_len);
            let mut markers = Vec::with_capacity(chunk_len);
            for packet in packets.by_ref().take(chunk_len) {
                let sequence = packet.sequence;
                let signer = &self.ends[to as usize].account;
                let Some(msg) = make_msg(packet, proof_height, signer) else {
                    continue;
                };
                markers.push((channel, sequence.value()));
                self.telemetry
                    .record_on(channel as u64, sequence, build_step, t);
                msgs.push(msg);
            }
            if msgs.is_empty() {
                continue;
            }
            let tx_hash;
            (t, tx_hash) = self.broadcast(to, t, msgs);
            txs += 1;
            for (_, seq) in &markers {
                self.telemetry
                    .record_on(channel as u64, Sequence::from(*seq), broadcast_step, t);
            }
            if let Some(hash) = tx_hash {
                // In flight: the clear scan must not re-relay these until
                // the transaction's commit result is known. A rejected
                // chunk stays eligible for a future clear.
                let end = &mut self.ends[to as usize];
                end.inflight.extend(&markers);
                accepted += markers.len() as u64;
                end.inflight_txs.push((hash, markers));
            }
        }
        match to {
            Destination => self.stats.recv_txs_submitted += txs,
            Source => self.stats.ack_txs_submitted += txs,
        }
        self.ends[to as usize].worker_free = t;
        accepted
    }

    /// Detects packets of one channel that expired before delivery and
    /// submits `MsgTimeout` for them on the source chain.
    fn relay_timeouts(
        &mut self,
        channel: usize,
        dest_height: u64,
        dest_time: SimTime,
        event_time: SimTime,
    ) {
        let path = self.paths[channel].clone();
        let expired: Vec<Rc<Packet>> = self
            .pending_delivery
            .iter()
            .filter(|((ch, _), p)| {
                *ch == channel && p.has_timed_out(Height::at(dest_height), dest_time)
            })
            .map(|(_, p)| Rc::clone(p))
            .collect();
        if expired.is_empty() {
            return;
        }
        // Mempool-aware sequence tracking: expired packets stay in
        // `pending_delivery` and are re-examined next block, so a straddled
        // source commit simply delays the timeout submission.
        let start = event_time.max(self.ends[Source as usize].worker_free);
        let (t_ready, ready) = self.ensure_sequence_ready(Source, start);
        if !ready {
            self.ends[Source as usize].worker_free = t_ready;
            return;
        }
        let mut t = t_ready;
        let mut msgs = Vec::new();
        let mut seqs = Vec::new();
        for packet in expired.iter().take(MAX_MSGS_PER_TX) {
            let proof_resp = self.ends[Destination as usize].rpc.non_receipt_proof(
                t,
                &path.port,
                &path.dst_channel,
                packet.sequence,
            );
            t = proof_resp.ready_at;
            let Some(proof) = proof_resp.value else {
                // Already received on the destination: not a timeout.
                self.pending_delivery
                    .remove(&(channel, packet.sequence.value()));
                continue;
            };
            msgs.push(Msg::IbcTimeout {
                packet: Packet::clone(packet),
                proof_unreceived: proof,
                proof_height: Height::at(dest_height),
                signer: self.ends[Source as usize].account.clone(),
            });
            seqs.push(packet.sequence);
        }
        if msgs.is_empty() {
            self.ends[Source as usize].worker_free = t;
            return;
        }
        // The source-side client needs to know about the destination height
        // proving non-receipt.
        (t, _) = self.update_client(Source, channel, t);
        (t, _) = self.broadcast(Source, t, msgs);
        self.stats.timeout_txs_submitted += 1;
        for seq in seqs {
            self.pending_delivery.remove(&(channel, seq.value()));
        }
        self.ends[Source as usize].worker_free = t;
    }

    /// The receive half of Hermes' packet-clear scan: for every served
    /// channel, finds packets that are committed on the source chain, still
    /// outstanding, assigned to this instance and unknown to the pending
    /// queue — i.e. packets whose send events were never delivered (§V) —
    /// and relays them from chain state.
    fn clear_unrelayed_recvs(&mut self, src_height: u64, start: SimTime) {
        for channel in self.served_flush_order(src_height) {
            let path = self.paths[channel].clone();
            // Chain-state scan: still-committed (unacknowledged, not timed
            // out) packets on the source end. The relayer co-hosts a full
            // node, so the scan itself is local; the cross-node queries
            // below pay RPC cost as usual.
            let candidates: Vec<Sequence> = {
                let chain = self.ends[Source as usize].rpc.chain().borrow();
                let ibc = chain.app().ibc();
                ibc.outstanding_commitments(&path.port, &path.src_channel)
            }
            .into_iter()
            .inspect(|_| prof::bump_clear_scan_visit())
            .filter(|seq| self.assigned(src_height, *seq))
            // Skip packets already in this instance's hands: queued for a
            // later flush, or successfully broadcast and awaiting
            // commitment. Packets whose send events were never observed and
            // packets whose receive broadcast was rejected — the genuinely
            // stranded ones — survive this filter.
            .filter(|seq| {
                !self.ends[Destination as usize]
                    .inflight
                    .contains(&(channel, seq.value()))
                    && !self
                        .pending_recv
                        .iter()
                        .any(|(ch, (_, p))| *ch == channel && p.sequence == *seq)
            })
            .collect();
            if candidates.is_empty() {
                continue;
            }
            // Which of those has the destination not received yet?
            let dst = &mut self.ends[Destination as usize];
            let t = start.max(dst.worker_free);
            let unreceived_resp =
                dst.rpc
                    .unreceived_packets(t, &path.port, &path.dst_channel, &candidates);
            let t = unreceived_resp.ready_at;
            let to_clear: Vec<(u64, Rc<Packet>)> = {
                let chain = self.ends[Source as usize].rpc.chain().borrow();
                let ibc = chain.app().ibc();
                unreceived_resp
                    .value
                    .iter()
                    .filter_map(|seq| ibc.sent_packet(&path.port, &path.src_channel, *seq))
                    .map(|p| (src_height, Rc::new(p.clone())))
                    .collect()
            };
            if to_clear.is_empty() {
                self.ends[Destination as usize].worker_free = t;
                continue;
            }
            self.telemetry.record_error(
                t,
                format!(
                    "clearing {} pending packets on {}",
                    to_clear.len(),
                    path.src_channel
                ),
            );
            for (_, packet) in &to_clear {
                self.pending_delivery
                    .insert((channel, packet.sequence.value()), Rc::clone(packet));
            }
            // Count only what actually entered the destination mempool.
            self.stats.packets_cleared += self.deliver_recv_batch(channel, t, to_clear);
        }
    }

    /// The acknowledgement half of the packet-clear scan: packets received
    /// on the destination whose acknowledgements never made it back (e.g.
    /// because the write-ack events were lost to the frame limit) are
    /// re-acknowledged from chain state.
    fn clear_unrelayed_acks(&mut self, dst_height: u64, start: SimTime) {
        for channel in self.served_flush_order(dst_height) {
            let path = self.paths[channel].clone();
            let candidates: Vec<Sequence> = {
                let src = &self.ends[Source as usize];
                let chain = src.rpc.chain().borrow();
                let ibc = chain.app().ibc();
                ibc.outstanding_commitments(&path.port, &path.src_channel)
                    .into_iter()
                    .inspect(|_| prof::bump_clear_scan_visit())
                    .filter(|seq| self.assigned(dst_height, *seq))
                    // Skip acknowledgements this instance has already
                    // broadcast and is waiting to see committed, and those a
                    // straddled source commit is holding in the deferred
                    // queue — clearing them again would enqueue a duplicate
                    // `MsgAcknowledgement`.
                    .filter(|seq| !src.inflight.contains(&(channel, seq.value())))
                    .filter(|seq| {
                        !self
                            .deferred_acks
                            .iter()
                            .any(|(ch, p)| *ch == channel && p.sequence == *seq)
                    })
                    .collect()
            };
            if candidates.is_empty() {
                continue;
            }
            // Only packets the destination has already received can carry an
            // acknowledgement; the rest belong to the receive-side clear.
            // Received-status lives on the destination node, so the scan pays
            // for the cross-node query like every other destination lookup.
            let t = start.max(self.ends[Source as usize].worker_free);
            let unreceived_resp = self.ends[Destination as usize].rpc.unreceived_packets(
                t,
                &path.port,
                &path.dst_channel,
                &candidates,
            );
            let t = unreceived_resp.ready_at;
            let unreceived: BTreeSet<Sequence> = unreceived_resp.value.into_iter().collect();
            let received: Vec<Packet> = {
                let chain = self.ends[Source as usize].rpc.chain().borrow();
                let ibc = chain.app().ibc();
                (candidates.into_iter())
                    .filter(|seq| !unreceived.contains(seq))
                    .filter_map(|seq| ibc.sent_packet(&path.port, &path.src_channel, seq).cloned())
                    .collect()
            };
            if received.is_empty() {
                self.ends[Source as usize].worker_free = t;
                continue;
            }
            self.telemetry.record_error(
                t,
                format!(
                    "clearing {} pending acknowledgements on {}",
                    received.len(),
                    path.dst_channel
                ),
            );
            // Count only what actually entered the source mempool.
            self.stats.packets_cleared += self.relay_ack_batch(channel, dst_height, t, received);
        }
    }

    /// Checks — under mempool-aware sequence tracking, after an observed
    /// commit on the target chain — whether the chain's `CheckTx` will
    /// accept this relayer's next sequence, by reconciling the per-chain
    /// [`SequenceTracker`] against the mempool-aware
    /// `account_sequence_unconfirmed` query.
    ///
    /// Returns the time at which the answer is known and whether it is safe
    /// to broadcast. `false` means the check state straddled a commit while
    /// this relayer's transactions were still in the target chain's mempool
    /// (§V's sequence race): the caller must hold its batch for a later
    /// flush instead of burning it on a duplicate sequence.
    ///
    /// Under the default [`SequenceTracking::Resync`] this is free and
    /// always ready — the paper pipeline's RPC trace is untouched.
    fn ensure_sequence_ready(&mut self, to: ChainRole, at: SimTime) -> (SimTime, bool) {
        let ChainEnd {
            seq: tracker,
            rpc,
            account,
            ..
        } = &mut self.ends[to as usize];
        if tracker.is_held() {
            // A reconcile already reported the straddle since the last
            // commit; the check state cannot have changed, so hold without
            // paying the query again.
            return (at, false);
        }
        if !tracker.needs_reconcile() {
            return (at, true);
        }
        let resp = rpc.account_sequence_unconfirmed(at, account);
        let ready = tracker.reconcile(&resp.value);
        if !ready {
            self.telemetry.record_error(
                resp.ready_at,
                format!(
                    "holding batch: account sequence straddles a commit \
                     (committed {}, check state {}, {} txs unconfirmed)",
                    resp.value.committed, resp.value.expected, resp.value.pending
                ),
            );
        }
        (resp.ready_at, ready)
    }

    /// Builds, signs and broadcasts a transaction to one of the chains,
    /// recovering from account-sequence mismatches per the strategy's
    /// [`SequenceTracking`] arm: `Resync` re-queries the committed sequence
    /// and retries once (the paper's behaviour); `MempoolAware` reconciles
    /// against the unconfirmed-aware query and only retries when `CheckTx`
    /// will actually accept the sequence. Returns the time at which the
    /// broadcast response was received and, when the transaction (or its
    /// retry) was accepted into the mempool, the hash of the transaction
    /// that was actually accepted — under `Resync` a retry is a *different*
    /// transaction (new sequence, new hash), and callers tracking the
    /// mempool-to-commit window must watch the accepted hash, not the
    /// first attempt's.
    fn broadcast(&mut self, to: ChainRole, at: SimTime, msgs: Vec<Msg>) -> (SimTime, Option<Hash>) {
        let ChainEnd {
            seq: tracker,
            rpc,
            account,
            fee_denom,
            ..
        } = &mut self.ends[to as usize];
        // `msgs` moves into the transaction; the rare retry paths reclaim it
        // from `tx.msgs` instead of paying an up-front clone on every
        // broadcast.
        let tx = Tx::new(account.clone(), tracker.next(), msgs, fee_denom);
        let resp = rpc.broadcast_tx_sync(at, &tx);
        let mut ready = resp.ready_at;
        let mut accepted = None;
        match resp.value {
            Ok(_) => {
                accepted = Some(tx.hash());
                tracker.advance();
            }
            Err(BroadcastError::CheckTxFailed { log, .. })
                if log.contains("account sequence mismatch") =>
            {
                self.stats.broadcast_failures += 1;
                self.telemetry.record_error(ready, log);
                match tracker.mode() {
                    SequenceTracking::Resync => {
                        // Re-sync the sequence from the chain's *committed*
                        // state and retry once — stale across a straddled
                        // commit, which is exactly the §V race.
                        let seq_resp = rpc.account_sequence(ready, account);
                        ready = seq_resp.ready_at;
                        let new_seq = seq_resp.value;
                        let retry_tx = Tx::new(account.clone(), new_seq, tx.msgs, fee_denom);
                        let retry = rpc.broadcast_tx_sync(ready, &retry_tx);
                        ready = retry.ready_at;
                        match retry.value {
                            Ok(_) => {
                                accepted = Some(retry_tx.hash());
                                tracker.resync(new_seq + 1);
                            }
                            Err(err) => {
                                self.stats.broadcast_failures += 1;
                                self.telemetry.record_error(ready, err.to_string());
                                // The retry failed for a non-sequence reason
                                // (its CheckTx passed or rejected the tx
                                // without consuming a sequence), so the
                                // freshly queried sequence is still the
                                // account's committed truth — keep it
                                // instead of reverting to the stale value
                                // that caused the mismatch, which would make
                                // every subsequent broadcast repeat the
                                // resync-and-retry dance.
                                tracker.resync(new_seq);
                            }
                        }
                    }
                    SequenceTracking::MempoolAware => {
                        // Reconcile against the mempool-aware query; retry
                        // only when CheckTx will actually accept the
                        // sequence. A straddle leaves the messages
                        // unaccepted for the caller to re-flush — never
                        // burned on a duplicate sequence.
                        let snap = rpc.account_sequence_unconfirmed(ready, account);
                        ready = snap.ready_at;
                        if tracker.reconcile(&snap.value) {
                            let retry_tx =
                                Tx::new(account.clone(), tracker.next(), tx.msgs, fee_denom);
                            let retry = rpc.broadcast_tx_sync(ready, &retry_tx);
                            ready = retry.ready_at;
                            match retry.value {
                                Ok(_) => {
                                    accepted = Some(retry_tx.hash());
                                    tracker.advance();
                                }
                                Err(err) => {
                                    self.stats.broadcast_failures += 1;
                                    self.telemetry.record_error(ready, err.to_string());
                                }
                            }
                        }
                    }
                }
            }
            Err(err) => {
                self.stats.broadcast_failures += 1;
                self.telemetry.record_error(ready, err.to_string());
            }
        }
        (ready, accepted)
    }
}

/// Moves one channel's entries out of a taken queue, in arrival order; the
/// other channels' entries stay queued, in theirs.
fn take_channel<T>(queue: &mut Vec<(usize, T)>, channel: usize) -> Vec<T> {
    queue
        .extract_if(.., |(ch, _)| *ch == channel)
        .map(|(_, entry)| entry)
        .collect()
}

impl std::fmt::Debug for Relayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Relayer")
            .field("id", &self.id)
            .field("channels", &self.paths.len())
            .field("strategy", &self.config.strategy)
            .field("packets_tracked", &self.telemetry.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcc_chain::chain::Chain;
    use xcc_chain::coin::Coin;
    use xcc_chain::genesis::GenesisConfig;
    use xcc_ibc::ids::{ChannelId, ClientId};
    use xcc_rpc::cost::RpcCostModel;
    use xcc_sim::{DetRng, LatencyModel};
    use xcc_tendermint::mempool::MempoolConfig;
    use xcc_tendermint::params::{ConsensusParams, ConsensusTimingModel};

    const SRC: usize = ChainRole::Source as usize;
    const DST: usize = ChainRole::Destination as usize;

    fn chain_with_mempool(id: &str, max_txs: usize) -> xcc_chain::chain::SharedChain {
        Chain::with_params(
            GenesisConfig::new(id)
                .with_account("relayer", 1_000_000_000)
                .with_funded_accounts("user", 2, 1_000_000_000),
            ConsensusParams::default(),
            ConsensusTimingModel::default(),
            MempoolConfig {
                max_txs,
                ..MempoolConfig::default()
            },
        )
        .into_shared()
    }

    fn rpc_for(chain: &xcc_chain::chain::SharedChain, seed: u64) -> RpcEndpoint {
        RpcEndpoint::new(
            chain.clone(),
            RpcCostModel::default(),
            LatencyModel::Zero,
            DetRng::new(seed),
        )
    }

    fn path(channel: u64) -> RelayPath {
        RelayPath {
            src_chain: ChainId::new("src-chain"),
            dst_chain: ChainId::new("dst-chain"),
            port: xcc_ibc::ids::PortId::transfer(),
            src_channel: ChannelId::with_index(channel),
            dst_channel: ChannelId::with_index(channel),
            client_on_dst: ClientId::with_index(0),
            client_on_src: ClientId::with_index(0),
        }
    }

    fn test_relayer(dst: &xcc_chain::chain::SharedChain) -> Relayer {
        let src = chain_with_mempool("src-chain", 5_000);
        // The broadcast path never touches channel state, so a nominal path
        // is enough to construct the driver.
        let (src_rpc, dst_rpc) = (rpc_for(&src, 1), rpc_for(dst, 2));
        Relayer::with_paths(0, RelayerConfig::default(), vec![path(0)], src_rpc, dst_rpc)
    }

    fn packet(sequence: u64) -> Packet {
        Packet {
            sequence: Sequence::from(sequence),
            source_port: xcc_ibc::ids::PortId::transfer(),
            source_channel: ChannelId::with_index(0),
            destination_port: xcc_ibc::ids::PortId::transfer(),
            destination_channel: ChannelId::with_index(0),
            data: Vec::new(),
            timeout_height: Height::at(0),
            timeout_timestamp: SimTime::ZERO,
        }
    }

    fn bank_msg(amount: u128) -> Msg {
        Msg::BankSend {
            from: "relayer".into(),
            to: "user-0".into(),
            amount: Coin::new("uatom", amount),
        }
    }

    fn user_tx(chain: &xcc_chain::chain::SharedChain, seq: u64) {
        let tx = xcc_chain::tx::Tx::new(
            "user-1".into(),
            seq,
            vec![Msg::BankSend {
                from: "user-1".into(),
                to: "user-0".into(),
                amount: Coin::new("uatom", 1),
            }],
            "uatom",
        );
        chain
            .borrow_mut()
            .submit_tx(&tx, SimTime::ZERO)
            .expect("filler tx enters the mempool");
    }

    /// Pins the wake protocol the runner's event loop is built on: block
    /// notifications are O(1) inbox pushes, `wake` drains the inbox in FIFO
    /// order, and spurious wakes (empty inbox) are harmless no-ops.
    #[test]
    fn wake_drains_the_inbox_and_spurious_wakes_are_noops() {
        let dst = chain_with_mempool("dst-chain", 100);
        let mut relayer = test_relayer(&dst);
        assert!(relayer.inbox.is_empty());
        assert_eq!(relayer.wake(SimTime::ZERO), None, "empty wake is a no-op");

        relayer.notify_source_block(1, SimTime::from_secs(5));
        relayer.notify_dest_block(1, SimTime::from_secs(5));
        assert!(!relayer.inbox.is_empty());
        assert_eq!(
            relayer.wake(SimTime::from_secs(5)),
            None,
            "no time-driven obligations: everything waits on a future commit"
        );
        assert!(relayer.inbox.is_empty(), "wake drained the inbox");
    }

    /// A pinned channel assignment routes every channel decision, and the
    /// coordination id (replica index within the channel's group) replaces
    /// the global process id for work division.
    #[test]
    fn channel_assignment_and_coordination_id_route_the_fleet() {
        let dst = chain_with_mempool("dst-chain", 100);
        let src = chain_with_mempool("src-chain", 100);
        // Process 3 of a dedicated fleet: pinned to channel 1, replica 1 of
        // a 2-replica group coordinated by sequence partitioning.
        let config = RelayerConfig {
            strategy: crate::strategy::RelayerStrategy::coordinated(),
            instances: 2,
            channel_assignment: Some(1),
            coordination_id: Some(1),
            ..RelayerConfig::default()
        };
        let relayer = Relayer::with_paths(
            3,
            config,
            vec![path(0), path(1), path(2)],
            rpc_for(&src, 1),
            rpc_for(&dst, 2),
        );
        assert_eq!(relayer.channel_assignment(), Some(1));
        assert!(!relayer.serves_channel(0));
        assert!(relayer.serves_channel(1));
        assert!(!relayer.serves_channel(2));
        // Sequence partitioning over 2 replicas under coordination id 1:
        // odd sequences belong to this process, even ones to replica 0.
        assert!(relayer.assigned(10, Sequence::from(7)));
        assert!(!relayer.assigned(10, Sequence::from(8)));
    }

    /// Pins the `broadcast_failures` counting semantics documented on
    /// [`RelayerStats`]: a single logical submission whose initial attempt
    /// and post-resync retry both fail increments the counter **twice** —
    /// it counts failed attempts, not logical submissions.
    #[test]
    fn both_failed_attempts_of_one_submission_count_twice() {
        // A destination whose mempool holds exactly one transaction, already
        // occupied by a user's filler tx, and whose committed relayer
        // sequence has moved past the relayer's local view.
        let dst = chain_with_mempool("dst-chain", 1);
        let mut relayer = test_relayer(&dst);
        {
            // Desync: someone (a prior relayer run) commits a tx from the
            // relayer's account.
            let external = xcc_chain::tx::Tx::new("relayer".into(), 0, vec![bank_msg(7)], "uatom");
            dst.borrow_mut()
                .submit_tx(&external, SimTime::ZERO)
                .unwrap();
            dst.borrow_mut().produce_block(SimTime::from_secs(5));
        }
        user_tx(&dst, 0); // fills the 1-slot mempool

        // Initial attempt: sequence mismatch (local 0, committed 1).
        // Retry after resync: CheckTx passes at sequence 1, but the mempool
        // is full — a non-sequence failure. One logical submission, two
        // counted failures.
        let (_, accepted) = relayer.broadcast(
            ChainRole::Destination,
            SimTime::from_secs(6),
            vec![bank_msg(1)],
        );
        assert!(accepted.is_none());
        assert_eq!(relayer.stats().broadcast_failures, 2);
    }

    /// The retry path must persist the freshly queried sequence even when
    /// the retry fails for a non-sequence reason; otherwise the next
    /// broadcast repeats the mismatch with the stale value forever.
    #[test]
    fn failed_retry_persists_the_resynced_sequence() {
        let dst = chain_with_mempool("dst-chain", 1);
        let mut relayer = test_relayer(&dst);
        {
            let external = xcc_chain::tx::Tx::new("relayer".into(), 0, vec![bank_msg(7)], "uatom");
            dst.borrow_mut()
                .submit_tx(&external, SimTime::ZERO)
                .unwrap();
            dst.borrow_mut().produce_block(SimTime::from_secs(5));
        }
        user_tx(&dst, 0);
        let (_, accepted) = relayer.broadcast(
            ChainRole::Destination,
            SimTime::from_secs(6),
            vec![bank_msg(1)],
        );
        assert!(accepted.is_none());
        assert_eq!(relayer.stats().broadcast_failures, 2);

        // Drain the mempool; the next broadcast must reuse the persisted
        // sequence (1) and succeed first try — no third failure.
        dst.borrow_mut().produce_block(SimTime::from_secs(10));
        assert_eq!(dst.borrow().mempool_size(), 0);
        let (_, accepted) = relayer.broadcast(
            ChainRole::Destination,
            SimTime::from_secs(11),
            vec![bank_msg(2)],
        );
        assert!(
            accepted.is_some(),
            "the persisted sequence is accepted directly"
        );
        assert_eq!(
            relayer.stats().broadcast_failures,
            2,
            "no repeated mismatch from a stale cached sequence"
        );
    }

    /// Pins the crashed-process notification semantics the fault subsystem
    /// relies on: notices delivered to a crashed process collapse into O(1)
    /// missed-height slots (never an unbounded inbox, never silently
    /// dropped), and restart replays at most [`RESTART_REPLAY_WINDOW`]
    /// heights per chain through the normal inbox.
    #[test]
    fn crashed_process_bounds_notices_and_replays_a_window_on_restart() {
        let dst = chain_with_mempool("dst-chain", 100);
        let mut relayer = test_relayer(&dst);
        relayer.notify_source_block(1, SimTime::from_secs(5));
        relayer.wake(SimTime::from_secs(5));
        assert_eq!(relayer.ends[SRC].last_processed, 1);

        relayer.crash(SimTime::from_secs(6));
        assert!(relayer.crashed);
        // A long outage: 100 source and 3 destination commits arrive.
        for height in 2..=101 {
            relayer.notify_source_block(height, SimTime::from_secs(5 * height));
        }
        for height in 1..=3 {
            relayer.notify_dest_block(height, SimTime::from_secs(5 * height));
        }
        assert!(relayer.inbox.is_empty(), "crashed processes keep no inbox");
        assert_eq!(relayer.ends[SRC].missed, Some(101));
        assert_eq!(relayer.ends[DST].missed, Some(3));
        assert_eq!(
            relayer.wake(SimTime::from_secs(500)),
            None,
            "wakes are no-ops while crashed"
        );

        relayer.restart(SimTime::from_secs(520));
        assert!(!relayer.crashed);
        // Source replay is capped to the newest RESTART_REPLAY_WINDOW
        // heights; the short destination gap replays in full.
        assert_eq!(
            relayer.inbox.len() as u64,
            RESTART_REPLAY_WINDOW + 3,
            "replay backlog is bounded by the window"
        );
        let first = relayer.inbox.front().copied().unwrap();
        assert_eq!(
            first,
            (
                ChainRole::Source,
                102 - RESTART_REPLAY_WINDOW,
                SimTime::from_secs(520),
            )
        );
        assert_eq!(relayer.ends[SRC].missed, None);
        assert_eq!(relayer.ends[DST].missed, None);
    }

    /// A crash loses every piece of in-memory pipeline state; restarting
    /// while not crashed is a no-op.
    #[test]
    fn crash_wipes_pipeline_state_and_restart_is_idempotent() {
        let dst = chain_with_mempool("dst-chain", 100);
        let mut relayer = test_relayer(&dst);
        let packet = Rc::new(packet(1));
        relayer.pending_recv.push((0, (1, Rc::clone(&packet))));
        relayer.pending_delivery.insert((0, 1), Rc::clone(&packet));
        relayer.ends[DST].inflight.insert((0, 1));
        relayer.ends[SRC].inflight.insert((0, 1));
        relayer.deferred_acks.push((0, Packet::clone(&packet)));
        // One block into a Windowed/Adaptive submission window.
        relayer.blocks_held = 1;
        relayer.notify_source_block(1, SimTime::from_secs(5));

        relayer.crash(SimTime::from_secs(6));
        assert!(relayer.pending_recv.is_empty());
        assert_eq!(
            relayer.blocks_held, 0,
            "the held window dies with its queue"
        );
        assert!(relayer.pending_delivery.is_empty());
        assert!(relayer.ends[DST].inflight.is_empty());
        assert!(relayer.ends[SRC].inflight.is_empty());
        assert!(relayer.deferred_acks.is_empty());
        assert!(relayer.inbox.is_empty());

        // Restart on a healthy process changes nothing.
        relayer.restart(SimTime::from_secs(7));
        let lanes_before = relayer.lane_stats();
        relayer.restart(SimTime::from_secs(8));
        assert_eq!(relayer.lane_stats(), lanes_before);
    }

    /// The per-channel regroup moves: each channel, in flush order, gets its
    /// own entries in arrival order, each packet with the height that
    /// committed it and as the handle that went in (nothing is copied), and a
    /// channel the flush order leaves out stays queued.
    #[test]
    fn regrouping_a_queue_by_channel_moves_the_handles_in_arrival_order() {
        let [p1, p2, p3, p4] = [1, 2, 3, 4].map(|seq| Rc::new(packet(seq)));
        let handle = |h: u64, p: &Rc<Packet>| (h, Rc::clone(p));
        let mut queue = vec![
            (1, handle(7, &p1)),
            (0, handle(7, &p2)),
            (2, handle(8, &p4)),
            (1, handle(8, &p3)),
        ];
        let [first, second] = [1, 0].map(|channel| take_channel(&mut queue, channel));
        let ids = |batch: &[(u64, Rc<Packet>)]| -> Vec<_> {
            batch.iter().map(|(h, p)| (*h, Rc::as_ptr(p))).collect()
        };
        assert_eq!(ids(&first), [(7, Rc::as_ptr(&p1)), (8, Rc::as_ptr(&p3))]);
        assert_eq!(ids(&second), [(7, Rc::as_ptr(&p2))]);
        assert_eq!(Rc::strong_count(&p1), 2, "this handle and the batch's");
        assert_eq!(queue.len(), 1);
        let (channel, left) = queue.remove(0);
        assert_eq!((channel, ids(&[left])), (2, vec![(8, Rc::as_ptr(&p4))]));
    }

    /// The cold-cache resync: a restarted process re-reads its account
    /// sequence from committed chain state, so a sequence consumed by its
    /// previous incarnation never causes a mismatch after restart.
    #[test]
    fn restart_reseeds_sequence_trackers_from_committed_state() {
        let dst = chain_with_mempool("dst-chain", 100);
        let mut relayer = test_relayer(&dst);
        // The previous incarnation's tx commits while we are down.
        let external = xcc_chain::tx::Tx::new("relayer".into(), 0, vec![bank_msg(7)], "uatom");
        dst.borrow_mut()
            .submit_tx(&external, SimTime::ZERO)
            .unwrap();
        relayer.crash(SimTime::from_secs(1));
        dst.borrow_mut().produce_block(SimTime::from_secs(5));

        relayer.restart(SimTime::from_secs(6));
        let (_, accepted) = relayer.broadcast(
            ChainRole::Destination,
            SimTime::from_secs(7),
            vec![bank_msg(1)],
        );
        assert!(accepted.is_some(), "restart re-seeded the tracker cold");
        assert_eq!(relayer.stats().broadcast_failures, 0);
    }

    /// §V's account-sequence race can also strike at DeliverTx: a receive
    /// transaction enters the mempool, then commits *failed*. A failed
    /// transaction emits no packet events, so only the per-transaction
    /// commit watch can release the in-flight markers — without it the
    /// packet-clear scan, which skips in-flight packets, could never rescue
    /// the stranded packets.
    #[test]
    fn failed_tx_commit_releases_inflight_markers_to_the_clear_scan() {
        let dst = chain_with_mempool("dst-chain", 100);
        let mut relayer = test_relayer(&dst);
        let hash_ok = Hash([1; 32]);
        let hash_bad = Hash([2; 32]);
        relayer.ends[DST].inflight.insert((0, 1));
        relayer.ends[DST].inflight.insert((0, 2));
        relayer.ends[DST].inflight.insert((0, 3));
        relayer.ends[DST].inflight_txs.push((hash_ok, vec![(0, 1)]));
        relayer.ends[DST]
            .inflight_txs
            .push((hash_bad, vec![(0, 2), (0, 3)]));

        // An untracked hash is some other account's transaction: a no-op.
        relayer.note_committed_tx(ChainRole::Destination, &Hash([9; 32]), 5, SimTime::ZERO);
        assert_eq!(relayer.ends[DST].inflight.len(), 3);

        // A successful commit retires the tracked transaction but keeps the
        // markers: the same block's WRITE_ACK events remove those.
        relayer.note_committed_tx(ChainRole::Destination, &hash_ok, 0, SimTime::ZERO);
        assert!(relayer.ends[DST].inflight.contains(&(0, 1)));
        assert_eq!(relayer.ends[DST].inflight_txs.len(), 1);

        // A failed commit releases its markers, so the next clear scan sees
        // the packets as eligible again.
        relayer.note_committed_tx(ChainRole::Destination, &hash_bad, 5, SimTime::from_secs(1));
        assert!(relayer.ends[DST].inflight.contains(&(0, 1)));
        assert!(!relayer.ends[DST].inflight.contains(&(0, 2)));
        assert!(!relayer.ends[DST].inflight.contains(&(0, 3)));
        assert!(relayer.ends[DST].inflight_txs.is_empty());

        // The acknowledgement path mirrors the receive path.
        relayer.ends[SRC].inflight.insert((0, 4));
        relayer.ends[SRC]
            .inflight_txs
            .push((hash_bad, vec![(0, 4)]));
        relayer.note_committed_tx(ChainRole::Source, &hash_bad, 5, SimTime::from_secs(2));
        assert!(relayer.ends[SRC].inflight.is_empty());
        assert!(relayer.ends[SRC].inflight_txs.is_empty());
    }
}
