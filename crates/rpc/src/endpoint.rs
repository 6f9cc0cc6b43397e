//! The simulated Tendermint RPC endpoint served by a full node.
//!
//! All queries go through a single-server FIFO queue ([`FifoServer`]): the
//! endpoint serves them one at a time, which is the root cause of the
//! data-pull bottleneck the paper measures. Every method returns an
//! [`RpcResponse`] carrying both the result and the simulated time at which
//! the caller receives it (queueing + service + network round trip).

use std::rc::Rc;

use xcc_chain::account::AccountId;
use xcc_chain::chain::SharedChain;
use xcc_chain::tx::Tx;
use xcc_ibc::client::ClientUpdate;
use xcc_ibc::commitment::{CommitmentProof, NonMembershipProof};
use xcc_ibc::ids::{ChannelId, PortId, Sequence};
use xcc_ibc::packet::Acknowledgement;
use xcc_sim::prof;
use xcc_sim::{DetRng, FifoServer, LatencyModel, SimDuration, SimTime};
use xcc_tendermint::abci::Event;
use xcc_tendermint::hash::Hash;
use xcc_tendermint::node::{CommittedBlock, TxStatus};

use crate::cost::{RequestKind, RequestProfile, RpcCostModel};

/// A response from the RPC endpoint: the value plus when it arrives at the
/// caller.
#[derive(Debug, Clone, PartialEq)]
pub struct RpcResponse<T> {
    /// The response payload.
    pub value: T,
    /// Simulated time at which the caller has the response in hand.
    pub ready_at: SimTime,
    /// Estimated size of the response in bytes.
    pub response_bytes: usize,
}

/// Errors returned by `broadcast_tx_sync`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BroadcastError {
    /// `CheckTx` rejected the transaction (code and log are included).
    CheckTxFailed {
        /// ABCI error code.
        code: u32,
        /// Error log, e.g. "account sequence mismatch…".
        log: String,
    },
    /// The mempool refused the transaction (full or duplicate).
    MempoolRejected {
        /// Description of the rejection.
        reason: String,
    },
}

impl std::fmt::Display for BroadcastError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BroadcastError::CheckTxFailed { code, log } => {
                write!(f, "broadcast failed (code {code}): {log}")
            }
            BroadcastError::MempoolRejected { reason } => {
                write!(f, "mempool rejected tx: {reason}")
            }
        }
    }
}

impl std::error::Error for BroadcastError {}

/// The answer to a mempool-aware account-sequence query
/// ([`RpcEndpoint::account_sequence_unconfirmed`]): everything a client needs
/// to pick its next sequence without burning a transaction on the §V
/// account-sequence race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnconfirmedSequence {
    /// The committed sequence — what a plain
    /// [`account_sequence`](RpcEndpoint::account_sequence) query returns.
    pub committed: u64,
    /// The sequence `CheckTx` expects on the account's next submission (the
    /// node's check state). Runs ahead of `committed` while the account's
    /// transactions sit in the mempool, and resets to `committed` at every
    /// block commit.
    pub expected: u64,
    /// Number of the account's transactions currently in the mempool.
    pub pending: u64,
}

/// A snapshot of one RPC lane's accounting: every relayer process owns one
/// endpoint (lane) per chain, each with its own single-server FIFO queue, so
/// serialization is per-process — a second process's queries never queue
/// behind the first's. The experiment runner collects one snapshot per lane
/// at the end of a run ([`lane_stats`](RpcEndpoint::lane_stats)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneStats {
    /// The lane's diagnostic name (`rpc-<chain-id>`).
    pub name: String,
    /// Total queries this lane served.
    pub queries_served: u64,
    /// Cumulative time the lane's server spent busy.
    pub busy_time: SimDuration,
    /// Cumulative queueing delay over all the lane's queries.
    pub total_wait: SimDuration,
    /// Largest observed sojourn time (wait plus service) of any query.
    pub max_backlog: SimDuration,
}

/// What one committed block did, as delivered to a relayer — pushed over the
/// WebSocket subscription ([`RpcEndpoint::block_events`]) or pulled with a
/// `block_results` query ([`RpcEndpoint::block_tx_results`]). Either way it
/// is a handle on the block store's own allocation; nothing is copied.
#[derive(Debug, Clone)]
pub struct BlockEventBatch {
    /// The committed block, shared with the node's block store and with
    /// every other subscriber.
    pub committed: Rc<CommittedBlock>,
    /// Encoded size of the payload as this transport carried it.
    pub payload_bytes: usize,
}

impl BlockEventBatch {
    /// Per-transaction `(tx hash, result code, events)` in block order.
    pub fn txs(&self) -> impl Iterator<Item = (Hash, u32, &[Event])> {
        let txs = &self.committed.block.data.txs;
        txs.iter()
            .zip(&self.committed.results)
            .map(|(tx, result)| (tx.hash(), result.code, result.events.as_slice()))
    }
}

/// A Tendermint RPC endpoint bound to one chain's full node.
#[derive(Debug)]
pub struct RpcEndpoint {
    chain: SharedChain,
    queue: FifoServer,
    cost: RpcCostModel,
    latency: LatencyModel,
    rng: DetRng,
}

impl RpcEndpoint {
    /// Creates an endpoint for `chain` with the given cost and latency
    /// models.
    pub fn new(chain: SharedChain, cost: RpcCostModel, latency: LatencyModel, rng: DetRng) -> Self {
        let name = format!("rpc-{}", chain.borrow().id());
        RpcEndpoint {
            chain,
            queue: FifoServer::new(name),
            cost,
            latency,
            rng,
        }
    }

    /// The chain this endpoint serves.
    pub fn chain(&self) -> &SharedChain {
        &self.chain
    }

    /// Total number of queries served so far.
    pub fn queries_served(&self) -> u64 {
        self.queue.jobs_served()
    }

    /// Cumulative time the RPC server spent busy.
    pub fn busy_time(&self) -> SimDuration {
        self.queue.busy_time()
    }

    /// A snapshot of this lane's accounting (queries served, busy time,
    /// cumulative wait, worst backlog).
    pub fn lane_stats(&self) -> LaneStats {
        LaneStats {
            name: self.queue.name().to_string(),
            queries_served: self.queue.jobs_served(),
            busy_time: self.queue.busy_time(),
            total_wait: self.queue.total_wait(),
            max_backlog: self.queue.max_backlog(),
        }
    }

    fn respond<T>(&mut self, now: SimTime, profile: RequestProfile, value: T) -> RpcResponse<T> {
        prof::bump_rpc_call(profile.kind.index());
        let service = self.cost.service_time(&profile);
        let request_arrives = now + self.latency.sample_one_way(&mut self.rng);
        let served_at = self.queue.submit(request_arrives, service);
        let ready_at = served_at + self.latency.sample_one_way(&mut self.rng);
        RpcResponse {
            value,
            ready_at,
            response_bytes: profile.response_bytes,
        }
    }

    /// `status`: the chain id and latest committed height.
    pub fn status(&mut self, now: SimTime) -> RpcResponse<(String, u64)> {
        let (id, height) = {
            let chain = self.chain.borrow();
            (chain.id().to_string(), chain.height())
        };
        self.respond(
            now,
            RequestProfile::small(RequestKind::Status),
            (id, height),
        )
    }

    /// Account sequence query, used by clients to sign their next
    /// transaction.
    pub fn account_sequence(&mut self, now: SimTime, address: &AccountId) -> RpcResponse<u64> {
        let seq = self.chain.borrow().app().account_sequence(address);
        self.respond(now, RequestProfile::small(RequestKind::AccountQuery), seq)
    }

    /// Mempool-aware account-sequence query: the committed sequence, the
    /// check-state sequence `CheckTx` currently expects, and the account's
    /// unconfirmed mempool window — Tendermint's `unconfirmed_txs` filtered
    /// by sender, folded into one query. The service time pays a scan over
    /// the whole mempool (the node walks every pending transaction to filter
    /// by sender), so the query gets slower exactly when it matters most.
    pub fn account_sequence_unconfirmed(
        &mut self,
        now: SimTime,
        address: &AccountId,
    ) -> RpcResponse<UnconfirmedSequence> {
        let (snapshot, mempool_size) = {
            let chain = self.chain.borrow();
            let app = chain.app();
            (
                UnconfirmedSequence {
                    committed: app.account_sequence(address),
                    expected: app.check_account_sequence(address),
                    pending: chain.mempool_pending_from(address.as_str()) as u64,
                },
                chain.mempool_size(),
            )
        };
        self.respond(
            now,
            RequestProfile {
                kind: RequestKind::UnconfirmedAccountQuery,
                response_bytes: 512,
                messages: 0,
                recv_heavy: false,
                items: mempool_size,
            },
            snapshot,
        )
    }

    /// `broadcast_tx_sync`: submit a transaction to the mempool.
    pub fn broadcast_tx_sync(
        &mut self,
        now: SimTime,
        tx: &Tx,
    ) -> RpcResponse<Result<Hash, BroadcastError>> {
        let msg_count = tx.msg_count();
        let raw = tx.encode();
        // The transaction reaches the node one network hop after the caller
        // sends it; blocks proposed before that instant cannot include it.
        let arrival = now + self.latency.sample_one_way(&mut self.rng);
        let result = {
            let mut chain = self.chain.borrow_mut();
            chain.submit_raw_tx(raw, arrival)
        };
        let value = result.map_err(|e| match e {
            xcc_tendermint::node::SubmitError::CheckTxFailed { code, log } => {
                BroadcastError::CheckTxFailed { code, log }
            }
            xcc_tendermint::node::SubmitError::Mempool(err) => BroadcastError::MempoolRejected {
                reason: err.to_string(),
            },
        });
        self.respond(
            now,
            RequestProfile {
                kind: RequestKind::BroadcastTxSync,
                response_bytes: 256,
                messages: msg_count,
                recv_heavy: false,
                items: 0,
            },
            value,
        )
    }

    /// Whether a transaction is committed, pending or unknown.
    pub fn tx_status(&mut self, now: SimTime, hash: &Hash) -> RpcResponse<TxStatus> {
        let status = self.chain.borrow().tx_status(hash);
        self.respond(now, RequestProfile::small(RequestKind::Status), status)
    }

    /// The execution results of every transaction committed at `height`
    /// (the `block_results` / `tx_search tx.height=X` query a polling
    /// relayer issues), or `None` for a height the chain has not reached.
    pub fn block_tx_results(
        &mut self,
        now: SimTime,
        height: u64,
    ) -> RpcResponse<Option<BlockEventBatch>> {
        let batch = self
            .chain
            .borrow()
            .block_at(height)
            .map(|block| BlockEventBatch {
                committed: Rc::clone(block),
                // 512 + Σ(tx.len() + result.encoded_size()): the commit-time
                // frame size without a WebSocket frame's 64-byte envelope
                // per transaction.
                payload_bytes: 512 + block.events_payload_bytes - 64 * block.results.len(),
            });
        self.respond(
            now,
            RequestProfile {
                kind: RequestKind::BlockResults,
                response_bytes: batch.as_ref().map_or(256, |b| b.payload_bytes),
                messages: 0,
                recv_heavy: false,
                items: 0,
            },
            batch,
        )
    }

    /// The one body of the four data pulls below: a `kind` query for `items`
    /// sequences (`0` when the kind is not priced per item), priced against
    /// the IBC messages committed in the block at `height`, answering with
    /// `collected` — what a `collect_*` found and its response size.
    fn pull<T>(
        &mut self,
        now: SimTime,
        height: u64,
        kind: RequestKind,
        recv_heavy: bool,
        items: usize,
        collected: (Vec<T>, usize),
    ) -> RpcResponse<Vec<T>> {
        let messages = self
            .chain
            .borrow()
            .block_at(height)
            .map_or(0, |b| b.results.iter().map(|r| r.events.len()).sum());
        let (out, response_bytes) = collected;
        let profile = RequestProfile {
            kind,
            response_bytes,
            messages,
            recv_heavy,
            items,
        };
        self.respond(now, profile, out)
    }

    /// The relayer's packet data pull: the commitment proof of each of
    /// `sequences` sent over `(port, channel)` — the relayer already holds
    /// the packets, but the response is sized as packets plus proofs —
    /// querying against the block at `height` (whose size drives the cost).
    pub fn pull_packet_data(
        &mut self,
        now: SimTime,
        height: u64,
        port: &PortId,
        channel: &ChannelId,
        sequences: &[Sequence],
    ) -> RpcResponse<Vec<(Sequence, CommitmentProof)>> {
        let found = self.collect_packet_data(port, channel, sequences);
        self.pull(now, height, RequestKind::PacketDataPull, false, 0, found)
    }

    fn collect_packet_data(
        &self,
        port: &PortId,
        channel: &ChannelId,
        sequences: &[Sequence],
    ) -> (Vec<(Sequence, CommitmentProof)>, usize) {
        let mut out = Vec::with_capacity(sequences.len());
        let mut bytes = 1024usize;
        let chain = self.chain.borrow();
        let ibc = chain.app().ibc();
        for seq in sequences {
            if let (Some(packet), Some(proof)) = (
                ibc.sent_packet(port, channel, *seq),
                ibc.prove_packet_commitment(port, channel, *seq),
            ) {
                bytes += packet.encoded_size() + proof.encoded_size();
                out.push((*seq, proof));
            }
        }
        (out, bytes)
    }

    /// A batched variant of [`pull_packet_data`](RpcEndpoint::pull_packet_data)
    /// covering an arbitrary number of sequences in one query: the block scan
    /// is paid once for the whole batch, with a per-item pagination surcharge
    /// (see [`RpcCostModel::batched_pull_per_item`]).
    pub fn pull_packet_data_batched(
        &mut self,
        now: SimTime,
        height: u64,
        port: &PortId,
        channel: &ChannelId,
        sequences: &[Sequence],
    ) -> RpcResponse<Vec<(Sequence, CommitmentProof)>> {
        let found = self.collect_packet_data(port, channel, sequences);
        let kind = RequestKind::BatchedDataPull;
        self.pull(now, height, kind, false, sequences.len(), found)
    }

    /// The relayer's acknowledgement data pull on the destination chain:
    /// returns the acknowledgement and its proof for each received sequence,
    /// priced against the (recv-heavy) block at `height`.
    pub fn pull_ack_data(
        &mut self,
        now: SimTime,
        height: u64,
        port: &PortId,
        channel: &ChannelId,
        sequences: &[Sequence],
    ) -> RpcResponse<Vec<(Sequence, Acknowledgement, CommitmentProof)>> {
        let found = self.collect_ack_data(port, channel, sequences);
        self.pull(now, height, RequestKind::PacketDataPull, true, 0, found)
    }

    /// A batched variant of [`pull_ack_data`](RpcEndpoint::pull_ack_data):
    /// one recv-heavy query for the whole batch of sequences, with the block
    /// scan paid once plus the per-item pagination surcharge.
    pub fn pull_ack_data_batched(
        &mut self,
        now: SimTime,
        height: u64,
        port: &PortId,
        channel: &ChannelId,
        sequences: &[Sequence],
    ) -> RpcResponse<Vec<(Sequence, Acknowledgement, CommitmentProof)>> {
        let found = self.collect_ack_data(port, channel, sequences);
        let kind = RequestKind::BatchedDataPull;
        self.pull(now, height, kind, true, sequences.len(), found)
    }

    fn collect_ack_data(
        &self,
        port: &PortId,
        channel: &ChannelId,
        sequences: &[Sequence],
    ) -> (Vec<(Sequence, Acknowledgement, CommitmentProof)>, usize) {
        let mut out = Vec::with_capacity(sequences.len());
        let mut bytes = 1024usize;
        let chain = self.chain.borrow();
        let ibc = chain.app().ibc();
        for seq in sequences {
            if let (Some(ack), Some(proof)) = (
                ibc.packet_acknowledgement(port, channel, *seq),
                ibc.prove_packet_acknowledgement(port, channel, *seq),
            ) {
                bytes += ack.encoded_size() + proof.encoded_size();
                out.push((*seq, ack.clone(), proof));
            }
        }
        (out, bytes)
    }

    /// Header, commit, validator set and IBC root of the latest block,
    /// packaged as the client update a relayer submits before proofs.
    pub fn client_update_data(&mut self, now: SimTime) -> RpcResponse<Option<ClientUpdate>> {
        let update = {
            let chain = self.chain.borrow();
            chain.latest_block().and_then(|latest| {
                let commit = chain.commit_for(latest.block.header.height)?.clone();
                Some(ClientUpdate {
                    header: latest.block.header.clone(),
                    commit,
                    validators: chain.validators().clone(),
                    ibc_root: chain.app().ibc().commitment_root(),
                })
            })
        };
        self.respond(
            now,
            RequestProfile {
                kind: RequestKind::ClientUpdateData,
                response_bytes: 2_048,
                messages: 0,
                recv_heavy: false,
                items: 0,
            },
            update,
        )
    }

    /// Filters `sequences` down to packets not yet received on this chain.
    pub fn unreceived_packets(
        &mut self,
        now: SimTime,
        port: &PortId,
        channel: &ChannelId,
        sequences: &[Sequence],
    ) -> RpcResponse<Vec<Sequence>> {
        let unreceived = self
            .chain
            .borrow()
            .app()
            .ibc()
            .unreceived_packets(port, channel, sequences);
        self.respond(
            now,
            RequestProfile {
                kind: RequestKind::UnreceivedQuery,
                response_bytes: 128 + sequences.len() * 8,
                messages: 0,
                recv_heavy: false,
                items: 0,
            },
            unreceived,
        )
    }

    /// Filters `sequences` down to packets whose commitments still exist on
    /// this chain, i.e. not yet acknowledged.
    pub fn unacknowledged_packets(
        &mut self,
        now: SimTime,
        port: &PortId,
        channel: &ChannelId,
        sequences: &[Sequence],
    ) -> RpcResponse<Vec<Sequence>> {
        let unacked = self
            .chain
            .borrow()
            .app()
            .ibc()
            .unacknowledged_packets(port, channel, sequences);
        self.respond(
            now,
            RequestProfile {
                kind: RequestKind::UnreceivedQuery,
                response_bytes: 128 + sequences.len() * 8,
                messages: 0,
                recv_heavy: false,
                items: 0,
            },
            unacked,
        )
    }

    /// A proof that this chain never received the given packet, used to build
    /// `MsgTimeout` on the counterparty.
    pub fn non_receipt_proof(
        &mut self,
        now: SimTime,
        port: &PortId,
        channel: &ChannelId,
        sequence: Sequence,
    ) -> RpcResponse<Option<NonMembershipProof>> {
        let proof = self
            .chain
            .borrow()
            .app()
            .ibc()
            .prove_packet_non_receipt(port, channel, sequence);
        self.respond(now, RequestProfile::small(RequestKind::ProofQuery), proof)
    }

    /// The block at `height` as the WebSocket subscription pushes it when
    /// the block commits, sized at its commit-time frame size (`None` for a
    /// height the chain has not reached). The frame-size limit is enforced
    /// by [`crate::websocket::WebSocketSubscription`].
    pub fn block_events(&self, height: u64) -> Option<BlockEventBatch> {
        let chain = self.chain.borrow();
        let block = chain.block_at(height)?;
        Some(BlockEventBatch {
            committed: Rc::clone(block),
            payload_bytes: block.events_payload_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcc_chain::chain::Chain;
    use xcc_chain::coin::Coin;
    use xcc_chain::genesis::GenesisConfig;
    use xcc_chain::msg::Msg;

    fn endpoint(latency_ms: u64) -> RpcEndpoint {
        let chain =
            Chain::new(GenesisConfig::new("chain-a").with_funded_accounts("user", 3, 100_000_000))
                .into_shared();
        RpcEndpoint::new(
            chain,
            RpcCostModel::default(),
            LatencyModel::constant_rtt_ms(latency_ms),
            DetRng::new(7),
        )
    }

    fn bank_tx(seq: u64) -> Tx {
        Tx::new(
            "user-0".into(),
            seq,
            vec![Msg::BankSend {
                from: "user-0".into(),
                to: "user-1".into(),
                amount: Coin::new("uatom", 1),
            }],
            "uatom",
        )
    }

    #[test]
    fn status_reports_chain_and_height() {
        let mut rpc = endpoint(0);
        let res = rpc.status(SimTime::ZERO);
        assert_eq!(res.value, ("chain-a".to_string(), 0));
        assert!(res.ready_at > SimTime::ZERO, "service time is never zero");
    }

    #[test]
    fn broadcast_enters_mempool_and_reports_errors() {
        let mut rpc = endpoint(0);
        let ok = rpc.broadcast_tx_sync(SimTime::ZERO, &bank_tx(0));
        assert!(ok.value.is_ok());
        assert_eq!(rpc.chain().borrow().mempool_size(), 1);

        // Stale sequence: the paper's "account sequence mismatch".
        let err = rpc
            .broadcast_tx_sync(SimTime::ZERO, &bank_tx(0))
            .value
            .unwrap_err();
        match err {
            BroadcastError::MempoolRejected { .. } => panic!("expected CheckTx failure"),
            BroadcastError::CheckTxFailed { log, .. } => {
                assert!(log.contains("account sequence mismatch"))
            }
        }
    }

    #[test]
    fn queries_are_served_sequentially() {
        let mut rpc = endpoint(0);
        // Two expensive queries issued at the same instant: the second waits.
        rpc.chain()
            .borrow_mut()
            .produce_block(SimTime::from_secs(5));
        let first = rpc.block_tx_results(SimTime::from_secs(5), 1);
        let second = rpc.block_tx_results(SimTime::from_secs(5), 1);
        assert!(second.ready_at > first.ready_at);
        assert_eq!(rpc.queries_served(), 2);
        assert!(rpc.busy_time() > SimDuration::ZERO);
        // The lane snapshot mirrors the live accessors and records that the
        // second query waited behind the first on this lane's queue.
        let lane = rpc.lane_stats();
        assert_eq!(lane.name, "rpc-chain-a");
        assert_eq!(lane.queries_served, 2);
        assert_eq!(lane.busy_time, rpc.busy_time());
        assert!(lane.total_wait > SimDuration::ZERO);
        assert!(lane.max_backlog >= lane.total_wait);
    }

    #[test]
    fn separate_lanes_do_not_queue_behind_each_other() {
        // Two endpoints on the same chain model two relayer processes'
        // independent RPC connections: the same two expensive queries issued
        // at the same instant each get an idle server.
        let chain =
            Chain::new(GenesisConfig::new("chain-a").with_funded_accounts("user", 3, 100_000_000))
                .into_shared();
        chain.borrow_mut().produce_block(SimTime::from_secs(5));
        let lane_of = |seed| {
            RpcEndpoint::new(
                chain.clone(),
                RpcCostModel::default(),
                LatencyModel::Zero,
                DetRng::new(seed),
            )
        };
        let mut a = lane_of(1);
        let mut b = lane_of(2);
        let shared_first = a.block_tx_results(SimTime::from_secs(5), 1);
        let own_lane = b.block_tx_results(SimTime::from_secs(5), 1);
        assert_eq!(
            own_lane.ready_at, shared_first.ready_at,
            "a process with its own lane pays no queueing behind its peer"
        );
        assert_eq!(a.lane_stats().total_wait, SimDuration::ZERO);
        assert_eq!(b.lane_stats().total_wait, SimDuration::ZERO);
    }

    #[test]
    fn network_latency_adds_a_round_trip() {
        let mut lan = endpoint(0);
        let mut wan = endpoint(200);
        let t0 = SimTime::ZERO;
        let lan_ready = lan.status(t0).ready_at;
        let wan_ready = wan.status(t0).ready_at;
        let diff = (wan_ready - t0).as_millis() as i64 - (lan_ready - t0).as_millis() as i64;
        assert!(
            (195..=205).contains(&diff),
            "round trip difference was {diff}ms"
        );
    }

    #[test]
    fn account_sequence_tracks_commits() {
        let mut rpc = endpoint(0);
        assert_eq!(
            rpc.account_sequence(SimTime::ZERO, &"user-0".into()).value,
            0
        );
        rpc.broadcast_tx_sync(SimTime::ZERO, &bank_tx(0))
            .value
            .unwrap();
        rpc.chain()
            .borrow_mut()
            .produce_block(SimTime::from_secs(5));
        assert_eq!(
            rpc.account_sequence(SimTime::from_secs(5), &"user-0".into())
                .value,
            1
        );
    }

    #[test]
    fn unconfirmed_sequence_tracks_the_mempool_window_and_the_check_reset() {
        let mut rpc = endpoint(0);
        let idle = rpc
            .account_sequence_unconfirmed(SimTime::ZERO, &"user-0".into())
            .value;
        assert_eq!(
            idle,
            UnconfirmedSequence {
                committed: 0,
                expected: 0,
                pending: 0
            }
        );

        // Two transactions enter the mempool: the check state runs ahead of
        // the committed state by exactly the unconfirmed window.
        rpc.broadcast_tx_sync(SimTime::ZERO, &bank_tx(0))
            .value
            .unwrap();
        rpc.broadcast_tx_sync(SimTime::ZERO, &bank_tx(1))
            .value
            .unwrap();
        let pending = rpc
            .account_sequence_unconfirmed(SimTime::ZERO, &"user-0".into())
            .value;
        assert_eq!(pending.committed, 0);
        assert_eq!(pending.expected, 2);
        assert_eq!(pending.pending, 2);

        // A block that commits only the first transaction (the second arrived
        // after the propose instant) resets the check state below the
        // unconfirmed window — the §V straddled-commit shape.
        let straddled = Tx::new(
            "user-0".into(),
            2,
            vec![Msg::BankSend {
                from: "user-0".into(),
                to: "user-1".into(),
                amount: Coin::new("uatom", 2),
            }],
            "uatom",
        );
        rpc.chain()
            .borrow_mut()
            .submit_tx(&straddled, SimTime::from_secs(10))
            .unwrap();
        rpc.chain()
            .borrow_mut()
            .produce_block(SimTime::from_secs(5));
        let after = rpc
            .account_sequence_unconfirmed(SimTime::from_secs(5), &"user-0".into())
            .value;
        assert_eq!(after.committed, 2, "the first two transactions committed");
        assert_eq!(
            after.pending, 1,
            "the straddled transaction is still pending"
        );
        assert_eq!(
            after.expected, 2,
            "the commit reset the check state below the unconfirmed window"
        );
    }

    #[test]
    fn block_tx_results_and_events_reflect_committed_txs() {
        let mut rpc = endpoint(0);
        let hash = rpc
            .broadcast_tx_sync(SimTime::ZERO, &bank_tx(0))
            .value
            .unwrap();
        rpc.chain()
            .borrow_mut()
            .produce_block(SimTime::from_secs(5));
        let results = rpc.block_tx_results(SimTime::from_secs(5), 1);
        let polled = results.value.unwrap();
        let txs: Vec<_> = polled.txs().collect();
        assert_eq!(txs.len(), 1);
        assert_eq!((txs[0].0, txs[0].1), (hash, 0));
        assert!(!txs[0].2.is_empty());

        // The pushed frame is the same block, sized without the response's
        // fixed part but with the per-transaction envelope.
        let pushed = rpc.block_events(1).unwrap();
        assert!(Rc::ptr_eq(&pushed.committed, &polled.committed));
        assert!(Rc::ptr_eq(
            &pushed.committed,
            rpc.chain().borrow().block_at(1).unwrap()
        ));
        assert_eq!(polled.payload_bytes, results.response_bytes);
        assert_eq!(pushed.payload_bytes + 512 - 64, polled.payload_bytes);
        // Unknown heights answer with no block rather than failing.
        let unknown = rpc.block_tx_results(SimTime::from_secs(5), 99);
        assert!(unknown.value.is_none());
        assert_eq!(unknown.response_bytes, 256);
        assert!(rpc.block_events(99).is_none());
    }

    #[test]
    fn tx_status_follows_lifecycle() {
        let mut rpc = endpoint(0);
        let tx = bank_tx(0);
        let hash = tx.hash();
        assert_eq!(rpc.tx_status(SimTime::ZERO, &hash).value, TxStatus::Unknown);
        rpc.broadcast_tx_sync(SimTime::ZERO, &tx).value.unwrap();
        assert_eq!(rpc.tx_status(SimTime::ZERO, &hash).value, TxStatus::Pending);
        rpc.chain()
            .borrow_mut()
            .produce_block(SimTime::from_secs(5));
        assert_eq!(
            rpc.tx_status(SimTime::from_secs(5), &hash).value,
            TxStatus::Committed
        );
    }

    /// Two chains joined by one transfer channel: `user-0` sent three
    /// packets from `chain-a` (block 2) and `chain-b` received them (block
    /// 2), so both directions have something to pull.
    fn relayed_pair() -> (SharedChain, SharedChain) {
        use xcc_ibc::channel::Order;
        use xcc_ibc::height::Height;
        use xcc_ibc::module::TransferParams;

        let chain = |id: &str| {
            let genesis = GenesisConfig::new(id)
                .with_account("relayer", 100_000_000)
                .with_funded_accounts("user", 1, 100_000_000);
            let chain = Chain::new(genesis).into_shared();
            chain.borrow_mut().produce_block(SimTime::from_secs(5));
            chain
        };
        let (a, b) = (chain("chain-a"), chain("chain-b"));
        let port = PortId::transfer();
        let channel = ChannelId::with_index(0);
        {
            let header = |c: &SharedChain| c.borrow().block_at(1).unwrap().block.header.clone();
            let root = |c: &SharedChain| c.borrow().app().ibc().commitment_root();
            let (header_a, header_b, root_a, root_b) = (header(&a), header(&b), root(&a), root(&b));
            let (mut a, mut b) = (a.borrow_mut(), b.borrow_mut());
            let (ibc_a, ibc_b) = (a.app_mut().ibc_mut(), b.app_mut().ibc_mut());
            let (client_a, _) = ibc_a.create_client(&header_b, root_b);
            let (client_b, _) = ibc_b.create_client(&header_a, root_a);
            let (conn_a, _) = ibc_a.conn_open_init(&client_a, &client_b).unwrap();
            let (conn_b, _) = ibc_b.conn_open_try(&client_b, &client_a, &conn_a).unwrap();
            ibc_a.conn_open_ack(&conn_a, &conn_b).unwrap();
            ibc_b.conn_open_confirm(&conn_b).unwrap();
            let (chan_a, _) = ibc_a
                .chan_open_init(&port, &conn_a, &port, Order::Unordered)
                .unwrap();
            let (chan_b, _) = ibc_b
                .chan_open_try(&port, &conn_b, &port, &chan_a, Order::Unordered)
                .unwrap();
            ibc_a.chan_open_ack(&port, &chan_a, &chan_b).unwrap();
            ibc_b.chan_open_confirm(&port, &chan_b).unwrap();
            assert_eq!((&chan_a, &chan_b), (&channel, &channel));
        }

        let transfer = |amount| {
            Msg::IbcTransfer(TransferParams {
                source_port: port.clone(),
                source_channel: channel.clone(),
                denom: "uatom".into(),
                amount,
                sender: "user-0".into(),
                receiver: "user-0".into(),
                timeout_height: Height::at(1_000),
                timeout_timestamp: SimTime::ZERO,
            })
        };
        let sends = Tx::new(
            "user-0".into(),
            0,
            vec![transfer(1), transfer(20), transfer(300)],
            "uatom",
        );
        a.borrow_mut().submit_tx(&sends, SimTime::ZERO).unwrap();
        a.borrow_mut().produce_block(SimTime::from_secs(10));

        // What a relayer does, without one: update the client, then deliver
        // the three packets with their proofs.
        let update = lane(&a).client_update_data(SimTime::ZERO).value.unwrap();
        let proof_height = Height::at(update.header.height);
        let recvs = {
            let chain = a.borrow();
            let ibc = chain.app().ibc();
            (1..=3)
                .map(|seq| Msg::IbcRecvPacket {
                    packet: ibc
                        .sent_packet(&port, &channel, seq.into())
                        .unwrap()
                        .clone(),
                    proof_commitment: ibc
                        .prove_packet_commitment(&port, &channel, seq.into())
                        .unwrap(),
                    proof_height,
                    signer: "relayer".into(),
                })
                .collect()
        };
        let update = Msg::IbcUpdateClient {
            client_id: xcc_ibc::ids::ClientId::with_index(0),
            update: Box::new(update),
            signer: "relayer".into(),
        };
        for (seq, msgs) in [(0, vec![update]), (1, recvs)] {
            let tx = Tx::new("relayer".into(), seq, msgs, "uatom");
            b.borrow_mut().submit_tx(&tx, SimTime::ZERO).unwrap();
        }
        b.borrow_mut().produce_block(SimTime::from_secs(10));
        let delivered = Rc::clone(b.borrow().block_at(2).unwrap());
        assert!(delivered.results.iter().all(|r| r.code == 0));
        (a, b)
    }

    fn lane(chain: &SharedChain) -> RpcEndpoint {
        RpcEndpoint::new(
            chain.clone(),
            RpcCostModel::default(),
            LatencyModel::constant_rtt_ms(200),
            DetRng::new(7),
        )
    }

    /// The data pulls answer with proofs (and acknowledgements) only, but
    /// are still *sized* as the packets plus the proofs: `response_bytes`
    /// and `ready_at` below are the numbers read at the commit before the
    /// pulls stopped shipping packets.
    #[test]
    fn data_pulls_answer_with_proofs_and_keep_their_size_and_service_time() {
        let (a, b) = relayed_pair();
        let (port, channel) = (PortId::transfer(), ChannelId::with_index(0));
        // Sequence 4 was never sent: it is skipped, not an error.
        let seqs: Vec<Sequence> = (1..=4).map(Sequence::from).collect();
        let now = SimTime::from_secs(10);

        let plain = lane(&a).pull_packet_data(now, 2, &port, &channel, &seqs);
        let batched = lane(&a).pull_packet_data_batched(now, 2, &port, &channel, &seqs);
        assert_eq!(plain.value, batched.value);
        {
            let chain = a.borrow();
            let ibc = chain.app().ibc();
            let expected: Vec<_> = seqs[..3]
                .iter()
                .map(|seq| {
                    let proof = ibc.prove_packet_commitment(&port, &channel, *seq);
                    (*seq, proof.unwrap())
                })
                .collect();
            assert_eq!(plain.value, expected);
        }
        assert_eq!((plain.response_bytes, batched.response_bytes), (2218, 2218));
        assert_eq!(plain.ready_at, SimTime::from_nanos(10_209_434_000));
        assert_eq!(batched.ready_at, SimTime::from_nanos(10_209_914_000));

        let plain = lane(&b).pull_ack_data(now, 2, &port, &channel, &seqs);
        let batched = lane(&b).pull_ack_data_batched(now, 2, &port, &channel, &seqs);
        assert_eq!(plain.value, batched.value);
        {
            let chain = b.borrow();
            let ibc = chain.app().ibc();
            let expected: Vec<_> = seqs[..3]
                .iter()
                .map(|seq| {
                    let ack = ibc.packet_acknowledgement(&port, &channel, *seq);
                    let proof = ibc.prove_packet_acknowledgement(&port, &channel, *seq);
                    (*seq, ack.unwrap().clone(), proof.unwrap())
                })
                .collect();
            assert_eq!(plain.value, expected);
        }
        assert_eq!((plain.response_bytes, batched.response_bytes), (1897, 1897));
        assert_eq!(plain.ready_at, SimTime::from_nanos(10_214_953_000));
        assert_eq!(batched.ready_at, SimTime::from_nanos(10_215_433_000));
    }

    #[test]
    fn client_update_data_requires_a_block() {
        let mut rpc = endpoint(0);
        assert!(rpc.client_update_data(SimTime::ZERO).value.is_none());
        rpc.chain()
            .borrow_mut()
            .produce_block(SimTime::from_secs(5));
        let update = rpc.client_update_data(SimTime::from_secs(5)).value.unwrap();
        assert_eq!(update.header.height, 1);
        assert_eq!(update.commit.height, 1);
    }
}
