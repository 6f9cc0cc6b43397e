//! The simulated Tendermint RPC endpoint served by a full node.
//!
//! The endpoint serves its queries one at a time, first come first served,
//! on one [`Server`]: a query arriving at `t` with service time `s` is done
//! at `server.start(t) + s`. That single server is the root cause of the
//! data-pull bottleneck the paper measures. Every method returns an
//! [`RpcResponse`] carrying both the result and the simulated time at which
//! the caller receives it (queueing + service + network round trip).

use xcc_chain::account::AccountId;
use xcc_chain::chain::SharedChain;
use xcc_chain::tx::Tx;
use xcc_ibc::client::ClientUpdate;
use xcc_ibc::commitment::{CommitmentProof, NonMembershipProof};
use xcc_ibc::ids::{ChannelId, PortId, Sequence};
use xcc_ibc::packet::Acknowledgement;
use xcc_sim::{server::Server, SimDuration, SimTime};
use xcc_tendermint::hash::Hash;
use xcc_tendermint::node::Refused;

use crate::cost::{RequestKind, RequestProfile};

pub use lane::RpcResponse;

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

/// One RPC lane's accounting: every process owns one lane per chain, its own
/// FIFO server, so no process queues behind another's queries. A snapshot
/// ([`lane_stats`](RpcEndpoint::lane_stats)) is named by its position.
pub use xcc_sim::server::ServerStats as LaneStats;

/// A Tendermint RPC endpoint bound to one chain's full node.
#[derive(Debug)]
pub struct RpcEndpoint {
    chain: SharedChain,
    /// The lane: the node's single server for this connection's queries.
    server: Server,
    one_way: SimDuration,
}

impl RpcEndpoint {
    /// Creates an endpoint for `chain`, `one_way` of network delay away from
    /// its callers in each direction.
    pub fn new(chain: SharedChain, one_way: SimDuration) -> Self {
        RpcEndpoint {
            chain,
            server: Server::default(),
            one_way,
        }
    }

    /// The chain this endpoint serves.
    pub fn chain(&self) -> &SharedChain {
        &self.chain
    }

    /// A snapshot of this lane's accounting.
    pub fn lane_stats(&self) -> LaneStats {
        self.server.stats()
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
        let profile = RequestProfile {
            items: mempool_size,
            ..RequestProfile::small(RequestKind::UnconfirmedAccountQuery)
        };
        self.respond(now, profile, snapshot)
    }

    /// `broadcast_tx_sync`: submit a transaction to the mempool. The
    /// transaction's one encoding is moved out ([`Tx::take_encoded`]) and
    /// goes to the node beside the transaction, which `CheckTx` and
    /// `DeliverTx` run on; a refusal is the node's own [`Refused`], which
    /// gives the transaction back.
    pub fn broadcast_tx_sync(
        &mut self,
        now: SimTime,
        mut tx: Tx,
    ) -> RpcResponse<Result<Hash, Refused<Tx>>> {
        let msg_count = tx.msg_count();
        // The transaction reaches the node one network hop after the caller
        // sends it; blocks proposed before that instant cannot include it.
        let arrival = now + self.one_way;
        let raw = tx.take_encoded();
        let value = self.chain.borrow_mut().submit_tx(raw, tx, arrival);
        let profile = RequestProfile {
            response_bytes: 256,
            messages: msg_count,
            ..RequestProfile::small(RequestKind::BroadcastTxSync)
        };
        self.respond(now, profile, value)
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
        let Some(end) = chain.app().ibc().end(port, channel) else {
            return (out, bytes);
        };
        for seq in sequences {
            if let (Some(packet), Some(proof)) = (end.sent_packet(*seq), end.prove_commitment(*seq))
            {
                bytes += packet.encoded_size() + proof.encoded_size();
                out.push((*seq, proof));
            }
        }
        (out, bytes)
    }

    /// A batched variant of [`pull_packet_data`](RpcEndpoint::pull_packet_data)
    /// covering an arbitrary number of sequences in one query: the block scan
    /// is paid once for the whole batch, with a per-item pagination surcharge
    /// (see [`BATCHED_PULL_PER_ITEM`](crate::cost::BATCHED_PULL_PER_ITEM)).
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
        let Some(end) = chain.app().ibc().end(port, channel) else {
            return (out, bytes);
        };
        for seq in sequences {
            if let (Some(ack), Some(proof)) =
                (end.acknowledgement(*seq), end.prove_acknowledgement(*seq))
            {
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
        let profile = RequestProfile {
            response_bytes: 2_048,
            ..RequestProfile::small(RequestKind::ClientUpdateData)
        };
        self.respond(now, profile, update)
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
        let profile = RequestProfile {
            response_bytes: 128 + sequences.len() * 8,
            ..RequestProfile::small(RequestKind::UnreceivedQuery)
        };
        self.respond(now, profile, unreceived)
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
        let profile = RequestProfile {
            response_bytes: 128 + sequences.len() * 8,
            ..RequestProfile::small(RequestKind::UnreceivedQuery)
        };
        self.respond(now, profile, unacked)
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
}

/// The lane: the response type and its one constructor. `RpcResponse`'s
/// private field keeps every other module, this file's included, from
/// building a response that no lane priced.
mod lane {
    use xcc_sim::{prof, SimTime};

    use super::RpcEndpoint;
    use crate::cost::{service_time, RequestProfile};

    /// A response from the RPC endpoint: the value plus when it arrives at
    /// the caller.
    ///
    /// Only [`RpcEndpoint`]'s lane builds one, after pricing its
    /// [`RequestProfile`], so a response cannot skip the queue:
    ///
    /// ```compile_fail
    /// use xcc_rpc::endpoint::RpcResponse;
    /// use xcc_sim::SimTime;
    ///
    /// let free = RpcResponse { value: 7u64, ready_at: SimTime::ZERO, response_bytes: 0 };
    /// ```
    #[derive(Debug, Clone, PartialEq)]
    #[expect(
        clippy::manual_non_exhaustive,
        reason = "`#[non_exhaustive]` binds other crates only; the private field binds the rest \
                  of this one too"
    )]
    pub struct RpcResponse<T> {
        /// The response payload.
        pub value: T,
        /// Simulated time at which the caller has the response in hand.
        pub ready_at: SimTime,
        /// Estimated size of the response in bytes.
        pub response_bytes: usize,
        priced: (),
    }

    impl RpcEndpoint {
        /// Serves one request on the lane's server: prices `profile`, queues
        /// it and answers `value` when the server is done plus the trip back.
        pub(super) fn respond<T>(
            &mut self,
            now: SimTime,
            profile: RequestProfile,
            value: T,
        ) -> RpcResponse<T> {
            prof::bump_rpc_call(profile.kind.index());
            let service = service_time(&profile);
            let done = self.server.serve(now + self.one_way, service);
            RpcResponse {
                value,
                ready_at: done + self.one_way,
                response_bytes: profile.response_bytes,
                priced: (),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;
    use crate::cost::service_time;
    use xcc_chain::ante;
    use xcc_chain::coin::Coin;
    use xcc_chain::genesis::GenesisConfig;
    use xcc_chain::msg::Msg;
    use xcc_ibc::packet::Packet;
    use xcc_sim::prof;
    use xcc_tendermint::node::SubmitError;

    fn shared(genesis: GenesisConfig) -> SharedChain {
        Rc::new(RefCell::new(genesis.into_chain()))
    }

    /// Hands `tx` to the node directly, past any lane.
    fn submit(chain: &SharedChain, mut tx: Tx, at: SimTime) {
        let raw = tx.take_encoded();
        chain.borrow_mut().submit_tx(raw, tx, at).unwrap();
    }

    fn endpoint(rtt_ms: u64) -> RpcEndpoint {
        let chain =
            shared(GenesisConfig::new("chain-a").with_funded_accounts("user", 3, 100_000_000));
        RpcEndpoint::new(chain, SimDuration::from_millis(rtt_ms / 2))
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
    fn broadcast_enters_mempool_and_reports_errors() {
        let mut rpc = endpoint(0);
        let sent = bank_tx(0);
        let hash = sent.hash();
        let ok = rpc.broadcast_tx_sync(SimTime::ZERO, sent);
        assert_eq!(ok.value.unwrap(), hash);
        assert_eq!(rpc.chain().borrow().mempool_size(), 1);

        // Stale sequence: the paper's "account sequence mismatch". The
        // refusal hands the transaction back as it was sent.
        let refused = rpc
            .broadcast_tx_sync(SimTime::ZERO, bank_tx(0))
            .value
            .unwrap_err();
        assert!(matches!(
            refused.error,
            SubmitError::CheckTxFailed {
                code: ante::CODE_SEQUENCE_MISMATCH,
                ..
            }
        ));
        let tx = &refused.tx;
        assert_eq!(
            (tx.signer.as_str(), tx.sequence, tx.msg_count()),
            ("user-0", 0, 1)
        );
        assert_eq!(**tx, bank_tx(0));
        assert_eq!(rpc.chain().borrow().mempool_size(), 1);
    }

    /// The service time of one account-sequence query.
    fn query_service() -> SimDuration {
        service_time(&RequestProfile::small(RequestKind::AccountQuery))
    }

    #[test]
    fn an_idle_lane_serves_at_once() {
        let mut rpc = endpoint(0);
        let at = SimTime::from_secs(10);
        let done = rpc.account_sequence(at, &"user-0".into());
        assert_eq!(done.ready_at, at + query_service());
        let lane = rpc.lane_stats();
        assert_eq!(lane.total_wait, SimDuration::ZERO);
        assert_eq!(lane.busy_time, query_service());
    }

    #[test]
    fn queries_are_served_sequentially() {
        // Three queries issued at the same instant: each waits for the one
        // before it.
        let mut rpc = endpoint(0);
        let s = query_service();
        let user = "user-0".into();
        let done: Vec<SimTime> = (0..3)
            .map(|_| rpc.account_sequence(SimTime::ZERO, &user).ready_at)
            .collect();
        assert_eq!(
            done,
            vec![
                SimTime::ZERO + s,
                SimTime::ZERO + s * 2,
                SimTime::ZERO + s * 3
            ]
        );
        let lane = rpc.lane_stats();
        assert_eq!(lane.served, 3);
        assert_eq!(lane.busy_time, s * 3);
        assert_eq!(lane.total_wait, s * 3, "0 + s + 2s");
        assert_eq!(lane.max_backlog, s * 3, "the largest sojourn");
        // A query after the lane went idle waits nothing, and its shorter
        // sojourn leaves the largest one standing.
        let at = SimTime::from_secs(5);
        assert_eq!(rpc.account_sequence(at, &user).ready_at, at + s);
        let lane = rpc.lane_stats();
        assert_eq!(lane.total_wait, s * 3);
        assert_eq!(lane.max_backlog, s * 3);
    }

    #[test]
    fn separate_lanes_do_not_queue_behind_each_other() {
        // Two endpoints on the same chain model two relayer processes'
        // independent RPC connections: the same two queries issued at the
        // same instant each get an idle server.
        let chain =
            shared(GenesisConfig::new("chain-a").with_funded_accounts("user", 3, 100_000_000));
        let lane_of = || RpcEndpoint::new(chain.clone(), SimDuration::ZERO);
        let mut a = lane_of();
        let mut b = lane_of();
        let user = "user-0".into();
        let shared_first = a.account_sequence(SimTime::ZERO, &user);
        let own_lane = b.account_sequence(SimTime::ZERO, &user);
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
        let user = "user-0".into();
        let lan_ready = lan.account_sequence(t0, &user).ready_at;
        let wan_ready = wan.account_sequence(t0, &user).ready_at;
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
        rpc.broadcast_tx_sync(SimTime::ZERO, bank_tx(0))
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
        rpc.broadcast_tx_sync(SimTime::ZERO, bank_tx(0))
            .value
            .unwrap();
        rpc.broadcast_tx_sync(SimTime::ZERO, bank_tx(1))
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
        submit(rpc.chain(), straddled, SimTime::from_secs(10));
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

    /// Two chains joined by one transfer channel: `user-0` sent three
    /// packets from `chain-a` (block 2) and `chain-b` received them (block
    /// 2), so both directions have something to pull.
    fn relayed_pair() -> (SharedChain, SharedChain) {
        use xcc_ibc::height::Height;
        use xcc_ibc::module::TransferParams;

        let chain = |id: &str| {
            let genesis = GenesisConfig::new(id)
                .with_account("relayer", 100_000_000)
                .with_funded_accounts("user", 1, 100_000_000);
            let chain = shared(genesis);
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
            let (chan_a, _) = ibc_a.chan_open_init(&port, &conn_a, &port).unwrap();
            let (chan_b, _) = ibc_b.chan_open_try(&port, &conn_b, &port, &chan_a).unwrap();
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
        submit(&a, sends, SimTime::ZERO);
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
                    packet: Packet::clone(
                        ibc.end(&port, &channel)
                            .and_then(|end| end.sent_packet(seq.into()))
                            .unwrap(),
                    ),
                    proof_commitment: ibc
                        .end(&port, &channel)
                        .and_then(|end| end.prove_commitment(seq.into()))
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
            submit(&b, tx, SimTime::ZERO);
        }
        b.borrow_mut().produce_block(SimTime::from_secs(10));
        let delivered = Rc::clone(b.borrow().block_at(2).unwrap());
        assert!(delivered.results.iter().all(|r| r.code == 0));
        (a, b)
    }

    fn lane(chain: &SharedChain) -> RpcEndpoint {
        RpcEndpoint::new(chain.clone(), SimDuration::from_millis(100))
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
                    let proof = ibc
                        .end(&port, &channel)
                        .and_then(|end| end.prove_commitment(*seq));
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
                    let ack = ibc
                        .end(&port, &channel)
                        .and_then(|end| end.acknowledgement(*seq));
                    let proof = ibc
                        .end(&port, &channel)
                        .and_then(|end| end.prove_acknowledgement(*seq));
                    (*seq, ack.unwrap().clone(), proof.unwrap())
                })
                .collect();
            assert_eq!(plain.value, expected);
        }
        assert_eq!((plain.response_bytes, batched.response_bytes), (1897, 1897));
        assert_eq!(plain.ready_at, SimTime::from_nanos(10_214_953_000));
        assert_eq!(batched.ready_at, SimTime::from_nanos(10_215_433_000));
    }

    /// Every `pub` RPC method, called once, issues every `RequestKind`: a
    /// kind that is priced but that no method issues fails here.
    #[test]
    fn every_request_kind_is_issued_by_a_method() {
        let (a, b) = relayed_pair();
        let (port, channel) = (PortId::transfer(), ChannelId::with_index(0));
        let seqs: Vec<Sequence> = (1..=3).map(Sequence::from).collect();
        let (now, user) = (SimTime::from_secs(10), "user-0".into());
        let (mut a, mut b) = (lane(&a), lane(&b));
        prof::reset();
        a.account_sequence(now, &user);
        a.account_sequence_unconfirmed(now, &user);
        a.broadcast_tx_sync(now, bank_tx(1));
        a.pull_packet_data(now, 2, &port, &channel, &seqs);
        a.pull_packet_data_batched(now, 2, &port, &channel, &seqs);
        b.pull_ack_data(now, 2, &port, &channel, &seqs);
        b.pull_ack_data_batched(now, 2, &port, &channel, &seqs);
        a.client_update_data(now);
        b.unreceived_packets(now, &port, &channel, &seqs);
        a.unacknowledged_packets(now, &port, &channel, &seqs);
        b.non_receipt_proof(now, &port, &channel, Sequence::from(4));
        let calls = prof::snapshot().rpc_calls;
        for kind in RequestKind::ALL {
            assert!(
                calls[kind.index()] > 0,
                "no RpcEndpoint method issues {kind:?}"
            );
        }
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
