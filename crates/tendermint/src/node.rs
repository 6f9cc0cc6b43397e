//! A full node: consensus state machine, mempool and block store driving an
//! ABCI application.
//!
//! The node is a pure state machine — it never blocks or sleeps. The caller
//! (the chain driver in `xcc-chain`, itself driven by the experiment
//! scheduler) asks it to produce blocks at the appropriate simulated times,
//! and the node reports how long consensus and block processing took so the
//! driver can schedule the next block.

// xcc-lint: allow(hash-collections, reason = "tx_index is a point-lookup index; iteration never observes it")
use std::collections::HashMap;
use std::rc::Rc;

use crate::abci::{Application, DeliverTxResult};
use crate::block::{evidence_hash, Block, BlockId, Data, Header, RawTx, Version};
use crate::hash::{FieldHasher, Hash};
use crate::mempool::{Mempool, MempoolConfig, MempoolError, PendingTx};
use crate::params::{ConsensusParams, ConsensusTimingModel};
use crate::validator::ValidatorSet;
use crate::vote::{Commit, CommitSig};
use xcc_sim::{SimDuration, SimTime};

/// Why a transaction submission was rejected by the node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The application's `CheckTx` rejected the transaction.
    CheckTxFailed {
        /// Application error code.
        code: u32,
        /// Application error log.
        log: String,
    },
    /// The mempool refused the transaction.
    Mempool(MempoolError),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::CheckTxFailed { code, log } => {
                write!(f, "check_tx failed with code {code}: {log}")
            }
            SubmitError::Mempool(e) => write!(f, "mempool rejected tx: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

impl From<MempoolError> for SubmitError {
    fn from(e: MempoolError) -> Self {
        SubmitError::Mempool(e)
    }
}

/// The stored outcome of executing one block. The block store holds each one
/// behind an [`Rc`], and every reader of what the block did — the WebSocket
/// feed, the polling query, the analysis pass — shares that one allocation.
#[derive(Debug, Clone)]
pub struct CommittedBlock {
    /// The block itself.
    pub block: Block,
    /// Per-transaction execution results, in block order (parallel to
    /// `block.data.txs`, whose hashes were memoized at mempool admission).
    pub results: Vec<DeliverTxResult>,
    /// When the block was committed (consensus finished).
    pub committed_at: SimTime,
    /// Encoded size of the event payload plus raw transactions, as carried
    /// by a WebSocket frame (the §V frame-size accounting).
    pub events_payload_bytes: usize,
}

/// Summary of a freshly produced block, returned to the driver.
#[derive(Debug, Clone)]
pub struct BlockOutcome {
    /// Height of the new block.
    pub height: u64,
    /// Identifier of the new block.
    pub block_id: BlockId,
    /// Number of transactions included.
    pub tx_count: usize,
    /// Number of application messages included (as reported by the app
    /// through gas accounting; here: sum over txs of their event count).
    pub included_messages: u64,
    /// When consensus on this block completed.
    pub committed_at: SimTime,
    /// Consensus plus processing time spent on this block.
    pub work: SimDuration,
    /// Number of transactions still pending in the mempool afterwards.
    pub mempool_remaining: usize,
}

/// A Tendermint full node wrapping an ABCI application.
pub struct Node<A: Application> {
    chain_id: String,
    params: ConsensusParams,
    timing: ConsensusTimingModel,
    validators: ValidatorSet,
    app: A,
    mempool: Mempool<A::Decoded>,
    blocks: Vec<Rc<CommittedBlock>>,
    // xcc-lint: allow(hash-collections, reason = "hash -> (height, index) point lookups only; never iterated")
    tx_index: HashMap<Hash, (u64, usize)>,
    last_app_hash: Hash,
    last_results_hash: Hash,
    last_commit: Option<Commit>,
    last_block_time: SimTime,
}

impl<A: Application> Node<A> {
    /// Creates a node at genesis (height 0, no blocks yet).
    pub fn new(
        chain_id: impl Into<String>,
        validators: ValidatorSet,
        params: ConsensusParams,
        timing: ConsensusTimingModel,
        mempool_config: MempoolConfig,
        app: A,
    ) -> Self {
        Node {
            chain_id: chain_id.into(),
            params,
            timing,
            validators,
            app,
            mempool: Mempool::new(mempool_config),
            blocks: Vec::new(),
            // xcc-lint: allow(hash-collections, reason = "point-lookup index, see field declaration")
            tx_index: HashMap::new(),
            last_app_hash: Hash::ZERO,
            last_results_hash: Hash::ZERO,
            last_commit: None,
            last_block_time: SimTime::ZERO,
        }
    }

    /// The chain identifier.
    pub fn chain_id(&self) -> &str {
        &self.chain_id
    }

    /// Current height (number of committed blocks).
    pub fn height(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// The validator set.
    pub fn validators(&self) -> &ValidatorSet {
        &self.validators
    }

    /// The consensus parameters.
    pub fn params(&self) -> &ConsensusParams {
        &self.params
    }

    /// The consensus timing model.
    pub fn timing(&self) -> &ConsensusTimingModel {
        &self.timing
    }

    /// Immutable access to the application.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Mutable access to the application (used by test fixtures and by the
    /// chain driver for state queries).
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.app
    }

    /// Number of transactions currently pending in the mempool.
    pub fn mempool_size(&self) -> usize {
        self.mempool.len()
    }

    /// Number of mempool transactions from one sender: the unconfirmed part
    /// of that account's sequence window, surfaced so the RPC layer can
    /// answer mempool-aware account-sequence queries (§V's sequence race).
    pub fn mempool_pending_from(&self, sender: &str) -> usize {
        self.mempool.pending_from(sender)
    }

    /// The committed block at `height`, if any (heights start at 1).
    pub fn block_at(&self, height: u64) -> Option<&Rc<CommittedBlock>> {
        if height == 0 {
            return None;
        }
        self.blocks.get(height as usize - 1)
    }

    /// The most recently committed block, if any.
    pub fn latest_block(&self) -> Option<&Rc<CommittedBlock>> {
        self.blocks.last()
    }

    /// When the latest block was committed ([`SimTime::ZERO`] before the
    /// first block).
    pub fn last_block_time(&self) -> SimTime {
        self.last_block_time
    }

    /// Finds a committed transaction by hash, returning its height, index in
    /// the block, and execution result.
    pub fn find_tx(&self, hash: &Hash) -> Option<(u64, usize, &DeliverTxResult)> {
        let (height, index) = *self.tx_index.get(hash)?;
        let block = self.block_at(height)?;
        block.results.get(index).map(|r| (height, index, r))
    }

    /// Whether a transaction is known, either committed or pending.
    pub fn tx_status(&self, hash: &Hash) -> TxStatus {
        if self.tx_index.contains_key(hash) {
            TxStatus::Committed
        } else if self.mempool.contains(hash) {
            TxStatus::Pending
        } else {
            TxStatus::Unknown
        }
    }

    /// Submits a transaction: runs `CheckTx` and, on success, adds it to the
    /// mempool together with the application's decoded form of it, which
    /// `produce_block` hands back to `DeliverTx`. A refused transaction
    /// leaves nothing behind.
    ///
    /// # Errors
    ///
    /// Fails when `CheckTx` rejects the transaction or the mempool is full.
    pub fn submit_tx(&mut self, tx: RawTx, now: SimTime) -> Result<Hash, SubmitError> {
        let (check, decoded) = self.app.check_tx(&tx);
        if !check.is_ok() {
            return Err(SubmitError::CheckTxFailed {
                code: check.code,
                log: check.log,
            });
        }
        let hash = tx.hash();
        self.mempool.add(PendingTx {
            tx,
            decoded,
            gas_wanted: check.gas_wanted,
            sender: check.sender,
            sequence: check.sequence,
            received_at: now,
        })?;
        Ok(hash)
    }

    /// Produces, executes and commits the next block, reaping the mempool at
    /// `propose_time`.
    ///
    /// Returns a summary including the simulated commit time, which accounts
    /// for consensus latency and block processing per the timing model.
    pub fn produce_block(&mut self, propose_time: SimTime) -> BlockOutcome {
        let height = self.height() + 1;
        let reaped = self.mempool.reap_before(
            self.params.max_block_gas,
            self.params.max_block_bytes,
            self.params.max_block_txs,
            propose_time,
        );
        // The reaped entries are owned: the payloads move into the block and
        // each decoded form moves into its `DeliverTx`, nothing is copied.
        let (txs, decoded): (Vec<RawTx>, Vec<Option<A::Decoded>>) =
            reaped.into_iter().map(|p| (p.tx, p.decoded)).unzip();
        let data = Data { txs };
        let proposer = self.validators.proposer(height, 0).address;

        let header = Header {
            version: Version::default(),
            chain_id: self.chain_id.clone(),
            height,
            time: propose_time,
            last_block_id: self
                .blocks
                .last()
                .map(|b| b.block.block_id())
                .unwrap_or(BlockId { hash: Hash::ZERO }),
            last_commit_hash: self
                .last_commit
                .as_ref()
                .map(Commit::hash)
                .unwrap_or(Hash::ZERO),
            data_hash: data.hash(),
            validators_hash: self.validators.hash(),
            next_validators_hash: self.validators.hash(),
            consensus_hash: self.params.hash(),
            app_hash: self.last_app_hash,
            last_results_hash: self.last_results_hash,
            evidence_hash: evidence_hash(&[]),
            proposer_address: proposer,
        };

        // Execute the block against the application.
        self.app.begin_block(&header);
        let mut results = Vec::with_capacity(data.txs.len());
        let mut included_messages = 0u64;
        for (tx, decoded) in data.txs.iter().zip(decoded) {
            let result = self.app.deliver_tx(tx, decoded);
            included_messages += result.events.len() as u64;
            results.push(result);
        }
        self.app.end_block(height);
        let new_app_hash = self.app.commit();

        let block = Block {
            header: header.clone(),
            data,
            evidence: vec![],
            last_commit: self.last_commit.clone(),
        };
        debug_assert!(block.validate_basic().is_ok());
        let block_id = block.block_id();
        let block_bytes = block.byte_size();

        // All validators sign: the paper's testnet has no faults.
        let commit = Commit {
            height,
            round: 0,
            block_id,
            signatures: self
                .validators
                .validators()
                .iter()
                .map(|v| CommitSig::for_block(v.address, height, 0, &block_id, propose_time))
                .collect(),
        };

        // Account for rechecking whatever the proposal left in the mempool
        // against the new state.
        let mempool_remaining = self.mempool.len();

        let work = self.timing.consensus_latency(self.validators.len())
            + self
                .timing
                .block_processing_time(included_messages, block_bytes, mempool_remaining);
        let committed_at = propose_time + work;

        // Index transactions (their hashes were memoized at mempool
        // admission) and store the block.
        for (i, tx) in block.data.txs.iter().enumerate() {
            self.tx_index.insert(tx.hash(), (height, i));
        }
        self.last_results_hash = results_hash(&results);
        self.last_app_hash = new_app_hash;
        self.last_commit = Some(commit);
        self.last_block_time = committed_at;
        let tx_count = block.data.txs.len();
        let events_payload_bytes = block
            .data
            .txs
            .iter()
            .zip(&results)
            .map(|(tx, result)| result.encoded_size() + 64 + tx.len())
            .sum();
        self.blocks.push(Rc::new(CommittedBlock {
            block,
            results,
            committed_at,
            events_payload_bytes,
        }));

        BlockOutcome {
            height,
            block_id,
            tx_count,
            included_messages,
            committed_at,
            work,
            mempool_remaining,
        }
    }

    /// The commit certifying the block at `height`, if that block exists and
    /// a subsequent block has been produced (its `LastCommit`), or the
    /// node-held commit for the latest block.
    pub fn commit_for(&self, height: u64) -> Option<&Commit> {
        if height == self.height() {
            self.last_commit.as_ref()
        } else {
            self.block_at(height + 1)
                .and_then(|b| b.block.last_commit.as_ref())
        }
    }
}

impl<A: Application> std::fmt::Debug for Node<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("chain_id", &self.chain_id)
            .field("height", &self.height())
            .field("mempool", &self.mempool.len())
            .finish()
    }
}

/// Whether a transaction is committed, pending, or unknown to the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxStatus {
    /// The transaction is in a committed block.
    Committed,
    /// The transaction is waiting in the mempool.
    Pending,
    /// The node has never seen the transaction.
    Unknown,
}

fn results_hash(results: &[DeliverTxResult]) -> Hash {
    let mut hasher = FieldHasher::new();
    for result in results {
        hasher.field_parts(&[&result.code.to_be_bytes(), &result.gas_used.to_be_bytes()]);
    }
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abci::{CheckTxResult, Event};
    use crate::hash::{hash_fields, sha256};
    use std::rc::{Rc, Weak};

    /// A minimal counter application for node tests: every transaction is
    /// accepted and emits one event.
    #[derive(Debug, Default)]
    struct CounterApp {
        delivered: u64,
        committed: u64,
        /// `(first byte, decoded form received)` per delivered transaction.
        handed_over: Vec<(u8, Option<u8>)>,
        /// Every decoded form `check_tx` ever returned; one that is still
        /// alive is held by the node.
        issued: Vec<Weak<u8>>,
    }

    impl CounterApp {
        fn decoded_forms_held_by_the_node(&self) -> usize {
            self.issued.iter().filter(|d| d.strong_count() > 0).count()
        }
    }

    impl Application for CounterApp {
        /// The transaction's first byte, returned for every transaction
        /// except accepted odd ones, so both hand-off arms run.
        type Decoded = Rc<u8>;

        fn check_tx(&mut self, tx: &RawTx) -> (CheckTxResult, Option<Rc<u8>>) {
            let first = tx.as_bytes().first().copied().unwrap_or(0);
            let decoded = Rc::new(first);
            self.issued.push(Rc::downgrade(&decoded));
            if first == 0xff {
                let rejected = CheckTxResult {
                    code: 1,
                    log: "rejected by app".into(),
                    gas_wanted: 0,
                    sender: String::new(),
                    sequence: 0,
                };
                // A decoded form returned with a rejection must be dropped.
                return (rejected, Some(decoded));
            }
            let accepted = CheckTxResult {
                code: 0,
                log: String::new(),
                gas_wanted: 1_000,
                sender: format!("sender-{first}"),
                sequence: 0,
            };
            (accepted, (first % 2 == 0).then_some(decoded))
        }

        fn begin_block(&mut self, _header: &Header) {}

        fn deliver_tx(&mut self, tx: &RawTx, decoded: Option<Rc<u8>>) -> DeliverTxResult {
            self.delivered += 1;
            self.handed_over
                .push((tx.as_bytes()[0], decoded.map(|d| *d)));
            DeliverTxResult {
                code: 0,
                log: String::new(),
                gas_used: 900,
                gas_wanted: 1_000,
                events: vec![Event::new("counted")],
            }
        }

        fn end_block(&mut self, _height: u64) {}

        fn commit(&mut self) -> Hash {
            self.committed += 1;
            hash_fields(&[b"counter-app", &self.delivered.to_be_bytes()])
        }
    }

    fn test_node() -> Node<CounterApp> {
        Node::new(
            "test-chain",
            ValidatorSet::with_equal_power(5, 10),
            ConsensusParams::default(),
            ConsensusTimingModel::default(),
            MempoolConfig::default(),
            CounterApp::default(),
        )
    }

    #[test]
    fn empty_blocks_advance_height_and_chain_linkage() {
        let mut node = test_node();
        let b1 = node.produce_block(SimTime::from_secs(5));
        let b2 = node.produce_block(SimTime::from_secs(10));
        assert_eq!(b1.height, 1);
        assert_eq!(b2.height, 2);
        assert_eq!(node.height(), 2);
        let block2 = node.block_at(2).unwrap();
        assert_eq!(block2.block.header.last_block_id, b1.block_id);
        // Block 2 carries the commit for block 1.
        assert_eq!(block2.block.last_commit.as_ref().unwrap().height, 1);
        assert_eq!(
            block2.block.last_commit.as_ref().unwrap().block_id,
            b1.block_id
        );
    }

    #[test]
    fn submitted_txs_are_included_and_indexed() {
        let mut node = test_node();
        let tx = RawTx::new(vec![1, 2, 3]);
        let hash = node.submit_tx(tx, SimTime::ZERO).unwrap();
        assert_eq!(node.tx_status(&hash), TxStatus::Pending);
        let outcome = node.produce_block(SimTime::from_secs(5));
        assert_eq!(outcome.tx_count, 1);
        assert_eq!(node.tx_status(&hash), TxStatus::Committed);
        let (height, index, result) = node.find_tx(&hash).unwrap();
        assert_eq!((height, index), (1, 0));
        assert!(result.is_ok());
        assert_eq!(node.mempool_size(), 0);
    }

    #[test]
    fn decoded_forms_reach_deliver_tx_and_raw_submissions_still_deliver() {
        let mut node = test_node();
        // 2 and 4 carry a decoded form; 3 is admitted without one.
        for first in [2u8, 3, 4] {
            node.submit_tx(RawTx::new(vec![first]), SimTime::ZERO)
                .unwrap();
        }
        assert_eq!(node.app().decoded_forms_held_by_the_node(), 2);
        let outcome = node.produce_block(SimTime::from_secs(5));
        assert_eq!(outcome.tx_count, 3);
        assert_eq!(
            node.app().handed_over,
            [(2, Some(2)), (3, None), (4, Some(4))]
        );
        assert_eq!(node.mempool_size(), 0);
        // Moved into `deliver_tx`, not copied: the committed block keeps the
        // raw transactions only.
        assert_eq!(node.app().decoded_forms_held_by_the_node(), 0);
        assert_eq!(node.block_at(1).unwrap().block.data.txs.len(), 3);
    }

    #[test]
    fn check_tx_rejection_propagates() {
        let mut node = test_node();
        let err = node
            .submit_tx(RawTx::new(vec![0xff]), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, SubmitError::CheckTxFailed { code: 1, .. }));
        assert_eq!(node.mempool_size(), 0);
        assert_eq!(node.app().decoded_forms_held_by_the_node(), 0);
    }

    #[test]
    fn duplicate_submission_is_rejected_by_mempool() {
        let mut node = test_node();
        let tx = RawTx::new(vec![8]);
        node.submit_tx(tx.clone(), SimTime::ZERO).unwrap();
        let err = node.submit_tx(tx, SimTime::ZERO).unwrap_err();
        assert!(matches!(
            err,
            SubmitError::Mempool(MempoolError::AlreadyPending)
        ));
        // The refused copy left nothing behind: one entry, one decoded form.
        assert_eq!(node.mempool_size(), 1);
        assert_eq!(node.app().decoded_forms_held_by_the_node(), 1);
    }

    #[test]
    fn block_commit_time_includes_consensus_latency() {
        let mut node = test_node();
        let outcome = node.produce_block(SimTime::from_secs(5));
        assert!(outcome.committed_at > SimTime::from_secs(5));
        assert!(outcome.work >= node.timing().consensus_latency(5));
    }

    #[test]
    fn commit_for_latest_and_historic_heights() {
        let mut node = test_node();
        node.produce_block(SimTime::from_secs(5));
        node.produce_block(SimTime::from_secs(10));
        assert_eq!(node.commit_for(2).unwrap().height, 2);
        assert_eq!(node.commit_for(1).unwrap().height, 1);
        assert!(node.commit_for(5).is_none());
    }

    #[test]
    fn unknown_tx_status() {
        let node = test_node();
        assert_eq!(
            node.tx_status(&RawTx::new(vec![9]).hash()),
            TxStatus::Unknown
        );
        assert!(node.find_tx(&RawTx::new(vec![9]).hash()).is_none());
    }

    #[test]
    fn gas_limit_defers_excess_txs_to_next_block() {
        let mut node = Node::new(
            "test-chain",
            ValidatorSet::with_equal_power(5, 10),
            ConsensusParams {
                max_block_gas: 2_500, // fits 2 txs of 1,000 gas
                ..ConsensusParams::default()
            },
            ConsensusTimingModel::default(),
            MempoolConfig::default(),
            CounterApp::default(),
        );
        for i in 0..5u8 {
            node.submit_tx(RawTx::new(vec![i]), SimTime::ZERO).unwrap();
        }
        let b1 = node.produce_block(SimTime::from_secs(5));
        assert_eq!(b1.tx_count, 2);
        assert_eq!(b1.mempool_remaining, 3);
        let b2 = node.produce_block(SimTime::from_secs(10));
        assert_eq!(b2.tx_count, 2);
        let b3 = node.produce_block(SimTime::from_secs(15));
        assert_eq!(b3.tx_count, 1);
    }

    /// Pinned at the commit before `results_hash` streamed its fields: the
    /// digest covers each result's code and gas used, nothing else.
    #[test]
    fn results_hash_is_pinned() {
        let result = |code, gas_used| DeliverTxResult {
            code,
            log: "ignored".into(),
            gas_used,
            gas_wanted: 9,
            events: vec![],
        };
        assert_eq!(
            results_hash(&[result(0, 61_234), result(32, 7)]).to_hex(),
            "57ec61f237da0f6d610255320e879caeaa842950e0db11aa6eeb8ac68737fe23"
        );
        assert_eq!(results_hash(&[]), sha256(b""));
    }
}
