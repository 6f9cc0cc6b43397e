//! A full node: consensus state machine, mempool and block store driving an
//! ABCI application.
//!
//! The node is a pure state machine — it never blocks or sleeps. The caller
//! (the chain driver in `xcc-chain`, itself driven by the experiment
//! scheduler) asks it to produce blocks at the appropriate simulated times,
//! and the node reports how long consensus and block processing took so the
//! driver can schedule the next block.

#[expect(
    clippy::disallowed_types,
    reason = "tx_index is a point-lookup index; iteration never observes it"
)]
use std::collections::HashMap;
use std::rc::Rc;

use crate::abci::{Application, DeliverTxResult};
use crate::block::{evidence_hash, Block, BlockId, Data, Header, RawTx, Version};
use crate::hash::{FieldHasher, Hash};
use crate::mempool::{Mempool, MempoolError, PendingTx};
use crate::params::{
    block_processing_time, consensus_hash, consensus_latency, MAX_BLOCK_BYTES, MAX_BLOCK_GAS,
};
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

/// A submission that was refused: why, and the transaction it handed over,
/// given back so the caller can reuse what it built. The node refuses with a
/// [`SubmitError`]; the RPC layer restates the reason for its callers.
#[derive(Debug)]
pub struct Refused<T, E = SubmitError> {
    /// Why the transaction was refused.
    pub error: E,
    /// The transaction the submission handed over, boxed so that a `Result`
    /// carrying it stays the size of its success value.
    pub tx: Box<T>,
}

impl<T, E: std::fmt::Display> std::fmt::Display for Refused<T, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.error.fmt(f)
    }
}

/// The stored outcome of executing one block. The block store holds each one
/// behind an [`Rc`], and every reader of what the block did — the WebSocket
/// feed, the hop forwarder, the analysis pass — shares that one allocation.
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
    /// The header's `ConsensusHash`, computed once from the genesis' minimum
    /// block interval.
    consensus_hash: Hash,
    validators: ValidatorSet,
    app: A,
    mempool: Mempool<A::Decoded>,
    blocks: Vec<Rc<CommittedBlock>>,
    #[expect(
        clippy::disallowed_types,
        reason = "hash -> (height, index) point lookups only; never iterated"
    )]
    tx_index: HashMap<Hash, (u64, usize)>,
    last_app_hash: Hash,
    last_results_hash: Hash,
    last_commit: Option<Commit>,
    last_block_time: SimTime,
}

impl<A: Application> Node<A> {
    /// Creates a node at genesis (height 0, no blocks yet) whose consensus
    /// parameters carry `min_block_interval`.
    pub fn new(
        chain_id: impl Into<String>,
        validators: ValidatorSet,
        min_block_interval: SimDuration,
        app: A,
    ) -> Self {
        Node {
            chain_id: chain_id.into(),
            consensus_hash: consensus_hash(min_block_interval),
            validators,
            app,
            mempool: Mempool::new(),
            blocks: Vec::new(),
            #[expect(
                clippy::disallowed_types,
                reason = "point-lookup index, see field declaration"
            )]
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

    /// Submits a transaction: `raw` is the encoding of `tx`, the
    /// application's parsed form, both as the client built them. Runs
    /// `CheckTx` on `tx` and, on success, adds the pair to the mempool;
    /// `produce_block` moves `raw` into the block and `tx` into `DeliverTx`.
    /// Nothing is parsed.
    ///
    /// # Errors
    ///
    /// Fails when `CheckTx` rejects the transaction or the mempool refuses
    /// it (full, over its byte limit, or a duplicate). The refusal gives
    /// `tx` back and leaves the mempool as it was.
    pub fn submit_tx(
        &mut self,
        raw: RawTx,
        tx: A::Decoded,
        now: SimTime,
    ) -> Result<Hash, Refused<A::Decoded>> {
        let check = self.app.check_tx(&tx);
        if !check.is_ok() {
            return Err(Refused {
                error: SubmitError::CheckTxFailed {
                    code: check.code,
                    log: check.log,
                },
                tx: Box::new(tx),
            });
        }
        let hash = raw.hash();
        let pending = PendingTx {
            tx: raw,
            decoded: tx,
            gas_wanted: check.gas_wanted,
            sender: check.sender,
            sequence: check.sequence,
            received_at: now,
        };
        self.mempool.add(pending).map_err(|(error, tx)| Refused {
            error: error.into(),
            tx: Box::new(tx),
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
        let reaped = self
            .mempool
            .reap_before(MAX_BLOCK_GAS, MAX_BLOCK_BYTES, propose_time);
        // The reaped entries are owned: the payloads move into the block and
        // each parsed form moves into its `DeliverTx`, nothing is copied.
        let (txs, decoded): (Vec<RawTx>, Vec<A::Decoded>) =
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
            consensus_hash: self.consensus_hash,
            app_hash: self.last_app_hash,
            last_results_hash: self.last_results_hash,
            evidence_hash: evidence_hash(),
            proposer_address: proposer,
        };

        // Execute the block against the application.
        self.app.begin_block(&header);
        let mut results = Vec::with_capacity(data.txs.len());
        let mut included_messages = 0u64;
        for tx in decoded {
            let result = self.app.deliver_tx(tx);
            included_messages += result.events.len() as u64;
            results.push(result);
        }
        self.app.end_block(height);
        let new_app_hash = self.app.commit();

        let block = Block {
            header: header.clone(),
            data,
            last_commit: self.last_commit.clone(),
        };
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

        let work = consensus_latency(self.validators.len())
            + block_processing_time(included_messages, block_bytes, mempool_remaining);
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

    /// A minimal counter application for node tests: every transaction but
    /// `0xff` is accepted and emits one event.
    #[derive(Debug, Default)]
    struct CounterApp {
        delivered: u64,
        committed: u64,
        /// The parsed form of each delivered transaction, in order.
        handed_over: Vec<u8>,
        /// When set, every transaction wants two fifths of a block's gas
        /// (otherwise 1,000).
        heavy_txs: bool,
    }

    impl Application for CounterApp {
        /// The transaction's first byte, behind an `Rc` so that a test can
        /// tell who still holds it.
        type Decoded = Rc<u8>;

        fn check_tx(&mut self, tx: &Rc<u8>) -> CheckTxResult {
            if **tx == 0xff {
                return CheckTxResult {
                    code: 1,
                    log: "rejected by app".into(),
                    gas_wanted: 0,
                    sender: String::new(),
                    sequence: 0,
                };
            }
            CheckTxResult {
                code: 0,
                log: String::new(),
                gas_wanted: if self.heavy_txs {
                    MAX_BLOCK_GAS * 2 / 5
                } else {
                    1_000
                },
                sender: format!("sender-{tx}"),
                sequence: 0,
            }
        }

        fn begin_block(&mut self, _header: &Header) {}

        fn deliver_tx(&mut self, tx: Rc<u8>) -> DeliverTxResult {
            self.delivered += 1;
            self.handed_over.push(*tx);
            DeliverTxResult {
                code: 0,
                log: String::new(),
                gas_used: 900,
                gas_wanted: 1_000,
                events: vec![Event::new("counted", [])],
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
            SimDuration::from_secs(5),
            CounterApp::default(),
        )
    }

    /// Submits the one-byte transaction `[first]` with its parsed form.
    fn submit(node: &mut Node<CounterApp>, first: u8) -> Result<Hash, Refused<Rc<u8>>> {
        node.submit_tx(RawTx::new(vec![first]), Rc::new(first), SimTime::ZERO)
    }

    /// Submits `raw` with the parsed form `parsed` and expects it refused
    /// for `error`, handing back that same form and leaving the mempool's
    /// size as it was.
    fn expect_refused(node: &mut Node<CounterApp>, raw: RawTx, parsed: u8, error: SubmitError) {
        let before = node.mempool_size();
        let handed = Rc::new(parsed);
        let refused = node
            .submit_tx(raw, Rc::clone(&handed), SimTime::ZERO)
            .unwrap_err();
        assert_eq!(refused.error, error);
        assert!(Rc::ptr_eq(&refused.tx, &handed), "the same form comes back");
        assert_eq!(Rc::strong_count(&handed), 2, "the node keeps no copy");
        assert_eq!(node.mempool_size(), before);
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
        let hash = submit(&mut node, 1).unwrap();
        assert_eq!(hash, RawTx::new(vec![1]).hash());
        assert!(node.find_tx(&hash).is_none());
        assert_eq!(node.mempool_size(), 1);
        let outcome = node.produce_block(SimTime::from_secs(5));
        assert_eq!(outcome.tx_count, 1);
        let (height, index, result) = node.find_tx(&hash).unwrap();
        assert_eq!((height, index), (1, 0));
        assert!(result.is_ok());
        assert_eq!(node.mempool_size(), 0);
    }

    #[test]
    fn decoded_forms_move_into_deliver_tx() {
        let mut node = test_node();
        let forms: Vec<Weak<u8>> = [2u8, 3, 4]
            .into_iter()
            .map(|first| {
                let form = Rc::new(first);
                let weak = Rc::downgrade(&form);
                node.submit_tx(RawTx::new(vec![first]), form, SimTime::ZERO)
                    .unwrap();
                weak
            })
            .collect();
        // The mempool entries are the only holders.
        assert!(forms.iter().all(|form| form.strong_count() == 1));
        let outcome = node.produce_block(SimTime::from_secs(5));
        assert_eq!(outcome.tx_count, 3);
        assert_eq!(node.app().handed_over, [2, 3, 4]);
        assert_eq!(node.mempool_size(), 0);
        // Moved into `deliver_tx`, not copied: the committed block keeps the
        // raw transactions only.
        assert!(forms.iter().all(|form| form.strong_count() == 0));
        let txs = &node.block_at(1).unwrap().block.data.txs;
        let firsts: Vec<u8> = txs.iter().map(|tx| tx.as_bytes()[0]).collect();
        assert_eq!(firsts, [2, 3, 4]);
    }

    #[test]
    fn check_tx_rejection_propagates() {
        let mut node = test_node();
        let rejected = SubmitError::CheckTxFailed {
            code: 1,
            log: "rejected by app".into(),
        };
        expect_refused(&mut node, RawTx::new(vec![0xff]), 0xff, rejected);
        assert_eq!(node.mempool_size(), 0);
        assert_eq!(node.produce_block(SimTime::from_secs(5)).tx_count, 0);
    }

    #[test]
    fn duplicate_submission_is_rejected_by_mempool() {
        let mut node = test_node();
        submit(&mut node, 8).unwrap();
        let duplicate = SubmitError::Mempool(MempoolError::AlreadyPending);
        expect_refused(&mut node, RawTx::new(vec![8]), 8, duplicate);
        // The refused copy left nothing behind: one entry, delivered once.
        node.produce_block(SimTime::from_secs(5));
        assert_eq!(node.app().handed_over, [8]);
    }

    /// A full mempool and one over its byte limit each refuse the next
    /// submission and give its parsed form back.
    #[test]
    fn mempool_limits_give_the_parsed_form_back() {
        use crate::mempool::{MAX_TOTAL_BYTES, MAX_TXS};
        let mut node = test_node();
        for i in 0..MAX_TXS as u32 {
            let raw = RawTx::new(i.to_be_bytes().to_vec());
            node.submit_tx(raw, Rc::new(0), SimTime::ZERO).unwrap();
        }
        let full = SubmitError::Mempool(MempoolError::Full { max_txs: MAX_TXS });
        expect_refused(&mut node, RawTx::new(b"one too many".to_vec()), 7, full);
        assert_eq!(node.mempool_size(), MAX_TXS);

        let mut node = test_node();
        let filling = RawTx::with_wire_len(b"fills it".to_vec(), MAX_TOTAL_BYTES);
        node.submit_tx(filling, Rc::new(1), SimTime::ZERO).unwrap();
        let over = SubmitError::Mempool(MempoolError::TooManyBytes {
            max_total_bytes: MAX_TOTAL_BYTES,
        });
        expect_refused(&mut node, RawTx::new(vec![2]), 2, over);
        assert_eq!(node.mempool_size(), 1);
    }

    #[test]
    fn block_commit_time_includes_consensus_latency() {
        let mut node = test_node();
        let outcome = node.produce_block(SimTime::from_secs(5));
        assert!(outcome.committed_at > SimTime::from_secs(5));
        assert!(outcome.work >= consensus_latency(5));
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
    fn unknown_txs_are_not_found() {
        let node = test_node();
        assert!(node.find_tx(&RawTx::new(vec![9]).hash()).is_none());
    }

    #[test]
    fn gas_limit_defers_excess_txs_to_next_block() {
        // Each transaction wants two fifths of the block gas: 2 fit a block.
        let mut node = test_node();
        node.app_mut().heavy_txs = true;
        for i in 0..5u8 {
            submit(&mut node, i).unwrap();
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
