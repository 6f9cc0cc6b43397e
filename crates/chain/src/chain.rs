//! A complete simulated chain: a Tendermint node running the Gaia-like
//! application, with convenience accessors used by the RPC layer, the relayer
//! and the benchmarking framework.

use std::cell::RefCell;
use std::rc::Rc;

use crate::app::GaiaApp;
use crate::genesis::GenesisConfig;
use crate::tx::Tx;
use xcc_sim::SimTime;
use xcc_tendermint::block::RawTx;
use xcc_tendermint::hash::Hash;
use xcc_tendermint::mempool::MempoolConfig;
use xcc_tendermint::node::{BlockOutcome, CommittedBlock, Node, SubmitError, TxStatus};
use xcc_tendermint::params::{ConsensusParams, ConsensusTimingModel};
use xcc_tendermint::validator::ValidatorSet;
use xcc_tendermint::vote::Commit;

/// A chain shared between the experiment driver, its RPC server and the
/// workload generator. The whole simulation is single-threaded, so interior
/// mutability via `RefCell` is sufficient.
pub type SharedChain = Rc<RefCell<Chain>>;

/// A simulated Cosmos Gaia chain.
///
/// # Example
///
/// ```rust
/// use xcc_chain::chain::Chain;
/// use xcc_chain::genesis::GenesisConfig;
/// use xcc_sim::SimTime;
///
/// let genesis = GenesisConfig::new("chain-a").with_funded_accounts("user", 2, 1_000_000);
/// let mut chain = Chain::new(genesis);
/// let outcome = chain.produce_block(SimTime::from_secs(5));
/// assert_eq!(outcome.height, 1);
/// ```
#[derive(Debug)]
pub struct Chain {
    node: Node<GaiaApp>,
}

impl Chain {
    /// Creates a chain with default consensus parameters and timing.
    pub fn new(genesis: GenesisConfig) -> Self {
        Self::with_params(
            genesis,
            ConsensusParams::default(),
            ConsensusTimingModel::default(),
            MempoolConfig::default(),
        )
    }

    /// Creates a chain with explicit consensus parameters, timing model and
    /// mempool limits.
    pub fn with_params(
        genesis: GenesisConfig,
        params: ConsensusParams,
        timing: ConsensusTimingModel,
        mempool: MempoolConfig,
    ) -> Self {
        let validators = ValidatorSet::with_equal_power(genesis.validator_count, 10);
        let app = GaiaApp::from_genesis(&genesis);
        Chain {
            node: Node::new(genesis.chain_id, validators, params, timing, mempool, app),
        }
    }

    /// Wraps the chain for shared single-threaded access.
    pub fn into_shared(self) -> SharedChain {
        Rc::new(RefCell::new(self))
    }

    /// The chain identifier.
    pub fn id(&self) -> &str {
        self.node.chain_id()
    }

    /// Current committed height.
    pub fn height(&self) -> u64 {
        self.node.height()
    }

    /// Read access to the application state.
    pub fn app(&self) -> &GaiaApp {
        self.node.app()
    }

    /// Mutable access to the application state (used by the setup phase for
    /// IBC handshakes and by tests).
    pub fn app_mut(&mut self) -> &mut GaiaApp {
        self.node.app_mut()
    }

    /// The validator set.
    pub fn validators(&self) -> &ValidatorSet {
        self.node.validators()
    }

    /// The consensus parameters.
    pub fn params(&self) -> &ConsensusParams {
        self.node.params()
    }

    /// The consensus timing model.
    pub fn timing(&self) -> &ConsensusTimingModel {
        self.node.timing()
    }

    /// Number of transactions waiting in the mempool.
    pub fn mempool_size(&self) -> usize {
        self.node.mempool_size()
    }

    /// Number of mempool transactions signed by `sender` (the account address
    /// as a string): the unconfirmed part of that account's sequence window,
    /// used by the RPC layer's `account_sequence_unconfirmed` query.
    pub fn mempool_pending_from(&self, sender: &str) -> usize {
        self.node.mempool_pending_from(sender)
    }

    /// When the latest block was committed.
    pub fn last_block_time(&self) -> SimTime {
        self.node.last_block_time()
    }

    /// Submits an encoded transaction to the mempool.
    ///
    /// # Errors
    ///
    /// Fails when `CheckTx` rejects the transaction or the mempool is full.
    pub fn submit_raw_tx(&mut self, raw: RawTx, now: SimTime) -> Result<Hash, SubmitError> {
        self.node.submit_tx(raw, now)
    }

    /// Encodes and submits a transaction.
    ///
    /// # Errors
    ///
    /// Fails when `CheckTx` rejects the transaction or the mempool is full.
    pub fn submit_tx(&mut self, tx: &Tx, now: SimTime) -> Result<Hash, SubmitError> {
        self.submit_raw_tx(tx.encode(), now)
    }

    /// Produces and commits the next block, reaping the mempool at
    /// `propose_time`.
    pub fn produce_block(&mut self, propose_time: SimTime) -> BlockOutcome {
        self.node.produce_block(propose_time)
    }

    /// The committed block at `height` (1-based): the block store's own
    /// handle, which the RPC layer clones into every event batch.
    pub fn block_at(&self, height: u64) -> Option<&Rc<CommittedBlock>> {
        self.node.block_at(height)
    }

    /// The most recently committed block.
    pub fn latest_block(&self) -> Option<&Rc<CommittedBlock>> {
        self.node.latest_block()
    }

    /// The commit certifying the block at `height`.
    pub fn commit_for(&self, height: u64) -> Option<&Commit> {
        self.node.commit_for(height)
    }

    /// Looks up a committed transaction by hash.
    pub fn find_tx(
        &self,
        hash: &Hash,
    ) -> Option<(u64, usize, &xcc_tendermint::abci::DeliverTxResult)> {
        self.node.find_tx(hash)
    }

    /// Whether a transaction is committed, pending or unknown.
    pub fn tx_status(&self, hash: &Hash) -> TxStatus {
        self.node.tx_status(hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::AccountId;
    use crate::coin::Coin;
    use crate::msg::Msg;

    fn funded_chain() -> Chain {
        Chain::new(
            GenesisConfig::new("chain-a")
                .with_account("relayer", 10_000_000)
                .with_funded_accounts("user", 5, 10_000_000),
        )
    }

    fn send_tx(from: &str, seq: u64) -> Tx {
        Tx::new(
            from.into(),
            seq,
            vec![Msg::BankSend {
                from: from.into(),
                to: "relayer".into(),
                amount: Coin::new("uatom", 10),
            }],
            "uatom",
        )
    }

    #[test]
    fn blocks_include_submitted_txs_and_update_state() {
        let mut chain = funded_chain();
        let hash = chain
            .submit_tx(&send_tx("user-0", 0), SimTime::ZERO)
            .unwrap();
        assert_eq!(chain.tx_status(&hash), TxStatus::Pending);
        assert_eq!(chain.mempool_size(), 1);

        let outcome = chain.produce_block(SimTime::from_secs(5));
        assert_eq!(outcome.tx_count, 1);
        assert_eq!(chain.height(), 1);
        assert_eq!(chain.tx_status(&hash), TxStatus::Committed);
        let (_, _, result) = chain.find_tx(&hash).unwrap();
        assert!(result.is_ok());
        assert_eq!(chain.app().account_sequence(&AccountId::new("user-0")), 1);
    }

    #[test]
    fn one_tx_per_account_per_block_when_client_reuses_committed_sequence() {
        let mut chain = funded_chain();
        // A client that always signs with the committed sequence (like the
        // paper's CLI users) can only get one transaction per block in.
        chain
            .submit_tx(&send_tx("user-0", 0), SimTime::ZERO)
            .unwrap();
        let err = chain
            .submit_tx(&send_tx("user-0", 0), SimTime::ZERO)
            .unwrap_err();
        assert!(err.to_string().contains("account sequence mismatch"));
        chain.produce_block(SimTime::from_secs(5));
        // After the block commits, the next committed sequence works.
        chain
            .submit_tx(&send_tx("user-0", 1), SimTime::from_secs(5))
            .unwrap();
    }

    #[test]
    fn multiple_accounts_can_fill_one_block() {
        let mut chain = funded_chain();
        for i in 0..5 {
            chain
                .submit_tx(&send_tx(&format!("user-{i}"), 0), SimTime::ZERO)
                .unwrap();
        }
        let outcome = chain.produce_block(SimTime::from_secs(5));
        assert_eq!(outcome.tx_count, 5);
    }

    #[test]
    fn shared_chain_allows_interior_mutation() {
        let shared = funded_chain().into_shared();
        shared.borrow_mut().produce_block(SimTime::from_secs(5));
        assert_eq!(shared.borrow().height(), 1);
        assert_eq!(shared.borrow().id(), "chain-a");
    }

    #[test]
    fn accessors_expose_consensus_configuration() {
        let chain = funded_chain();
        assert_eq!(chain.validators().len(), 5);
        assert_eq!(
            chain.params().min_block_interval,
            xcc_sim::SimDuration::from_secs(5)
        );
        assert!(chain.timing().consensus_latency(5).as_millis() < 100);
        assert!(chain.latest_block().is_none());
        assert!(chain.commit_for(0).is_none());
    }
}
