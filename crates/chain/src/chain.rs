//! A complete simulated chain: a Tendermint node running the Gaia-like
//! application, read by the RPC layer, the relayer and the benchmarking
//! framework through the node's own methods.

use std::cell::RefCell;
use std::rc::Rc;

use crate::app::GaiaApp;
use crate::genesis::GenesisConfig;
use xcc_tendermint::node::Node;
use xcc_tendermint::validator::ValidatorSet;

/// A chain shared between the experiment driver, its RPC server and the
/// workload generator. The whole simulation is single-threaded, so interior
/// mutability via `RefCell` is sufficient.
pub type SharedChain = Rc<RefCell<Chain>>;

/// A simulated Cosmos Gaia chain: a full node running [`GaiaApp`]. A
/// submission hands the node the transaction's one encoding beside the
/// transaction ([`Tx::take_encoded`](crate::tx::Tx::take_encoded)).
///
/// # Example
///
/// ```rust
/// use xcc_chain::genesis::GenesisConfig;
/// use xcc_sim::SimTime;
///
/// let genesis = GenesisConfig::new("chain-a").with_funded_accounts("user", 2, 1_000_000);
/// let mut chain = genesis.into_chain();
/// let outcome = chain.produce_block(SimTime::from_secs(5));
/// assert_eq!(outcome.height, 1);
/// assert_eq!(chain.chain_id(), "chain-a");
/// ```
pub type Chain = Node<GaiaApp>;

impl GenesisConfig {
    /// Builds the chain at this genesis: its validators, its funded
    /// accounts and its minimum block interval.
    pub fn into_chain(self) -> Chain {
        let validators = ValidatorSet::with_equal_power(self.validator_count, 10);
        let app = GaiaApp::from_genesis(&self);
        Node::new(self.chain_id, validators, self.min_block_interval, app)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::AccountId;
    use crate::coin::Coin;
    use crate::msg::Msg;
    use crate::tx::Tx;
    use xcc_sim::SimTime;
    use xcc_tendermint::hash::Hash;
    use xcc_tendermint::node::{Refused, SubmitError};

    fn funded_chain() -> Chain {
        GenesisConfig::new("chain-a")
            .with_account("relayer", 10_000_000)
            .with_funded_accounts("user", 5, 10_000_000)
            .into_chain()
    }

    /// Submits `tx` the way `RpcEndpoint::broadcast_tx_sync` does.
    fn submit(chain: &mut Chain, mut tx: Tx, now: SimTime) -> Result<Hash, Refused<Tx>> {
        let raw = tx.take_encoded();
        chain.submit_tx(raw, tx, now)
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
        let hash = submit(&mut chain, send_tx("user-0", 0), SimTime::ZERO).unwrap();
        assert!(chain.find_tx(&hash).is_none());
        assert_eq!(chain.mempool_size(), 1);

        let outcome = chain.produce_block(SimTime::from_secs(5));
        assert_eq!(outcome.tx_count, 1);
        assert_eq!(chain.height(), 1);
        assert_eq!(chain.mempool_size(), 0);
        let (_, _, result) = chain.find_tx(&hash).unwrap();
        assert!(result.is_ok());
        assert_eq!(chain.app().account_sequence(&AccountId::new("user-0")), 1);
    }

    #[test]
    fn one_tx_per_account_per_block_when_client_reuses_committed_sequence() {
        let mut chain = funded_chain();
        // A client that always signs with the committed sequence (like the
        // paper's CLI users) can only get one transaction per block in.
        submit(&mut chain, send_tx("user-0", 0), SimTime::ZERO).unwrap();
        let err = submit(&mut chain, send_tx("user-0", 0), SimTime::ZERO).unwrap_err();
        assert!(matches!(
            err.error,
            SubmitError::CheckTxFailed {
                code: crate::ante::CODE_SEQUENCE_MISMATCH,
                ..
            }
        ));
        assert_eq!(*err.tx, send_tx("user-0", 0), "the refused tx comes back");
        chain.produce_block(SimTime::from_secs(5));
        // After the block commits, the next committed sequence works.
        submit(&mut chain, send_tx("user-0", 1), SimTime::from_secs(5)).unwrap();
    }

    #[test]
    fn multiple_accounts_can_fill_one_block() {
        let mut chain = funded_chain();
        for i in 0..5 {
            submit(&mut chain, send_tx(&format!("user-{i}"), 0), SimTime::ZERO).unwrap();
        }
        let outcome = chain.produce_block(SimTime::from_secs(5));
        assert_eq!(outcome.tx_count, 5);
    }

    #[test]
    fn shared_chain_allows_interior_mutation() {
        let shared: SharedChain = Rc::new(RefCell::new(funded_chain()));
        shared.borrow_mut().produce_block(SimTime::from_secs(5));
        assert_eq!(shared.borrow().height(), 1);
        assert_eq!(shared.borrow().chain_id(), "chain-a");
    }

    #[test]
    fn accessors_expose_consensus_configuration() {
        let chain = funded_chain();
        assert_eq!(chain.validators().len(), 5);
        assert!(chain.latest_block().is_none());
        assert!(chain.commit_for(0).is_none());
    }

    /// Read at the commit before the consensus parameters became constants:
    /// the genesis' minimum block interval and the model's limits reach the
    /// header (`ConsensusHash`) and through it the block id, as before.
    #[test]
    fn block_one_header_hash_is_pinned() {
        let mut chain = funded_chain();
        chain.produce_block(SimTime::from_secs(5));
        let header = &chain.block_at(1).unwrap().block.header;
        assert_eq!(
            header.hash().to_hex(),
            "084826ff8684bd170eb97a3b6fb68db071947e99d1d6b79fe467986df953df65"
        );
        assert_eq!(
            header.consensus_hash.to_hex(),
            "414bbd4be332b3074c8546581c9a634ef01cd013bbaf1e4dd39fefc80b904199"
        );
    }
}
