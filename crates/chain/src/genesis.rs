//! Genesis configuration for a simulated Gaia chain.

use serde::{Deserialize, Serialize};

use xcc_sim::SimDuration;

use crate::account::AccountId;
use crate::coin::Coin;

/// The initial state of a chain: identifier, staking denomination, funded
/// accounts, validator count and the one consensus parameter a deployment
/// sets (every other is a constant of `xcc_tendermint::params`).
///
/// # Example
///
/// ```rust
/// use xcc_chain::genesis::GenesisConfig;
///
/// let genesis = GenesisConfig::new("chain-a")
///     .with_validators(5)
///     .with_funded_accounts("user", 10, 1_000_000);
/// assert_eq!(genesis.accounts.len(), 10);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenesisConfig {
    /// The chain identifier.
    pub chain_id: String,
    /// The native staking / fee denomination.
    pub fee_denom: String,
    /// Accounts created at genesis with their initial balances.
    pub accounts: Vec<(AccountId, Vec<Coin>)>,
    /// Number of consensus validators (the paper's testnets use 5).
    pub validator_count: usize,
    /// Minimum interval between two consecutive blocks, recorded in every
    /// header's consensus hash (the paper configures 5 seconds).
    pub min_block_interval: SimDuration,
}

impl GenesisConfig {
    /// Creates a genesis with no accounts, five validators, a five-second
    /// minimum block interval and `uatom` as the native denomination.
    pub fn new(chain_id: impl Into<String>) -> Self {
        GenesisConfig {
            chain_id: chain_id.into(),
            fee_denom: "uatom".to_string(),
            accounts: Vec::new(),
            validator_count: 5,
            min_block_interval: SimDuration::from_secs(5),
        }
    }

    /// Sets the validator count.
    pub fn with_validators(mut self, count: usize) -> Self {
        self.validator_count = count;
        self
    }

    /// Adds a single funded account.
    pub fn with_account(mut self, address: impl Into<AccountId>, amount: u128) -> Self {
        let denom = self.fee_denom.clone();
        self.accounts
            .push((address.into(), vec![Coin::new(denom, amount)]));
        self
    }

    /// Adds `count` accounts named `{prefix}-0 .. {prefix}-{count-1}`, each
    /// funded with `amount` of the fee denomination — the multi-account
    /// workload shape the paper uses to submit many transactions per block.
    pub fn with_funded_accounts(mut self, prefix: &str, count: usize, amount: u128) -> Self {
        let denom = self.fee_denom.clone();
        for i in 0..count {
            self.accounts.push((
                AccountId::new(format!("{prefix}-{i}")),
                vec![Coin::new(denom.clone(), amount)],
            ));
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_accounts() {
        let genesis = GenesisConfig {
            fee_denom: "stake".into(),
            ..GenesisConfig::new("chain-a")
        }
        .with_validators(7)
        .with_account("relayer", 500)
        .with_funded_accounts("user", 3, 100);
        assert_eq!(genesis.chain_id, "chain-a");
        assert_eq!(genesis.fee_denom, "stake");
        assert_eq!(genesis.validator_count, 7);
        assert_eq!(genesis.accounts.len(), 4);
        assert_eq!(genesis.accounts[0].0, AccountId::new("relayer"));
        assert_eq!(genesis.accounts[3].0, AccountId::new("user-2"));
        assert_eq!(genesis.accounts[1].1[0], Coin::new("stake", 100));
    }

    #[test]
    fn defaults_match_paper_testnet() {
        let genesis = GenesisConfig::new("gaia-sim");
        assert_eq!(genesis.validator_count, 5);
        assert_eq!(genesis.min_block_interval, SimDuration::from_secs(5));
        assert_eq!(genesis.fee_denom, "uatom");
        assert!(genesis.accounts.is_empty());
    }
}
