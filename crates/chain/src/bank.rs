//! The bank module: balances, transfers, minting and burning.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::account::AccountId;
use crate::coin::Coin;
use xcc_ibc::transfer::BankKeeper;
use xcc_tendermint::hash::{FieldHasher, Hash};
use xcc_tendermint::journal::{restore, Journal};

/// Errors raised by bank operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BankError {
    /// The sender does not hold enough of the denomination.
    InsufficientFunds {
        /// The account that attempted to spend.
        address: AccountId,
        /// The denomination involved.
        denom: String,
        /// Balance actually held.
        held: u128,
        /// Amount required.
        required: u128,
    },
}

impl std::fmt::Display for BankError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BankError::InsufficientFunds {
                address,
                denom,
                held,
                required,
            } => write!(
                f,
                "insufficient funds: {address} holds {held}{denom}, needs {required}{denom}"
            ),
        }
    }
}

impl std::error::Error for BankError {}

/// The bank module state: per-account balances and total supply tracking.
///
/// # Example
///
/// ```rust
/// use xcc_chain::bank::BankModule;
/// use xcc_chain::coin::Coin;
///
/// let mut bank = BankModule::new();
/// bank.mint_coins(&"alice".into(), &Coin::new("uatom", 100));
/// bank.transfer(&"alice".into(), &"bob".into(), &Coin::new("uatom", 40)).unwrap();
/// assert_eq!(bank.balance(&"bob".into(), "uatom"), 40);
/// ```
///
/// Transactional: between [`begin_tx`](BankModule::begin_tx) and
/// [`commit_tx`](BankModule::commit_tx) /
/// [`rollback_tx`](BankModule::rollback_tx) every balance and supply write
/// records the amount it replaced (see [`xcc_tendermint::journal`]), so a
/// rollback also removes the zero-balance entries a reverted transfer
/// created — they are part of [`BankModule::state_hash`].
///
/// Account and denomination names are shared strings, and balances are kept
/// per account so that one is found by the borrowed `(&str, &str)` the IBC
/// module supplies: reading builds no key, and a write to an existing entry
/// journals clones of the keys the maps already hold. A debit or credit of
/// an existing balance searches each map once, for the key and the amount
/// together; only a balance it creates, or a debit it refuses, searches
/// again.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BankModule {
    /// Never holds an empty inner map, so equal balances are equal maps.
    balances: BTreeMap<AccountId, BTreeMap<Arc<str>, u128>>,
    supply: BTreeMap<Arc<str>, u128>,
    #[serde(skip)]
    journal: Journal<BankUndo>,
}

/// One reverted bank write: the key and the amount it held before.
#[derive(Debug, Clone, PartialEq, Eq)]
enum BankUndo {
    Balance(AccountId, Arc<str>, Option<u128>),
    Supply(Arc<str>, Option<u128>),
}

impl BankModule {
    /// Creates an empty bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a transaction.
    pub fn begin_tx(&mut self) {
        self.journal.begin();
    }

    /// Closes the open transaction, keeping its writes.
    pub fn commit_tx(&mut self) {
        self.journal.commit();
    }

    /// Closes the open transaction and reverts its writes.
    pub fn rollback_tx(&mut self) {
        for undo in self.journal.rollback() {
            match undo {
                BankUndo::Balance(address, denom, prior) => {
                    let account = self.balances.entry(address.clone()).or_default();
                    restore(account, denom, prior);
                    if account.is_empty() {
                        self.balances.remove(&address);
                    }
                }
                BankUndo::Supply(denom, prior) => restore(&mut self.supply, denom, prior),
            }
        }
    }

    /// Writes `update(balance)` for `(address, denom)` (an absent balance
    /// reads 0 and is created), recording what was there.
    fn update_balance(&mut self, address: &str, denom: &str, update: impl FnOnce(u128) -> u128) {
        let (address, entry) = match self.balances.get_key_value(address) {
            Some((address, account)) => (address.clone(), account.get_key_value(denom)),
            None => (address.into(), None),
        };
        let (denom, prior) = match entry {
            Some((denom, amount)) => (denom.clone(), Some(*amount)),
            None => (denom.into(), None),
        };
        self.journal
            .record(|| BankUndo::Balance(address.clone(), denom.clone(), prior));
        let amount = update(prior.unwrap_or(0));
        self.balances
            .entry(address)
            .or_default()
            .insert(denom, amount);
    }

    /// As [`update_balance`](Self::update_balance), for a denomination's
    /// supply.
    fn update_supply(&mut self, denom: &str, update: impl FnOnce(u128) -> u128) {
        let (key, prior) = match self.supply.get_key_value(denom) {
            Some((key, supply)) => (key.clone(), Some(*supply)),
            None => (denom.into(), None),
        };
        self.journal.record(|| BankUndo::Supply(key.clone(), prior));
        self.supply.insert(key, update(prior.unwrap_or(0)));
    }

    /// Writes `update(balance)` over an existing balance of `(address,
    /// denom)`, recording what was there, and reports whether it did: not
    /// when there is no such balance or `update` refuses it (`None`). Each
    /// map is searched once, by the borrowed key, for its own key and the
    /// amount together.
    fn update_existing(
        &mut self,
        address: &str,
        denom: &str,
        update: impl FnOnce(u128) -> Option<u128>,
    ) -> bool {
        let only = |key| (Bound::Included(key), Bound::Included(key));
        let Some((address, account)) = self.balances.range_mut::<str, _>(only(address)).next()
        else {
            return false;
        };
        let Some((denom, amount)) = account.range_mut::<str, _>(only(denom)).next() else {
            return false;
        };
        let Some(updated) = update(*amount) else {
            return false;
        };
        let prior = std::mem::replace(amount, updated);
        self.journal
            .record(|| BankUndo::Balance(address.clone(), denom.clone(), Some(prior)));
        true
    }

    /// Adds `amount` of `denom` to `to`'s balance, creating it if absent.
    fn credit(&mut self, to: &str, denom: &str, amount: u128) {
        if !self.update_existing(to, denom, |held| Some(held + amount)) {
            self.update_balance(to, denom, |held| held + amount);
        }
    }

    fn held(&self, address: &str, denom: &str) -> u128 {
        let amount = self
            .balances
            .get(address)
            .and_then(|account| account.get(denom));
        amount.copied().unwrap_or(0)
    }

    /// Takes `amount` of `denom` out of `from`'s balance.
    fn debit(&mut self, from: &str, denom: &str, amount: u128) -> Result<(), BankError> {
        if self.update_existing(from, denom, |held| held.checked_sub(amount)) {
            return Ok(());
        }
        let held = self.held(from, denom);
        if held < amount {
            return Err(BankError::InsufficientFunds {
                address: from.into(),
                denom: denom.to_string(),
                held,
                required: amount,
            });
        }
        self.update_balance(from, denom, |held| held - amount);
        Ok(())
    }

    /// The balance an account holds in a denomination.
    pub fn balance(&self, address: &AccountId, denom: &str) -> u128 {
        self.held(address.as_str(), denom)
    }

    /// Total minted supply of a denomination.
    pub fn total_supply(&self, denom: &str) -> u128 {
        *self.supply.get(denom).unwrap_or(&0)
    }

    /// Mints new coins into an account (genesis allocation and IBC vouchers).
    pub fn mint_coins(&mut self, to: &AccountId, coin: &Coin) {
        self.mint(to.as_str(), &coin.denom, coin.amount);
    }

    /// Transfers coins between two accounts.
    ///
    /// # Errors
    ///
    /// Fails when the sender's balance is insufficient.
    pub fn transfer(
        &mut self,
        from: &AccountId,
        to: &AccountId,
        coin: &Coin,
    ) -> Result<(), BankError> {
        self.debit(from.as_str(), &coin.denom, coin.amount)?;
        self.credit(to.as_str(), &coin.denom, coin.amount);
        Ok(())
    }

    /// A digest of the bank state, folded into the application hash.
    pub fn state_hash(&self) -> Hash {
        let mut hasher = FieldHasher::new();
        for (addr, account) in &self.balances {
            for (denom, amount) in account {
                hasher.field_parts(&[
                    addr.as_str().as_bytes(),
                    &[0],
                    denom.as_bytes(),
                    &amount.to_be_bytes(),
                ]);
            }
        }
        hasher.finish()
    }
}

impl BankKeeper for BankModule {
    fn send(&mut self, from: &str, to: &str, denom: &str, amount: u128) -> Result<(), String> {
        self.debit(from, denom, amount).map_err(|e| e.to_string())?;
        self.credit(to, denom, amount);
        Ok(())
    }

    fn mint(&mut self, to: &str, denom: &str, amount: u128) {
        self.credit(to, denom, amount);
        self.update_supply(denom, |supply| supply + amount);
    }

    fn burn(&mut self, from: &str, denom: &str, amount: u128) -> Result<(), String> {
        self.debit(from, denom, amount).map_err(|e| e.to_string())?;
        if self.supply.contains_key(denom) {
            self.update_supply(denom, |supply| supply.saturating_sub(amount));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mint_transfer_burn_roundtrip() {
        let mut bank = BankModule::new();
        let alice: AccountId = "alice".into();
        let bob: AccountId = "bob".into();
        bank.mint_coins(&alice, &Coin::new("uatom", 1_000));
        assert_eq!(bank.total_supply("uatom"), 1_000);

        bank.transfer(&alice, &bob, &Coin::new("uatom", 300))
            .unwrap();
        assert_eq!(bank.balance(&alice, "uatom"), 700);
        assert_eq!(bank.balance(&bob, "uatom"), 300);
        // Transfers do not change supply.
        assert_eq!(bank.total_supply("uatom"), 1_000);

        bank.burn("bob", "uatom", 100).unwrap();
        assert_eq!(bank.balance(&bob, "uatom"), 200);
        assert_eq!(bank.total_supply("uatom"), 900);
    }

    #[test]
    fn overdraft_is_rejected_with_details() {
        let mut bank = BankModule::new();
        let err = bank
            .transfer(&"alice".into(), &"bob".into(), &Coin::new("uatom", 10))
            .unwrap_err();
        assert!(matches!(
            err,
            BankError::InsufficientFunds {
                held: 0,
                required: 10,
                ..
            }
        ));
        assert!(err.to_string().contains("insufficient funds"));
        assert!(bank.burn("alice", "uatom", 1).is_err());
    }

    #[test]
    fn state_hash_tracks_balances() {
        let mut bank = BankModule::new();
        let h0 = bank.state_hash();
        bank.mint_coins(&"alice".into(), &Coin::new("uatom", 1));
        let h1 = bank.state_hash();
        assert_ne!(h0, h1);
    }

    #[test]
    fn rollback_restores_every_entry_including_the_ones_it_created() {
        let mut bank = BankModule::new();
        bank.mint_coins(&"alice".into(), &Coin::new("uatom", 100));
        let before = bank.clone();
        let hash_before = bank.state_hash();

        bank.begin_tx();
        // Creates bob's entry, a voucher denomination and its supply, burns
        // part of it, and moves funds through a self-transfer.
        bank.transfer(&"alice".into(), &"bob".into(), &Coin::new("uatom", 40))
            .unwrap();
        bank.mint_coins(&"bob".into(), &Coin::new("voucher", 7));
        bank.burn("bob", "voucher", 3).unwrap();
        bank.transfer(&"bob".into(), &"bob".into(), &Coin::new("uatom", 5))
            .unwrap();
        assert!(bank
            .transfer(&"carol".into(), &"bob".into(), &Coin::new("uatom", 1))
            .is_err());
        assert_ne!(bank.state_hash(), hash_before);
        bank.rollback_tx();
        assert_eq!(bank, before);
        assert_eq!(bank.state_hash(), hash_before);
        assert_eq!(bank.total_supply("voucher"), 0);

        bank.begin_tx();
        bank.transfer(&"alice".into(), &"bob".into(), &Coin::new("uatom", 40))
            .unwrap();
        bank.commit_tx();
        assert_eq!(bank.balance(&"bob".into(), "uatom"), 40);
    }

    #[test]
    fn bank_keeper_trait_is_wired_to_module() {
        let mut bank = BankModule::new();
        BankKeeper::mint(&mut bank, "alice", "uatom", 50);
        BankKeeper::send(&mut bank, "alice", "bob", "uatom", 20).unwrap();
        assert!(BankKeeper::send(&mut bank, "alice", "bob", "uatom", 500).is_err());
        BankKeeper::burn(&mut bank, "bob", "uatom", 20).unwrap();
        assert_eq!(bank.balance(&"alice".into(), "uatom"), 30);
        assert_eq!(bank.balance(&"bob".into(), "uatom"), 0);
    }

    /// Pinned at the commit before the keys held shared strings (PR 21):
    /// three accounts and two denominations, written out of key order, hash
    /// in `(address, denom)` text order — a key type that compared any
    /// other way (by pointer, by length first) would move this digest and
    /// with it every application hash.
    #[test]
    fn state_hash_iterates_balances_in_address_then_denom_order() {
        let mut bank = BankModule::new();
        bank.mint_coins(&"carol".into(), &Coin::new("uatom", 5));
        bank.mint_coins(&"alice".into(), &Coin::new("uatom", 1_000));
        bank.mint_coins(&"bob".into(), &Coin::new("transfer/channel-0/uatom", 300));
        bank.mint_coins(&"alice".into(), &Coin::new("transfer/channel-0/uatom", 7));
        bank.transfer(&"alice".into(), &"bob".into(), &Coin::new("uatom", 40))
            .unwrap();
        assert_eq!(
            bank.state_hash().to_hex(),
            "5470702e663777b555db24560d8400376cf30c7ef61a1ea24cde265434f9f77d"
        );
    }

    /// Pinned at the commit before `state_hash` streamed its fields: one
    /// field per balance, `address 0x00 denom amount`, in key order.
    #[test]
    fn state_hash_is_pinned() {
        let mut bank = BankModule::new();
        bank.mint_coins(&"alice".into(), &Coin::new("uatom", 1_000));
        bank.mint_coins(
            &"bob".into(),
            &Coin::new("ibc/transfer/channel-0/samoleans", 300),
        );
        assert_eq!(
            bank.state_hash().to_hex(),
            "1fade1df7691f796d00ce662f4dfc2a723d6156bc281a1403349eca888d9da8e"
        );
    }
}
