//! Accounts, sequence numbers and the account keeper.
//!
//! Cosmos chains prevent transaction replay through per-account sequence
//! numbers. A transaction is only valid if it carries the account's current
//! sequence, and each committed transaction increments it. The paper's
//! "account sequence mismatch" deployment challenge (§V) and the
//! one-transaction-per-account-per-block workload limitation both derive from
//! this mechanism, so it is modelled faithfully here.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use xcc_tendermint::hash::{hash_fields, Hash};
use xcc_tendermint::journal::{restore, Journal};

/// A bech32-style account address (simplified to an opaque string). The
/// text is shared: a clone is a reference-count bump, so map keys, account
/// records and journal entries can name an account without copying it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AccountId(Arc<str>);

impl AccountId {
    /// Wraps an address string.
    pub fn new(addr: impl Into<Arc<str>>) -> Self {
        AccountId(addr.into())
    }

    /// The address as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for AccountId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// An account-keyed map can be searched by the address text alone.
impl Borrow<str> for AccountId {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for AccountId {
    fn from(s: &str) -> Self {
        AccountId(s.into())
    }
}

impl From<String> for AccountId {
    fn from(s: String) -> Self {
        AccountId(s.into())
    }
}

/// An account record: address, account number and replay-protection sequence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Account {
    /// The account's address.
    pub address: AccountId,
    /// Stable per-chain account number.
    pub account_number: u64,
    /// The sequence expected on the account's next transaction.
    pub sequence: u64,
}

/// Computes the simulated signature an account produces over a transaction
/// body digest at a given sequence.
pub fn sign(address: &AccountId, sequence: u64, body_digest: &Hash) -> Hash {
    hash_fields(&[
        b"account-signature",
        address.as_str().as_bytes(),
        &sequence.to_be_bytes(),
        body_digest.as_bytes(),
    ])
}

/// The set of accounts known to the chain.
///
/// Transactional: between [`begin_tx`](AccountKeeper::begin_tx) and
/// [`commit_tx`](AccountKeeper::commit_tx) /
/// [`rollback_tx`](AccountKeeper::rollback_tx) every write records the
/// account it replaced (see [`xcc_tendermint::journal`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccountKeeper {
    accounts: BTreeMap<AccountId, Account>,
    next_number: u64,
    /// `(address, account before the write)` per write of the open
    /// transaction; `None` marks a creation.
    #[serde(skip)]
    journal: Journal<(AccountId, Option<Account>)>,
}

impl AccountKeeper {
    /// Creates an empty keeper.
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
        for (address, prior) in self.journal.rollback() {
            if prior.is_none() {
                // Only a creation finds no account, and only it takes a number.
                self.next_number -= 1;
            }
            restore(&mut self.accounts, address, prior);
        }
    }

    /// Creates an account if it does not exist yet and returns it.
    pub fn get_or_create(&mut self, address: &AccountId) -> &Account {
        self.accounts.entry(address.clone()).or_insert_with(|| {
            self.journal.record(|| (address.clone(), None));
            let account_number = self.next_number;
            self.next_number += 1;
            Account {
                address: address.clone(),
                account_number,
                sequence: 0,
            }
        })
    }

    /// Looks up an account.
    pub fn get(&self, address: &AccountId) -> Option<&Account> {
        self.accounts.get(address)
    }

    /// Current sequence of an account (0 for unknown accounts).
    pub fn sequence(&self, address: &AccountId) -> u64 {
        self.accounts.get(address).map(|a| a.sequence).unwrap_or(0)
    }

    /// Increments an account's sequence after a successfully processed
    /// transaction.
    pub fn increment_sequence(&mut self, address: &AccountId) {
        if let Some(account) = self.accounts.get_mut(address) {
            self.journal
                .record(|| (address.clone(), Some(account.clone())));
            account.sequence += 1;
        }
    }

    /// Number of known accounts.
    pub fn len(&self) -> usize {
        self.accounts.len()
    }

    /// `true` when no accounts exist.
    pub fn is_empty(&self) -> bool {
        self.accounts.is_empty()
    }

    /// Iterates over all accounts in address order.
    pub fn iter(&self) -> impl Iterator<Item = &Account> {
        self.accounts.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcc_tendermint::hash::sha256;

    #[test]
    fn accounts_get_consecutive_numbers_and_zero_sequence() {
        let mut keeper = AccountKeeper::new();
        let a = keeper.get_or_create(&"user-a".into()).clone();
        let b = keeper.get_or_create(&"user-b".into()).clone();
        assert_eq!(a.account_number, 0);
        assert_eq!(b.account_number, 1);
        assert_eq!(a.sequence, 0);
        // Re-creating returns the same account.
        assert_eq!(keeper.get_or_create(&"user-a".into()).account_number, 0);
        assert_eq!(keeper.len(), 2);
    }

    #[test]
    fn sequence_increments_only_for_known_accounts() {
        let mut keeper = AccountKeeper::new();
        keeper.get_or_create(&"user-a".into());
        keeper.increment_sequence(&"user-a".into());
        keeper.increment_sequence(&"user-a".into());
        keeper.increment_sequence(&"ghost".into());
        assert_eq!(keeper.sequence(&"user-a".into()), 2);
        assert_eq!(keeper.sequence(&"ghost".into()), 0);
        assert!(keeper.get(&"ghost".into()).is_none());
    }

    #[test]
    fn rollback_reverts_creations_and_sequence_bumps_and_commit_keeps_them() {
        let mut keeper = AccountKeeper::new();
        keeper.get_or_create(&"user-a".into());
        let before = keeper.clone();

        keeper.begin_tx();
        keeper.increment_sequence(&"user-a".into());
        keeper.get_or_create(&"user-b".into());
        keeper.increment_sequence(&"user-b".into());
        keeper.increment_sequence(&"user-a".into());
        keeper.rollback_tx();
        assert_eq!(keeper, before);
        // The account number a rolled-back creation took is free again.
        assert_eq!(keeper.get_or_create(&"user-c".into()).account_number, 1);

        keeper.begin_tx();
        keeper.increment_sequence(&"user-a".into());
        keeper.commit_tx();
        assert_eq!(keeper.sequence(&"user-a".into()), 1);
    }

    #[test]
    fn signatures_bind_account_sequence_and_body() {
        let digest = sha256(b"tx body");
        let s1 = sign(&"user-a".into(), 0, &digest);
        let s2 = sign(&"user-a".into(), 1, &digest);
        let s3 = sign(&"user-b".into(), 0, &digest);
        let s4 = sign(&"user-a".into(), 0, &sha256(b"other body"));
        assert_ne!(s1, s2);
        assert_ne!(s1, s3);
        assert_ne!(s1, s4);
        assert_eq!(s1, sign(&"user-a".into(), 0, &digest));
    }

    #[test]
    fn account_id_conversions() {
        let a: AccountId = "user-a".into();
        let b: AccountId = String::from("user-a").into();
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "user-a");
        assert_eq!(AccountId::new("x").as_str(), "x");
    }
}
