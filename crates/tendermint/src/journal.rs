//! An undo journal: what lets an application make `DeliverTx` transactional
//! without copying the state a transaction does not touch.
//!
//! A failing message must revert everything its transaction did. Taking a
//! snapshot of the application state before every transaction makes block
//! execution cost O(transactions × state size); a journal costs O(keys
//! written). While a transaction is open, each mutating operation of a state
//! keeper [`record`](Journal::record)s how to undo itself — for a map write
//! that is the key and the value it held before, see [`restore`] — and then:
//!
//! * success [`commit`](Journal::commit)s: the records are dropped;
//! * failure [`rollback`](Journal::rollback)s: the keeper applies the records
//!   newest first, which leaves every key holding what it held when the
//!   transaction began.
//!
//! Outside a transaction (genesis, handshake set-up, tests driving a keeper
//! directly) nothing is recorded and nothing is built: `record` takes a
//! closure and does not call it.
//!
//! # Example
//!
//! ```rust
//! use std::collections::BTreeMap;
//! use xcc_tendermint::journal::{restore, Journal};
//!
//! let mut balances = BTreeMap::from([("alice", 10u64)]);
//! let mut journal: Journal<(&str, Option<u64>)> = Journal::default();
//!
//! journal.begin();
//! for (who, amount) in [("alice", 3), ("bob", 7), ("alice", 0)] {
//!     let prior = balances.insert(who, amount);
//!     journal.record(|| (who, prior));
//! }
//! for (who, prior) in journal.rollback() {
//!     restore(&mut balances, who, prior);
//! }
//! assert_eq!(balances, BTreeMap::from([("alice", 10)]));
//! ```

use std::collections::BTreeMap;

/// The undo records of at most one open transaction, oldest first. `U` is
/// the keeper's own description of one reverted write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Journal<U> {
    open: bool,
    records: Vec<U>,
}

impl<U> Default for Journal<U> {
    fn default() -> Self {
        Journal {
            open: false,
            records: Vec::new(),
        }
    }
}

impl<U> Journal<U> {
    /// Opens a transaction: from here to the next `commit` or `rollback`
    /// every [`record`](Journal::record) is kept.
    pub fn begin(&mut self) {
        debug_assert!(!self.open, "transactions do not nest");
        self.open = true;
    }

    /// Keeps `undo()` if a transaction is open; otherwise does not call it.
    pub fn record(&mut self, undo: impl FnOnce() -> U) {
        if self.open {
            self.records.push(undo());
        }
    }

    /// Closes the transaction, keeping its effects.
    pub fn commit(&mut self) {
        self.open = false;
        self.records.clear();
    }

    /// Closes the transaction and hands back its records newest first, the
    /// order in which applying them restores the state at `begin`.
    pub fn rollback(&mut self) -> impl Iterator<Item = U> + '_ {
        self.open = false;
        self.records.drain(..).rev()
    }
}

/// Puts `map[key]` back to `prior`: the undo of any insert, update or
/// removal that found `prior` under `key`.
pub fn restore<K: Ord, V>(map: &mut BTreeMap<K, V>, key: K, prior: Option<V>) {
    match prior {
        Some(value) => {
            map.insert(key, value);
        }
        None => {
            map.remove(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_journal_records_nothing_and_never_builds_the_record() {
        let mut journal: Journal<u8> = Journal::default();
        journal.record(|| unreachable!("no transaction is open"));
        assert_eq!(journal.rollback().count(), 0);
    }

    #[test]
    fn rollback_yields_newest_first_and_closes() {
        let mut journal = Journal::default();
        journal.begin();
        for i in 0..4 {
            journal.record(|| i);
        }
        assert_eq!(journal.rollback().collect::<Vec<_>>(), [3, 2, 1, 0]);
        journal.record(|| 9);
        assert_eq!(journal, Journal::default());
    }

    #[test]
    fn commit_drops_the_records() {
        let mut journal = Journal::default();
        journal.begin();
        journal.record(|| 1);
        journal.commit();
        assert_eq!(journal, Journal::default());
    }

    #[test]
    fn restore_undoes_insert_update_and_remove() {
        let mut map = BTreeMap::from([("kept", 1), ("updated", 2), ("removed", 3)]);
        let before = map.clone();
        let mut journal = Journal::default();
        journal.begin();
        let prior = map.insert("created", 9);
        journal.record(|| ("created", prior));
        let prior = map.insert("updated", 20);
        journal.record(|| ("updated", prior));
        let prior = map.remove("removed");
        journal.record(|| ("removed", prior));
        // Touching one key twice must land on its first prior value.
        let prior = map.insert("updated", 200);
        journal.record(|| ("updated", prior));
        for (key, prior) in journal.rollback() {
            restore(&mut map, key, prior);
        }
        assert_eq!(map, before);
    }
}
