//! The transaction mempool.
//!
//! Transactions accepted by `CheckTx` wait here until a proposer reaps them
//! into a block. The mempool is FIFO and bounded both in transaction count
//! and in total bytes; when full, new submissions are rejected — which is one
//! of the failure modes behind the submission drop-off at very high input
//! rates in Table I of the paper.

// xcc-lint: allow(hash-collections, reason = "HashSet used for membership checks only; never iterated")
use std::collections::{HashSet, VecDeque};

use serde::{Deserialize, Serialize};

use crate::block::RawTx;
use crate::hash::Hash;
use xcc_sim::SimTime;

/// Configuration limits for the mempool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MempoolConfig {
    /// Maximum number of transactions held at once (Tendermint default 5000).
    pub max_txs: usize,
    /// Maximum total bytes held at once.
    pub max_total_bytes: usize,
}

impl Default for MempoolConfig {
    fn default() -> Self {
        MempoolConfig {
            max_txs: 5_000,
            max_total_bytes: 1024 * 1024 * 1024,
        }
    }
}

/// A transaction waiting in the mempool, together with its `CheckTx`
/// metadata. The transaction is identified by [`RawTx::hash`], which the
/// `RawTx` memoizes.
#[derive(Debug, Clone)]
pub struct PendingTx<D> {
    /// The raw transaction.
    pub tx: RawTx,
    /// The application's parsed form of `tx`, as returned by `CheckTx`
    /// (see [`Application`](crate::abci::Application)). It lives exactly as
    /// long as the entry: dropped with a refused admission, moved out to
    /// `DeliverTx` when the entry is reaped.
    pub decoded: Option<D>,
    /// Gas requested by the transaction.
    pub gas_wanted: u64,
    /// The fee-paying account.
    pub sender: String,
    /// The account sequence number carried by the transaction.
    pub sequence: u64,
    /// When the transaction entered the mempool.
    pub received_at: SimTime,
}

/// Why a transaction was refused admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MempoolError {
    /// The mempool already holds `max_txs` transactions.
    Full {
        /// The configured limit that was hit.
        max_txs: usize,
    },
    /// Admitting the transaction would exceed the byte limit.
    TooManyBytes {
        /// The configured byte limit.
        max_total_bytes: usize,
    },
    /// The identical transaction is already pending.
    AlreadyPending,
}

impl std::fmt::Display for MempoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MempoolError::Full { max_txs } => write!(f, "mempool is full ({max_txs} txs)"),
            MempoolError::TooManyBytes { max_total_bytes } => {
                write!(f, "mempool byte limit reached ({max_total_bytes} bytes)")
            }
            MempoolError::AlreadyPending => write!(f, "tx already exists in cache"),
        }
    }
}

impl std::error::Error for MempoolError {}

/// A FIFO, bounded transaction mempool.
///
/// # Example
///
/// ```rust
/// use xcc_tendermint::block::RawTx;
/// use xcc_tendermint::mempool::{Mempool, MempoolConfig, PendingTx};
/// use xcc_sim::SimTime;
///
/// let mut pool = Mempool::new(MempoolConfig::default());
/// pool.add(PendingTx {
///     tx: RawTx::new(b"tx".to_vec()),
///     decoded: None::<()>,
///     gas_wanted: 100,
///     sender: "alice".into(),
///     sequence: 0,
///     received_at: SimTime::ZERO,
/// }).unwrap();
/// assert_eq!(pool.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Mempool<D> {
    config: MempoolConfig,
    queue: VecDeque<PendingTx<D>>,
    // xcc-lint: allow(hash-collections, reason = "O(1) duplicate-hash membership; iteration never observes it")
    hashes: HashSet<Hash>,
    total_bytes: usize,
    rejected_full: u64,
}

impl<D> Mempool<D> {
    /// Creates an empty mempool with the given limits.
    pub fn new(config: MempoolConfig) -> Self {
        Mempool {
            config,
            queue: VecDeque::new(),
            // xcc-lint: allow(hash-collections, reason = "membership-only set, see field declaration")
            hashes: HashSet::new(),
            total_bytes: 0,
            rejected_full: 0,
        }
    }

    /// The configured limits.
    pub fn config(&self) -> &MempoolConfig {
        &self.config
    }

    /// Number of pending transactions.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// `true` when no transactions are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Total bytes of pending transactions.
    pub fn total_bytes(&self) -> usize {
        self.total_bytes
    }

    /// How many submissions were rejected because the pool was full.
    pub fn rejected_full(&self) -> u64 {
        self.rejected_full
    }

    /// Whether a transaction with this hash is pending.
    pub fn contains(&self, hash: &Hash) -> bool {
        self.hashes.contains(hash)
    }

    /// Adds a checked transaction to the pool.
    ///
    /// # Errors
    ///
    /// Returns an error when the pool is full, the byte limit would be
    /// exceeded, or the transaction is already pending.
    pub fn add(&mut self, tx: PendingTx<D>) -> Result<(), MempoolError> {
        if self.hashes.contains(&tx.tx.hash()) {
            return Err(MempoolError::AlreadyPending);
        }
        if self.queue.len() >= self.config.max_txs {
            self.rejected_full += 1;
            return Err(MempoolError::Full {
                max_txs: self.config.max_txs,
            });
        }
        if self.total_bytes + tx.tx.len() > self.config.max_total_bytes {
            self.rejected_full += 1;
            return Err(MempoolError::TooManyBytes {
                max_total_bytes: self.config.max_total_bytes,
            });
        }
        self.total_bytes += tx.tx.len();
        self.hashes.insert(tx.tx.hash());
        self.queue.push_back(tx);
        Ok(())
    }

    /// Takes the transactions of the next block proposal out of the pool: in
    /// FIFO order, up to the given gas, byte and count limits (0 for
    /// `max_txs` means no count limit), considering only transactions
    /// received at or before `not_after` — a transaction broadcast at a later
    /// virtual time can never appear in an earlier block.
    ///
    /// The entries are moved, not copied: the proposer owns the payloads (and
    /// the decoded forms riding on them) from here on, and everything not
    /// selected keeps its place in the queue.
    pub fn reap_before(
        &mut self,
        max_gas: u64,
        max_bytes: usize,
        max_txs: usize,
        not_after: SimTime,
    ) -> Vec<PendingTx<D>> {
        let mut selected = Vec::new();
        let mut kept = VecDeque::with_capacity(self.queue.len());
        let mut gas = 0u64;
        let mut bytes = 0usize;
        let mut full = false;
        for tx in self.queue.drain(..) {
            // Not visible to this proposal yet: skipped, not a stop.
            if full || tx.received_at > not_after {
                kept.push_back(tx);
                continue;
            }
            if (max_txs != 0 && selected.len() >= max_txs)
                || gas + tx.gas_wanted > max_gas
                || bytes + tx.tx.len() > max_bytes
            {
                // FIFO semantics: stop at the first transaction that does not
                // fit, like Tendermint's proposer.
                full = true;
                kept.push_back(tx);
                continue;
            }
            gas += tx.gas_wanted;
            bytes += tx.tx.len();
            self.hashes.remove(&tx.tx.hash());
            selected.push(tx);
        }
        self.queue = kept;
        self.total_bytes -= bytes;
        selected
    }

    /// Number of pending transactions from one sender — the mempool's share
    /// of an account's unconfirmed sequence window. This is what the
    /// unconfirmed-aware account query (`account_sequence_unconfirmed` in the
    /// RPC layer) adds on top of the committed sequence.
    pub fn pending_from(&self, sender: &str) -> usize {
        self.queue.iter().filter(|tx| tx.sender == sender).count()
    }

    /// Iterates over pending transactions in FIFO order.
    pub fn iter(&self) -> impl Iterator<Item = &PendingTx<D>> {
        self.queue.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(id: u8, size: usize, gas: u64, sender: &str) -> PendingTx<u8> {
        let mut bytes = vec![id];
        bytes.resize(size.max(1), 0);
        PendingTx {
            tx: RawTx::new(bytes),
            decoded: Some(id),
            gas_wanted: gas,
            sender: sender.to_string(),
            sequence: 0,
            received_at: SimTime::ZERO,
        }
    }

    /// `reap_before` with no time cut-off.
    fn reap(
        pool: &mut Mempool<u8>,
        max_gas: u64,
        max_bytes: usize,
        max_txs: usize,
    ) -> Vec<PendingTx<u8>> {
        pool.reap_before(max_gas, max_bytes, max_txs, SimTime::MAX)
    }

    fn filled(count: u8, size: usize, gas: u64) -> Mempool<u8> {
        let mut pool = Mempool::new(MempoolConfig::default());
        for i in 0..count {
            pool.add(tx(i, size, gas, "a")).unwrap();
        }
        pool
    }

    #[test]
    fn reap_takes_entries_out_in_fifo_order_with_their_decoded_forms() {
        let mut pool = filled(5, 10, 100);
        let bytes_before = pool.total_bytes();
        let reaped = reap(&mut pool, 350, 1_000, 0);
        let ids: Vec<u8> = reaped.iter().map(|p| p.tx.as_bytes()[0]).collect();
        assert_eq!(ids, [0, 1, 2]);
        // The decoded form rides on the entry it was admitted with.
        let decoded: Vec<Option<u8>> = reaped.iter().map(|p| p.decoded).collect();
        assert_eq!(decoded, [Some(0), Some(1), Some(2)]);
        // Reaped entries are gone from every piece of bookkeeping; the rest
        // keep their order.
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.total_bytes(), bytes_before - 30);
        assert!(reaped.iter().all(|p| !pool.contains(&p.tx.hash())));
        let left: Vec<u8> = pool.iter().map(|p| p.tx.as_bytes()[0]).collect();
        assert_eq!(left, [3, 4]);
        // A reaped transaction may be admitted again (it is no duplicate).
        pool.add(tx(0, 10, 100, "a")).unwrap();
    }

    #[test]
    fn reap_respects_gas_limit() {
        assert_eq!(reap(&mut filled(10, 10, 100), 350, 100_000, 0).len(), 3);
    }

    #[test]
    fn reap_respects_byte_limit_and_count_limit() {
        assert_eq!(reap(&mut filled(10, 100, 1), 1_000_000, 250, 0).len(), 2);
        assert_eq!(
            reap(&mut filled(10, 100, 1), 1_000_000, 1_000_000, 4).len(),
            4
        );
    }

    #[test]
    fn reap_skips_later_arrivals_without_stopping_at_them() {
        let mut pool = Mempool::new(MempoolConfig::default());
        let mut late = tx(0, 10, 1, "a");
        late.received_at = SimTime::from_secs(9);
        pool.add(late).unwrap();
        pool.add(tx(1, 10, 1, "a")).unwrap();
        let reaped = pool.reap_before(1_000, 1_000, 0, SimTime::from_secs(5));
        assert_eq!(reaped.len(), 1);
        assert_eq!(reaped[0].tx.as_bytes()[0], 1);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.iter().next().unwrap().tx.as_bytes()[0], 0);
    }

    #[test]
    fn duplicate_txs_are_rejected() {
        let mut pool = Mempool::new(MempoolConfig::default());
        let t = tx(1, 10, 1, "a");
        pool.add(t.clone()).unwrap();
        assert_eq!(pool.add(t), Err(MempoolError::AlreadyPending));
    }

    #[test]
    fn capacity_limits_are_enforced() {
        let mut pool = Mempool::new(MempoolConfig {
            max_txs: 2,
            max_total_bytes: 1_000,
        });
        pool.add(tx(1, 10, 1, "a")).unwrap();
        pool.add(tx(2, 10, 1, "a")).unwrap();
        assert!(matches!(
            pool.add(tx(3, 10, 1, "a")),
            Err(MempoolError::Full { .. })
        ));
        assert_eq!(pool.rejected_full(), 1);

        let mut pool = Mempool::new(MempoolConfig {
            max_txs: 100,
            max_total_bytes: 25,
        });
        pool.add(tx(1, 20, 1, "a")).unwrap();
        assert!(matches!(
            pool.add(tx(2, 20, 1, "a")),
            Err(MempoolError::TooManyBytes { .. })
        ));
    }

    #[test]
    fn pending_from_counts_one_sender() {
        let mut pool = Mempool::new(MempoolConfig::default());
        pool.add(tx(1, 10, 1, "alice")).unwrap();
        pool.add(tx(2, 10, 1, "alice")).unwrap();
        pool.add(tx(3, 10, 1, "bob")).unwrap();
        assert_eq!(pool.pending_from("alice"), 2);
        assert_eq!(pool.pending_from("bob"), 1);
        assert_eq!(pool.pending_from("carol"), 0);
    }

    #[test]
    fn error_display_messages() {
        assert!(MempoolError::Full { max_txs: 5 }
            .to_string()
            .contains("full"));
        assert!(MempoolError::AlreadyPending
            .to_string()
            .contains("already exists"));
    }
}
