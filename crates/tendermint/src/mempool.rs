//! The transaction mempool.
//!
//! Transactions accepted by `CheckTx` wait here until a proposer reaps them
//! into a block. The mempool is FIFO and bounded both in transaction count
//! and in total bytes; when full, new submissions are rejected — which is one
//! of the failure modes behind the submission drop-off at very high input
//! rates in Table I of the paper.

#[expect(
    clippy::disallowed_types,
    reason = "HashSet used for membership checks only; never iterated"
)]
use std::collections::{HashSet, VecDeque};

use crate::block::RawTx;
use crate::hash::Hash;
use xcc_sim::SimTime;

/// Maximum number of transactions held at once: Tendermint's default 5,000,
/// the limit behind Table I's submission drop-off.
pub const MAX_TXS: usize = 5_000;

/// Maximum total (modelled wire) bytes held at once.
pub const MAX_TOTAL_BYTES: usize = 1024 * 1024 * 1024;

/// A transaction waiting in the mempool, together with its `CheckTx`
/// metadata. The transaction is identified by [`RawTx::hash`], which the
/// `RawTx` memoizes.
#[derive(Debug, Clone)]
pub struct PendingTx<D> {
    /// The raw transaction.
    pub tx: RawTx,
    /// The application's parsed form of `tx`, the one `CheckTx` admitted
    /// (see [`Application`](crate::abci::Application)). It lives exactly as
    /// long as the entry: handed back with a refused admission, moved out to
    /// `DeliverTx` when the entry is reaped.
    pub decoded: D,
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
    /// The mempool already holds [`MAX_TXS`] transactions.
    Full {
        /// The limit that was hit.
        max_txs: usize,
    },
    /// Admitting the transaction would exceed [`MAX_TOTAL_BYTES`].
    TooManyBytes {
        /// The byte limit.
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
/// use xcc_tendermint::mempool::{Mempool, PendingTx};
/// use xcc_sim::SimTime;
///
/// let mut pool = Mempool::new();
/// pool.add(PendingTx {
///     tx: RawTx::new(b"tx".to_vec()),
///     decoded: (),
///     gas_wanted: 100,
///     sender: "alice".into(),
///     sequence: 0,
///     received_at: SimTime::ZERO,
/// }).unwrap();
/// assert_eq!(pool.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Mempool<D> {
    queue: VecDeque<PendingTx<D>>,
    #[expect(
        clippy::disallowed_types,
        reason = "O(1) duplicate-hash membership; iteration never observes it"
    )]
    hashes: HashSet<Hash>,
    total_bytes: usize,
}

impl<D> Default for Mempool<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<D> Mempool<D> {
    /// Creates an empty mempool.
    pub fn new() -> Self {
        Mempool {
            queue: VecDeque::new(),
            #[expect(
                clippy::disallowed_types,
                reason = "membership-only set, see field declaration"
            )]
            hashes: HashSet::new(),
            total_bytes: 0,
        }
    }

    /// Number of pending transactions.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// `true` when no transactions are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Adds a checked transaction to the pool.
    ///
    /// # Errors
    ///
    /// Returns an error when the pool is full, the byte limit would be
    /// exceeded, or the transaction is already pending, and gives the
    /// refused entry's parsed form back with it.
    pub fn add(&mut self, tx: PendingTx<D>) -> Result<(), (MempoolError, D)> {
        if self.hashes.contains(&tx.tx.hash()) {
            return Err((MempoolError::AlreadyPending, tx.decoded));
        }
        if self.queue.len() >= MAX_TXS {
            return Err((MempoolError::Full { max_txs: MAX_TXS }, tx.decoded));
        }
        if self.total_bytes + tx.tx.len() > MAX_TOTAL_BYTES {
            let error = MempoolError::TooManyBytes {
                max_total_bytes: MAX_TOTAL_BYTES,
            };
            return Err((error, tx.decoded));
        }
        self.total_bytes += tx.tx.len();
        self.hashes.insert(tx.tx.hash());
        self.queue.push_back(tx);
        Ok(())
    }

    /// Takes the transactions of the next block proposal out of the pool: in
    /// FIFO order, up to the given gas and byte limits, considering only
    /// transactions received at or before `not_after` — a transaction
    /// broadcast at a later virtual time can never appear in an earlier
    /// block.
    ///
    /// The entries are moved, not copied: the proposer owns the payloads (and
    /// the decoded forms riding on them) from here on, and everything not
    /// selected keeps its place in the queue.
    pub fn reap_before(
        &mut self,
        max_gas: u64,
        max_bytes: usize,
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
            if gas + tx.gas_wanted > max_gas || bytes + tx.tx.len() > max_bytes {
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
            decoded: id,
            gas_wanted: gas,
            sender: sender.to_string(),
            sequence: 0,
            received_at: SimTime::ZERO,
        }
    }

    /// `reap_before` with no time cut-off.
    fn reap(pool: &mut Mempool<u8>, max_gas: u64, max_bytes: usize) -> Vec<PendingTx<u8>> {
        pool.reap_before(max_gas, max_bytes, SimTime::MAX)
    }

    fn filled(count: u8, size: usize, gas: u64) -> Mempool<u8> {
        let mut pool = Mempool::new();
        for i in 0..count {
            pool.add(tx(i, size, gas, "a")).unwrap();
        }
        pool
    }

    #[test]
    fn reap_takes_entries_out_in_fifo_order_with_their_decoded_forms() {
        let mut pool = filled(5, 10, 100);
        let bytes_before = pool.total_bytes;
        let reaped = reap(&mut pool, 350, 1_000);
        let ids: Vec<u8> = reaped.iter().map(|p| p.tx.as_bytes()[0]).collect();
        assert_eq!(ids, [0, 1, 2]);
        // The decoded form rides on the entry it was admitted with.
        let decoded: Vec<u8> = reaped.iter().map(|p| p.decoded).collect();
        assert_eq!(decoded, [0, 1, 2]);
        // Reaped entries are gone from every piece of bookkeeping; the rest
        // keep their order.
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.total_bytes, bytes_before - 30);
        assert!(reaped.iter().all(|p| !pool.hashes.contains(&p.tx.hash())));
        let left: Vec<u8> = pool.iter().map(|p| p.tx.as_bytes()[0]).collect();
        assert_eq!(left, [3, 4]);
        // A reaped transaction may be admitted again (it is no duplicate).
        pool.add(tx(0, 10, 100, "a")).unwrap();
    }

    #[test]
    fn reap_respects_gas_limit() {
        assert_eq!(reap(&mut filled(10, 10, 100), 350, 100_000).len(), 3);
    }

    #[test]
    fn reap_respects_byte_limit() {
        assert_eq!(reap(&mut filled(10, 100, 1), 1_000_000, 250).len(), 2);
    }

    #[test]
    fn reap_skips_later_arrivals_without_stopping_at_them() {
        let mut pool = Mempool::new();
        let mut late = tx(0, 10, 1, "a");
        late.received_at = SimTime::from_secs(9);
        pool.add(late).unwrap();
        pool.add(tx(1, 10, 1, "a")).unwrap();
        let reaped = pool.reap_before(1_000, 1_000, SimTime::from_secs(5));
        assert_eq!(reaped.len(), 1);
        assert_eq!(reaped[0].tx.as_bytes()[0], 1);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.iter().next().unwrap().tx.as_bytes()[0], 0);
    }

    #[test]
    fn duplicate_txs_are_rejected() {
        let mut pool = Mempool::new();
        let t = tx(1, 10, 1, "a");
        pool.add(t.clone()).unwrap();
        let (error, refused) = pool.add(t).unwrap_err();
        assert_eq!(error, MempoolError::AlreadyPending);
        assert_eq!(refused, 1, "the parsed form comes back");
    }

    #[test]
    fn capacity_limits_are_enforced() {
        let entry = |bytes: Vec<u8>, wire_len| PendingTx {
            tx: RawTx::with_wire_len(bytes, wire_len),
            ..tx(0, 1, 1, "a")
        };
        let mut pool = Mempool::new();
        for i in 0..MAX_TXS as u32 {
            pool.add(entry(i.to_be_bytes().to_vec(), 10)).unwrap();
        }
        assert_eq!(pool.len(), MAX_TXS);
        assert_eq!(
            pool.add(entry(b"one too many".to_vec(), 10))
                .map_err(|(e, _)| e),
            Err(MempoolError::Full { max_txs: MAX_TXS })
        );

        // One entry whose modelled wire size crosses the byte limit.
        let mut pool = Mempool::new();
        pool.add(entry(b"small".to_vec(), 10)).unwrap();
        assert_eq!(
            pool.add(entry(b"huge".to_vec(), MAX_TOTAL_BYTES - 9))
                .map_err(|(e, _)| e),
            Err(MempoolError::TooManyBytes {
                max_total_bytes: MAX_TOTAL_BYTES
            })
        );
        pool.add(entry(b"fits".to_vec(), MAX_TOTAL_BYTES - 10))
            .unwrap();
        assert_eq!(pool.total_bytes, MAX_TOTAL_BYTES);
    }

    #[test]
    fn pending_from_counts_one_sender() {
        let mut pool = Mempool::new();
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
