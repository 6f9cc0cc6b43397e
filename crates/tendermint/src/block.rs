//! Blocks: header, transaction data and last commit.
//!
//! The structure follows Fig. 1 of the paper: a block has a `Header`, a
//! `Data` field with application-specific transactions and a `LastCommit`
//! carrying the previous height's pre-commit signatures. Fig. 1's `Evidence`
//! list is always empty in the paper's fault-free testnets, so the model
//! keeps only its trace in the header: the `EvidenceHash` of an empty list
//! ([`evidence_hash`]).

use std::cell::OnceCell;

use serde::{Deserialize, Serialize};

use crate::hash::{hash_fields, sha256, Hash};
use crate::merkle::simple_root;
use crate::validator::ValidatorAddress;
use crate::vote::Commit;
use xcc_sim::SimTime;

/// A raw, application-opaque transaction.
///
/// Tendermint treats transaction contents as opaque bytes; validation is the
/// application's responsibility (via ABCI).
///
/// The simulator distinguishes the in-memory payload from the *modelled wire
/// size*: applications may ship a compact host encoding while declaring the
/// byte size the transaction would have on the real JSON-RPC wire (via
/// [`RawTx::with_wire_len`]). All size accounting — mempool byte limits,
/// block-size limits, event-frame payloads — uses the wire size, so swapping
/// the host encoding never changes simulated behaviour.
///
/// # Hash memo
///
/// [`RawTx::hash`] is one full SHA-256 pass over a payload that reaches
/// 100 KB for a relayer transaction, and the same transaction is identified
/// by hash at the RPC boundary, in the mempool, in the transaction index and
/// in every block-event payload. The digest is therefore computed once, by
/// the `RawTx` itself from its own immutable bytes (there is no way to supply
/// one), and memoized; clones carry the memo. It is not state: equality,
/// `Hash` and the serialized form see only the bytes and the wire length.
///
/// # Example
///
/// ```rust
/// use xcc_tendermint::block::RawTx;
///
/// let tx = RawTx::new(vec![1, 2, 3]);
/// assert_eq!(tx.len(), 3);
/// assert!(!tx.hash().is_zero());
///
/// let modelled = RawTx::with_wire_len(vec![1, 2, 3], 120);
/// assert_eq!(modelled.len(), 120);
/// assert_eq!(modelled.as_bytes().len(), 3);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RawTx {
    bytes: Vec<u8>,
    wire_len: usize,
    #[serde(skip)]
    hash: OnceCell<Hash>,
}

impl PartialEq for RawTx {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes && self.wire_len == other.wire_len
    }
}

impl Eq for RawTx {}

impl std::hash::Hash for RawTx {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.bytes.hash(state);
        self.wire_len.hash(state);
    }
}

impl RawTx {
    /// Wraps raw transaction bytes whose wire size equals their length.
    pub fn new(bytes: Vec<u8>) -> Self {
        let wire_len = bytes.len();
        Self::with_wire_len(bytes, wire_len)
    }

    /// Wraps a compact host payload together with the byte size the
    /// transaction occupies on the modelled wire.
    pub fn with_wire_len(bytes: Vec<u8>, wire_len: usize) -> Self {
        RawTx {
            bytes,
            wire_len,
            hash: OnceCell::new(),
        }
    }

    /// The transaction hash (used as its identifier, as in `tx_search`):
    /// SHA-256 of the payload bytes, computed on first use and memoized.
    pub fn hash(&self) -> Hash {
        *self.hash.get_or_init(|| sha256(&self.bytes))
    }

    /// The memoized hash, if [`RawTx::hash`] has already run on this
    /// instance or on the one it was cloned from. Lets tests pin that a
    /// path hashes a payload once.
    // xcc-lint: allow(dead-knob, reason = "the oracle of the hash-memo tests raw_tx_hash_memo_is_carried_by_clones_and_is_not_state and chain's hash_is_stable_and_needs_one_encoding")
    pub fn hash_if_computed(&self) -> Option<Hash> {
        self.hash.get().copied()
    }

    /// Size of the transaction in bytes on the modelled wire.
    pub fn len(&self) -> usize {
        self.wire_len
    }

    /// `true` for an empty transaction.
    pub fn is_empty(&self) -> bool {
        self.wire_len == 0
    }

    /// The raw payload bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl From<Vec<u8>> for RawTx {
    fn from(bytes: Vec<u8>) -> Self {
        RawTx::new(bytes)
    }
}

/// Identifies a block by the hash of its header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BlockId {
    /// Hash of the block's header.
    pub hash: Hash,
}

/// Versioning information carried in the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Version {
    /// Block protocol version.
    pub block: u64,
    /// Application version.
    pub app: u64,
}

impl Default for Version {
    fn default() -> Self {
        Version { block: 11, app: 1 }
    }
}

/// A block header (Fig. 1 of the paper).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Header {
    /// Protocol versions.
    pub version: Version,
    /// Identifier of the chain this block belongs to.
    pub chain_id: String,
    /// Height of this block.
    pub height: u64,
    /// Proposal time of this block.
    pub time: SimTime,
    /// Identifier of the previous block (zero hash at height 1).
    pub last_block_id: BlockId,
    /// Hash of the previous block's commit.
    pub last_commit_hash: Hash,
    /// Merkle root over the ids of the transactions in the `Data` field.
    pub data_hash: Hash,
    /// Hash of the validator set that produced this block.
    pub validators_hash: Hash,
    /// Hash of the validator set for the next height.
    pub next_validators_hash: Hash,
    /// Hash of the consensus parameters.
    pub consensus_hash: Hash,
    /// Application state root after executing the previous block.
    pub app_hash: Hash,
    /// Root of the previous block's transaction execution results.
    pub last_results_hash: Hash,
    /// Hash of the evidence included in this block (always none: see
    /// [`evidence_hash`]).
    pub evidence_hash: Hash,
    /// Address of the block proposer.
    pub proposer_address: ValidatorAddress,
}

impl Header {
    /// The hash of the header, which identifies the block.
    pub fn hash(&self) -> Hash {
        hash_fields(&[
            b"header",
            self.chain_id.as_bytes(),
            &self.height.to_be_bytes(),
            &self.time.as_nanos().to_be_bytes(),
            self.last_block_id.hash.as_bytes(),
            self.last_commit_hash.as_bytes(),
            self.data_hash.as_bytes(),
            self.validators_hash.as_bytes(),
            self.next_validators_hash.as_bytes(),
            self.consensus_hash.as_bytes(),
            self.app_hash.as_bytes(),
            self.last_results_hash.as_bytes(),
            self.evidence_hash.as_bytes(),
            self.proposer_address.0.as_bytes(),
        ])
    }

    /// The block identifier derived from this header.
    pub fn block_id(&self) -> BlockId {
        BlockId { hash: self.hash() }
    }
}

/// The application-specific transaction payload of a block.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Data {
    /// Transactions in proposer order.
    pub txs: Vec<RawTx>,
}

impl Data {
    /// Merkle root over the transactions' ids ([`RawTx::hash`]), as
    /// CometBFT's `Txs.Hash()` is. Each id is a digest of its whole payload,
    /// so the root still covers every payload byte, and the ids are the
    /// memos mempool admission already filled: a commit hashes 32 bytes per
    /// transaction here, not its payload a second time.
    pub fn hash(&self) -> Hash {
        let ids: Vec<Hash> = self.txs.iter().map(RawTx::hash).collect();
        simple_root(ids.iter().map(|id| &id.as_bytes()[..]))
    }

    /// Total size of all transactions in bytes.
    pub fn byte_size(&self) -> usize {
        self.txs.iter().map(RawTx::len).sum()
    }
}

/// A complete block.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Block {
    /// The block header.
    pub header: Header,
    /// Transactions.
    pub data: Data,
    /// Pre-commits for the previous block (`None` only at height 1).
    pub last_commit: Option<Commit>,
}

impl Block {
    /// The block's identifier.
    pub fn block_id(&self) -> BlockId {
        self.header.block_id()
    }

    /// Height shortcut.
    pub fn height(&self) -> u64 {
        self.header.height
    }

    /// Number of transactions in the block.
    pub fn tx_count(&self) -> usize {
        self.data.txs.len()
    }

    /// Approximate block size in bytes (transactions plus a fixed header and
    /// per-commit-signature overhead), used to enforce `max_bytes`.
    pub fn byte_size(&self) -> usize {
        const HEADER_OVERHEAD: usize = 512;
        const SIG_OVERHEAD: usize = 110;
        let commit_size = self
            .last_commit
            .as_ref()
            .map(|c| c.signatures.len() * SIG_OVERHEAD)
            .unwrap_or(0);
        HEADER_OVERHEAD + commit_size + self.data.byte_size()
    }

    /// Basic structural validation: the data hash in the header must match
    /// the block contents.
    pub fn validate_basic(&self) -> Result<(), BlockValidationError> {
        if self.header.data_hash != self.data.hash() {
            return Err(BlockValidationError::DataHashMismatch {
                height: self.header.height,
            });
        }
        if self.header.height == 0 {
            return Err(BlockValidationError::ZeroHeight);
        }
        Ok(())
    }
}

/// A header's `EvidenceHash`: the Merkle root of an empty evidence list, since
/// no block of the model carries evidence.
pub fn evidence_hash() -> Hash {
    simple_root(std::iter::empty())
}

/// Errors detected by [`Block::validate_basic`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockValidationError {
    /// The header's `DataHash` does not match the transactions.
    DataHashMismatch {
        /// Height of the offending block.
        height: u64,
    },
    /// Blocks start at height 1; height 0 is invalid.
    ZeroHeight,
}

impl std::fmt::Display for BlockValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockValidationError::DataHashMismatch { height } => {
                write!(f, "data hash mismatch in block at height {height}")
            }
            BlockValidationError::ZeroHeight => write!(f, "block height must be positive"),
        }
    }
}

impl std::error::Error for BlockValidationError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validator::ValidatorAddress;

    fn sample_header(height: u64, data: &Data) -> Header {
        Header {
            version: Version::default(),
            chain_id: "test-chain".to_string(),
            height,
            time: SimTime::from_secs(height * 5),
            last_block_id: BlockId { hash: Hash::ZERO },
            last_commit_hash: Hash::ZERO,
            data_hash: data.hash(),
            validators_hash: Hash::ZERO,
            next_validators_hash: Hash::ZERO,
            consensus_hash: Hash::ZERO,
            app_hash: Hash::ZERO,
            last_results_hash: Hash::ZERO,
            evidence_hash: evidence_hash(),
            proposer_address: ValidatorAddress::from_name("val-0"),
        }
    }

    #[test]
    fn raw_tx_hash_identifies_contents() {
        let a = RawTx::new(vec![1, 2, 3]);
        let b = RawTx::new(vec![1, 2, 4]);
        assert_ne!(a.hash(), b.hash());
        assert_eq!(a.hash(), RawTx::new(vec![1, 2, 3]).hash());
    }

    #[test]
    fn raw_tx_hash_memo_is_carried_by_clones_and_is_not_state() {
        let hashed = RawTx::with_wire_len(vec![1, 2, 3], 40);
        assert_eq!(hashed.hash_if_computed(), None);
        assert_eq!(hashed.hash(), sha256(&[1, 2, 3]));
        assert_eq!(hashed.hash_if_computed(), Some(hashed.hash()));
        assert_eq!(hashed.clone().hash_if_computed(), Some(hashed.hash()));

        // Equality, `Hash` and the wire form ignore whether the memo is set.
        let fresh = RawTx::with_wire_len(vec![1, 2, 3], 40);
        assert_eq!(fresh, hashed);
        let std_hash = |tx: &RawTx| {
            use std::hash::Hasher as _;
            let mut h = std::collections::hash_map::DefaultHasher::new();
            std::hash::Hash::hash(tx, &mut h);
            h.finish()
        };
        assert_eq!(std_hash(&fresh), std_hash(&hashed));
        let value = serde::Serialize::to_value(&hashed);
        assert_eq!(value, serde::Serialize::to_value(&fresh));
        let decoded: RawTx = serde::Deserialize::from_value(&value).expect("round-trips");
        assert_eq!(decoded, hashed);
        assert_eq!(decoded.hash_if_computed(), None);
        assert_eq!(decoded.hash(), hashed.hash());
    }

    #[test]
    fn header_hash_changes_with_any_field() {
        let data = Data {
            txs: vec![RawTx::new(vec![9])],
        };
        let h1 = sample_header(1, &data);
        let mut h2 = h1.clone();
        assert_eq!(h1.hash(), h2.hash());
        h2.height = 2;
        assert_ne!(h1.hash(), h2.hash());
        let mut h3 = h1.clone();
        h3.app_hash = sha256(b"state");
        assert_ne!(h1.hash(), h3.hash());
    }

    #[test]
    fn validate_basic_accepts_consistent_block() {
        let data = Data {
            txs: vec![RawTx::new(vec![1]), RawTx::new(vec![2])],
        };
        let block = Block {
            header: sample_header(3, &data),
            data,
            last_commit: None,
        };
        assert!(block.validate_basic().is_ok());
        assert_eq!(block.tx_count(), 2);
        assert_eq!(block.height(), 3);
    }

    #[test]
    fn validate_basic_rejects_tampered_data() {
        let data = Data {
            txs: vec![RawTx::new(vec![1])],
        };
        let header = sample_header(3, &data);
        let tampered = Block {
            header,
            data: Data {
                txs: vec![RawTx::new(vec![99])],
            },
            last_commit: None,
        };
        assert!(matches!(
            tampered.validate_basic(),
            Err(BlockValidationError::DataHashMismatch { height: 3 })
        ));
    }

    /// The data hash is a root over tx ids, not payloads, and still changes
    /// with any payload byte: a flipped byte changes that tx's id.
    #[test]
    fn data_hash_is_a_root_over_tx_ids_and_covers_every_payload_byte() {
        let data = Data {
            txs: vec![
                RawTx::new(vec![1, 2, 3]),
                RawTx::with_wire_len(vec![0xff; 100], 250),
                RawTx::new(Vec::new()),
            ],
        };
        let ids: Vec<Hash> = data.txs.iter().map(RawTx::hash).collect();
        assert_eq!(
            data.hash(),
            simple_root(ids.iter().map(|id| &id.as_bytes()[..]))
        );
        assert_ne!(
            data.hash(),
            simple_root(data.txs.iter().map(RawTx::as_bytes)),
            "not the root over payloads"
        );
        assert_eq!(Data::default().hash(), simple_root(std::iter::empty()));

        let block = Block {
            header: sample_header(4, &data),
            data,
            last_commit: None,
        };
        assert!(block.validate_basic().is_ok());
        for (tx, at) in [(0, 1), (1, 99)] {
            let mut tampered = block.clone();
            let raw = &tampered.data.txs[tx];
            let mut bytes = raw.as_bytes().to_vec();
            bytes[at] ^= 0x01;
            tampered.data.txs[tx] = RawTx::with_wire_len(bytes, raw.len());
            assert_eq!(
                tampered.validate_basic(),
                Err(BlockValidationError::DataHashMismatch { height: 4 })
            );
        }
    }

    #[test]
    fn validate_basic_rejects_zero_height() {
        let data = Data::default();
        let block = Block {
            header: sample_header(0, &data),
            data,
            last_commit: None,
        };
        assert_eq!(
            block.validate_basic(),
            Err(BlockValidationError::ZeroHeight)
        );
    }

    #[test]
    fn byte_size_grows_with_transactions() {
        let empty = Block {
            header: sample_header(1, &Data::default()),
            data: Data::default(),
            last_commit: None,
        };
        let data = Data {
            txs: vec![RawTx::new(vec![0u8; 1000])],
        };
        let full = Block {
            header: sample_header(1, &data),
            data,
            last_commit: None,
        };
        assert!(full.byte_size() >= empty.byte_size() + 1000);
    }

    #[test]
    fn validation_error_display() {
        let err = BlockValidationError::DataHashMismatch { height: 7 };
        assert!(err.to_string().contains("height 7"));
    }
}
