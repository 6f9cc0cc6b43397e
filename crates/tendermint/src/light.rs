//! Light-client verification primitives.
//!
//! IBC clients (ICS-02/07) track the counterparty chain's consensus through a
//! light client: a store of trusted headers that can verify new headers using
//! the validator set's commit signatures. This module implements the
//! verification core used by `xcc-ibc`.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::block::Header;
use crate::hash::Hash;
use crate::validator::ValidatorSet;
use crate::vote::{sign_vote, BlockIdFlag, Commit};
use xcc_sim::SimTime;

/// A header (and associated state roots) the light client trusts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrustedState {
    /// Height of the trusted header.
    pub height: u64,
    /// Hash of the trusted header.
    pub header_hash: Hash,
    /// Hash of the validator set at this height.
    pub validators_hash: Hash,
    /// Hash of the validator set for the next height.
    pub next_validators_hash: Hash,
    /// Application state root committed by this header.
    pub app_hash: Hash,
    /// Header timestamp.
    pub time: SimTime,
}

impl TrustedState {
    /// Extracts a trusted state from a header.
    pub fn from_header(header: &Header) -> Self {
        TrustedState {
            height: header.height,
            header_hash: header.hash(),
            validators_hash: header.validators_hash,
            next_validators_hash: header.next_validators_hash,
            app_hash: header.app_hash,
            time: header.time,
        }
    }
}

/// Errors raised during header verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerificationError {
    /// The header belongs to a different chain.
    ChainIdMismatch {
        /// Chain id the client expected.
        expected: String,
        /// Chain id found in the header.
        found: String,
    },
    /// The commit certifies a different block than the header.
    CommitBlockMismatch,
    /// The commit is for a different height than the header.
    CommitHeightMismatch,
    /// The validator set hash in the header does not match the supplied set.
    ValidatorSetMismatch,
    /// The signatures do not reach the 2/3 quorum threshold.
    InsufficientVotingPower {
        /// Power that signed for the block.
        signed: u64,
        /// Power required for a quorum.
        required: u64,
    },
    /// An individual signature failed verification.
    InvalidSignature,
    /// The header does not extend the client's latest trusted height.
    NonMonotonicHeight {
        /// Latest height the client already trusts.
        trusted: u64,
        /// Height of the submitted header.
        submitted: u64,
    },
}

impl std::fmt::Display for VerificationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerificationError::ChainIdMismatch { expected, found } => {
                write!(f, "chain id mismatch: expected {expected}, found {found}")
            }
            VerificationError::CommitBlockMismatch => write!(f, "commit is for a different block"),
            VerificationError::CommitHeightMismatch => {
                write!(f, "commit is for a different height")
            }
            VerificationError::ValidatorSetMismatch => write!(f, "validator set hash mismatch"),
            VerificationError::InsufficientVotingPower { signed, required } => {
                write!(f, "insufficient voting power: {signed} < {required}")
            }
            VerificationError::InvalidSignature => write!(f, "invalid commit signature"),
            VerificationError::NonMonotonicHeight { trusted, submitted } => {
                write!(
                    f,
                    "header height {submitted} does not extend trusted height {trusted}"
                )
            }
        }
    }
}

impl std::error::Error for VerificationError {}

/// Verifies that `commit` certifies `header` with at least 2/3 of
/// `validators`' voting power.
pub fn verify_commit(
    chain_id: &str,
    header: &Header,
    commit: &Commit,
    validators: &ValidatorSet,
) -> Result<(), VerificationError> {
    if header.chain_id != chain_id {
        return Err(VerificationError::ChainIdMismatch {
            expected: chain_id.to_string(),
            found: header.chain_id.clone(),
        });
    }
    if commit.height != header.height {
        return Err(VerificationError::CommitHeightMismatch);
    }
    if commit.block_id != header.block_id() {
        return Err(VerificationError::CommitBlockMismatch);
    }
    if header.validators_hash != validators.hash() {
        return Err(VerificationError::ValidatorSetMismatch);
    }

    let mut signed_power = 0u64;
    for sig in &commit.signatures {
        if sig.flag != BlockIdFlag::Commit {
            continue;
        }
        let Some(validator) = validators.get(&sig.validator) else {
            // Unknown signer: ignore rather than fail, as Tendermint does for
            // stale validator sets.
            continue;
        };
        let expected = sign_vote(
            &sig.validator,
            commit.height,
            commit.round,
            Some(&commit.block_id),
        );
        if sig.signature != expected {
            return Err(VerificationError::InvalidSignature);
        }
        signed_power += validator.voting_power;
    }

    let required = validators.quorum_threshold();
    if signed_power < required {
        return Err(VerificationError::InsufficientVotingPower {
            signed: signed_power,
            required,
        });
    }
    Ok(())
}

/// A light client tracking a counterparty chain.
///
/// # Example
///
/// ```rust
/// use xcc_tendermint::light::LightClient;
///
/// let client = LightClient::new("chain-b");
/// assert_eq!(client.latest_height(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LightClient {
    chain_id: String,
    trusted: BTreeMap<u64, TrustedState>,
}

impl LightClient {
    /// Creates a client for `chain_id` with no trusted state yet.
    pub fn new(chain_id: impl Into<String>) -> Self {
        LightClient {
            chain_id: chain_id.into(),
            trusted: BTreeMap::new(),
        }
    }

    /// The chain this client tracks.
    pub fn chain_id(&self) -> &str {
        &self.chain_id
    }

    /// The highest trusted height, or 0 when nothing is trusted yet.
    pub fn latest_height(&self) -> u64 {
        self.trusted.keys().next_back().copied().unwrap_or(0)
    }

    /// Number of trusted consensus states held.
    pub fn len(&self) -> usize {
        self.trusted.len()
    }

    /// `true` when no state is trusted yet.
    pub fn is_empty(&self) -> bool {
        self.trusted.is_empty()
    }

    /// Installs an initial trusted header without verification (the trusted
    /// bootstrap of a light client).
    pub fn trust_initial(&mut self, header: &Header) {
        self.trusted
            .insert(header.height, TrustedState::from_header(header));
    }

    /// Verifies `header` against `commit` and `validators` and, on success,
    /// records it as trusted.
    ///
    /// # Errors
    ///
    /// Fails if verification fails or the header does not extend the latest
    /// trusted height.
    pub fn update(
        &mut self,
        header: &Header,
        commit: &Commit,
        validators: &ValidatorSet,
    ) -> Result<(), VerificationError> {
        let latest = self.latest_height();
        if !self.trusted.is_empty() && header.height <= latest {
            return Err(VerificationError::NonMonotonicHeight {
                trusted: latest,
                submitted: header.height,
            });
        }
        verify_commit(&self.chain_id, header, commit, validators)?;
        self.trusted
            .insert(header.height, TrustedState::from_header(header));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abci::{CheckTxResult, DeliverTxResult};
    use crate::block::RawTx;
    use crate::mempool::MempoolConfig;
    use crate::node::Node;
    use crate::params::{ConsensusParams, ConsensusTimingModel};

    /// No-op application for producing real blocks in light-client tests.
    #[derive(Debug, Default)]
    struct NullApp;

    impl crate::abci::Application for NullApp {
        type Decoded = ();
        fn check_tx(&mut self, _tx: &RawTx) -> (CheckTxResult, Option<()>) {
            let accepted = CheckTxResult {
                code: 0,
                log: String::new(),
                gas_wanted: 1,
                sender: "x".into(),
                sequence: 0,
            };
            (accepted, None)
        }
        fn begin_block(&mut self, _header: &Header) {}
        fn deliver_tx(&mut self, _tx: &RawTx, _decoded: Option<()>) -> DeliverTxResult {
            DeliverTxResult {
                code: 0,
                log: String::new(),
                gas_used: 1,
                gas_wanted: 1,
                events: vec![],
            }
        }
        fn end_block(&mut self, _height: u64) {}
        fn commit(&mut self) -> Hash {
            Hash::ZERO
        }
    }

    fn node_with_blocks(n: u64) -> Node<NullApp> {
        let mut node = Node::new(
            "chain-a",
            ValidatorSet::with_equal_power(5, 10),
            ConsensusParams::default(),
            ConsensusTimingModel::default(),
            MempoolConfig::default(),
            NullApp,
        );
        for i in 0..n {
            node.produce_block(SimTime::from_secs(5 * (i + 1)));
        }
        node
    }

    #[test]
    fn verify_commit_accepts_honest_chain() {
        let node = node_with_blocks(3);
        let header = &node.block_at(2).unwrap().block.header;
        let commit = node.commit_for(2).unwrap();
        assert!(verify_commit("chain-a", header, commit, node.validators()).is_ok());
    }

    #[test]
    fn verify_commit_rejects_wrong_chain_id() {
        let node = node_with_blocks(1);
        let header = &node.block_at(1).unwrap().block.header;
        let commit = node.commit_for(1).unwrap();
        assert!(matches!(
            verify_commit("chain-b", header, commit, node.validators()),
            Err(VerificationError::ChainIdMismatch { .. })
        ));
    }

    #[test]
    fn verify_commit_rejects_mismatched_block() {
        let node = node_with_blocks(2);
        let header1 = &node.block_at(1).unwrap().block.header;
        let commit2 = node.commit_for(2).unwrap();
        assert!(matches!(
            verify_commit("chain-a", header1, commit2, node.validators()),
            Err(VerificationError::CommitHeightMismatch)
        ));
    }

    #[test]
    fn verify_commit_rejects_wrong_validator_set() {
        let node = node_with_blocks(1);
        let header = &node.block_at(1).unwrap().block.header;
        let commit = node.commit_for(1).unwrap();
        let other_set = ValidatorSet::with_equal_power(7, 3);
        assert!(matches!(
            verify_commit("chain-a", header, commit, &other_set),
            Err(VerificationError::ValidatorSetMismatch)
        ));
    }

    #[test]
    fn verify_commit_rejects_insufficient_power() {
        let node = node_with_blocks(1);
        let header = &node.block_at(1).unwrap().block.header;
        let mut commit = node.commit_for(1).unwrap().clone();
        // Strip signatures until fewer than the 4-of-5 quorum remain.
        for sig in commit.signatures.iter_mut().take(2) {
            *sig = crate::vote::CommitSig::absent(sig.validator);
        }
        assert!(matches!(
            verify_commit("chain-a", header, &commit, node.validators()),
            Err(VerificationError::InsufficientVotingPower { .. })
        ));
    }

    #[test]
    fn verify_commit_rejects_forged_signature() {
        let node = node_with_blocks(1);
        let header = &node.block_at(1).unwrap().block.header;
        let mut commit = node.commit_for(1).unwrap().clone();
        commit.signatures[0].signature = Hash::ZERO;
        assert_eq!(
            verify_commit("chain-a", header, &commit, node.validators()),
            Err(VerificationError::InvalidSignature)
        );
    }

    #[test]
    fn light_client_updates_monotonically() {
        let node = node_with_blocks(3);
        let mut client = LightClient::new("chain-a");
        assert!(client.is_empty());

        let h1 = &node.block_at(1).unwrap().block.header;
        client.trust_initial(h1);
        assert_eq!(client.latest_height(), 1);

        let h2 = &node.block_at(2).unwrap().block.header;
        client
            .update(h2, node.commit_for(2).unwrap(), node.validators())
            .unwrap();
        let h3 = &node.block_at(3).unwrap().block.header;
        client
            .update(h3, node.commit_for(3).unwrap(), node.validators())
            .unwrap();
        assert_eq!(client.latest_height(), 3);
        assert_eq!(client.len(), 3);
        assert_eq!(client.trusted[&2].header_hash, h2.hash());

        // Replaying an old header must fail.
        assert!(matches!(
            client.update(h2, node.commit_for(2).unwrap(), node.validators()),
            Err(VerificationError::NonMonotonicHeight { .. })
        ));
    }
}
