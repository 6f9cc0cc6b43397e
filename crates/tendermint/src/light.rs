//! Light-client verification primitives.
//!
//! IBC clients (ICS-02/07) track the counterparty chain's consensus through a
//! light client that verifies each new header against the validator set's
//! commit signatures. This module is that check, [`verify_commit`]; the
//! heights a client trusts live in `xcc-ibc`'s client record.

use crate::block::Header;
use crate::validator::ValidatorSet;
use crate::vote::{sign_vote, BlockIdFlag, Commit};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abci::{CheckTxResult, DeliverTxResult};
    use crate::hash::Hash;
    use crate::node::Node;
    use xcc_sim::{SimDuration, SimTime};

    /// No-op application for producing real blocks in light-client tests.
    #[derive(Debug, Default)]
    struct NullApp;

    impl crate::abci::Application for NullApp {
        type Decoded = ();
        fn check_tx(&mut self, _tx: &()) -> CheckTxResult {
            CheckTxResult {
                code: 0,
                log: String::new(),
                gas_wanted: 1,
                sender: "x".into(),
                sequence: 0,
            }
        }
        fn begin_block(&mut self, _header: &Header) {}
        fn deliver_tx(&mut self, _tx: ()) -> DeliverTxResult {
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
            SimDuration::from_secs(5),
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
}
