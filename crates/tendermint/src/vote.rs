//! Votes, commit signatures and commits.
//!
//! Signatures are simulated: a validator's signature over a block is a keyed
//! digest that anyone can recompute and verify. This preserves the structure
//! of Tendermint's `LastCommit` field (Fig. 1 of the paper) without pulling
//! in real public-key cryptography, whose cost is irrelevant to the paper's
//! findings.

use serde::{Deserialize, Serialize};

use crate::block::BlockId;
use crate::hash::{hash_fields, Hash};
use crate::validator::ValidatorAddress;
use xcc_sim::SimTime;

/// The two voting stages of a Tendermint round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VoteType {
    /// First stage: pre-vote.
    Prevote,
    /// Second stage: pre-commit.
    Precommit,
}

/// Whether a validator's commit signature is for the committed block, for a
/// different block, or absent — mirroring Tendermint's `BlockIDFlag`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlockIdFlag {
    /// The validator voted for the block that was committed.
    Commit,
    /// The validator voted nil or for a different block.
    Nil,
    /// The validator did not cast a vote.
    Absent,
}

/// A single vote cast by a validator during consensus.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Vote {
    /// The voting stage.
    pub vote_type: VoteType,
    /// Block height the vote applies to.
    pub height: u64,
    /// Consensus round within the height.
    pub round: u32,
    /// The block voted for, or `None` for a nil vote.
    pub block_id: Option<BlockId>,
    /// The voter.
    pub validator: ValidatorAddress,
    /// When the vote was cast.
    pub timestamp: SimTime,
}

impl Vote {
    /// The simulated signature over this vote.
    pub fn signature(&self) -> Hash {
        sign_vote(
            &self.validator,
            self.height,
            self.round,
            self.block_id.as_ref(),
        )
    }
}

/// Computes the simulated signature a validator produces for a vote.
pub fn sign_vote(
    validator: &ValidatorAddress,
    height: u64,
    round: u32,
    block_id: Option<&BlockId>,
) -> Hash {
    let block_hash = block_id.map(|b| b.hash).unwrap_or(Hash::ZERO);
    hash_fields(&[
        b"vote-signature",
        validator.0.as_bytes(),
        &height.to_be_bytes(),
        &round.to_be_bytes(),
        block_hash.as_bytes(),
    ])
}

/// One validator's entry in a block's `LastCommit`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommitSig {
    /// Whether the validator signed the committed block, another block, or
    /// nothing.
    pub flag: BlockIdFlag,
    /// The validator's address.
    pub validator: ValidatorAddress,
    /// When the validator signed.
    pub timestamp: SimTime,
    /// The simulated signature (all zero when absent).
    pub signature: Hash,
}

impl CommitSig {
    /// A commit signature for the committed block.
    pub fn for_block(
        validator: ValidatorAddress,
        height: u64,
        round: u32,
        block_id: &BlockId,
        timestamp: SimTime,
    ) -> Self {
        CommitSig {
            flag: BlockIdFlag::Commit,
            validator,
            timestamp,
            signature: sign_vote(&validator, height, round, Some(block_id)),
        }
    }

    /// An absent commit signature (validator did not vote).
    pub fn absent(validator: ValidatorAddress) -> Self {
        CommitSig {
            flag: BlockIdFlag::Absent,
            validator,
            timestamp: SimTime::ZERO,
            signature: Hash::ZERO,
        }
    }
}

/// The aggregate of pre-commit votes that finalised a block.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Commit {
    /// Height of the committed block.
    pub height: u64,
    /// Round in which the block was committed.
    pub round: u32,
    /// Identifier of the committed block.
    pub block_id: BlockId,
    /// One entry per validator in the set, in validator-set order.
    pub signatures: Vec<CommitSig>,
}

impl Commit {
    /// Hash of the commit, recorded as `LastCommitHash` in the next header.
    pub fn hash(&self) -> Hash {
        let mut fields: Vec<Vec<u8>> = Vec::with_capacity(self.signatures.len() + 1);
        fields.push(self.block_id.hash.as_bytes().to_vec());
        for sig in &self.signatures {
            let mut bytes = sig.validator.0.as_bytes().to_vec();
            bytes.extend_from_slice(sig.signature.as_bytes());
            bytes.push(match sig.flag {
                BlockIdFlag::Commit => 2,
                BlockIdFlag::Nil => 1,
                BlockIdFlag::Absent => 0,
            });
            fields.push(bytes);
        }
        let refs: Vec<&[u8]> = fields.iter().map(|f| f.as_slice()).collect();
        hash_fields(&refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_id(n: u8) -> BlockId {
        BlockId {
            hash: hash_fields(&[b"block", &[n]]),
        }
    }

    #[test]
    fn vote_signature_is_deterministic_and_binding() {
        let val = ValidatorAddress::from_name("val-0");
        let v1 = Vote {
            vote_type: VoteType::Precommit,
            height: 5,
            round: 0,
            block_id: Some(block_id(1)),
            validator: val,
            timestamp: SimTime::from_secs(1),
        };
        let mut v2 = v1.clone();
        assert_eq!(v1.signature(), v2.signature());
        v2.block_id = Some(block_id(2));
        assert_ne!(v1.signature(), v2.signature());
        v2.block_id = None;
        assert_ne!(v1.signature(), v2.signature());
    }

    #[test]
    fn commit_sig_constructors() {
        let val = ValidatorAddress::from_name("val-1");
        let sig = CommitSig::for_block(val, 3, 0, &block_id(7), SimTime::from_secs(2));
        assert_eq!(sig.flag, BlockIdFlag::Commit);
        assert_eq!(sig.signature, sign_vote(&val, 3, 0, Some(&block_id(7))));
        let absent = CommitSig::absent(val);
        assert_eq!(absent.flag, BlockIdFlag::Absent);
        assert!(absent.signature.is_zero());
    }

    #[test]
    fn commit_hash_covers_signatures() {
        let vals: Vec<ValidatorAddress> = (0..4)
            .map(|i| ValidatorAddress::from_name(&format!("val-{i}")))
            .collect();
        let make = |flags: &[BlockIdFlag]| Commit {
            height: 9,
            round: 0,
            block_id: block_id(3),
            signatures: vals
                .iter()
                .zip(flags)
                .map(|(v, f)| match f {
                    BlockIdFlag::Commit => {
                        CommitSig::for_block(*v, 9, 0, &block_id(3), SimTime::ZERO)
                    }
                    _ => CommitSig::absent(*v),
                })
                .collect(),
        };
        let all = make(&[BlockIdFlag::Commit; 4]);
        let three = make(&[
            BlockIdFlag::Commit,
            BlockIdFlag::Commit,
            BlockIdFlag::Commit,
            BlockIdFlag::Absent,
        ]);
        assert_ne!(all.hash(), three.hash());
    }
}
