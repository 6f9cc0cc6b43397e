//! Evidence of validator misbehaviour.
//!
//! The `Evidence` field of a block carries proofs of protocol violations that
//! the application can use to punish validators (slashing). It is empty in
//! the absence of misbehaviour — which is the common case in the paper's
//! experiments — but the structure is implemented fully so that fault
//! injection tests can exercise it.

use serde::{Deserialize, Serialize};

use crate::hash::{hash_fields, Hash};
use crate::validator::ValidatorAddress;
use crate::vote::Vote;

/// Evidence that a validator misbehaved.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Evidence {
    /// The validator signed two different blocks at the same height and
    /// round (equivocation).
    DuplicateVote {
        /// The first conflicting vote.
        vote_a: Vote,
        /// The second conflicting vote.
        vote_b: Vote,
    },
    /// A light-client attack: the validator signed a header that conflicts
    /// with the canonical chain.
    LightClientAttack {
        /// The offending validator.
        validator: ValidatorAddress,
        /// Height of the conflicting header.
        height: u64,
        /// Hash of the conflicting header.
        conflicting_header_hash: Hash,
    },
}

impl Evidence {
    /// The height at which the misbehaviour occurred.
    pub fn height(&self) -> u64 {
        match self {
            Evidence::DuplicateVote { vote_a, .. } => vote_a.height,
            Evidence::LightClientAttack { height, .. } => *height,
        }
    }

    /// Canonical byte encoding used for hashing into the block's
    /// `EvidenceHash`.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        match self {
            Evidence::DuplicateVote { vote_a, vote_b } => hash_fields(&[
                b"duplicate-vote",
                vote_a.validator.0.as_bytes(),
                &vote_a.height.to_be_bytes(),
                &vote_a.round.to_be_bytes(),
                vote_a.signature().as_bytes(),
                vote_b.signature().as_bytes(),
            ])
            .as_bytes()
            .to_vec(),
            Evidence::LightClientAttack {
                validator,
                height,
                conflicting_header_hash,
            } => hash_fields(&[
                b"light-client-attack",
                validator.0.as_bytes(),
                &height.to_be_bytes(),
                conflicting_header_hash.as_bytes(),
            ])
            .as_bytes()
            .to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockId;
    use crate::hash::sha256;
    use crate::vote::VoteType;
    use xcc_sim::SimTime;

    fn vote(val: &str, height: u64, block: u8) -> Vote {
        Vote {
            vote_type: VoteType::Precommit,
            height,
            round: 0,
            block_id: Some(BlockId {
                hash: sha256(&[block]),
            }),
            validator: ValidatorAddress::from_name(val),
            timestamp: SimTime::ZERO,
        }
    }

    #[test]
    fn duplicate_vote_evidence_reports_its_height() {
        let ev = Evidence::DuplicateVote {
            vote_a: vote("val-0", 10, 1),
            vote_b: vote("val-0", 10, 2),
        };
        assert_eq!(ev.height(), 10);
    }

    #[test]
    fn canonical_bytes_distinguish_evidence() {
        let a = Evidence::DuplicateVote {
            vote_a: vote("val-0", 10, 1),
            vote_b: vote("val-0", 10, 2),
        };
        let b = Evidence::DuplicateVote {
            vote_a: vote("val-0", 11, 1),
            vote_b: vote("val-0", 11, 2),
        };
        assert_ne!(a.canonical_bytes(), b.canonical_bytes());
    }
}
