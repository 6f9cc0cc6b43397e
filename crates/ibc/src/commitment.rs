//! The IBC commitment store (ICS-23/24 style).
//!
//! Every provable piece of IBC state — packet commitments, receipts,
//! acknowledgements, channel and connection ends — is written under a
//! well-known path into this store. The store exposes a Merkle root that the
//! host chain folds into its application hash, and can produce membership
//! and non-membership proofs that counterparty chains verify against the
//! consensus state recorded by their light clients.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use serde::{Deserialize, Serialize};

use xcc_tendermint::hash::{hash_fields, Hash};
use xcc_tendermint::merkle::{leaf_hash_parts, MerkleProof, MerkleTree, VerifiedPath, FRESH};

use crate::host::{AsStorePath, Section, StorePath};
use crate::ids::Sequence;

/// A commitment root: the Merkle root of the IBC store at some height.
pub type CommitmentRoot = Hash;

/// A key/value commitment store with Merkle roots and proofs.
///
/// # Example
///
/// ```rust
/// use xcc_ibc::commitment::CommitmentStore;
/// use xcc_tendermint::hash::sha256;
/// use xcc_tendermint::merkle::VerifiedPath;
///
/// let mut store = CommitmentStore::new();
/// store.set("commitments/ports/transfer/channels/channel-0/sequences/1", sha256(b"data"));
/// let root = store.root();
/// let proof = store.prove_membership("commitments/ports/transfer/channels/channel-0/sequences/1").unwrap();
/// assert!(proof.verify(&root, &mut VerifiedPath::default()));
/// ```
///
/// # Keys
///
/// The map is keyed by [`StorePath`]s, in the byte order of their
/// spellings. The IBC module writes packet commitments, receipts and
/// acknowledgements as a channel end's shared section plus a sequence, so
/// those keys hold no text; every other path, and any text passed to
/// [`set`](CommitmentStore::set) or a lookup, is read as a section of its
/// own. Both kinds are one map, one order and one tree: a root or proof does
/// not depend on how a path was written.
///
/// # Proof-generation caching
///
/// The store is one map and one tree. Each path's record carries, next to
/// the committed value, its rank in path order in the last tree built, and
/// that tree is kept across writes. Building it from scratch would hash
/// every leaf (O(n)), and the relayer's data pulls request one proof per
/// packet sequence, so an uncached store pays O(n) hashing *per proof* —
/// once the dominant cost of whole-experiment replays. With the tree kept,
/// a proof is one map lookup for the record's rank plus O(log n) sibling
/// reads.
///
/// A mutation ([`set`](CommitmentStore::set) /
/// [`delete`](CommitmentStore::delete)) only marks the tree stale (and a
/// set path's record fresh). The next [`root`](CommitmentStore::root) or
/// proof rebuilds it from the last one in one pass over the map: stamp each
/// record's new rank, hash the leaves of the fresh records, and let
/// [`MerkleTree::rebuild`] copy every perfect subtree whose leaves the
/// writes left alone. A block that touches a few hundred of several
/// thousand commitments therefore hashes those leaves and the inner nodes
/// above them, and a path overwritten many times between two builds is
/// hashed once. The tree's leaf level is the only copy of a leaf hash.
///
/// Invariant: a record's rank is either fresh or its leaf's index in
/// `tree`, and nothing reads a rank except the build and, once built, a
/// proof against that tree. Tree shape, roots and proofs are bit-identical
/// to the uncached construction (pinned by
/// `roots_of_a_chain_only_history_are_pinned`,
/// `memoized_tree_invalidates_on_every_mutation`, the differential proptests
/// in `tests/property_invariants.rs`, and the rebuild test in
/// `xcc_tendermint::merkle`).
#[derive(Debug, Clone)]
pub struct CommitmentStore {
    /// Each path's record, keyed by the path.
    entries: BTreeMap<StorePath, Entry>,
    /// The last tree built, over `entries` in path order unless `stale`.
    tree: RefCell<MerkleTree>,
    /// Whether anything was written since `tree` was built.
    stale: Cell<bool>,
}

/// What the store holds for one path.
#[derive(Debug, Clone)]
struct Entry {
    value: Hash,
    /// The index of this path's leaf in the store's tree, or [`FRESH_RANK`]
    /// when `value` was set after the tree was built. Four bytes, so that a
    /// map slot (key, value and rank) is 52 bytes, not 56: a store would
    /// need 2^32 paths, hundreds of gigabytes, to outgrow it.
    rank: Cell<u32>,
}

/// A record's rank before the tree it is in is built: [`FRESH`] in four
/// bytes.
const FRESH_RANK: u32 = u32::MAX;

impl PartialEq for Entry {
    /// Compares the committed value only: the rank is an evaluation
    /// detail, not state.
    fn eq(&self, other: &Self) -> bool {
        self.value == other.value
    }
}

impl Default for CommitmentStore {
    fn default() -> Self {
        CommitmentStore {
            entries: BTreeMap::new(),
            tree: RefCell::new(MerkleTree::build([])),
            stale: Cell::new(false),
        }
    }
}

impl PartialEq for CommitmentStore {
    /// Compares the committed entries only: how current the Merkle tree is
    /// is an evaluation detail, not state.
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl Eq for CommitmentStore {}

/// A membership proof for one path in a [`CommitmentStore`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommitmentProof {
    /// The proven path.
    pub path: String,
    /// The committed value at that path.
    pub value: Hash,
    /// The Merkle inclusion proof of the `(path, value)` leaf.
    merkle: MerkleProof,
    /// The root this proof was generated against.
    pub root: CommitmentRoot,
}

impl CommitmentProof {
    /// Verifies the proof against an externally trusted root (typically the
    /// consensus state stored by a light client). `verified` remembers the
    /// last branch accepted through it (see [`MerkleProof::verify`]), so the
    /// proofs of one batch, all under one root, hash only what they do not
    /// share; a lone proof passes `&mut VerifiedPath::default()`.
    pub fn verify(&self, trusted_root: &CommitmentRoot, verified: &mut VerifiedPath) -> bool {
        trusted_root == &self.root
            && self.merkle.verify(
                trusted_root,
                leaf_hash_parts(&[self.path.as_bytes(), &[0], self.value.as_bytes()]),
                verified,
            )
    }

    /// Approximate encoded size of the proof in bytes, used by the RPC
    /// response-size cost model.
    pub fn encoded_size(&self) -> usize {
        self.path.len() + 32 + 32 + self.merkle.siblings.len() * 32 + 32
    }
}

/// A proof that a path is absent from the store (used by timeout handling).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NonMembershipProof {
    /// The absent path.
    pub path: String,
    /// The root this proof was generated against.
    pub root: CommitmentRoot,
}

impl NonMembershipProof {
    /// Verifies the proof against a trusted root.
    ///
    /// The simulation's non-membership proof is root-anchored only: handlers
    /// additionally check local state, which preserves the protocol-level
    /// behaviour the paper's experiments rely on.
    pub fn verify(&self, trusted_root: &CommitmentRoot) -> bool {
        trusted_root == &self.root
    }
}

impl CommitmentStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of committed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the store has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sets the commitment at `path`, returning the one it replaces. A
    /// `String` whose capacity is its length — every [`crate::host`] text
    /// path — becomes its key's section without a copy or a reallocation.
    pub fn set(&mut self, path: impl Into<StorePath>, value: Hash) -> Option<Hash> {
        self.stale.set(true);
        let entry = Entry {
            value,
            rank: Cell::new(FRESH_RANK),
        };
        self.entries.insert(path.into(), entry).map(|old| old.value)
    }

    /// Reads the commitment at `path`.
    pub fn get(&self, path: &(impl AsStorePath + ?Sized)) -> Option<&Hash> {
        let entry = self.entries.get(&*path.as_store_path())?;
        Some(&entry.value)
    }

    /// Whether the store has a commitment at `path`.
    pub fn contains(&self, path: &(impl AsStorePath + ?Sized)) -> bool {
        self.entries.contains_key(&*path.as_store_path())
    }

    /// The sequences of `section`'s paths in the store, in path order
    /// (`…/10` sorts before `…/2`): one seek to the section's least path
    /// (sequence 0, whose digits sort before any other's), then the paths
    /// spelt under its text, of which those written as text are skipped (so
    /// `…/007` or `…/+5` is never read as a sequence). No path is spelt or
    /// parsed, and the tree is left alone.
    pub fn sequences_in<'a>(
        &'a self,
        section: &'a Rc<Section>,
    ) -> impl Iterator<Item = Sequence> + 'a {
        let least = StorePath::sequenced(section, Sequence(0));
        (self.entries.range(least..))
            .map(|(path, _)| path)
            .take_while(move |path| path.is_under(section))
            .filter_map(move |path| path.sequence_in(section))
    }

    /// Deletes the commitment at `path`, returning it if present.
    pub fn delete(&mut self, path: &(impl AsStorePath + ?Sized)) -> Option<Hash> {
        let removed = self.entries.remove(&*path.as_store_path())?;
        self.stale.set(true);
        Some(removed.value)
    }

    /// The Merkle root over all `(path, value)` leaves in path order.
    ///
    /// The root of an empty store is a fixed domain-separated digest so that
    /// "empty" is distinguishable from "absent".
    pub fn root(&self) -> CommitmentRoot {
        if self.entries.is_empty() {
            return hash_fields(&[b"empty-ibc-store"]);
        }
        self.with_tree(|tree| tree.root())
    }

    /// Produces a membership proof for `path`, if it exists.
    pub fn prove_membership(&self, path: &(impl AsStorePath + ?Sized)) -> Option<CommitmentProof> {
        let (path, entry) = self.entries.get_key_value(&*path.as_store_path())?;
        self.with_tree(|tree| {
            Some(CommitmentProof {
                path: path.spell(),
                value: entry.value,
                merkle: tree.prove(entry.rank.get() as usize)?,
                root: tree.root(),
            })
        })
    }

    /// Reads the tree, rebuilding it first if anything was written since the
    /// last build: one pass that stamps every entry's rank, noting its old
    /// one, and hashes the leaves whose value is new.
    fn with_tree<R>(&self, read: impl FnOnce(&MerkleTree) -> R) -> R {
        let mut tree = self.tree.borrow_mut();
        if self.stale.replace(false) {
            let mut old_ranks = Vec::with_capacity(self.entries.len());
            let mut fresh = Vec::new();
            for (rank, (path, entry)) in self.entries.iter().enumerate() {
                let old = entry.rank.replace(rank as u32);
                if old == FRESH_RANK {
                    fresh.push(path.leaf(&entry.value));
                    old_ranks.push(FRESH);
                } else {
                    old_ranks.push(old as usize);
                }
            }
            *tree = tree.rebuild(&old_ranks, &fresh);
        }
        read(&tree)
    }

    /// Produces a non-membership proof for `path`, if it is indeed absent.
    pub fn prove_non_membership(
        &self,
        path: &(impl AsStorePath + ?Sized),
    ) -> Option<NonMembershipProof> {
        let path = path.as_store_path();
        if self.entries.contains_key(&*path) {
            return None;
        }
        Some(NonMembershipProof {
            path: path.spell(),
            root: self.root(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcc_tendermint::hash::{sha256, Sha256};

    /// `proof`'s verdict under `root`, with nothing remembered.
    fn verifies(proof: &CommitmentProof, root: &CommitmentRoot) -> bool {
        proof.verify(root, &mut VerifiedPath::default())
    }

    #[test]
    fn set_get_delete_roundtrip() {
        let mut s = CommitmentStore::new();
        assert!(s.is_empty());
        s.set("a/b/1", sha256(b"one"));
        assert_eq!(s.get("a/b/1"), Some(&sha256(b"one")));
        assert!(s.contains("a/b/1"));
        assert_eq!(s.delete("a/b/1"), Some(sha256(b"one")));
        assert!(!s.contains("a/b/1"));
        assert_eq!(s.delete("a/b/1"), None);
    }

    #[test]
    fn root_changes_with_content() {
        let mut s = CommitmentStore::new();
        let empty_root = s.root();
        s.set("x", sha256(b"1"));
        let one_root = s.root();
        s.set("y", sha256(b"2"));
        let two_root = s.root();
        assert_ne!(empty_root, one_root);
        assert_ne!(one_root, two_root);
        s.delete("y");
        assert_eq!(s.root(), one_root);
    }

    #[test]
    fn membership_proofs_verify_against_matching_root_only() {
        let mut s = CommitmentStore::new();
        for i in 0..20 {
            s.set(
                format!("commitments/{i}"),
                sha256(format!("v{i}").as_bytes()),
            );
        }
        let root = s.root();
        let proof = s.prove_membership("commitments/7").unwrap();
        assert!(verifies(&proof, &root));
        assert_eq!(proof.value, sha256(b"v7"));

        // Stale root (state changed after proof generation) fails.
        s.set("commitments/99", sha256(b"new"));
        assert!(!verifies(&proof, &s.root()));
    }

    #[test]
    fn proof_for_missing_path_is_none() {
        let s = CommitmentStore::new();
        assert!(s.prove_membership("nope").is_none());
    }

    #[test]
    fn non_membership_proofs() {
        let mut s = CommitmentStore::new();
        s.set("present", sha256(b"x"));
        let proof = s.prove_non_membership("absent").unwrap();
        assert!(proof.verify(&s.root()));
        assert!(s.prove_non_membership("present").is_none());
        // Root mismatch fails.
        s.set("other", sha256(b"y"));
        assert!(!proof.verify(&s.root()));
    }

    /// A section's walk yields its own sequences in path order, and nothing
    /// of a neighbouring channel or family, of the section's own text, or of
    /// a path written as text under it — canonical or not.
    #[test]
    fn sequences_in_walks_exactly_the_section_in_path_order() {
        use crate::host::ChannelPaths;
        use crate::ids::{ChannelId, PortId};

        let port = PortId::transfer();
        let one = ChannelPaths::new(&port, &ChannelId::with_index(1));
        let ten = ChannelPaths::new(&port, &ChannelId::with_index(10));
        let mut s = CommitmentStore::new();
        let walk = |s: &CommitmentStore, paths: &ChannelPaths| {
            s.sequences_in(paths.commitments())
                .map(Sequence::value)
                .collect::<Vec<_>>()
        };
        assert_eq!(walk(&s, &one), [0; 0], "empty store");
        for seq in [1, 2, 9, 10, 11, 100] {
            s.set(one.commitment(Sequence(seq)), sha256(&[1]));
            s.set(ten.commitment(Sequence(seq)), sha256(&[10]));
            s.set(one.receipt(Sequence(seq)), sha256(&[2]));
        }
        let under = "commitments/ports/transfer/channels/channel-1/sequences/";
        for text in ["", "007", "+5", "0", "3", "5/x", "x"] {
            s.set(format!("{under}{text}"), sha256(text.as_bytes()));
        }
        s.set(one.end().clone(), sha256(b"end"));
        assert_eq!(walk(&s, &one), [1, 10, 100, 11, 2, 9]);
        assert_eq!(walk(&s, &ten), [1, 10, 100, 11, 2, 9]);
        // A section spelt alike but built apart walks the same paths.
        let again = ChannelPaths::new(&port, &ChannelId::with_index(1));
        assert_eq!(walk(&s, &again), [1, 10, 100, 11, 2, 9]);
        // Text that spells a typed path is that path.
        assert_eq!(s.get(&format!("{under}10")), Some(&sha256(&[1])));
        assert_eq!(s.delete(&format!("{under}10")), Some(sha256(&[1])));
        assert_eq!(walk(&s, &one), [1, 100, 11, 2, 9]);
    }

    #[test]
    fn memoized_tree_invalidates_on_every_mutation() {
        let mut cached = CommitmentStore::new();
        for i in 0..13 {
            cached.set(
                format!("commitments/{i}"),
                sha256(format!("v{i}").as_bytes()),
            );
        }
        // Interleave reads (which build the memo) with mutations: after each
        // step the root and proofs must equal a fresh, never-mutated store's.
        let reference = |s: &CommitmentStore| {
            let mut fresh = CommitmentStore::new();
            for (k, v) in s.entries.iter() {
                fresh.set(k.clone(), v.value);
            }
            fresh
        };
        assert_eq!(cached.root(), reference(&cached).root());

        cached.set("commitments/5", sha256(b"rewritten"));
        assert_eq!(cached.root(), reference(&cached).root());
        assert_eq!(
            cached.prove_membership("commitments/5"),
            reference(&cached).prove_membership("commitments/5")
        );

        cached.delete("commitments/9");
        assert_eq!(cached.root(), reference(&cached).root());
        assert_eq!(
            cached.prove_membership("commitments/12"),
            reference(&cached).prove_membership("commitments/12")
        );
        let proof = cached.prove_membership("commitments/12").unwrap();
        assert!(verifies(&proof, &cached.root()));

        // A lookup is a read: the tree built by the reads above is still
        // current afterwards, and the root comes from it unchanged.
        let root = cached.root();
        assert!(!cached.stale.get());
        assert!(cached.contains("commitments/1"));
        assert!(!cached.stale.get(), "a lookup marked the tree stale");
        assert_eq!(cached.root(), root);

        // A clone carries correct state even if taken mid-memo.
        let cloned = cached.clone();
        assert_eq!(cloned.root(), cached.root());

        // The rebuild copies the subtrees of unwritten paths from the last
        // tree, so every way a path can change between two builds must reach
        // the new tree: a rewrite, a delete followed by a different value, a
        // delete of a fresh insert, inserts before, between and after the
        // kept paths — and two of them between one pair of builds.
        type Step = fn(&mut CommitmentStore);
        let steps: [Step; 6] = [
            |s| {
                s.set("commitments/3", sha256(b"again"));
            },
            |s| {
                s.delete("commitments/4");
                s.set("commitments/4", sha256(b"back, different"));
            },
            |s| {
                s.set("commitments/40", sha256(b"short-lived"));
                s.delete("commitments/40");
            },
            |s| {
                s.set("acks/0", sha256(b"sorts first"));
                s.set("commitments/100", sha256(b"sorts between"));
                s.set("receipts/0", sha256(b"sorts last"));
            },
            |s| {
                s.delete("acks/0");
                s.set("commitments/100", sha256(b"rewritten"));
            },
            |s| {
                s.delete("commitments/0");
                s.delete("receipts/0");
            },
        ];
        for step in steps {
            step(&mut cached);
            let fresh = reference(&cached);
            assert_eq!(cached.root(), fresh.root());
            for path in fresh.entries.keys() {
                assert_eq!(cached.prove_membership(path), fresh.prove_membership(path));
            }
        }
    }

    #[test]
    fn a_proof_asked_first_after_a_write_uses_fresh_ranks() {
        // No `root()` between the write and the proof: a rank left over from
        // the previous build would select the wrong leaf.
        let filled = || {
            let mut s = CommitmentStore::new();
            for i in 0..13 {
                s.set(format!("p/{i:02}"), sha256(format!("v{i}").as_bytes()));
            }
            s
        };
        type Write = fn(&mut CommitmentStore);
        let writes: [Write; 4] = [
            |s| {
                s.set("p/00a", sha256(b"new, shifts every later rank"));
            },
            |s| {
                s.set("p/06", sha256(b"overwritten"));
            },
            |s| {
                s.delete("p/03");
            },
            |s| {
                s.delete("p/05");
                s.set("p/05", sha256(b"back"));
            },
        ];
        for write in writes {
            let mut fresh = filled();
            write(&mut fresh);
            for path in fresh.entries.keys() {
                let mut built = filled();
                built.root();
                write(&mut built);
                // A clone taken between the write and the next read carries
                // the stale ranks too, and must rebuild like the original.
                let cloned = built.clone();
                let expected = fresh.prove_membership(path);
                assert_eq!(built.prove_membership(path), expected);
                assert_eq!(cloned.prove_membership(path), expected);
                assert_eq!(cloned.root(), fresh.root());
                assert!(verifies(&expected.unwrap(), &fresh.root()));
            }
        }
    }

    /// A `chain_only`-shaped history: 3,000 packet commitments sent in
    /// blocks of 100, each send advancing the channel end, and every third
    /// block also acknowledging most of an older block (its commitments
    /// deleted, receipts and acknowledgements written). The root after every
    /// block is folded into one digest, read before the store kept its tree
    /// across writes.
    #[test]
    fn roots_of_a_chain_only_history_are_pinned() {
        let channel = "ports/transfer/channels/channel-0";
        let mut s = CommitmentStore::new();
        let mut roots = Sha256::new();
        for block in 0..30u64 {
            for seq in block * 100 + 1..=block * 100 + 100 {
                let commitment = format!("commitments/{channel}/sequences/{seq}");
                s.set(commitment, sha256(&seq.to_le_bytes()));
                s.set(format!("channelEnds/{channel}"), sha256(&seq.to_be_bytes()));
            }
            if block % 3 == 2 {
                for seq in (block - 2) * 100 + 1..=(block - 1) * 100 {
                    if seq % 7 == 0 {
                        continue;
                    }
                    s.delete(&format!("commitments/{channel}/sequences/{seq}"));
                    s.set(format!("receipts/{channel}/sequences/{seq}"), sha256(b"ok"));
                    s.set(
                        format!("acks/{channel}/sequences/{seq}"),
                        sha256(&[seq as u8]),
                    );
                }
            }
            roots.update(s.root().as_bytes());
        }
        assert_eq!(s.len(), 3_857);
        assert_eq!(
            roots.finalize().to_hex(),
            "67fd15e8002a444c3907980f1a632bb00006773d8e1ba8cb4e8798a6f99fd8ba"
        );
    }

    /// A proof whose Merkle branch is `null` used to deserialize and then
    /// pass on root equality alone. The branch is mandatory: such a proof
    /// is refused by the decoder, over the `Value` tree and over the bytes a
    /// transaction carries, while the proof with its branch reads back.
    #[test]
    #[expect(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "edits a serde::Value tree to null the branch, a proof the streaming encoder cannot write"
    )]
    fn a_proof_without_its_merkle_branch_does_not_deserialize() {
        use serde::{Deserialize, Serialize, Value};

        let mut s = CommitmentStore::new();
        for i in 0..5u8 {
            s.set(format!("p/{i}"), sha256(&[i]));
        }
        let proof = s.prove_membership("p/3").unwrap();
        let tree = proof.to_value();
        assert_eq!(CommitmentProof::from_value(&tree).unwrap(), proof);
        let mut entries = tree.as_map().expect("a struct is a map").to_vec();
        let branch = entries.iter_mut().find(|(key, _)| key == "merkle");
        branch.expect("a `merkle` entry").1 = Value::Null;
        let stripped = Value::Map(entries);
        assert!(CommitmentProof::from_value(&stripped).is_err());
        let bytes = serde::binary::to_bytes(&stripped);
        assert!(serde::binary::read::<CommitmentProof>(&bytes).is_err());
    }

    #[test]
    fn proof_encoded_size_is_positive() {
        let mut s = CommitmentStore::new();
        s.set("p", sha256(b"v"));
        let proof = s.prove_membership("p").unwrap();
        assert!(proof.encoded_size() > 64);
    }
}
