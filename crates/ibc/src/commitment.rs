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
use std::ops::Bound;

use serde::{Deserialize, Serialize};

use xcc_tendermint::hash::{hash_fields, Hash};
use xcc_tendermint::merkle::{leaf_hash, MerkleProof, MerkleTree};

/// A commitment root: the Merkle root of the IBC store at some height.
pub type CommitmentRoot = Hash;

/// A key/value commitment store with Merkle roots and proofs.
///
/// # Example
///
/// ```rust
/// use xcc_ibc::commitment::CommitmentStore;
/// use xcc_tendermint::hash::sha256;
///
/// let mut store = CommitmentStore::new();
/// store.set("commitments/ports/transfer/channels/channel-0/sequences/1", sha256(b"data"));
/// let root = store.root();
/// let proof = store.prove_membership("commitments/ports/transfer/channels/channel-0/sequences/1").unwrap();
/// assert!(proof.verify(&root));
/// ```
///
/// # Proof-generation caching
///
/// The store is one map and one tree. Each path's record carries, next to
/// the committed value, the hash of its `(path, value)` leaf and its rank in
/// path order; the Merkle tree over those leaves is kept until the next
/// write. Building it from scratch would hash every leaf (O(n)), and the
/// relayer's data pulls request one proof per packet sequence, so an
/// uncached store pays O(n) hashing *per proof* — once the dominant cost of
/// whole-experiment replays. With the tree kept, a proof is one map lookup
/// for the record's rank plus O(log n) sibling reads.
///
/// Every mutation ([`set`](CommitmentStore::set) /
/// [`delete`](CommitmentStore::delete)) drops the tree, and the next
/// [`root`](CommitmentStore::root) or proof rebuilds it in one pass over the
/// map: stamp each record's rank, take its leaf hash or compute it if the
/// value was set since the last build, hash the inner nodes. A block that
/// touches a few hundred of several thousand commitments therefore hashes
/// those leaves and the inner nodes only, and a path overwritten many times
/// between two builds is hashed once.
///
/// Invariant: a record's rank is meaningful only while the tree is built —
/// a write leaves every other record's rank stale, and nothing reads a rank
/// except through the tree that the same pass built. Tree shape, roots and
/// proofs are bit-identical to the uncached construction (pinned by
/// `memoized_tree_invalidates_on_every_mutation`, the differential proptest
/// in `tests/property_invariants.rs`, and the equivalence test in
/// `xcc_tendermint::merkle`).
#[derive(Debug, Clone, Default)]
pub struct CommitmentStore {
    entries: BTreeMap<String, Entry>,
    /// The tree over `entries` in path order; `None` from any write until
    /// the next root or proof.
    tree: RefCell<Option<MerkleTree>>,
}

/// What the store holds for one path.
#[derive(Debug, Clone)]
struct Entry {
    value: Hash,
    /// The leaf hash of `(path, value)`, filled by the first build after
    /// `value` was set.
    leaf: Cell<Option<Hash>>,
    /// Position in path order as of the last build; stale whenever the
    /// store's `tree` is `None`.
    rank: Cell<usize>,
}

impl PartialEq for Entry {
    /// Compares the committed value only: the leaf hash and the rank are
    /// evaluation details, not state.
    fn eq(&self, other: &Self) -> bool {
        self.value == other.value
    }
}

impl PartialEq for CommitmentStore {
    /// Compares the committed entries only: whether the Merkle tree is
    /// built is an evaluation detail, not state.
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
    merkle: Option<MerkleProof>,
    /// The root this proof was generated against.
    pub root: CommitmentRoot,
}

impl CommitmentProof {
    /// Verifies the proof against an externally trusted root (typically the
    /// consensus state stored by a light client).
    pub fn verify(&self, trusted_root: &CommitmentRoot) -> bool {
        if trusted_root != &self.root {
            return false;
        }
        match &self.merkle {
            Some(merkle) => merkle.verify(trusted_root, &leaf_encoding(&self.path, &self.value)),
            // A proof that lost its Merkle branch (e.g. after serialization
            // over the simulated wire) degrades to root equality plus the
            // committed value; the value itself is still checked by handlers.
            None => true,
        }
    }

    /// Approximate encoded size of the proof in bytes, used by the RPC
    /// response-size cost model.
    pub fn encoded_size(&self) -> usize {
        let branch = self
            .merkle
            .as_ref()
            .map(|m| m.siblings.len() * 32)
            .unwrap_or(0);
        self.path.len() + 32 + 32 + branch + 32
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

fn leaf_encoding(path: &str, value: &Hash) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(path.len() + 33);
    bytes.extend_from_slice(path.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(value.as_bytes());
    bytes
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

    /// Sets the commitment at `path`, returning the one it replaces.
    pub fn set(&mut self, path: impl Into<String>, value: Hash) -> Option<Hash> {
        *self.tree.get_mut() = None;
        let entry = Entry {
            value,
            leaf: Cell::new(None),
            rank: Cell::new(0),
        };
        self.entries.insert(path.into(), entry).map(|old| old.value)
    }

    /// Reads the commitment at `path`.
    pub fn get(&self, path: &str) -> Option<&Hash> {
        self.entries.get(path).map(|entry| &entry.value)
    }

    /// Whether the store has a commitment at `path`.
    pub fn contains(&self, path: &str) -> bool {
        self.entries.contains_key(path)
    }

    /// The committed paths that start with `prefix`, in path order
    /// (lexicographic: `…/10` sorts before `…/2`). Costs one seek plus the
    /// matches, and leaves the tree alone.
    pub fn paths_under<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a str> {
        self.entries
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .map(|(path, _)| path.as_str())
            .take_while(move |path| path.starts_with(prefix))
    }

    /// Deletes the commitment at `path`, returning it if present.
    pub fn delete(&mut self, path: &str) -> Option<Hash> {
        let removed = self.entries.remove(path)?;
        *self.tree.get_mut() = None;
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
    pub fn prove_membership(&self, path: &str) -> Option<CommitmentProof> {
        let entry = self.entries.get(path)?;
        self.with_tree(|tree| {
            Some(CommitmentProof {
                path: path.to_string(),
                value: entry.value,
                merkle: Some(tree.prove(entry.rank.get())?),
                root: tree.root(),
            })
        })
    }

    /// Reads the tree, building it first if anything was written since the
    /// last build: one pass that stamps every entry's rank and hashes the
    /// leaves whose value is new.
    fn with_tree<R>(&self, read: impl FnOnce(&MerkleTree) -> R) -> R {
        let mut slot = self.tree.borrow_mut();
        let tree = slot.get_or_insert_with(|| {
            let leaves: Vec<Hash> = (self.entries.iter().enumerate())
                .map(|(rank, (path, entry))| {
                    entry.rank.set(rank);
                    let leaf = (entry.leaf.get())
                        .unwrap_or_else(|| leaf_hash(&leaf_encoding(path, &entry.value)));
                    entry.leaf.set(Some(leaf));
                    leaf
                })
                .collect();
            MerkleTree::from_leaf_hashes(&leaves)
        });
        read(tree)
    }

    /// Produces a non-membership proof for `path`, if it is indeed absent.
    pub fn prove_non_membership(&self, path: &str) -> Option<NonMembershipProof> {
        if self.entries.contains_key(path) {
            return None;
        }
        Some(NonMembershipProof {
            path: path.to_string(),
            root: self.root(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcc_tendermint::hash::sha256;

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
        assert!(proof.verify(&root));
        assert_eq!(proof.value, sha256(b"v7"));

        // Stale root (state changed after proof generation) fails.
        s.set("commitments/99", sha256(b"new"));
        assert!(!proof.verify(&s.root()));
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

    #[test]
    fn paths_under_walks_exactly_the_prefix_in_path_order() {
        let mut s = CommitmentStore::new();
        assert_eq!(s.paths_under("a/").count(), 0, "empty store");
        for path in ["a/1", "a/10", "a/2", "ab/1", "b/1"] {
            s.set(path, sha256(path.as_bytes()));
        }
        let under = |prefix| s.paths_under(prefix).collect::<Vec<_>>();
        // Lexicographic, not numeric; `ab/…` is not under `a/`.
        assert_eq!(under("a/"), ["a/1", "a/10", "a/2"]);
        // A prefix shared by two families walks both.
        assert_eq!(under("a"), ["a/1", "a/10", "a/2", "ab/1"]);
        // A prefix equal to a full key matches it and its extensions.
        assert_eq!(under("a/1"), ["a/1", "a/10"]);
        assert_eq!(under("b/1"), ["b/1"]);
        // Before the first key, between two keys, past the last key.
        assert_eq!(under("Z"), [""; 0]);
        assert_eq!(under("aa"), [""; 0]);
        assert_eq!(under("c"), [""; 0]);
        assert_eq!(under("").len(), s.len());
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
        assert!(cached
            .prove_membership("commitments/12")
            .unwrap()
            .verify(&cached.root()));

        // A prefix walk is a read: the tree built by the reads above is
        // still there afterwards, and the root comes from it unchanged.
        let root = cached.root();
        assert!(cached.tree.borrow().is_some());
        assert_eq!(cached.paths_under("commitments/1").count(), 4);
        assert!(cached.tree.borrow().is_some(), "a walk dropped the tree");
        assert_eq!(cached.root(), root);

        // A clone carries correct state even if taken mid-memo.
        let cloned = cached.clone();
        assert_eq!(cloned.root(), cached.root());

        // The rebuild keeps the leaf hashes of unwritten paths, so every way
        // a path can change between two builds must reach the new tree: a
        // rewrite, a delete followed by a different value, a delete of a
        // fresh insert, inserts before, between and after the kept paths —
        // and two of them between one pair of builds.
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
                assert!(expected.unwrap().verify(&fresh.root()));
            }
        }
    }

    #[test]
    fn proof_encoded_size_is_positive() {
        let mut s = CommitmentStore::new();
        s.set("p", sha256(b"v"));
        let proof = s.prove_membership("p").unwrap();
        assert!(proof.encoded_size() > 64);
    }
}
