//! The IBC commitment store (ICS-23/24 style).
//!
//! Every provable piece of IBC state — packet commitments, receipts,
//! acknowledgements, channel and connection ends — is written under a
//! well-known path into this store. The store exposes a Merkle root that the
//! host chain folds into its application hash, and can produce membership
//! and non-membership proofs that counterparty chains verify against the
//! consensus state recorded by their light clients.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
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
/// A key is a [`StorePath`], and a path is its spelling: text and typed
/// paths of one spelling are one entry (see [`crate::host`] for how text is
/// read). Each sequenced section — one channel end's packet commitments,
/// receipts or acknowledgements — has a row of values indexed by sequence:
/// a window of 64-slot chunks over `[base, base + len)`, which a write just
/// past either end widens by whole chunks and whose empty front chunks a
/// write drops, and a small ordered map for a sequence more than
/// `len.max(64)` slots outside it, so that `0` and `u64::MAX` in one section
/// take one chunk and one map entry, not the range between them. A write, lookup or proof of a packet path finds its row
/// (by the section's pointer, or by its text for a section built apart)
/// and indexes it. Every other path is a key of one ordered map.
///
/// # Proof-generation caching
///
/// The store keeps the last tree it built and that tree's leaves, as their
/// paths in spelling order. Building the tree from scratch would hash every
/// leaf (O(n)), and the relayer's data pulls request one proof per packet
/// sequence, so an uncached store pays O(n) hashing *per proof*. With the
/// tree and its order kept, a proof is a row lookup for the value, the
/// leaf's rank in the order, and O(log n) sibling reads. The rank is found
/// by binary search unless it is the one after the last proof's: clear
/// scans and batch pulls prove a section's sequences in ascending order, so
/// that one slot is checked first.
///
/// A write ([`set`](CommitmentStore::set) /
/// [`delete`](CommitmentStore::delete)) only notes its path. The next
/// [`root`](CommitmentStore::root) or proof sorts the noted paths, finds
/// each one's place in the kept order by binary search, copies the runs of
/// leaves between those places, drops each deleted path's leaf and hashes
/// the leaf of each one set, and lets [`MerkleTree::rebuild`] copy every
/// perfect subtree whose leaves the writes left alone. A block that touches
/// a few hundred of several thousand commitments therefore compares and
/// hashes only those, and a path overwritten many times between two builds
/// is hashed once.
///
/// Tree shape, roots and proofs are bit-identical to the construction from
/// scratch (pinned by `roots_of_a_chain_only_history_are_pinned` and the
/// differential proptests in `tests/property_invariants.rs`,
/// `memoized_tree_invalidates_on_every_mutation`, and the rebuild test in
/// `xcc_tendermint::merkle`).
#[derive(Debug, Clone)]
pub struct CommitmentStore {
    /// One row per sequenced section that was ever written.
    rows: Vec<Row>,
    /// The value of every path whose section is not sequenced.
    others: BTreeMap<StorePath, Hash>,
    /// The last tree built, and the writes since.
    kept: RefCell<Kept>,
}

/// The values of one sequenced section's paths, by sequence: a window of
/// fixed-size chunks of slots, `chunks[k].slots[i]` holding sequence
/// `base + k * CHUNK + i`, and the sequences written too far outside it. A
/// row grows a chunk at a time, never as one buffer that doubles.
#[derive(Debug, Clone)]
struct Row {
    section: Rc<Section>,
    /// The first sequence of `chunks[0]`: a multiple of [`CHUNK`].
    base: u64,
    chunks: VecDeque<Box<Chunk>>,
    /// Sequences outside the window, in order.
    spill: BTreeMap<u64, Hash>,
    /// How many sequences hold a value, in the window and the spill.
    live: usize,
}

/// Slots per chunk of a row, and how far outside the window of a row with
/// fewer slots a written sequence still widens it.
const CHUNK: usize = 64;

#[derive(Debug, Clone)]
struct Chunk {
    /// How many of `slots` hold a value.
    live: usize,
    slots: [Option<Hash>; CHUNK],
}

impl Row {
    /// The chunk and slot of `seq`, if the window spans it.
    fn index(&self, seq: u64) -> Option<(usize, usize)> {
        let index = usize::try_from(seq.checked_sub(self.base)?).ok()?;
        (index / CHUNK < self.chunks.len()).then_some((index / CHUNK, index % CHUNK))
    }

    fn get(&self, seq: u64) -> Option<&Hash> {
        match self.index(seq) {
            Some((chunk, slot)) => self.chunks[chunk].slots[slot].as_ref(),
            None => self.spill.get(&seq),
        }
    }

    fn set(&mut self, seq: u64, value: Hash) -> Option<Hash> {
        let prior = match self.reach(seq) {
            Some((chunk, slot)) => {
                let chunk = &mut self.chunks[chunk];
                let prior = chunk.slots[slot].replace(value);
                chunk.live += usize::from(prior.is_none());
                prior
            }
            None => self.spill.insert(seq, value),
        };
        self.live += usize::from(prior.is_none());
        prior
    }

    fn delete(&mut self, seq: u64) -> Option<Hash> {
        let prior = match self.index(seq) {
            Some((chunk, slot)) => {
                let chunk = &mut self.chunks[chunk];
                let prior = chunk.slots[slot].take()?;
                chunk.live -= 1;
                prior
            }
            None => self.spill.remove(&seq)?,
        };
        self.live -= 1;
        Some(prior)
    }

    /// The chunk and slot of `seq` after dropping the empty chunks at the
    /// window's front and widening it to `seq` when `seq` is at most
    /// `len.max(CHUNK)` slots outside it; `None` when `seq` belongs in the
    /// spill. A widened window takes over the spilled sequences it now
    /// spans.
    fn reach(&mut self, seq: u64) -> Option<(usize, usize)> {
        while self.chunks.front().is_some_and(|chunk| chunk.live == 0) {
            self.chunks.pop_front();
            // Only a chunk ending at `u64::MAX` has no successor.
            self.base = self.base.saturating_add(CHUNK as u64);
        }
        let first = seq - seq % CHUNK as u64;
        if self.chunks.is_empty() {
            self.base = first;
        }
        let len = (self.chunks.len() * CHUNK) as u64;
        let reach = len.max(CHUNK as u64);
        let (from, to) = if seq < self.base {
            if self.base - seq > reach {
                return None;
            }
            let added = self.base - first;
            for _ in 0..added / CHUNK as u64 {
                self.chunks.push_front(Box::new(Chunk::EMPTY));
            }
            self.base = first;
            (first, first + (added - 1))
        } else {
            let index = seq - self.base;
            if index < len {
                return self.index(seq);
            }
            if index - len >= reach {
                return None;
            }
            while ((self.chunks.len() * CHUNK) as u64) <= index {
                self.chunks.push_back(Box::new(Chunk::EMPTY));
            }
            (self.base + len, first + (CHUNK as u64 - 1))
        };
        for (spilled, value) in self.spill.extract_if(from..=to, |_, _| true) {
            let index = (spilled - self.base) as usize;
            let chunk = &mut self.chunks[index / CHUNK];
            chunk.slots[index % CHUNK] = Some(value);
            chunk.live += 1;
        }
        self.index(seq)
    }

    /// Every sequence that holds a value, with it, in ascending order.
    fn iter(&self) -> impl Iterator<Item = (u64, &Hash)> {
        let window = (self.chunks.iter().enumerate())
            .filter(|(_, chunk)| chunk.live > 0)
            .flat_map(move |(k, chunk)| {
                let first = self.base + (k * CHUNK) as u64;
                (chunk.slots.iter().enumerate())
                    .filter_map(move |(i, slot)| Some((first + i as u64, slot.as_ref()?)))
            });
        let below = self
            .spill
            .range(..self.base)
            .map(|(&seq, value)| (seq, value));
        let above = self
            .spill
            .range(self.base..)
            .map(|(&seq, value)| (seq, value));
        below.chain(window).chain(above)
    }
}

impl Chunk {
    const EMPTY: Chunk = Chunk {
        live: 0,
        slots: [None; CHUNK],
    };
}

/// The tree as last built, the paths of its leaves, and the writes since.
#[derive(Debug, Clone)]
struct Kept {
    tree: MerkleTree,
    /// The paths of `tree`'s leaves, in leaf order: the spelling order.
    order: Vec<StorePath>,
    /// Every path set or deleted since `tree` was built, each as often as
    /// it was written.
    written: Vec<StorePath>,
    /// The rank after the last one proven, checked against `order` before
    /// it is searched; a hint left stale by a rebuild only misses.
    next: Cell<usize>,
}

impl Kept {
    /// Merges the written paths into the order and rebuilds the tree from
    /// the last one: each written path's place is a binary search of the
    /// rest of the old order, the runs between those places are moved
    /// over, a written path that holds a `value` now is a fresh leaf, and
    /// one that does not is left out. The old order is freed before the
    /// tree is rebuilt, so the two trees are never held beside two orders.
    fn rebuild<'a>(&mut self, value: impl Fn(&StorePath) -> Option<&'a Hash>) {
        let Kept {
            tree,
            order,
            written,
            ..
        } = self;
        written.sort_unstable();
        written.dedup();
        let bound = order.len() + written.len();
        let mut old = std::mem::replace(order, Vec::with_capacity(bound)).into_iter();
        let mut ranks = Vec::with_capacity(bound);
        let mut fresh = Vec::new();
        let mut rank = 0;
        for path in written.drain(..) {
            let (run, found) = match old.as_slice().binary_search(&path) {
                Ok(run) => (run, true),
                Err(run) => (run, false),
            };
            order.extend(old.by_ref().take(run));
            ranks.extend(rank..rank + run);
            rank += run + usize::from(found);
            if found {
                old.next();
            }
            if let Some(value) = value(&path) {
                fresh.push(path.leaf(value));
                ranks.push(FRESH);
                order.push(path);
            }
        }
        ranks.extend(rank..rank + old.len());
        order.extend(old);
        *tree = tree.rebuild(&ranks, &fresh);
    }

    /// The leaf rank of `path`, if it has a leaf: the hinted slot when it
    /// holds `path`, else a binary search of the order.
    fn rank(&self, path: &StorePath) -> Option<usize> {
        let hint = self.next.get();
        let rank = match self.order.get(hint) {
            Some(at) if at == path => hint,
            _ => self.order.binary_search(path).ok()?,
        };
        self.next.set(rank + 1);
        Some(rank)
    }
}

impl Default for CommitmentStore {
    fn default() -> Self {
        CommitmentStore {
            rows: Vec::new(),
            others: BTreeMap::new(),
            kept: RefCell::new(Kept {
                tree: MerkleTree::build([]),
                order: Vec::new(),
                written: Vec::new(),
                next: Cell::new(0),
            }),
        }
    }
}

impl PartialEq for CommitmentStore {
    /// Compares the committed entries only: how they are laid out and how
    /// current the Merkle tree is are evaluation details, not state.
    fn eq(&self, other: &Self) -> bool {
        self.others == other.others
            && self.len() == other.len()
            && self.rows.iter().all(|row| {
                let theirs = other.row(&row.section);
                (row.iter()).all(|(seq, value)| theirs.and_then(|row| row.get(seq)) == Some(value))
            })
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
        self.others.len() + self.rows.iter().map(|row| row.live).sum::<usize>()
    }

    /// `true` when the store has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The index of `section`'s row: the one built on it, or else the one
    /// spelt like it.
    fn row_index(&self, section: &Rc<Section>) -> Option<usize> {
        let rows = || self.rows.iter();
        (rows().position(|row| Rc::ptr_eq(&row.section, section)))
            .or_else(|| rows().position(|row| row.section.text == section.text))
    }

    fn row(&self, section: &Rc<Section>) -> Option<&Row> {
        Some(&self.rows[self.row_index(section)?])
    }

    /// Sets the commitment at `path`, returning the one it replaces. A
    /// `String` whose capacity is its length — every [`crate::host`] text
    /// path but a packet path's — becomes its key's section without a copy
    /// or a reallocation.
    pub fn set(&mut self, path: impl Into<StorePath>, value: Hash) -> Option<Hash> {
        let path = path.into();
        let (prior, path) = match path.sequence() {
            None => (self.others.insert(path.clone(), value), path),
            Some(seq) => {
                let index = self.row_index(&path.section).unwrap_or_else(|| {
                    self.rows.push(Row {
                        section: Rc::clone(&path.section),
                        base: 0,
                        chunks: VecDeque::new(),
                        spill: BTreeMap::new(),
                        live: 0,
                    });
                    self.rows.len() - 1
                });
                let row = &mut self.rows[index];
                let prior = row.set(seq, value);
                (prior, StorePath::sequenced(&row.section, Sequence(seq)))
            }
        };
        self.kept.get_mut().written.push(path);
        prior
    }

    /// Reads the commitment at `path`.
    pub fn get(&self, path: &(impl AsStorePath + ?Sized)) -> Option<&Hash> {
        let path = path.as_store_path();
        match path.sequence() {
            None => self.others.get(&*path),
            Some(seq) => self.row(&path.section)?.get(seq),
        }
    }

    /// Whether the store has a commitment at `path`.
    pub fn contains(&self, path: &(impl AsStorePath + ?Sized)) -> bool {
        self.get(path).is_some()
    }

    /// The sequences of `section`'s paths in the store, in ascending order:
    /// a walk of its row, which holds no other section's paths, and text
    /// written under it only where the text spells one of its paths.
    pub fn sequences_in<'a>(
        &'a self,
        section: &'a Rc<Section>,
    ) -> impl Iterator<Item = Sequence> + 'a {
        (self.row(section).into_iter()).flat_map(|row| row.iter().map(|(seq, _)| Sequence(seq)))
    }

    /// The number of [`sequences_in`](Self::sequences_in) `section`, kept
    /// by its row.
    pub fn count_in(&self, section: &Rc<Section>) -> usize {
        self.row(section).map_or(0, |row| row.live)
    }

    /// Deletes the commitment at `path`, returning it if present.
    pub fn delete(&mut self, path: &(impl AsStorePath + ?Sized)) -> Option<Hash> {
        let path = path.as_store_path();
        let (path, prior) = match path.sequence() {
            None => self.others.remove_entry(&*path)?,
            Some(seq) => {
                let index = self.row_index(&path.section)?;
                let row = &mut self.rows[index];
                let prior = row.delete(seq)?;
                (StorePath::sequenced(&row.section, Sequence(seq)), prior)
            }
        };
        self.kept.get_mut().written.push(path);
        Some(prior)
    }

    /// The Merkle root over all `(path, value)` leaves in path order.
    ///
    /// The root of an empty store is a fixed domain-separated digest so that
    /// "empty" is distinguishable from "absent".
    pub fn root(&self) -> CommitmentRoot {
        if self.is_empty() {
            return hash_fields(&[b"empty-ibc-store"]);
        }
        self.with_tree(|kept| kept.tree.root())
    }

    /// Produces a membership proof for `path`, if it exists.
    pub fn prove_membership(&self, path: &(impl AsStorePath + ?Sized)) -> Option<CommitmentProof> {
        let path = path.as_store_path();
        let (value, path) = match path.sequence() {
            None => (*self.others.get(&*path)?, path),
            // On its row's own section, the path compares with the kept
            // order's paths of that section by sequence, not by spelling.
            Some(seq) => {
                let row = self.row(&path.section)?;
                let key = StorePath::sequenced(&row.section, Sequence(seq));
                (*row.get(seq)?, Cow::Owned(key))
            }
        };
        self.with_tree(|kept| {
            let rank = kept.rank(&path)?;
            Some(CommitmentProof {
                path: path.spell(),
                value,
                merkle: kept.tree.prove(rank)?,
                root: kept.tree.root(),
            })
        })
    }

    /// Reads the tree and the paths of its leaves, rebuilding it first if
    /// anything was written since the last build.
    fn with_tree<R>(&self, read: impl FnOnce(&Kept) -> R) -> R {
        let mut kept = self.kept.borrow_mut();
        if !kept.written.is_empty() {
            kept.rebuild(|path| self.get(path));
        }
        read(&kept)
    }

    /// Produces a non-membership proof for `path`, if it is indeed absent.
    pub fn prove_non_membership(
        &self,
        path: &(impl AsStorePath + ?Sized),
    ) -> Option<NonMembershipProof> {
        let path = path.as_store_path();
        if self.contains(&*path) {
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
    use xcc_tendermint::hash::sha256;

    /// Every entry of `s`, in path order.
    fn entries(s: &CommitmentStore) -> Vec<(StorePath, Hash)> {
        let rows = s.rows.iter().flat_map(|row| {
            (row.iter())
                .map(|(seq, value)| (StorePath::sequenced(&row.section, Sequence(seq)), *value))
        });
        let mut entries: Vec<_> = (s.others.iter())
            .map(|(path, value)| (path.clone(), *value))
            .chain(rows)
            .collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// Whether anything was written since the tree was built.
    fn stale(s: &CommitmentStore) -> bool {
        !s.kept.borrow().written.is_empty()
    }

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

    /// A section's walk yields its own sequences in ascending order, and
    /// nothing of a neighbouring channel or family, of the section's own
    /// text, or of text under it that does not spell one of its paths; text
    /// that does (`…/0`, `…/3`) is that path.
    #[test]
    fn sequences_in_walks_exactly_the_section_in_sequence_order() {
        use crate::host::ChannelPaths;
        use crate::ids::{ChannelId, PortId};

        let port = PortId::transfer();
        let one = ChannelPaths::new(&port, &ChannelId::with_index(1));
        let ten = ChannelPaths::new(&port, &ChannelId::with_index(10));
        let mut s = CommitmentStore::new();
        let walk = |s: &CommitmentStore, paths: &ChannelPaths| {
            let walked: Vec<u64> = (s.sequences_in(paths.commitments()))
                .map(Sequence::value)
                .collect();
            assert_eq!(s.count_in(paths.commitments()), walked.len());
            walked
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
        assert_eq!(walk(&s, &one), [0, 1, 2, 3, 9, 10, 11, 100]);
        assert_eq!(walk(&s, &ten), [1, 2, 9, 10, 11, 100]);
        // A section spelt alike but built apart walks the same paths.
        let again = ChannelPaths::new(&port, &ChannelId::with_index(1));
        assert_eq!(walk(&s, &again), [0, 1, 2, 3, 9, 10, 11, 100]);
        // Text that spells a typed path is that path.
        assert_eq!(s.get(&one.commitment(Sequence(3))), Some(&sha256(b"3")));
        assert_eq!(s.get(&format!("{under}10")), Some(&sha256(&[1])));
        assert_eq!(s.delete(&format!("{under}10")), Some(sha256(&[1])));
        assert_eq!(walk(&s, &one), [0, 1, 2, 3, 9, 11, 100]);
    }

    /// A sequence far outside its row's window goes to the row's spill, so a
    /// section holding `0` and `u64::MAX` takes one chunk and a spilled
    /// entry, not the range between them; sequences near the window widen
    /// it by whole chunks, at either end, and take over what the spill held
    /// there, and empty chunks at the front are dropped by the next write.
    /// Reads, the walk, the count and the root do not depend on where a
    /// sequence is kept.
    #[test]
    fn far_sequences_spill_and_near_ones_widen_the_row() {
        use crate::host::ChannelPaths;
        use crate::ids::{ChannelId, PortId};

        let paths = ChannelPaths::new(&PortId::transfer(), &ChannelId::with_index(0));
        let mut s = CommitmentStore::new();
        let mut text = CommitmentStore::new();
        let mut write = |s: &mut CommitmentStore, seq: u64| {
            s.set(paths.commitment(Sequence(seq)), sha256(&seq.to_le_bytes()));
            let spelt = paths.commitment(Sequence(seq)).spell();
            text.set(spelt, sha256(&seq.to_le_bytes()));
        };
        let shape = |s: &CommitmentStore| {
            let row = &s.rows[0];
            (row.base, row.chunks.len(), row.spill.len())
        };
        for seq in [0, u64::MAX, u64::MAX - 1, 1_000] {
            write(&mut s, seq);
        }
        assert_eq!(shape(&s), (0, 1, 3));
        // 63 slots past the window's end widen it; 128 past do not.
        write(&mut s, 127);
        write(&mut s, 256);
        assert_eq!(shape(&s), (0, 2, 4));
        // The emptied front chunk is dropped by the next write.
        s.delete(&paths.commitment(Sequence(0)));
        write(&mut s, 100);
        assert_eq!(shape(&s), (64, 1, 4));
        // Widening over 256 takes it back from the spill; a write below the
        // base widens the front.
        write(&mut s, 150);
        write(&mut s, 300);
        assert_eq!(shape(&s), (64, 4, 3));
        write(&mut s, 30);
        assert_eq!(shape(&s), (0, 5, 3));
        let walked: Vec<u64> = (s.sequences_in(paths.commitments()))
            .map(Sequence::value)
            .collect();
        let expected = [30, 100, 127, 150, 256, 300, 1_000, u64::MAX - 1, u64::MAX];
        assert_eq!(walked, expected);
        assert_eq!(s.count_in(paths.commitments()), expected.len());
        for seq in expected {
            let value = sha256(&seq.to_le_bytes());
            assert_eq!(s.get(&paths.commitment(Sequence(seq))), Some(&value));
        }
        assert_eq!(s.get(&paths.commitment(Sequence(0))), None);
        text.delete(&paths.commitment(Sequence(0)).spell());
        assert_eq!(s.root(), text.root());
        assert_eq!(s, text);

        // A window that ends at `u64::MAX` widens below it and, emptied,
        // starts again wherever the next write is.
        let receipt = |seq| paths.receipt(Sequence(seq));
        s.set(receipt(u64::MAX), sha256(b"last"));
        s.set(receipt(u64::MAX - 100), sha256(b"below"));
        let row = &s.rows[1];
        assert_eq!((row.base, row.chunks.len()), (u64::MAX - 127, 2));
        s.delete(&receipt(u64::MAX));
        s.delete(&receipt(u64::MAX - 100));
        s.set(receipt(5), sha256(b"again"));
        let row = &s.rows[1];
        assert_eq!((row.base, row.chunks.len(), row.live), (0, 1, 1));
        assert_eq!(s.get(&receipt(5)), Some(&sha256(b"again")));
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
            for (k, v) in entries(s) {
                fresh.set(k, v);
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
        assert!(!stale(&cached));
        assert!(cached.contains("commitments/1"));
        assert!(!stale(&cached), "a lookup marked the tree stale");
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
            for (path, _) in entries(&fresh) {
                assert_eq!(
                    cached.prove_membership(&path),
                    fresh.prove_membership(&path)
                );
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
            for (path, _) in entries(&fresh) {
                let mut built = filled();
                built.root();
                write(&mut built);
                // A clone taken between the write and the next read carries
                // the stale ranks too, and must rebuild like the original.
                let cloned = built.clone();
                let expected = fresh.prove_membership(&path);
                assert_eq!(built.prove_membership(&path), expected);
                assert_eq!(cloned.prove_membership(&path), expected);
                assert_eq!(cloned.root(), fresh.root());
                assert!(verifies(&expected.unwrap(), &fresh.root()));
            }
        }
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
