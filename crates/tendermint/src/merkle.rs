//! Merkle tree over byte strings, as used for the `DataHash` of a block and
//! for simple store commitment proofs.
//!
//! The construction follows the RFC 6962 style used by Tendermint: leaves are
//! prefixed with `0x00` and inner nodes with `0x01` before hashing, and an
//! unbalanced tree splits at the largest power of two smaller than the number
//! of leaves.

use serde::{Deserialize, Serialize};

use xcc_sim::prof;

use crate::hash::{sha256, sha256_parts, Hash};

const LEAF_PREFIX: u8 = 0x00;
const INNER_PREFIX: u8 = 0x01;

/// The hash of one leaf: SHA-256 of `0x00 || data`.
pub fn leaf_hash(data: &[u8]) -> Hash {
    leaf_hash_parts(&[data])
}

/// [`leaf_hash`] of the concatenation of `parts`, without building it: a
/// leaf of at most 118 bytes (a store leaf) is one kernel call.
pub fn leaf_hash_parts(parts: &[&[u8]]) -> Hash {
    sha256_parts(&[LEAF_PREFIX], parts)
}

/// `SHA-256(0x01 ‖ left ‖ right)`: 65 bytes, one kernel call.
fn inner_hash(left: &Hash, right: &Hash) -> Hash {
    prof::bump_merkle_inner_hash();
    sha256_parts(&[INNER_PREFIX], &[left.as_bytes(), right.as_bytes()])
}

/// The largest power of two strictly less than `n` (for `n >= 2`): the
/// highest bit of `n - 1`.
fn split_point(n: usize) -> usize {
    debug_assert!(n >= 2);
    1 << (n - 1).ilog2()
}

/// The number of siblings on the path from the leaf at `index` of a
/// `leaves`-leaf tree to its root: the length of the leaf's proof.
fn proof_depth(mut leaves: usize, mut index: usize) -> usize {
    let mut depth = 0;
    while leaves > 1 {
        let k = split_point(leaves);
        if index < k {
            leaves = k;
        } else {
            (leaves, index) = (leaves - k, index - k);
        }
        depth += 1;
    }
    depth
}

/// Computes the Merkle root of a list of byte strings.
///
/// The root of an empty list is the hash of the empty string, matching
/// Tendermint's convention.
///
/// # Example
///
/// ```rust
/// use xcc_tendermint::merkle::simple_root;
///
/// let txs: Vec<Vec<u8>> = vec![b"tx1".to_vec(), b"tx2".to_vec()];
/// let root = simple_root(txs.iter().map(|t| t.as_slice()));
/// assert!(!root.is_zero());
/// ```
pub fn simple_root<'a, I>(leaves: I) -> Hash
where
    I: IntoIterator<Item = &'a [u8]>,
{
    let hashed: Vec<Hash> = leaves.into_iter().map(leaf_hash).collect();
    root_of(&hashed)
}

fn root_of(leaves: &[Hash]) -> Hash {
    match leaves.len() {
        0 => sha256(b""),
        1 => leaves[0],
        n => {
            let k = split_point(n);
            let left = root_of(&leaves[..k]);
            let right = root_of(&leaves[k..]);
            inner_hash(&left, &right)
        }
    }
}

/// A Merkle inclusion proof for a single leaf.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub index: usize,
    /// Total number of leaves in the tree.
    pub total: usize,
    /// Sibling hashes from the leaf to the root.
    pub siblings: Vec<Hash>,
}

impl MerkleProof {
    /// Verifies that the leaf hashing to `leaf` (see [`leaf_hash`]) sits at
    /// `self.index` of a `self.total`-leaf tree with the given `root`.
    ///
    /// `path` holds the last proof accepted through it; a caller with one
    /// proof to check passes `&mut VerifiedPath::default()`. Under the same
    /// `(root, total)` this proof is hashed bottom-up only as far as the node
    /// where its path leaves the remembered one. If that node's value, its
    /// sibling and every sibling above equal the values remembered there —
    /// which were hashed up to this very root — the rest of the hashing would
    /// repeat the remembered path, and the proof is accepted; otherwise it
    /// is hashed to the root. Either way the verdict is the full
    /// recomputation's, and an accepted proof becomes the remembered one.
    pub fn verify(&self, root: &Hash, leaf: Hash, path: &mut VerifiedPath) -> bool {
        if self.index >= self.total {
            return false;
        }
        let (turns, depth) = turns(self.index, self.total);
        if self.siblings.len() != depth {
            return false;
        }
        let mut nodes = std::mem::take(&mut path.scratch);
        nodes.clear();
        nodes.push(leaf);
        if let Some(join) = path.join(root, self.total, turns, depth) {
            self.hash_up(&mut nodes, turns, join.level);
            if path.agrees(join, &nodes[join.level], &self.siblings) {
                // Its own nodes up to the join, the remembered ones above.
                nodes.extend_from_slice(&path.nodes[join.remembered + 1..]);
                path.remember(turns, nodes, &self.siblings);
                return true;
            }
        }
        self.hash_up(&mut nodes, turns, depth);
        let accepted = nodes.pop().as_ref() == Some(root);
        if accepted {
            (path.root, path.total) = (*root, self.total);
            path.remember(turns, nodes, &self.siblings);
        } else {
            path.scratch = nodes;
        }
        accepted
    }

    /// Extends `nodes`, this proof's path bottom-up from its leaf, up to
    /// `level`: `nodes[u]` is the node hashed with `siblings[u]`.
    fn hash_up(&self, nodes: &mut Vec<Hash>, turns: u64, level: usize) {
        let depth = self.siblings.len();
        for u in nodes.len() - 1..level {
            let (node, sibling) = (&nodes[u], &self.siblings[u]);
            // Level `u` from the bottom is step `depth - 1 - u` from the root.
            let parent = if turns >> (depth - 1 - u) & 1 == 1 {
                inner_hash(sibling, node)
            } else {
                inner_hash(node, sibling)
            };
            nodes.push(parent);
        }
    }
}

/// The turns from the root down to leaf `index` of a `total`-leaf tree —
/// bit `t` set where step `t` goes right — and the number of steps: at most
/// 64, the depth of a tree of `usize::MAX` leaves.
fn turns(mut index: usize, mut total: usize) -> (u64, usize) {
    let (mut turns, mut depth) = (0u64, 0);
    while total > 1 {
        let k = split_point(total);
        if index < k {
            total = k;
        } else {
            turns |= 1 << depth;
            index -= k;
            total -= k;
        }
        depth += 1;
    }
    (turns, depth)
}

/// The path of the last proof [`MerkleProof::verify`] accepted through it.
///
/// A cache of that pure function, keyed by the root and leaf count the path
/// was hashed up to, holding the value of every node on the path and of
/// every sibling beside it. Its buffers are reused, so once they have grown
/// to a tree's depth a proof allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct VerifiedPath {
    root: Hash,
    /// Leaf count of the remembered proof's tree; 0 while nothing is
    /// remembered.
    total: usize,
    turns: u64,
    /// Bottom-up like the proof's siblings: `nodes[u]` is the node hashed
    /// with `siblings[u]`, so `nodes[0]` is the leaf.
    nodes: Vec<Hash>,
    siblings: Vec<Hash>,
    /// Room for the nodes of the proof being checked.
    scratch: Vec<Hash>,
}

/// The node where a proof's path leaves the remembered one: its level
/// bottom-up on the proof's path, where the remembered path has its sibling
/// at `remembered`.
#[derive(Debug, Clone, Copy)]
struct Join {
    level: usize,
    remembered: usize,
}

impl VerifiedPath {
    /// Where the path of `turns` in a `total`-leaf tree under `root` leaves
    /// the remembered path, if one is remembered under that key and proves
    /// another leaf.
    fn join(&self, root: &Hash, total: usize, turns: u64, depth: usize) -> Option<Join> {
        let differ = turns ^ self.turns;
        if self.total != total || &self.root != root || differ == 0 {
            return None;
        }
        // Two paths share every step down to their leaves' lowest common
        // ancestor, which lies above both leaves, and turn apart there.
        let shared = differ.trailing_zeros() as usize;
        Some(Join {
            level: depth - 1 - shared,
            remembered: self.siblings.len() - 1 - shared,
        })
    }

    /// Whether a proof with `siblings`, whose path hashed to `node` at
    /// `join.level`, meets nothing above that node but remembered values: the
    /// node is the remembered sibling there, its sibling the remembered node,
    /// and the siblings above are the remembered siblings.
    fn agrees(&self, join: Join, node: &Hash, siblings: &[Hash]) -> bool {
        let (level, remembered) = (join.level, join.remembered);
        node == &self.siblings[remembered]
            && siblings[level] == self.nodes[remembered]
            && siblings[level + 1..] == self.siblings[remembered + 1..]
    }

    /// Remembers the path of an accepted proof under the current key.
    fn remember(&mut self, turns: u64, nodes: Vec<Hash>, siblings: &[Hash]) {
        self.turns = turns;
        self.scratch = std::mem::replace(&mut self.nodes, nodes);
        self.siblings.clear();
        self.siblings.extend_from_slice(siblings);
    }
}

/// Builds the root and an inclusion proof for the leaf at `index`.
///
/// Returns `None` if `index` is out of range.
pub fn prove<'a, I>(leaves: I, index: usize) -> Option<(Hash, MerkleProof)>
where
    I: IntoIterator<Item = &'a [u8]>,
{
    let hashed: Vec<Hash> = leaves.into_iter().map(leaf_hash).collect();
    if index >= hashed.len() {
        return None;
    }
    let mut siblings = Vec::new();
    let root = build_proof(&hashed, index, &mut siblings);
    Some((
        root,
        MerkleProof {
            index,
            total: hashed.len(),
            siblings,
        },
    ))
}

/// A fully materialised Merkle tree over a fixed leaf list.
///
/// Every subtree root is memoized at build time, so [`MerkleTree::root`] is
/// O(1) and each [`MerkleTree::prove`] is O(log n) lookups instead of the
/// O(n) re-hash that [`prove`] pays per call. The root and every proof are
/// bit-identical to [`simple_root`] / [`prove`] over the same leaves (pinned
/// by the equivalence test below) — callers that generate many proofs
/// against one snapshot of the leaves build the tree once and query it.
///
/// The nodes sit in one `Vec` in post-order of the RFC 6962 recursion: the
/// subtree over `m` leaves is `2m - 1` consecutive hashes — its left subtree
/// (over the first `split_point(m)` leaves), its right subtree, then its own
/// root — so a proof walks offsets instead of looking ranges up in a map.
///
/// A tree that changes a little between builds is rebuilt from the last one
/// ([`MerkleTree::rebuild`]): a perfect subtree — `2^j` leaves starting at a
/// multiple of `2^j` — is the same nodes wherever its leaves sit in a tree,
/// so one whose leaves were a perfect subtree of the old tree too is copied
/// as the slice of `2^(j+1) - 1` hashes it was there, and only the nodes
/// above and beside the changed leaves are hashed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleTree {
    len: usize,
    nodes: Vec<Hash>,
}

/// Marks a leaf in [`MerkleTree::rebuild`]'s rank list whose hash is not in
/// the old tree.
pub const FRESH: usize = usize::MAX;

impl MerkleTree {
    /// Builds the tree, memoizing every subtree root.
    pub fn build<'a, I>(leaves: I) -> Self
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        let hashed: Vec<Hash> = leaves.into_iter().map(leaf_hash).collect();
        Self::from_leaf_hashes(&hashed)
    }

    /// Builds the tree over leaves already hashed with [`leaf_hash`]: only
    /// the inner nodes are hashed.
    fn from_leaf_hashes(leaves: &[Hash]) -> Self {
        Builder {
            old: None,
            ranks: &[],
            fresh: leaves,
        }
        .finish(leaves.len())
    }

    /// The tree over a new leaf list given against this one: new leaf `r`
    /// is this tree's leaf `ranks[r]`, or, where `ranks[r]` is [`FRESH`],
    /// the next hash of `fresh`. Old ranks must rise along `ranks`.
    ///
    /// Equal node for node to the tree built from scratch. A perfect subtree
    /// over unchanged leaves that are consecutive here and start at a
    /// perfect node of this tree is copied from it and hashes nothing.
    pub fn rebuild(&self, ranks: &[usize], fresh: &[Hash]) -> Self {
        Builder {
            old: Some(self),
            ranks,
            fresh,
        }
        .finish(ranks.len())
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The Merkle root, equal to [`simple_root`] of the same leaves.
    pub fn root(&self) -> Hash {
        self.nodes[self.nodes.len() - 1]
    }

    /// An inclusion proof for the leaf at `index`, equal to the proof
    /// [`prove`] builds. Returns `None` if `index` is out of range.
    ///
    /// The siblings are collected into a `Vec` of exactly the proof's depth:
    /// a proof rides in a relayer transaction to the end of its block, and
    /// one grown by pushes would carry up to twice its hashes' room.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.len {
            return None;
        }
        let mut siblings = Vec::with_capacity(proof_depth(self.len, index));
        self.collect_siblings(0, self.len, index, &mut siblings);
        Some(MerkleProof {
            index,
            total: self.len,
            siblings,
        })
    }

    /// Pushes the sibling hashes for `index` bottom-up, mirroring
    /// `build_proof`'s recursion over the subtree of `leaves` leaves whose
    /// nodes start at `offset`.
    fn collect_siblings(&self, offset: usize, leaves: usize, index: usize, out: &mut Vec<Hash>) {
        if leaves <= 1 {
            return;
        }
        let k = split_point(leaves);
        // The left subtree's root closes its `2k - 1` nodes; the right
        // subtree's root is the node just before this subtree's own.
        let (left_root, right_root) = (offset + 2 * k - 2, offset + 2 * leaves - 3);
        if index < k {
            self.collect_siblings(offset, k, index, out);
            out.push(self.nodes[right_root]);
        } else {
            self.collect_siblings(left_root + 1, leaves - k, index - k, out);
            out.push(self.nodes[left_root]);
        }
    }
}

/// The one tree builder: over fresh leaf hashes only, or over a new leaf
/// list given against an old tree (see [`MerkleTree::rebuild`]).
struct Builder<'a> {
    old: Option<&'a MerkleTree>,
    /// Each new leaf's rank in `old`, or [`FRESH`]; empty without `old`.
    ranks: &'a [usize],
    /// The hashes of the fresh leaves not yet placed, in leaf order.
    fresh: &'a [Hash],
}

impl<'a> Builder<'a> {
    fn finish(mut self, len: usize) -> MerkleTree {
        let mut nodes = Vec::with_capacity((2 * len).max(2) - 1);
        self.fill(0, len, &mut nodes);
        debug_assert!(self.fresh.is_empty(), "more fresh hashes than fresh leaves");
        MerkleTree { len, nodes }
    }

    /// Appends the nodes of the subtree over new leaves `[start, start + n)`
    /// in post-order and returns its root (the last node appended).
    fn fill(&mut self, start: usize, n: usize, out: &mut Vec<Hash>) -> Hash {
        if let Some(nodes) = self.unchanged(start, n) {
            out.extend_from_slice(nodes);
            return nodes[nodes.len() - 1];
        }
        let h = match n {
            0 => sha256(b""),
            1 => {
                let leaf = self.fresh[0];
                self.fresh = &self.fresh[1..];
                leaf
            }
            n => {
                let k = split_point(n);
                let left = self.fill(start, k, out);
                let right = self.fill(start + k, n - k, out);
                inner_hash(&left, &right)
            }
        };
        out.push(h);
        h
    }

    /// The old tree's nodes for new leaves `[start, start + n)`, if they are
    /// one of its perfect subtrees: `n` a power of two and the leaves
    /// unchanged, at consecutive old ranks from a multiple `o` of `n` with
    /// `o + n` leaves in the old tree — exactly when it has a node over
    /// `[o, o + n)`. The `2o - popcount(o)` perfect nodes inside `[0, o)`
    /// precede that subtree in post-order, and its `2n - 1` nodes follow.
    fn unchanged(&self, start: usize, n: usize) -> Option<&'a [Hash]> {
        if !n.is_power_of_two() {
            return None;
        }
        let old = self.old?;
        let o = self.ranks[start];
        if o == FRESH || !o.is_multiple_of(n) || o + n > old.len {
            return None;
        }
        let leaves = &self.ranks[start..start + n];
        if !leaves.iter().zip(o..).all(|(&rank, want)| rank == want) {
            return None;
        }
        let first = 2 * o - o.count_ones() as usize;
        Some(&old.nodes[first..first + 2 * n - 1])
    }
}

fn build_proof(leaves: &[Hash], index: usize, siblings: &mut Vec<Hash>) -> Hash {
    match leaves.len() {
        0 => sha256(b""),
        1 => leaves[0],
        n => {
            let k = split_point(n);
            if index < k {
                let left = build_proof(&leaves[..k], index, siblings);
                let right = root_of(&leaves[k..]);
                siblings.push(right);
                inner_hash(&left, &right)
            } else {
                let right = build_proof(&leaves[k..], index - k, siblings);
                let left = root_of(&leaves[..k]);
                siblings.push(left);
                inner_hash(&left, &right)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    /// `proof`'s verdict on `data` under `root`, with nothing remembered.
    fn verifies(proof: &MerkleProof, root: &Hash, data: &[u8]) -> bool {
        proof.verify(root, leaf_hash(data), &mut VerifiedPath::default())
    }

    /// The doubling loop `split_point` replaced.
    fn split_point_by_doubling(n: usize) -> usize {
        let mut k = 1usize;
        while k * 2 < n {
            k *= 2;
        }
        k
    }

    #[test]
    fn split_point_is_the_doubling_loop() {
        let powers = (2..usize::BITS.min(41)).map(|k| 1usize << k);
        let edges = powers.flat_map(|p| [p - 1, p, p + 1]);
        for n in (2..=4_097).chain(edges) {
            assert_eq!(split_point(n), split_point_by_doubling(n), "n = {n}");
        }
    }

    #[test]
    fn empty_root_is_empty_hash() {
        assert_eq!(simple_root(std::iter::empty()), sha256(b""));
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let root = simple_root([b"only".as_slice()]);
        assert_eq!(root, leaf_hash(b"only"));
    }

    #[test]
    fn root_changes_with_content_and_order() {
        let a = simple_root([b"x".as_slice(), b"y".as_slice()]);
        let b = simple_root([b"y".as_slice(), b"x".as_slice()]);
        let c = simple_root([b"x".as_slice(), b"z".as_slice()]);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn proofs_verify_for_all_indices_and_sizes() {
        for n in 1..=17 {
            let data = leaves(n);
            let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
            let expected_root = simple_root(refs.iter().copied());
            // One remembered path across the sweep, as a batch shares one.
            let mut path = VerifiedPath::default();
            for (i, leaf) in data.iter().enumerate() {
                let (root, proof) = prove(refs.iter().copied(), i).expect("valid index");
                assert_eq!(root, expected_root, "root mismatch for n={n}");
                assert!(
                    verifies(&proof, &root, leaf),
                    "proof failed for n={n}, i={i}"
                );
                assert!(
                    proof.verify(&root, leaf_hash(leaf), &mut path),
                    "n={n}, i={i}"
                );
            }
        }
    }

    #[test]
    fn proof_rejects_wrong_leaf_and_root() {
        let data = leaves(8);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let (root, proof) = prove(refs.iter().copied(), 3).unwrap();
        assert!(!verifies(&proof, &root, b"tampered"));
        assert!(!verifies(&proof, &sha256(b"other root"), &data[3]));
    }

    #[test]
    fn proof_with_out_of_range_index_is_none() {
        let data = leaves(4);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        assert!(prove(refs.iter().copied(), 4).is_none());
    }

    #[test]
    fn memoized_tree_matches_simple_root_and_prove_bit_for_bit() {
        for n in 0..=17 {
            let data = leaves(n);
            let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
            let tree = MerkleTree::build(refs.iter().copied());
            assert_eq!(tree.len(), n);
            let hashed: Vec<Hash> = data.iter().map(|leaf| leaf_hash(leaf)).collect();
            assert_eq!(MerkleTree::from_leaf_hashes(&hashed), tree);
            assert_eq!(
                tree.root(),
                simple_root(refs.iter().copied()),
                "root mismatch for n={n}"
            );
            for (i, leaf) in data.iter().enumerate() {
                let (root, reference) = prove(refs.iter().copied(), i).expect("valid index");
                let cached = tree.prove(i).expect("valid index");
                assert_eq!(cached, reference, "proof mismatch for n={n}, i={i}");
                // Built to size: no room past its last sibling.
                assert_eq!(cached.siblings.capacity(), cached.siblings.len());
                assert!(verifies(&cached, &root, leaf));
            }
            assert!(tree.prove(n).is_none());
        }
    }

    fn hashed(tag: &str, n: usize) -> Vec<Hash> {
        (0..n)
            .map(|i| leaf_hash(format!("{tag}-{i}").as_bytes()))
            .collect()
    }

    /// Rebuilds `tree`, the tree over `old`, into the tree over `old[..at]`,
    /// `inserted` fresh leaves and `old[at + deleted..]`, and checks it
    /// against that tree built from scratch, node for node.
    fn assert_splice(tree: &MerkleTree, old: &[Hash], at: usize, deleted: usize, inserted: usize) {
        let fresh = hashed("fresh", inserted);
        let ranks: Vec<usize> = (0..at)
            .chain(std::iter::repeat_n(FRESH, inserted))
            .chain(at + deleted..old.len())
            .collect();
        let leaves: Vec<Hash> = (old[..at].iter())
            .chain(&fresh)
            .chain(&old[at + deleted..])
            .copied()
            .collect();
        assert_eq!(
            tree.rebuild(&ranks, &fresh),
            MerkleTree::from_leaf_hashes(&leaves),
            "{} leaves, at {at}: -{deleted} +{inserted}",
            old.len()
        );
    }

    #[test]
    fn a_rebuild_equals_the_tree_built_from_scratch() {
        let pool = hashed("old", 40);
        for n_old in 0..=40 {
            let old = &pool[..n_old];
            let tree = MerkleTree::from_leaf_hashes(old);
            for n_new in 0..=40 {
                // A run inserted, or a run deleted, at every position; the
                // empty and the power-of-two sizes on either side are in the
                // ranges.
                for at in 0..=n_old.min(n_new) {
                    let deleted = n_old.saturating_sub(n_new);
                    assert_splice(&tree, old, at, deleted, n_new + deleted - n_old);
                }
            }
            for at in 0..n_old {
                assert_splice(&tree, old, at, 1, 1);
            }
        }
    }

    #[test]
    fn a_rebuild_hashes_only_what_it_cannot_copy() {
        let old = hashed("old", 32);
        let tree = MerkleTree::from_leaf_hashes(&old);
        let fresh = hashed("fresh", 1);
        let inner_hashes = |ranks: Vec<usize>, fresh: &[Hash]| {
            prof::reset();
            tree.rebuild(&ranks, fresh);
            prof::snapshot().merkle_inner_hashes
        };
        prof::reset();
        MerkleTree::from_leaf_hashes(&old);
        assert_eq!(prof::snapshot().merkle_inner_hashes, 31);
        // Nothing changed: the whole tree is one perfect subtree.
        assert_eq!(inner_hashes((0..32).collect(), &[]), 0);
        // An appended leaf: only the new root above the old one.
        assert_eq!(inner_hashes((0..32).chain([FRESH]).collect(), &fresh), 1);
        // A rewritten leaf: its five ancestors.
        let rewrite = (0..32).map(|r| if r == 7 { FRESH } else { r }).collect();
        assert_eq!(inner_hashes(rewrite, &fresh), 5);
        // A leaf inserted in front moves every other one off the alignment
        // its old subtrees had: all 32 inner nodes are hashed again.
        assert_eq!(
            inner_hashes([FRESH].into_iter().chain(0..32).collect(), &fresh),
            32
        );
    }

    #[test]
    fn proof_index_beyond_total_fails_verification() {
        let data = leaves(4);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let (root, mut proof) = prove(refs.iter().copied(), 1).unwrap();
        proof.index = 10;
        assert!(!verifies(&proof, &root, &data[1]));
    }

    /// A batch proves consecutive leaves: 100 of a 4,096-leaf tree, verified
    /// in order through one remembered path. The first is hashed to the root
    /// (12 inner nodes); each later one only below the node where its path
    /// leaves its predecessor's. Leaves `j - 1` and `j` part at the node
    /// `trailing_zeros(j) + 1` levels up, so leaf `j` hashes
    /// `trailing_zeros(j)` nodes — 0 for every odd leaf, whose sibling leaf
    /// was just proven — and a verdict that hashed to the root instead
    /// would count 1,200.
    #[test]
    fn consecutive_proofs_hash_only_below_where_they_part() {
        let tree = MerkleTree::from_leaf_hashes(&hashed("leaf", 4_096));
        let (root, first) = (tree.root(), 1_000);
        let proofs: Vec<MerkleProof> = (first..first + 100)
            .map(|i| tree.prove(i).expect("in range"))
            .collect();
        let leaf = |i: usize| leaf_hash(format!("leaf-{i}").as_bytes());
        let mut path = VerifiedPath::default();
        prof::reset();
        for proof in &proofs {
            assert!(proof.verify(&root, leaf(proof.index), &mut path));
        }
        let below: u32 = (first + 1..first + 100).map(|j| j.trailing_zeros()).sum();
        assert_eq!(below, 100);
        assert_eq!(prof::snapshot().merkle_inner_hashes, 12 + u64::from(below));

        // The same batch with nothing remembered hashes every path whole.
        prof::reset();
        for proof in &proofs {
            assert!(verifies(
                proof,
                &root,
                format!("leaf-{}", proof.index).as_bytes()
            ));
        }
        assert_eq!(prof::snapshot().merkle_inner_hashes, 1_200);

        // A proof with a forged top sibling is hashed to the root and
        // rejected, and the path remembered is still leaf 1,099's: leaf
        // 1,000 parts from it 11 levels up (bit 10 is the highest in which
        // the two indices differ), so it hashes the 10 nodes below that.
        let mut forged = proofs[1].clone();
        *forged.siblings.last_mut().expect("12 siblings") = sha256(b"forged");
        prof::reset();
        assert!(!forged.verify(&root, leaf(forged.index), &mut path));
        assert_eq!(prof::snapshot().merkle_inner_hashes, 12);
        prof::reset();
        assert!(proofs[0].verify(&root, leaf(first), &mut path));
        assert_eq!(prof::snapshot().merkle_inner_hashes, 10);
    }
}
