//! Merkle tree over byte strings, as used for the `DataHash` of a block and
//! for simple store commitment proofs.
//!
//! The construction follows the RFC 6962 style used by Tendermint: leaves are
//! prefixed with `0x00` and inner nodes with `0x01` before hashing, and an
//! unbalanced tree splits at the largest power of two smaller than the number
//! of leaves.

use serde::{Deserialize, Serialize};

use crate::hash::{sha256, Hash, Sha256};

const LEAF_PREFIX: u8 = 0x00;
const INNER_PREFIX: u8 = 0x01;

/// The hash of one leaf: SHA-256 of `0x00 || data`.
pub fn leaf_hash(data: &[u8]) -> Hash {
    let mut h = Sha256::new();
    h.update(&[LEAF_PREFIX]);
    h.update(data);
    h.finalize()
}

fn inner_hash(left: &Hash, right: &Hash) -> Hash {
    let mut h = Sha256::new();
    h.update(&[INNER_PREFIX]);
    h.update(left.as_bytes());
    h.update(right.as_bytes());
    h.finalize()
}

/// The largest power of two strictly less than `n` (for `n >= 2`).
fn split_point(n: usize) -> usize {
    debug_assert!(n >= 2);
    let mut k = 1usize;
    while k * 2 < n {
        k *= 2;
    }
    k
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
    /// Verifies that `leaf_data` at `self.index` is included in the tree with
    /// the given `root`.
    pub fn verify(&self, root: &Hash, leaf_data: &[u8]) -> bool {
        if self.index >= self.total {
            return false;
        }
        let computed = self.compute_root(leaf_hash(leaf_data), self.index, self.total, 0);
        match computed {
            Some((h, used)) if used == self.siblings.len() => &h == root,
            _ => false,
        }
    }

    /// Recomputes the root from the leaf, consuming siblings bottom-up.
    fn compute_root(
        &self,
        leaf: Hash,
        index: usize,
        total: usize,
        used: usize,
    ) -> Option<(Hash, usize)> {
        match total {
            0 => None,
            1 => Some((leaf, used)),
            _ => {
                let k = split_point(total);
                if index < k {
                    let (left, used) = self.compute_root(leaf, index, k, used)?;
                    let right = *self.siblings.get(used)?;
                    Some((inner_hash(&left, &right), used + 1))
                } else {
                    let (right, used) = self.compute_root(leaf, index - k, total - k, used)?;
                    let left = *self.siblings.get(used)?;
                    Some((inner_hash(&left, &right), used + 1))
                }
            }
        }
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleTree {
    len: usize,
    nodes: Vec<Hash>,
}

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
    /// the inner nodes are hashed. A caller that rebuilds after changing a
    /// few leaves keeps the hashes of the others itself.
    pub fn from_leaf_hashes(leaves: &[Hash]) -> Self {
        let mut nodes = Vec::with_capacity((2 * leaves.len()).max(2) - 1);
        fill_subtrees(leaves, &mut nodes);
        MerkleTree {
            len: leaves.len(),
            nodes,
        }
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
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.len {
            return None;
        }
        let mut siblings = Vec::new();
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

/// Appends the nodes of the tree over `leaves` in post-order and returns its
/// root (the last node appended).
fn fill_subtrees(leaves: &[Hash], out: &mut Vec<Hash>) -> Hash {
    let h = match leaves.len() {
        0 => sha256(b""),
        1 => leaves[0],
        n => {
            let k = split_point(n);
            let left = fill_subtrees(&leaves[..k], out);
            let right = fill_subtrees(&leaves[k..], out);
            inner_hash(&left, &right)
        }
    };
    out.push(h);
    h
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
            for (i, leaf) in data.iter().enumerate() {
                let (root, proof) = prove(refs.iter().copied(), i).expect("valid index");
                assert_eq!(root, expected_root, "root mismatch for n={n}");
                assert!(proof.verify(&root, leaf), "proof failed for n={n}, i={i}");
            }
        }
    }

    #[test]
    fn proof_rejects_wrong_leaf_and_root() {
        let data = leaves(8);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let (root, proof) = prove(refs.iter().copied(), 3).unwrap();
        assert!(!proof.verify(&root, b"tampered"));
        assert!(!proof.verify(&sha256(b"other root"), &data[3]));
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
                assert!(cached.verify(&root, leaf));
            }
            assert!(tree.prove(n).is_none());
        }
    }

    #[test]
    fn proof_index_beyond_total_fails_verification() {
        let data = leaves(4);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let (root, mut proof) = prove(refs.iter().copied(), 1).unwrap();
        proof.index = 10;
        assert!(!proof.verify(&root, &data[1]));
    }
}
