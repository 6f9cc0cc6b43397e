//! SHA-256 hashing and the [`Hash`](struct@Hash) digest type.
//!
//! The workspace deliberately avoids external cryptography crates; this is a
//! from-scratch FIPS 180-4 SHA-256 implementation used for transaction
//! hashes, Merkle roots, block identifiers and IBC packet commitments.
//!
//! It has three layers. [`Sha256`] is the one streaming wrapper: buffering,
//! padding and the length counter. Under it, `compress_blocks` takes every
//! run of whole 64-byte blocks and hands it to one of two backends: the
//! SHA-extensions kernel in the sibling `sha_ni` module when CPUID reports
//! the instructions, otherwise the portable `compress` loop below — which is
//! also the reference the tests hold the kernel to, bit for bit. Nothing
//! selects a backend but the CPU; [`backend`] only reports which one runs,
//! so that a wall-clock number can say which circuit produced it. Both
//! compute the same function of the same bytes, so no digest, and therefore
//! nothing simulated, depends on the host.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A 256-bit digest.
///
/// # Example
///
/// ```rust
/// use xcc_tendermint::hash::{sha256, Hash};
///
/// let digest: Hash = sha256(b"abc");
/// assert_eq!(
///     digest.to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Hash(pub [u8; 32]);

impl Hash {
    /// The all-zero digest, used as a sentinel for "no hash".
    pub const ZERO: Hash = Hash([0u8; 32]);

    /// Returns the raw bytes of the digest.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lower-case hexadecimal rendering of the digest.
    pub fn to_hex(&self) -> String {
        hex(&self.0)
    }

    /// A short 8-character prefix of the hex rendering, for logs.
    pub fn short(&self) -> String {
        hex(&self.0[..4])
    }

    /// `true` if this is the all-zero sentinel.
    pub fn is_zero(&self) -> bool {
        self.0 == [0u8; 32]
    }
}

/// Lower-case hexadecimal rendering of `bytes`.
pub fn hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(2 * bytes.len());
    for b in bytes {
        s.push(DIGITS[(b >> 4) as usize] as char);
        s.push(DIGITS[(b & 0xf) as usize] as char);
    }
    s
}

impl fmt::Debug for Hash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash({})", self.short())
    }
}

impl fmt::Display for Hash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl From<[u8; 32]> for Hash {
    fn from(bytes: [u8; 32]) -> Self {
        Hash(bytes)
    }
}

impl AsRef<[u8]> for Hash {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// Streaming: the hasher owns one 64-byte block buffer and nothing else.
/// [`update`](Sha256::update) tops up a partially filled block, compresses
/// every full block straight out of the caller's slice, and keeps only the
/// trailing `< 64` bytes, so hashing `n` bytes copies at most 63 of them per
/// call and allocates nothing — a 100 KB relayer transaction costs exactly
/// its 1,600 compressions. [`finalize`](Sha256::finalize) pads in place.
///
/// # Example
///
/// ```rust
/// use xcc_tendermint::hash::{sha256, Sha256};
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"hello ");
/// hasher.update(b"world");
/// assert_eq!(hasher.finalize(), sha256(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// The current, partially filled block: `block[..filled]` is pending
    /// input.
    block: [u8; 64],
    /// Number of pending bytes in `block`, always `< 64` between calls.
    filled: usize,
    length_bits: u64,
    /// What compresses whole blocks: [`compress_blocks`], except in the
    /// tests that run the wrapper's vectors over one named backend.
    kernel: Kernel,
}

/// A block backend: folds every block of the slice into the state, in order.
type Kernel = fn(&mut [u32; 8], &[[u8; 64]]);

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self::with_kernel(compress_blocks)
    }

    fn with_kernel(kernel: Kernel) -> Self {
        Sha256 {
            state: H0,
            block: [0u8; 64],
            filled: 0,
            length_bits: 0,
            kernel,
        }
    }

    /// Feeds `data` into the hasher.
    pub fn update(&mut self, mut data: &[u8]) {
        self.length_bits = self.length_bits.wrapping_add((data.len() as u64) * 8);
        if self.filled > 0 {
            let take = data.len().min(64 - self.filled);
            self.block[self.filled..self.filled + take].copy_from_slice(&data[..take]);
            self.filled += take;
            data = &data[take..];
            if self.filled < 64 {
                return;
            }
            (self.kernel)(&mut self.state, std::slice::from_ref(&self.block));
            self.filled = 0;
        }
        let (blocks, tail) = data.as_chunks::<64>();
        if !blocks.is_empty() {
            (self.kernel)(&mut self.state, blocks);
        }
        self.block[..tail.len()].copy_from_slice(tail);
        self.filled = tail.len();
    }

    /// Consumes the hasher and returns the digest.
    pub fn finalize(mut self) -> Hash {
        // Padding: 0x80, zeros up to 56 mod 64, then the bit length. When
        // fewer than 8 bytes remain after the 0x80 the length spills into one
        // extra all-padding block.
        self.block[self.filled] = 0x80;
        self.block[self.filled + 1..].fill(0);
        if self.filled + 1 > 56 {
            (self.kernel)(&mut self.state, std::slice::from_ref(&self.block));
            self.block = [0u8; 64];
        }
        self.block[56..].copy_from_slice(&self.length_bits.to_be_bytes());
        (self.kernel)(&mut self.state, std::slice::from_ref(&self.block));
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Hash(out)
    }
}

/// The one way into a block backend: the SHA-extensions kernel where the CPU
/// has it, the portable loop everywhere else.
fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    #[cfg(target_arch = "x86_64")]
    if crate::sha_ni::compress_blocks(state, blocks) {
        return;
    }
    portable_blocks(state, blocks);
}

/// Which backend this host's CPU selects: `"sha-ni"` or `"portable"`. It
/// reports and cannot choose; benchmarks print it beside wall-clock numbers,
/// which differ about twofold between the two.
pub fn backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if crate::sha_ni::detected() {
        return "sha-ni";
    }
    "portable"
}

fn portable_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        compress(state, block);
    }
}

fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
        *word = u32::from_be_bytes(*bytes);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// Convenience helper hashing `data` in one call.
pub fn sha256(data: &[u8]) -> Hash {
    let mut hasher = Sha256::new();
    hasher.update(data);
    hasher.finalize()
}

/// Hashes a sequence of byte-string fields unambiguously: each field goes in
/// as its length (8 big-endian bytes) followed by its bytes, so no two
/// different field lists hash the same concatenation.
///
/// Streaming: a field's bytes go straight into the hasher, so a caller with
/// one field per account or per transaction result needs no `Vec` of them.
///
/// # Example
///
/// ```rust
/// use xcc_tendermint::hash::{hash_fields, FieldHasher};
///
/// let mut hasher = FieldHasher::new();
/// hasher.field(b"ab");
/// hasher.field_parts(&[b"c", b"d"]);
/// assert_eq!(hasher.finish(), hash_fields(&[b"ab", b"cd"]));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FieldHasher(Sha256);

impl FieldHasher {
    /// A hasher over no fields yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one field.
    pub fn field(&mut self, bytes: &[u8]) {
        self.field_parts(&[bytes]);
    }

    /// Appends one field given in pieces: the concatenation of `parts` is
    /// framed as a single field, without being assembled first.
    pub fn field_parts(&mut self, parts: &[&[u8]]) {
        let len: usize = parts.iter().map(|part| part.len()).sum();
        self.0.update(&(len as u64).to_be_bytes());
        for part in parts {
            self.0.update(part);
        }
    }

    /// The digest of the fields appended so far.
    pub fn finish(self) -> Hash {
        self.0.finalize()
    }
}

/// [`FieldHasher`] over a list of fields already in hand.
pub fn hash_fields(fields: &[&[u8]]) -> Hash {
    let mut hasher = FieldHasher::new();
    for field in fields {
        hasher.field(field);
    }
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_arch = "x86_64")]
    fn sha_ni_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        assert!(crate::sha_ni::compress_blocks(state, blocks));
    }

    /// The dispatcher, the portable loop and — where this CPU has it — the
    /// SHA-extensions kernel: every vector below runs through the streaming
    /// wrapper once per entry.
    fn backends() -> Vec<(&'static str, Kernel)> {
        let mut all: Vec<(&'static str, Kernel)> =
            vec![("dispatch", compress_blocks), ("portable", portable_blocks)];
        #[cfg(target_arch = "x86_64")]
        if crate::sha_ni::detected() {
            all.push(("sha-ni", sha_ni_blocks));
        }
        all
    }

    /// Asserts `digest` for `data` on every backend, fed in one `update` and
    /// in chunks of `chunk` bytes.
    fn assert_digest(data: &[u8], chunk: usize, digest: &str) {
        for (name, kernel) in backends() {
            let mut one_shot = Sha256::with_kernel(kernel);
            one_shot.update(data);
            assert_eq!(one_shot.finalize().to_hex(), digest, "{name}, one-shot");
            let mut streamed = Sha256::with_kernel(kernel);
            for piece in data.chunks(chunk) {
                streamed.update(piece);
            }
            assert_eq!(
                streamed.finalize().to_hex(),
                digest,
                "{name}, chunks of {chunk}"
            );
        }
    }

    #[test]
    fn backend_names_what_the_dispatcher_runs() {
        let has_kernel = backends().iter().any(|(name, _)| *name == "sha-ni");
        assert_eq!(backend(), if has_kernel { "sha-ni" } else { "portable" });
    }

    /// The kernel is the portable loop, bit for bit: random starting states
    /// (not only `H0`) and random runs of blocks, including the empty run.
    #[test]
    fn sha_ni_kernel_matches_the_portable_loop() {
        #[cfg(target_arch = "x86_64")]
        if crate::sha_ni::detected() {
            let mut rng = xcc_sim::DetRng::new(0x5ba2);
            for _ in 0..200 {
                for run in [0, 1, 2, 3, 17] {
                    let state: [u32; 8] = std::array::from_fn(|_| rng.next_u64() as u32);
                    let blocks: Vec<[u8; 64]> = (0..run)
                        .map(|_| std::array::from_fn(|_| rng.next_u64() as u8))
                        .collect();
                    let (mut kernel, mut portable) = (state, state);
                    sha_ni_blocks(&mut kernel, &blocks);
                    portable_blocks(&mut portable, &blocks);
                    assert_eq!(kernel, portable, "{run} block(s) from {state:08x?}");
                }
            }
            return;
        }
        println!("note: this CPU reports no SHA extensions; only the portable loop was tested");
    }

    #[test]
    fn nist_vector_empty() {
        assert_digest(
            b"",
            1,
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn nist_vector_abc() {
        assert_digest(
            b"abc",
            1,
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn nist_vector_448_bits() {
        assert_digest(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            17,
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn nist_vector_896_bits() {
        assert_digest(
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
              ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            17,
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        );
    }

    #[test]
    fn long_input_matches_incremental() {
        let data = vec![0xabu8; 1_000];
        assert_digest(&data, 17, &sha256(&data).to_hex());
    }

    /// Lengths around the padding rule's edges: 55 is the longest input whose
    /// padding fits its own block, 56–63 spill the length into an extra
    /// block, 64 leaves an empty tail, and 119/120/128 repeat that one block
    /// later. Digests are those of the pre-streaming implementation.
    #[test]
    fn block_boundary_lengths_match_the_buffering_implementation() {
        let expected = [
            (
                55,
                "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59",
            ),
            (
                56,
                "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562",
            ),
            (
                63,
                "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488",
            ),
            (
                64,
                "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108",
            ),
            (
                65,
                "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781",
            ),
            (
                119,
                "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6",
            ),
            (
                120,
                "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c",
            ),
            (
                128,
                "471fb943aa23c511f6f72f8d1652d9c880cfa392ad80503120547703e56a2be5",
            ),
        ];
        for (len, digest) in expected {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            // Byte-at-a-time exercises every fill level of the block buffer.
            assert_digest(&data, 1, digest);
        }
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_digest(
            &data,
            4_099,
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn hash_fields_is_not_ambiguous() {
        // Without length prefixes these two would collide.
        let a = hash_fields(&[b"ab", b"c"]);
        let b = hash_fields(&[b"a", b"bc"]);
        assert_ne!(a, b);
    }

    /// The framing is part of every signature and application hash: the
    /// literal is `sha256sum` over `00×7 02 "ab" 00×7 01 "c"`, and a field
    /// given in parts is the same field.
    #[test]
    fn hash_fields_framing_is_pinned() {
        let pinned = "601d5476e2ccfe2c87a2bba7a322659734a05749d5b5aa781f513e4912db0d5f";
        assert_eq!(hash_fields(&[b"ab", b"c"]).to_hex(), pinned);
        let mut hasher = FieldHasher::new();
        hasher.field_parts(&[b"a", b"", b"b"]);
        hasher.field(b"c");
        assert_eq!(hasher.finish().to_hex(), pinned);
        assert_eq!(FieldHasher::new().finish(), sha256(b""));
    }

    #[test]
    fn hash_type_helpers() {
        let h = sha256(b"abc");
        assert_eq!(
            h.to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(h.short(), "ba7816bf");
        assert!(!h.is_zero());
        assert!(Hash::ZERO.is_zero());
        assert_eq!(Hash::ZERO.short(), "00000000");
        assert_eq!(format!("{h}"), h.to_hex());
        assert_eq!(format!("{h:?}"), "Hash(ba7816bf)");
    }
}
