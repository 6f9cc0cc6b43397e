//! The x86-64 SHA-extensions block kernel under [`crate::hash`], and the CPUID
//! check that selects it.
//!
//! This file is the only place in the workspace that names `std::arch`, and it
//! holds the library crates' only `unsafe` (the other site is the counting
//! allocator of the root package's `tests/alloc_budget.rs`): the call from
//! [`compress_blocks`], after detection, into the `#[target_feature]`
//! function below. The kernel
//! body itself is safe code — every intrinsic it uses takes and returns
//! values, and blocks are read through `from_le_bytes`, not through pointers.
//! `hash.rs` keeps the portable loop; its differential test holds this kernel
//! to it bit for bit.

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8,
};

use crate::hash::K;

/// Whether this CPU has every instruction set [`kernel`] is compiled for.
/// The standard library caches the CPUID answer, so this is a load and a
/// mask after the first call.
pub(crate) fn detected() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// Runs `blocks` through the SHA-extensions kernel when the CPU has it and
/// reports whether it did; on `false`, `state` is untouched and the caller
/// takes the portable loop.
pub(crate) fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) -> bool {
    if !detected() {
        return false;
    }
    #[expect(
        unsafe_code,
        reason = "the workspace's one unsafe block: a call into a `#[target_feature]` function"
    )]
    // SAFETY: `detected()` has just reported `sha`, `sse2`, `ssse3` and
    // `sse4.1`, which is every feature `kernel` enables.
    unsafe {
        kernel(state, blocks)
    };
    true
}

/// FIPS 180-4 §6.2.2 over every block of `blocks`, four rounds per
/// `sha256rnds2` pair, with the working variables held in two registers from
/// the first block to the last.
///
/// `sha256rnds2` wants the state as `ABEF`/`CDGH` (high lane first); a group
/// of four schedule words sits in one register with the lowest-numbered word
/// in lane 0, which is how [`K`] and the message are laid out too.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn kernel(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    let [a, b, c, d, e, f, g, h] = state.map(|word| word as i32);
    let mut abef = _mm_set_epi32(a, b, e, f);
    let mut cdgh = _mm_set_epi32(c, d, g, h);

    for block in blocks {
        let (abef_in, cdgh_in) = (abef, cdgh);
        // `w[0]` is the group of four words the next rounds consume; the
        // other three are what the schedule needs to extend it by one group.
        let (halves, _) = block.as_chunks::<8>();
        let mut w = [
            load_group(halves[0], halves[1]),
            load_group(halves[2], halves[3]),
            load_group(halves[4], halves[5]),
            load_group(halves[6], halves[7]),
        ];
        for k in K.as_chunks::<4>().0 {
            let [k0, k1, k2, k3] = k.map(|word| word as i32);
            let wk = _mm_add_epi32(w[0], _mm_set_epi32(k3, k2, k1, k0));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            w = [w[1], w[2], w[3], next_group(w)];
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    *state = [
        _mm_extract_epi32(abef, 3) as u32,
        _mm_extract_epi32(abef, 2) as u32,
        _mm_extract_epi32(cdgh, 3) as u32,
        _mm_extract_epi32(cdgh, 2) as u32,
        _mm_extract_epi32(abef, 1) as u32,
        _mm_extract_epi32(abef, 0) as u32,
        _mm_extract_epi32(cdgh, 1) as u32,
        _mm_extract_epi32(cdgh, 0) as u32,
    ];
}

/// Sixteen message bytes as four big-endian words, the first in lane 0.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn load_group(low: [u8; 8], high: [u8; 8]) -> __m128i {
    // Reverses the bytes of each 32-bit lane.
    let big_endian = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let bytes = _mm_set_epi64x(i64::from_le_bytes(high), i64::from_le_bytes(low));
    _mm_shuffle_epi8(bytes, big_endian)
}

/// Words `t+16..t+20` of the message schedule from words `t..t+16`, four to a
/// register: `σ0` and the `w[t]` term come from `sha256msg1`, `w[t+9..t+13]`
/// straddles the last two registers, and `sha256msg2` adds `σ1`.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn next_group(w: [__m128i; 4]) -> __m128i {
    let partial = _mm_add_epi32(
        _mm_sha256msg1_epu32(w[0], w[1]),
        _mm_alignr_epi8(w[3], w[2], 4),
    );
    _mm_sha256msg2_epu32(partial, w[3])
}
