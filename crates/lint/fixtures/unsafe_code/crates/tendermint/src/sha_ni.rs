//! U1 fixture: the dispatch file. Its first `unsafe` is the allowed one; the
//! second is one too many, and would lack its comment besides.

pub(crate) fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) -> bool {
    if !detected() {
        return false;
    }
    // SAFETY: `detected()` has just reported every feature `kernel`
    // enables.
    #[allow(unsafe_code)]
    unsafe {
        kernel(state, blocks)
    };
    true
}

pub(crate) fn peek(state: &[u32; 8]) -> u32 {
    #[allow(unsafe_code)]
    unsafe {
        *state.as_ptr()
    }
}
