//! U1 fixture: a clean crate root. The word `unsafe` in this comment, in the
//! string below and in the test module must stay silent, and `unsafe_code`
//! is a different token.

#![forbid(unsafe_code)]

pub fn label() -> &'static str {
    "nothing unsafe here"
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_poke_at_memory() {
        let byte = 7u8;
        // SAFETY: `byte` is live and aligned.
        assert_eq!(unsafe { *std::ptr::addr_of!(byte) }, 7);
    }
}
