//! Dead-surface fixture, function half: every non-test `pub fn` of a simulation crate
//! needs a caller that is not one of this file's own unit tests.

/// Called by the unit test below and by nothing else: dead surface.
pub fn orphan_fn() -> u64 {
    1
}

/// Called from this file's own non-test code: alive.
pub fn used_here() -> u64 {
    2
}

/// Called only from `tests/drive.rs`: a test is not a caller, so dead.
pub fn caller() -> u64 {
    used_here()
}

/// Named only in `benchmark/src/main.rs`, which is read as text: alive.
pub fn bench_probe() -> u64 {
    3
}

/// Named only in its own rustdoc example, which is a test: dead.
///
/// ```rust
/// assert_eq!(doc_example_fn(), 4);
/// ```
pub fn doc_example_fn() -> u64 {
    4
}

/// Named in prose (`prose_only_fn`) and in a string, never in code: dead.
pub const fn prose_only_fn() -> &'static str {
    "prose_only_fn"
}

pub struct Probe;

impl Probe {
    /// A dead method is dead surface too.
    pub fn orphan_method(&self) {}

    /// Private helpers are not surface.
    fn private_helper(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test-only helpers are not surface.
    pub fn test_fixture() -> u64 {
        orphan_fn()
    }

    #[test]
    fn a_unit_test_is_not_a_caller() {
        assert_eq!(test_fixture(), 1);
        Probe.orphan_method();
    }
}
