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

/// A method is not kept alive by a field of its name.
pub struct Counter {
    hits: u64,
    misses: u64,
}

impl Counter {
    fn fresh() -> Counter {
        Counter { hits: 0, misses: 0 }
    }

    fn bump(&mut self) {
        self.hits += self.misses;
    }

    /// Only the field `hits` is read in this file's code: dead.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Called below as a method: alive.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// Private, but it calls `Counter::misses`.
fn report(counter: &Counter) -> u64 {
    counter.misses()
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
        assert_eq!(Counter::fresh().hits(), 0);
    }
}
