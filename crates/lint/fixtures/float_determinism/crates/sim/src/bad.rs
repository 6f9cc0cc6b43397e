//! D4 fixture: float arithmetic in simulated code, one properly annotated
//! site, one wrong-rule annotation, one annotation naming a deleted rule,
//! one unused annotation, and one malformed annotation.

/// Two unannotated sites: the signature and the cast line.
pub fn drift(x: u64) -> f64 {
    x as f64 * 0.5
}

// xcc-lint: allow(float-determinism, reason = "reporting-only ratio; never feeds simulated state")
pub fn annotated_ratio(busy: f64, horizon: f64) -> f64 {
    busy / horizon
}

// xcc-lint: allow(value-detour, reason = "wrong rule: does not absorb the float below")
pub fn mislabeled(x: f32) -> f32 {
    x
}

// xcc-lint: allow(hash-collections, reason = "the rule moved to clippy; the annotation stayed behind")
pub fn stale_rule_name() {}

// xcc-lint: allow(float-determinism, reason = "unused: nothing floats on the next line")
pub fn integral(x: u64) -> u64 {
    x
}

// xcc-lint: allow(float-determinism
pub fn unclosed_annotation() {}

#[cfg(test)]
mod tests {
    #[test]
    fn floats_in_tests_are_exempt() {
        let x: f64 = 1.5;
        assert!(x > 1.0);
    }
}
