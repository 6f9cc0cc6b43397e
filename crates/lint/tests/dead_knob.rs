//! The dead-surface check over a fixture workspace: every dead knob, axis,
//! function and method is reported by name, and nothing alive is.

use std::path::Path;

#[test]
fn dead_knob_fixture_reports_exactly_its_dead_surface() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/dead_knob");
    let dead = xcc_lint::dead_surface(&root).expect("scan succeeds");
    let names: Vec<&str> = dead.iter().map(|d| d.name.as_str()).collect();
    // A function called by nothing, by tests only (its own file's unit tests,
    // an integration test or a rustdoc example), or named only in prose and
    // strings is dead surface, and so is a method whose own file only
    // declares, initialises or reads a field of its name. Alive, non-pub and
    // non-knob-type names stay silent; so do functions called from the
    // file's own code, an example or the benchmark, test-only helpers, and
    // crates outside the simulation seven.
    assert_eq!(
        names,
        [
            "DeploymentConfig.orphan_knob",
            "SweepGrid::orphan_axis",
            "orphan_fn",
            "caller",
            "doc_example_fn",
            "prose_only_fn",
            "Probe::orphan_method",
            "Counter::hits",
        ]
    );
    assert_eq!(
        dead[0].to_string(),
        "crates/core/src/config.rs:9: `DeploymentConfig.orphan_knob`"
    );
}
