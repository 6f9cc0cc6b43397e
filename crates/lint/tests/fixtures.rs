//! End-to-end tests: each rule's bad fixture must fail `--check` with
//! exit code 2 and report the expected findings, and the real workspace
//! must be lint-clean.

use std::path::{Path, PathBuf};
use std::process::Command;

use xcc_lint::{rules, Config, RuleId};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

fn run_rules(root: &Path, rule_names: &[&str]) -> Vec<(String, String)> {
    let mut rules_on: Vec<RuleId> = rule_names
        .iter()
        .map(|n| RuleId::parse(n).expect("known rule"))
        .collect();
    rules_on.push(RuleId::Suppression);
    let outcome = rules::run(&Config {
        root: root.to_path_buf(),
        rules: rules_on,
    })
    .expect("scan succeeds");
    outcome
        .findings
        .into_iter()
        .map(|f| (f.rule.to_string(), f.message))
        .collect()
}

fn check_exit_code(root: &Path, rule: &str) -> i32 {
    let output = Command::new(env!("CARGO_BIN_EXE_xcc-lint"))
        .args(["--check", "--rule", rule, "--root"])
        .arg(root)
        .output()
        .expect("binary runs");
    output.status.code().expect("exit code")
}

#[test]
fn uncosted_rpc_fixture_fails() {
    let root = fixture("uncosted_rpc");
    let findings = run_rules(&root, &["uncosted-rpc"]);
    assert!(
        findings.iter().any(|(_, m)| m.contains("Unpriced")),
        "unpriced variant must be flagged: {findings:?}"
    );
    assert!(
        findings.iter().any(|(_, m)| m.contains("wildcard")),
        "wildcard arm must be flagged: {findings:?}"
    );
    assert!(
        findings.iter().any(|(_, m)| m.contains("free_rider")),
        "RPC method naming no RequestKind must be flagged: {findings:?}"
    );
    assert!(
        findings.iter().any(|(_, m)| m.contains("DeadButPriced")),
        "dead costing arm must be flagged: {findings:?}"
    );
    assert_eq!(check_exit_code(&root, "uncosted-rpc"), 2);
}

#[test]
fn registry_docs_fixture_fails() {
    let root = fixture("registry_docs");
    let findings = run_rules(&root, &["registry-docs"]);
    let has = |needle: &str| findings.iter().any(|(_, m)| m.contains(needle));
    assert!(has("`undocumented` is not documented"), "{findings:?}");
    assert!(
        has("`phantom`"),
        "phantom doc row must be flagged: {findings:?}"
    );
    assert!(
        !findings.iter().any(|(_, m)| m.contains("`covered`")),
        "the fully-consistent scenario must stay silent: {findings:?}"
    );
    assert_eq!(check_exit_code(&root, "registry-docs"), 2);
}

#[test]
fn dead_knob_fixture_fails() {
    let root = fixture("dead_knob");
    let findings = run_rules(&root, &["dead-knob"]);
    let has = |needle: &str| findings.iter().any(|(_, m)| m.contains(needle));
    assert!(has("`DeploymentConfig.orphan_knob`"), "{findings:?}");
    // A function called by nothing, by tests only (its own file's unit tests,
    // an integration test or a rustdoc example), or named only in prose and
    // strings is dead surface.
    for dead in [
        "orphan_axis",
        "orphan_fn",
        "orphan_method",
        "caller",
        "doc_example_fn",
        "prose_only_fn",
    ] {
        assert!(has(&format!("pub fn `{dead}`")), "{dead}: {findings:?}");
    }
    // Alive, suppressed, non-pub, and non-knob-type names stay silent; so do
    // functions called from the file's own code, an example or the unlinted
    // benchmark, test-only helpers, and crates outside the simulation seven.
    for quiet in [
        "used_knob",
        "parked_knob",
        "internal_counter",
        "unread_scratch",
        "used_axis",
        "expand",
        "drive",
        "used_here",
        "bench_probe",
        "parked_fn",
        "private_helper",
        "test_fixture",
        "unscoped_fn",
    ] {
        assert!(!has(quiet), "`{quiet}` must not be flagged: {findings:?}");
    }
    assert_eq!(check_exit_code(&root, "dead-knob"), 2);
}

#[test]
fn float_determinism_fixture_fails() {
    let root = fixture("float_determinism");
    // lane-bypass rides along so the wrong-rule suppression is judged.
    let outcome = rules::run(&Config {
        root: root.clone(),
        rules: vec![
            RuleId::FloatDeterminism,
            RuleId::LaneBypass,
            RuleId::Suppression,
        ],
    })
    .expect("scan succeeds");
    let found: Vec<(&str, usize, &str)> = outcome
        .findings
        .iter()
        .map(|f| (f.rule, f.line, f.message.as_str()))
        .collect();
    // Each unannotated site is its own finding: the signature and the cast
    // line of `drift`, and `mislabeled`, whose annotation names another rule.
    // The annotated site is absorbed and the test module is exempt.
    let d4: Vec<usize> = (found.iter())
        .filter(|(r, _, _)| *r == "float-determinism")
        .map(|(_, line, _)| *line)
        .collect();
    assert_eq!(d4, [6, 7, 16], "{found:?}");
    let s0 = |line: usize, needle: &str| {
        (found.iter()).any(|(r, l, m)| *r == "suppression" && *l == line && m.contains(needle))
    };
    assert!(
        s0(15, "unused suppression"),
        "the wrong-rule annotation: {found:?}"
    );
    assert!(
        s0(20, "suppression names unknown rule `hash-collections`"),
        "an annotation naming a deleted rule cannot stay behind silently: {found:?}"
    );
    assert!(
        s0(23, "unused suppression"),
        "the no-op float annotation: {found:?}"
    );
    assert!(
        s0(28, "malformed xcc-lint comment"),
        "the unclosed annotation: {found:?}"
    );
    assert_eq!(found.len(), 7, "{found:?}");
    assert_eq!(check_exit_code(&root, "float-determinism"), 2);
}

#[test]
fn lane_bypass_fixture_fails() {
    let root = fixture("lane_bypass");
    let findings = run_rules(&root, &["lane-bypass"]);
    let c2: Vec<_> = findings
        .iter()
        .filter(|(r, _)| r == "lane-bypass")
        .collect();
    assert!(
        c2.iter()
            .any(|(_, m)| m.contains("`RpcResponse { .. }` construction")),
        "hand-built response must be flagged: {findings:?}"
    );
    assert!(
        c2.iter().any(|(_, m)| m.contains("`service_time`")),
        "direct cost-table access must be flagged: {findings:?}"
    );
    // The suppressed shim, the type position, and the test harness are the
    // only other sites — exactly two findings.
    assert_eq!(c2.len(), 2, "{findings:?}");
    assert!(
        !findings.iter().any(|(r, _)| r == "suppression"),
        "both shim suppressions are used: {findings:?}"
    );
    assert_eq!(check_exit_code(&root, "lane-bypass"), 2);
}

#[test]
fn value_detour_fixture_fails() {
    let root = fixture("value_detour");
    let findings = run_rules(&root, &["value-detour"]);
    let v1: Vec<_> = findings
        .iter()
        .filter(|(r, _)| r == "value-detour")
        .collect();
    for call in [
        "`to_value`",
        "`from_value`",
        "`binary::to_bytes`",
        "`binary::from_bytes`",
        "`json::encoded_len`",
        "`json::parse`",
    ] {
        assert!(
            v1.iter().any(|(_, m)| m.contains(call)),
            "{call} must be flagged: {findings:?}"
        );
    }
    // One finding per banned function (`from_bytes` is caught at its
    // import); the comment, the string, `tx.encoded_len()`, `str::parse`,
    // the streaming calls, the suppressed dump, the test module and the
    // framework crate stay silent.
    assert_eq!(v1.len(), 6, "{findings:?}");
    assert!(
        !findings.iter().any(|(r, _)| r == "suppression"),
        "the dump's suppression is used: {findings:?}"
    );
    assert_eq!(check_exit_code(&root, "value-detour"), 2);
}

#[test]
fn unsafe_code_fixture_fails() {
    let root = fixture("unsafe_code");
    let outcome = rules::run(&Config {
        root: root.clone(),
        rules: vec![RuleId::UnsafeCode, RuleId::Suppression],
    })
    .expect("scan succeeds");
    let found: Vec<(&str, usize, &str)> = outcome
        .findings
        .iter()
        .map(|f| (f.path.as_str(), f.line, f.message.as_str()))
        .collect();
    let has = |path: &str, line: usize, needle: &str| {
        found
            .iter()
            .any(|(p, l, m)| *p == path && *l == line && m.contains(needle))
    };
    // A crate that stopped forbidding it, and the block that followed — its
    // `// SAFETY:` comment does not make it the dispatch file.
    assert!(
        has("crates/sim/src/lib.rs", 0, "`#![forbid(unsafe_code)]`"),
        "{found:?}"
    );
    assert!(
        has(
            "crates/sim/src/lib.rs",
            9,
            "outside crates/tendermint/src/sha_ni.rs"
        ),
        "{found:?}"
    );
    // In the dispatch file the first block (multi-line SAFETY comment, then
    // the `allow` attribute) is the allowed one; the second is one too many
    // and has no comment.
    let dispatch = "crates/tendermint/src/sha_ni.rs";
    assert!(has(dispatch, 19, "a second `unsafe`"), "{found:?}");
    assert!(has(dispatch, 19, "without a `// SAFETY:`"), "{found:?}");
    // Nothing else: the clean root's comment, string, `unsafe_code` token and
    // test module, the tendermint root's `deny`, and the first dispatch block.
    assert_eq!(found.len(), 4, "{found:?}");
    assert_eq!(check_exit_code(&root, "unsafe-code"), 2);
}

/// Satellite guarantee: findings come out sorted by (path, line, col, rule)
/// and paths stay workspace-relative even under an absolute `--root`.
#[test]
fn findings_are_sorted_and_paths_stay_workspace_relative() {
    let root = fixture("float_determinism")
        .canonicalize()
        .expect("fixture resolves");
    assert!(root.is_absolute());

    let outcome = rules::run(&Config {
        root: root.clone(),
        rules: vec![RuleId::FloatDeterminism, RuleId::Suppression],
    })
    .expect("scan succeeds");
    assert!(outcome.findings.len() > 3, "fixture must produce findings");
    for f in &outcome.findings {
        assert!(
            f.path.starts_with("crates/"),
            "path must be workspace-relative, got `{}`",
            f.path
        );
    }
    let keys: Vec<_> = outcome
        .findings
        .iter()
        .map(|f| (f.path.clone(), f.line, f.col, f.rule))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "findings must come out pre-sorted");

    // And the binary's GitHub mode renders one annotation per finding.
    let gh = Command::new(env!("CARGO_BIN_EXE_xcc-lint"))
        .args(["--github", "--rule", "float-determinism", "--root"])
        .arg(&root)
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&gh.stdout);
    assert!(
        stdout
            .lines()
            .any(|l| l.starts_with("::error file=crates/") && l.contains("title=xcc-lint")),
        "github annotations must use relative paths: {stdout}"
    );
}

#[test]
fn workspace_is_lint_clean() {
    let root = workspace_root();
    let outcome = rules::run(&Config::all_rules(&root)).expect("scan succeeds");
    assert!(
        outcome.findings.is_empty(),
        "the workspace must be lint-clean:\n{}",
        outcome
            .findings
            .iter()
            .map(|f| f.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        outcome.files_scanned > 50,
        "sanity: the walker found only {} files",
        outcome.files_scanned
    );
}

#[test]
fn cli_json_and_exit_codes() {
    let bin = env!("CARGO_BIN_EXE_xcc-lint");

    // Clean tree in check mode: exit 0.
    let clean = Command::new(bin)
        .args(["--check", "--root"])
        .arg(workspace_root())
        .output()
        .expect("binary runs");
    assert_eq!(clean.status.code(), Some(0), "workspace check must pass");

    // JSON output on a bad fixture parses the expected shape.
    let json_out = Command::new(bin)
        .args(["--json", "--rule", "float-determinism", "--root"])
        .arg(fixture("float_determinism"))
        .output()
        .expect("binary runs");
    let json = String::from_utf8_lossy(&json_out.stdout);
    assert!(json.contains("\"rule\": \"float-determinism\""), "{json}");
    assert!(json.contains("\"finding_count\""), "{json}");
    // Without --check, findings do not change the exit code.
    assert_eq!(json_out.status.code(), Some(0));

    // Unknown rule: usage error.
    let bad = Command::new(bin)
        .args(["--rule", "no-such-rule"])
        .output()
        .expect("binary runs");
    assert_eq!(bad.status.code(), Some(1));
}
