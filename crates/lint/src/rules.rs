//! The rule set.
//!
//! | Id | Rule | Contract it guards |
//! |----|------|--------------------|
//! | D4 | `float-determinism` | every `f32`/`f64` in sim/chain/tendermint/relayer code is annotated |
//! | V1 | `value-detour` | simulation code never builds a `serde::Value` tree: no `to_value`/`from_value`, no `Value`-tree binary or JSON-length calls |
//! | U1 | `unsafe-code` | every crate root, binaries included, forbids `unsafe_code`; tendermint's, whose SHA-256 kernel dispatch holds the one `unsafe` block, denies it |
//! | K1 | `dead-knob` | every pub config field is read outside its defining file, and every non-test `pub fn` of the seven simulation crates has a caller that is not a test |
//! | R1 | `registry-docs` | scenario registry ↔ README/PAPER-row consistency |
//!
//! The hash-collection, wall-clock, entropy and panic bans, the RPC lane and
//! the `unsafe` block itself are not here: rustc and clippy enforce them with
//! type resolution (the workspace `clippy.toml`'s `disallowed-types` and
//! `disallowed-methods`, `#![deny(clippy::unwrap_used, clippy::expect_used,
//! clippy::panic)]` in every `crates/*` library root and in this crate's
//! binary, `RpcResponse`'s private field, the wildcard-arm denies on
//! `service_time`, and tendermint's `deny(unsafe_code)` beside
//! `deny(clippy::undocumented_unsafe_blocks)`). U1 keeps only what no
//! compiler lint states: that each root carries its `unsafe_code` level.
//!
//! Rules accept per-site suppressions: `// xcc-lint: allow(<rule>,
//! reason = "...")` on the offending line or the line above. The reason is
//! mandatory, and suppressions that stop matching anything are themselves
//! findings, so the escape hatch cannot rot.
//!
//! The token-level rules (D4, V1) work straight off the scrubbed lines; K1
//! consumes the [workspace item graph](crate::items) so it survives
//! reformatting and follows items when they move.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::items::FileItems;
use crate::lexer::{word_occurrences, Scrubbed};
use crate::report::Finding;

/// Identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// D4: every `f32`/`f64` in simulated code carries a reasoned annotation.
    FloatDeterminism,
    /// V1: no `serde::Value` trees on the simulation path.
    ValueDetour,
    /// U1: every crate root carries its `unsafe_code` lint level.
    UnsafeCode,
    /// K1: pub config knobs must be read and pub functions called somewhere.
    DeadKnob,
    /// R1: scenario registry ↔ scenario docs.
    RegistryDocs,
    /// Meta-rule: `xcc-lint: allow(...)` comments must be well-formed,
    /// carry a reason, name a known rule and still match a finding.
    Suppression,
}

impl RuleId {
    /// Every rule, in report order.
    pub const ALL: [RuleId; 6] = [
        RuleId::FloatDeterminism,
        RuleId::ValueDetour,
        RuleId::UnsafeCode,
        RuleId::DeadKnob,
        RuleId::RegistryDocs,
        RuleId::Suppression,
    ];

    /// The rule's kebab-case name (as used by `--rule` and suppressions).
    pub fn name(self) -> &'static str {
        match self {
            RuleId::FloatDeterminism => "float-determinism",
            RuleId::ValueDetour => "value-detour",
            RuleId::UnsafeCode => "unsafe-code",
            RuleId::DeadKnob => "dead-knob",
            RuleId::RegistryDocs => "registry-docs",
            RuleId::Suppression => "suppression",
        }
    }

    /// The rule's short catalogue code (`D4`…`R1`, `S0`).
    pub fn code(self) -> &'static str {
        match self {
            RuleId::FloatDeterminism => "D4",
            RuleId::ValueDetour => "V1",
            RuleId::UnsafeCode => "U1",
            RuleId::DeadKnob => "K1",
            RuleId::RegistryDocs => "R1",
            RuleId::Suppression => "S0",
        }
    }

    /// Parses a rule name (accepts the catalogue code too).
    pub fn parse(name: &str) -> Option<RuleId> {
        RuleId::ALL
            .into_iter()
            .find(|r| r.name() == name || r.code().eq_ignore_ascii_case(name))
    }
}

/// What to lint and which rules to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root (the directory holding `Cargo.toml` and `crates/`).
    pub root: PathBuf,
    /// The rules to run.
    pub rules: Vec<RuleId>,
}

impl Config {
    /// All rules over `root`.
    pub fn all_rules(root: impl Into<PathBuf>) -> Config {
        Config {
            root: root.into(),
            rules: RuleId::ALL.to_vec(),
        }
    }

    fn enabled(&self, rule: RuleId) -> bool {
        self.rules.contains(&rule)
    }
}

/// The result of a lint run.
#[derive(Debug)]
pub struct Outcome {
    /// Findings, sorted by (path, line, col, rule).
    pub findings: Vec<Finding>,
    /// Number of Rust files scanned.
    pub files_scanned: usize,
}

/// One scanned Rust source file.
struct SourceFile {
    rel: String,
    scrub: Scrubbed,
    items: FileItems,
}

/// Runs the configured rules over the workspace.
pub fn run(config: &Config) -> io::Result<Outcome> {
    let files = scan_workspace(&config.root)?;
    let mut findings = Vec::new();

    if config.enabled(RuleId::FloatDeterminism) {
        float_determinism(&files, &mut findings);
    }
    if config.enabled(RuleId::ValueDetour) {
        value_detour(&files, &mut findings);
    }
    if config.enabled(RuleId::UnsafeCode) {
        unsafe_code(&files, &mut findings);
    }
    if config.enabled(RuleId::DeadKnob) {
        dead_knob(&config.root, &files, &mut findings)?;
    }
    if config.enabled(RuleId::RegistryDocs) {
        registry_docs(&config.root, &files, &mut findings);
    }
    if config.enabled(RuleId::Suppression) {
        suppression_hygiene(config, &files, &mut findings);
    }

    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    Ok(Outcome {
        findings,
        files_scanned: files.len(),
    })
}

// ---------------------------------------------------------------------------
// File discovery
// ---------------------------------------------------------------------------

/// Collects the Rust files the rules walk: `crates/*/src` (recursively) and
/// the umbrella `src/`, `tests/`, `examples/`.
/// `vendor/` and `target/` are never scanned.
fn scan_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in fs::read_dir(&crates)? {
            let dir = entry?.path();
            collect_rs(&dir.join("src"), &mut paths)?;
        }
    }
    for top in ["src", "tests", "examples"] {
        collect_rs(&root.join(top), &mut paths)?;
    }
    paths.sort();

    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let source = fs::read_to_string(&path)?;
        let scrub = Scrubbed::scan(&source);
        let items = FileItems::parse(&rel, &scrub);
        files.push(SourceFile { rel, scrub, items });
    }
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// D4: float-determinism
// ---------------------------------------------------------------------------

/// D4 covers the crates whose code feeds simulated state or metrics.
fn in_float_scope(rel: &str) -> bool {
    [
        "crates/sim/src/",
        "crates/chain/src/",
        "crates/tendermint/src/",
        "crates/relayer/src/",
    ]
    .iter()
    .any(|prefix| rel.starts_with(prefix))
}

fn float_determinism(files: &[SourceFile], findings: &mut Vec<Finding>) {
    let d4 = RuleId::FloatDeterminism.name();
    for file in files.iter().filter(|f| in_float_scope(&f.rel)) {
        let mut sites: Vec<(usize, usize)> = ["f32", "f64"]
            .into_iter()
            .flat_map(|word| word_occurrences(&file.scrub.code, word))
            .filter(|(line, _)| !file.scrub.is_test_line(*line))
            .collect();
        sites.sort_unstable();
        // One finding per line, and one annotation absorbs the whole line.
        sites.dedup_by_key(|(line, _)| *line);
        for (line, col) in sites {
            if let Some(supp) = file.scrub.suppression_for(d4, line) {
                supp.used.set(true);
                continue;
            }
            findings.push(Finding {
                rule: d4,
                path: file.rel.clone(),
                line,
                col: col + 1,
                message: "unannotated f32/f64: float arithmetic feeding simulated state is a \
                          cross-platform determinism hazard — use integer micro-units, or \
                          annotate the site with `// xcc-lint: allow(float-determinism, \
                          reason = \"...\")`"
                    .into(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// V1: value-detour
// ---------------------------------------------------------------------------

/// V1 covers the six crates a simulated transaction passes through. The
/// framework, bench and lint crates sit at the reporting boundary, where
/// `serde::Value` trees and JSON text are the point.
fn in_value_scope(rel: &str) -> bool {
    ["sim", "tendermint", "chain", "ibc", "rpc", "relayer"]
        .iter()
        .any(|krate| rel.starts_with(&format!("crates/{krate}/src/")))
}

/// The tree-building calls, as `(module, function)`: a function with no
/// module is banned under any path, the others only as `module::function`
/// or inside a `module::{..}` import — `tx.encoded_len()` and `str::parse`
/// are different functions.
const VALUE_DETOURS: [(&str, &str); 6] = [
    ("", "to_value"),
    ("", "from_value"),
    ("binary", "to_bytes"),
    ("binary", "from_bytes"),
    ("json", "encoded_len"),
    ("json", "parse"),
];

fn value_detour(files: &[SourceFile], findings: &mut Vec<Finding>) {
    let v1 = RuleId::ValueDetour.name();
    for file in files.iter().filter(|f| in_value_scope(&f.rel)) {
        for (module, function) in VALUE_DETOURS {
            for (line, col) in word_occurrences(&file.scrub.code, function) {
                let before = &file.scrub.code[line - 1][..col];
                let named = module.is_empty()
                    || before.ends_with(&format!("{module}::"))
                    || before.contains(&format!("{module}::{{"));
                if !named || file.scrub.is_test_line(line) {
                    continue;
                }
                if let Some(supp) = file.scrub.suppression_for(v1, line) {
                    supp.used.set(true);
                    continue;
                }
                let path = [module, function].join("::");
                findings.push(Finding {
                    rule: v1,
                    path: file.rel.clone(),
                    line,
                    col: col + 1,
                    message: format!(
                        "`{}`: builds or walks a `serde::Value` tree on the simulation path — \
                         stream through `Serialize::serialize` / `Deserialize::deserialize` \
                         (`serde::binary::{{write, read, Writer, Reader}}`, `serde::json::Len`)",
                        path.trim_start_matches("::")
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// U1: unsafe-code
// ---------------------------------------------------------------------------

/// The crate whose root says `deny` instead of `forbid`, so that its SHA-256
/// kernel dispatch can `expect` the lint on the workspace's one `unsafe`
/// block.
const UNSAFE_DENY_ROOT: &str = "crates/tendermint/src/lib.rs";

/// The library, `main.rs` and `src/bin/*.rs` binary roots of the workspace
/// crates, and the umbrella `src/lib.rs`.
fn is_crate_root(rel: &str) -> bool {
    let parts: Vec<&str> = rel.split('/').collect();
    matches!(
        parts.as_slice(),
        ["src", "lib.rs" | "main.rs"]
            | ["crates", _, "src", "lib.rs" | "main.rs"]
            | ["crates", _, "src", "bin", _]
    )
}

fn unsafe_code(files: &[SourceFile], findings: &mut Vec<Finding>) {
    for file in files.iter().filter(|f| is_crate_root(&f.rel)) {
        let wanted = if file.rel == UNSAFE_DENY_ROOT {
            "#![deny(unsafe_code)]"
        } else {
            "#![forbid(unsafe_code)]"
        };
        if !file.scrub.code.iter().any(|code| code.trim() == wanted) {
            findings.push(Finding {
                rule: RuleId::UnsafeCode.name(),
                path: file.rel.clone(),
                line: 0,
                col: 0,
                message: format!("crate root does not carry `{wanted}`"),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// K1: dead-knob
// ---------------------------------------------------------------------------

/// The config types whose pub fields are experiment knobs.
const KNOB_TYPES: [&str; 3] = ["DeploymentConfig", "RelayerStrategy", "WorkloadConfig"];

/// The crates whose non-test `pub fn`s must have a caller.
const SURFACE_CRATES: [&str; 7] = [
    "sim",
    "tendermint",
    "chain",
    "ibc",
    "rpc",
    "relayer",
    "core",
];

fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|word| !word.is_empty())
}

/// Every word of `benchmark/src/*.rs`: callers the rules never lint, read
/// as plain text. A rustdoc example is not a caller — it is a test.
fn unlinted_callers(root: &Path) -> io::Result<BTreeSet<String>> {
    let mut paths = Vec::new();
    collect_rs(&root.join("benchmark/src"), &mut paths)?;
    let mut callers = BTreeSet::new();
    for path in paths {
        let text = fs::read_to_string(path)?;
        callers.extend(words(&text).map(str::to_string));
    }
    Ok(callers)
}

fn dead_knob(root: &Path, files: &[SourceFile], findings: &mut Vec<Finding>) -> io::Result<()> {
    let k1 = RuleId::DeadKnob.name();
    // Tests are not callers: the words of `tests/` files and of `#[cfg(test)]`
    // lines keep nothing alive, so a function only tests reach is dead.
    let code_words: Vec<BTreeSet<&str>> = (files.iter())
        .map(|f| {
            let test_file = f.rel.starts_with("tests/");
            let lines = f.scrub.code.iter().enumerate();
            let live = lines.filter(|(i, _)| !test_file && !f.scrub.is_test_line(i + 1));
            live.flat_map(|(_, line)| words(line)).collect()
        })
        .collect();
    let read_outside = |fi: usize, word: &str| {
        (code_words.iter().enumerate()).any(|(oi, seen)| oi != fi && seen.contains(word))
    };
    let unlinted = unlinted_callers(root)?;
    for (fi, file) in files.iter().enumerate() {
        for strukt in &file.items.structs {
            if !KNOB_TYPES.contains(&strukt.name.as_str()) {
                continue;
            }
            for field in strukt.fields.iter().filter(|f| f.is_pub) {
                if read_outside(fi, &field.name) {
                    continue;
                }
                if let Some(supp) = file.scrub.suppression_for(k1, field.line) {
                    supp.used.set(true);
                    continue;
                }
                findings.push(Finding {
                    rule: k1,
                    path: file.rel.clone(),
                    line: field.line,
                    col: 0,
                    message: format!(
                        "pub knob `{}.{}` is never read outside its defining file — config \
                         plumbed nowhere silently no-ops in every sweep",
                        strukt.name, field.name
                    ),
                });
            }
        }
        // Every pub function of the simulation crates (`SweepGrid`'s axes
        // among them) needs a caller that is not a test. Trait-impl methods
        // carry no `pub` and stay out of scope.
        if !SURFACE_CRATES.contains(&file.items.crate_name.as_str()) {
            continue;
        }
        for func in file.items.all_fns() {
            if !func.is_pub || file.scrub.is_test_line(func.line) {
                continue;
            }
            // In its own file a use is a non-test line that names the
            // function other than to declare it.
            let used_here =
                (word_occurrences(&file.scrub.code, &func.name).iter()).any(|&(line, col)| {
                    !file.scrub.is_test_line(line)
                        && !file.scrub.code[line - 1][..col].trim_end().ends_with("fn")
                });
            if used_here || read_outside(fi, &func.name) || unlinted.contains(&func.name) {
                continue;
            }
            if let Some(supp) = file.scrub.suppression_for(k1, func.line) {
                supp.used.set(true);
                continue;
            }
            findings.push(Finding {
                rule: k1,
                path: file.rel.clone(),
                line: func.line,
                col: 0,
                message: format!(
                    "pub fn `{}` is called by nothing but tests — public surface no \
                     scenario, example or benchmark reaches is dead code",
                    func.name
                ),
            });
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// R1: registry-docs
// ---------------------------------------------------------------------------

const REGISTRY_RS: &str = "crates/core/src/registry.rs";
const DOC_FILES: [&str; 2] = ["README.md", "PAPER.md"];

fn registry_docs(root: &Path, files: &[SourceFile], findings: &mut Vec<Finding>) {
    let Some(registry) = files.iter().find(|f| f.rel == REGISTRY_RS) else {
        return; // not a registry-bearing tree (fixture workspaces)
    };
    let r1 = RuleId::RegistryDocs.name();

    // Scenario names: `name: "<lit>"` struct fields in the registry source.
    let mut scenarios: BTreeMap<String, usize> = BTreeMap::new();
    for lit in &registry.scrub.strings {
        let code_line = &registry.scrub.code[lit.line - 1];
        let before = code_line[..lit.col].trim_end();
        let field = before.strip_suffix(':').map(str::trim_end);
        if field.is_some_and(|f| f.ends_with("name") && !f.ends_with("_name")) {
            scenarios.entry(lit.value.clone()).or_insert(lit.line);
        }
    }
    if scenarios.is_empty() {
        findings.push(Finding {
            rule: r1,
            path: registry.rel.clone(),
            line: 0,
            col: 0,
            message: "no `name: \"...\"` scenario entries found — did the registry move?".into(),
        });
        return;
    }

    // Doc rows: every documented scenario is registered, every registered
    // scenario is documented.
    let mut doc_text = String::new();
    for doc in DOC_FILES {
        let text = fs::read_to_string(root.join(doc)).unwrap_or_default();
        for (idx, row_name) in doc_row_names(&text) {
            if !scenarios.contains_key(&row_name) {
                findings.push(Finding {
                    rule: r1,
                    path: doc.into(),
                    line: idx,
                    col: 0,
                    message: format!(
                        "table row names scenario `{row_name}` but the registry does not \
                         know it"
                    ),
                });
            }
        }
        doc_text.push_str(&text);
    }
    for (name, line) in &scenarios {
        if !doc_text.contains(&format!("`{name}`")) {
            findings.push(Finding {
                rule: r1,
                path: registry.rel.clone(),
                line: *line,
                col: 0,
                message: format!("scenario `{name}` is not documented in README.md or PAPER.md"),
            });
        }
    }
}

/// Markdown table rows whose first column is a single backticked
/// `[a-z0-9_]+` name, as `(line, name)`.
fn doc_row_names(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let Some(rest) = line.trim_start().strip_prefix('|') else {
            continue;
        };
        let Some(cell) = rest.split('|').next() else {
            continue;
        };
        let cell = cell.trim();
        let Some(name) = cell.strip_prefix('`').and_then(|c| c.strip_suffix('`')) else {
            continue;
        };
        if !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        {
            out.push((idx + 1, name.to_string()));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// S0: suppression hygiene
// ---------------------------------------------------------------------------

fn suppression_hygiene(config: &Config, files: &[SourceFile], findings: &mut Vec<Finding>) {
    let s0 = RuleId::Suppression.name();
    for file in files {
        for supp in &file.scrub.suppressions {
            if supp.malformed {
                findings.push(Finding {
                    rule: s0,
                    path: file.rel.clone(),
                    line: supp.line,
                    col: 0,
                    message: format!(
                        "malformed xcc-lint comment ({}); expected `xcc-lint: allow(rule, \
                         reason = \"...\")`",
                        supp.rule
                    ),
                });
                continue;
            }
            let Some(rule) = RuleId::parse(&supp.rule) else {
                findings.push(Finding {
                    rule: s0,
                    path: file.rel.clone(),
                    line: supp.line,
                    col: 0,
                    message: format!("suppression names unknown rule `{}`", supp.rule),
                });
                continue;
            };
            if supp.reason.is_none() {
                findings.push(Finding {
                    rule: s0,
                    path: file.rel.clone(),
                    line: supp.line,
                    col: 0,
                    message: format!(
                        "suppression of `{}` without a reason — the reason is mandatory: \
                         allow({}, reason = \"...\")",
                        supp.rule, supp.rule
                    ),
                });
            }
            // Only judge usefulness when the suppressed rule actually ran.
            if config.enabled(rule) && !supp.used.get() {
                findings.push(Finding {
                    rule: s0,
                    path: file.rel.clone(),
                    line: supp.line,
                    col: 0,
                    message: format!(
                        "unused suppression: no `{}` finding on this or the next line — \
                         delete it",
                        supp.rule
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_rows_are_backticked_first_columns() {
        let md = "| Scenario | What |\n|---|---|\n| `fig6` | throughput |\n| plain | no |\n";
        assert_eq!(doc_row_names(md), vec![(3, "fig6".into())]);
    }

    #[test]
    fn rule_codes_round_trip_through_parse() {
        for rule in RuleId::ALL {
            assert_eq!(RuleId::parse(rule.name()), Some(rule));
            assert_eq!(RuleId::parse(rule.code()), Some(rule));
            assert_eq!(RuleId::parse(&rule.code().to_lowercase()), Some(rule));
        }
        assert_eq!(RuleId::parse("no-such-rule"), None);
    }
}
