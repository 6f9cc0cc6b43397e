//! The rule set.
//!
//! | Id | Rule | Contract it guards |
//! |----|------|--------------------|
//! | D1 | `hash-collections` | no `HashMap`/`HashSet` — iteration order would break schedule equivalence |
//! | D2 | `wall-clock` | no `std::time::{SystemTime, Instant}` — all time is `xcc_sim::SimTime` |
//! | D3 | `ambient-entropy` | no `thread_rng`/OS-seeded RNG — seeds derive from `ExperimentSpec` |
//! | D4 | `float-determinism` | `f32`/`f64` in sim/chain/tendermint/relayer code is annotated or baselined |
//! | C1 | `uncosted-rpc` | every `RpcEndpoint` RPC method names a `RequestKind`, and every kind has an explicit costing arm |
//! | C2 | `lane-bypass` | outside `crates/rpc`, no direct `RpcResponse` construction or cost-table access |
//! | V1 | `value-detour` | simulation code never builds a `serde::Value` tree: no `to_value`/`from_value`, no `Value`-tree binary or JSON-length calls |
//! | U1 | `unsafe-code` | the `unsafe` keyword appears once, under a `// SAFETY:` comment, in the SHA-256 kernel's dispatch file; every other crate root forbids it |
//! | K1 | `dead-knob` | every pub config field is read outside its defining file, and every non-test `pub fn` of the seven simulation crates has a caller besides its own file's unit tests |
//! | P1 | `panic-in-library` | no new `unwrap()`/`expect()`/`panic!` in non-test library code beyond the baseline |
//! | R1 | `registry-docs` | scenario registry ↔ README/PAPER-row consistency |
//!
//! D-rules accept per-site suppressions: `// xcc-lint: allow(<rule>,
//! reason = "...")` on the offending line or the line above. The reason is
//! mandatory, and suppressions that stop matching anything are themselves
//! findings, so the escape hatch cannot rot.
//!
//! The token-level rules (D1–D3, D4, C2, V1, U1, P1) work straight off the scrubbed
//! lines; the structural rules (C1, K1) consume the
//! [workspace item graph](crate::items) so they survive reformatting and
//! follow items when they move.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::baseline;
use crate::items::{self, FileItems, Flat};
use crate::lexer::{word_occurrences, Scrubbed};
use crate::report::Finding;

/// Identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// D1: no `HashMap`/`HashSet` without a justified suppression.
    HashCollections,
    /// D2: no `SystemTime`/`Instant`.
    WallClock,
    /// D3: no ambient entropy sources.
    AmbientEntropy,
    /// D4: `f32`/`f64` in simulated code ratcheted by the float baseline.
    FloatDeterminism,
    /// C1: every RPC method cross-checked against `RequestKind` costing.
    UncostedRpc,
    /// C2: no `RpcResponse` construction or cost-table access outside `crates/rpc`.
    LaneBypass,
    /// V1: no `serde::Value` trees on the simulation path.
    ValueDetour,
    /// U1: one `unsafe` block, in the SHA-256 kernel's dispatch file.
    UnsafeCode,
    /// K1: pub config knobs must be read and pub functions called somewhere.
    DeadKnob,
    /// P1: panic sites in library code ratcheted by the baseline.
    PanicInLibrary,
    /// R1: scenario registry ↔ scenario docs.
    RegistryDocs,
    /// Meta-rule: `xcc-lint: allow(...)` comments must be well-formed,
    /// carry a reason, name a known rule and still match a finding.
    Suppression,
}

impl RuleId {
    /// Every rule, in report order.
    pub const ALL: [RuleId; 12] = [
        RuleId::HashCollections,
        RuleId::WallClock,
        RuleId::AmbientEntropy,
        RuleId::FloatDeterminism,
        RuleId::UncostedRpc,
        RuleId::LaneBypass,
        RuleId::ValueDetour,
        RuleId::UnsafeCode,
        RuleId::DeadKnob,
        RuleId::PanicInLibrary,
        RuleId::RegistryDocs,
        RuleId::Suppression,
    ];

    /// The rule's kebab-case name (as used by `--rule` and suppressions).
    pub fn name(self) -> &'static str {
        match self {
            RuleId::HashCollections => "hash-collections",
            RuleId::WallClock => "wall-clock",
            RuleId::AmbientEntropy => "ambient-entropy",
            RuleId::FloatDeterminism => "float-determinism",
            RuleId::UncostedRpc => "uncosted-rpc",
            RuleId::LaneBypass => "lane-bypass",
            RuleId::ValueDetour => "value-detour",
            RuleId::UnsafeCode => "unsafe-code",
            RuleId::DeadKnob => "dead-knob",
            RuleId::PanicInLibrary => "panic-in-library",
            RuleId::RegistryDocs => "registry-docs",
            RuleId::Suppression => "suppression",
        }
    }

    /// The rule's short catalogue code (`D1`…`R1`).
    pub fn code(self) -> &'static str {
        match self {
            RuleId::HashCollections => "D1",
            RuleId::WallClock => "D2",
            RuleId::AmbientEntropy => "D3",
            RuleId::FloatDeterminism => "D4",
            RuleId::UncostedRpc => "C1",
            RuleId::LaneBypass => "C2",
            RuleId::ValueDetour => "V1",
            RuleId::UnsafeCode => "U1",
            RuleId::DeadKnob => "K1",
            RuleId::PanicInLibrary => "P1",
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

    if config.enabled(RuleId::HashCollections) {
        word_ban(
            &files,
            RuleId::HashCollections,
            &["HashMap", "HashSet"],
            "unordered hash collection; iterating one breaks schedule equivalence — use \
             BTreeMap/BTreeSet/Vec, or suppress with a reason if provably never iterated",
            &[],
            &mut findings,
        );
    }
    if config.enabled(RuleId::WallClock) {
        word_ban(
            &files,
            RuleId::WallClock,
            &["SystemTime", "Instant"],
            "wall-clock time source; simulated code must use xcc_sim::SimTime only",
            WALL_CLOCK_EXEMPT,
            &mut findings,
        );
    }
    if config.enabled(RuleId::AmbientEntropy) {
        word_ban(
            &files,
            RuleId::AmbientEntropy,
            &["thread_rng", "OsRng", "from_entropy", "getrandom"],
            "ambient entropy source; all randomness must derive from the ExperimentSpec seed \
             via xcc_sim::DetRng",
            &[],
            &mut findings,
        );
    }
    if config.enabled(RuleId::FloatDeterminism) {
        float_determinism(&config.root, &files, &mut findings);
    }
    if config.enabled(RuleId::UncostedRpc) {
        uncosted_rpc(&files, &mut findings);
    }
    if config.enabled(RuleId::LaneBypass) {
        lane_bypass(&files, &mut findings);
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
    if config.enabled(RuleId::PanicInLibrary) {
        panic_in_library(&config.root, &files, &mut findings);
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

/// Recomputes the P1 per-file counts for `--baseline` regeneration.
pub fn current_panic_counts(root: &Path) -> io::Result<BTreeMap<String, usize>> {
    let files = scan_workspace(root)?;
    Ok(files
        .iter()
        .filter(|f| in_panic_scope(&f.rel))
        .map(|f| (f.rel.clone(), panic_sites(&f.scrub).len()))
        .filter(|(_, count)| *count > 0)
        .collect())
}

/// Recomputes the D4 per-file counts for `--baseline` regeneration.
pub fn current_float_counts(root: &Path) -> io::Result<BTreeMap<String, usize>> {
    let files = scan_workspace(root)?;
    Ok(files
        .iter()
        .filter(|f| in_float_scope(&f.rel))
        .map(|f| (f.rel.clone(), float_sites(&f.scrub).len()))
        .filter(|(_, count)| *count > 0)
        .collect())
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
// D1 / D2 / D3: banned-word rules
// ---------------------------------------------------------------------------

/// D2's scoped exemption: the bench harness's timing shim is the single file
/// where `Instant` is legal. Wall-clock there measures the *host* replaying
/// fixtures for the human-facing `BENCH_golden.json` numbers and never feeds
/// simulated state; every other wall-clock site — including elsewhere in the
/// bench crate — still needs a per-line suppression or, better, removal.
const WALL_CLOCK_EXEMPT: &[&str] = &["crates/bench/src/timing.rs"];

fn word_ban(
    files: &[SourceFile],
    rule: RuleId,
    words: &[&str],
    why: &str,
    exempt_files: &[&str],
    findings: &mut Vec<Finding>,
) {
    for file in files {
        if exempt_files.contains(&file.rel.as_str()) {
            continue;
        }
        for word in words {
            for (line, col) in word_occurrences(&file.scrub.code, word) {
                if let Some(supp) = file.scrub.suppression_for(rule.name(), line) {
                    supp.used.set(true);
                    continue;
                }
                findings.push(Finding {
                    rule: rule.name(),
                    path: file.rel.clone(),
                    line,
                    col: col + 1,
                    message: format!("`{word}`: {why}"),
                });
            }
        }
    }
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

/// Unsuppressed, non-test `f32`/`f64` token lines.
fn float_sites(scrub: &Scrubbed) -> Vec<usize> {
    let mut lines = Vec::new();
    for word in ["f32", "f64"] {
        for (line, _col) in word_occurrences(&scrub.code, word) {
            if scrub.is_test_line(line) {
                continue;
            }
            if let Some(supp) = scrub.suppression_for(RuleId::FloatDeterminism.name(), line) {
                supp.used.set(true);
                continue;
            }
            lines.push(line);
        }
    }
    lines.sort_unstable();
    lines.dedup();
    lines
}

fn float_determinism(root: &Path, files: &[SourceFile], findings: &mut Vec<Finding>) {
    let d4 = RuleId::FloatDeterminism.name();
    let baseline_path = root.join(baseline::FLOAT_BASELINE_REL);
    let allowed = match fs::read_to_string(&baseline_path) {
        Ok(text) => match baseline::parse(&text) {
            Ok(map) => map,
            Err(err) => {
                findings.push(Finding {
                    rule: d4,
                    path: baseline::FLOAT_BASELINE_REL.into(),
                    line: 0,
                    col: 0,
                    message: format!("unreadable baseline: {err}"),
                });
                return;
            }
        },
        // No baseline checked in: everything counts as new.
        Err(_) => BTreeMap::new(),
    };

    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for file in files.iter().filter(|f| in_float_scope(&f.rel)) {
        seen.insert(&file.rel);
        let sites = float_sites(&file.scrub);
        let budget = allowed.get(&file.rel).copied().unwrap_or(0);
        if sites.len() > budget {
            findings.push(Finding {
                rule: d4,
                path: file.rel.clone(),
                line: sites.last().copied().unwrap_or(0),
                col: 0,
                message: format!(
                    "{} f32/f64 site(s) but the float baseline allows {budget}: float \
                     arithmetic feeding simulated state is a cross-platform determinism \
                     hazard — use integer micro-units, annotate the site with `// xcc-lint: \
                     allow(float-determinism, reason = \"...\")`, or regenerate with --baseline",
                    sites.len()
                ),
            });
        } else if sites.len() < budget {
            findings.push(Finding {
                rule: d4,
                path: file.rel.clone(),
                line: 0,
                col: 0,
                message: format!(
                    "stale float baseline: allows {budget} f32/f64 site(s) but only {} remain — \
                     regenerate with --baseline so the ratchet tightens",
                    sites.len()
                ),
            });
        }
    }
    for (path, budget) in &allowed {
        if !seen.contains(path.as_str()) {
            findings.push(Finding {
                rule: d4,
                path: baseline::FLOAT_BASELINE_REL.into(),
                line: 0,
                col: 0,
                message: format!(
                    "stale float baseline: lists {path} ({budget} site(s)) but the file no \
                     longer exists — regenerate with --baseline"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// C1: uncosted-rpc
// ---------------------------------------------------------------------------

const COST_RS: &str = "crates/rpc/src/cost.rs";
const ENDPOINT_RS: &str = "crates/rpc/src/endpoint.rs";

fn uncosted_rpc(files: &[SourceFile], findings: &mut Vec<Finding>) {
    let cost = files.iter().find(|f| f.rel == COST_RS);
    let endpoint = files.iter().find(|f| f.rel == ENDPOINT_RS);
    let (Some(cost), Some(endpoint)) = (cost, endpoint) else {
        // Not an rpc-bearing tree (e.g. a fixture workspace for another
        // rule); flag a half-present pair, otherwise stay silent.
        if let Some(present) = cost.or(endpoint) {
            findings.push(Finding {
                rule: RuleId::UncostedRpc.name(),
                path: present.rel.clone(),
                line: 0,
                col: 0,
                message: format!(
                    "found {} without its counterpart ({COST_RS} + {ENDPOINT_RS} must move \
                     together for the costing cross-check)",
                    present.rel
                ),
            });
        }
        return;
    };

    // 1. The RequestKind variants declared in cost.rs.
    let Some(kinds) = cost.items.enum_named("RequestKind") else {
        findings.push(Finding {
            rule: RuleId::UncostedRpc.name(),
            path: cost.rel.clone(),
            line: 0,
            col: 0,
            message: "could not find `enum RequestKind` (did the costing enum move?)".into(),
        });
        return;
    };

    // 2. The variants service_time prices explicitly, and whether a
    //    wildcard arm hides unpriced ones.
    let Some(cost_fn) = cost.items.all_fns().find(|f| f.name == "service_time") else {
        findings.push(Finding {
            rule: RuleId::UncostedRpc.name(),
            path: cost.rel.clone(),
            line: 0,
            col: 0,
            message: "could not find `fn service_time` in the cost model".into(),
        });
        return;
    };
    let priced: BTreeSet<String> = path_refs(&cost_fn.body, "RequestKind")
        .into_iter()
        .map(|(_, name)| name)
        .collect();
    for arm in items::match_arms(&cost_fn.body) {
        if arm.pattern == "_" || arm.pattern.starts_with("_ if") {
            findings.push(Finding {
                rule: RuleId::UncostedRpc.name(),
                path: cost.rel.clone(),
                line: cost_fn.body_line(arm.offset),
                col: 0,
                message: "wildcard `_ =>` arm in service_time defeats the costing cross-check; \
                          price every RequestKind variant explicitly"
                    .into(),
            });
        }
    }
    for variant in &kinds.variants {
        if !priced.contains(&variant.name) {
            findings.push(Finding {
                rule: RuleId::UncostedRpc.name(),
                path: cost.rel.clone(),
                line: variant.line,
                col: 0,
                message: format!(
                    "RequestKind::{} has no explicit costing arm in \
                     RpcCostModel::service_time — a request of this kind would ship free",
                    variant.name
                ),
            });
        }
    }

    // 3. Every variant must be exercised by some endpoint method…
    let endpoint_flat = Flat::new(&endpoint.scrub.code);
    let used: BTreeSet<String> = path_refs(&endpoint_flat.text, "RequestKind")
        .into_iter()
        .map(|(_, name)| name)
        .collect();
    for variant in &kinds.variants {
        if !used.contains(&variant.name) {
            findings.push(Finding {
                rule: RuleId::UncostedRpc.name(),
                path: cost.rel.clone(),
                line: variant.line,
                col: 0,
                message: format!(
                    "RequestKind::{} is priced but never issued by any RpcEndpoint \
                     method — dead costing arm",
                    variant.name
                ),
            });
        }
    }

    // 4. …and every public RPC method must name the kind it is billed as.
    for method in endpoint.items.all_fns() {
        if !method.is_pub || endpoint.scrub.is_test_line(method.line) {
            continue;
        }
        if !method.signature.contains("RpcResponse") {
            continue;
        }
        if !method.body.contains("RequestKind") {
            findings.push(Finding {
                rule: RuleId::UncostedRpc.name(),
                path: endpoint.rel.clone(),
                line: method.line,
                col: 0,
                message: format!(
                    "pub fn {} returns an RpcResponse but names no RequestKind — every RPC \
                     call must pass a RequestProfile so it pays a costing arm",
                    method.name
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// C2: lane-bypass
// ---------------------------------------------------------------------------

/// C2 covers library code outside the rpc crate itself.
fn in_lane_scope(rel: &str) -> bool {
    rel.starts_with("crates/") && rel.contains("/src/") && !rel.starts_with("crates/rpc/")
}

fn lane_bypass(files: &[SourceFile], findings: &mut Vec<Finding>) {
    let c2 = RuleId::LaneBypass.name();
    for file in files.iter().filter(|f| in_lane_scope(&f.rel)) {
        // Direct response construction: `RpcResponse {` (a struct literal).
        // Type positions (`-> RpcResponse<u64>`) have `<` or `)` after the
        // word and stay silent.
        for (line, col) in word_occurrences(&file.scrub.code, "RpcResponse") {
            let rest = file.scrub.code[line - 1][col + "RpcResponse".len()..].trim_start();
            if !rest.starts_with('{') {
                continue;
            }
            if file.scrub.is_test_line(line) {
                continue;
            }
            if let Some(supp) = file.scrub.suppression_for(c2, line) {
                supp.used.set(true);
                continue;
            }
            findings.push(Finding {
                rule: c2,
                path: file.rel.clone(),
                line,
                col: col + 1,
                message: "direct `RpcResponse { .. }` construction outside crates/rpc — a \
                          hand-built response bypasses lane costing; issue the request through \
                          an RpcEndpoint lane method"
                    .into(),
            });
        }
        // Direct cost-table access: calling service_time outside the lane
        // scheduler re-prices a request without occupying a lane slot.
        for (line, col) in word_occurrences(&file.scrub.code, "service_time") {
            if file.scrub.is_test_line(line) {
                continue;
            }
            if let Some(supp) = file.scrub.suppression_for(c2, line) {
                supp.used.set(true);
                continue;
            }
            findings.push(Finding {
                rule: c2,
                path: file.rel.clone(),
                line,
                col: col + 1,
                message: "direct cost-table access (`service_time`) outside crates/rpc — \
                          request pricing belongs to the lane scheduler; issue the request \
                          through an RpcEndpoint lane method"
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

/// The one file that may say `unsafe`: the SHA-256 kernel module, whose
/// dispatcher calls a `#[target_feature]` function after CPUID detection.
const UNSAFE_DISPATCH_RS: &str = "crates/tendermint/src/sha_ni.rs";

/// The crate whose root says `deny` instead of `forbid`, so that the dispatch
/// file's one `#[allow(unsafe_code)]` compiles.
const UNSAFE_DENY_ROOT: &str = "crates/tendermint/src/lib.rs";

/// U1 covers the code that ships: `crates/*/src` and the umbrella `src/`.
fn in_unsafe_scope(rel: &str) -> bool {
    rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/"))
}

fn is_crate_root(rel: &str) -> bool {
    let parts: Vec<&str> = rel.split('/').collect();
    matches!(
        parts.as_slice(),
        ["src", "lib.rs" | "main.rs"] | ["crates", _, "src", "lib.rs" | "main.rs"]
    )
}

/// Whether the comment block directly above 1-based `line` — past any
/// attribute lines — has a line opening with `// SAFETY:`.
fn has_safety_comment(scrub: &Scrubbed, line: usize) -> bool {
    let code = |l: usize| scrub.code[l - 1].trim();
    let mut above = line - 1;
    while above >= 1 && code(above).starts_with("#[") {
        above -= 1;
    }
    // A comment-only line scrubs to blank code.
    while above >= 1 && code(above).is_empty() {
        match scrub.comments.iter().find(|(at, _)| *at == above) {
            Some((_, text)) if text.starts_with("// SAFETY:") => return true,
            Some(_) => above -= 1,
            None => return false,
        }
    }
    false
}

fn unsafe_code(files: &[SourceFile], findings: &mut Vec<Finding>) {
    let u1 = RuleId::UnsafeCode.name();
    let mut finding = |file: &SourceFile, line: usize, col: usize, message: String| {
        findings.push(Finding {
            rule: u1,
            path: file.rel.clone(),
            line,
            col,
            message,
        });
    };
    for file in files.iter().filter(|f| in_unsafe_scope(&f.rel)) {
        let sites: Vec<(usize, usize)> = word_occurrences(&file.scrub.code, "unsafe")
            .into_iter()
            .filter(|(line, _)| !file.scrub.is_test_line(*line))
            .collect();
        for (nth, &(line, col)) in sites.iter().enumerate() {
            if file.rel != UNSAFE_DISPATCH_RS {
                finding(
                    file,
                    line,
                    col + 1,
                    format!(
                        "`unsafe` outside {UNSAFE_DISPATCH_RS}: the workspace's one unsafe block \
                         is the SHA-256 kernel dispatch; write this in safe Rust"
                    ),
                );
                continue;
            }
            if nth > 0 {
                finding(
                    file,
                    line,
                    col + 1,
                    "a second `unsafe` in the kernel dispatch file: the call into the \
                     `#[target_feature]` kernel is the only one allowed"
                        .into(),
                );
            }
            if !has_safety_comment(&file.scrub, line) {
                finding(
                    file,
                    line,
                    col + 1,
                    "`unsafe` without a `// SAFETY:` comment on the line above naming the \
                     detected CPU features"
                        .into(),
                );
            }
        }
        if is_crate_root(&file.rel) {
            let wanted = if file.rel == UNSAFE_DENY_ROOT {
                "#![deny(unsafe_code)]"
            } else {
                "#![forbid(unsafe_code)]"
            };
            if !file.scrub.code.iter().any(|code| code.trim() == wanted) {
                finding(file, 0, 0, format!("crate root does not carry `{wanted}`"));
            }
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

/// Every word of `benchmark/src/*.rs` and of the fenced examples in doc
/// comments: callers the rules never lint, read as plain text.
fn unlinted_callers(root: &Path, files: &[SourceFile]) -> io::Result<BTreeSet<String>> {
    let mut paths = Vec::new();
    collect_rs(&root.join("benchmark/src"), &mut paths)?;
    let mut texts = Vec::new();
    for path in paths {
        texts.push(fs::read_to_string(path)?);
    }
    for file in files {
        let mut fenced = false;
        for (_, comment) in &file.scrub.comments {
            let Some(doc) = (comment.strip_prefix("///")).or_else(|| comment.strip_prefix("//!"))
            else {
                continue;
            };
            if doc.trim_start().starts_with("```") {
                fenced = !fenced;
            } else if fenced {
                texts.push(doc.to_string());
            }
        }
    }
    let callers = texts.iter().flat_map(|text| words(text));
    Ok(callers.map(str::to_string).collect())
}

fn dead_knob(root: &Path, files: &[SourceFile], findings: &mut Vec<Finding>) -> io::Result<()> {
    let k1 = RuleId::DeadKnob.name();
    let code_words: Vec<BTreeSet<&str>> = (files.iter())
        .map(|f| f.scrub.code.iter().flat_map(|line| words(line)).collect())
        .collect();
    let read_outside = |fi: usize, word: &str| {
        (code_words.iter().enumerate()).any(|(oi, seen)| oi != fi && seen.contains(word))
    };
    let unlinted = unlinted_callers(root, files)?;
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
        // among them) needs a caller that is not one of its own file's unit
        // tests. Trait-impl methods carry no `pub` and stay out of scope.
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
                    "pub fn `{}` is called by nothing but its own file's unit tests — public \
                     surface no scenario, test, example or benchmark reaches is dead code",
                    func.name
                ),
            });
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// P1: panic-in-library
// ---------------------------------------------------------------------------

/// P1 covers non-test library code: crate sources outside `src/bin/` (bench
/// drivers, the umbrella tests/ and examples/ trees are exempt).
fn in_panic_scope(rel: &str) -> bool {
    rel.starts_with("crates/") && rel.contains("/src/") && !rel.contains("/src/bin/")
}

/// Unsuppressed, non-test `unwrap()` / `expect()` / `panic!` lines.
fn panic_sites(scrub: &Scrubbed) -> Vec<usize> {
    let mut lines = Vec::new();
    for (word, tail) in [("unwrap", "("), ("expect", "("), ("panic", "!")] {
        for (line, col) in word_occurrences(&scrub.code, word) {
            let code_line = &scrub.code[line - 1];
            if !code_line[col + word.len()..].starts_with(tail) {
                continue;
            }
            if scrub.is_test_line(line) {
                continue;
            }
            if let Some(supp) = scrub.suppression_for(RuleId::PanicInLibrary.name(), line) {
                supp.used.set(true);
                continue;
            }
            lines.push(line);
        }
    }
    lines.sort_unstable();
    lines
}

fn panic_in_library(root: &Path, files: &[SourceFile], findings: &mut Vec<Finding>) {
    let baseline_path = root.join(baseline::BASELINE_REL);
    let allowed = match fs::read_to_string(&baseline_path) {
        Ok(text) => match baseline::parse(&text) {
            Ok(map) => map,
            Err(err) => {
                findings.push(Finding {
                    rule: RuleId::PanicInLibrary.name(),
                    path: baseline::BASELINE_REL.into(),
                    line: 0,
                    col: 0,
                    message: format!("unreadable baseline: {err}"),
                });
                return;
            }
        },
        // No baseline checked in: everything counts as new.
        Err(_) => BTreeMap::new(),
    };

    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for file in files.iter().filter(|f| in_panic_scope(&f.rel)) {
        seen.insert(&file.rel);
        let sites = panic_sites(&file.scrub);
        let budget = allowed.get(&file.rel).copied().unwrap_or(0);
        if sites.len() > budget {
            findings.push(Finding {
                rule: RuleId::PanicInLibrary.name(),
                path: file.rel.clone(),
                line: sites.last().copied().unwrap_or(0),
                col: 0,
                message: format!(
                    "{} panic site(s) (unwrap/expect/panic!) but the baseline allows {budget}: \
                     return an error, annotate the new site with `// xcc-lint: \
                     allow(panic-in-library, reason = \"...\")`, or regenerate with --baseline",
                    sites.len()
                ),
            });
        } else if sites.len() < budget {
            findings.push(Finding {
                rule: RuleId::PanicInLibrary.name(),
                path: file.rel.clone(),
                line: 0,
                col: 0,
                message: format!(
                    "stale baseline: allows {budget} panic site(s) but only {} remain — \
                     regenerate with --baseline so the ratchet tightens",
                    sites.len()
                ),
            });
        }
    }
    for (path, budget) in &allowed {
        if !seen.contains(path.as_str()) {
            findings.push(Finding {
                rule: RuleId::PanicInLibrary.name(),
                path: baseline::BASELINE_REL.into(),
                line: 0,
                col: 0,
                message: format!(
                    "stale baseline: lists {path} ({budget} site(s)) but the file no longer \
                     exists — regenerate with --baseline"
                ),
            });
        }
    }
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

// ---------------------------------------------------------------------------
// Rule-local text helpers
// ---------------------------------------------------------------------------

/// `Prefix::Ident` references in `text`, as (position, ident).
fn path_refs(text: &str, prefix: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for pos in items::word_positions(text, prefix) {
        let after = &text[pos + prefix.len()..];
        let trimmed = after.trim_start();
        if let Some(path_rest) = trimmed.strip_prefix("::") {
            if let Some((ident, _)) = items::next_word(path_rest, 0) {
                out.push((pos, ident));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_refs_extract_variant_names() {
        let refs: Vec<String> = path_refs(
            "match k { RequestKind::Alpha => 1, RequestKind :: Beta => 2, Other::X => 3 }",
            "RequestKind",
        )
        .into_iter()
        .map(|(_, n)| n)
        .collect();
        assert_eq!(refs, ["Alpha", "Beta"]);
    }

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
