//! Workspace rules no compiler lint states, checked under `cargo test`:
//!
//! * every public item of the simulation crates and every config knob has a
//!   caller that is not a test (`xcc_lint::dead_surface`), up to a named
//!   allowlist whose entries must still be dead;
//! * the six simulation crates' `clippy.toml` copies are identical and
//!   repeat every line of the root file. Clippy reads only the nearest
//!   `clippy.toml` and does not merge, so a copy that drifts silently drops
//!   a ban;
//! * every member manifest inherits the workspace's lint table, except the
//!   two that repeat it with `unsafe_code` at `deny`: `xcc-tendermint` (its
//!   SHA-256 kernel call) and the root package (the counting allocator of
//!   `tests/alloc_budget.rs`).

use std::fs;
use std::path::{Path, PathBuf};

/// Public surface kept on purpose although only tests call it, with why.
const DEAD_BY_DESIGN: [(&str, &str); 1] = [(
    "RawTx::hash_if_computed",
    "the oracle of the hash-memo tests raw_tx_hash_memo_is_carried_by_clones_and_is_not_state \
     and chain's hash_is_stable_and_needs_one_encoding",
)];

/// The crates whose `clippy.toml` adds the simulated-path bans.
const SIMULATION_CRATES: [&str; 6] = ["sim", "tendermint", "chain", "ibc", "rpc", "relayer"];

/// The members whose manifest repeats the workspace lint table with
/// `unsafe_code = "deny"` instead of inheriting it.
const DENY_UNSAFE: [&str; 2] = ["", "crates/tendermint"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The setting lines of a TOML file: neither blank nor a comment.
fn settings(text: &str) -> impl Iterator<Item = &str> {
    (text.lines().map(str::trim)).filter(|line| !line.is_empty() && !line.starts_with('#'))
}

/// The setting lines of one `[header]` table of a manifest.
fn table<'a>(manifest: &'a str, header: &str) -> Vec<&'a str> {
    let mut lines = settings(manifest).skip_while(|line| *line != header);
    lines.next();
    lines.take_while(|line| !line.starts_with('[')).collect()
}

/// Every workspace member directory (`crates/*`, `vendor/*`), relative.
fn members() -> Vec<String> {
    let mut members = Vec::new();
    for parent in ["crates", "vendor"] {
        for entry in fs::read_dir(root().join(parent)).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            members.push(format!("{parent}/{name}"));
        }
    }
    members.sort();
    members
}

#[test]
fn every_public_item_has_a_caller_that_is_not_a_test() {
    let dead = xcc_lint::dead_surface(root()).unwrap();
    let allowed = |name: &str| DEAD_BY_DESIGN.iter().any(|(entry, _)| *entry == name);
    let unexpected: Vec<String> = (dead.iter())
        .filter(|item| !allowed(&item.name))
        .map(ToString::to_string)
        .collect();
    assert!(
        unexpected.is_empty(),
        "public surface that nothing but tests reaches: delete it, call it, or add it to \
         DEAD_BY_DESIGN with a reason\n{}",
        unexpected.join("\n")
    );
    let stale: Vec<&str> = (DEAD_BY_DESIGN.iter().map(|(entry, _)| *entry))
        .filter(|entry| !dead.iter().any(|item| item.name == *entry))
        .collect();
    assert_eq!(
        stale,
        Vec::<&str>::new(),
        "allowlist entries with a caller now"
    );
}

#[test]
fn every_simulation_crate_clippy_toml_is_one_copy_that_keeps_every_root_line() {
    let root_file = read(&root().join("clippy.toml"));
    let copy = read(&root().join("crates/sim/clippy.toml"));
    for krate in SIMULATION_CRATES {
        let path: PathBuf = root().join(format!("crates/{krate}/clippy.toml"));
        let same = read(&path) == copy;
        assert!(same, "{} differs from crates/sim's", path.display());
    }
    let kept: Vec<&str> = settings(&copy).collect();
    let dropped: Vec<&str> = settings(&root_file)
        .filter(|line| !kept.contains(line))
        .collect();
    assert_eq!(
        dropped,
        Vec::<&str>::new(),
        "lines of the root clippy.toml the crate copies lack"
    );
}

#[test]
fn every_member_manifest_carries_the_workspace_lint_levels() {
    let workspace = read(&root().join("Cargo.toml"));
    assert_eq!(
        table(&workspace, "[workspace.lints.rust]"),
        ["unsafe_code = \"forbid\""]
    );
    let clippy = table(&workspace, "[workspace.lints.clippy]");
    assert!(!clippy.is_empty(), "the workspace clippy lint table");
    for member in std::iter::once(String::new()).chain(members()) {
        let manifest = read(&root().join(&member).join("Cargo.toml"));
        if DENY_UNSAFE.contains(&member.as_str()) {
            let rust = table(&manifest, "[lints.rust]");
            assert_eq!(rust, ["unsafe_code = \"deny\""], "{member:?}");
            assert_eq!(table(&manifest, "[lints.clippy]"), clippy, "{member:?}");
        } else {
            let lints = table(&manifest, "[lints]");
            assert_eq!(lints, ["workspace = true"], "{member}/Cargo.toml");
        }
    }
}
