//! # xcc-lint — the dead-surface check
//!
//! rustc, clippy, Cargo's `[lints]` tables and `cargo test` hold the
//! workspace's replay guarantees (docs/DETERMINISM.md, "Static
//! enforcement"). One check has no compiler analogue: public surface that
//! nothing but tests reaches. [`dead_surface`] finds it, and the root
//! package's `tests/workspace_rules.rs` runs it under `cargo test` with its
//! named allowlist.
//!
//! The check is dependency-free (no `rustc` internals, no `syn`; the
//! workspace builds offline): a comment- and string-aware scrubbing
//! scanner ([`lexer::Scrubbed`]) and a shallow [workspace item
//! graph](items) parsed from the scrubbed token stream.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod items;
pub mod lexer;

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::items::FileItems;
use crate::lexer::{word_occurrences, Scrubbed};

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

/// One piece of public surface that nothing but tests reaches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadItem {
    /// `Type::method`, a free function's name, or `Config.field` for a knob.
    pub name: String,
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// 1-based line of the declaration.
    pub line: usize,
}

impl fmt::Display for DeadItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: `{}`", self.path, self.line, self.name)
    }
}

/// One scanned Rust source file.
struct SourceFile {
    rel: String,
    scrub: Scrubbed,
    items: FileItems,
}

/// The dead public surface of the workspace at `root`, in file order:
///
/// * every pub field of `DeploymentConfig`, `RelayerStrategy` and
///   `WorkloadConfig` that no other scanned file reads — config plumbed
///   nowhere no-ops in every sweep;
/// * every non-test `pub fn` of `crates/{sim,tendermint,chain,ibc,rpc,
///   relayer,core}/src` (`SweepGrid`'s axis methods among them) that is
///   named, as a whole word, nowhere but its own declaration and tests.
///   A caller is another scanned file's non-test lines, the defining file's
///   non-test lines, or `benchmark/src/*.rs` (read as text). The umbrella
///   `tests/`, `#[cfg(test)]` code and rustdoc examples never count, and
///   in the defining file neither does a field of the same name: a
///   `.name` not followed by `(`, or a `name:` declaring or initialising
///   it. Trait-impl methods carry no `pub` and are out of scope.
///
/// The scan walks `crates/*/src`, `src/`, `tests/` and `examples/`;
/// `vendor/` and `target/` are never read.
pub fn dead_surface(root: &Path) -> io::Result<Vec<DeadItem>> {
    let files = scan_workspace(root)?;
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
    let mut dead = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        let mut flag = |name: String, line: usize| {
            dead.push(DeadItem {
                name,
                path: file.rel.clone(),
                line,
            });
        };
        for strukt in &file.items.structs {
            if !KNOB_TYPES.contains(&strukt.name.as_str()) {
                continue;
            }
            for field in strukt.fields.iter().filter(|f| f.is_pub) {
                if !read_outside(fi, &field.name) {
                    flag(format!("{}.{}", strukt.name, field.name), field.line);
                }
            }
        }
        if !SURFACE_CRATES.contains(&file.items.crate_name.as_str()) {
            continue;
        }
        for (owner, func) in file.items.all_fns() {
            if !func.is_pub || file.scrub.is_test_line(func.line) {
                continue;
            }
            // In its own file a use is a non-test line that names the
            // function other than to declare it or a field of its name.
            let used_here =
                (word_occurrences(&file.scrub.code, &func.name).iter()).any(|&(line, col)| {
                    let code = &file.scrub.code[line - 1];
                    let (before, after) = (code[..col].trim_end(), &code[col + func.name.len()..]);
                    !file.scrub.is_test_line(line)
                        && !before.ends_with("fn")
                        && !names_a_field(before, after.trim_start())
                });
            if used_here || read_outside(fi, &func.name) || unlinted.contains(&func.name) {
                continue;
            }
            let name = match owner {
                Some(owner) => format!("{owner}::{}", func.name),
                None => func.name.clone(),
            };
            flag(name, func.line);
        }
    }
    Ok(dead)
}

/// Whether a name between `before` and `after` is a field: an access
/// (`.name` not followed by `(`) or a declaration or initialiser (`name:`,
/// not the path separator `name::`).
fn names_a_field(before: &str, after: &str) -> bool {
    let access = before.ends_with('.') && !after.starts_with('(');
    access || (after.starts_with(':') && !after.starts_with("::"))
}

fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|word| !word.is_empty())
}

/// Every word of `benchmark/src/*.rs`: callers the scan does not parse,
/// read as plain text.
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

/// Parses the Rust files of `crates/*/src` (recursively) and of the
/// umbrella `src/`, `tests/` and `examples/`, sorted by path.
fn scan_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in fs::read_dir(&crates)? {
            collect_rs(&entry?.path().join("src"), &mut paths)?;
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
        let scrub = Scrubbed::scan(&fs::read_to_string(&path)?);
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
