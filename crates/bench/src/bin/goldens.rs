//! Regenerates — and, with `--check`, verifies — the ten golden fixture
//! sets of [`xcc_bench::goldens`]. Run it from the workspace root.
//!
//! * `--set <name>` prints one set's outcomes. Regenerate a fixture (and
//!   carefully review the diff!) with:
//!
//!   ```text
//!   cargo run --release -p xcc-bench --bin goldens -- --set default_strategy \
//!       > tests/fixtures/default_strategy_goldens.json
//!   ```
//!
//!   An unknown name exits 2 with the valid ones, so a typo can never print
//!   the wrong set into a redirect.
//! * `--check` writes nothing: it replays every set once, compares the
//!   outcomes with `tests/fixtures/` and the work counters with
//!   `BENCH_golden.json`, prints the informational wall-clock, peak RSS and
//!   SHA-256 backend, and exits 2 on any drift. CI runs it.
//! * `--bench` replays every set once and rewrites `BENCH_golden.json`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::io::Write;

use xcc_bench::goldens::{self, BENCH_FILE};

/// `--bench` mode: writes a fresh `BENCH_golden.json` at the workspace root,
/// so the replay cost trajectory stays visible across PRs. The file is
/// opened before the replay, so a path that cannot be written fails at
/// once, not after it.
fn bench() -> Result<(), String> {
    let unwritable = |err: std::io::Error| format!("cannot write {BENCH_FILE}: {err}");
    let mut file = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(BENCH_FILE)
        .map_err(unwritable)?;
    let json = goldens::bench()?;
    file.set_len(0)
        .and_then(|()| file.write_all(format!("{json}\n").as_bytes()))
        .map_err(unwritable)?;
    println!("{json}");
    eprintln!("bench: wrote {BENCH_FILE}");
    Ok(())
}

/// Exits 1 with `error` when a mode could not finish.
fn exit_on_error(result: Result<(), String>) {
    if let Err(error) = result {
        eprintln!("goldens: {error}");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    // The whole argument list must match one mode exactly: a misspelt flag
    // is a usage error, never a silent fall-through to another mode.
    match args.as_slice() {
        ["--bench"] => exit_on_error(bench()),
        ["--check"] => {
            let check = goldens::check(".");
            for line in check.informational() {
                println!("{line}");
            }
            for drift in &check.drifts {
                eprintln!("DRIFT: {}: {}", drift.set, drift.detail);
            }
            if !check.drifts.is_empty() {
                eprintln!(
                    "{} drift(s): regenerate with `--set` / `--bench` and review the diff",
                    check.drifts.len()
                );
                std::process::exit(2);
            }
            println!("all golden fixture sets and their {BENCH_FILE} work counters match");
        }
        other => {
            let sets = goldens::fixture_sets();
            let wanted = match other {
                ["--set", name] => sets.into_iter().find(|(set, _)| set == name),
                _ => None,
            };
            let Some((set, specs)) = wanted else {
                eprintln!("usage: goldens --set <name> | --check | --bench");
                eprintln!("fixture sets:");
                for (set, _) in goldens::fixture_sets() {
                    eprintln!("  {set:<18} {}", goldens::fixture_path(set));
                }
                std::process::exit(2);
            };
            exit_on_error(
                specs
                    .and_then(|specs| goldens::outcomes(set, &specs))
                    .and_then(|outcomes| {
                        serde_json::to_string_pretty(&outcomes)
                            .map_err(|err| format!("cannot serialize the outcomes: {err}"))
                    })
                    .map(|json| println!("{json}")),
            );
        }
    }
}
