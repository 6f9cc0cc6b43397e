//! Regenerates the paper's tables and figures from the scenario registry.
//!
//! The `figure` binary runs any registered scenario by name through
//! [`run_and_print`]. Sweep behaviour is controlled by the environment
//! variables that [`xcc_framework::sweep`] owns:
//!
//! * `XCC_FULL_SWEEP` — use the paper's full parameter ranges;
//! * `XCC_SWEEP_THREADS` — worker-pool size (default: all cores);
//! * `XCC_OUTPUT` — `text` (default), `json` or `csv`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod goldens;
pub mod timing;

use std::io::{self, Write};

use xcc_framework::outcome;
use xcc_framework::registry::{self, ScenarioEntry};
use xcc_framework::sweep::{OutputFormat, SweepMode};

/// Runs a registered scenario with environment-configured mode/format and
/// prints the result to stdout.
pub fn run_and_print(entry: &ScenarioEntry) {
    let mode = SweepMode::from_env();
    let outcomes = entry.run(mode);
    match OutputFormat::from_env() {
        OutputFormat::Text => print!("{}", entry.render(&outcomes)),
        #[expect(
            clippy::expect_used,
            reason = "serialisation fails only on a bug in the outcome structure itself"
        )]
        OutputFormat::Json => {
            println!(
                "{}",
                serde_json::to_string_pretty(&outcomes).expect("outcomes serialize")
            )
        }
        OutputFormat::Csv => print!("{}", outcome::csv_table(&outcomes)),
    }
}

/// Writes the registry to `out`: one `name title` line per scenario.
pub fn print_scenario_list(mut out: impl Write) -> io::Result<()> {
    for entry in registry::entries() {
        writeln!(out, "{:<26} {}", entry.name, entry.title)?;
    }
    Ok(())
}
