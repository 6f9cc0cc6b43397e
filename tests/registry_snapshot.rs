//! Pins what the registry *is*, without running a simulation: every
//! scenario's expanded grid (`fixtures/registry_points.txt`) and its table as
//! rendered from synthetic outcomes (`fixtures/registry_renders.txt`). Rows
//! are pinned with ASCII spaces stripped, so column widths may change but
//! cell contents, metric keys and notes may not; alignment is checked
//! separately, as a property.
//!
//! Each run writes the regenerated text of every registered scenario to the
//! test's scratch directory; a failing assertion names the file to copy (or
//! take the new scenario's block from) once the difference is intended.
//!
//! The last test holds README.md's and PAPER.md's scenario tables to the
//! registry, both ways.

use std::fs;
use std::path::Path;

use ibc_perf_repro::framework::outcome::keys;
use ibc_perf_repro::framework::registry::{self, ScenarioEntry};
use ibc_perf_repro::framework::sweep::SweepMode;
use ibc_perf_repro::framework::ScenarioOutcome;

/// Every outcome key a renderer reads. The position in this list feeds the
/// synthetic value, so append rather than reorder.
const KEYS: [&str; 28] = [
    keys::THROUGHPUT_TFPS,
    keys::TENDERMINT_THROUGHPUT_TFPS,
    keys::AVG_BLOCK_INTERVAL_SECS,
    keys::REQUESTS_MADE,
    keys::SUBMITTED,
    keys::COMMITTED,
    keys::COMPLETED,
    keys::PARTIAL,
    keys::INITIATED,
    keys::NOT_COMMITTED,
    keys::REDUNDANT_PACKET_ERRORS,
    keys::EVENT_COLLECTION_FAILURES,
    keys::PACKETS_CLEARED,
    keys::BROADCAST_FAILURES,
    keys::DOUBLE_SUBMITTED,
    keys::STRANDED_PACKETS,
    keys::COMPLETION_LATENCY_SECS,
    keys::TRANSFER_PHASE_SECS,
    keys::RECV_PHASE_SECS,
    keys::ACK_PHASE_SECS,
    keys::TRANSFER_PULL_SECS,
    keys::RECV_PULL_SECS,
    keys::DATA_PULL_SHARE,
    keys::FORWARDED,
    keys::RECOVERY_SECS,
    keys::HOP1_LATENCY_SECS,
    keys::HOP2_LATENCY_SECS,
    keys::FORWARD_LAG_SECS,
];

/// Keys a real run may omit: set on odd points only, so both the value and
/// the `-` placeholder of every optional cell are pinned.
const OPTIONAL: [&str; 4] = [
    keys::RECOVERY_SECS,
    keys::HOP1_LATENCY_SECS,
    keys::HOP2_LATENCY_SECS,
    keys::FORWARD_LAG_SECS,
];

/// One outcome per quick-grid point, every metric a deterministic function
/// of (point index, key index), decreasing along [`KEYS`] so that counts stay
/// below `requests_made` and the percent cells below 100.
fn synthetic_outcomes(entry: &ScenarioEntry) -> Vec<ScenarioOutcome> {
    let points = entry.grid(SweepMode::Quick).points();
    let outcomes = points.into_iter().enumerate().map(|(i, spec)| {
        let value = |j: usize| ((i + 1) * 97 + (64 - j) * 13) as f64 + 0.375;
        let mut outcome = ScenarioOutcome::new(spec);
        for (j, key) in KEYS.iter().enumerate() {
            if i % 2 == 1 || !OPTIONAL.contains(key) {
                outcome.set(key, value(j));
            }
        }
        for channel in 0..outcome.channel_count() {
            let key = keys::on_channel(keys::COMPLETED, channel);
            outcome.set(&key, value(KEYS.len() + channel));
        }
        outcome
    });
    outcomes.collect()
}

fn fnv1a_64(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn points_block(entry: &ScenarioEntry) -> String {
    let mut out = format!("== {} ==\n", entry.name);
    for (label, mode) in [("quick", SweepMode::Quick), ("full", SweepMode::Full)] {
        let points = entry.grid(mode).points();
        let hash = fnv1a_64(points.iter().flat_map(|p| p.to_json().into_bytes()));
        let (first, last) = (&points[0].name, &points[points.len() - 1].name);
        let count = points.len();
        out.push_str(&format!("{label} {count} {first} {last} {hash:016x}\n"));
    }
    out
}

fn render_block(entry: &ScenarioEntry) -> String {
    let report = entry.render(&synthetic_outcomes(entry));
    let mut out = format!("== {} ==\nname {}\n", entry.name, report.name);
    for (key, value) in &report.metrics {
        out.push_str(&format!("metric {key} {value:?}\n"));
    }
    for note in &report.notes {
        out.push_str(&format!("note {note}\n"));
    }
    for row in &report.rows {
        out.push_str(&format!("row {}\n", row.replace(' ', "")));
    }
    out
}

/// Regenerates every registered scenario's block and compares the whole
/// text: a drifted block, a scenario registered without a pinned block or a
/// pinned name the registry lost shows up as the first differing line.
fn check(file: &str, block: fn(&ScenarioEntry) -> String) {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let pinned = fs::read_to_string(fixtures.join(file)).unwrap();
    let actual: String = registry::entries().iter().map(block).collect();
    let regenerated = Path::new(env!("CARGO_TARGET_TMPDIR")).join(file);
    fs::write(&regenerated, &actual).unwrap();
    let drift = actual.lines().zip(pinned.lines()).find(|(a, p)| a != p);
    assert_eq!(drift, None, "see {}", regenerated.display());
    assert_eq!(actual.len(), pinned.len(), "see {}", regenerated.display());
}

#[test]
fn grids_expand_to_the_pinned_points() {
    check("registry_points.txt", points_block);
}

#[test]
fn renders_produce_the_pinned_tables() {
    check("registry_renders.txt", render_block);
}

#[test]
fn table_rows_align_with_their_headers() {
    let bars = |row: &String| -> Vec<usize> {
        let cells = row.chars().enumerate();
        cells.filter(|(_, c)| *c == '|').map(|(at, _)| at).collect()
    };
    let misaligned = registry::entries().iter().filter(|entry| {
        let report = entry.render(&synthetic_outcomes(entry));
        let mut table = report.rows.iter().filter(|r| r.contains(" | ")).map(bars);
        let header = table.next();
        table.any(|row| Some(row) != header)
    });
    let misaligned: Vec<&str> = misaligned.map(|entry| entry.name).collect();
    assert_eq!(misaligned, Vec::<&str>::new());
}

/// The first cell of every Markdown table row that is one backticked
/// `[a-z0-9_]+` name: the rows of the scenario tables.
fn doc_row_names(text: &str) -> impl Iterator<Item = &str> {
    text.lines().filter_map(|line| {
        let cell = line.trim_start().strip_prefix('|')?.split('|').next()?;
        let name = cell.trim().strip_prefix('`')?.strip_suffix('`')?;
        let scenario_like =
            (name.bytes()).all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_');
        (scenario_like && !name.is_empty()).then_some(name)
    })
}

#[test]
fn the_scenario_docs_and_the_registry_name_the_same_scenarios() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let docs = ["README.md", "PAPER.md"].map(|doc| fs::read_to_string(root.join(doc)).unwrap());
    let docs = docs.join("\n");
    let registered: Vec<&str> = registry::entries().iter().map(|e| e.name).collect();
    let unknown: Vec<&str> = doc_row_names(&docs)
        .filter(|name| !registered.contains(name))
        .collect();
    assert_eq!(
        unknown,
        Vec::<&str>::new(),
        "table rows naming no registered scenario"
    );
    let rows: Vec<&str> = doc_row_names(&docs).collect();
    let undocumented: Vec<&str> = (registered.into_iter())
        .filter(|name| !rows.contains(name))
        .collect();
    assert_eq!(
        undocumented,
        Vec::<&str>::new(),
        "scenarios with no row in README.md's or PAPER.md's scenario tables"
    );
    assert_eq!(
        doc_row_names("| `fig6` | x |\n| plain | y |\n| `crates/sim` | z |").collect::<Vec<_>>(),
        ["fig6"]
    );
}
