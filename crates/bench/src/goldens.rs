//! The golden oracle: ten fixture sets whose exact outcomes are pinned in
//! `tests/fixtures/<set>_goldens.json` and whose exact work counters are
//! pinned in `BENCH_golden.json`. Five are hand-built spec lists; the other
//! five are the grids of the registered scenarios they are named after.
//! [`check`] replays every set once and reports each drift by set name;
//! `goldens --check` and `tests/goldens.rs` both call it, so `cargo test`
//! checks what CI checks.

use std::path::Path;

use serde::{Deserialize, Serialize};
use xcc_framework::registry;
use xcc_framework::scenarios;
use xcc_framework::spec::ExperimentSpec;
use xcc_framework::work::sha256_backend;
use xcc_framework::{ScenarioOutcome, SweepMode, WorkProfile};
use xcc_relayer::strategy::{ChannelPolicy, RelayerStrategy, SequenceTracking};

use crate::timing::Stopwatch;

/// The committed work-counter file, relative to the workspace root.
pub const BENCH_FILE: &str = "BENCH_golden.json";

/// The spec set behind the default-strategy fixture: one small point per
/// paper figure the relayer refactor must preserve (Figs. 8, 9, 11 and 12).
fn default_strategy_specs() -> Vec<ExperimentSpec> {
    let throughput = |fig: &str, relayers, rtt, rate| {
        ExperimentSpec::relayer_throughput()
            .named(format!("golden/{fig}/rate={rate}/rtt={rtt}"))
            .relayers(relayers)
            .rtt_ms(rtt)
            .input_rate(rate)
            .measurement_blocks(5)
            .seed(42)
    };
    vec![
        throughput("fig8", 1, 0, 20),
        throughput("fig8", 1, 200, 60),
        throughput("fig9", 2, 200, 20),
        throughput("fig11", 2, 200, 60),
        ExperimentSpec::latency()
            .named("golden/fig12/transfers=400")
            .transfers(400)
            .submission_blocks(1)
            .rtt_ms(200)
            .seed(42),
    ]
}

/// The spec set behind the multi-channel fixture: small two-channel runs
/// with the default strategy, pinning the per-channel bookkeeping.
fn multi_channel_specs() -> Vec<ExperimentSpec> {
    let two_channels = |rtt, rate, suffix: &str| {
        ExperimentSpec::relayer_throughput()
            .named(format!(
                "golden/multi_channel/rate={rate}/channels=2/rtt={rtt}{suffix}"
            ))
            .relayers(1)
            .channels(2)
            .rtt_ms(rtt)
            .input_rate(rate)
            .measurement_blocks(5)
            .seed(42)
    };
    vec![
        two_channels(0, 20, ""),
        two_channels(200, 40, "/weighted").channel_weights([3, 1]),
    ]
}

/// The spec set behind the sequence-race fixture: the §V straddled-commit
/// repro under both sequence-tracking arms, pinning the race's cost
/// (Resync) and the fixed behaviour (MempoolAware, zero broadcast
/// failures).
fn sequence_race_specs() -> Vec<ExperimentSpec> {
    let repro = ExperimentSpec::relayer_throughput()
        .named("golden/sequence_race/rate=40/rtt=0")
        .relayers(1)
        .rtt_ms(0)
        .input_rate(40)
        .measurement_blocks(6)
        .seed(42);
    vec![
        repro
            .clone()
            .named("golden/sequence_race/rate=40/rtt=0/seqtrack=resync")
            .sequence_tracking(SequenceTracking::Resync),
        repro
            .named("golden/sequence_race/rate=40/rtt=0/seqtrack=mempool")
            .sequence_tracking(SequenceTracking::MempoolAware),
    ]
}

/// The spec set behind the dedicated-scaling fixture: the same 4-channel,
/// one-`relayer_count` deployment under both channel policies. The
/// shared-process arm pins the per-process throughput cap (the flat
/// `multi_channel_scaling` curve), the dedicated arm pins the fleet of one
/// relayer process per channel breaking it by ≥2× — the acceptance bar
/// `tests/dedicated_fleet.rs` asserts against this fixture.
fn dedicated_scaling_specs() -> Vec<ExperimentSpec> {
    let base = ExperimentSpec::relayer_throughput()
        .relayers(1)
        .channels(4)
        .rtt_ms(0)
        .input_rate(120)
        .measurement_blocks(6)
        .seed(42);
    vec![
        base.clone()
            .named("golden/dedicated_scaling/rate=120/channels=4/policy=fair-share"),
        base.named("golden/dedicated_scaling/rate=120/channels=4/policy=dedicated")
            .channel_policy(ChannelPolicy::Dedicated),
    ]
}

/// The spec set behind the strategy-arms fixture: one small run per
/// non-default strategy arm the other sets leave to property tests — the
/// oracle for refactors of the relayer's stage code. The two fetcher arms
/// drain a 400-transfer burst (chunked pulls on both paths); every other arm
/// relays a 5-block stream — 20 rps, except the adaptive arm's 12 rps, which
/// leaves less than a full transaction pending every other block — all at
/// 200 ms RTT. The lossy arm's 16 KiB frame limit fails every loaded block's
/// event collection, so the clear scan does the relaying.
fn strategy_arms_specs() -> Vec<ExperimentSpec> {
    let burst = |arm: &str, strategy| {
        ExperimentSpec::latency()
            .named(format!("golden/strategy_arms/{arm}"))
            .transfers(400)
            .submission_blocks(1)
            .rtt_ms(200)
            .seed(42)
            .strategy(strategy)
    };
    let priority = RelayerStrategy::with_channel_policy(ChannelPolicy::Priority);
    let adaptive = RelayerStrategy::adaptive_submission(3);
    let lossy = RelayerStrategy::default()
        .frame_limit(16 << 10)
        .packet_clearing(2);
    // (arm, input rate, relayers, channels, strategy)
    let streams = [
        ("adaptive", 12, 1, 1, adaptive),
        ("partitioned", 20, 2, 1, RelayerStrategy::coordinated()),
        ("priority", 20, 1, 2, priority),
        ("lossy", 20, 1, 1, lossy),
    ];
    let mut specs = vec![
        burst("batched", RelayerStrategy::batched_pulls()),
        burst("parallel", RelayerStrategy::parallel_fetch()),
    ];
    specs.extend(streams.map(|(arm, rate, relayers, channels, strategy)| {
        ExperimentSpec::relayer_throughput()
            .named(format!("golden/strategy_arms/{arm}"))
            .relayers(relayers)
            .channels(channels)
            .rtt_ms(200)
            .input_rate(rate)
            .measurement_blocks(5)
            .seed(42)
            .strategy(strategy)
    }));
    specs
}

/// The spec set behind a fault- or topology-scenario fixture: the
/// registered scenario's grid (no axis of these five is longer than three
/// values, so quick mode runs all of it), each point renamed under the
/// `golden/` prefix (the sweep already suffixes every point with
/// `/faults=<label>` or `/topo=<label>`). Pulling the grid straight from the
/// registry keeps the fixture in lockstep with the scenario definition —
/// editing the scenario's grid is a reviewed fixture regeneration, never a
/// silent drift.
fn registry_scenario_specs(scenario: &str) -> Result<Vec<ExperimentSpec>, String> {
    let entry =
        registry::get(scenario).ok_or_else(|| format!("no registered scenario `{scenario}`"))?;
    Ok(entry
        .grid(SweepMode::Quick)
        .points()
        .into_iter()
        .map(|spec| {
            let name = format!("golden/{}", spec.name);
            spec.named(name)
        })
        .collect())
}

/// Every fixture set by name, in `BENCH_golden.json` row order, with its
/// specs — or why they could not be built. The registry-backed sets are
/// named after their scenario.
pub fn fixture_sets() -> Vec<(&'static str, Result<Vec<ExperimentSpec>, String>)> {
    let mut sets = vec![
        ("default_strategy", Ok(default_strategy_specs())),
        ("multi_channel", Ok(multi_channel_specs())),
        ("sequence_race", Ok(sequence_race_specs())),
        ("dedicated_scaling", Ok(dedicated_scaling_specs())),
    ];
    for scenario in [
        "relayer_crash",
        "chain_halt",
        "client_expiry",
        "hub_spoke_scaling",
        "mesh_contention",
    ] {
        sets.push((scenario, registry_scenario_specs(scenario)));
    }
    sets.push(("strategy_arms", Ok(strategy_arms_specs())));
    sets
}

/// Where the named set's fixture lives, relative to the workspace root.
pub fn fixture_path(set: &str) -> String {
    format!("tests/fixtures/{set}_goldens.json")
}

/// One fixture set's row in `BENCH_golden.json`: how long the host took to
/// replay it, and the exact xcc-prof work counters the replay performed.
///
/// `wall_clock_secs`/`events_per_sec` are human-facing and machine-dependent;
/// `outcomes`/`completed_transfers`/`work` are deterministic and exact-match
/// checked by [`check`] (see docs/PERFORMANCE.md).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct BenchSet {
    fixture: String,
    outcomes: u64,
    completed_transfers: u64,
    wall_clock_secs: f64,
    events_per_sec: f64,
    work: WorkProfile,
}

/// The whole-replay totals: the sums over [`BenchSet`] rows, plus the
/// process's peak RSS once every set has run (informational, like the
/// wall-clock; `null` where `/proc` is absent) and the SHA-256 backend the
/// host selected, which is what a reader needs to compare two hosts'
/// wall-clock rows (informational too).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct BenchTotal {
    wall_clock_secs: f64,
    peak_rss_mb: Option<f64>,
    sha256_backend: String,
    completed_transfers: u64,
    events_per_sec: f64,
    work: WorkProfile,
}

/// The `BENCH_golden.json` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct BenchReport {
    harness: String,
    event_unit: String,
    sets: Vec<BenchSet>,
    total: BenchTotal,
}

/// Replays one set's specs once: the outcomes, and the set's
/// `BENCH_golden.json` row. "Events" are fully completed transfers — the
/// unit every golden scenario produces and the denominator the paper's
/// throughput figures use.
fn replay(set: &str, specs: &[ExperimentSpec]) -> Result<(Vec<ScenarioOutcome>, BenchSet), String> {
    let watch = Stopwatch::start();
    let mut work = WorkProfile::default();
    let mut outcomes = Vec::new();
    for spec in specs {
        let run = scenarios::try_run_raw(spec)
            .map_err(|err| format!("{}: setup failed: {err}", spec.name))?;
        work = work.merged(&run.work);
        outcomes.push(scenarios::outcome_from(spec, &run));
    }
    let secs = watch.elapsed_secs();
    let completed = outcomes.iter().map(ScenarioOutcome::completed).sum();
    let row = BenchSet {
        fixture: fixture_path(set),
        outcomes: outcomes.len() as u64,
        completed_transfers: completed,
        wall_clock_secs: round3(secs),
        events_per_sec: round1(rate(completed, secs)),
        work,
    };
    Ok((outcomes, row))
}

/// Replays one set's specs once and returns the outcomes its fixture pins.
pub fn outcomes(set: &str, specs: &[ExperimentSpec]) -> Result<Vec<ScenarioOutcome>, String> {
    replay(set, specs).map(|(outcomes, _)| outcomes)
}

/// Sums replayed rows into the `BENCH_golden.json` document.
fn report(sets: Vec<BenchSet>) -> BenchReport {
    let secs: f64 = sets.iter().map(|s| s.wall_clock_secs).sum();
    let completed = sets.iter().map(|s| s.completed_transfers).sum();
    let work = sets
        .iter()
        .fold(WorkProfile::default(), |sum, s| sum.merged(&s.work));
    BenchReport {
        harness: "goldens --bench".to_string(),
        event_unit: "completed_transfers".to_string(),
        total: BenchTotal {
            wall_clock_secs: round3(secs),
            peak_rss_mb: peak_rss_mb(),
            sha256_backend: sha256_backend().to_string(),
            completed_transfers: completed,
            events_per_sec: round1(rate(completed, secs)),
            work,
        },
        sets,
    }
}

/// Replays every set once and returns the text of a fresh
/// `BENCH_golden.json`.
pub fn bench() -> Result<String, String> {
    let rows = fixture_sets()
        .into_iter()
        .map(|(set, specs)| Ok(replay(set, &specs?)?.1))
        .collect::<Result<_, String>>()?;
    serde_json::to_string_pretty(&report(rows))
        .map_err(|err| format!("cannot serialize the bench report: {err}"))
}

/// One way the code and the pinned files disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Drift {
    /// The fixture set, `total` for the totals row, or [`BENCH_FILE`] when
    /// the file cannot be read.
    pub set: String,
    /// What differs.
    pub detail: String,
}

/// What one [`check`] found.
#[derive(Debug)]
pub struct Check {
    /// Every drift, in set order; empty when the code reproduces both the
    /// fixtures and the work counters.
    pub drifts: Vec<Drift>,
    fresh: BenchReport,
    pinned: Option<BenchReport>,
}

impl Check {
    /// The replay's wall-clock, peak RSS and SHA-256 backend beside the
    /// pinned ones: lines to print, never a drift.
    pub fn informational(&self) -> Vec<String> {
        let Some(pinned) = &self.pinned else {
            return Vec::new();
        };
        let (fresh, pinned) = (&self.fresh.total, &pinned.total);
        vec![
            format!(
                "wall-clock (informational): {:.3}s now vs {:.3}s pinned",
                fresh.wall_clock_secs, pinned.wall_clock_secs
            ),
            format!(
                "peak RSS (informational): {:?} MB now vs {:?} MB pinned",
                fresh.peak_rss_mb, pinned.peak_rss_mb
            ),
            format!(
                "SHA-256 backend (informational): {:?} now vs {:?} pinned",
                fresh.sha256_backend, pinned.sha256_backend
            ),
        ]
    }
}

/// Replays every fixture set once and compares it with the files under
/// `root`: the outcomes (spec and metrics) with
/// `tests/fixtures/<set>_goldens.json`, and the outcome count, completed
/// transfers and work counters with the set's row and the totals in
/// `BENCH_golden.json`. Wall-clock and RSS figures are never compared.
pub fn check(root: impl AsRef<Path>) -> Check {
    let root = root.as_ref();
    let mut drifts = Vec::new();
    let mut drift = |set: &str, detail| {
        drifts.push(Drift {
            set: set.into(),
            detail,
        })
    };
    let pinned: Option<BenchReport> = read_json(&root.join(BENCH_FILE))
        .map_err(|err| drift(BENCH_FILE, err))
        .ok();
    let mut rows = Vec::new();
    for (set, specs) in fixture_sets() {
        let (outcomes, row) = match specs.and_then(|specs| replay(set, &specs)) {
            Ok(replayed) => replayed,
            Err(err) => {
                drift(set, err);
                continue;
            }
        };
        let path = fixture_path(set);
        match read_json::<Vec<ScenarioOutcome>>(&root.join(&path)) {
            Ok(fixture) if fixture == outcomes => {}
            Ok(fixture) => {
                let diverged: Vec<&str> = (outcomes.iter().zip(&fixture))
                    .filter(|(fresh, pinned)| fresh != pinned)
                    .map(|(_, pinned)| pinned.spec.name.as_str())
                    .collect();
                let counts = (fixture.len(), outcomes.len());
                drift(
                    set,
                    format!(
                        "{path}: {diverged:?} diverged; (pinned, replayed) outcomes {counts:?}"
                    ),
                );
            }
            Err(err) => drift(set, err),
        }
        if let Some(pinned) = &pinned {
            match pinned.sets.iter().find(|p| p.fixture == row.fixture) {
                Some(p) if counters(p) == counters(&row) => {}
                Some(p) => drift(
                    set,
                    format!(
                        "(outcomes, completed_transfers, work) {:?} in {BENCH_FILE}, {:?} replayed",
                        counters(p),
                        counters(&row)
                    ),
                ),
                None => drift(set, format!("{BENCH_FILE} has no row for {path}")),
            }
        }
        rows.push(row);
    }
    let fresh = report(rows);
    if let Some(pinned) = &pinned {
        if (fresh.total.completed_transfers, &fresh.total.work)
            != (pinned.total.completed_transfers, &pinned.total.work)
        {
            drift("total", format!("diverged from the {BENCH_FILE} totals"));
        }
    }
    Check {
        drifts,
        fresh,
        pinned,
    }
}

/// A row's deterministic columns.
fn counters(row: &BenchSet) -> (u64, u64, &WorkProfile) {
    (row.outcomes, row.completed_transfers, &row.work)
}

fn read_json<T: Deserialize>(path: &Path) -> Result<T, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|err| format!("cannot read {}: {err}", path.display()))?;
    serde_json::from_str(&text).map_err(|err| format!("{} does not parse: {err}", path.display()))
}

/// The process's peak resident set so far (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let hwm = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = hwm.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(round1(kb / 1024.0))
}

fn rate(events: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        events as f64 / secs
    } else {
        0.0
    }
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

fn round1(x: f64) -> f64 {
    (x * 10.0).round() / 10.0
}
