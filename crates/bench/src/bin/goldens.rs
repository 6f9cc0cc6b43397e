//! Regenerates — and, with `--check`, verifies — the ten golden fixture
//! sets in `tests/fixtures/`, which five test files replay:
//!
//! * `tests/relayer_strategies.rs`: `default_strategy` (small fig8/fig9/
//!   fig11/fig12-shaped runs: the default strategy reproduces the
//!   pre-refactor relayer bit for bit), `sequence_race` (§V's straddled
//!   commit under both sequence-tracking arms) and `strategy_arms` (one run
//!   per non-default strategy arm, plus the clear-scan path);
//! * `tests/multi_channel.rs`: `multi_channel`;
//! * `tests/dedicated_fleet.rs`: `dedicated_scaling`;
//! * `tests/fault_recovery.rs`: `relayer_crash`, `chain_halt` and
//!   `client_expiry`;
//! * `tests/topology_graph.rs`: `hub_spoke_scaling` and `mesh_contention`.
//!
//! Each set pins the exact `ScenarioOutcome`s of its specs; the fault and
//! topology sets take their specs from the registered scenario's grid.
//! Regenerate one set (and carefully review the diff!) with:
//!
//! ```text
//! cargo run --release -p xcc-bench --bin goldens -- --set default_strategy \
//!     > tests/fixtures/default_strategy_goldens.json
//! ```
//!
//! `--set` takes any name of the [`fixture_sets`] table — the file is always
//! `tests/fixtures/<name>_goldens.json` — and an unknown name exits 2 with
//! the valid ones, so a typo can never print the wrong set into a redirect.
//!
//! In `--check` mode no file is written: every fixture set is regenerated
//! in-memory and compared against `tests/fixtures/`, and the process exits
//! non-zero on any drift — CI runs this so the fixtures can never silently
//! diverge from the code that produces them.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::io::Write;

use serde::{Deserialize, Serialize};
use xcc_bench::timing::Stopwatch;
use xcc_framework::registry;
use xcc_framework::scenarios;
use xcc_framework::spec::ExperimentSpec;
use xcc_framework::work::sha256_backend;
use xcc_framework::{ScenarioOutcome, SweepMode, WorkProfile};
use xcc_relayer::strategy::{ChannelPolicy, RelayerStrategy, SequenceTracking};

/// The spec set behind the golden fixtures: one small point per paper figure
/// the relayer refactor must preserve (Figs. 8, 9, 11 and 12).
pub fn golden_specs() -> Vec<ExperimentSpec> {
    vec![
        ExperimentSpec::relayer_throughput()
            .named("golden/fig8/rate=20/rtt=0")
            .relayers(1)
            .rtt_ms(0)
            .input_rate(20)
            .measurement_blocks(5)
            .seed(42),
        ExperimentSpec::relayer_throughput()
            .named("golden/fig8/rate=60/rtt=200")
            .relayers(1)
            .rtt_ms(200)
            .input_rate(60)
            .measurement_blocks(5)
            .seed(42),
        ExperimentSpec::relayer_throughput()
            .named("golden/fig9/rate=20/rtt=200")
            .relayers(2)
            .rtt_ms(200)
            .input_rate(20)
            .measurement_blocks(5)
            .seed(42),
        ExperimentSpec::relayer_throughput()
            .named("golden/fig11/rate=60/rtt=200")
            .relayers(2)
            .rtt_ms(200)
            .input_rate(60)
            .measurement_blocks(5)
            .seed(42),
        ExperimentSpec::latency()
            .named("golden/fig12/transfers=400")
            .transfers(400)
            .submission_blocks(1)
            .rtt_ms(200)
            .seed(42),
    ]
}

/// The spec set behind the multi-channel golden fixture: small two-channel
/// runs with the default strategy, pinning the per-channel bookkeeping.
pub fn multi_channel_golden_specs() -> Vec<ExperimentSpec> {
    vec![
        ExperimentSpec::relayer_throughput()
            .named("golden/multi_channel/rate=20/channels=2/rtt=0")
            .relayers(1)
            .channels(2)
            .rtt_ms(0)
            .input_rate(20)
            .measurement_blocks(5)
            .seed(42),
        ExperimentSpec::relayer_throughput()
            .named("golden/multi_channel/rate=40/channels=2/rtt=200/weighted")
            .relayers(1)
            .channels(2)
            .channel_weights([3, 1])
            .rtt_ms(200)
            .input_rate(40)
            .measurement_blocks(5)
            .seed(42),
    ]
}

/// The spec set behind the sequence-race golden fixture: the §V straddled-
/// commit repro under both sequence-tracking arms, pinning the race's cost
/// (Resync) and the fixed behaviour (MempoolAware, zero broadcast
/// failures).
pub fn sequence_race_golden_specs() -> Vec<ExperimentSpec> {
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

/// The spec set behind the dedicated-scaling golden fixture: the same
/// 4-channel, one-`relayer_count` deployment under both channel policies.
/// The shared-process arm pins the per-process throughput cap (the flat
/// `multi_channel_scaling` curve), the dedicated arm pins the fleet of one
/// relayer process per channel breaking it by ≥2× — the acceptance bar
/// `tests/dedicated_fleet.rs` asserts against this fixture.
pub fn dedicated_scaling_golden_specs() -> Vec<ExperimentSpec> {
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

/// The spec set behind the strategy-arms golden fixture: one small run per
/// non-default strategy arm the other sets leave to property tests — the
/// oracle for refactors of the relayer's stage code. The two fetcher arms
/// drain a 400-transfer burst (chunked pulls on both paths); every other arm
/// relays a 5-block stream — 20 rps, except the adaptive arm's 12 rps, which
/// leaves less than a full transaction pending every other block — all at
/// 200 ms RTT. The lossy arm's 16 KiB frame limit fails every loaded block's
/// event collection, so the clear scan does the relaying.
pub fn strategy_arms_golden_specs() -> Vec<ExperimentSpec> {
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
    let lossy = RelayerStrategy::default()
        .frame_limit(16 << 10)
        .packet_clearing(2);
    // (arm, input rate, relayers, channels, strategy)
    let streams = [
        (
            "adaptive",
            12,
            1,
            1,
            RelayerStrategy::adaptive_submission(3),
        ),
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

/// The spec set behind a fault- or topology-scenario golden fixture: the
/// registered scenario's grid (no axis of these five is longer than three
/// values, so quick mode runs all of it), each point renamed under the
/// `golden/` prefix (the sweep already suffixes every point with
/// `/faults=<label>` or `/topo=<label>`). Pulling the grid straight from the
/// registry keeps the fixture in lockstep with the scenario definition —
/// editing the scenario's grid is a reviewed fixture regeneration, never a
/// silent drift.
#[expect(
    clippy::expect_used,
    reason = "the names are literals of fixture_sets, each a registered scenario; a lost one fails every mode at once"
)]
fn registry_scenario_specs(scenario: &str) -> Vec<ExperimentSpec> {
    let entry = registry::get(scenario).expect("scenario is registered");
    entry
        .grid(SweepMode::Quick)
        .points()
        .into_iter()
        .map(|spec| {
            let name = format!("golden/{}", spec.name);
            spec.named(name)
        })
        .collect()
}

/// Every fixture set by name: `--set` prints one, `--check` and `--bench`
/// walk all of them. The registry-backed sets are named after their scenario.
fn fixture_sets() -> Vec<(&'static str, Vec<ExperimentSpec>)> {
    let mut sets = vec![
        ("default_strategy", golden_specs()),
        ("multi_channel", multi_channel_golden_specs()),
        ("sequence_race", sequence_race_golden_specs()),
        ("dedicated_scaling", dedicated_scaling_golden_specs()),
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
    sets.push(("strategy_arms", strategy_arms_golden_specs()));
    sets
}

/// Where the named set's fixture lives, relative to the workspace root.
fn fixture_path(set: &str) -> String {
    format!("tests/fixtures/{set}_goldens.json")
}

fn regenerate(specs: &[ExperimentSpec]) -> Vec<ScenarioOutcome> {
    specs.iter().map(scenarios::run).collect()
}

/// Regenerates every fixture set in-memory and diffs it against the file on
/// disk. Returns how many fixtures drifted.
fn check_fixtures() -> usize {
    let mut drifted = 0;
    for (set, specs) in fixture_sets() {
        let path = fixture_path(set);
        let on_disk = match std::fs::read_to_string(&path) {
            Ok(contents) => contents,
            Err(err) => {
                eprintln!("DRIFT: cannot read {path}: {err}");
                drifted += 1;
                continue;
            }
        };
        let pinned: Vec<ScenarioOutcome> = match serde_json::from_str(&on_disk) {
            Ok(outcomes) => outcomes,
            Err(err) => {
                eprintln!("DRIFT: {path} does not parse: {err}");
                drifted += 1;
                continue;
            }
        };
        let fresh = regenerate(&specs);
        if fresh == pinned {
            println!("ok: {path} ({} outcomes)", fresh.len());
        } else {
            drifted += 1;
            eprintln!("DRIFT: {path} no longer matches the code that produces it");
            for (fresh, pinned) in fresh.iter().zip(&pinned) {
                if fresh != pinned {
                    eprintln!("  {} diverged", pinned.spec.name);
                }
            }
            if fresh.len() != pinned.len() {
                eprintln!(
                    "  fixture has {} outcomes, regeneration produced {}",
                    pinned.len(),
                    fresh.len()
                );
            }
            eprintln!("  regenerate with the `goldens` bin and review the diff");
        }
    }
    drifted
}

/// One fixture set's row in `BENCH_golden.json`: how long the host took to
/// replay it, and the exact xcc-prof work counters the replay performed.
///
/// `wall_clock_secs`/`events_per_sec` are human-facing and machine-dependent;
/// `outcomes`/`completed_transfers`/`work` are deterministic and exact-match
/// checked by `--bench --compare` (see docs/PERFORMANCE.md).
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

/// The `BENCH_golden.json` document written by `--bench` and diffed by
/// `--bench --compare`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct BenchReport {
    harness: String,
    event_unit: String,
    sets: Vec<BenchSet>,
    total: BenchTotal,
}

/// Replays every golden fixture set, timing each and collecting its
/// deterministic work profile. "Events" are fully completed transfers — the
/// unit every golden scenario produces and the denominator the paper's
/// throughput figures use.
fn run_bench() -> BenchReport {
    let mut sets = Vec::new();
    let mut total_secs = 0.0_f64;
    let mut total_completed = 0_u64;
    let mut total_work = WorkProfile::default();
    for (set, specs) in fixture_sets() {
        let path = fixture_path(set);
        let watch = Stopwatch::start();
        let mut work = WorkProfile::default();
        let mut outcomes = Vec::new();
        for spec in &specs {
            let run = scenarios::run_raw(spec);
            work = work.merged(&run.work);
            outcomes.push(scenarios::outcome_from(spec, &run));
        }
        let secs = watch.elapsed_secs();
        let completed: u64 = outcomes.iter().map(|o| o.completed()).sum();
        total_secs += secs;
        total_completed += completed;
        total_work = total_work.merged(&work);
        eprintln!("bench: {path}: {secs:.3}s, {completed} completed transfers");
        sets.push(BenchSet {
            fixture: path,
            outcomes: outcomes.len() as u64,
            completed_transfers: completed,
            wall_clock_secs: round3(secs),
            events_per_sec: round1(rate(completed, secs)),
            work,
        });
    }
    BenchReport {
        harness: "goldens --bench".to_string(),
        event_unit: "completed_transfers".to_string(),
        sets,
        total: BenchTotal {
            wall_clock_secs: round3(total_secs),
            peak_rss_mb: peak_rss_mb(),
            sha256_backend: sha256_backend().to_string(),
            completed_transfers: total_completed,
            events_per_sec: round1(rate(total_completed, total_secs)),
            work: total_work,
        },
    }
}

/// `--bench` mode: times the release-mode replay of every golden fixture set
/// and writes `BENCH_golden.json` at the workspace root, so the replay cost
/// trajectory stays visible across PRs. The file is opened before the
/// replay, so a path that cannot be written fails at once, not after it.
fn bench_fixtures() -> Result<(), String> {
    let unwritable = |err: std::io::Error| format!("cannot write BENCH_golden.json: {err}");
    let mut file = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open("BENCH_golden.json")
        .map_err(unwritable)?;
    let report = run_bench();
    let json = serde_json::to_string_pretty(&report)
        .map_err(|err| format!("cannot serialize the bench report: {err}"))?;
    file.set_len(0)
        .and_then(|()| file.write_all(format!("{json}\n").as_bytes()))
        .map_err(unwritable)?;
    println!("{json}");
    eprintln!("bench: wrote BENCH_golden.json");
    Ok(())
}

/// `--bench --compare` mode: replays every set in-memory and diffs the
/// deterministic columns against the committed `BENCH_golden.json`. Counter
/// or outcome drift is a failure (the caller exits 2); wall-clock deltas are
/// printed but never fail — timings are machine-dependent, counters are not.
fn compare_bench() -> usize {
    let committed: BenchReport = match std::fs::read_to_string("BENCH_golden.json") {
        Ok(contents) => match serde_json::from_str(&contents) {
            Ok(report) => report,
            Err(err) => {
                eprintln!("DRIFT: BENCH_golden.json does not parse: {err}");
                return 1;
            }
        },
        Err(err) => {
            eprintln!("DRIFT: cannot read BENCH_golden.json: {err}");
            return 1;
        }
    };
    let fresh = run_bench();
    let mut drifted = 0;
    if fresh.sets.len() != committed.sets.len() {
        eprintln!(
            "DRIFT: BENCH_golden.json pins {} set(s), the replay produced {}",
            committed.sets.len(),
            fresh.sets.len()
        );
        drifted += 1;
    }
    for (fresh_set, pinned) in fresh.sets.iter().zip(&committed.sets) {
        if fresh_set.fixture != pinned.fixture {
            eprintln!(
                "DRIFT: set order changed: expected `{}`, got `{}`",
                pinned.fixture, fresh_set.fixture
            );
            drifted += 1;
            continue;
        }
        let mut complaints = Vec::new();
        if fresh_set.outcomes != pinned.outcomes {
            complaints.push(format!(
                "outcomes {} -> {}",
                pinned.outcomes, fresh_set.outcomes
            ));
        }
        if fresh_set.completed_transfers != pinned.completed_transfers {
            complaints.push(format!(
                "completed_transfers {} -> {}",
                pinned.completed_transfers, fresh_set.completed_transfers
            ));
        }
        if fresh_set.work != pinned.work {
            complaints.push(format!(
                "work counters diverged (pinned {:?}, got {:?})",
                pinned.work, fresh_set.work
            ));
        }
        if complaints.is_empty() {
            println!(
                "ok: {} ({:.3}s now vs {:.3}s pinned)",
                pinned.fixture, fresh_set.wall_clock_secs, pinned.wall_clock_secs
            );
        } else {
            eprintln!("DRIFT: {}: {}", pinned.fixture, complaints.join("; "));
            drifted += 1;
        }
    }
    if fresh.total.work != committed.total.work
        || fresh.total.completed_transfers != committed.total.completed_transfers
    {
        eprintln!("DRIFT: totals diverged from BENCH_golden.json");
        drifted += 1;
    }
    println!(
        "wall-clock (informational): {:.3}s now vs {:.3}s pinned",
        fresh.total.wall_clock_secs, committed.total.wall_clock_secs
    );
    println!(
        "peak RSS (informational): {:?} MB now vs {:?} MB pinned",
        fresh.total.peak_rss_mb, committed.total.peak_rss_mb
    );
    println!(
        "SHA-256 backend (informational): {:?} now vs {:?} pinned",
        fresh.total.sha256_backend, committed.total.sha256_backend
    );
    drifted
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

/// Exits 1 with `error` when a mode could not finish.
fn exit_on_error(result: Result<(), String>) {
    if let Err(error) = result {
        eprintln!("goldens: {error}");
        std::process::exit(1);
    }
}

/// Exits 2 with `message` when `drifted` is non-zero.
fn exit_on_drift(drifted: usize, message: &str) {
    if drifted > 0 {
        eprintln!("{drifted} {message}");
        std::process::exit(2);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    // The whole argument list must match one mode exactly: a misspelt flag
    // is a usage error, never a silent fall-through to another mode.
    match args.as_slice() {
        ["--bench"] => exit_on_error(bench_fixtures()),
        ["--bench", "--compare"] => {
            exit_on_drift(compare_bench(), "bench row(s) drifted");
            println!("bench counters match BENCH_golden.json");
        }
        ["--check"] => {
            exit_on_drift(check_fixtures(), "fixture set(s) drifted");
            println!("all golden fixtures match the code that produces them");
        }
        other => {
            let sets = fixture_sets();
            let wanted = match other {
                ["--set", name] => sets.iter().find(|(set, _)| set == name),
                _ => None,
            };
            let Some((_, specs)) = wanted else {
                eprintln!("usage: goldens --set <name> | --check | --bench [--compare]");
                eprintln!("fixture sets:");
                for (set, _) in &sets {
                    eprintln!("  {set:<18} {}", fixture_path(set));
                }
                std::process::exit(2);
            };
            let outcomes = regenerate(specs);
            exit_on_error(
                serde_json::to_string_pretty(&outcomes)
                    .map(|json| println!("{json}"))
                    .map_err(|err| format!("cannot serialize the outcomes: {err}")),
            );
        }
    }
}
