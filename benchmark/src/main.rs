//! The repo benchmark: times `xcc_framework::scenarios::try_run` on four
//! single-spec workloads and attributes the time to layers from outside the
//! program. See `benchmark/README.md` for the metric glossary and
//! `BENCHMARK.json` at the repo root for the contract.
//!
//! ```text
//! xcc-benchmark --workload <name> [--seed 42] [--seconds 15] [--trace 0|1] [--spans <file>]
//! xcc-benchmark --all --out <set.json> [--seed 42] [--seconds 15] [--runs 5]
//! xcc-benchmark --compare <a.json> <b.json>
//! ```
//!
//! One workload runs in one process on one thread. With `--trace 0` the
//! end-to-end metrics are measured, tracing off; with `--trace 1` the traced
//! driver and the layer drives produce the per-layer metrics. Every metric is
//! printed as `name value unit`, and the last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.

#![forbid(unsafe_code)]

mod calibrate;
mod checks;
mod layers;
mod metrics;
mod sets;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use serde_json::Value;
use xcc_bench::timing::Stopwatch;
use xcc_framework::outcome::ScenarioOutcome;
use xcc_framework::runner::RunOutput;
use xcc_framework::scenarios;
use xcc_framework::spec::ExperimentSpec;
use xcc_framework::testnet::SetupError;

use calibrate::HostSpeed;
use checks::{check, Checked, Digest};
use metrics::Metrics;
use stats::{median, quartiles};
use trace::Tracer;
use workloads::Workload;

/// How long one run measures unless `--seconds` says otherwise; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 15;
/// Seed used unless `--seed` says otherwise.
pub const DEFAULT_SEED: u64 = 42;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed reps behind a `run_wall_s` median, however short `--seconds`.
const MIN_REPS: usize = 5;
/// Fewest traced reps behind a per-layer host time.
const MIN_TRACED_REPS: usize = 3;

/// One untraced `try_run`, timed as its caller pays for it: deploy, drive,
/// analyse, and release the result. `inspect` looks at the result between
/// the two timed segments, outside the measurement.
fn timed_rep<T>(
    spec: &ExperimentSpec,
    inspect: impl FnOnce(&RunOutput, &ScenarioOutcome) -> T,
) -> Result<(f64, T), SetupError> {
    let watch = Stopwatch::start();
    let run = scenarios::try_run_raw(spec)?;
    let outcome = scenarios::outcome_from(spec, &run);
    let ran = watch.elapsed_secs();
    let inspected = inspect(&run, &outcome);
    let watch = Stopwatch::start();
    drop((run, outcome));
    Ok((ran + watch.elapsed_secs(), inspected))
}

/// Sums the checks of the reps a run reports on.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

impl Tally {
    fn add(&mut self, rep: &str, checked: Checked) {
        self.attempted += checked.attempted;
        self.failed += checked.failed;
        self.violations.extend(
            checked
                .violations
                .into_iter()
                .map(|v| format!("{rep}: {v}")),
        );
    }

    fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Prints every metric as `name value unit`, the check results, and the
/// result line the driver reads. Returns whether the run was correct.
fn report(metrics: &Metrics, tally: &Tally) -> bool {
    for (name, value, unit) in metrics.rows() {
        println!("{name} {value} {unit}");
    }
    println!("failed_share {} ratio", tally.failed_share());
    for violation in &tally.violations {
        println!("check failed: {violation}");
    }
    let correct = tally.violations.is_empty();
    let line = Value::Map(vec![
        ("correct".to_string(), Value::Bool(correct)),
        (
            "attempted".to_string(),
            Value::U128(tally.attempted.max(1).into()),
        ),
        ("failed".to_string(), Value::U128(tally.failed.into())),
        ("metrics".to_string(), metrics.to_value()),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).expect("a value tree serializes")
    );
    correct
}

/// Raw and host-speed-scaled seconds of a series of measurements.
#[derive(Default)]
struct Timings {
    raw: Vec<f64>,
    scaled: Vec<f64>,
}

impl Timings {
    fn push(&mut self, raw: f64, host: &mut HostSpeed) {
        self.raw.push(raw);
        self.scaled.push(host.scale(raw));
    }

    /// Prints the distribution behind a scaled median, and the raw median.
    fn describe(&self, name: &str) {
        let (q1, q3) = quartiles(&self.scaled);
        println!(
            "{name} count {} q1 {q1} q3 {q3} min {} max {} unscaled_median {}",
            self.scaled.len(),
            self.scaled.iter().copied().fold(f64::INFINITY, f64::min),
            self.scaled.iter().copied().fold(0.0, f64::max),
            median(&self.raw),
        );
    }
}

/// `--trace 0`: the end-to-end metrics, tracing off.
fn measure_end_to_end(
    workload: &Workload,
    seed: u64,
    seconds: f64,
) -> Result<(Metrics, Tally), SetupError> {
    let mut host = HostSpeed::probe();
    // Set-up: generate the input from the seed and run it once, untimed by
    // the reps, so allocator and page state are warm. The first set-up's run
    // is the reference every later run must reproduce.
    let mut setups = Timings::default();
    let mut reference: Option<Digest> = None;
    let mut tally = Tally::default();
    let mut sim_tfps = 0.0;
    for i in 0..SETUPS {
        let watch = Stopwatch::start();
        let spec = workload.spec(seed);
        let generated = watch.elapsed_secs();
        let (ran, (digest, checked)) = timed_rep(&spec, |run, outcome| {
            sim_tfps = workload.sim_tfps(outcome);
            let digest = Digest::of(run, outcome);
            let checked = check(workload, run, &digest, reference.as_ref());
            (digest, checked)
        })?;
        setups.push(generated + ran, &mut host);
        // Warm-up transfers are not part of the measurement; only their
        // violations count.
        tally.add(
            &format!("set-up {i}"),
            Checked {
                attempted: 0,
                failed: 0,
                ..checked
            },
        );
        reference.get_or_insert(digest);
    }

    let spec = workload.spec(seed);
    let measuring = Stopwatch::start();
    let mut reps = Timings::default();
    while reps.raw.len() < MIN_REPS || measuring.elapsed_secs() < seconds {
        let (ran, checked) = timed_rep(&spec, |run, outcome| {
            let digest = Digest::of(run, outcome);
            check(workload, run, &digest, reference.as_ref())
        })?;
        tally.add(&format!("rep {}", reps.raw.len()), checked);
        reps.push(ran, &mut host);
    }

    reps.describe("run_wall_s");
    setups.describe("setup_s");
    println!(
        "host_speed {} of reference (calibration kernel median {} s)",
        calibrate::REFERENCE_SECS / median(host.kernels()),
        median(host.kernels()),
    );
    let mut metrics = Metrics::default();
    metrics.put_end_to_end("run_wall_s", median(&reps.scaled));
    metrics.put_end_to_end("setup_s", median(&setups.scaled));
    metrics.put_end_to_end("peak_rss_mb", peak_rss_mb());
    metrics.put_end_to_end("sim_tfps", sim_tfps);
    Ok((metrics, tally))
}

/// `--trace 1`: the per-layer metrics — counts from one untraced run, then
/// untraced and traced runs of the same spec in alternation, each traced run
/// checked against the untraced digest, then the layer drives.
fn measure_layers(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<(Metrics, Tally), SetupError> {
    let spec = workload.spec(seed);
    let mut metrics = Metrics::default();
    let mut tally = Tally::default();
    let (_, reference) = timed_rep(&spec, |run, outcome| {
        let digest = Digest::of(run, outcome);
        tally.add("warm-up", check(workload, run, &digest, None));
        layers::counts(workload, run, outcome, &mut metrics);
        digest
    })?;

    let measuring = Stopwatch::start();
    let mut untraced = Vec::new();
    while tracer.reps() < MIN_TRACED_REPS || measuring.elapsed_secs() < seconds {
        let (ran, checked) = timed_rep(&spec, |run, outcome| {
            let digest = Digest::of(run, outcome);
            check(workload, run, &digest, Some(&reference))
        })?;
        tally.add(&format!("rep {}", untraced.len()), checked);
        untraced.push(ran);
        let digest = trace::traced_run(&spec, tracer)?;
        // The spans are only worth reporting if they describe this run.
        tally.violations.extend(
            digest
                .diff(&reference)
                .into_iter()
                .map(|d| format!("trace self-check, traced rep {}: {d}", tracer.reps() - 1)),
        );
    }

    // The drives churn the heap, so they run last, on a run of their own:
    // before the loop they made every later rep read slower than the same
    // rep does with tracing off.
    timed_rep(&spec, |run, _| layers::drives(run, &mut metrics))?;

    let reps = trace::breakdowns(tracer.spans());
    let over_reps = |value: &dyn Fn(&trace::RepBreakdown) -> f64| {
        median(&reps.iter().map(value).collect::<Vec<f64>>())
    };
    let total = over_reps(&|rep| rep.total);
    for name in [
        "framework.testnet_build_s",
        "framework.workload_submit_s",
        "chain.produce_block_src_s",
        "chain.produce_block_dst_s",
        "relayer.wake_s",
        "framework.drain_check_s",
        "sim.scheduler_s",
        "framework.collect_s",
        "framework.analysis_s",
        "framework.teardown_s",
    ] {
        let secs = over_reps(&|rep| rep.secs(name));
        println!("{name} share_of_traced_total {}", secs / total);
        metrics.put_layer(name, secs);
    }
    metrics.put_layer(
        "chain.produce_block_max_ms",
        1e3 * over_reps(&|rep| {
            rep.longest("chain.produce_block_src_s")
                .max(rep.longest("chain.produce_block_dst_s"))
        }),
    );
    metrics.put_layer(
        "relayer.wake_max_ms",
        1e3 * over_reps(&|rep| rep.longest("relayer.wake_s")),
    );
    let plain = median(&untraced);
    metrics.put_layer("trace.total_s", total);
    metrics.put_layer("trace.untraced_run_s", plain);
    metrics.put_layer("trace.coverage_share", over_reps(&|rep| rep.coverage()));
    metrics.put_layer("trace.overhead_share", (total - plain) / plain);
    metrics.put_layer("trace.reps", reps.len() as f64);
    metrics.put_layer("trace.spans_per_rep", over_reps(&|rep| rep.spans as f64));
    assert!(
        metrics.covers_every_layer_metric(),
        "every declared per-layer metric is reported"
    );
    Ok((metrics, tally))
}

/// The parsed command line of a single-workload run.
struct RunArgs {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn usage() -> String {
    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: xcc-benchmark --workload <{}> [--seed {DEFAULT_SEED}] [--seconds {DEFAULT_SECONDS}] [--trace 0|1] [--spans <file>]\n\
         \x20      xcc-benchmark --all --out <set.json> [--seed {DEFAULT_SEED}] [--seconds {DEFAULT_SECONDS}] [--runs {}]\n\
         \x20      xcc-benchmark --compare <a.json> <b.json>",
        names.join("|"),
        sets::DEFAULT_RUNS,
    )
}

/// The value following flag `name`, if the flag is present.
fn flag<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{name} needs a value")),
    }
}

/// Parses the value of flag `name`, or takes `default` when it is absent.
pub fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name)? {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("{name}: `{text}` is not a valid value")),
    }
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let name = flag(args, "--workload")?.ok_or_else(usage)?;
    let workload = workloads::by_name(name)
        .ok_or_else(|| format!("unknown workload `{name}`\n{}", usage()))?;
    let seconds: u64 = parsed(args, "--seconds", DEFAULT_SECONDS)?;
    let trace: u8 = parsed(args, "--trace", 0)?;
    if trace > 1 {
        return Err("--trace takes 0 or 1".to_string());
    }
    Ok(RunArgs {
        workload,
        seed: parsed(args, "--seed", DEFAULT_SEED)?,
        seconds: seconds as f64,
        trace: trace == 1,
        spans: flag(args, "--spans")?.map(str::to_string),
    })
}

fn run_workload(args: &RunArgs) -> Result<bool, String> {
    println!(
        "workload {} seed {} seconds {} trace {}\n{}",
        args.workload.name, args.seed, args.seconds, args.trace as u8, args.workload.why
    );
    let mut tracer = Tracer::new();
    let measured = if args.trace {
        measure_layers(args.workload, args.seed, args.seconds, &mut tracer)
    } else {
        measure_end_to_end(args.workload, args.seed, args.seconds)
    };
    let (metrics, tally) = measured.map_err(|e| format!("testnet setup failed: {e:?}"))?;
    if let Some(path) = &args.spans {
        std::fs::write(path, trace::spans_to_json(tracer.spans()))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(report(&metrics, &tally))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = if args.iter().any(|a| a == "--compare") {
        sets::compare(&args)
    } else if args.iter().any(|a| a == "--all") {
        sets::run_all(&args)
    } else {
        parse_run(&args).and_then(|run| run_workload(&run))
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
