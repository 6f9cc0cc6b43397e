//! Result sets: `--all` runs every workload in child processes and writes
//! one JSON file; `--compare` judges two such files against the bounds.
//!
//! A set holds, per workload, the result lines of several `--trace 0` runs —
//! each run on the next seed, one process per run so `peak_rss_mb` is the
//! workload's own — and of one `--trace 1` run.

use std::process::Command;

use serde_json::Value;

use crate::metrics::{field, number, END_TO_END};
use crate::stats::{median, spread, verdict, worsening, Verdict};
use crate::workloads::WORKLOADS;
use crate::{parsed, DEFAULT_SECONDS, DEFAULT_SEED};

/// `--trace 0` runs per workload in a set unless `--runs` says otherwise.
pub const DEFAULT_RUNS: u64 = 5;

/// Runs this executable on one workload and returns its result line.
fn child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("starting the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "the {workload} run (seed {seed}, trace {}) failed:\n{stdout}{}",
            trace as u8,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let line = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(line).map_err(|e| format!("{workload}: unreadable result line: {e}"))
}

/// `--all`: every workload, `--runs` times with tracing off and once traced.
pub fn run_all(args: &[String]) -> Result<bool, String> {
    let out: String = parsed(args, "--out", String::new())?;
    if out.is_empty() {
        return Err("--all needs --out <set.json>".to_string());
    }
    let seed: u64 = parsed(args, "--seed", DEFAULT_SEED)?;
    let seconds: u64 = parsed(args, "--seconds", DEFAULT_SECONDS)?;
    let runs: u64 = parsed(args, "--runs", DEFAULT_RUNS)?;

    let mut workloads = Vec::new();
    for workload in &WORKLOADS {
        let mut lines = Vec::new();
        for i in 0..runs {
            let line = child(workload.name, seed + i, seconds, false)?;
            println!(
                "{} seed {} {}",
                workload.name,
                seed + i,
                END_TO_END
                    .iter()
                    .map(|m| format!("{} {}", m.name, metric(&line, m.name).unwrap_or(f64::NAN)))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            lines.push(line);
        }
        let traced = child(workload.name, seed, seconds, true)?;
        println!("{} traced", workload.name);
        workloads.push((
            workload.name.to_string(),
            Value::Map(vec![
                ("runs".to_string(), Value::Seq(lines)),
                ("traced".to_string(), traced),
            ]),
        ));
    }
    let set = Value::Map(vec![
        ("seed".to_string(), Value::U128(seed.into())),
        ("seconds".to_string(), Value::U128(seconds.into())),
        ("workloads".to_string(), Value::Map(workloads)),
    ]);
    let body = serde_json::to_string_pretty(&set).expect("a value tree serializes");
    std::fs::write(&out, body).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {out}");
    Ok(true)
}

/// The value of metric `name` in a result line.
fn metric(line: &Value, name: &str) -> Option<f64> {
    field(field(field(line, "metrics")?, name)?, "value").and_then(number)
}

/// The `--trace 0` result lines of one workload in a set.
fn runs<'a>(set: &'a Value, workload: &str) -> &'a [Value] {
    field(set, "workloads")
        .and_then(|w| field(w, workload))
        .and_then(|w| field(w, "runs"))
        .and_then(Value::as_seq)
        .unwrap_or(&[])
}

/// Failed transfers as a share of those attempted, over all `lines`.
fn failed_share(lines: &[Value]) -> f64 {
    let total = |key: &str| -> f64 {
        lines
            .iter()
            .filter_map(|l| field(l, key).and_then(number))
            .sum()
    };
    let attempted = total("attempted");
    if attempted == 0.0 {
        0.0
    } else {
        total("failed") / attempted
    }
}

/// One row of the comparison table.
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub parent: f64,
    pub change: f64,
    pub worsening: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Compares set `b` (the change) against set `a` (the parent): one row per
/// workload × end-to-end metric, plus `failed_share`, whose bound is zero.
pub fn compare_sets(a: &Value, b: &Value) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in &WORKLOADS {
        let (runs_a, runs_b) = (runs(a, workload.name), runs(b, workload.name));
        if runs_a.is_empty() || runs_b.is_empty() {
            continue;
        }
        for m in &END_TO_END {
            let values = |lines: &[Value]| -> Vec<f64> {
                lines.iter().filter_map(|l| metric(l, m.name)).collect()
            };
            let (va, vb) = (values(runs_a), values(runs_b));
            rows.push(Row {
                workload: workload.name.to_string(),
                metric: m.name,
                parent: median(&va),
                change: median(&vb),
                worsening: worsening(median(&va), median(&vb), m.better),
                spread: spread(&va).max(spread(&vb)),
                bound: m.bound,
                verdict: verdict(&va, &vb, m.better, m.bound),
            });
        }
        let (fa, fb) = (failed_share(runs_a), failed_share(runs_b));
        rows.push(Row {
            workload: workload.name.to_string(),
            metric: "failed_share",
            parent: fa,
            change: fb,
            worsening: fb - fa,
            spread: 0.0,
            bound: 0.0,
            // Baseline zero, so the relative rule cannot apply: any rise fails.
            verdict: if fb > fa {
                Verdict::Regressed
            } else {
                Verdict::Ok
            },
        });
    }
    rows
}

fn read_set(path: &str) -> Result<Value, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&body).map_err(|e| format!("{path}: {e}"))
}

/// `--compare <a.json> <b.json>`: prints the table and fails on a regression.
pub fn compare(args: &[String]) -> Result<bool, String> {
    let at = args.iter().position(|a| a == "--compare").unwrap_or(0);
    let (Some(a), Some(b)) = (args.get(at + 1), args.get(at + 2)) else {
        return Err("--compare needs two result sets".to_string());
    };
    let rows = compare_sets(&read_set(a)?, &read_set(b)?);
    if rows.is_empty() {
        return Err("the two sets share no workload".to_string());
    }
    println!(
        "{:<13} {:<13} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "parent", "change", "worse_by", "spread", "bound"
    );
    for row in &rows {
        println!(
            "{:<13} {:<13} {:>14.6} {:>14.6} {:>8.2}% {:>7.2}% {:>5.1}%  {}",
            row.workload,
            row.metric,
            row.parent,
            row.change,
            100.0 * row.worsening,
            100.0 * row.spread,
            100.0 * row.bound,
            row.verdict.as_str()
        );
    }
    Ok(rows.iter().all(|r| r.verdict != Verdict::Regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A set with one workload whose runs report the given wall times.
    fn set(run_wall: &[f64], failed: u64) -> Value {
        let lines = run_wall
            .iter()
            .map(|secs| {
                let metrics = END_TO_END
                    .iter()
                    .map(|m| {
                        let value = if m.name == "run_wall_s" { *secs } else { 7.0 };
                        (
                            m.name.to_string(),
                            Value::Map(vec![("value".to_string(), Value::F64(value))]),
                        )
                    })
                    .collect();
                Value::Map(vec![
                    ("attempted".to_string(), Value::U128(1000)),
                    ("failed".to_string(), Value::U128(failed.into())),
                    ("metrics".to_string(), Value::Map(metrics)),
                ])
            })
            .collect();
        Value::Map(vec![(
            "workloads".to_string(),
            Value::Map(vec![(
                "chain_only".to_string(),
                Value::Map(vec![("runs".to_string(), Value::Seq(lines))]),
            )]),
        )])
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn equal_sets_compare_ok_on_every_row() {
        let a = set(&[2.0, 2.02, 1.98], 0);
        let rows = compare_sets(&a, &a);
        assert_eq!(rows.len(), END_TO_END.len() + 1);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));
        assert!(rows.iter().all(|r| r.workload == "chain_only"));
    }

    #[test]
    fn a_slower_change_regresses_only_the_metric_that_moved() {
        let rows = compare_sets(&set(&[2.0, 2.02, 1.98], 0), &set(&[2.6, 2.62, 2.58], 0));
        assert_eq!(verdict_of(&rows, "run_wall_s"), Verdict::Regressed);
        assert_eq!(verdict_of(&rows, "peak_rss_mb"), Verdict::Ok);
        assert_eq!(verdict_of(&rows, "failed_share"), Verdict::Ok);
    }

    #[test]
    fn noisy_runs_are_unresolved_and_new_failures_regress() {
        let rows = compare_sets(&set(&[2.0, 2.9, 1.4], 0), &set(&[2.1, 2.0, 2.2], 3));
        assert_eq!(verdict_of(&rows, "run_wall_s"), Verdict::Unresolved);
        assert_eq!(verdict_of(&rows, "failed_share"), Verdict::Regressed);
    }
}
