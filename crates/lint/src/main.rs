//! Command-line front end for the workspace determinism auditor.
//!
//! Exit codes: `0` clean (or non-`--check` report run), `1` usage or I/O
//! error, `2` findings under `--check`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::PathBuf;
use std::process::ExitCode;

use xcc_lint::{rules, to_json, Config, RuleId};

const USAGE: &str = "\
xcc-lint: determinism auditor for the workspace

USAGE:
    xcc-lint [OPTIONS]

OPTIONS:
    --check            exit 2 when any finding is reported (CI mode)
    --json             emit findings as JSON instead of text lines
    --github           emit findings as GitHub Actions ::error annotations
    --rule <name>      run only this rule (repeatable); names or codes (D4..R1)
    --skip-rule <name> run all rules except this one (repeatable)
    --root <path>      workspace root to lint (default: current directory)
    --list-rules       print the rule catalogue and exit
    --help             print this help
";

struct Args {
    check: bool,
    json: bool,
    github: bool,
    list_rules: bool,
    root: PathBuf,
    only: Vec<RuleId>,
    skip: Vec<RuleId>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        check: false,
        json: false,
        github: false,
        list_rules: false,
        root: PathBuf::from("."),
        only: Vec::new(),
        skip: Vec::new(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--check" => args.check = true,
            "--json" => args.json = true,
            "--github" => args.github = true,
            "--list-rules" => args.list_rules = true,
            "--help" | "-h" => return Err(String::new()),
            "--root" => {
                let value = argv.next().ok_or("--root needs a path")?;
                args.root = PathBuf::from(value);
            }
            "--rule" => {
                let value = argv.next().ok_or("--rule needs a rule name")?;
                args.only.push(parse_rule(&value)?);
            }
            "--skip-rule" => {
                let value = argv.next().ok_or("--skip-rule needs a rule name")?;
                args.skip.push(parse_rule(&value)?);
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(args)
}

fn parse_rule(name: &str) -> Result<RuleId, String> {
    RuleId::parse(name).ok_or_else(|| {
        let known: Vec<&str> = RuleId::ALL.iter().map(|r| r.name()).collect();
        format!("unknown rule {name:?}; known rules: {}", known.join(", "))
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("xcc-lint: {msg}");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    if args.list_rules {
        for rule in RuleId::ALL {
            println!("{:4} {}", rule.code(), rule.name());
        }
        return ExitCode::SUCCESS;
    }

    let mut selected: Vec<RuleId> = if args.only.is_empty() {
        RuleId::ALL.to_vec()
    } else {
        let mut only = args.only.clone();
        // Suppression hygiene always accompanies the rules it guards.
        if !only.contains(&RuleId::Suppression) {
            only.push(RuleId::Suppression);
        }
        only
    };
    selected.retain(|rule| !args.skip.contains(rule));

    let config = Config {
        root: args.root,
        rules: selected,
    };
    let outcome = match rules::run(&config) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("xcc-lint: scan failed: {err}");
            return ExitCode::FAILURE;
        }
    };

    if args.json {
        print!("{}", to_json(&outcome.findings, outcome.files_scanned));
    } else if args.github {
        for finding in &outcome.findings {
            println!("{}", finding.render_github());
        }
        println!(
            "xcc-lint: {} finding(s) across {} file(s)",
            outcome.findings.len(),
            outcome.files_scanned
        );
    } else {
        for finding in &outcome.findings {
            println!("{}", finding.render());
        }
        println!(
            "xcc-lint: {} finding(s) across {} file(s)",
            outcome.findings.len(),
            outcome.files_scanned
        );
    }

    if args.check && !outcome.findings.is_empty() {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
