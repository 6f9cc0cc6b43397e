//! The `goldens` binary's exit codes, driven as a process.

use std::fs;
use std::path::Path;
use std::process::Command;

/// `--bench` where `BENCH_golden.json` cannot be written (here it is a
/// directory) names the file and the io error and exits 1, before replaying
/// anything.
#[test]
fn bench_reports_an_unwritable_report_and_exits_1() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("goldens_unwritable_bench");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(dir.join("BENCH_golden.json")).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_goldens"))
        .arg("--bench")
        .current_dir(&dir)
        .output()
        .unwrap();

    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("cannot write BENCH_golden.json: Is a directory"),
        "stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing replayed or printed");
}
