//! The golden oracle under `cargo test`: the same [`goldens::check`] that
//! `goldens --check` runs in CI replays all ten fixture sets once and
//! compares their outcomes with `tests/fixtures/` and their work counters
//! with `BENCH_golden.json`. A spec table edited in `xcc_bench::goldens`, a
//! metric that moves or a counter that moves fails here.

use std::fs;
use std::path::Path;

use xcc_bench::goldens::{self, Drift, BENCH_FILE};

fn drifted_sets(drifts: &[Drift]) -> Vec<&str> {
    drifts.iter().map(|d| d.set.as_str()).collect()
}

#[test]
fn the_code_reproduces_every_golden_fixture_and_work_counter() {
    let check = goldens::check(env!("CARGO_MANIFEST_DIR"));
    assert_eq!(
        check.drifts,
        [],
        "regenerate with the `goldens` bin and review the diff"
    );
}

/// Changes the first digit after the `nth` occurrence of `needle`, keeping
/// the text valid JSON.
fn edit_digit(text: &str, needle: &str, nth: usize) -> String {
    let (at, _) = text.match_indices(needle).nth(nth).expect("needle occurs");
    let digit = at
        + text[at..]
            .find(|c: char| c.is_ascii_digit())
            .expect("a digit follows");
    let new = if &text[digit..=digit] == "1" {
        "2"
    } else {
        "1"
    };
    format!("{}{new}{}", &text[..digit], &text[digit + 1..])
}

/// `check` on a byte-for-byte copy of the pinned files (which the test
/// above finds clean) names exactly the set whose fixture metric or
/// `BENCH_golden.json` counter was edited by one digit.
#[test]
fn check_names_the_set_whose_fixture_or_counter_drifted() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let copy = Path::new(env!("CARGO_TARGET_TMPDIR")).join("goldens_drift");
    fs::create_dir_all(copy.join("tests/fixtures")).unwrap();
    for (set, _) in goldens::fixture_sets() {
        let path = goldens::fixture_path(set);
        fs::copy(root.join(&path), copy.join(&path)).unwrap();
    }
    let bench = fs::read_to_string(root.join(BENCH_FILE)).unwrap();
    fs::write(copy.join(BENCH_FILE), &bench).unwrap();

    let fixture = copy.join(goldens::fixture_path("multi_channel"));
    let pinned = fs::read_to_string(&fixture).unwrap();
    fs::write(&fixture, edit_digit(&pinned, "\"completed\": ", 0)).unwrap();
    assert_eq!(
        drifted_sets(&goldens::check(&copy).drifts),
        ["multi_channel"]
    );
    fs::write(&fixture, pinned).unwrap();

    // The second row is multi_channel's.
    fs::write(
        copy.join(BENCH_FILE),
        edit_digit(&bench, "\"merkle_inner_hashes\": ", 1),
    )
    .unwrap();
    assert_eq!(
        drifted_sets(&goldens::check(&copy).drifts),
        ["multi_channel"]
    );
}
