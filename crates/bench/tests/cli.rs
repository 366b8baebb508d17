//! The front ends' command lines (`suite_summary`, `experiments`,
//! `incremental_replay`): `--help` prints the usage and exits 0, and every
//! kind of bad command line prints a one-line error and exits 2 — never a
//! panic. None of these runs reaches an analysis or writes a file.

use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

const SUITE_SUMMARY: &str = env!("CARGO_BIN_EXE_suite_summary");
const EXPERIMENTS: &str = env!("CARGO_BIN_EXE_experiments");
const INCREMENTAL_REPLAY: &str = env!("CARGO_BIN_EXE_incremental_replay");

/// Runs `exe` pointed at a fresh results directory, and asserts that the
/// run left it uncreated (no experiment output, no manifest).
fn run(exe: &str, args: &[&str]) -> Output {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let results = std::env::temp_dir().join(format!(
        "xbound_cli_{}_{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    let out = Command::new(exe)
        .args(args)
        .env("XBOUND_RESULTS_DIR", &results)
        .output()
        .expect("front end runs");
    assert!(!results.exists(), "{exe} {args:?} wrote results");
    out
}

/// Asserts a status-2 exit of `exe` with one stderr line that mentions
/// `needle`, and nothing on stdout.
fn assert_rejected_by(exe: &str, args: &[&str], needle: &str) {
    let out = run(exe, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran something");
}

/// [`assert_rejected_by`] for `suite_summary`.
fn assert_rejected(args: &[&str], needle: &str) {
    assert_rejected_by(SUITE_SUMMARY, args, needle);
}

/// Asserts that `args` print a usage starting with `usage: {tool}` and
/// exit 0.
fn assert_help(exe: &str, tool: &str, args: &[&str]) -> String {
    let out = run(exe, args);
    assert_eq!(out.status.code(), Some(0), "{args:?}");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.starts_with(&format!("usage: {tool}")), "{stdout}");
    assert!(out.stderr.is_empty(), "{args:?}");
    stdout
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let stdout = assert_help(SUITE_SUMMARY, "suite_summary", &["mult", flag]);
        assert!(stdout.contains("--sweep-corners N"), "{stdout}");
    }
}

#[test]
fn non_numeric_values_exit_2() {
    for flag in [
        "--threads",
        "--lanes",
        "--explore-lanes",
        "--validate",
        "--sweep-corners",
    ] {
        assert_rejected(&[flag, "many"], flag);
    }
}

#[test]
fn missing_values_exit_2() {
    assert_rejected(&["--bounds"], "--bounds needs a value");
    assert_rejected(&["--threads"], "--threads needs a value");
}

#[test]
fn unknown_benchmarks_and_options_exit_2() {
    assert_rejected(&["mult", "noSuchBench"], "unknown benchmark `noSuchBench`");
    assert_rejected(&["--no-such-option"], "unknown option `--no-such-option`");
}

#[test]
fn sweep_does_not_combine_with_incremental_or_validate() {
    let curves = std::env::temp_dir().join("suite_summary_cli_curves.json");
    let curves = curves.to_str().expect("utf-8 temp path");
    assert_rejected(&["--sweep", curves, "--incremental"], "not combinable");
    assert_rejected(&["--validate", "2", "--sweep", curves], "not combinable");
}

#[test]
fn incremental_replay_help_and_bad_input() {
    for flag in ["--help", "-h"] {
        let stdout = assert_help(INCREMENTAL_REPLAY, "incremental_replay", &[flag]);
        assert!(stdout.contains("--json PATH"), "{stdout}");
    }
    assert_rejected_by(INCREMENTAL_REPLAY, &["--json"], "--json needs a value");
    assert_rejected_by(
        INCREMENTAL_REPLAY,
        &["--no-such-option"],
        "unknown option `--no-such-option`",
    );
    assert_rejected_by(
        INCREMENTAL_REPLAY,
        &["tHold", "noSuchBench"],
        "unknown benchmark `noSuchBench`",
    );
}

#[test]
fn experiments_help_and_bad_input() {
    for flag in ["--help", "-h"] {
        let stdout = assert_help(EXPERIMENTS, "experiments", &["fig5_1", flag]);
        assert!(stdout.contains("ga_smoke"), "{stdout}");
    }
    // An unknown id fails before any experiment runs or the manifest
    // is written, even after a valid one.
    assert_rejected_by(
        EXPERIMENTS,
        &["tab1_1", "noSuchId"],
        "unknown experiment id `noSuchId`",
    );
    for flag in ["--profile-runs", "--ga-pop", "--lanes", "--explore-lanes"] {
        assert_rejected_by(EXPERIMENTS, &[flag, "many"], flag);
        assert_rejected_by(EXPERIMENTS, &[flag], &format!("{flag} needs a value"));
    }
    assert_rejected_by(
        EXPERIMENTS,
        &["--no-such-option"],
        "unknown option `--no-such-option`",
    );
}
