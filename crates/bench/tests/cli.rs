//! `suite_summary` front end: `--help` prints the usage and exits 0, and
//! every kind of bad command line prints a one-line error and exits 2 —
//! never a panic. None of these runs reaches an analysis.

use std::process::{Command, Output};

fn suite_summary(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_suite_summary"))
        .args(args)
        .output()
        .expect("suite_summary runs")
}

/// Asserts a status-2 exit with one stderr line that mentions `needle`.
fn assert_rejected(args: &[&str], needle: &str) {
    let out = suite_summary(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran something");
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = suite_summary(&["mult", flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: suite_summary"), "{stdout}");
        assert!(stdout.contains("--sweep-corners N"), "{stdout}");
        assert!(out.stderr.is_empty(), "{flag}");
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
