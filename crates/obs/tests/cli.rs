//! `trace_check` front end: `--help` prints the usage and exits 0, a bad
//! command line prints one error line and exits 2, and a trace it cannot
//! read is a verdict (exit 1), not a usage error.

use std::process::{Command, Output};

fn trace_check(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace_check"))
        .args(args)
        .output()
        .expect("trace_check runs")
}

/// Asserts a status-2 exit with one stderr line mentioning `needle`.
fn assert_rejected(args: &[&str], needle: &str) {
    let out = trace_check(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}");
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = trace_check(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: trace_check"), "{stdout}");
        assert!(stdout.contains("--min-tids N"), "{stdout}");
        assert!(out.stderr.is_empty(), "{flag}");
    }
}

#[test]
fn bad_command_lines_exit_2() {
    assert_rejected(&[], "missing TRACE.json path");
    assert_rejected(&["--min-tids", "3"], "missing TRACE.json path");
    assert_rejected(
        &["t.json", "--no-such-flag"],
        "unknown option `--no-such-flag`",
    );
    assert_rejected(&["t.json", "--min-tids"], "--min-tids needs a value");
    assert_rejected(
        &["t.json", "--min-tids", "x"],
        "bad value `x` for --min-tids",
    );
}

#[test]
fn unreadable_trace_is_a_verdict() {
    let name = format!("xbound_no_trace_{}.json", std::process::id());
    let missing = std::env::temp_dir().join(name);
    let out = trace_check(&[missing.to_str().expect("utf-8 temp path")]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read"), "{stderr}");
}
