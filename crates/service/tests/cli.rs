//! The daemon's front ends. `xbound-serve --help` prints the usage and
//! exits 0 without binding a port; `xbound-client --help` prints its usage
//! without connecting. An unknown option or command, or a missing or
//! malformed value, exits 2 before any network I/O.

use std::process::{Command, Output};

fn serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xbound-serve"))
        .args(args)
        .output()
        .expect("xbound-serve runs")
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = serve(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: xbound-serve"), "{stdout}");
        assert!(stdout.contains("--cache-dir DIR"), "{stdout}");
        assert!(!stdout.contains("listening"), "--help must not serve");
    }
}

#[test]
fn unknown_option_exits_2() {
    let out = serve(&["--no-such-option"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown option `--no-such-option`"),
        "{stderr}"
    );
}

fn client(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xbound-client"))
        .args(args)
        .output()
        .expect("xbound-client runs")
}

/// Asserts a status-2 client exit with one stderr line mentioning
/// `needle`. None of these command lines may reach the network: port 9
/// (discard) would turn an attempted connection into an exit-1 failure.
fn assert_client_rejected(args: &[&str], needle: &str) {
    let out = client(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}");
}

#[test]
fn client_help_prints_usage_and_exits_zero() {
    for args in [
        &["--help"][..],
        &["-h"],
        &["--port", "9", "suite", "--help"],
    ] {
        let out = client(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: xbound-client"), "{stdout}");
        assert!(stdout.contains("shutdown"), "{stdout}");
        assert!(out.stderr.is_empty(), "{args:?}");
    }
}

#[test]
fn client_bad_command_lines_exit_2() {
    assert_client_rejected(
        &["--port", "9", "frobnicate"],
        "unknown command `frobnicate`",
    );
    assert_client_rejected(&["--port", "9", "frob", "x"], "unknown command `frob`");
    assert_client_rejected(&["--port", "x", "stats"], "bad value `x` for --port");
    assert_client_rejected(&["--port", "9"], "missing command");
    assert_client_rejected(
        &["--port", "9", "stats", "--bogus"],
        "unknown option `--bogus`",
    );
    assert_client_rejected(
        &["--port", "9", "suite", "--corners", "4"],
        "--corners applies only to `sweep`",
    );
    assert_client_rejected(&["--port", "9", "stats", "--watch", "0"], "positive number");
    assert_client_rejected(&["--port", "9", "analyze"], "exactly one FILE.S");
    assert_client_rejected(
        &["--port", "9", "shutdown", "now"],
        "unexpected argument `now`",
    );
    assert_client_rejected(&["--port"], "--port needs a value");
}
