//! `xbound-serve` front end: `--help` prints the usage and exits 0
//! without binding a port; an unknown option still exits 2.

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
