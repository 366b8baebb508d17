//! The command-line parser every front end shares (`suite_summary`,
//! `experiments`, `xbound-serve`, `xbound-client`, `trace_check`).
//!
//! One convention for all of them:
//!
//! * `-h` or `--help` anywhere prints the usage and exits 0;
//! * bad input — an unknown option or command, a missing or malformed
//!   value — prints one stderr line and exits 2, never a panic, and
//!   before any analysis runs, any file is written or any connection is
//!   made;
//! * failures at run time (an unreachable daemon, a bad trace) are the
//!   front end's own business and exit 1.

/// The process arguments (program name skipped) of one front end.
///
/// Iterating yields the arguments in order, except that `-h`/`--help`
/// prints the usage and exits 0 wherever it appears.
#[derive(Debug)]
pub struct Args {
    tool: &'static str,
    usage: String,
    rest: std::env::Args,
}

impl Args {
    /// The arguments of this process. `tool` names the front end in its
    /// error lines; `usage` is printed for `-h`/`--help`.
    pub fn from_env(tool: &'static str, usage: impl Into<String>) -> Args {
        let mut rest = std::env::args();
        rest.next();
        Args {
            tool,
            usage: usage.into(),
            rest,
        }
    }

    /// Prints `msg` as a one-line error and exits with status 2 (bad
    /// command line).
    pub fn fail(&self, msg: &str) -> ! {
        crate::error!(self.tool, "{msg} (see --help)");
        std::process::exit(2);
    }

    /// The value following `flag`; fails when the command line ends.
    pub fn value(&mut self, flag: &str) -> String {
        match self.rest.next() {
            Some(v) => v,
            None => self.fail(&format!("{flag} needs a value")),
        }
    }

    /// The numeric value following `flag`; fails when it is missing or
    /// does not parse as a `T` (for the unsigned types: a non-negative
    /// integer in range).
    pub fn number<T: std::str::FromStr>(&mut self, flag: &str) -> T {
        let v = self.value(flag);
        v.parse()
            .unwrap_or_else(|_| self.fail(&format!("bad value `{v}` for {flag}")))
    }
}

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        let a = self.rest.next()?;
        if a == "-h" || a == "--help" {
            print!("{}", self.usage);
            std::process::exit(0);
        }
        Some(a)
    }
}
