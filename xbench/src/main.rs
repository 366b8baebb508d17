//! The xbound benchmark: four seeded, closed-loop workloads driven
//! through the public API, with every op's output checked.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path xbench/Cargo.toml -- \
//!     --workload cold-suite --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` a separate traced
//! run reports the per-layer ones. See `README.md` for what each
//! workload and metric is for.

mod cold_suite;
mod edit_serve;
mod edits;
mod report;
mod spans;
mod staged;
mod stats;
mod sweep;
mod validate;
#[cfg(test)]
mod workload_tests;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Environment knobs the library resolves on first use. Removed before
/// anything reads them so no run inherits a shell's settings.
const KNOBS: [&str; 8] = [
    "XBOUND_THREADS",
    "XBOUND_LANES",
    "XBOUND_EXPLORE_LANES",
    "XBOUND_SPECULATION_WINDOW",
    "XBOUND_SIM_ENGINE",
    "XBOUND_MEMO",
    "XBOUND_TRACE",
    "XBOUND_LOG",
];

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Memo-less co-analysis of every suite program, in suite order.
    ColdSuite,
    /// An 8-corner operating-point sweep of every suite program.
    Sweep,
    /// Soundness validation of every suite program against 32 inputs.
    Validate,
    /// One-instruction edits analyzed by an in-process daemon over TCP.
    EditServe,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold-suite" => Some(Workload::ColdSuite),
            "sweep" => Some(Workload::Sweep),
            "validate" => Some(Workload::Validate),
            "edit-serve" => Some(Workload::EditServe),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ColdSuite => "cold-suite",
            Workload::Sweep => "sweep",
            Workload::Validate => "validate",
            Workload::EditServe => "edit-serve",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of every generated input (validate inputs, edits).
    pub seed: u64,
    /// How long the timed phase measures, seconds.
    pub seconds: u64,
    /// `true` for the separate traced run (per-layer metrics).
    pub trace: bool,
}

const USAGE: &str = "usage: xbench --workload <cold-suite|sweep|validate|edit-serve> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}` needs a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => {
                let s = number()?;
                if !(1..=60).contains(&s) {
                    return Err(format!("`--seconds` must be 1 to 60, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` must be 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing `--workload`")?,
        seed: seed.ok_or("missing `--seed`")?,
        seconds: seconds.ok_or("missing `--seconds`")?,
        trace: trace.ok_or("missing `--trace`")?,
    })
}

/// Clears the library's environment knobs and points its result and
/// cache directories at a fresh, empty directory of this run, so no run
/// inherits a warm store.
fn hermetic_env(args: &Args) -> Result<PathBuf, String> {
    for knob in KNOBS {
        std::env::remove_var(knob);
    }
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos());
    let dir = PathBuf::from(".xbench").join(format!(
        "{}-s{}-t{}-{}-{nanos}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        std::process::id()
    ));
    std::fs::create_dir_all(dir.parent().expect("run dir has a parent"))
        .and_then(|()| std::fs::create_dir(&dir))
        .map_err(|e| format!("cannot create run directory {}: {e}", dir.display()))?;
    std::env::set_var("XBOUND_RESULTS_DIR", &dir);
    std::env::set_var("XBOUND_CACHE_DIR", &dir);
    Ok(dir)
}

/// The commit the checkout was made from, read from `.git` when there is
/// one (`unknown` otherwise).
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The run stamp: everything two runs must share to be comparable.
fn stamp(args: &Args) -> String {
    use xbound_core::{jsonout::JsonWriter, par};
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.field_str("workload", args.workload.name());
    w.field_u64("seed", args.seed);
    w.field_u64("seconds", args.seconds);
    w.field_bool("trace", args.trace);
    w.field_u64(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
    );
    w.field_u64("threads", par::resolve_threads(0) as u64);
    w.field_u64("lanes", par::resolve_lanes(0) as u64);
    w.field_u64("explore_lanes", par::resolve_explore_lanes(0) as u64);
    w.field_str("engine", xbound_core::sim_engine_name());
    w.field_str("rustc", env!("XBENCH_RUSTC"));
    w.field_str("git_rev", &git_rev());
    w.end_object();
    w.finish()
}

fn run(args: &Args, start: Instant) -> Result<Report, String> {
    match args.workload {
        Workload::ColdSuite => cold_suite::run(args, start),
        Workload::Sweep => sweep::run(args, start),
        Workload::Validate => validate::run(args, start),
        Workload::EditServe => edit_serve::run(args, start),
    }
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = match hermetic_env(&args) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("xbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("stamp {}", stamp(&args));
    match run(&args, start) {
        Ok(mut report) => {
            if !args.trace {
                report.set("peak_rss_mb", stats::peak_rss_mb());
            }
            if let Some(spans) = &report.spans {
                let path = dir.join("spans.json");
                if let Err(e) = std::fs::write(&path, spans) {
                    eprintln!("xbench: cannot write {}: {e}", path.display());
                }
            }
            for line in &report.notes {
                println!("{line}");
            }
            let list: &[_] = if args.trace {
                &report::PER_LAYER
            } else {
                &report::END_TO_END
            };
            println!("{}", report.to_json(list));
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xbench: {} failed: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn command_line_is_strict() {
        let a = args("--workload edit-serve --seed 7 --seconds 20 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::EditServe);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20, true));
        for bad in [
            "--workload nope --seed 1",
            "--workload sweep --seed x",
            "--workload sweep --seed 1 --seconds 20",
            "--workload sweep --seed 1 --seconds 0 --trace 0",
            "--workload sweep --seed 1 --seconds 5 --trace 2",
            "--workload sweep --seed 1 --seconds 5 --trace 0 --extra 1",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }
}
