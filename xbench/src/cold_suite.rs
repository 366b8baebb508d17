//! `cold-suite`: one memo-less co-analysis of the next suite program per
//! op, all 14 programs in suite order — the paper's unit of work.

use crate::report::Report;
use crate::spans::traced_passes;
use crate::staged::{self, Counts, Entry};
use crate::stats::{closed_loop, Op, SetupClock};
use crate::Args;
use std::time::Instant;
use xbound_core::summary::bounds_line;
use xbound_core::{BoundsReport, CoAnalysis, UlpSystem};

/// Runs the workload (see the module docs).
pub fn run(args: &Args, start: Instant) -> Result<Report, String> {
    let mut clock = SetupClock::new(start, args.trace);
    let mut build_ms = Vec::new();
    loop {
        let (system, entries) = staged::suite(&mut build_ms)?;
        let golden: Vec<&str> = staged::NOMINAL.lines().collect();
        if golden.len() != entries.len() {
            return Err("golden file does not list every suite program".to_string());
        }
        if clock.lap() {
            return if args.trace {
                Ok(traced(args.seconds, &system, &entries, &golden, &build_ms))
            } else {
                Ok(timed(args.seconds, &system, &entries, &golden).report(&clock))
            };
        }
    }
}

fn line(entry: &Entry, report: &Result<BoundsReport, String>) -> String {
    match report {
        Ok(r) => bounds_line(entry.bench.name(), r),
        Err(e) => format!("{}: {e}", entry.bench.name()),
    }
}

fn timed(
    seconds: u64,
    system: &UlpSystem,
    entries: &[Entry],
    golden: &[&str],
) -> crate::stats::Samples {
    closed_loop(seconds, entries.len(), usize::MAX, |i| {
        let k = i % entries.len();
        let e = &entries[k];
        let t0 = Instant::now();
        let report = CoAnalysis::new(system)
            .config(e.config)
            .energy_rounds(e.bench.energy_rounds())
            .run(&e.program)
            .map(|a| BoundsReport::from_analysis(&a))
            .map_err(|err| err.to_string());
        let latency = t0.elapsed();
        Op {
            latency,
            ok: line(e, &report) == golden[k],
        }
    })
}

/// The traced run: each op untraced and then traced through the staged
/// calls (see [`traced_passes`]).
fn traced(
    seconds: u64,
    system: &UlpSystem,
    entries: &[Entry],
    golden: &[&str],
    build_ms: &[f64],
) -> Report {
    let mut counts = Counts::default();
    let run = traced_passes(seconds, entries.len(), |k, t| {
        let mut unrecorded = Counts::default();
        let c = if t.is_on() {
            &mut counts
        } else {
            &mut unrecorded
        };
        line(&entries[k], &staged::analysis(system, &entries[k], t, c)) == golden[k]
    });
    staged::layer_metrics(&run, &counts, build_ms)
}
