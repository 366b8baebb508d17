//! `sweep`: one operating-point sweep of the next suite program per op,
//! over `SweepSpec::suite_default()` — 8 corners, 2 base libraries, 4
//! derated libraries. Exploration is a small share of the op here, and
//! the per-library assignment and energy traces a large one.

use crate::report::Report;
use crate::spans::traced_passes;
use crate::staged::{self, sweep_line, Counts, Entry};
use crate::stats::{closed_loop, Op, SetupClock};
use crate::Args;
use std::time::Instant;
use xbound_core::{run_sweep, BoundsReport, SweepSpec, UlpSystem};

/// Runs the workload (see the module docs).
pub fn run(args: &Args, start: Instant) -> Result<Report, String> {
    let mut clock = SetupClock::new(start, args.trace);
    let mut build_ms = Vec::new();
    loop {
        let (system, entries) = staged::suite(&mut build_ms)?;
        let spec = SweepSpec::suite_default();
        let golden: Vec<&str> = staged::SWEEP.lines().collect();
        if golden.len() != entries.len() * spec.corners().len() {
            return Err("golden file does not list every corner of every program".to_string());
        }
        if clock.lap() {
            let golden: Vec<&[&str]> = golden.chunks(spec.corners().len()).collect();
            return if args.trace {
                Ok(traced(
                    args.seconds,
                    &system,
                    &spec,
                    &entries,
                    &golden,
                    &build_ms,
                ))
            } else {
                Ok(timed(args.seconds, &system, &spec, &entries, &golden).report(&clock))
            };
        }
    }
}

/// Whether `corners` are the golden lines of `entry`.
fn matches(
    entry: &Entry,
    corners: &Result<Vec<(String, BoundsReport)>, String>,
    want: &[&str],
) -> bool {
    corners.as_ref().is_ok_and(|c| {
        c.len() == want.len()
            && c.iter()
                .zip(want)
                .all(|((label, r), w)| sweep_line(entry.bench.name(), label, r) == *w)
    })
}

fn timed(
    seconds: u64,
    system: &UlpSystem,
    spec: &SweepSpec,
    entries: &[Entry],
    golden: &[&[&str]],
) -> crate::stats::Samples {
    closed_loop(seconds, entries.len(), usize::MAX, |i| {
        let k = i % entries.len();
        let e = &entries[k];
        let t0 = Instant::now();
        let sweep = run_sweep(
            system.cpu(),
            spec,
            &e.program,
            e.config,
            e.bench.energy_rounds(),
            0,
        );
        let latency = t0.elapsed();
        let corners = sweep
            .map(|s| {
                s.corners
                    .into_iter()
                    .map(|c| (c.corner.label(), c.report))
                    .collect()
            })
            .map_err(|err| err.to_string());
        Op {
            latency,
            ok: matches(e, &corners, golden[k]),
        }
    })
}

/// The traced run: each op untraced and then traced through the staged
/// calls (see [`traced_passes`]).
fn traced(
    seconds: u64,
    system: &UlpSystem,
    spec: &SweepSpec,
    entries: &[Entry],
    golden: &[&[&str]],
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
        matches(
            &entries[k],
            &staged::sweep(system, spec, &entries[k], t, c),
            golden[k],
        )
    });
    staged::layer_metrics(&run, &counts, build_ms)
}
