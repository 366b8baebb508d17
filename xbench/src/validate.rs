//! `validate`: set-up analyzes the 14 programs once; an op validates one
//! program's analysis against one seeded group of 32 concrete runs
//! (toggle superset and power dominance per run). Algorithms 1 and 2 do
//! no timed work here; the batched concrete engine and the checks do it
//! all.

use crate::report::Report;
use crate::spans::{traced_passes, Tracer};
use crate::staged::{self, Entry};
use crate::stats::{closed_loop, median, Op, SetupClock};
use crate::Args;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use xbound_core::validate::ConcreteRunCheck;
use xbound_core::{Analysis, CoAnalysis, UlpSystem};

/// Concrete runs per op: one full lane group.
pub const LANE_GROUP: usize = 32;

/// One seeded lane group of inputs per suite program, in suite order.
pub fn inputs(seed: u64, entries: &[Entry]) -> Vec<Vec<Vec<u16>>> {
    let mut rng = StdRng::seed_from_u64(seed);
    entries
        .iter()
        .map(|e| {
            (0..LANE_GROUP)
                .map(|_| e.bench.gen_inputs(&mut rng))
                .collect()
        })
        .collect()
}

/// Runs the workload (see the module docs).
pub fn run(args: &Args, start: Instant) -> Result<Report, String> {
    let mut clock = SetupClock::new(start, args.trace);
    let mut build_ms = Vec::new();
    loop {
        let (system, entries) = staged::suite(&mut build_ms)?;
        let inputs = inputs(args.seed, &entries);
        let analyses = entries
            .iter()
            .map(|e| {
                CoAnalysis::new(&system)
                    .config(e.config)
                    .energy_rounds(e.bench.energy_rounds())
                    .run(&e.program)
                    .map_err(|err| format!("{}: {err}", e.bench.name()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if clock.lap() {
            let work = Work {
                system: &system,
                entries: &entries,
                inputs: &inputs,
                analyses: &analyses,
            };
            return if args.trace {
                Ok(work.traced(args.seconds, &build_ms))
            } else {
                Ok(work.timed(args.seconds).report(&clock))
            };
        }
    }
}

/// The state an op reads.
struct Work<'a, 's> {
    system: &'a UlpSystem,
    entries: &'a [Entry],
    inputs: &'a [Vec<Vec<u16>>],
    analyses: &'a [Analysis<'s>],
}

/// Concrete lane-cycles and sound runs counted by the staged op.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts {
    /// Lane-cycles simulated, summed over runs.
    pub concrete_cycles: u64,
    /// Runs found sound.
    pub sound_runs: u64,
}

impl Work<'_, '_> {
    fn timed(&self, seconds: u64) -> crate::stats::Samples {
        closed_loop(seconds, self.entries.len(), usize::MAX, |i| {
            let k = i % self.entries.len();
            let e = &self.entries[k];
            let t0 = Instant::now();
            let checks = self.analyses[k].validate_population(
                &e.program,
                &self.inputs[k],
                e.bench.max_concrete_cycles(),
                0,
                0,
            );
            let latency = t0.elapsed();
            Op {
                latency,
                ok: checks.is_ok_and(|c| {
                    c.len() == LANE_GROUP && c.iter().all(ConcreteRunCheck::is_sound)
                }),
            }
        })
    }

    /// `validate_population` as its staged public calls: the batched
    /// concrete population, then each run's superset and dominance check.
    /// Returns whether every run was sound.
    fn staged(&self, k: usize, t: &mut Tracer, counts: &mut Counts) -> Result<bool, String> {
        let e = &self.entries[k];
        let a = &self.analyses[k];
        let runs = t
            .span("sim.population", || {
                self.system.profile_concrete_population(
                    &e.program,
                    &self.inputs[k],
                    e.bench.max_concrete_cycles(),
                    0,
                    0,
                )
            })
            .map_err(|err| err.to_string())?;
        let mut sound = runs.len() == LANE_GROUP;
        for (frames, trace) in &runs {
            let check = ConcreteRunCheck {
                superset: t.span("validate.superset", || a.check_superset(frames)),
                dominance: t.span("validate.dominance", || a.check_dominance(frames, trace)),
            };
            counts.concrete_cycles += trace.cycles() as u64;
            counts.sound_runs += u64::from(check.is_sound());
            sound &= check.is_sound();
        }
        t.span("free", move || drop(runs));
        Ok(sound)
    }

    /// The traced run: each op untraced and then traced through the
    /// staged calls (see [`traced_passes`]).
    fn traced(&self, seconds: u64, build_ms: &[f64]) -> Report {
        let mut counts = Counts::default();
        let run = traced_passes(seconds, self.entries.len(), |k, t| {
            let mut unrecorded = Counts::default();
            let c = if t.is_on() {
                &mut counts
            } else {
                &mut unrecorded
            };
            self.staged(k, t, c) == Ok(true)
        });
        let t = &run.tracer;
        let mut r = run.report();
        let per_pass = |v: u64| v as f64 / run.passes as f64;
        r.set("cpu.build_ms", median(build_ms));
        r.set("sim.population_ms", t.per_op_ms("sim.population"));
        r.set("sim.concrete_cycles", per_pass(counts.concrete_cycles));
        r.set(
            "sim.ns_per_lane_cycle",
            t.self_ms("sim.population") * 1e6 / counts.concrete_cycles.max(1) as f64,
        );
        r.set("validate.superset_ms", t.per_op_ms("validate.superset"));
        r.set("validate.dominance_ms", t.per_op_ms("validate.dominance"));
        r.set("validate.sound_runs", per_pass(counts.sound_runs));
        r
    }
}
