//! The suite every batch workload runs, its golden outputs, and the
//! staged public calls that replace `CoAnalysis::run` and `run_sweep` in
//! the traced runs.

use crate::report::Report;
use crate::spans::{TracedRun, Tracer};
use crate::stats::{median, ms};
use std::time::Instant;
use xbound_benchsuite::Benchmark;
use xbound_cells::CellLibrary;
use xbound_core::activity::ExploreStats;
use xbound_core::jsonout::JsonWriter;
use xbound_core::peak_power::{
    analyze_tree_energy, assign_tree, compose_peak_power, compute_peak_energy,
    merge_adjusted_frames, MaxTransitions,
};
use xbound_core::{BoundsReport, ExploreConfig, SweepSpec, SymbolicExplorer, UlpSystem};
use xbound_msp430::Program;
use xbound_power::PowerAnalyzer;

/// `suite_summary --bounds` output of the 14 programs at the nominal
/// corner.
pub const NOMINAL: &str = include_str!("../golden/nominal.txt");

/// `suite_summary --sweep --bounds` output: 8 corner lines per program,
/// programs in suite order.
pub const SWEEP: &str = include_str!("../golden/sweep.txt");

/// One suite program with the suite settings it is analyzed under.
#[derive(Debug, Clone)]
pub struct Entry {
    /// The benchmark.
    pub bench: &'static Benchmark,
    /// Its assembled image.
    pub program: Program,
    /// `ExploreConfig::suite_default()` plus its `widen_threshold`.
    pub config: ExploreConfig,
}

impl Entry {
    /// Assembles `bench` with the suite settings.
    pub fn new(bench: &'static Benchmark) -> Result<Entry, String> {
        Ok(Entry {
            bench,
            program: bench
                .program()
                .map_err(|e| format!("{}: {e}", bench.name()))?,
            config: config(bench),
        })
    }
}

/// The exploration settings `suite_summary` and the service use for `bench`.
pub fn config(bench: &Benchmark) -> ExploreConfig {
    ExploreConfig {
        widen_threshold: bench.widen_threshold(),
        ..ExploreConfig::suite_default()
    }
}

/// Builds the paper's evaluation system, recording how long it took.
pub fn build_system(build_ms: &mut Vec<f64>) -> Result<UlpSystem, String> {
    let t0 = Instant::now();
    let system = UlpSystem::openmsp430_class().map_err(|e| e.to_string())?;
    build_ms.push(ms(t0.elapsed()));
    Ok(system)
}

/// The system and all 14 programs, in suite order.
pub fn suite(build_ms: &mut Vec<f64>) -> Result<(UlpSystem, Vec<Entry>), String> {
    let system = build_system(build_ms)?;
    let entries = xbound_benchsuite::all()
        .iter()
        .map(Entry::new)
        .collect::<Result<Vec<_>, _>>()?;
    Ok((system, entries))
}

/// The canonical bound line of one corner of a sweep, as
/// `suite_summary --sweep --bounds` writes it.
pub fn sweep_line(name: &str, corner: &str, report: &BoundsReport) -> String {
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.field_str("name", name);
    w.key("bounds");
    report.write(&mut w);
    w.field_str("corner", corner);
    w.end_object();
    w.finish()
}

/// Work counted over the staged ops of a traced run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// `ExploreStats::cycles`.
    pub cycles: u64,
    /// `ExploreStats::forks`.
    pub forks: u64,
    /// `ExploreStats::merges`.
    pub merges: u64,
    /// `ExploreStats::widenings`.
    pub widenings: u64,
    /// Batched gate passes of the explorer.
    pub gate_passes: u64,
    /// Lane-cycles spent on in-flight branches.
    pub active_lane_cycles: u64,
    /// Lane-cycles spent idle.
    pub idle_lane_cycles: u64,
    /// Explorer steals.
    pub steals: u64,
    /// Explorer idle wake-ups.
    pub idle_wakeups: u64,
    /// Execution-tree segments.
    pub segments: u64,
    /// Max-transitions tables built (one per base library).
    pub tables_built: u64,
    /// Energy-trace sets built (one per derated library).
    pub trace_sets_built: u64,
    /// Corners that reused a trace set of another corner.
    pub trace_reuse_hits: u64,
    /// Tree cycles run through the gate-level energy analysis, summed
    /// over trace sets.
    pub energy_cycles: u64,
}

impl Counts {
    fn explored(&mut self, s: &ExploreStats, segments: usize) {
        self.cycles += s.cycles;
        self.forks += s.forks;
        self.merges += s.merges;
        self.widenings += s.widenings;
        self.gate_passes += s.batch.gate_passes;
        self.active_lane_cycles += s.batch.active_lane_cycles;
        self.idle_lane_cycles += s.batch.idle_lane_cycles;
        self.steals += s.batch.steals;
        self.idle_wakeups += s.batch.idle_wakeups;
        self.segments += segments as u64;
    }
}

/// One co-analysis as its staged public calls: Algorithm 1, then
/// Algorithm 2 in femtojoules, then peak energy.
pub fn analysis(
    system: &UlpSystem,
    entry: &Entry,
    t: &mut Tracer,
    counts: &mut Counts,
) -> Result<BoundsReport, String> {
    let cpu = system.cpu();
    let nl = cpu.netlist();
    let (tree, stats) = t
        .span("activity.explore", || {
            SymbolicExplorer::new(cpu, entry.config).explore(&entry.program)
        })
        .map_err(|e| e.to_string())?;
    let adjusted = t.span("peak_power.adjust", || merge_adjusted_frames(&tree));
    let table = t.span("peak_power.table", || {
        MaxTransitions::build(nl, system.library())
    });
    let assigned = t.span("peak_power.assign", || {
        assign_tree(nl, &tree, &adjusted, true, &table)
    });
    let analyzer = system.analyzer();
    let energy = t.span("power.energy", || analyze_tree_energy(&analyzer, &assigned));
    let peak = t.span("peak_power.compose", || {
        compose_peak_power(&tree, &analyzer, &energy)
    });
    let peak_energy = t.span("peak_power.peak_energy", || {
        compute_peak_energy(&tree, &peak, system.clock_hz(), entry.bench.energy_rounds())
    });
    let report = t.span("report", || {
        BoundsReport::from_parts(&tree, &stats, &peak, &peak_energy)
    });
    counts.explored(&stats, tree.segments().len());
    counts.energy_cycles += stats.cycles;
    t.span("free", move || {
        drop((tree, adjusted, assigned, energy, peak))
    });
    Ok(report)
}

/// One operating-point sweep as its staged public calls, grouped as
/// `run_sweep` groups them: the assignment once per base library, the
/// energy traces once per derated library, and the composition and peak
/// energy once per corner. Returns `(corner label, bounds)` in spec
/// order.
pub fn sweep(
    system: &UlpSystem,
    spec: &SweepSpec,
    entry: &Entry,
    t: &mut Tracer,
    counts: &mut Counts,
) -> Result<Vec<(String, BoundsReport)>, String> {
    let cpu = system.cpu();
    let nl = cpu.netlist();
    let (tree, stats) = t
        .span("activity.explore", || {
            SymbolicExplorer::new(cpu, entry.config).explore(&entry.program)
        })
        .map_err(|e| e.to_string())?;
    let adjusted = t.span("peak_power.adjust", || merge_adjusted_frames(&tree));
    let (bases, libs, lib_of) = t.span("sweep.group", || group(spec));
    let assigned: Vec<_> = bases
        .iter()
        .map(|base| {
            let table = t.span("peak_power.table", || MaxTransitions::build(nl, base));
            t.span("peak_power.assign", || {
                assign_tree(nl, &tree, &adjusted, true, &table)
            })
        })
        .collect();
    let energy: Vec<_> = libs
        .iter()
        .map(|(lib, base)| {
            t.span("power.energy", || {
                analyze_tree_energy(&PowerAnalyzer::new(nl, lib, 1.0), &assigned[*base])
            })
        })
        .collect();
    let mut out = Vec::with_capacity(spec.corners().len());
    for (corner, &lib) in spec.corners().iter().zip(&lib_of) {
        let analyzer = PowerAnalyzer::new(nl, &libs[lib].0, corner.clock_hz());
        let peak = t.span("peak_power.compose", || {
            compose_peak_power(&tree, &analyzer, &energy[lib])
        });
        let peak_energy = t.span("peak_power.peak_energy", || {
            compute_peak_energy(&tree, &peak, corner.clock_hz(), entry.bench.energy_rounds())
        });
        let report = t.span("report", || {
            (
                corner.label(),
                BoundsReport::from_parts(&tree, &stats, &peak, &peak_energy),
            )
        });
        out.push(report);
    }
    counts.explored(&stats, tree.segments().len());
    counts.tables_built += bases.len() as u64;
    counts.trace_sets_built += libs.len() as u64;
    counts.trace_reuse_hits += (out.len() - libs.len()) as u64;
    counts.energy_cycles += stats.cycles * libs.len() as u64;
    t.span("free", move || drop((tree, adjusted, assigned, energy)));
    Ok(out)
}

/// Distinct base libraries, distinct derated libraries (with the index
/// of their base), and each corner's derated-library index.
#[allow(clippy::type_complexity)]
fn group(spec: &SweepSpec) -> (Vec<CellLibrary>, Vec<(CellLibrary, usize)>, Vec<usize>) {
    let mut bases: Vec<CellLibrary> = Vec::new();
    let mut libs: Vec<(CellLibrary, usize)> = Vec::new();
    let mut lib_of = Vec::with_capacity(spec.corners().len());
    for c in spec.corners() {
        let base = match bases.iter().position(|b| b.name() == c.base().name()) {
            Some(i) => i,
            None => {
                bases.push(c.base().clone());
                bases.len() - 1
            }
        };
        let lib = c.library();
        let slot = match libs.iter().position(|(l, _)| l.name() == lib.name()) {
            Some(i) => i,
            None => {
                libs.push((lib, base));
                libs.len() - 1
            }
        };
        lib_of.push(slot);
    }
    (bases, libs, lib_of)
}

/// Per-layer metrics of a traced batch run: self time per op of each
/// layer, per-pass counts, and the tracing figures.
pub fn layer_metrics(run: &TracedRun, counts: &Counts, build_ms: &[f64]) -> Report {
    let t = &run.tracer;
    let mut r = run.report();
    let per_pass = |v: u64| v as f64 / run.passes.max(1) as f64;
    let ratio = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    let explore_ms = t.self_ms("activity.explore");
    let energy_ms = t.self_ms("power.energy");
    r.set("cpu.build_ms", median(build_ms));
    r.set("activity.explore_ms", t.per_op_ms("activity.explore"));
    r.set(
        "activity.us_per_cycle",
        ratio(explore_ms * 1e3, counts.cycles),
    );
    r.set("activity.cycles", per_pass(counts.cycles));
    r.set("activity.forks", per_pass(counts.forks));
    r.set("activity.merges", per_pass(counts.merges));
    r.set("activity.widenings", per_pass(counts.widenings));
    r.set("activity.gate_passes", per_pass(counts.gate_passes));
    r.set(
        "activity.lane_occupancy",
        ratio(
            counts.active_lane_cycles as f64,
            counts.active_lane_cycles + counts.idle_lane_cycles,
        ),
    );
    r.set("activity.steals", per_pass(counts.steals));
    r.set("activity.idle_wakeups", per_pass(counts.idle_wakeups));
    r.set("peak_power.adjust_ms", t.per_op_ms("peak_power.adjust"));
    r.set("peak_power.table_ms", t.per_op_ms("peak_power.table"));
    r.set("peak_power.assign_ms", t.per_op_ms("peak_power.assign"));
    r.set("power.energy_ms", t.per_op_ms("power.energy"));
    r.set(
        "power.us_per_cycle",
        ratio(energy_ms * 1e3, counts.energy_cycles),
    );
    r.set("peak_power.compose_ms", t.per_op_ms("peak_power.compose"));
    r.set(
        "peak_power.peak_energy_ms",
        t.per_op_ms("peak_power.peak_energy"),
    );
    r.set("peak_power.segments", per_pass(counts.segments));
    r.set("sweep.tables_built", per_pass(counts.tables_built));
    r.set("sweep.trace_sets_built", per_pass(counts.trace_sets_built));
    r.set("sweep.trace_reuse_hits", per_pass(counts.trace_reuse_hits));
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbound_core::run_sweep;

    /// The staged sweep computes `run_sweep`'s bounds byte for byte and
    /// counts its sharing tiers the way `SweepStats` does.
    #[test]
    fn staged_sweep_matches_run_sweep() {
        let (system, entries) = suite(&mut Vec::new()).expect("suite builds");
        let spec = SweepSpec::suite_default();
        let e = entries
            .iter()
            .find(|e| e.bench.name() == "tHold")
            .expect("tHold in the suite");
        let mut counts = Counts::default();
        let staged = sweep(&system, &spec, e, &mut Tracer::off(), &mut counts).expect("sweeps");
        let direct = run_sweep(
            system.cpu(),
            &spec,
            &e.program,
            e.config,
            e.bench.energy_rounds(),
            1,
        )
        .expect("sweeps");
        let lines = |v: Vec<(String, BoundsReport)>| -> Vec<String> {
            v.iter().map(|(l, r)| sweep_line("tHold", l, r)).collect()
        };
        let direct_lines = direct
            .corners
            .iter()
            .map(|c| sweep_line("tHold", &c.corner.label(), &c.report))
            .collect::<Vec<_>>();
        assert_eq!(lines(staged), direct_lines);
        assert_eq!(
            (
                counts.tables_built,
                counts.trace_sets_built,
                counts.trace_reuse_hits
            ),
            (
                direct.stats.tables_built,
                direct.stats.trace_sets_built,
                direct.stats.trace_reuse_hits
            )
        );
        assert_eq!(counts.cycles, direct.explore.cycles);
    }
}
