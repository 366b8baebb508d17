//! Operating-point sweeps: explore once, bound every corner — and the
//! one implementation of Algorithm 2 that every analysis runs.
//!
//! A peak-power/energy bound is per *(application, core, library, clock,
//! voltage)* — but Algorithm 1 (symbolic exploration) never reads the
//! library, clock, or voltage. The execution tree depends only on the
//! program and the netlist; the operating point enters solely at
//! Algorithm 2 ([`bound_tree`]) and the peak-energy value iteration
//! (where the clock sets the period). A bound-vs-operating-point curve
//! over N corners therefore costs ~1 exploration plus N cheap
//! composition passes, not N full analyses.
//!
//! [`bound_tree`] is Algorithm 2 for a list of corners; a single-corner
//! [`crate::CoAnalysis`] is a one-corner sweep through it. It shares
//! work by how far each intermediate is corner-invariant:
//!
//! * **once per tree** — the merge-adjusted frames (pure functions of the
//!   program and netlist);
//! * **once per (segment, base library)** — the segment's even/odd
//!   X-**assignment**: a voltage derate scales rise and fall energies by
//!   the same `(V/Vnom)²` factor, so it can never flip a cell's
//!   max-energy transition direction (see [`CellLibrary::derated`]), and
//!   the assignment reads the library only through the
//!   [`MaxTransitions`] table built once per base;
//! * **once per (segment, derated library)** — the gate-level **energy
//!   traces**: transition energies never read the clock, so corners
//!   differing only in clock share them.
//!
//! The work streams through the [`par`] worker pool as *(unit, base
//! library)* items, a unit being a run of consecutive segments whose
//! X-bearing cycle pairs fill at most one 64-pair stability block: each
//! item's assigned frames are dropped as soon as their energy traces
//! exist, so no whole-tree assignment is ever resident. Per
//! corner, all that remains is the exact femtojoule→milliwatt conversion
//! at that corner's clock, the bound composition, and the peak-energy
//! value iteration.
//!
//! **Byte-identity contract.** Every corner's [`BoundsReport`] from
//! [`run_sweep`] is byte-identical to an independent single-corner
//! [`crate::CoAnalysis`] run of the same program on a [`crate::UlpSystem`]
//! built from that corner's `(library(), clock_hz)` — at any `(threads,
//! lanes)` setting. Both run [`bound_tree`], and no corner's numbers
//! depend on which other corners share its work
//! (`crates/core/tests/sweep_differential.rs` pins this).

use crate::activity::{ExploreConfig, ExploreStats, SymbolicExplorer};
use crate::peak_power::{
    self, AssignPlan, MaxTransitions, PeakEnergyResult, PeakPowerResult, TreeEnergyTraces,
};
use crate::summary::BoundsReport;
use crate::tree::ExecutionTree;
use crate::{par, AnalysisError};
use std::ops::Range;
use std::time::Instant;
use xbound_cells::CellLibrary;
use xbound_cpu::Cpu;
use xbound_msp430::Program;
use xbound_netlist::Netlist;
use xbound_obs::{metrics, trace};
use xbound_power::PowerAnalyzer;

/// Registry mirrors of the sweep's reuse-tier telemetry, fed once per
/// [`run_sweep`] after the deterministic [`SweepStats`] are final.
struct SweepMetrics {
    sweeps: metrics::Counter,
    corners: metrics::Counter,
    tree_reuse_hits: metrics::Counter,
    tables_built: metrics::Counter,
    trace_sets_built: metrics::Counter,
    trace_reuse_hits: metrics::Counter,
}

fn sweep_metrics() -> &'static SweepMetrics {
    static M: std::sync::OnceLock<SweepMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| SweepMetrics {
        sweeps: metrics::counter("xbound_sweep_runs_total"),
        corners: metrics::counter("xbound_sweep_corners_total"),
        tree_reuse_hits: metrics::counter("xbound_sweep_tree_reuse_hits_total"),
        tables_built: metrics::counter("xbound_sweep_tables_built_total"),
        trace_sets_built: metrics::counter("xbound_sweep_trace_sets_built_total"),
        trace_reuse_hits: metrics::counter("xbound_sweep_trace_reuse_hits_total"),
    })
}

/// One operating point: a base library, a supply voltage, and a clock.
///
/// The voltage is stored against the *base* library and applied lazily
/// ([`Corner::library`]), so a sweep can group corners by base library
/// when sharing max-transitions tables. At the base library's nominal
/// voltage the derate is the identity — the corner keys and caches
/// exactly like the base library.
#[derive(Debug, Clone)]
pub struct Corner {
    base: CellLibrary,
    vdd_v: f64,
    clock_hz: f64,
}

impl Corner {
    /// A corner at an explicit supply voltage (volts, absolute).
    pub fn new(base: CellLibrary, vdd_v: f64, clock_hz: f64) -> Corner {
        Corner {
            base,
            vdd_v,
            clock_hz,
        }
    }

    /// A corner at the base library's nominal voltage.
    pub fn nominal(base: CellLibrary, clock_hz: f64) -> Corner {
        let vdd_v = base.voltage_v();
        Corner::new(base, vdd_v, clock_hz)
    }

    /// The base (nominal-voltage) library.
    pub fn base(&self) -> &CellLibrary {
        &self.base
    }

    /// Supply voltage, volts.
    pub fn vdd_v(&self) -> f64 {
        self.vdd_v
    }

    /// Operating clock, hertz.
    pub fn clock_hz(&self) -> f64 {
        self.clock_hz
    }

    /// The (possibly derated) library this corner analyzes under — what a
    /// direct single-corner [`crate::UlpSystem`] would be built from.
    pub fn library(&self) -> CellLibrary {
        self.base.derated(self.vdd_v)
    }

    /// Canonical corner label, `<library>@<MHz>MHz` — the derated library
    /// name already encodes the voltage (e.g. `ulp65@0.9v@50MHz`), and
    /// the nominal corner reads as the bare base (`ulp65@100MHz`).
    pub fn label(&self) -> String {
        format!("{}@{}MHz", self.library().name(), self.clock_hz / 1e6)
    }
}

/// An ordered list of operating-point corners.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    corners: Vec<Corner>,
}

impl SweepSpec {
    /// A sweep over an explicit corner list (order is preserved in every
    /// result).
    pub fn new(corners: Vec<Corner>) -> SweepSpec {
        SweepSpec { corners }
    }

    /// The cross product `bases × vdd_scales × clocks`, in that nesting
    /// order. `vdd_scales` are relative to each base's nominal voltage
    /// (`1.0` = nominal), so one grid spans libraries with different
    /// nominal supplies.
    pub fn grid(bases: &[CellLibrary], vdd_scales: &[f64], clocks_hz: &[f64]) -> SweepSpec {
        let mut corners = Vec::with_capacity(bases.len() * vdd_scales.len() * clocks_hz.len());
        for base in bases {
            for &s in vdd_scales {
                for &clock_hz in clocks_hz {
                    corners.push(Corner::new(base.clone(), base.voltage_v() * s, clock_hz));
                }
            }
        }
        SweepSpec { corners }
    }

    /// The default 8-corner grid of the drivers and the service: each
    /// embedded library at nominal and 0.9× supply, at its class clock
    /// and half of it. The first corner is the paper's evaluation target
    /// (ulp65, 1.0 V, 100 MHz) — the corner CI byte-diffs against a plain
    /// single-corner run.
    pub fn suite_default() -> SweepSpec {
        let mut corners =
            SweepSpec::grid(&[CellLibrary::ulp65()], &[1.0, 0.9], &[100.0e6, 50.0e6]).corners;
        corners.extend(
            SweepSpec::grid(&[CellLibrary::ulp130()], &[1.0, 0.9], &[8.0e6, 4.0e6]).corners,
        );
        SweepSpec { corners }
    }

    /// The first `n` corners (`0` = all) — the drivers' `--sweep-corners`
    /// truncation knob.
    pub fn truncated(mut self, n: usize) -> SweepSpec {
        if n > 0 {
            self.corners.truncate(n);
        }
        self
    }

    /// The corners, in sweep order.
    pub fn corners(&self) -> &[Corner] {
        &self.corners
    }
}

/// Sweep telemetry: how much work the corners shared.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepStats {
    /// Corners answered.
    pub corners: u64,
    /// Corners that reused the shared exploration instead of exploring
    /// themselves — every corner after the first, per sweep.
    pub tree_reuse_hits: u64,
    /// Max-transitions tables built — and with each, one even/odd
    /// X-assignment per segment (one per distinct base library).
    pub tables_built: u64,
    /// Gate-level energy-trace sets built (one per distinct derated
    /// library; corners differing only in clock share one).
    pub trace_sets_built: u64,
    /// Corners that converted a shared energy-trace set at their own
    /// clock instead of re-running the gate-level analysis.
    pub trace_reuse_hits: u64,
    /// Wall-clock of the one shared exploration, seconds.
    pub explore_seconds: f64,
}

/// One corner's result: the corner, its canonical bounds, and its
/// composition wall-clock.
#[derive(Debug, Clone)]
pub struct CornerResult {
    /// The operating point.
    pub corner: Corner,
    /// Canonical bounds — byte-identical (via
    /// [`BoundsReport::to_json`]) to a direct single-corner run.
    pub report: BoundsReport,
    /// Wall-clock of this corner's own passes, seconds (see
    /// [`CornerBound::seconds`]).
    pub seconds: f64,
}

/// One corner's Algorithm 2 and peak-energy result (see [`bound_tree`]).
#[derive(Debug, Clone)]
pub struct CornerBound {
    /// The peak-power bound.
    pub peak: PeakPowerResult,
    /// The peak-energy bound.
    pub energy: PeakEnergyResult,
    /// Wall-clock of this corner's own passes — trace conversion, bound
    /// composition and peak energy — seconds. Excludes the assignment
    /// and energy analysis it shares with other corners.
    pub seconds: f64,
}

/// How a spec's corners share Algorithm 2 work: the distinct base
/// libraries (one max-transitions table and one assignment per segment
/// each; derates share their base's table, and the assignment reads the
/// library only through it), the distinct derated libraries with the
/// index of their base (one energy-trace set each: transition energies
/// never read the clock), and each corner's derated-library index.
struct Groups<'s> {
    bases: Vec<&'s CellLibrary>,
    libs: Vec<(CellLibrary, usize)>,
    lib_of: Vec<usize>,
}

impl<'s> Groups<'s> {
    fn of(spec: &'s SweepSpec) -> Groups<'s> {
        let mut bases: Vec<&CellLibrary> = Vec::new();
        let mut libs: Vec<(CellLibrary, usize)> = Vec::new();
        let mut lib_of = Vec::with_capacity(spec.corners().len());
        for c in spec.corners() {
            let base = match bases.iter().position(|b| b.name() == c.base().name()) {
                Some(i) => i,
                None => {
                    bases.push(c.base());
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
        Groups {
            bases,
            libs,
            lib_of,
        }
    }
}

/// Algorithm 2 and the peak-energy pass for every corner of `spec` over
/// one explored `tree` — the single implementation behind both
/// [`crate::CoAnalysis::run`] (a one-corner spec) and [`run_sweep`].
/// Results are in spec order.
///
/// The work streams per *(unit, base library)* item, fanned out over
/// `threads` workers (`0` = auto, see [`par::resolve_threads`]) in index
/// order. A unit is a run of consecutive segments holding at most 64
/// X-bearing cycle pairs (a longer segment is a unit of its own), so
/// that short segments share the block stability kernel
/// ([`peak_power::BlockStability`]); units are grouped from the pair
/// counts alone. Each item assigns its segments' even and odd frames
/// once, analyzes them into clock-free [`xbound_power::EnergyTrace`]s
/// under each derated library of that base, and drops the frames.
/// Keeping the base in the item keeps every worker busy on
/// single-segment programs too. Per corner, the traces of its library
/// are converted at its clock and composed into the bound
/// ([`peak_power::compose_peak_power`]), then the peak energy follows
/// ([`peak_power::compute_peak_energy`]).
///
/// Each corner's [`CornerBound`] goes to `finish(corner index, bound)`
/// as soon as it exists, and only what `finish` returns is kept, so a
/// sweep that needs one [`BoundsReport`] per corner never holds every
/// corner's per-cycle traces at once.
///
/// `use_stability = false` is the ablation of the stability refinement
/// (the paper's literal maximizing assignment).
#[allow(clippy::too_many_arguments)]
pub fn bound_tree<R: Send>(
    nl: &Netlist,
    tree: &ExecutionTree,
    spec: &SweepSpec,
    use_stability: bool,
    energy_rounds: u64,
    threads: usize,
    finish: impl Fn(usize, CornerBound) -> R + Sync,
) -> Vec<R> {
    let _span = trace::span_args("peak_power_compose", || {
        vec![
            ("corners".to_string(), spec.corners().len().to_string()),
            ("segments".to_string(), tree.segments().len().to_string()),
        ]
    });
    let groups = Groups::of(spec);
    let adjusted = peak_power::merge_adjusted_frames(tree);
    let tables: Vec<MaxTransitions> = groups
        .bases
        .iter()
        .map(|base| MaxTransitions::build(nl, base))
        .collect();
    // Any positive clock works: the energy stage never reads it.
    let analyzers: Vec<PowerAnalyzer> = groups
        .libs
        .iter()
        .map(|(lib, _)| PowerAnalyzer::new(nl, lib, 1.0))
        .collect();
    let plan = AssignPlan::new(nl, tree, &adjusted, use_stability);
    let items: Vec<(Range<usize>, usize)> = plan
        .units()
        .into_iter()
        .flat_map(|unit| (0..tables.len()).map(move |b| (unit.clone(), b)))
        .collect();
    // Per item: each segment's (even, odd) energy traces under each
    // derated library of the item's base, tagged with the library's
    // index, in segment order.
    let unit_traces = par::par_map(threads, items, |_, (unit, b)| {
        let libs: Vec<usize> = (0..groups.libs.len())
            .filter(|&l| groups.libs[l].1 == b)
            .collect();
        let segments: Vec<usize> = unit.collect();
        let assigned = plan.assign(&segments, &tables[b]);
        let _span = trace::span("alg2_energy");
        assigned
            .iter()
            .flat_map(|(even, odd)| {
                libs.iter().map(|&l| {
                    let traces = peak_power::analyze_segment_energy(&analyzers[l], even, odd);
                    (l, traces)
                })
            })
            .collect::<Vec<_>>()
    });
    // The per-corner stage reads only the energy traces.
    drop(adjusted);
    let mut sets: Vec<TreeEnergyTraces> = analyzers
        .iter()
        .map(|_| TreeEnergyTraces {
            even: Vec::with_capacity(tree.segments().len()),
            odd: Vec::with_capacity(tree.segments().len()),
        })
        .collect();
    for (l, (even, odd)) in unit_traces.into_iter().flatten() {
        sets[l].even.push(even);
        sets[l].odd.push(odd);
    }
    par::par_map(
        threads,
        spec.corners().iter().zip(&groups.lib_of).collect(),
        |i, (corner, &l)| {
            let _span = trace::span_args("sweep_corner", || {
                vec![("corner".to_string(), corner.label())]
            });
            let t0 = Instant::now();
            let analyzer = PowerAnalyzer::new(nl, &groups.libs[l].0, corner.clock_hz());
            let peak = peak_power::compose_peak_power(tree, &analyzer, &sets[l]);
            let energy =
                peak_power::compute_peak_energy(tree, &peak, corner.clock_hz(), energy_rounds);
            let bound = CornerBound {
                peak,
                energy,
                seconds: t0.elapsed().as_secs_f64(),
            };
            finish(i, bound)
        },
    )
}

/// The result of one sweep: per-corner bounds in spec order, the shared
/// exploration's statistics, and the reuse telemetry.
#[derive(Debug, Clone)]
pub struct SweepAnalysis {
    /// Per-corner results, in [`SweepSpec`] order.
    pub corners: Vec<CornerResult>,
    /// Statistics of the one shared exploration (corner-invariant).
    pub explore: ExploreStats,
    /// Reuse telemetry.
    pub stats: SweepStats,
}

/// Runs one sweep: explores `program` once on `cpu`, then bounds every
/// corner of `spec` from the shared tree through [`bound_tree`], whose
/// (unit, base library) fan-out runs on `threads` workers (`0` = auto
/// via [`par::resolve_threads`]).
///
/// `config.lanes` governs the shared exploration exactly as in
/// [`crate::CoAnalysis`]; `threads` governs only Algorithm 2.
/// Callers already running inside a worker pool should pass `threads = 1`
/// ("one layer of parallelism at a time").
///
/// # Errors
///
/// Propagates exploration errors ([`AnalysisError`]); the per-corner
/// passes are infallible.
pub fn run_sweep(
    cpu: &Cpu,
    spec: &SweepSpec,
    program: &Program,
    config: ExploreConfig,
    energy_rounds: u64,
    threads: usize,
) -> Result<SweepAnalysis, AnalysisError> {
    let _span = trace::span_args("sweep", || {
        vec![("corners".to_string(), spec.corners().len().to_string())]
    });
    let t_explore = Instant::now();
    let (tree, explore) = SymbolicExplorer::new(cpu, config).explore(program)?;
    let explore_seconds = t_explore.elapsed().as_secs_f64();
    let corners = bound_tree(
        cpu.netlist(),
        &tree,
        spec,
        true,
        energy_rounds,
        threads,
        |i, b| CornerResult {
            corner: spec.corners()[i].clone(),
            report: BoundsReport::from_parts(&tree, &explore, &b.peak, &b.energy),
            seconds: b.seconds,
        },
    );
    let groups = Groups::of(spec);
    let stats = SweepStats {
        corners: corners.len() as u64,
        tree_reuse_hits: corners.len().saturating_sub(1) as u64,
        tables_built: groups.bases.len() as u64,
        trace_sets_built: groups.libs.len() as u64,
        trace_reuse_hits: (corners.len() - groups.libs.len()) as u64,
        explore_seconds,
    };
    // Mirror the reuse tiers into the global registry (once per sweep).
    let sm = sweep_metrics();
    sm.sweeps.inc();
    sm.corners.add(stats.corners);
    sm.tree_reuse_hits.add(stats.tree_reuse_hits);
    sm.tables_built.add(stats.tables_built);
    sm.trace_sets_built.add(stats.trace_sets_built);
    sm.trace_reuse_hits.add(stats.trace_reuse_hits);
    Ok(SweepAnalysis {
        corners,
        explore,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_crosses_in_order_and_truncates() {
        let spec = SweepSpec::grid(&[CellLibrary::ulp65()], &[1.0, 0.9], &[100.0e6, 50.0e6]);
        let labels: Vec<String> = spec.corners().iter().map(Corner::label).collect();
        assert_eq!(
            labels,
            [
                "ulp65@100MHz",
                "ulp65@50MHz",
                "ulp65@0.9v@100MHz",
                "ulp65@0.9v@50MHz",
            ]
        );
        assert_eq!(spec.clone().truncated(3).corners().len(), 3);
        assert_eq!(spec.clone().truncated(0).corners().len(), 4);
    }

    #[test]
    fn suite_default_grid_leads_with_the_paper_target() {
        let spec = SweepSpec::suite_default();
        assert_eq!(spec.corners().len(), 8);
        let first = &spec.corners()[0];
        assert_eq!(first.library().name(), "ulp65");
        assert_eq!(first.clock_hz(), 100.0e6);
        assert_eq!(first.label(), "ulp65@100MHz");
        // Exactly two distinct base libraries → two shared tables.
        let distinct: std::collections::BTreeSet<&str> =
            spec.corners().iter().map(|c| c.base().name()).collect();
        assert_eq!(distinct.len(), 2);
    }

    #[test]
    fn nominal_corner_library_is_the_base_library() {
        let c = Corner::nominal(CellLibrary::ulp65(), 100.0e6);
        assert_eq!(c.library(), *c.base());
    }
}
