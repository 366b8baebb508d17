//! The paper's contribution: application-specific, input-independent peak
//! power and energy bounds via gate-level symbolic simulation.
//!
//! * [`activity`] — Algorithm 1 (symbolic exploration → execution tree);
//! * [`peak_power`] — Algorithm 2 (even/odd X assignment → per-cycle bound);
//! * [`sweep`] — [`bound_tree`], the one Algorithm 2 path over any list of
//!   operating-point corners (a single-corner analysis is a one-corner
//!   sweep);
//! * [`coi`] — cycles-of-interest: culprit instructions + module breakdown;
//! * [`optimize`] — the three peak-power software optimizations (§5.1);
//! * [`validate`] — toggle-superset and power-dominance checks (§3.4).
//!
//! The high-level entry point is [`CoAnalysis`]:
//!
//! ```
//! use xbound_core::{CoAnalysis, UlpSystem};
//! use xbound_msp430::assemble;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let system = UlpSystem::openmsp430_class()?;
//! let program = assemble(
//!     r#"
//!     main:
//!         mov &0x0020, r4   ; input port -> X during analysis
//!         add r4, r4
//!         mov r4, &0x0200
//!         jmp $
//!     "#,
//! )?;
//! let analysis = CoAnalysis::new(&system).run(&program)?;
//! let peak = analysis.peak_power();
//! assert!(peak.peak_mw > 0.0);
//! // The bound holds for every input:
//! for input in [0u16, 1, 0xFFFF] {
//!     let (frames, trace) = system.profile_concrete(&program, &[input], 10_000)?;
//!     assert!(trace.peak_mw() <= peak.peak_mw + 1e-9);
//!     let sup = analysis.check_superset(&frames);
//!     assert!(sup.is_sound());
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod activity;
pub mod coi;
pub mod memo;
pub mod optimize;
pub mod outdirs;
pub mod par;
pub mod peak_power;
pub mod summary;
pub mod sweep;
pub mod tree;
pub mod validate;

// The canonical JSON reader/writer moved down into the observability
// layer (the workspace's new bottom crate) so instrumented crates can
// serialize metrics without depending on `xbound_core`. Re-exported here
// because every producer of canonical artifacts historically reached
// them as `xbound_core::jsonout` / `xbound_core::jsonin`.
pub use xbound_obs::{jsonin, jsonout};

use std::fmt;
use std::sync::OnceLock;
use xbound_cells::CellLibrary;
use xbound_cpu::Cpu;
use xbound_logic::{BatchFrame, Frame, LaneVal};
use xbound_msp430::Program;
use xbound_netlist::NetlistError;
use xbound_power::{PowerAnalyzer, PowerTrace};
use xbound_sim::SimError;

pub use activity::{BatchExploreStats, ExploreConfig, ExploreStats, SymbolicExplorer};
pub use coi::{cycles_of_interest, CycleOfInterest};
pub use peak_power::{compute_peak_energy, PeakEnergyResult, PeakPowerResult};
pub use summary::BoundsReport;
pub use sweep::{bound_tree, run_sweep, Corner, SweepAnalysis, SweepSpec};
pub use tree::{ExecutionTree, SegmentEnd, SegmentId};
pub use validate::{ConcreteRunCheck, DominanceReport, SupersetReport};

/// Errors from the co-analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// The next PC carried X without `branch_taken` being the cause — an
    /// input-dependent computed jump the analysis cannot constrain.
    UnresolvedPc {
        /// Simulation cycle.
        cycle: u64,
        /// FSM state name for diagnostics.
        state: String,
    },
    /// Configured cycle budget exhausted (program may not terminate).
    CycleBudget {
        /// Cycles simulated before giving up.
        cycles: u64,
    },
    /// Underlying simulator error.
    Sim(SimError),
    /// Core construction failed (netlist validation).
    Build(NetlistError),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::UnresolvedPc { cycle, state } => write!(
                f,
                "PC became unknown at cycle {cycle} in state {state}; \
                 input-dependent computed jumps are not supported"
            ),
            AnalysisError::CycleBudget { cycles } => {
                write!(f, "exploration exceeded the cycle budget ({cycles} cycles)")
            }
            AnalysisError::Sim(e) => write!(f, "simulation: {e}"),
            AnalysisError::Build(e) => write!(f, "core construction: {e}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Human-readable name of the gate-evaluation engine the `XBOUND_SIM_ENGINE`
/// environment variable currently selects (`event-driven` when unset).
///
/// Every driver that reports which engine served an analysis (the suite
/// binaries, the co-analysis service's `stats`) goes through this helper;
/// the engines themselves are result-neutral — bounds, trees, and stats are
/// byte-identical across all of them.
///
/// # Panics
///
/// Panics on an unrecognized value (see [`xbound_sim::EvalMode::parse`]).
pub fn sim_engine_name() -> &'static str {
    xbound_sim::EvalMode::from_env().name()
}

impl From<SimError> for AnalysisError {
    fn from(e: SimError) -> AnalysisError {
        AnalysisError::Sim(e)
    }
}

impl From<NetlistError> for AnalysisError {
    fn from(e: NetlistError) -> AnalysisError {
        AnalysisError::Build(e)
    }
}

/// A processor + cell library + operating point under analysis.
#[derive(Debug, Clone)]
pub struct UlpSystem {
    cpu: Cpu,
    library: CellLibrary,
    clock_hz: f64,
}

impl UlpSystem {
    /// Builds a system from parts.
    pub fn new(cpu: Cpu, library: CellLibrary, clock_hz: f64) -> UlpSystem {
        UlpSystem {
            cpu,
            library,
            clock_hz,
        }
    }

    /// The paper's evaluation target: the core mapped to the 65 nm-class
    /// library at 1.0 V / 100 MHz (openMSP430-class).
    ///
    /// # Errors
    ///
    /// Propagates netlist construction errors.
    pub fn openmsp430_class() -> Result<UlpSystem, AnalysisError> {
        Ok(UlpSystem::new(Cpu::build()?, CellLibrary::ulp65(), 100.0e6))
    }

    /// The Chapter-2 measurement target: the core mapped to the 130 nm-class
    /// library at 3.0 V / 8 MHz (MSP430F1610-class).
    ///
    /// # Errors
    ///
    /// Propagates netlist construction errors.
    pub fn msp430f1610_class() -> Result<UlpSystem, AnalysisError> {
        Ok(UlpSystem::new(Cpu::build()?, CellLibrary::ulp130(), 8.0e6))
    }

    /// The core.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// The cell library.
    pub fn library(&self) -> &CellLibrary {
        &self.library
    }

    /// Clock frequency, hertz.
    pub fn clock_hz(&self) -> f64 {
        self.clock_hz
    }

    /// A power analyzer bound to this system.
    pub fn analyzer(&self) -> PowerAnalyzer<'_> {
        PowerAnalyzer::new(self.cpu.netlist(), &self.library, self.clock_hz)
    }

    /// Runs a concrete (input-based) simulation to the final self-loop and
    /// returns the per-cycle frames and measured power trace — the
    /// "profiling" runs of the paper's baselines and validation.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::CycleBudget`] if the program does not reach
    /// `jmp $` within `max_cycles`, or a simulator error.
    pub fn profile_concrete(
        &self,
        program: &Program,
        inputs: &[u16],
        max_cycles: u64,
    ) -> Result<(Vec<Frame>, PowerTrace), AnalysisError> {
        let mut sim = self.cpu.new_sim();
        Cpu::load_program(&mut sim, program, true);
        Cpu::set_inputs(&mut sim, inputs);
        let mut frames = Vec::new();
        let mut halted = false;
        for _ in 0..max_cycles {
            let f = sim.eval()?.clone();
            let halt = self.cpu.state(&sim) == Some(xbound_cpu::State::Decode)
                && self.cpu.ir_word(&sim).to_u16() == Some(0x3FFF);
            frames.push(f);
            if halt {
                halted = true;
                break;
            }
            sim.commit();
        }
        if !halted {
            return Err(AnalysisError::CycleBudget {
                cycles: frames.len() as u64,
            });
        }
        let trace = self.analyzer().analyze(&frames);
        Ok((frames, trace))
    }

    /// Batched [`UlpSystem::profile_concrete`]: runs up to
    /// [`xbound_logic::MAX_LANES`] input sets of the same program through
    /// one [`xbound_sim::BatchSimulator`] — one gate pass per cycle for
    /// the whole group. Each returned `(frames, trace)` is bit-identical
    /// to an independent [`UlpSystem::profile_concrete`] run of that
    /// input set (lanes never interact; the per-lane power accumulation
    /// replays the scalar order).
    ///
    /// Lanes halt independently; a lane's frames and trace stop at its
    /// own `jmp $` self-loop even when other lanes run longer.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::CycleBudget`] if any lane fails to halt
    /// within `max_cycles`, or a simulator error.
    ///
    /// # Panics
    ///
    /// Panics if `input_sets` is empty or longer than
    /// [`xbound_logic::MAX_LANES`].
    pub fn profile_concrete_batch(
        &self,
        program: &Program,
        input_sets: &[Vec<u16>],
        max_cycles: u64,
    ) -> Result<Vec<(Vec<Frame>, PowerTrace)>, AnalysisError> {
        // Each lane's scalar frame is reconstructed incrementally from the
        // change log: only nets that actually changed since the previous
        // cycle are rewritten, then the per-lane frame is stored by
        // (cheap, word-packed) clone — the same storage the scalar path
        // produces.
        let lanes = input_sets.len();
        let mut cur_lane: Vec<Frame> = Vec::new();
        let mut lane_frames: Vec<Vec<Frame>> = vec![Vec::new(); lanes];
        let traces = self.run_concrete_batch(
            program,
            input_sets,
            max_cycles,
            |prev, bf, changes, recording| {
                match prev {
                    None => cur_lane = (0..lanes).map(|l| bf.lane_frame(l)).collect(),
                    Some(prev) => {
                        for &i in changes {
                            let i = i as usize;
                            let q = bf.get(i);
                            let mut changed = prev.get(i).changed_lanes(q);
                            while changed != 0 {
                                let l = changed.trailing_zeros() as usize;
                                cur_lane[l].set(i, q.get(l));
                                changed &= changed - 1;
                            }
                        }
                    }
                }
                let mut m = recording;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    lane_frames[l].push(cur_lane[l].clone());
                    m &= m - 1;
                }
            },
        )?;
        Ok(lane_frames.into_iter().zip(traces).collect())
    }

    /// The one batched concrete loop behind [`UlpSystem::profile_concrete_batch`]
    /// and [`Analysis::validate_population`]: runs up to
    /// [`xbound_logic::MAX_LANES`] input sets through one
    /// [`xbound_sim::BatchSimulator`] until every lane reaches its `jmp $`
    /// self-loop, and returns one power trace per lane, each stopping at
    /// its own halt frame.
    ///
    /// Every settled cycle calls `on_cycle(prev, frame, changes,
    /// recording)`: `prev` is the previous cycle's frame (`None` on the
    /// first cycle), `changes` the ascending, duplicate-free nets the
    /// engine wrote since then (a superset of the nets that differ), and
    /// `recording` the lanes that had not halted before this cycle — the
    /// cycles a lane's frames and trace cover.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::CycleBudget`] if any lane fails to halt
    /// within `max_cycles`, or a simulator error.
    ///
    /// # Panics
    ///
    /// Panics if `input_sets` is empty or longer than
    /// [`xbound_logic::MAX_LANES`].
    fn run_concrete_batch(
        &self,
        program: &Program,
        input_sets: &[Vec<u16>],
        max_cycles: u64,
        mut on_cycle: impl FnMut(Option<&BatchFrame>, &BatchFrame, &[u32], u64),
    ) -> Result<Vec<PowerTrace>, AnalysisError> {
        let lanes = input_sets.len();
        assert!(
            (1..=xbound_logic::MAX_LANES).contains(&lanes),
            "input population of {lanes} exceeds one batch"
        );
        let mut sim = self.cpu.new_batch_sim(lanes);
        Cpu::load_program_batch(&mut sim, program, true);
        for (lane, inputs) in input_sets.iter().enumerate() {
            Cpu::set_inputs_lane(&mut sim, lane, inputs);
        }
        sim.set_change_logging(true);
        let analyzer = self.analyzer();
        // Power accumulates streaming: no batch-frame sequence is ever
        // materialized.
        let mut acc = analyzer.batch_accumulator(lanes);
        let mut prev: Option<BatchFrame> = None;
        let mut changes: Vec<u32> = Vec::new();
        // One-past-the-halt-frame cycle count per lane.
        let mut lane_cycles = vec![0usize; lanes];
        let mut recording = u64::MAX >> (64 - lanes);
        for cycle in 1..=max_cycles {
            sim.eval()?;
            // The drained log is ascending and duplicate-free: it serves
            // the per-cycle consumer and the power accumulator (whose f64
            // order requires ascending nets) as is.
            sim.swap_change_log(&mut changes);
            let bf = sim.frame();
            on_cycle(prev.as_ref(), bf, &changes, recording);
            acc.push_changed(bf, &changes);
            match &mut prev {
                None => prev = Some(bf.clone()),
                Some(prev) => {
                    for &i in &changes {
                        prev.set(i as usize, bf.get(i as usize));
                    }
                }
            }
            let mut m = recording;
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                m &= m - 1;
                let halt = self.cpu.state_lane(&sim, lane) == Some(xbound_cpu::State::Decode)
                    && self.cpu.ir_word_lane(&sim, lane).to_u16() == Some(0x3FFF);
                if halt {
                    lane_cycles[lane] = cycle as usize;
                    recording &= !(1u64 << lane);
                }
            }
            if recording == 0 {
                return Ok(acc.finish(Some(&lane_cycles)));
            }
            sim.commit();
        }
        Err(AnalysisError::CycleBudget {
            cycles: acc.cycles() as u64,
        })
    }

    /// Runs a whole population of input sets through the batched engine,
    /// chunked into lane groups of `lanes` (0 = auto, see
    /// [`par::resolve_lanes`]) that fan out across `threads` workers
    /// (0 = auto) — parallelism × bit-parallelism. Output order matches
    /// `input_sets`, and every entry is bit-identical to a scalar
    /// [`UlpSystem::profile_concrete`] run at any lane width or thread
    /// count.
    ///
    /// # Errors
    ///
    /// Propagates the first failing chunk's error in population order.
    pub fn profile_concrete_population(
        &self,
        program: &Program,
        input_sets: &[Vec<u16>],
        max_cycles: u64,
        lanes: usize,
        threads: usize,
    ) -> Result<Vec<(Vec<Frame>, PowerTrace)>, AnalysisError> {
        par_lane_groups(input_sets, lanes, threads, |group| {
            self.profile_concrete_batch(program, group, max_cycles)
        })
    }
}

/// Chunks `input_sets` into lane groups of `lanes` (0 = auto) and maps
/// `run` over them on `threads` workers (0 = auto), concatenating the
/// per-group results in population order.
///
/// # Errors
///
/// Propagates the first failing group's error in population order.
fn par_lane_groups<T: Send>(
    input_sets: &[Vec<u16>],
    lanes: usize,
    threads: usize,
    run: impl Fn(&[Vec<u16>]) -> Result<Vec<T>, AnalysisError> + Sync,
) -> Result<Vec<T>, AnalysisError> {
    if input_sets.is_empty() {
        return Ok(Vec::new());
    }
    let groups: Vec<&[Vec<u16>]> = input_sets.chunks(par::resolve_lanes(lanes)).collect();
    let mut out = Vec::with_capacity(input_sets.len());
    for r in par::par_map(threads, groups, |_, group| run(group)) {
        out.extend(r?);
    }
    Ok(out)
}

/// Builder for one co-analysis run.
#[derive(Debug, Clone)]
pub struct CoAnalysis<'s> {
    system: &'s UlpSystem,
    config: ExploreConfig,
    energy_rounds: u64,
}

impl<'s> CoAnalysis<'s> {
    /// Creates an analysis with default configuration.
    pub fn new(system: &'s UlpSystem) -> CoAnalysis<'s> {
        CoAnalysis {
            system,
            config: ExploreConfig::default(),
            energy_rounds: 10_000,
        }
    }

    /// Overrides the exploration configuration.
    pub fn config(mut self, config: ExploreConfig) -> CoAnalysis<'s> {
        self.config = config;
        self
    }

    /// Sets the value-iteration round budget for peak energy — acts as the
    /// loop-iteration bound of §3.3 for input-dependent loops.
    pub fn energy_rounds(mut self, rounds: u64) -> CoAnalysis<'s> {
        self.energy_rounds = rounds;
        self
    }

    /// Runs Algorithm 1, then Algorithm 2 and the peak-energy computation
    /// as a one-corner sweep ([`bound_tree`]) at this system's library and
    /// clock.
    ///
    /// # Errors
    ///
    /// See [`AnalysisError`].
    pub fn run(self, program: &Program) -> Result<Analysis<'s>, AnalysisError> {
        let _span = xbound_obs::trace::span("co_analysis");
        xbound_obs::metrics::counter("xbound_analyses_total").inc();
        let (tree, stats) =
            SymbolicExplorer::new(self.system.cpu(), self.config).explore(program)?;
        let spec = SweepSpec::new(vec![Corner::nominal(
            self.system.library().clone(),
            self.system.clock_hz(),
        )]);
        let bound = bound_tree(
            self.system.cpu().netlist(),
            &tree,
            &spec,
            true,
            self.energy_rounds,
            1,
            |_, bound| bound,
        )
        .pop()
        .expect("one corner");
        Ok(Analysis {
            system: self.system,
            tree,
            stats,
            peak: bound.peak,
            energy: bound.energy,
            marked: OnceLock::new(),
        })
    }
}

/// The result of one co-analysis.
#[derive(Debug, Clone)]
pub struct Analysis<'s> {
    system: &'s UlpSystem,
    tree: ExecutionTree,
    stats: ExploreStats,
    peak: PeakPowerResult,
    energy: PeakEnergyResult,
    /// The tree's packed potentially-toggled set, built by the first
    /// validation that needs it.
    marked: OnceLock<Vec<u64>>,
}

impl Analysis<'_> {
    /// The annotated execution tree.
    pub fn tree(&self) -> &ExecutionTree {
        &self.tree
    }

    /// Exploration statistics.
    pub fn stats(&self) -> &ExploreStats {
        &self.stats
    }

    /// The input-independent peak power bound.
    pub fn peak_power(&self) -> &PeakPowerResult {
        &self.peak
    }

    /// The input-independent peak energy bound.
    pub fn peak_energy(&self) -> PeakEnergyResult {
        self.energy
    }

    /// The system under analysis.
    pub fn system(&self) -> &UlpSystem {
        self.system
    }

    /// Top-`k` cycles of interest (culprit instructions + breakdowns).
    pub fn cycles_of_interest(&self, k: usize) -> Vec<CycleOfInterest> {
        cycles_of_interest(self.system, &self.tree, &self.peak, k)
    }

    /// The tree's potentially-toggled nets, packed one bit per net (see
    /// [`ExecutionTree::potentially_toggled_words`]); built once, on first
    /// use, and shared by every validation of this analysis.
    fn marked_nets(&self) -> &[u64] {
        self.marked.get_or_init(|| {
            self.tree
                .potentially_toggled_words(self.system.cpu().netlist().net_count())
        })
    }

    /// Toggle-superset check against a concrete run (Fig 12).
    pub fn check_superset(&self, concrete_frames: &[Frame]) -> SupersetReport {
        validate::check_toggle_superset(self.marked_nets(), concrete_frames)
    }

    /// Power-dominance check against a measured concrete trace (Fig 13).
    ///
    /// Returns `None` when the concrete run leaves the explored tree —
    /// which would indicate an exploration bug.
    pub fn check_dominance(
        &self,
        concrete_frames: &[Frame],
        measured: &PowerTrace,
    ) -> Option<DominanceReport> {
        let bt = self.system.cpu().io().branch_taken.index();
        validate::check_power_dominance(
            &self.tree,
            &self.peak,
            concrete_frames.iter().map(|f| f.get(bt)),
            measured.per_cycle_mw(),
        )
    }

    /// Validates the analysis against a whole population of concrete
    /// runs through the batched engine (Figs 12 + 13 at scale): input
    /// sets are chunked into lane groups (`lanes`, 0 = auto) that fan
    /// out across `threads` workers (0 = auto), and each run is checked
    /// for toggle-superset and power dominance. Reports are ordered like
    /// `input_sets` and equal to per-run [`Analysis::check_superset`] and
    /// [`Analysis::check_dominance`] of scalar
    /// [`UlpSystem::profile_concrete`] runs at any lane width or thread
    /// count.
    ///
    /// Each lane group is checked while it runs: no per-lane frame
    /// sequence is stored, only a lane mask of toggles per net and the
    /// per-cycle `branch_taken` values.
    ///
    /// # Errors
    ///
    /// Propagates concrete-simulation errors (e.g. a run exceeding
    /// `max_cycles`).
    pub fn validate_population(
        &self,
        program: &Program,
        input_sets: &[Vec<u16>],
        max_cycles: u64,
        lanes: usize,
        threads: usize,
    ) -> Result<Vec<ConcreteRunCheck>, AnalysisError> {
        par_lane_groups(input_sets, lanes, threads, |group| {
            self.validate_lane_group(program, group, max_cycles)
        })
    }

    /// [`Analysis::validate_population`] of one lane group.
    fn validate_lane_group(
        &self,
        program: &Program,
        input_sets: &[Vec<u16>],
        max_cycles: u64,
    ) -> Result<Vec<ConcreteRunCheck>, AnalysisError> {
        let marked = self.marked_nets();
        let net_count = self.system.cpu().netlist().net_count();
        let bt = self.system.cpu().io().branch_taken.index();
        // Per net, the lanes that toggled it in a cycle they recorded.
        let mut toggled_lanes = vec![0u64; net_count];
        let mut branch_taken: Vec<LaneVal> = Vec::new();
        let traces = self.system.run_concrete_batch(
            program,
            input_sets,
            max_cycles,
            |prev, bf, changes, recording| {
                if let Some(prev) = prev {
                    for &i in changes {
                        let i = i as usize;
                        toggled_lanes[i] |= prev.get(i).changed_lanes(bf.get(i)) & recording;
                    }
                }
                branch_taken.push(bf.get(bt));
            },
        )?;
        let mut toggled = vec![0u64; marked.len()];
        Ok(traces
            .iter()
            .enumerate()
            .map(|(lane, trace)| {
                toggled.fill(0);
                for (i, lanes) in toggled_lanes.iter().enumerate() {
                    toggled[i / 64] |= ((lanes >> lane) & 1) << (i % 64);
                }
                ConcreteRunCheck {
                    superset: validate::superset_report(marked, &toggled),
                    dominance: validate::check_power_dominance(
                        &self.tree,
                        &self.peak,
                        branch_taken[..trace.cycles()].iter().map(|v| v.get(lane)),
                        trace.per_cycle_mw(),
                    ),
                }
            })
            .collect())
    }
}
