//! Activity-based gate-level power analysis — the PrimeTime stand-in.
//!
//! Given a netlist, a cell library, and a per-cycle trace of net values
//! ([`xbound_logic::Frame`]s), [`PowerAnalyzer`] computes:
//!
//! * the per-cycle power trace (dynamic switching energy × clock frequency
//!   plus leakage),
//! * per-module breakdowns (the paper's Fig 14 stacked bars),
//! * total energy and normalized peak energy (J/cycle).
//!
//! The same computation PrimeTime performs in averaged/activity mode: each
//! output transition of a gate contributes that cell's characterized rise or
//! fall energy. Transitions to/from `X` are charged the *maximum* transition
//! energy — conservative, and only reachable when callers analyze raw
//! symbolic traces (Algorithm 2 resolves Xs before analysis).
//!
//! [`statics`] adds probabilistic (toggle-rate-based) analysis used by the
//! design-specification baseline, and [`vcd`] provides VCD export/import.
//!
//! # Example
//!
//! ```
//! use xbound_cells::CellLibrary;
//! use xbound_netlist::rtl::Rtl;
//! use xbound_power::PowerAnalyzer;
//! use xbound_sim::Simulator;
//!
//! let mut r = Rtl::new("cnt");
//! let (h, q) = r.reg("c", 8);
//! let one = r.one();
//! let (nx, _) = r.inc(&q, one);
//! r.reg_next(h, &nx);
//! r.output("q", &q);
//! let nl = r.finish().unwrap();
//!
//! let mut sim = Simulator::new(&nl);
//! sim.reset(1);
//! let mut frames = Vec::new();
//! for _ in 0..32 {
//!     frames.push(sim.eval().unwrap().clone());
//!     sim.commit();
//! }
//! let lib = CellLibrary::ulp65();
//! let analyzer = PowerAnalyzer::new(&nl, &lib, 100.0e6);
//! let trace = analyzer.analyze(&frames);
//! assert!(trace.peak_mw() > 0.0);
//! assert!(trace.avg_mw() <= trace.peak_mw());
//! ```

#![warn(missing_docs)]

pub mod statics;
pub mod vcd;

use xbound_cells::CellLibrary;
use xbound_logic::{BatchFrame, Frame, LaneVal, Transition};
use xbound_netlist::{CellKind, Netlist};

/// A per-cycle power trace produced by [`PowerAnalyzer::analyze`].
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTrace {
    per_cycle_mw: Vec<f64>,
    per_module_mw: Vec<Vec<f64>>,
    module_names: Vec<String>,
    clock_hz: f64,
    leakage_mw: f64,
}

impl PowerTrace {
    /// Per-cycle total power, milliwatts.
    pub fn per_cycle_mw(&self) -> &[f64] {
        &self.per_cycle_mw
    }

    /// Per-cycle per-module power, `[module][cycle]`, milliwatts.
    pub fn per_module_mw(&self) -> &[Vec<f64>] {
        &self.per_module_mw
    }

    /// Module names, aligned with [`PowerTrace::per_module_mw`].
    pub fn module_names(&self) -> &[String] {
        &self.module_names
    }

    /// Number of cycles in the trace.
    pub fn cycles(&self) -> usize {
        self.per_cycle_mw.len()
    }

    /// Peak per-cycle power, milliwatts (0 for an empty trace).
    pub fn peak_mw(&self) -> f64 {
        self.per_cycle_mw.iter().copied().fold(0.0, f64::max)
    }

    /// Cycle index at which the peak occurs (0 for an empty trace).
    pub fn peak_cycle(&self) -> usize {
        self.per_cycle_mw
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("power is finite"))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Average power over the trace, milliwatts.
    pub fn avg_mw(&self) -> f64 {
        if self.per_cycle_mw.is_empty() {
            return 0.0;
        }
        self.per_cycle_mw.iter().sum::<f64>() / self.per_cycle_mw.len() as f64
    }

    /// Total energy over the trace, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.per_cycle_mw.iter().sum::<f64>() * 1e-3 / self.clock_hz
    }

    /// Energy per cycle averaged over the run (the paper's "normalized peak
    /// energy" metric, J/cycle).
    pub fn energy_per_cycle_j(&self) -> f64 {
        if self.per_cycle_mw.is_empty() {
            return 0.0;
        }
        self.total_energy_j() / self.per_cycle_mw.len() as f64
    }

    /// Constant leakage included in every cycle, milliwatts.
    pub fn leakage_mw(&self) -> f64 {
        self.leakage_mw
    }

    /// Clock frequency used for the analysis, hertz.
    pub fn clock_hz(&self) -> f64 {
        self.clock_hz
    }

    /// Per-module energy at one cycle, `(module name, mW)`, descending.
    pub fn module_breakdown_at(&self, cycle: usize) -> Vec<(String, f64)> {
        let mut v: Vec<(String, f64)> = self
            .module_names
            .iter()
            .zip(&self.per_module_mw)
            .map(|(n, t)| (n.clone(), t.get(cycle).copied().unwrap_or(0.0)))
            .collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("power is finite"));
        v
    }
}

/// Multiplier applied to the summed flip-flop clock-pin energy to account
/// for the clock distribution buffers of a placed-and-routed design.
pub const CLOCK_TREE_FACTOR: f64 = 1.25;

/// The clock-independent part of a power analysis: per-cycle and
/// per-module **dynamic switching energy** in femtojoules.
///
/// A [`PowerTrace`] is `floor + fj × (clock_hz × 1e-12)` per cycle — the
/// transition accumulation itself never reads the clock. Capturing the
/// femtojoule sums lets one gate-level analysis serve every clock of an
/// operating-point sweep: [`EnergyTrace::to_power_trace`] applies exactly
/// the float operations [`BatchPowerAccumulator::finish`] applies, so the
/// converted trace is bit-identical to re-analyzing the same frames with
/// an analyzer bound to that clock.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyTrace {
    /// Per-cycle switching energy, femtojoules (cycle 0 is always 0).
    per_cycle_fj: Vec<f64>,
    /// Per-module per-cycle switching energy, `[module][cycle]`,
    /// femtojoules.
    per_module_fj: Vec<Vec<f64>>,
}

impl EnergyTrace {
    /// Per-cycle switching energy, femtojoules.
    pub fn per_cycle_fj(&self) -> &[f64] {
        &self.per_cycle_fj
    }

    /// Per-module per-cycle switching energy, `[module][cycle]`,
    /// femtojoules.
    pub fn per_module_fj(&self) -> &[Vec<f64>] {
        &self.per_module_fj
    }

    /// Number of cycles in the trace.
    pub fn cycles(&self) -> usize {
        self.per_cycle_fj.len()
    }

    /// Converts to the [`PowerTrace`] that `analyzer` would have produced
    /// by analyzing the same frames directly — bit-identical, because
    /// both paths compute `(leakage + clock) + fj × (clock_hz × 1e-12)`
    /// per cycle with the same operations in the same order.
    ///
    /// `analyzer` must be bound to the same netlist and library the
    /// energies were accumulated under; only its clock may differ.
    pub fn to_power_trace(&self, analyzer: &PowerAnalyzer) -> PowerTrace {
        let fj_to_mw = analyzer.clock_hz * 1e-12;
        let floor = analyzer.leakage_mw + analyzer.clock_mw;
        PowerTrace {
            per_cycle_mw: self
                .per_cycle_fj
                .iter()
                .map(|&fj| floor + fj * fj_to_mw)
                .collect(),
            per_module_mw: self
                .per_module_fj
                .iter()
                .map(|m| m.iter().map(|&fj| fj * fj_to_mw).collect())
                .collect(),
            module_names: analyzer.nl.modules().to_vec(),
            clock_hz: analyzer.clock_hz,
            leakage_mw: analyzer.leakage_mw,
        }
    }
}

/// One net's transition energies, femtojoules, by [`Transition`] —
/// `[fall, rise, max]` of its driving cell — and the driver's module.
#[derive(Debug, Clone, Copy)]
struct NetEnergy {
    fj: [f64; 3],
    module: usize,
}

impl NetEnergy {
    #[inline]
    fn of(&self, t: Transition) -> f64 {
        self.fj[t as usize]
    }
}

/// Activity-based power analyzer bound to a netlist + library + clock.
#[derive(Debug, Clone)]
pub struct PowerAnalyzer<'a> {
    nl: &'a Netlist,
    lib: &'a CellLibrary,
    clock_hz: f64,
    /// Per-net transition energies of the driving cell (zero for
    /// primary inputs, which `driven` masks out).
    nets: Vec<NetEnergy>,
    /// One bit per net driven by a gate: primary-input toggles cost
    /// nothing themselves.
    driven: Vec<u64>,
    leakage_mw: f64,
    clock_mw: f64,
}

impl<'a> PowerAnalyzer<'a> {
    /// Creates an analyzer; precomputes per-net transition energies and
    /// total leakage.
    ///
    /// # Panics
    ///
    /// Panics if `clock_hz` is not positive or the netlist is not finalized.
    pub fn new(nl: &'a Netlist, lib: &'a CellLibrary, clock_hz: f64) -> PowerAnalyzer<'a> {
        assert!(clock_hz > 0.0, "clock must be positive");
        assert!(nl.is_finalized(), "netlist must be finalized");
        let mut nets = vec![
            NetEnergy {
                fj: [0.0; 3],
                module: 0,
            };
            nl.net_count()
        ];
        let mut driven = vec![0u64; nl.net_count().div_ceil(64)];
        for g in nl.gates() {
            let p = lib.power(g.kind());
            let i = g.output().index();
            nets[i] = NetEnergy {
                fj: [p.energy_fall_fj, p.energy_rise_fj, p.max_energy_fj()],
                module: g.module().index(),
            };
            driven[i / 64] |= 1 << (i % 64);
        }
        let leakage_nw: f64 = nl
            .gates()
            .iter()
            .map(|g| lib.power(g.kind()).leakage_nw)
            .sum();
        // Clock network: every flip-flop's clock pin switches each cycle;
        // the tree factor stands in for the distribution buffers. This is
        // input-independent power, charged to every cycle like leakage.
        let clock_fj: f64 = nl
            .gates()
            .iter()
            .map(|g| lib.power(g.kind()).clock_pin_fj)
            .sum();
        PowerAnalyzer {
            nl,
            lib,
            clock_hz,
            nets,
            driven,
            leakage_mw: leakage_nw * 1e-6,
            clock_mw: clock_fj * CLOCK_TREE_FACTOR * clock_hz * 1e-12,
        }
    }

    /// The bound cell library.
    pub fn library(&self) -> &CellLibrary {
        self.lib
    }

    /// The clock frequency, hertz.
    pub fn clock_hz(&self) -> f64 {
        self.clock_hz
    }

    /// Static leakage of the whole design, milliwatts.
    pub fn leakage_mw(&self) -> f64 {
        self.leakage_mw
    }

    /// Clock-network power (flip-flop clock pins × tree factor), milliwatts.
    pub fn clock_mw(&self) -> f64 {
        self.clock_mw
    }

    /// Input-independent per-cycle floor: leakage + clock network.
    pub fn floor_mw(&self) -> f64 {
        self.leakage_mw + self.clock_mw
    }

    /// Analyzes a frame sequence into a power trace.
    ///
    /// Cycle `c`'s dynamic power counts transitions between frames `c-1` and
    /// `c` (cycle 0 has no transitions, only leakage). Per-module breakdowns
    /// are always computed. This is the energy analysis
    /// ([`PowerAnalyzer::analyze_energy_with_boundary`]) converted at this
    /// analyzer's clock, the same two steps Algorithm 2 takes.
    pub fn analyze(&self, frames: &[Frame]) -> PowerTrace {
        self.analyze_energy_with_boundary(None, frames)
            .to_power_trace(self)
    }

    /// Batched [`PowerAnalyzer::analyze`]: one pass over a
    /// [`BatchFrame`] sequence produces one independent [`PowerTrace`]
    /// per lane, from lane-wise toggle masks.
    ///
    /// `lane_cycles` optionally truncates each lane's trace to its first
    /// `lane_cycles[l]` cycles (a lane that halted early ignores the
    /// cycles simulated past its halt); `None` analyzes every lane over
    /// the full sequence.
    ///
    /// Each lane's trace is **bit-identical** to
    /// `analyze(&lane_frames[..lane_cycles[l]])` of that lane's scalar
    /// frames: per lane, transition energies accumulate in the same
    /// ascending-net order with the same f64 operations.
    ///
    /// Callers that do not already hold the frame sequence should feed a
    /// [`BatchPowerAccumulator`] cycle by cycle instead of materializing
    /// it (a batch frame is `16 bytes × nets` regardless of lane count).
    ///
    /// # Panics
    ///
    /// Panics if the frames disagree in lane count or length, or if
    /// `lane_cycles` has the wrong arity or exceeds the sequence length.
    pub fn analyze_batch(
        &self,
        frames: &[BatchFrame],
        lane_cycles: Option<&[usize]>,
    ) -> Vec<PowerTrace> {
        let Some(first) = frames.first() else {
            return Vec::new();
        };
        let mut acc = self.batch_accumulator(first.lanes());
        for f in frames {
            acc.push(f);
        }
        acc.finish(lane_cycles)
    }

    /// The clock-independent femtojoule analysis (see [`EnergyTrace`]) of
    /// the logical sequence `boundary ++ frames`, without materializing the
    /// concatenation. The full trace is `energy.to_power_trace(analyzer)`;
    /// Algorithm 2 accumulates once per library and converts once per
    /// clock.
    ///
    /// Algorithm 2 analyzes every execution-tree segment prefixed by its
    /// parent's last frame; passing the boundary by reference avoids
    /// cloning each segment's frames twice per run.
    ///
    /// Each consecutive frame pair is walked word by word
    /// ([`Frame::for_each_transition`] over the driven nets), and each
    /// changed net adds its per-net energy — the maximum at an `X`
    /// endpoint, else rise or fall — into the cycle's sum and its
    /// module's row, in ascending net order: the f64 order of
    /// [`BatchPowerAccumulator`], so the two analyses agree bit for bit.
    pub fn analyze_energy_with_boundary(
        &self,
        boundary: Option<&Frame>,
        frames: &[Frame],
    ) -> EnergyTrace {
        let cycles = usize::from(boundary.is_some()) + frames.len();
        let mut per_cycle_fj = Vec::with_capacity(cycles);
        let mut per_module_fj = vec![Vec::with_capacity(cycles); self.nl.modules().len()];
        let mut row = vec![0.0f64; per_module_fj.len()];
        let mut prev: Option<&Frame> = None;
        for cur in boundary.into_iter().chain(frames) {
            let mut sum = 0.0f64;
            row.fill(0.0);
            if let Some(prev) = prev {
                prev.for_each_transition(cur, &self.driven, |i, t| {
                    let net = &self.nets[i];
                    let e = net.of(t);
                    sum += e;
                    row[net.module] += e;
                });
            }
            per_cycle_fj.push(sum);
            for (m, &e) in per_module_fj.iter_mut().zip(&row) {
                m.push(e);
            }
            prev = Some(cur);
        }
        EnergyTrace {
            per_cycle_fj,
            per_module_fj,
        }
    }

    /// Creates a streaming accumulator for batched per-lane power
    /// analysis; push one settled [`BatchFrame`] per cycle and
    /// [`BatchPowerAccumulator::finish`] into per-lane traces.
    pub fn batch_accumulator(&self, lanes: usize) -> BatchPowerAccumulator<'_> {
        BatchPowerAccumulator {
            analyzer: self,
            lanes,
            prev: None,
            per_cycle_fj: vec![Vec::new(); lanes],
            per_module_fj: vec![vec![Vec::new(); self.nl.modules().len()]; lanes],
        }
    }

    /// The design-specification "rated" peak power: every gate makes its
    /// maximum-energy transition every cycle, milliwatts.
    ///
    /// This is the data-sheet bound of the paper's Chapter 1/2 (the most
    /// conservative rating).
    pub fn rated_peak_mw(&self) -> f64 {
        let fj: f64 = self
            .nl
            .gates()
            .iter()
            .map(|g| self.lib.power(g.kind()).max_energy_fj())
            .sum();
        fj * self.clock_hz * 1e-12 + self.leakage_mw + self.clock_mw
    }

    /// Per-gate toggle counts across a frame sequence (for activity plots
    /// like the paper's Fig 5/12).
    pub fn toggle_counts(&self, frames: &[Frame]) -> Vec<u64> {
        let mut counts = vec![0u64; self.nl.gate_count()];
        for c in 1..frames.len() {
            frames[c - 1].for_each_diff(&frames[c], |i| {
                if let Some(gid) = self.nl.driver_of(xbound_netlist::NetId(i as u32)) {
                    counts[gid.index()] += 1;
                }
            });
        }
        counts
    }
}

/// Streaming batched power analysis: one settled [`BatchFrame`] pushed
/// per cycle, per-lane [`PowerTrace`]s out — without ever materializing
/// the frame sequence (see [`PowerAnalyzer::batch_accumulator`]).
///
/// Per lane, energies accumulate in the exact order and with the exact
/// f64 operations of the scalar [`PowerAnalyzer::analyze`], so the
/// finished traces are bit-identical to per-lane scalar analysis.
///
/// Internally the accumulation is pure femtojoules ([`EnergyTrace`]
/// layout); the clock enters only in [`BatchPowerAccumulator::finish`]'s
/// conversion, which is what makes one accumulation reusable across every
/// clock of a sweep.
#[derive(Debug, Clone)]
pub struct BatchPowerAccumulator<'a> {
    analyzer: &'a PowerAnalyzer<'a>,
    lanes: usize,
    prev: Option<BatchFrame>,
    /// `[lane][cycle]`, femtojoules.
    per_cycle_fj: Vec<Vec<f64>>,
    /// `[lane][module][cycle]`, femtojoules.
    per_module_fj: Vec<Vec<Vec<f64>>>,
}

impl BatchPowerAccumulator<'_> {
    /// Number of cycles pushed so far.
    pub fn cycles(&self) -> usize {
        self.per_cycle_fj.first().map(|v| v.len()).unwrap_or(0)
    }

    /// Opens a cycle row: a zero femtojoule slot per lane and per module.
    /// Returns the cycle index the transition kernel accumulates into.
    fn begin_cycle(&mut self) -> usize {
        let c = self.cycles();
        for pc in &mut self.per_cycle_fj {
            pc.push(0.0);
        }
        for pm in &mut self.per_module_fj {
            for m in pm.iter_mut() {
                m.push(0.0);
            }
        }
        c
    }

    /// The transition kernel: classifies one net's per-lane transition
    /// (rise / fall / X-endpoint) and accumulates the net's energy from
    /// the analyzer's per-net table into every changed lane.
    ///
    /// A changed lane lands in exactly one class mask, so each lane
    /// accumulates at most one energy per net, in ascending net order —
    /// the f64 order of [`PowerAnalyzer::analyze_energy_with_boundary`],
    /// which is why each lane reproduces it bit for bit. `X` endpoints
    /// are charged the maximum transition energy (conservative; only
    /// reachable when callers analyze raw symbolic traces).
    #[inline]
    fn accumulate_net(&mut self, c: usize, i: usize, p: LaneVal, q: LaneVal) {
        let changed = p.changed_lanes(q);
        if changed == 0 {
            return;
        }
        let a = self.analyzer;
        if (a.driven[i / 64] >> (i % 64)) & 1 == 0 {
            return; // primary input toggles cost nothing themselves
        }
        let net = &a.nets[i];
        let module = net.module;
        let known = !p.unk & !q.unk;
        let rise = changed & known & !p.val & q.val;
        let fall = changed & known & p.val & !q.val;
        let xchg = changed & (p.unk | q.unk);
        for (mask, t) in [
            (rise, Transition::Rise),
            (fall, Transition::Fall),
            (xchg, Transition::X),
        ] {
            let e = net.of(t);
            let mut m = mask;
            while m != 0 {
                let l = m.trailing_zeros() as usize;
                self.per_cycle_fj[l][c] += e;
                self.per_module_fj[l][module][c] += e;
                m &= m - 1;
            }
        }
    }

    /// Accumulates one settled cycle frame (transitions are counted
    /// against the previously pushed frame; the first cycle is floor
    /// power only, like the scalar analyzer).
    ///
    /// # Panics
    ///
    /// Panics if the frame's lane count disagrees with the accumulator.
    pub fn push(&mut self, frame: &BatchFrame) {
        assert_eq!(frame.lanes(), self.lanes, "frame lane count mismatch");
        let c = self.begin_cycle();
        if let Some(prev) = self.prev.take() {
            assert_eq!(prev.len(), frame.len(), "frame length mismatch");
            for i in 0..frame.len() {
                self.accumulate_net(c, i, prev.get(i), frame.get(i));
            }
            let mut prev = prev;
            prev.clone_from(frame);
            self.prev = Some(prev);
        } else {
            self.prev = Some(frame.clone());
        }
    }

    /// [`BatchPowerAccumulator::push`] with a caller-provided list of
    /// candidate changed nets — **ascending, duplicate-free, and a
    /// superset of every net whose value differs from the previous
    /// frame** (e.g. the engine's sorted change log). Only those nets are
    /// visited, so a settled cycle costs O(changed) instead of O(design);
    /// because the list is ascending, the f64 accumulation order is
    /// exactly the full scan's and the traces stay bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if the frame's lane count disagrees with the accumulator.
    pub fn push_changed(&mut self, frame: &BatchFrame, changed: &[u32]) {
        assert_eq!(frame.lanes(), self.lanes, "frame lane count mismatch");
        let c = self.begin_cycle();
        if let Some(prev) = self.prev.take() {
            assert_eq!(prev.len(), frame.len(), "frame length mismatch");
            for &i in changed {
                let i = i as usize;
                self.accumulate_net(c, i, prev.get(i), frame.get(i));
            }
            let mut prev = prev;
            for &i in changed {
                let i = i as usize;
                prev.set(i, frame.get(i));
            }
            self.prev = Some(prev);
        } else {
            self.prev = Some(frame.clone());
        }
    }

    /// Finishes into one [`PowerTrace`] per lane. `lane_cycles`
    /// optionally truncates each lane's trace to its first
    /// `lane_cycles[l]` cycles (see [`PowerAnalyzer::analyze_batch`]).
    ///
    /// Delegates to [`BatchPowerAccumulator::finish_energy`] +
    /// [`EnergyTrace::to_power_trace`], so the milliwatt trace and an
    /// energy trace converted later at the same clock cannot diverge.
    ///
    /// # Panics
    ///
    /// Panics if `lane_cycles` has the wrong arity or exceeds the number
    /// of pushed cycles.
    pub fn finish(self, lane_cycles: Option<&[usize]>) -> Vec<PowerTrace> {
        let analyzer = self.analyzer;
        self.finish_energy(lane_cycles)
            .into_iter()
            .map(|e| e.to_power_trace(analyzer))
            .collect()
    }

    /// Finishes into one clock-independent [`EnergyTrace`] per lane (the
    /// femtojoule stage of [`BatchPowerAccumulator::finish`]); convert
    /// with [`EnergyTrace::to_power_trace`] once per clock of interest.
    ///
    /// # Panics
    ///
    /// Panics if `lane_cycles` has the wrong arity or exceeds the number
    /// of pushed cycles.
    pub fn finish_energy(self, lane_cycles: Option<&[usize]>) -> Vec<EnergyTrace> {
        let pushed = self.cycles();
        let full = vec![pushed; self.lanes];
        let lane_cycles = lane_cycles.unwrap_or(&full);
        assert_eq!(lane_cycles.len(), self.lanes, "one cycle count per lane");
        for &n in lane_cycles {
            assert!(n <= pushed, "lane cycle count exceeds pushed cycles");
        }
        self.per_cycle_fj
            .into_iter()
            .zip(self.per_module_fj)
            .zip(lane_cycles)
            .map(|((mut pc, mut pm), &n)| {
                pc.truncate(n);
                for m in pm.iter_mut() {
                    m.truncate(n);
                }
                EnergyTrace {
                    per_cycle_fj: pc,
                    per_module_fj: pm,
                }
            })
            .collect()
    }
}

/// Expected power from per-gate toggle rates (toggles per cycle),
/// milliwatts. Used by probabilistic (design-tool) analyses.
pub fn power_from_rates(nl: &Netlist, lib: &CellLibrary, clock_hz: f64, rates: &[f64]) -> f64 {
    assert_eq!(rates.len(), nl.gate_count(), "one rate per gate");
    let mut fj = 0.0;
    for (g, &rate) in nl.gates().iter().zip(rates) {
        let p = lib.power(g.kind());
        // A toggle is rise or fall with equal likelihood.
        fj += rate * 0.5 * (p.energy_rise_fj + p.energy_fall_fj);
    }
    let leak_mw: f64 = nl
        .gates()
        .iter()
        .map(|g| lib.power(g.kind()).leakage_nw)
        .sum::<f64>()
        * 1e-6;
    let clock_mw: f64 = nl
        .gates()
        .iter()
        .map(|g| lib.power(g.kind()).clock_pin_fj)
        .sum::<f64>()
        * CLOCK_TREE_FACTOR
        * clock_hz
        * 1e-12;
    fj * clock_hz * 1e-12 + leak_mw + clock_mw
}

/// Returns `true` if kind `k` never toggles (tie cells).
pub fn is_static_cell(k: CellKind) -> bool {
    matches!(k, CellKind::Tie0 | CellKind::Tie1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbound_logic::Lv;
    use xbound_netlist::rtl::Rtl;
    use xbound_sim::Simulator;

    fn counter_frames(n: usize) -> (Netlist, Vec<Frame>) {
        let mut r = Rtl::new("cnt");
        r.set_module("datapath");
        let (h, q) = r.reg("c", 8);
        let one = r.one();
        let (nx, _) = r.inc(&q, one);
        r.reg_next(h, &nx);
        r.output("q", &q);
        let nl = r.finish().unwrap();
        let mut sim = Simulator::new(&nl);
        sim.reset(1);
        let mut frames = Vec::new();
        for _ in 0..n {
            frames.push(sim.eval().unwrap().clone());
            sim.commit();
        }
        (nl, frames)
    }

    #[test]
    fn nonzero_dynamic_power_for_counting() {
        let (nl, frames) = counter_frames(64);
        let lib = CellLibrary::ulp65();
        let a = PowerAnalyzer::new(&nl, &lib, 100.0e6);
        let t = a.analyze(&frames);
        assert_eq!(t.cycles(), 64);
        assert!(t.peak_mw() > t.leakage_mw());
        assert!(t.avg_mw() > t.leakage_mw());
        assert!(t.peak_mw() <= a.rated_peak_mw(), "rated power is a bound");
        assert!(t.total_energy_j() > 0.0);
    }

    #[test]
    fn first_cycle_is_floor_only() {
        let (nl, frames) = counter_frames(8);
        let lib = CellLibrary::ulp65();
        let a = PowerAnalyzer::new(&nl, &lib, 100.0e6);
        let t = a.analyze(&frames);
        assert!((t.per_cycle_mw()[0] - a.floor_mw()).abs() < 1e-12);
        assert!(a.clock_mw() > 0.0, "sequential design has clock power");
    }

    #[test]
    fn lsb_toggles_most() {
        let (nl, frames) = counter_frames(64);
        let lib = CellLibrary::ulp65();
        let a = PowerAnalyzer::new(&nl, &lib, 100.0e6);
        let counts = a.toggle_counts(&frames);
        // The LSB flop toggles every cycle; find its gate.
        let lsb_net = nl.find_net("datapath/c_q[0]").unwrap();
        let msb_net = nl.find_net("datapath/c_q[7]").unwrap();
        let lsb_gate = nl.driver_of(lsb_net).unwrap();
        let msb_gate = nl.driver_of(msb_net).unwrap();
        assert!(counts[lsb_gate.index()] > 10 * counts[msb_gate.index()].max(1));
    }

    #[test]
    fn per_module_sums_to_total() {
        let (nl, frames) = counter_frames(32);
        let lib = CellLibrary::ulp65();
        let a = PowerAnalyzer::new(&nl, &lib, 100.0e6);
        let t = a.analyze(&frames);
        for c in 0..t.cycles() {
            let module_sum: f64 = t.per_module_mw().iter().map(|m| m[c]).sum();
            let dynamic = t.per_cycle_mw()[c] - a.floor_mw();
            assert!(
                (module_sum - dynamic).abs() < 1e-9,
                "cycle {c}: {module_sum} vs {dynamic}"
            );
        }
    }

    #[test]
    fn higher_clock_higher_power_same_energy() {
        let (nl, frames) = counter_frames(32);
        let lib = CellLibrary::ulp65();
        let slow_a = PowerAnalyzer::new(&nl, &lib, 8.0e6);
        let fast_a = PowerAnalyzer::new(&nl, &lib, 100.0e6);
        let slow = slow_a.analyze(&frames);
        let fast = fast_a.analyze(&frames);
        assert!(fast.peak_mw() > slow.peak_mw());
        // Switching + clock energy is frequency-independent.
        let se = slow.total_energy_j() - slow_a.leakage_mw() * 1e-3 / 8.0e6 * 32.0;
        let fe = fast.total_energy_j() - fast_a.leakage_mw() * 1e-3 / 100.0e6 * 32.0;
        assert!((se - fe).abs() / se < 1e-9);
    }

    #[test]
    fn x_transitions_charged_max_energy() {
        use xbound_logic::Lv;
        let mut r = Rtl::new("t");
        let a_in = r.input_bit("a");
        let y = r.not(a_in);
        r.output_bit("y", y);
        let nl = r.finish().unwrap();
        let lib = CellLibrary::ulp65();
        let an = PowerAnalyzer::new(&nl, &lib, 1.0e6);
        let mut f0 = Frame::new(nl.net_count());
        let mut f1 = Frame::new(nl.net_count());
        f0.set(y.index(), Lv::Zero);
        f1.set(y.index(), Lv::X);
        let t = an.analyze(&[f0, f1]);
        let dyn_mw = t.per_cycle_mw()[1] - an.floor_mw();
        let exp = lib.max_transition_energy_fj(CellKind::Inv) * 1.0e6 * 1e-12;
        assert!((dyn_mw - exp).abs() < 1e-12);
    }

    #[test]
    fn module_breakdown_sorted() {
        let (nl, frames) = counter_frames(16);
        let lib = CellLibrary::ulp65();
        let t = PowerAnalyzer::new(&nl, &lib, 100.0e6).analyze(&frames);
        let b = t.module_breakdown_at(5);
        for w in b.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn analyze_batch_is_bit_identical_to_scalar_per_lane() {
        use xbound_logic::BatchFrame;
        // Two different stimuli on the same design, packed into two lanes.
        let mut r = Rtl::new("cnt");
        r.set_module("datapath");
        let en = r.input_bit("en");
        let (h, q) = r.reg("c", 8);
        let one = r.one();
        let (nx, _) = r.inc(&q, one);
        let gated: Vec<_> = q.iter().zip(&nx).map(|(&q, &n)| r.mux(en, q, n)).collect();
        r.reg_next(h, &gated);
        r.output("q", &q);
        let nl = r.finish().unwrap();
        let en_net = nl.find_net("en").unwrap();
        let mut lane_frames: Vec<Vec<Frame>> = Vec::new();
        for drive in [Lv::One, Lv::X] {
            let mut sim = Simulator::new(&nl);
            sim.drive_input(en_net, drive);
            sim.reset(1);
            let mut frames = Vec::new();
            for _ in 0..40 {
                frames.push(sim.eval().unwrap().clone());
                sim.commit();
            }
            lane_frames.push(frames);
        }
        let mut batch = Vec::new();
        for c in 0..40 {
            let mut bf = BatchFrame::new(nl.net_count(), 2);
            for (l, frames) in lane_frames.iter().enumerate() {
                for i in 0..nl.net_count() {
                    bf.set_lane(i, l, frames[c].get(i));
                }
            }
            batch.push(bf);
        }
        let lib = CellLibrary::ulp65();
        let a = PowerAnalyzer::new(&nl, &lib, 100.0e6);
        // Full length, and with lane 1 truncated (early halt shape).
        let cuts = [40usize, 23];
        let traces = a.analyze_batch(&batch, Some(&cuts));
        for (l, t) in traces.iter().enumerate() {
            let scalar = a.analyze(&lane_frames[l][..cuts[l]]);
            assert_eq!(t, &scalar, "lane {l} trace differs from scalar");
        }
        let full = a.analyze_batch(&batch, None);
        assert_eq!(full[0], a.analyze(&lane_frames[0]));
    }

    #[test]
    fn energy_walk_is_bit_identical_to_one_lane_accumulator() {
        use xbound_logic::BatchFrame;
        // Two modules, toggling primary inputs (undriven: free), and a
        // net count that is not a multiple of 64.
        let mut r = Rtl::new("walk");
        r.set_module("ctl");
        let en = r.input_bit("en");
        let d = r.input("d", 8);
        let (h, q) = r.reg("acc", 8);
        r.set_module("datapath");
        let (sum, _) = r.add(&q, &d, None);
        let gated: Vec<_> = q.iter().zip(&sum).map(|(&q, &s)| r.mux(en, q, s)).collect();
        r.reg_next(h, &gated);
        r.output("q", &q);
        let nl = r.finish().unwrap();
        assert_ne!(nl.net_count() % 64, 0);
        assert!(nl.modules().len() > 1);
        // Every embedded cell rises at its maximum energy, so a skewed
        // library, where half the kinds fall at it, tells an X endpoint
        // apart from a rise.
        let skewed: Vec<(CellKind, xbound_cells::CellPower)> = CellKind::ALL
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let p = *CellLibrary::ulp65().power(k);
                let (rise, fall) = (1.0 + i as f64, 1.5 + 2.0 * i as f64);
                let (energy_rise_fj, energy_fall_fj) = if i % 2 == 0 {
                    (fall, rise)
                } else {
                    (rise, fall)
                };
                (
                    k,
                    xbound_cells::CellPower {
                        energy_rise_fj,
                        energy_fall_fj,
                        ..p
                    },
                )
            })
            .collect();
        let libs = [
            CellLibrary::ulp65(),
            CellLibrary::from_cells("skewed", 1.0, &skewed).unwrap(),
        ];
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for round in 0..40 {
            let a = PowerAnalyzer::new(&nl, &libs[round % 2], 100.0e6);
            // Random 3-valued frames: X endpoints on both sides of a
            // pair, and X → X pairs, at every net, inputs included.
            let frames: Vec<Frame> = (0..1 + next() as usize % 12)
                .map(|_| {
                    (0..nl.net_count())
                        .map(|_| match next() % 5 {
                            0 => Lv::X,
                            1 | 2 => Lv::Zero,
                            _ => Lv::One,
                        })
                        .collect()
                })
                .collect();
            for boundary in [None, Some(&frames[0])] {
                let rest = &frames[usize::from(boundary.is_some())..];
                let walk = a.analyze_energy_with_boundary(boundary, rest);
                let mut acc = a.batch_accumulator(1);
                for f in boundary.into_iter().chain(rest) {
                    let mut lane = BatchFrame::new(nl.net_count(), 1);
                    lane.broadcast_from(f);
                    acc.push(&lane);
                }
                let reference = acc.finish_energy(None).pop().unwrap();
                assert_eq!(bits(walk.per_cycle_fj()), bits(reference.per_cycle_fj()));
                assert_eq!(walk.per_module_fj().len(), reference.per_module_fj().len());
                for (w, r) in walk.per_module_fj().iter().zip(reference.per_module_fj()) {
                    assert_eq!(bits(w), bits(r));
                }
            }
        }
    }

    #[test]
    fn power_from_rates_scales_linearly() {
        let (nl, _) = counter_frames(2);
        let lib = CellLibrary::ulp65();
        let low = power_from_rates(&nl, &lib, 100.0e6, &vec![0.1; nl.gate_count()]);
        let high = power_from_rates(&nl, &lib, 100.0e6, &vec![0.2; nl.gate_count()]);
        let floor = PowerAnalyzer::new(&nl, &lib, 100.0e6).floor_mw();
        assert!((2.0 * (low - floor) - (high - floor)).abs() < 1e-12);
    }
}
