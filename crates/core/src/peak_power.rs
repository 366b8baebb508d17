//! Algorithm 2: input-independent peak power computation.
//!
//! The activity-annotated execution tree contains X values wherever the
//! application could not constrain a net. To bound peak power, the Xs of
//! every pair of consecutive cycles `(c−1, c)` are assigned the values that
//! maximize switching energy in cycle `c`:
//!
//! * `(X, X)` → the cell's **maximum-energy transition** (library lookup);
//! * `(v, X)` → `!v` (force a toggle into cycle `c`);
//! * `(X, v)` → `!v` in `c−1` (same);
//!
//! Because assigning `c−1` to maximize cycle `c` conflicts with maximizing
//! cycle `c−1` itself, two assignments are produced — one maximizing all
//! **even** cycles and one all **odd** cycles — power-analyzed separately,
//! and interleaved into the per-cycle peak-power bound trace. The peak
//! power requirement is the maximum of that trace (paper Fig 10 / §3.2).

use crate::tree::{ExecutionTree, SegmentEnd, SegmentId};
use std::ops::Range;
use xbound_cells::CellLibrary;
use xbound_logic::{lanes_to_bitsets, Frame, Lv};
use xbound_netlist::{CellKind, NetId, Netlist};
use xbound_obs::trace;
use xbound_power::{EnergyTrace, PowerAnalyzer};

/// Cycle parity an assignment maximizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parity {
    /// Maximize even global cycles.
    Even,
    /// Maximize odd global cycles.
    Odd,
}

impl Parity {
    /// `true` when `cycle` has this parity.
    pub fn matches(self, cycle: u64) -> bool {
        match self {
            Parity::Even => cycle % 2 == 0,
            Parity::Odd => cycle % 2 == 1,
        }
    }
}

/// Per-segment resolved frames for one parity assignment.
#[derive(Debug, Clone)]
pub struct ParityAssignment {
    /// Which parity this assignment maximizes.
    pub parity: Parity,
    /// Per segment: the resolved boundary-previous frame (parent's last
    /// frame, private copy) and the resolved segment frames.
    pub segments: Vec<(Option<Frame>, Vec<Frame>)>,
}

/// The peak-power result for one application.
#[derive(Debug, Clone)]
pub struct PeakPowerResult {
    /// Peak power bound, milliwatts.
    pub peak_mw: f64,
    /// Segment and in-segment cycle of the peak.
    pub peak_at: (SegmentId, usize),
    /// Global cycle index of the peak.
    pub peak_cycle: u64,
    /// Per-segment interleaved peak-power bound traces, milliwatts
    /// (`bound[segment][cycle]`).
    pub bound_mw: Vec<Vec<f64>>,
}

impl PeakPowerResult {
    /// Maximum bound at each global cycle across all tree paths (the
    /// envelope used for plotting Fig 11-style traces).
    pub fn envelope_mw(&self, tree: &ExecutionTree) -> Vec<f64> {
        let total = tree
            .segments()
            .iter()
            .map(|s| s.start_cycle + s.len() as u64)
            .max()
            .unwrap_or(0) as usize;
        let mut env = vec![0.0f64; total];
        for (si, seg) in tree.segments().iter().enumerate() {
            for ci in 0..seg.len() {
                let g = seg.global_cycle(ci) as usize;
                env[g] = env[g].max(self.bound_mw[si][ci]);
            }
        }
        env
    }
}

/// Computes per-net *stability* between two consecutive frames: a net is
/// stable when its value provably cannot differ between the two cycles,
/// even if that value is X. Rules (each individually sound):
///
/// * a net whose value is concrete and equal in both frames is stable;
/// * a flip-flop held by its enable (`en = 0` concrete at the earlier
///   cycle, and reset inactive) keeps its stored value — stable even if X;
/// * a combinational gate whose inputs are all stable produces the same
///   value — stable (combinational determinism).
///
/// This removes the dominant pessimism of a naive X assignment: idle
/// X-valued cones (e.g. the hardware-multiplier array between multiplies)
/// cannot toggle, because their registered operands are held.
pub fn stability(nl: &Netlist, prev: &Frame, cur: &Frame) -> Vec<bool> {
    let mut words = Vec::new();
    stability_words_into(nl, prev, cur, &mut words);
    (0..nl.net_count()).map(|i| bit(&words, i)).collect()
}

#[inline]
fn bit(words: &[u64], i: usize) -> bool {
    (words[i / 64] >> (i % 64)) & 1 == 1
}

#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

/// Word-packed form of [`stability`] into a reusable bitset buffer, one
/// cycle pair at a time — the scalar oracle for the block kernel that
/// Algorithm 2 runs ([`BlockStability`]).
///
/// The dominant rule ("concrete and equal in both frames") is computed for
/// every net at once with word-wide bit math over the packed frames; the
/// held-flip-flop and combinational-propagation rules then only examine
/// gates whose output is not already proven stable.
pub fn stability_words_into(nl: &Netlist, prev: &Frame, cur: &Frame, stable: &mut Vec<u64>) {
    // Base rule, all nets at once: known in both frames and equal. For
    // primary inputs this is the complete rule; for gate outputs the
    // remaining rules below can only add stability.
    prev.known_equal_words_into(cur, stable);
    // Sequential outputs: a flip-flop held by its enable keeps its stored
    // value — stable even if that value is X.
    for &g in nl.sequential_gates() {
        let gate = nl.gate(g);
        let out = gate.output().index();
        if bit(stable, out) {
            continue;
        }
        let v = |k: usize| prev.get(gate.inputs()[k].index());
        let held = match gate.kind() {
            CellKind::Dffe => v(1) == Lv::Zero,
            CellKind::Dffre => v(1) == Lv::Zero && v(2) == Lv::One,
            _ => false,
        };
        if held {
            set_bit(stable, out);
        }
    }
    // Combinational propagation in topological order: a gate whose inputs
    // are all stable produces the same value (combinational determinism).
    for &g in nl.topo_order() {
        let gate = nl.gate(g);
        let out = gate.output().index();
        if bit(stable, out) {
            continue;
        }
        let ok = if matches!(gate.kind(), CellKind::Tie0 | CellKind::Tie1) {
            true
        } else {
            gate.kind().input_count() > 0 && gate.inputs().iter().all(|n| bit(stable, n.index()))
        };
        if ok {
            set_bit(stable, out);
        }
    }
}

/// Builds per-segment frame copies with **merge-boundary joins** applied:
/// when a merged path continues in a covering segment, the covering
/// segment's first frame is joined with every merged child's final frame,
/// so the transition into the continuation cycle accounts for *any* of the
/// merged predecessors (join only adds X — conservative).
pub fn merge_adjusted_frames(tree: &ExecutionTree) -> Vec<Vec<Frame>> {
    let mut adjusted: Vec<Vec<Frame>> = tree.segments().iter().map(|s| s.frames.clone()).collect();
    for seg in tree.segments() {
        if let SegmentEnd::Merged { into, .. } = seg.end {
            if let Some(last) = seg.frames.last() {
                if !adjusted[into.index()].is_empty() {
                    adjusted[into.index()][0].join_in_place(last);
                }
            }
        }
    }
    adjusted
}

/// Max transition (first, second) per net, by driver cell, packed as
/// word-wide bitplanes for the word-parallel resolve kernel; primary
/// inputs default to (false, true).
///
/// The table is a pure function of *(netlist, library energy ordering)*:
/// it only reads each cell's [`xbound_cells::CellPower::max_transition`]
/// direction, never the energy magnitudes. Build it once per
/// `(netlist, library)` and reuse it across every segment's assignment
/// ([`assign_tree`], [`crate::sweep::bound_tree`]) — in particular across
/// all the voltage/clock corners of an operating-point sweep, since a
/// voltage derate scales rise and fall by the same factor and cannot flip
/// any direction (see [`xbound_cells::CellLibrary::derated`]).
#[derive(Debug, Clone)]
pub struct MaxTransitions {
    first: Vec<u64>,
    second: Vec<u64>,
}

impl MaxTransitions {
    /// Builds the table for `nl` mapped to `lib`.
    pub fn build(nl: &Netlist, lib: &CellLibrary) -> MaxTransitions {
        let words = nl.net_count().div_ceil(64);
        let mut first = vec![0u64; words];
        let mut second = vec![0u64; words];
        for i in 0..nl.net_count() {
            let (a, b) = match nl.driver_of(NetId(i as u32)) {
                Some(g) => lib.power(nl.gate(g).kind()).max_transition(),
                None => (false, true),
            };
            if a {
                first[i / 64] |= 1 << (i % 64);
            }
            if b {
                second[i / 64] |= 1 << (i % 64);
            }
        }
        MaxTransitions { first, second }
    }
}

/// One segment's resolved frames for one parity: the resolved
/// boundary-previous frame (parent's last frame, private copy) and the
/// resolved segment frames.
pub(crate) type SegmentFrames = (Option<Frame>, Vec<Frame>);

/// Cycle pairs per stability block: one bit per pair in a `u64` lane.
const BLOCK: usize = 64;

/// [`stability`] for up to 64 cycle pairs per topological pass — the block
/// kernel of Algorithm 2.
///
/// Stability is a monotone boolean propagation, so 64 pairs pack into one
/// `u64` per net, bit `k` for pair `k`
/// ([`Frame::known_equal_lanes_into`]): the held-flip-flop rule ORs a
/// word into each register output, and one pass over the combinational
/// gates in topological order ANDs each gate's input words into its
/// output word. [`lanes_to_bitsets`] turns the words back into one
/// bitset per pair, each equal to [`stability_words_into`] of that pair
/// wherever the pair sits in the block.
///
/// Building the kernel flattens the netlist once; reuse it for every
/// block of a tree.
#[derive(Debug, Clone)]
pub struct BlockStability {
    nets: usize,
    /// Tie-cell outputs: stable in every pair.
    ties: Vec<u32>,
    /// The other combinational gates in topological order:
    /// `[output, a, b, c]`, with a short input list padded by repeating
    /// its last net.
    comb: Vec<[u32; 4]>,
    /// The distinct enable and reset nets the held-flip-flop rule reads.
    ctrl: Vec<u32>,
    /// Per `Dffe`/`Dffre`: `[output, enable-known-0 slot,
    /// reset-known-1 slot]` into the per-block control words, where slot
    /// `2j` is "control net `j` known 0", `2j + 1` "known 1", and the last
    /// slot is all ones (a `Dffe` has no reset).
    held: Vec<[u32; 3]>,
}

impl BlockStability {
    /// Flattens `nl` for the block kernel.
    pub fn new(nl: &Netlist) -> BlockStability {
        let mut ties = Vec::new();
        let mut comb = Vec::with_capacity(nl.topo_order().len());
        for &g in nl.topo_order() {
            let gate = nl.gate(g);
            let out = gate.output().0;
            match gate.inputs() {
                [] => ties.push(out),
                ins => {
                    let pin = |k: usize| ins[k.min(ins.len() - 1)].0;
                    comb.push([out, pin(0), pin(1), pin(2)]);
                }
            }
        }
        let mut ctrl: Vec<u32> = Vec::new();
        let mut slot = |net: NetId| -> u32 {
            let j = match ctrl.iter().position(|&c| c == net.0) {
                Some(j) => j,
                None => {
                    ctrl.push(net.0);
                    ctrl.len() - 1
                }
            };
            2 * j as u32
        };
        let mut held = Vec::new();
        for &g in nl.sequential_gates() {
            let gate = nl.gate(g);
            let ins = gate.inputs();
            let (en_zero, rst_one) = match gate.kind() {
                CellKind::Dffe => (slot(ins[1]), None),
                CellKind::Dffre => (slot(ins[1]), Some(slot(ins[2]) + 1)),
                _ => continue,
            };
            held.push((gate.output().0, en_zero, rst_one));
        }
        let always = 2 * ctrl.len() as u32;
        let held = held
            .into_iter()
            .map(|(q, en_zero, rst_one)| [q, en_zero, rst_one.unwrap_or(always)])
            .collect();
        BlockStability {
            nets: nl.net_count(),
            ties,
            comb,
            ctrl,
            held,
        }
    }

    /// The stable sets of up to 64 `(previous, current)` frame pairs:
    /// `out` is resized to `pairs.len()` bitsets, and `out[k]` equals
    /// [`stability_words_into`] of `pairs[k]`, bits past the net count
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty or longer than 64, or if a frame's
    /// length is not the netlist's net count.
    pub fn stability_into(&self, pairs: &[(&Frame, &Frame)], out: &mut Vec<Vec<u64>>) {
        assert!(
            pairs.iter().all(|(p, _)| p.len() == self.nets),
            "frames must cover the netlist"
        );
        let mut lanes = Vec::new();
        Frame::known_equal_lanes_into(pairs, &mut lanes);
        // Held flip-flops: the enable (and reset) of each pair's earlier
        // frame, one word per control net and value.
        let mut known = vec![0u64; 2 * self.ctrl.len() + 1];
        known[2 * self.ctrl.len()] = u64::MAX;
        for (k, (prev, _)) in pairs.iter().enumerate() {
            for (j, &net) in self.ctrl.iter().enumerate() {
                match prev.get(net as usize) {
                    Lv::Zero => known[2 * j] |= 1 << k,
                    Lv::One => known[2 * j + 1] |= 1 << k,
                    Lv::X => {}
                }
            }
        }
        for &[q, en_zero, rst_one] in &self.held {
            lanes[q as usize] |= known[en_zero as usize] & known[rst_one as usize];
        }
        // Combinational determinism, in topological order.
        for &t in &self.ties {
            lanes[t as usize] = u64::MAX;
        }
        for &[y, a, b, c] in &self.comb {
            lanes[y as usize] |= lanes[a as usize] & lanes[b as usize] & lanes[c as usize];
        }
        out.resize_with(pairs.len(), Vec::new);
        lanes_to_bitsets(&lanes, self.nets, out);
    }
}

/// What Algorithm 2's assignment reads from one tree, prepared once per
/// tree: the merge-adjusted frames, each segment's X-bearing cycle pairs,
/// and the block stability kernel (`None` for the ablation).
pub(crate) struct AssignPlan<'t> {
    tree: &'t ExecutionTree,
    adjusted: &'t [Vec<Frame>],
    /// Per segment, the in-segment cycles `ci` whose pair (previous
    /// frame, frame `ci`) holds an X; cycle 0 pairs with the parent's
    /// adjusted last frame, and the root's cycle 0 has no pair.
    x_pairs: Vec<Vec<usize>>,
    stability: Option<BlockStability>,
    no_stability: Vec<u64>,
}

impl<'t> AssignPlan<'t> {
    /// Prepares the assignment of `tree` over its adjusted frames.
    pub(crate) fn new(
        nl: &Netlist,
        tree: &'t ExecutionTree,
        adjusted: &'t [Vec<Frame>],
        use_stability: bool,
    ) -> AssignPlan<'t> {
        let x_pairs = (0..adjusted.len())
            .map(|si| {
                let boundary_x = boundary(tree, adjusted, si).map(|b| b.x_count() > 0);
                let has_x: Vec<bool> = adjusted[si].iter().map(|f| f.x_count() > 0).collect();
                (0..has_x.len())
                    .filter(|&ci| {
                        let prev_x = if ci == 0 {
                            boundary_x
                        } else {
                            Some(has_x[ci - 1])
                        };
                        prev_x.is_some_and(|p| p || has_x[ci])
                    })
                    .collect()
            })
            .collect();
        AssignPlan {
            tree,
            adjusted,
            x_pairs,
            stability: use_stability.then(|| BlockStability::new(nl)),
            no_stability: vec![0u64; nl.net_count().div_ceil(64)],
        }
    }

    /// The fan-out units of Algorithm 2: runs of consecutive segments, in
    /// index order, holding at most 64 X-bearing pairs, so that short
    /// segments share a stability block. A segment with more pairs is a
    /// unit of its own.
    pub(crate) fn units(&self) -> Vec<Range<usize>> {
        let mut units = Vec::new();
        let (mut start, mut pairs) = (0, 0);
        for (si, p) in self.x_pairs.iter().enumerate() {
            if si > start && pairs + p.len() > BLOCK {
                units.push(start..si);
                (start, pairs) = (si, 0);
            }
            pairs += p.len();
        }
        if start < self.x_pairs.len() {
            units.push(start..self.x_pairs.len());
        }
        units
    }

    /// The pre-assignment frames of one X-bearing pair.
    fn pair(&self, si: usize, ci: usize) -> (&'t Frame, &'t Frame) {
        let frames = &self.adjusted[si];
        let prev = match ci {
            0 => boundary(self.tree, self.adjusted, si).expect("cycle 0 pairs need a boundary"),
            _ => &frames[ci - 1],
        };
        (prev, &frames[ci])
    }

    /// Resolves the Xs of segments `segs` (ascending) for both parities —
    /// the assignment kernel of Algorithm 2, shared by [`assign_tree`] and
    /// the streamed [`crate::sweep::bound_tree`]. Returns each segment's
    /// `(even, odd)` frames.
    ///
    /// Segment-boundary pairs use a private copy of the parent's last
    /// frame so sibling paths cannot constrain each other (keeps the
    /// bound sound for every path independently). Pairs proved stable
    /// ([`stability`]) are held (no transition charged) unless the plan
    /// is the ablation (the paper's literal maximizing assignment); the
    /// rest follow the paper's maximizing assignment. Frames come from
    /// [`merge_adjusted_frames`], which makes the bound valid for paths
    /// that re-enter a segment through a memoization merge.
    ///
    /// Both parities read the same pre-assignment frames, so each
    /// X-bearing pair's stable set is computed once, in blocks of 64
    /// pairs that run across segment boundaries, and serves the parity
    /// its cycle belongs to. Pairs of one parity touch disjoint frames,
    /// so the order of assignment cannot matter.
    ///
    /// A segment's result depends only on its adjusted frames, its
    /// parent's adjusted last frame, its start-cycle parity, and the
    /// table, whatever else shares its blocks, so the grouping of
    /// segments into blocks never changes a bound.
    pub(crate) fn assign(
        &self,
        segs: &[usize],
        tr: &MaxTransitions,
    ) -> Vec<(SegmentFrames, SegmentFrames)> {
        let mut copies: Vec<(SegmentFrames, SegmentFrames)> = {
            let _span = trace::span("alg2_assign");
            segs.iter()
                .map(|&si| {
                    let copy = (
                        boundary(self.tree, self.adjusted, si).cloned(),
                        self.adjusted[si].clone(),
                    );
                    (copy.clone(), copy)
                })
                .collect()
        };
        let pairs: Vec<(usize, usize)> = segs
            .iter()
            .enumerate()
            .flat_map(|(slot, &si)| self.x_pairs[si].iter().map(move |&ci| (slot, ci)))
            .collect();
        let mut stable_sets = Vec::new();
        for block in pairs.chunks(BLOCK) {
            if let Some(kernel) = &self.stability {
                let _span = trace::span("alg2_stability");
                let frames: Vec<(&Frame, &Frame)> = block
                    .iter()
                    .map(|&(slot, ci)| self.pair(segs[slot], ci))
                    .collect();
                kernel.stability_into(&frames, &mut stable_sets);
            }
            let _span = trace::span("alg2_assign");
            for (k, &(slot, ci)) in block.iter().enumerate() {
                let stable = match self.stability {
                    Some(_) => &stable_sets[k][..],
                    None => &self.no_stability[..],
                };
                let (even, odd) = &mut copies[slot];
                let gc = self.tree.segments()[segs[slot]].global_cycle(ci);
                let (boundary, frames) = if Parity::Even.matches(gc) { even } else { odd };
                let (prev, cur) = match ci {
                    0 => (
                        boundary.as_mut().expect("pair has a boundary"),
                        &mut frames[0],
                    ),
                    _ => {
                        let (a, b) = frames.split_at_mut(ci);
                        (&mut a[ci - 1], &mut b[0])
                    }
                };
                Frame::assign_x_pair(prev, cur, stable, &tr.first, &tr.second);
            }
        }
        // Leftover Xs (off-parity positions and cycle 0) hold 0: their
        // cycles are discarded by the interleaving.
        let _span = trace::span("alg2_assign");
        for (boundary, frames) in copies.iter_mut().flat_map(|(e, o)| [e, o]) {
            for f in boundary.iter_mut().chain(frames) {
                f.resolve_x_to_zero();
            }
        }
        copies
    }
}

/// The boundary-previous frame of segment `si`: its parent's adjusted
/// last frame.
pub(crate) fn boundary<'a>(
    tree: &ExecutionTree,
    adjusted: &'a [Vec<Frame>],
    si: usize,
) -> Option<&'a Frame> {
    tree.segments()[si]
        .parent
        .and_then(|(pid, _)| adjusted[pid.index()].last())
}

/// Both parity assignments of a whole tree — the discrete stage of
/// Algorithm 2.
///
/// The assignment depends on the library only through the
/// [`MaxTransitions`] table, which is shared by every voltage derate of a
/// base library. Algorithm 2 therefore resolves each segment's Xs **once
/// per base library** and reuses the frames for every derate of it;
/// frames are exact logic values, so the reuse cannot perturb a single
/// bit downstream.
#[derive(Debug, Clone)]
pub struct TreeAssignments {
    /// The even-maximizing assignment.
    pub even: ParityAssignment,
    /// The odd-maximizing assignment.
    pub odd: ParityAssignment,
}

/// Resolves both parity assignments of the whole tree over precomputed
/// adjusted frames and a precomputed max-transitions table: a loop of
/// the assignment kernel of [`crate::sweep::bound_tree`] over the same
/// units of segments (see [`TreeAssignments`]).
pub fn assign_tree(
    nl: &Netlist,
    tree: &ExecutionTree,
    adjusted: &[Vec<Frame>],
    use_stability: bool,
    tr: &MaxTransitions,
) -> TreeAssignments {
    let plan = AssignPlan::new(nl, tree, adjusted, use_stability);
    let (even, odd) = plan
        .units()
        .into_iter()
        .flat_map(|unit| plan.assign(&unit.collect::<Vec<_>>(), tr))
        .unzip();
    TreeAssignments {
        even: ParityAssignment {
            parity: Parity::Even,
            segments: even,
        },
        odd: ParityAssignment {
            parity: Parity::Odd,
            segments: odd,
        },
    }
}

/// Per-segment even/odd **energy** traces of one library — the gate-level
/// stage of Algorithm 2, stopped before the clock enters.
///
/// Transition energies depend on the (possibly derated) library but not
/// on the clock ([`EnergyTrace`]); Algorithm 2 runs this once per distinct
/// library and converts per corner via [`compose_peak_power`].
#[derive(Debug, Clone)]
pub struct TreeEnergyTraces {
    /// Even-assignment energy traces, per segment.
    pub even: Vec<EnergyTrace>,
    /// Odd-assignment energy traces, per segment.
    pub odd: Vec<EnergyTrace>,
}

/// Power-analyzes one segment's even and odd assignments into energy
/// traces under `analyzer`'s library — the per-segment energy kernel
/// shared by [`analyze_tree_energy`] and the streamed
/// [`crate::sweep::bound_tree`]. `analyzer`'s clock is not read.
pub(crate) fn analyze_segment_energy(
    analyzer: &PowerAnalyzer,
    even: &SegmentFrames,
    odd: &SegmentFrames,
) -> (EnergyTrace, EnergyTrace) {
    let energy = |(boundary, frames): &SegmentFrames| {
        analyzer.analyze_energy_with_boundary(boundary.as_ref(), frames)
    };
    (energy(even), energy(odd))
}

/// Power-analyzes both assignments of the whole tree into per-segment
/// energy traces under `analyzer`'s library: a loop of the per-segment
/// energy kernel of [`crate::sweep::bound_tree`] (`analyzer`'s clock is
/// not read — see [`TreeEnergyTraces`]).
pub fn analyze_tree_energy(
    analyzer: &PowerAnalyzer,
    assignments: &TreeAssignments,
) -> TreeEnergyTraces {
    let (even, odd) = assignments
        .even
        .segments
        .iter()
        .zip(&assignments.odd.segments)
        .map(|(e, o)| analyze_segment_energy(analyzer, e, o))
        .unzip();
    TreeEnergyTraces { even, odd }
}

/// Converts energy traces at `analyzer`'s clock and composes the
/// peak-power bound — the per-corner stage of Algorithm 2.
///
/// Each cycle's power is [`PowerAnalyzer::cycle_mw`] of its energy, the
/// conversion of [`EnergyTrace::to_power_trace`], so the bound is
/// bit-identical to composing traces analyzed directly at that clock.
pub fn compose_peak_power(
    tree: &ExecutionTree,
    analyzer: &PowerAnalyzer,
    energy: &TreeEnergyTraces,
) -> PeakPowerResult {
    let mut bound = Vec::with_capacity(tree.segments().len());
    let mut peak = 0.0f64;
    let mut peak_at = (SegmentId(0), 0usize);
    let mut peak_cycle = 0u64;
    for (si, seg) in tree.segments().iter().enumerate() {
        let (even, odd) = (
            energy.even[si].per_cycle_fj(),
            energy.odd[si].per_cycle_fj(),
        );
        // Per-trace cycle offset: traces with a boundary frame have one
        // extra leading cycle (the trace is longer than the segment by
        // exactly that boundary cycle).
        let off = even.len() - seg.len();
        let mut seg_bound = Vec::with_capacity(seg.len());
        for ci in 0..seg.len() {
            // The bound for a cycle is the larger of the even- and
            // odd-maximizing assignments. The paper interleaves by parity;
            // taking the max additionally keeps the per-cycle bound valid
            // for paths that reach this segment through a memoization merge
            // with the opposite parity (loop bodies of odd length).
            let p = analyzer
                .cycle_mw(even[ci + off])
                .max(analyzer.cycle_mw(odd[ci + off]));
            seg_bound.push(p);
            if p > peak {
                peak = p;
                peak_at = (SegmentId(si as u32), ci);
                peak_cycle = seg.global_cycle(ci);
            }
        }
        bound.push(seg_bound);
    }
    PeakPowerResult {
        peak_mw: peak,
        peak_at,
        peak_cycle,
        bound_mw: bound,
    }
}

/// Peak-energy computation over the execution tree.
///
/// Total energy of a path is the sum of per-cycle peak-power bounds times
/// the clock period; the peak energy requirement is the maximum over all
/// root-to-halt paths. Merges (memoization edges) make the graph cyclic for
/// input-dependent loops; the value iteration below walks the graph for a
/// bounded number of rounds — exact when it converges (DAG) and otherwise
/// bounded by `max_rounds` (callers supply the loop bound per the paper's
/// §3.3: static analysis or user input).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeakEnergyResult {
    /// Peak energy bound over a full execution, joules.
    pub peak_energy_j: f64,
    /// Cycles of the maximizing path.
    pub cycles: u64,
    /// Normalized peak energy (J/cycle) — the paper's Fig 15b/17 metric.
    pub npe_j_per_cycle: f64,
    /// `true` if the value iteration converged (no unbounded loop left).
    pub converged: bool,
}

/// Computes peak energy via value iteration (see [`PeakEnergyResult`]).
pub fn compute_peak_energy(
    tree: &ExecutionTree,
    peak: &PeakPowerResult,
    clock_hz: f64,
    max_rounds: u64,
) -> PeakEnergyResult {
    let _span = xbound_obs::trace::span("peak_energy");
    let period = 1.0 / clock_hz;
    let n = tree.segments().len();
    // Per-segment local energy (J) and cycle count.
    let local: Vec<(f64, u64)> = (0..n)
        .map(|si| {
            let e: f64 = peak.bound_mw[si].iter().map(|mw| mw * 1e-3 * period).sum();
            (e, tree.segments()[si].len() as u64)
        })
        .collect();
    // Value iteration: E[s] = local(s) + max over successors.
    let succ: Vec<Vec<usize>> = (0..n)
        .map(|si| match &tree.segments()[si].end {
            SegmentEnd::Halt | SegmentEnd::Truncated => Vec::new(),
            SegmentEnd::Fork {
                taken, not_taken, ..
            } => vec![taken.index(), not_taken.index()],
            SegmentEnd::Merged { into, .. } => vec![into.index()],
        })
        .collect();
    let mut e = vec![(0.0f64, 0u64); n];
    let mut converged = false;
    for _ in 0..max_rounds {
        let mut changed = false;
        for si in (0..n).rev() {
            let best = succ[si]
                .iter()
                .map(|&t| e[t])
                .max_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"))
                .unwrap_or((0.0, 0));
            let cand = (local[si].0 + best.0, local[si].1 + best.1);
            if cand.0 > e[si].0 + 1e-18 {
                e[si] = cand;
                changed = true;
            }
        }
        if !changed {
            converged = true;
            break;
        }
    }
    let (energy, cycles) = e[tree.root().index()];
    PeakEnergyResult {
        peak_energy_j: energy,
        cycles,
        npe_j_per_cycle: if cycles > 0 {
            energy / cycles as f64
        } else {
            0.0
        },
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{ForkChoice, Segment};
    use xbound_logic::Frame;
    use xbound_netlist::rtl::Rtl;

    /// A 3-net design standing in for the paper's Fig 10/3.2 example.
    fn toy() -> Netlist {
        let mut r = Rtl::new("toy");
        let a = r.input_bit("a");
        let b = r.input_bit("b");
        let g1 = r.and(a, b);
        let g2 = r.or(a, b);
        let g3 = r.xor(g1, g2);
        r.output_bit("g1", g1);
        r.output_bit("g2", g2);
        r.output_bit("g3", g3);
        r.finish().expect("builds")
    }

    fn frame_of(nl: &Netlist, vals: &[(usize, Lv)]) -> Frame {
        let mut f = Frame::new(nl.net_count());
        for &(i, v) in vals {
            f.set(i, v);
        }
        f
    }

    fn single_segment_tree(nl: &Netlist, rows: &[Vec<Lv>]) -> ExecutionTree {
        let mut tree = ExecutionTree::new();
        let frames: Vec<Frame> = rows
            .iter()
            .map(|row| {
                frame_of(
                    nl,
                    &row.iter()
                        .enumerate()
                        .map(|(i, v)| (i, *v))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        tree.push(Segment {
            parent: None,
            start_cycle: 0,
            frames,
            end: SegmentEnd::Halt,
        });
        tree
    }

    #[test]
    fn fig_3_2_style_assignment_rules() {
        use Lv::{One, Zero, X};
        let nl = toy();
        let lib = xbound_cells::CellLibrary::ulp65();
        // Nine cycles of overlapping Xs on every net (paper Fig 10 shape).
        let n = nl.net_count();
        let rows: Vec<Vec<Lv>> = vec![
            vec![Zero; n],
            vec![Zero; n],
            vec![One; n],
            vec![X; n],
            vec![X; n],
            vec![X; n],
            vec![Zero; n],
            vec![Zero; n],
            vec![Zero; n],
        ];
        let tree = single_segment_tree(&nl, &rows);
        let tr = MaxTransitions::build(&nl, &lib);
        let both = assign_tree(&nl, &tree, &merge_adjusted_frames(&tree), true, &tr);
        for asg in [&both.even, &both.odd] {
            let parity = asg.parity;
            let (_, frames) = &asg.segments[0];
            // No X left anywhere.
            for (c, f) in frames.iter().enumerate() {
                for i in 0..f.len() {
                    assert!(f.get(i).is_known(), "cycle {c} net {i} still X");
                }
            }
            // Every target-parity cycle whose pair had X on a driven net
            // shows a transition on that net (the forced-toggle rule).
            for c in 1..rows.len() {
                if !parity.matches(c as u64) {
                    continue;
                }
                #[allow(clippy::needless_range_loop)] // indexes three parallel rows
                for i in 0..n {
                    let had_x = rows[c][i] == X || rows[c - 1][i] == X;
                    let driven = nl.driver_of(xbound_netlist::NetId(i as u32)).is_some();
                    if had_x && driven {
                        assert_ne!(
                            frames[c - 1].get(i),
                            frames[c].get(i),
                            "cycle {c} net {i}: X pair must be assigned a toggle"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn x_pairs_take_max_energy_transition() {
        use Lv::X;
        let nl = toy();
        let lib = xbound_cells::CellLibrary::ulp65();
        let n = nl.net_count();
        let rows = vec![vec![X; n], vec![X; n]];
        let tree = single_segment_tree(&nl, &rows);
        let tr = MaxTransitions::build(&nl, &lib);
        let asg = assign_tree(&nl, &tree, &merge_adjusted_frames(&tree), true, &tr).odd;
        let (_, frames) = &asg.segments[0];
        for i in 0..n {
            if let Some(g) = nl.driver_of(xbound_netlist::NetId(i as u32)) {
                let (first, second) = lib.power(nl.gate(g).kind()).max_transition();
                assert_eq!(frames[0].get(i), Lv::from_bool(first), "net {i} first");
                assert_eq!(frames[1].get(i), Lv::from_bool(second), "net {i} second");
            }
        }
    }

    #[test]
    fn stability_holds_for_enabled_registers() {
        use Lv::{One, Zero, X};
        let mut r = Rtl::new("t");
        let d = r.input("d", 4);
        let en = r.input_bit("en");
        let (h, q) = r.reg("held", 4);
        r.reg_next_en(h, &d, en);
        r.output("q", &q);
        let nl = r.finish().expect("builds");
        let en_net = nl.find_net("en").expect("net");
        let rstn = nl.find_net("rstn").expect("net");
        let q0 = nl.find_net("top/held_q[0]").expect("net");
        // en = 0 in the earlier frame, reset inactive, q = X in both:
        // held -> stable.
        let mut prev = Frame::new_all_x(nl.net_count());
        prev.set(en_net.index(), Zero);
        prev.set(rstn.index(), One);
        let mut cur = Frame::new_all_x(nl.net_count());
        cur.set(en_net.index(), One);
        cur.set(rstn.index(), One);
        let st = stability(&nl, &prev, &cur);
        assert!(st[q0.index()], "held register is stable");
        // en = X: not provably held.
        prev.set(en_net.index(), X);
        let st = stability(&nl, &prev, &cur);
        assert!(!st[q0.index()], "unknown enable is not stable");
    }

    #[test]
    fn stability_propagates_through_combinational_cones() {
        use Lv::{One, Zero};
        let nl = toy();
        let a = nl.find_net("a").expect("net");
        let b = nl.find_net("b").expect("net");
        let rstn = nl.find_net("rstn").expect("net");
        // Concrete, equal inputs across the pair: whole cone stable even
        // though the frame values of internal nets are X.
        let mut prev = Frame::new_all_x(nl.net_count());
        prev.set(a.index(), One);
        prev.set(b.index(), Zero);
        prev.set(rstn.index(), One);
        let cur = prev.clone();
        let st = stability(&nl, &prev, &cur);
        for (i, stable) in st.iter().enumerate().take(nl.net_count()) {
            assert!(stable, "net {i} should be stable");
        }
    }

    #[test]
    fn merge_adjusted_frames_joins_child_into_owner() {
        use Lv::{One, Zero};
        let nl = toy();
        let mut tree = ExecutionTree::new();
        let n = nl.net_count();
        let rows: Vec<Vec<Lv>> = vec![vec![Zero; n]; 2];
        let root = {
            let frames: Vec<Frame> = rows.iter().map(|r0| r0.iter().copied().collect()).collect();
            tree.push(Segment {
                parent: None,
                start_cycle: 0,
                frames,
                end: SegmentEnd::Halt, // patched below
            })
        };
        let owner = tree.push(Segment {
            parent: Some((root, ForkChoice::Taken)),
            start_cycle: 2,
            frames: vec![Frame::new(n), Frame::new(n)],
            end: SegmentEnd::Halt,
        });
        let merged_frame = {
            let mut f = Frame::new(n);
            f.set(0, One); // differs from owner's first frame
            f
        };
        let merged = tree.push(Segment {
            parent: Some((root, ForkChoice::NotTaken)),
            start_cycle: 2,
            frames: vec![merged_frame],
            end: SegmentEnd::Merged {
                into: owner,
                at_pc: 0,
                widened: false,
            },
        });
        tree.get_mut(root).end = SegmentEnd::Fork {
            branch_pc: 0,
            taken: owner,
            not_taken: merged,
        };
        let adjusted = merge_adjusted_frames(&tree);
        // Owner's first frame: net 0 joined (0 vs 1 -> X).
        assert_eq!(adjusted[owner.index()][0].get(0), Lv::X);
        // Other nets agree -> unchanged.
        assert_eq!(adjusted[owner.index()][0].get(1), Lv::Zero);
        // Merged child's own frames untouched.
        assert_eq!(adjusted[merged.index()][0].get(0), Lv::One);
    }

    #[test]
    fn peak_energy_value_iteration_on_a_dag() {
        let nl = toy();
        use Lv::Zero;
        let n = nl.net_count();
        let rows = vec![vec![Zero; n]; 4];
        let tree = single_segment_tree(&nl, &rows);
        let lib = xbound_cells::CellLibrary::ulp65();
        let spec = crate::SweepSpec::new(vec![crate::Corner::nominal(lib, 1.0e6)]);
        let bound = crate::bound_tree(&nl, &tree, &spec, true, 100, 1, |_, b| b);
        let e = compute_peak_energy(&tree, &bound[0].peak, 1.0e6, 100);
        assert_eq!(
            e, bound[0].energy,
            "bound_tree runs the same value iteration"
        );
        assert!(e.converged, "single segment converges");
        assert_eq!(e.cycles, 4);
        // All-zero frames: energy is the per-cycle floor times 4 cycles.
        assert!(e.peak_energy_j > 0.0);
    }
}
