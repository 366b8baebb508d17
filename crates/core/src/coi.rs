//! Cycles-of-interest (COI) analysis — paper §3.5 / Fig 14.
//!
//! For the cycles where the peak-power bound spikes, reports **which
//! instruction** was in the machine (and in which pipeline phase) and the
//! **per-module power breakdown**, identifying the culprit
//! instruction/module pairs that software optimizations should target.
//!
//! The bound keeps per-cycle totals only, so each reported cycle's
//! segment is assigned again with Algorithm 2's kernels and the one pair
//! that set its bound is split by module
//! ([`xbound_power::PowerAnalyzer::module_energy_fj`]).

use crate::peak_power::{merge_adjusted_frames, AssignPlan, MaxTransitions, PeakPowerResult};
use crate::tree::{ExecutionTree, SegmentId};
use crate::UlpSystem;
use xbound_cpu::State;
use xbound_logic::XWord;
use xbound_msp430::isa::{decode, Instr};

/// One cycle of interest.
#[derive(Debug, Clone)]
pub struct CycleOfInterest {
    /// Where in the tree the spike occurs.
    pub segment: SegmentId,
    /// Cycle within the segment.
    pub cycle: usize,
    /// Global cycle index.
    pub global_cycle: u64,
    /// Peak-power bound at this cycle, milliwatts.
    pub power_mw: f64,
    /// FSM phase during the cycle.
    pub state: Option<State>,
    /// The in-flight instruction (decoded from IR), if decodable.
    pub instr: Option<Instr>,
    /// Per-module power breakdown, `(module, mW)`, descending.
    pub breakdown: Vec<(String, f64)>,
}

/// Finds the `k` highest-power cycles of the bound trace (at most one per
/// distinct global cycle) and annotates them. `peak` must be the bound of
/// `tree` under `system`'s library and clock.
pub fn cycles_of_interest(
    system: &UlpSystem,
    tree: &ExecutionTree,
    peak: &PeakPowerResult,
    k: usize,
) -> Vec<CycleOfInterest> {
    let cpu = system.cpu();
    let nl = cpu.netlist();
    let analyzer = system.analyzer();
    let adjusted = merge_adjusted_frames(tree);
    let table = MaxTransitions::build(nl, system.library());
    let plan = AssignPlan::new(nl, tree, &adjusted, true);
    let mut all: Vec<(f64, SegmentId, usize)> = Vec::new();
    for (si, seg) in tree.segments().iter().enumerate() {
        for ci in 0..seg.len() {
            all.push((peak.bound_mw[si][ci], SegmentId(si as u32), ci));
        }
    }
    all.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite power"));
    let mut seen_cycles = std::collections::HashSet::new();
    let mut out = Vec::new();
    for (p, sid, ci) in all {
        let seg = tree.segment(sid);
        let gc = seg.global_cycle(ci);
        if !seen_cycles.insert(gc) {
            continue;
        }
        let frame = &seg.frames[ci];
        // FSM state from the frame.
        let mut state = None;
        for (i, &net) in cpu.io().states.iter().enumerate() {
            if frame.get(net.index()) == xbound_logic::Lv::One {
                state = Some(State::ALL[i]);
                break;
            }
        }
        // Instruction from IR.
        let mut ir = XWord::ZERO;
        for (b, &net) in cpu.io().ir.iter().enumerate() {
            ir.set_bit(b, frame.get(net.index()));
        }
        let instr = ir
            .to_u16()
            .and_then(|w| decode(&[w, 0, 0], 0).ok())
            .map(|(i, _)| i);
        // Module breakdown from the parity assignment that produced this
        // bound (the larger of the two, even on a tie), recomputed for
        // this cycle's one pair.
        let (even, odd) = plan
            .assign(&[sid.index()], &table)
            .pop()
            .expect("one segment");
        let [even, odd] = [&even, &odd].map(|(boundary, frames)| {
            // The root's cycle 0 has no predecessor: a frame paired with
            // itself charges nothing, like a trace's floor-only cycle 0.
            let prev = match ci {
                0 => boundary.as_ref().unwrap_or(&frames[0]),
                _ => &frames[ci - 1],
            };
            let fj = analyzer.analyze_energy_with_boundary(Some(prev), &frames[ci..=ci]);
            (prev, &frames[ci], analyzer.cycle_mw(fj.per_cycle_fj()[1]))
        });
        let (prev, cur, mw) = if even.2 >= odd.2 { even } else { odd };
        assert_eq!(
            mw.to_bits(),
            p.to_bits(),
            "the pair must reproduce the bound"
        );
        let mut breakdown: Vec<(String, f64)> = nl
            .modules()
            .iter()
            .zip(analyzer.module_energy_fj(prev, cur))
            .map(|(name, fj)| (name.clone(), analyzer.dynamic_mw(fj)))
            .collect();
        breakdown.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("power is finite"));
        out.push(CycleOfInterest {
            segment: sid,
            cycle: ci,
            global_cycle: gc,
            power_mw: p,
            state,
            instr,
            breakdown,
        });
        if out.len() >= k {
            break;
        }
    }
    out
}

/// Formats a COI report like the paper's Fig 14 caption data.
pub fn format_report(cois: &[CycleOfInterest]) -> String {
    let mut s = String::new();
    for coi in cois {
        s.push_str(&format!(
            "COI {} ({:.4} mW) state={} instr={}\n",
            coi.global_cycle,
            coi.power_mw,
            coi.state.map(|st| st.name()).unwrap_or("?"),
            coi.instr
                .map(|i| i.to_string())
                .unwrap_or_else(|| "?".to_string()),
        ));
        for (m, p) in coi.breakdown.iter().take(4) {
            if *p > 0.0 {
                s.push_str(&format!("    {m:<14} {p:.4} mW\n"));
            }
        }
    }
    s
}
