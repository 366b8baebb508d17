//! Algorithm 2's word-wide kernels against their references on every
//! tree of the benchmark suite:
//!
//! * the block stability kernel ([`BlockStability`]) against the scalar
//!   [`stability_words_into`] on every X-bearing cycle pair of all 14
//!   trees, in blocks of 64 pairs laid once from the first pair (blocks
//!   run across segment boundaries) and once shifted by 37 pairs (blocks
//!   also break inside segments);
//! * the net-indexed energy walk
//!   ([`PowerAnalyzer::analyze_energy_with_boundary`]) against the 1-lane
//!   [`xbound_power::BatchPowerAccumulator`], f64 bit for bit on every
//!   cycle, on both parity assignments of all 14 trees.

use xbound_core::peak_power::{
    assign_tree, merge_adjusted_frames, stability_words_into, BlockStability, MaxTransitions,
};
use xbound_core::{ExecutionTree, ExploreConfig, SymbolicExplorer, UlpSystem};
use xbound_logic::{BatchFrame, Frame};
use xbound_power::{EnergyTrace, PowerAnalyzer};

fn suite_trees(sys: &UlpSystem) -> Vec<(&'static str, ExecutionTree)> {
    xbound_benchsuite::all()
        .iter()
        .map(|bench| {
            let program = bench.program().expect("assembles");
            let config = ExploreConfig {
                widen_threshold: bench.widen_threshold(),
                ..ExploreConfig::suite_default()
            };
            let (tree, _) = SymbolicExplorer::new(sys.cpu(), config)
                .explore(&program)
                .expect("explores");
            (bench.name(), tree)
        })
        .collect()
}

/// Every X-bearing `(previous, current)` pair of the tree's adjusted
/// frames, in segment and cycle order.
fn x_pairs<'a>(tree: &ExecutionTree, adjusted: &'a [Vec<Frame>]) -> Vec<(&'a Frame, &'a Frame)> {
    let mut pairs = Vec::new();
    for (si, seg) in tree.segments().iter().enumerate() {
        let boundary = seg.parent.and_then(|(p, _)| adjusted[p.index()].last());
        for (ci, cur) in adjusted[si].iter().enumerate() {
            let prev = if ci == 0 {
                boundary
            } else {
                Some(&adjusted[si][ci - 1])
            };
            if let Some(prev) = prev.filter(|p| p.x_count() > 0 || cur.x_count() > 0) {
                pairs.push((prev, cur));
            }
        }
    }
    pairs
}

#[test]
fn block_stability_equals_the_scalar_oracle_on_every_suite_pair() {
    let sys = UlpSystem::openmsp430_class().expect("system builds");
    let nl = sys.cpu().netlist();
    let kernel = BlockStability::new(nl);
    let mut checked = 0;
    for (name, tree) in suite_trees(&sys) {
        let adjusted = merge_adjusted_frames(&tree);
        let pairs = x_pairs(&tree, &adjusted);
        assert!(!pairs.is_empty(), "{name}: no X-bearing pair");
        let want: Vec<Vec<u64>> = pairs
            .iter()
            .map(|(p, c)| {
                let mut w = Vec::new();
                stability_words_into(nl, p, c, &mut w);
                w
            })
            .collect();
        let mut got = Vec::new();
        for shift in [0, 37] {
            let first = pairs.len().min(shift);
            let blocks = std::iter::once(0..first).filter(|r| !r.is_empty()).chain(
                (first..pairs.len())
                    .step_by(64)
                    .map(|s| s..(s + 64).min(pairs.len())),
            );
            for block in blocks {
                kernel.stability_into(&pairs[block.clone()], &mut got);
                for (set, want) in got.iter().zip(&want[block.clone()]) {
                    assert_eq!(
                        set, want,
                        "{name}: blocks shifted by {shift}, block {block:?}"
                    );
                }
            }
        }
        checked += pairs.len();
    }
    assert!(
        checked > 10_000,
        "only {checked} X-bearing pairs in the suite"
    );
}

fn accumulated(
    analyzer: &PowerAnalyzer,
    boundary: Option<&Frame>,
    frames: &[Frame],
) -> EnergyTrace {
    let mut acc = analyzer.batch_accumulator(1);
    for f in boundary.into_iter().chain(frames) {
        let mut lane = BatchFrame::new(f.len(), 1);
        lane.broadcast_from(f);
        acc.push(&lane);
    }
    acc.finish_energy(None).pop().expect("one lane")
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn energy_walk_equals_the_one_lane_accumulator_on_every_suite_tree() {
    let sys = UlpSystem::openmsp430_class().expect("system builds");
    let nl = sys.cpu().netlist();
    let analyzer = PowerAnalyzer::new(nl, sys.library(), sys.clock_hz());
    let table = MaxTransitions::build(nl, sys.library());
    for (name, tree) in suite_trees(&sys) {
        let adjusted = merge_adjusted_frames(&tree);
        let assigned = assign_tree(nl, &tree, &adjusted, true, &table);
        for parity in [&assigned.even, &assigned.odd] {
            for (si, (boundary, frames)) in parity.segments.iter().enumerate() {
                let walk = analyzer.analyze_energy_with_boundary(boundary.as_ref(), frames);
                let reference = accumulated(&analyzer, boundary.as_ref(), frames);
                let at = format!("{name} {:?} segment {si}", parity.parity);
                assert_eq!(
                    bits(walk.per_cycle_fj()),
                    bits(reference.per_cycle_fj()),
                    "{at}"
                );
            }
        }
    }
}
