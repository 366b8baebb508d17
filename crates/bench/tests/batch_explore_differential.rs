//! Differential test: batched symbolic exploration against the scalar
//! explorer on the real MSP430 benchmark suite.
//!
//! The acceptance bar of the lane-generic engine refactor: for every
//! benchmark, the [`xbound_core::SymbolicExplorer`]'s `ExecutionTree`
//! (segment shapes, parents, every per-cycle `Frame`), the deterministic
//! `ExploreStats`, and the downstream peak-power table must be
//! **bit-identical** between the 1-lane reference (the historical scalar
//! explorer) and any lane width. At one width, the whole `ExploreStats`
//! (packing telemetry included) must not vary from run to run.

use xbound_core::{
    bound_tree, Corner, ExecutionTree, ExploreConfig, ExploreStats, SweepSpec, SymbolicExplorer,
    UlpSystem,
};

fn explore_config(bench: &xbound_benchsuite::Benchmark, lanes: usize) -> ExploreConfig {
    ExploreConfig {
        widen_threshold: bench.widen_threshold(),
        max_total_cycles: 5_000_000,
        lanes,
        ..ExploreConfig::default()
    }
}

fn assert_trees_identical(name: &str, cfg: &str, a: &ExecutionTree, b: &ExecutionTree) {
    assert_eq!(
        a.segments().len(),
        b.segments().len(),
        "{name} {cfg}: segment count"
    );
    for (i, (sa, sb)) in a.segments().iter().zip(b.segments()).enumerate() {
        assert_eq!(
            sa.start_cycle, sb.start_cycle,
            "{name} {cfg}: seg {i} start"
        );
        assert_eq!(sa.parent, sb.parent, "{name} {cfg}: seg {i} parent");
        assert_eq!(sa.end, sb.end, "{name} {cfg}: seg {i} end");
        assert_eq!(sa.frames, sb.frames, "{name} {cfg}: seg {i} frames");
    }
}

fn assert_stats_identical(name: &str, cfg: &str, a: &ExploreStats, b: &ExploreStats) {
    assert_eq!(
        a.deterministic(),
        b.deterministic(),
        "{name} {cfg}: deterministic stats"
    );
}

/// Every benchmark at the default lane width, 8, plus the peak-power
/// table downstream. A second 8-lane run must repeat the whole
/// `ExploreStats`, gate passes and lane occupancy included.
#[test]
fn all_benchmarks_explore_identically_at_8_lanes() {
    let sys = UlpSystem::openmsp430_class().expect("system builds");
    for bench in xbound_benchsuite::all() {
        let program = bench.program().expect("assembles");
        let explore = |lanes: usize| {
            SymbolicExplorer::new(sys.cpu(), explore_config(bench, lanes))
                .explore(&program)
                .expect("explores")
        };
        let reference = explore(1);
        let batched = explore(8);
        assert_trees_identical(bench.name(), "8 lanes", &reference.0, &batched.0);
        assert_stats_identical(bench.name(), "8 lanes", &reference.1, &batched.1);
        assert_eq!(
            batched.1,
            explore(8).1,
            "{}: stats vary between two 8-lane runs",
            bench.name()
        );
        let spec = SweepSpec::new(vec![Corner::nominal(sys.library().clone(), sys.clock_hz())]);
        let peak = |tree: &ExecutionTree| {
            let rounds = bench.energy_rounds();
            bound_tree(sys.cpu().netlist(), tree, &spec, true, rounds, 1, |_, b| {
                b.peak
            })
            .pop()
            .expect("one corner")
        };
        let peak_ref = peak(&reference.0);
        let peak_batched = peak(&batched.0);
        assert_eq!(
            peak_ref.peak_mw,
            peak_batched.peak_mw,
            "{}: peak-power bound diverged",
            bench.name()
        );
        assert_eq!(
            peak_ref.peak_at,
            peak_batched.peak_at,
            "{}: peak location diverged",
            bench.name()
        );
        assert_eq!(
            peak_ref.bound_mw,
            peak_batched.bound_mw,
            "{}: per-cycle peak-power table diverged",
            bench.name()
        );
    }
}

/// Fork-heavy benchmarks across the lane widths {8, 64} against the
/// 1-lane reference.
#[test]
fn fork_heavy_benchmarks_explore_identically_across_matrix() {
    let sys = UlpSystem::openmsp430_class().expect("system builds");
    for name in ["binSearch", "tHold", "div"] {
        let bench = xbound_benchsuite::by_name(name).expect("exists");
        let program = bench.program().expect("assembles");
        let reference = SymbolicExplorer::new(sys.cpu(), explore_config(bench, 1))
            .explore(&program)
            .expect("reference explores");
        assert!(
            reference.1.forks > 0,
            "{name} must fork for this test to mean anything"
        );
        for lanes in [8usize, 64] {
            let cfg = format!("{lanes} lanes");
            let got = SymbolicExplorer::new(sys.cpu(), explore_config(bench, lanes))
                .explore(&program)
                .expect("explores");
            assert_trees_identical(name, &cfg, &reference.0, &got.0);
            assert_stats_identical(name, &cfg, &reference.1, &got.1);
            assert_eq!(got.1.batch.lanes, lanes as u64, "{name} {cfg}: lane record");
        }
    }
}
