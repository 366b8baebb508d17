//! Differential test: batched symbolic exploration against the scalar
//! explorer on the real MSP430 benchmark suite.
//!
//! The acceptance bar of the lane-generic engine refactor: for every
//! benchmark, the [`xbound_core::SymbolicExplorer`]'s `ExecutionTree`
//! (segment shapes, parents, every per-cycle `Frame`), the deterministic
//! `ExploreStats`, and the downstream peak-power table must be
//! **bit-identical** between the 1-lane/1-thread reference (the historical
//! scalar explorer) and any `(threads, lanes)` setting.

use xbound_core::{
    bound_tree, Corner, ExecutionTree, ExploreConfig, ExploreStats, SweepSpec, SymbolicExplorer,
    UlpSystem,
};

fn explore_config(
    bench: &xbound_benchsuite::Benchmark,
    threads: usize,
    lanes: usize,
) -> ExploreConfig {
    ExploreConfig {
        widen_threshold: bench.widen_threshold(),
        max_total_cycles: 5_000_000,
        threads,
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

/// Every benchmark at the satellite matrix's cheap diagonal — lanes 8,
/// one thread — plus the peak-power table downstream.
#[test]
fn all_benchmarks_explore_identically_at_8_lanes() {
    let sys = UlpSystem::openmsp430_class().expect("system builds");
    for bench in xbound_benchsuite::all() {
        let program = bench.program().expect("assembles");
        let reference = SymbolicExplorer::new(sys.cpu(), explore_config(bench, 1, 1))
            .explore(&program)
            .expect("reference explores");
        let batched = SymbolicExplorer::new(sys.cpu(), explore_config(bench, 1, 8))
            .explore(&program)
            .expect("batched explores");
        assert_trees_identical(bench.name(), "1x8", &reference.0, &batched.0);
        assert_stats_identical(bench.name(), "1x8", &reference.1, &batched.1);
        let spec = SweepSpec::new(vec![Corner::nominal(sys.library().clone(), sys.clock_hz())]);
        let peak = |tree: &ExecutionTree| {
            let rounds = bench.energy_rounds();
            bound_tree(
                sys.cpu().netlist(),
                tree,
                &spec,
                true,
                rounds,
                1,
                None,
                |_, b| b.peak,
            )
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

/// Every benchmark under the work-stealing pool (threads 4, lanes 8)
/// against the single-threaded scalar reference: the tree and the
/// deterministic stats must be byte-identical no matter how the region
/// deques drained.
#[test]
fn all_benchmarks_explore_identically_under_work_stealing() {
    let sys = UlpSystem::openmsp430_class().expect("system builds");
    for bench in xbound_benchsuite::all() {
        let program = bench.program().expect("assembles");
        let reference = SymbolicExplorer::new(sys.cpu(), explore_config(bench, 1, 1))
            .explore(&program)
            .expect("reference explores");
        let stolen = SymbolicExplorer::new(sys.cpu(), explore_config(bench, 4, 8))
            .explore(&program)
            .expect("work-stealing explores");
        assert_trees_identical(bench.name(), "4x8", &reference.0, &stolen.0);
        assert_stats_identical(bench.name(), "4x8", &reference.1, &stolen.1);
    }
}

/// Fork-heavy benchmarks across the full `(threads, lanes)` matrix of the
/// satellite spec: lanes ∈ {1, 8, 64} × threads ∈ {1, 3}.
#[test]
fn fork_heavy_benchmarks_explore_identically_across_matrix() {
    let sys = UlpSystem::openmsp430_class().expect("system builds");
    for name in ["binSearch", "tHold", "div"] {
        let bench = xbound_benchsuite::by_name(name).expect("exists");
        let program = bench.program().expect("assembles");
        let reference = SymbolicExplorer::new(sys.cpu(), explore_config(bench, 1, 1))
            .explore(&program)
            .expect("reference explores");
        assert!(
            reference.1.forks > 0,
            "{name} must fork for this test to mean anything"
        );
        for threads in [1usize, 3] {
            for lanes in [1usize, 8, 64] {
                if (threads, lanes) == (1, 1) {
                    continue;
                }
                let cfg = format!("{threads}x{lanes}");
                let got = SymbolicExplorer::new(sys.cpu(), explore_config(bench, threads, lanes))
                    .explore(&program)
                    .expect("explores");
                assert_trees_identical(name, &cfg, &reference.0, &got.0);
                assert_stats_identical(name, &cfg, &reference.1, &got.1);
                assert_eq!(got.1.batch.lanes, lanes as u64, "{name} {cfg}: lane record");
            }
        }
    }
}
