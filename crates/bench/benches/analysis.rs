//! Criterion benchmarks for the co-analysis pipeline (the tool-runtime
//! numbers behind the paper's "2 hours for the most complex benchmark"
//! remark — this Rust implementation analyzes each benchmark in well under
//! a second).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xbound_core::{
    bound_tree, CoAnalysis, Corner, ExploreConfig, SweepSpec, SymbolicExplorer, UlpSystem,
};

fn bench_algorithm1(c: &mut Criterion) {
    let sys = UlpSystem::openmsp430_class().expect("builds");
    let mut g = c.benchmark_group("algorithm1_symbolic_exploration");
    g.sample_size(10);
    for name in ["mult", "tHold", "binSearch"] {
        let bench = xbound_benchsuite::by_name(name).expect("exists");
        let program = bench.program().expect("assembles");
        let cfg = ExploreConfig {
            widen_threshold: bench.widen_threshold(),
            ..ExploreConfig::default()
        };
        g.bench_with_input(BenchmarkId::from_parameter(name), &program, |b, p| {
            b.iter(|| {
                let explorer = SymbolicExplorer::new(sys.cpu(), cfg);
                explorer.explore(p).expect("explores")
            });
        });
    }
    g.finish();
}

/// Batched symbolic exploration: the same fork-heavy benchmarks explored
/// at different lane widths. Results (tree, deterministic stats, every
/// downstream table) are bit-identical at any width; only the wall clock
/// and the gate-pass count change.
fn bench_batched_symbolic_exploration(c: &mut Criterion) {
    let sys = UlpSystem::openmsp430_class().expect("builds");
    let mut g = c.benchmark_group("batched_symbolic_exploration");
    g.sample_size(10);
    for name in ["rle", "Viterbi"] {
        let bench = xbound_benchsuite::by_name(name).expect("exists");
        let program = bench.program().expect("assembles");
        for lanes in [1usize, 8, 32, 64] {
            let cfg = ExploreConfig {
                widen_threshold: bench.widen_threshold(),
                max_total_cycles: 5_000_000,
                lanes,
                ..ExploreConfig::default()
            };
            g.bench_with_input(BenchmarkId::new(name, lanes), &program, |b, p| {
                b.iter(|| {
                    let explorer = SymbolicExplorer::new(sys.cpu(), cfg);
                    explorer.explore(p).expect("explores")
                });
            });
        }
    }
    g.finish();
}

fn bench_algorithm2(c: &mut Criterion) {
    let sys = UlpSystem::openmsp430_class().expect("builds");
    let bench = xbound_benchsuite::by_name("mult").expect("exists");
    let program = bench.program().expect("assembles");
    let explorer = SymbolicExplorer::new(sys.cpu(), ExploreConfig::default());
    let (tree, _) = explorer.explore(&program).expect("explores");
    let spec = SweepSpec::new(vec![Corner::nominal(sys.library().clone(), sys.clock_hz())]);
    let mut g = c.benchmark_group("algorithm2_peak_power");
    g.sample_size(10);
    g.bench_function("mult_even_odd_assignment", |b| {
        b.iter(|| bound_tree(sys.cpu().netlist(), &tree, &spec, true, 1, 1, |_, b| b));
    });
    g.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let sys = UlpSystem::openmsp430_class().expect("builds");
    let bench = xbound_benchsuite::by_name("intAVG").expect("exists");
    let program = bench.program().expect("assembles");
    let mut g = c.benchmark_group("end_to_end_co_analysis");
    g.sample_size(10);
    g.bench_function("intAVG_full_pipeline", |b| {
        b.iter(|| {
            CoAnalysis::new(&sys)
                .energy_rounds(bench.energy_rounds())
                .run(&program)
                .expect("analyzes")
        });
    });
    g.finish();
}

/// Operating-point sweep amortization: one shared exploration feeding
/// the default 8-corner grid's composition passes, vs 8 independent cold
/// co-analyses of the same corners. The per-corner
/// reports are byte-identical either way
/// (`crates/core/tests/sweep_differential.rs`); only the wall clock
/// changes.
fn bench_sweep_amortization(c: &mut Criterion) {
    use xbound_core::sweep::{run_sweep, SweepSpec};
    let sys = UlpSystem::openmsp430_class().expect("builds");
    let spec = SweepSpec::suite_default();
    let mut g = c.benchmark_group("sweep_amortization");
    g.sample_size(10);
    for name in ["mult", "tHold", "binSearch"] {
        let bench = xbound_benchsuite::by_name(name).expect("exists");
        let program = bench.program().expect("assembles");
        let cfg = ExploreConfig {
            widen_threshold: bench.widen_threshold(),
            ..ExploreConfig::suite_default()
        };
        g.bench_with_input(
            BenchmarkId::new("sweep_8_corners", name),
            &program,
            |b, p| {
                b.iter(|| {
                    run_sweep(sys.cpu(), &spec, p, cfg, bench.energy_rounds(), 1).expect("sweeps")
                });
            },
        );
        // The naive curve: one full cold analysis per corner, exactly as
        // a driver without the sweep engine would produce it.
        let corner_systems: Vec<UlpSystem> = spec
            .corners()
            .iter()
            .map(|corner| UlpSystem::new(sys.cpu().clone(), corner.library(), corner.clock_hz()))
            .collect();
        g.bench_with_input(
            BenchmarkId::new("cold_8_analyses", name),
            &program,
            |b, p| {
                b.iter(|| {
                    for corner_sys in &corner_systems {
                        CoAnalysis::new(corner_sys)
                            .config(cfg)
                            .energy_rounds(bench.energy_rounds())
                            .run(p)
                            .expect("analyzes");
                    }
                });
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_algorithm1,
    bench_batched_symbolic_exploration,
    bench_algorithm2,
    bench_end_to_end,
    bench_sweep_amortization
);
criterion_main!(benches);
