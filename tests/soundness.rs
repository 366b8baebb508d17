//! Workspace integration tests: the paper's soundness invariants on real
//! suite benchmarks, across all crates.

use rand::rngs::StdRng;
use rand::SeedableRng;
use xbound::core::{CoAnalysis, ExploreConfig, UlpSystem};

fn analysis_for<'s>(
    system: &'s UlpSystem,
    name: &str,
) -> (
    xbound::core::Analysis<'s>,
    &'static xbound::benchsuite::Benchmark,
) {
    let bench = xbound::benchsuite::by_name(name).expect("benchmark exists");
    let config = ExploreConfig {
        widen_threshold: bench.widen_threshold(),
        max_total_cycles: 5_000_000,
        ..ExploreConfig::default()
    };
    let analysis = CoAnalysis::new(system)
        .config(config)
        .energy_rounds(bench.energy_rounds())
        .run(&bench.program().expect("assembles"))
        .expect("analysis succeeds");
    (analysis, bench)
}

/// The paper's soundness checks on every suite program: each program's
/// extremal inputs plus a small seeded population run through the batched
/// validation, and every run must keep the toggle superset, the per-cycle
/// power dominance, a measured peak within the bound and a measured NPE
/// within the bound's NPE (Figs 12, 13 and the Fig 17 soundness column).
#[test]
fn bounds_dominate_concrete_runs() {
    let system = UlpSystem::openmsp430_class().expect("builds");
    let mut rng = StdRng::seed_from_u64(1234);
    for bench in xbound::benchsuite::all() {
        let name = bench.name();
        let (analysis, _) = analysis_for(&system, name);
        let program = bench.program().expect("assembles");
        let max_cycles = bench.max_concrete_cycles();
        let mut input_sets = bench.stress_inputs();
        input_sets.extend((0..3).map(|_| bench.gen_inputs(&mut rng)));
        let checks = analysis
            .validate_population(&program, &input_sets, max_cycles, 0, 0)
            .expect("every run halts");
        let runs = system
            .profile_concrete_population(&program, &input_sets, max_cycles, 0, 0)
            .expect("every run halts");
        let peak_mw = analysis.peak_power().peak_mw;
        let bound_npe = analysis.peak_energy().npe_j_per_cycle;
        for ((inputs, check), (_, measured)) in input_sets.iter().zip(&checks).zip(&runs) {
            assert!(
                check.superset.is_sound(),
                "{name}: {} superset violations for {inputs:?}",
                check.superset.violations.len()
            );
            let dom = check
                .dominance
                .as_ref()
                .expect("path stays inside the explored tree");
            assert!(
                dom.is_sound(),
                "{name}: dominance violations at {:?} for {inputs:?}",
                &dom.violations[..dom.violations.len().min(4)]
            );
            assert!(
                measured.peak_mw() <= peak_mw + 1e-9,
                "{name}: measured {} exceeds bound {peak_mw} for {inputs:?}",
                measured.peak_mw(),
            );
            assert!(
                measured.energy_per_cycle_j() <= bound_npe + 1e-18,
                "{name}: observed NPE {} exceeds bound {bound_npe} for {inputs:?}",
                measured.energy_per_cycle_j(),
            );
        }
    }
}

/// NPE bound dominates observed NPE (the Fig 17 soundness column), measured
/// through the single-run `profile_concrete` path.
#[test]
fn energy_bound_dominates_observed() {
    let system = UlpSystem::openmsp430_class().expect("builds");
    let mut rng = StdRng::seed_from_u64(77);
    for name in ["intAVG", "ConvEn"] {
        let (analysis, bench) = analysis_for(&system, name);
        let program = bench.program().expect("assembles");
        let bound_npe = analysis.peak_energy().npe_j_per_cycle;
        for _ in 0..3 {
            let inputs = bench.gen_inputs(&mut rng);
            let (_, measured) = system
                .profile_concrete(&program, &inputs, bench.max_concrete_cycles())
                .expect("halts");
            assert!(
                measured.energy_per_cycle_j() <= bound_npe + 1e-18,
                "{name}: observed NPE exceeds bound"
            );
        }
    }
}

/// The analysis is deterministic: same program, same tree, same bound.
#[test]
fn analysis_is_deterministic() {
    let system = UlpSystem::openmsp430_class().expect("builds");
    let (a1, _) = analysis_for(&system, "binSearch");
    let (a2, _) = analysis_for(&system, "binSearch");
    assert_eq!(a1.peak_power().peak_mw, a2.peak_power().peak_mw);
    assert_eq!(a1.tree().segments().len(), a2.tree().segments().len());
    // Batch telemetry varies with worker timing at threads > 1; the
    // determinism contract covers the exploration core.
    assert_eq!(a1.stats().deterministic(), a2.stats().deterministic());
}

/// Bounds are application-specific: different applications, different peaks
/// (the paper's core motivation, Fig 5/7).
#[test]
fn bounds_are_application_specific() {
    let system = UlpSystem::openmsp430_class().expect("builds");
    let (tea8, _) = analysis_for(&system, "tea8");
    let (mult, _) = analysis_for(&system, "mult");
    // The multiplier-heavy kernel needs strictly more peak power than the
    // ALU-only cipher.
    assert!(
        mult.peak_power().peak_mw > tea8.peak_power().peak_mw * 1.2,
        "mult {} vs tea8 {}",
        mult.peak_power().peak_mw,
        tea8.peak_power().peak_mw
    );
}
