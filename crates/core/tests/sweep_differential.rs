//! The sweep byte-identity contract: every corner of [`run_sweep`] must
//! serialize byte-identically to an independent single-corner
//! [`CoAnalysis`] of the same program on a [`UlpSystem`] built from that
//! corner's operating point — at any `(threads, lanes)` setting. This is
//! what lets sweep corners, direct runs, and the service's
//! content-addressed cache entries compose interchangeably.

use xbound_cells::CellLibrary;
use xbound_core::memo::SubtreeMemo;
use xbound_core::sweep::{bound_tree, run_sweep, Corner, SweepSpec};
use xbound_core::{BoundsReport, CoAnalysis, ExploreConfig, SymbolicExplorer, UlpSystem};
use xbound_msp430::assemble;

const ENERGY_ROUNDS: u64 = 2_000;

fn forked_program() -> xbound_msp430::Program {
    assemble(
        r#"
        main:
            mov &0x0020, r4
            cmp #1, r4
            jeq one
            mov #100, r5
            jmp done
        one:
            mov #0x0130, r6
            mov r4, &0x0130
            mov r4, &0x0138
            nop
            mov &0x013A, r5
        done:
            mov r5, &0x0200
            jmp $
        "#,
    )
    .expect("assembles")
}

/// A cross-library spec exercising every sharing tier: two base
/// libraries (shared tables + assignments), voltage derates (shared
/// base, distinct energy traces), and a same-library/different-clock
/// pair (corners 0 and 4 share one energy-trace set and diverge only in
/// the fJ→mW conversion).
fn spec() -> SweepSpec {
    let ulp65 = CellLibrary::ulp65();
    let ulp130 = CellLibrary::ulp130();
    SweepSpec::new(vec![
        Corner::nominal(ulp65.clone(), 100.0e6),
        Corner::new(ulp65.clone(), ulp65.voltage_v() * 0.9, 50.0e6),
        Corner::nominal(ulp130.clone(), 8.0e6),
        Corner::new(ulp130.clone(), ulp130.voltage_v() * 0.9, 4.0e6),
        Corner::nominal(ulp65.clone(), 50.0e6),
    ])
}

/// The direct single-corner path the sweep must match byte-for-byte.
fn direct(
    corner: &Corner,
    config: ExploreConfig,
    program: &xbound_msp430::Program,
) -> BoundsReport {
    let sys = UlpSystem::new(
        UlpSystem::openmsp430_class().expect("system").cpu().clone(),
        corner.library(),
        corner.clock_hz(),
    );
    let analysis = CoAnalysis::new(&sys)
        .config(config)
        .energy_rounds(ENERGY_ROUNDS)
        .run(program)
        .expect("direct analysis");
    BoundsReport::from_analysis(&analysis)
}

#[test]
fn every_corner_matches_a_direct_single_corner_run_at_any_parallelism() {
    let program = forked_program();
    let spec = spec();
    let sys = UlpSystem::openmsp430_class().expect("system");
    // Direct baselines once (they are themselves schedule-invariant).
    let baselines: Vec<String> = spec
        .corners()
        .iter()
        .map(|c| direct(c, ExploreConfig::suite_default(), &program).to_json())
        .collect();
    for threads in [1usize, 3] {
        for lanes in [1usize, 8] {
            let config = ExploreConfig {
                threads,
                lanes,
                ..ExploreConfig::suite_default()
            };
            let sweep = run_sweep(sys.cpu(), &spec, &program, config, ENERGY_ROUNDS, threads)
                .expect("sweep");
            assert_eq!(sweep.corners.len(), spec.corners().len());
            assert_eq!(sweep.stats.tree_reuse_hits, 4);
            assert_eq!(sweep.stats.tables_built, 2, "one table per base library");
            assert_eq!(
                sweep.stats.trace_sets_built, 4,
                "one energy-trace set per distinct derated library"
            );
            assert_eq!(
                sweep.stats.trace_reuse_hits, 1,
                "the same-library different-clock corner reuses its traces"
            );
            for (cr, baseline) in sweep.corners.iter().zip(&baselines) {
                assert_eq!(
                    &cr.report.to_json(),
                    baseline,
                    "corner {} diverged from its direct run at threads={threads} lanes={lanes}",
                    cr.corner.label(),
                );
            }
        }
    }
}

#[test]
fn derated_corners_bound_below_nominal_at_equal_clock() {
    let program = forked_program();
    let ulp65 = CellLibrary::ulp65();
    let spec = SweepSpec::new(vec![
        Corner::nominal(ulp65.clone(), 100.0e6),
        Corner::new(ulp65.clone(), ulp65.voltage_v() * 0.9, 100.0e6),
    ]);
    let sys = UlpSystem::openmsp430_class().expect("system");
    let sweep = run_sweep(
        sys.cpu(),
        &spec,
        &program,
        ExploreConfig::suite_default(),
        ENERGY_ROUNDS,
        1,
    )
    .expect("sweep");
    let nominal = &sweep.corners[0].report;
    let derated = &sweep.corners[1].report;
    // Quadratic energy scaling: every energy-derived bound shrinks by
    // exactly (0.9)² at the same clock; tree shape is untouched.
    // (summation order differs between the scaled and unscaled
    // libraries, so allow float-roundoff slack).
    let s = 0.9 * 0.9;
    assert!((derated.peak_mw - nominal.peak_mw * s).abs() <= nominal.peak_mw * 1e-9);
    assert!(
        (derated.npe_j_per_cycle - nominal.npe_j_per_cycle * s).abs()
            <= nominal.npe_j_per_cycle * 1e-9
    );
    assert_eq!(derated.segments, nominal.segments);
    assert_eq!(derated.cycles, nominal.cycles);
    assert_eq!(derated.peak_cycle, nominal.peak_cycle);
}

#[test]
fn a_shared_power_cache_never_changes_corner_bytes() {
    let program = forked_program();
    let spec = spec();
    let sys = UlpSystem::openmsp430_class().expect("system");
    let (tree, explore) = SymbolicExplorer::new(sys.cpu(), ExploreConfig::suite_default())
        .explore(&program)
        .expect("explores");
    let reports = |spec: &SweepSpec, memo: Option<&SubtreeMemo>| {
        let cache = memo.map(SubtreeMemo::power);
        bound_tree(
            sys.cpu().netlist(),
            &tree,
            spec,
            true,
            ENERGY_ROUNDS,
            2,
            cache,
            |_, b| BoundsReport::from_parts(&tree, &explore, &b.peak, &b.energy).to_json(),
        )
    };
    let plain = reports(&spec, None);
    // Seed only the first corner's library, so the full spec then mixes
    // hits (ulp65) and misses (its derate, ulp130) inside one base.
    let memo = SubtreeMemo::in_memory();
    reports(&SweepSpec::new(spec.corners()[..1].to_vec()), Some(&memo));
    let seeded = memo.stats();
    assert_eq!(reports(&spec, Some(&memo)), plain, "partly warm cache");
    let mixed = memo.stats();
    assert!(mixed.power_hits > seeded.power_hits, "{mixed:?}");
    assert!(mixed.power_misses > seeded.power_misses, "{mixed:?}");
    assert_eq!(reports(&spec, Some(&memo)), plain, "fully warm cache");
    assert_eq!(memo.stats().power_misses, mixed.power_misses);
}
