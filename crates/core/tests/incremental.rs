//! Incremental re-analysis: subtree-memo byte-identity and the
//! invalidation matrix at the core level.
//!
//! The contract under test: with a [`SubtreeMemo`] attached, a warm
//! re-analysis — of the unchanged program or of a one-instruction edit —
//! produces results byte-identical to a cold, memo-less run, while
//! re-simulating only the perturbed fetch cone. Invalidation must track
//! result-relevant knobs exactly: `threads`/`lanes`/`energy_rounds`
//! changes stay warm, everything in the context hash goes cold.

use std::sync::Arc;
use xbound_cells::CellLibrary;
use xbound_core::memo::SubtreeMemo;
use xbound_core::{Analysis, BoundsReport, CoAnalysis, ExploreConfig, UlpSystem};
use xbound_msp430::{assemble, Program};

fn system() -> UlpSystem {
    UlpSystem::openmsp430_class().expect("system builds")
}

/// A canonical fingerprint of everything a [`xbound_core::Analysis`]
/// feeds downstream: the full execution tree (frame content hashes), the
/// complete per-segment bound tables, the peak/energy numbers, and the
/// deterministic statistics. Rust's `{:?}` for `f64` prints the shortest
/// round-trip representation, so string equality here is bit equality.
fn fingerprint(a: &Analysis<'_>) -> String {
    let segments: Vec<String> = a
        .tree()
        .segments()
        .iter()
        .map(|s| {
            let mut h = 0xcbf29ce484222325u64;
            for f in &s.frames {
                h = (h ^ f.content_hash()).wrapping_mul(0x100000001b3);
            }
            format!(
                "{}+{}@{:016x}:{:?}",
                s.start_cycle,
                s.frames.len(),
                h,
                s.end
            )
        })
        .collect();
    format!(
        "peak={:?}@{:?} bounds={:?} energy={:?} stats={:?} tree=[{}]",
        a.peak_power().peak_mw,
        a.peak_power().peak_cycle,
        a.peak_power().bound_mw,
        a.peak_energy(),
        a.stats().deterministic(),
        segments.join(";")
    )
}

/// An input-dependent program with two distinct arms: the `one:` arm
/// exercises the multiplier ports, the fall-through arm runs arithmetic.
/// `tail_imm` parameterizes one immediate operand deep inside the
/// fall-through arm — a one-word ROM edit far from the fork.
fn two_arm_program(tail_imm: u16) -> Program {
    let src = format!(
        r#"
        main:
            mov &0x0020, r4
            cmp #1, r4
            jeq one
            mov #12, r5
            add r4, r5
            xor r5, r6
            mov #{tail_imm}, r7
            add r7, r5
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
        "#
    );
    assemble(&src).expect("assembles")
}

#[test]
fn warm_reanalysis_is_byte_identical_and_fully_stitched() {
    let sys = system();
    let p = two_arm_program(100);
    let baseline = CoAnalysis::new(&sys).run(&p).expect("memo-less run");

    let memo = Arc::new(SubtreeMemo::in_memory());
    let cold = CoAnalysis::new(&sys)
        .memo(Some(memo.clone()))
        .run(&p)
        .expect("cold run");
    let after_cold = memo.stats();
    assert_eq!(after_cold.hits, 0, "nothing to hit on a cold store");
    assert!(after_cold.misses > 0, "cold paths were looked up");
    assert_eq!(
        fingerprint(&baseline),
        fingerprint(&cold),
        "attaching a memo must not change results"
    );

    let warm = CoAnalysis::new(&sys)
        .memo(Some(memo.clone()))
        .run(&p)
        .expect("warm run");
    let after_warm = memo.stats();
    assert!(after_warm.hits > 0, "warm run replays subtrees");
    assert!(
        after_warm.stitched_segments > after_warm.hits,
        "forks seed children"
    );
    assert!(
        after_warm.power_hits > 0,
        "warm run replays per-segment power traces too"
    );
    assert_eq!(
        after_warm.misses, after_cold.misses,
        "an unchanged program re-simulates nothing"
    );
    assert_eq!(fingerprint(&cold), fingerprint(&warm));
}

#[test]
fn power_cache_replays_traces_at_another_clock() {
    // The segment-power cache stores clock-free energy traces and keeps
    // the clock out of its key, so a re-analysis at another clock replays
    // them even though the subtree memo (whose context holds the clock)
    // re-explores.
    let cpu = system().cpu().clone();
    let fast = UlpSystem::new(cpu.clone(), CellLibrary::ulp65(), 100.0e6);
    let slow = UlpSystem::new(cpu, CellLibrary::ulp65(), 50.0e6);
    let p = two_arm_program(100);
    let memo = Arc::new(SubtreeMemo::in_memory());
    let seeded = CoAnalysis::new(&fast)
        .memo(Some(memo.clone()))
        .run(&p)
        .expect("100 MHz run");
    assert!(seeded.stats().forks > 0, "the program must fork");
    let before = memo.stats();
    let warm = CoAnalysis::new(&slow)
        .memo(Some(memo.clone()))
        .run(&p)
        .expect("50 MHz run on the same memo");
    let after = memo.stats();
    assert!(
        after.power_hits > before.power_hits,
        "the 50 MHz run replays the 100 MHz traces ({before:?} -> {after:?})"
    );
    let cold = CoAnalysis::new(&slow)
        .run(&p)
        .expect("memo-less 50 MHz run");
    assert_eq!(
        BoundsReport::from_analysis(&warm).to_json(),
        BoundsReport::from_analysis(&cold).to_json()
    );
    assert_eq!(fingerprint(&warm), fingerprint(&cold));
}

#[test]
fn one_instruction_edit_stitches_the_unperturbed_cone() {
    let sys = system();
    let original = two_arm_program(100);
    let edited = two_arm_program(101); // one immediate word differs

    let memo = Arc::new(SubtreeMemo::in_memory());
    CoAnalysis::new(&sys)
        .memo(Some(memo.clone()))
        .run(&original)
        .expect("original analyzed");
    let before = memo.stats();

    // Reference: the edited program, cold and memo-less.
    let cold_edited = CoAnalysis::new(&sys).run(&edited).expect("cold edited");

    let warm_edited = CoAnalysis::new(&sys)
        .memo(Some(memo.clone()))
        .run(&edited)
        .expect("warm edited");
    let after = memo.stats();
    assert!(
        after.hits > before.hits,
        "subtrees outside the edited fetch cone replay from the memo"
    );
    assert!(
        after.misses > before.misses,
        "the path that fetches the edited word re-simulates"
    );
    assert_eq!(
        fingerprint(&cold_edited),
        fingerprint(&warm_edited),
        "warm bounds for the edited program must be byte-identical to cold"
    );
}

#[test]
fn invalidation_matrix_tracks_result_relevant_knobs_only() {
    let sys = system();
    let p = two_arm_program(100);
    let memo = Arc::new(SubtreeMemo::in_memory());
    let base = ExploreConfig::default();
    let run = |cfg: ExploreConfig, rounds: u64| {
        CoAnalysis::new(&sys)
            .config(cfg)
            .energy_rounds(rounds)
            .memo(Some(memo.clone()))
            .run(&p)
            .expect("analysis succeeds")
    };

    let cold = run(base, 10_000);
    let seeded = memo.stats();
    assert!(seeded.misses > 0 && seeded.hits == 0);

    // threads / lanes / energy_rounds are not result-relevant: warm.
    let mut warm_cfg = base;
    warm_cfg.threads = 2;
    warm_cfg.lanes = 4;
    let warm = run(warm_cfg, 7);
    let s = memo.stats();
    assert!(s.hits > 0, "parallelism changes must stay warm");
    assert_eq!(
        s.misses, seeded.misses,
        "no re-simulation at (threads=2, lanes=4, energy_rounds=7)"
    );
    // Exploration results are identical; only the energy-round budget
    // (deliberately varied) may move the energy figures.
    assert_eq!(cold.stats().deterministic(), warm.stats().deterministic());

    // Every context knob invalidates: the same state misses and
    // re-simulates under the new context.
    let knobs: Vec<(&str, ExploreConfig)> = vec![
        ("max_segment_cycles", {
            let mut c = base;
            c.max_segment_cycles += 1;
            c
        }),
        ("max_total_cycles", {
            let mut c = base;
            c.max_total_cycles += 1;
            c
        }),
        ("widen_threshold", {
            let mut c = base;
            c.widen_threshold += 1;
            c
        }),
        ("reset_cycles", {
            let mut c = base;
            c.reset_cycles += 1;
            c
        }),
    ];
    for (name, cfg) in knobs {
        let before = memo.stats();
        run(cfg, 10_000);
        let after = memo.stats();
        assert!(
            after.misses > before.misses,
            "changing {name} must invalidate (got {after:?} after {before:?})"
        );
        assert_eq!(
            after.hits, before.hits,
            "changing {name} must not hit stale entries"
        );
    }
}
