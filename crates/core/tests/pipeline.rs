//! End-to-end tests of the co-analysis pipeline on small programs.

use xbound_core::{CoAnalysis, ExploreConfig, SegmentEnd, UlpSystem};
use xbound_msp430::assemble;

fn system() -> UlpSystem {
    UlpSystem::openmsp430_class().expect("system builds")
}

#[test]
fn straight_line_program_single_segment() {
    let sys = system();
    let p = assemble("main: mov #5, r4\n add r4, r4\n mov r4, &0x0200\n jmp $\n").unwrap();
    let analysis = CoAnalysis::new(&sys).run(&p).unwrap();
    assert_eq!(analysis.tree().segments().len(), 1);
    assert_eq!(analysis.stats().forks, 0);
    assert!(matches!(
        analysis.tree().segments()[0].end,
        SegmentEnd::Halt
    ));
    let peak = analysis.peak_power();
    assert!(peak.peak_mw > 0.0);
    let energy = analysis.peak_energy();
    assert!(energy.converged);
    assert!(energy.peak_energy_j > 0.0);
    assert!(energy.cycles > 5);
}

#[test]
fn input_dependent_branch_forks_and_bounds_both_paths() {
    let sys = system();
    let p = assemble(
        r#"
        main:
            mov &0x0020, r4
            cmp #1, r4
            jeq one
            mov #100, r5
            jmp done
        one:
            mov #0x0130, r6
            mov r4, &0x0130     ; exercise the multiplier on one path
            mov r4, &0x0138
            nop
            mov &0x013A, r5
        done:
            mov r5, &0x0200
            jmp $
        "#,
    )
    .unwrap();
    let analysis = CoAnalysis::new(&sys).run(&p).unwrap();
    assert!(analysis.stats().forks >= 1, "input-dependent branch forks");
    assert!(analysis.tree().segments().len() >= 3);

    // The bound must dominate concrete runs down BOTH paths.
    for inputs in [[0u16], [1u16], [7u16]] {
        let (frames, trace) = sys.profile_concrete(&p, &inputs, 50_000).unwrap();
        assert!(
            trace.peak_mw() <= analysis.peak_power().peak_mw + 1e-9,
            "input {:?}: concrete peak {} exceeds bound {}",
            inputs,
            trace.peak_mw(),
            analysis.peak_power().peak_mw
        );
        let sup = analysis.check_superset(&frames);
        assert!(
            sup.is_sound(),
            "superset violated for {:?}: {} nets",
            inputs,
            sup.violations.len()
        );
        let dom = analysis
            .check_dominance(&frames, &trace)
            .expect("concrete path must stay inside the tree");
        assert!(
            dom.is_sound(),
            "dominance violated for {:?} at cycles {:?}",
            inputs,
            &dom.violations[..dom.violations.len().min(5)]
        );
        assert!(dom.mean_ratio >= 1.0);
    }
}

#[test]
fn input_dependent_loop_terminates_via_memoization() {
    let sys = system();
    // Loop whose trip count depends on an input (bounded by the data width):
    // count the leading zeros of an input word.
    let p = assemble(
        r#"
        main:
            mov &0x0020, r4
            mov #0, r5
        loop:
            bit #0x8000, r4
            jnz done
            add r4, r4        ; shift left
            add #1, r5
            cmp #16, r5
            jnz loop
        done:
            mov r5, &0x0200
            jmp $
        "#,
    )
    .unwrap();
    let cfg = ExploreConfig {
        max_total_cycles: 500_000,
        ..ExploreConfig::default()
    };
    let analysis = CoAnalysis::new(&sys).config(cfg).run(&p).unwrap();
    assert!(
        analysis.stats().merges > 0,
        "loop must merge via memoization"
    );
    // Concrete runs for several inputs stay inside the bound.
    for input in [0x8000u16, 0x0001, 0x0000, 0x4242] {
        let (frames, trace) = sys.profile_concrete(&p, &[input], 50_000).unwrap();
        assert!(trace.peak_mw() <= analysis.peak_power().peak_mw + 1e-9);
        let sup = analysis.check_superset(&frames);
        assert!(sup.is_sound(), "superset violated for input {input:#06x}");
        let dom = analysis.check_dominance(&frames, &trace).unwrap();
        assert!(
            dom.is_sound(),
            "dominance violated for {input:#06x} at {:?}",
            &dom.violations[..dom.violations.len().min(5)]
        );
    }
}

#[test]
fn exploration_is_lane_invariant_and_deterministic() {
    let sys = system();
    // Fork-heavy: an input-dependent loop plus an input-dependent branch,
    // so the batched runner packs multiple pending branches per gate pass.
    let p = assemble(
        r#"
        main:
            mov &0x0020, r4
            mov #0, r5
        loop:
            bit #0x8000, r4
            jnz done
            add r4, r4
            add #1, r5
            cmp #16, r5
            jnz loop
        done:
            mov r5, &0x0200
            jmp $
        "#,
    )
    .unwrap();
    let explorer = |lanes: usize| {
        let cfg = ExploreConfig {
            max_total_cycles: 500_000,
            lanes,
            ..ExploreConfig::default()
        };
        xbound_core::SymbolicExplorer::new(sys.cpu(), cfg)
            .explore(&p)
            .expect("explores")
    };
    // The reference: the historical scalar explorer (one lane).
    let (t1, s1) = explorer(1);
    assert_eq!(s1.batch.lanes, 1);
    for lanes in [1usize, 8, 64] {
        let (tn, sn) = explorer(lanes);
        // At one width the whole statistics block, packing telemetry
        // included, is a function of the program alone.
        let (_, again) = explorer(lanes);
        assert_eq!(sn, again, "stats vary between runs at {lanes} lanes");
        assert_eq!(
            s1.deterministic(),
            sn.deterministic(),
            "stats differ at {lanes} lanes"
        );
        assert_eq!(sn.batch.lanes, lanes as u64);
        assert_eq!(
            t1.segments().len(),
            tn.segments().len(),
            "segment count differs at {lanes} lanes"
        );
        for (a, b) in t1.segments().iter().zip(tn.segments()) {
            assert_eq!(a.start_cycle, b.start_cycle);
            assert_eq!(a.frames, b.frames, "frames differ at {lanes} lanes");
            assert_eq!(a.end, b.end);
            assert_eq!(a.parent.map(|(p, _)| p), b.parent.map(|(p, _)| p));
        }
    }
    // The batched runner actually packed branches: with 8 lanes some gate
    // passes must have carried more than one in-flight branch.
    let (_, s8) = explorer(8);
    assert!(
        s8.batch.active_lane_cycles > s8.batch.gate_passes,
        "no pass carried two branches: {:?}",
        s8.batch
    );
    assert!(s8.batch.occupancy() > 0.0 && s8.batch.occupancy() <= 1.0);
    assert!(
        s8.batch.gate_passes < s1.batch.gate_passes,
        "8-lane exploration should need fewer gate passes than scalar \
         ({} vs {})",
        s8.batch.gate_passes,
        s1.batch.gate_passes
    );
}

#[test]
fn tighter_than_rated_power() {
    let sys = system();
    let p = assemble("main: mov #5, r4\n add r4, r4\n jmp $\n").unwrap();
    let analysis = CoAnalysis::new(&sys).run(&p).unwrap();
    let rated = sys.analyzer().rated_peak_mw();
    assert!(
        analysis.peak_power().peak_mw < rated * 0.8,
        "X-based bound ({}) should be well below rated power ({rated})",
        analysis.peak_power().peak_mw
    );
}

#[test]
fn coi_identifies_instruction_and_modules() {
    let sys = system();
    let p = assemble(
        r#"
        main:
            mov &0x0020, r4
            mov r4, &0x0130
            mov r4, &0x0138
            nop
            mov &0x013A, r5
            mov r5, &0x0200
            jmp $
        "#,
    )
    .unwrap();
    let analysis = CoAnalysis::new(&sys).run(&p).unwrap();
    let cois = analysis.cycles_of_interest(3);
    assert_eq!(cois.len(), 3);
    assert!(cois[0].power_mw >= cois[1].power_mw);
    assert!(cois[0].instr.is_some(), "IR should decode at the peak");
    let total: f64 = cois[0].breakdown.iter().map(|(_, p)| p).sum();
    assert!(total > 0.0);
    let report = xbound_core::coi::format_report(&cois);
    assert!(report.contains("COI"));
}

#[test]
fn unresolved_computed_jump_reported() {
    let sys = system();
    // Jump through an input-dependent register value.
    let p = assemble("main: mov &0x0020, r4\n br r4\n jmp $\n").unwrap();
    let err = CoAnalysis::new(&sys).run(&p).unwrap_err();
    assert!(matches!(
        err,
        xbound_core::AnalysisError::UnresolvedPc { .. }
    ));
}

#[test]
fn nonterminating_program_hits_budget() {
    let sys = system();
    let p = assemble("main: add #1, r4\n jmp main\n").unwrap();
    let cfg = ExploreConfig {
        max_segment_cycles: 2_000,
        max_total_cycles: 2_000,
        ..ExploreConfig::default()
    };
    let err = CoAnalysis::new(&sys).config(cfg).run(&p).unwrap_err();
    assert!(matches!(
        err,
        xbound_core::AnalysisError::CycleBudget { .. }
    ));
}

#[test]
fn peak_energy_scales_with_program_length() {
    let sys = system();
    let short = assemble("main: mov #5, r4\n jmp $\n").unwrap();
    let long =
        assemble("main: mov #5, r4\n add r4, r4\n add r4, r4\n add r4, r4\n add r4, r4\n jmp $\n")
            .unwrap();
    let es = CoAnalysis::new(&sys).run(&short).unwrap().peak_energy();
    let el = CoAnalysis::new(&sys).run(&long).unwrap().peak_energy();
    assert!(el.peak_energy_j > es.peak_energy_j);
    assert!(el.cycles > es.cycles);
}
