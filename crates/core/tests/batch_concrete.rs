//! The batched concrete engine against the scalar one: frames, power
//! traces, and validation reports must be bit-identical per input set at
//! any lane width or thread count.
//!
//! Validation is checked against a scalar oracle: the per-net
//! potentially-toggled loop and the per-net superset comparison that the
//! packed builds replaced are kept below verbatim, and the streamed
//! `validate_population` must report exactly what per-run scalar
//! simulation plus the frame checks against the oracle set report.

use rand::rngs::StdRng;
use rand::SeedableRng;
use xbound_core::validate::{ConcreteRunCheck, SupersetReport};
use xbound_core::{
    Analysis, AnalysisError, CoAnalysis, ExecutionTree, ExploreConfig, SegmentId, UlpSystem,
};
use xbound_logic::{Frame, Lv};
use xbound_msp430::{assemble, Program};

fn system() -> UlpSystem {
    UlpSystem::openmsp430_class().expect("system builds")
}

/// An input-dependent program: different inputs take different branches
/// and touch different data, so lanes genuinely diverge.
const SRC: &str = r#"
main:
    mov &0x0020, r4
    mov &0x0022, r5
    cmp r4, r5
    jl  lesser
    add r4, r5
    mov r5, &0x0200
    jmp done
lesser:
    xor r4, r5
    mov r5, &0x0202
done:
    mov &0x0024, r6
    add r6, r6
    mov r6, &0x0204
    jmp $
"#;

#[test]
fn batched_runs_are_bit_identical_to_scalar_runs() {
    let sys = system();
    let program = assemble(SRC).unwrap();
    let input_sets: Vec<Vec<u16>> = vec![
        vec![0, 0, 0],
        vec![1, 2, 3],
        vec![0xFFFF, 0, 0xAAAA],
        vec![7, 7, 7],
        vec![0x8000, 0x7FFF, 1],
    ];
    let batched = sys
        .profile_concrete_batch(&program, &input_sets, 10_000)
        .expect("batch runs");
    assert_eq!(batched.len(), input_sets.len());
    for (inputs, (bframes, btrace)) in input_sets.iter().zip(&batched) {
        let (sframes, strace) = sys
            .profile_concrete(&program, inputs, 10_000)
            .expect("scalar runs");
        assert_eq!(bframes, &sframes, "frames differ for inputs {inputs:?}");
        assert_eq!(btrace, &strace, "trace differs for inputs {inputs:?}");
    }
}

#[test]
fn population_results_independent_of_lane_width_and_threads() {
    let sys = system();
    let program = assemble(SRC).unwrap();
    let input_sets: Vec<Vec<u16>> = (0..7).map(|i| vec![i * 31, 0xFFFF - i, i * i]).collect();
    let reference = sys
        .profile_concrete_population(&program, &input_sets, 10_000, 1, 1)
        .expect("runs");
    for (lanes, threads) in [(2, 1), (3, 2), (32, 4), (64, 1)] {
        let got = sys
            .profile_concrete_population(&program, &input_sets, 10_000, lanes, threads)
            .expect("runs");
        assert_eq!(
            got, reference,
            "population results differ at lanes={lanes} threads={threads}"
        );
    }
}

#[test]
fn validate_population_is_sound_and_width_independent() {
    let sys = system();
    let program = assemble(SRC).unwrap();
    let analysis = CoAnalysis::new(&sys).run(&program).expect("analyzes");
    let input_sets: Vec<Vec<u16>> = (0..5).map(|i| vec![i, 1000 - i, i * 3]).collect();
    let a = analysis
        .validate_population(&program, &input_sets, 10_000, 2, 2)
        .expect("validates");
    let b = analysis
        .validate_population(&program, &input_sets, 10_000, 5, 1)
        .expect("validates");
    assert_eq!(a, b, "reports depend on lane grouping");
    for (i, check) in a.iter().enumerate() {
        assert!(check.is_sound(), "run {i} violates soundness: {check:?}");
    }
}

/// The scalar potentially-toggled annotation: per frame pair, every
/// differing net plus every net that is X at either endpoint; the root's
/// first frame has no predecessor.
fn oracle_marked(tree: &ExecutionTree, net_count: usize) -> Vec<bool> {
    let mut out = vec![false; net_count];
    for (id, seg) in tree.segments().iter().enumerate() {
        let boundary = tree.boundary_prev(SegmentId(id as u32));
        for (ci, cur) in seg.frames.iter().enumerate() {
            let prev: Option<&Frame> = if ci == 0 {
                boundary
            } else {
                Some(&seg.frames[ci - 1])
            };
            let Some(prev) = prev else { continue };
            for i in prev.diff_indices(cur) {
                out[i] = true;
            }
            // X endpoints can toggle even when structurally equal.
            for (i, o) in out.iter_mut().enumerate() {
                if !*o && (cur.get(i) == Lv::X || prev.get(i) == Lv::X) {
                    *o = true;
                }
            }
        }
    }
    out
}

/// The scalar toggle-superset comparison of a run's frames against
/// per-net marked flags.
fn oracle_superset(marked: &[bool], concrete_frames: &[Frame]) -> SupersetReport {
    let mut toggled = vec![false; marked.len()];
    for w in concrete_frames.windows(2) {
        for i in w[0].diff_indices(&w[1]) {
            toggled[i] = true;
        }
    }
    let mut common = 0;
    let mut x_only = 0;
    let mut violations = Vec::new();
    for i in 0..marked.len() {
        match (marked[i], toggled[i]) {
            (true, true) => common += 1,
            (true, false) => x_only += 1,
            (false, true) => violations.push(i),
            (false, false) => {}
        }
    }
    SupersetReport {
        common,
        x_only,
        violations,
    }
}

/// Per-run scalar validation: `profile_concrete`, the oracle superset
/// comparison, and the frame-based dominance check. Also asserts that
/// the packed frame path (`check_superset`) agrees with the oracle.
fn oracle_checks(
    sys: &UlpSystem,
    analysis: &Analysis<'_>,
    program: &Program,
    input_sets: &[Vec<u16>],
    max_cycles: u64,
) -> Vec<ConcreteRunCheck> {
    let marked = oracle_marked(analysis.tree(), sys.cpu().netlist().net_count());
    input_sets
        .iter()
        .map(|inputs| {
            let (frames, trace) = sys
                .profile_concrete(program, inputs, max_cycles)
                .expect("scalar run halts");
            let superset = oracle_superset(&marked, &frames);
            assert_eq!(
                analysis.check_superset(&frames),
                superset,
                "packed frame check differs for {inputs:?}"
            );
            ConcreteRunCheck {
                superset,
                dominance: analysis.check_dominance(&frames, &trace),
            }
        })
        .collect()
}

/// `validate_population` at every (lanes, threads) setting against the
/// per-run oracle — whole reports, not just `is_sound()`.
fn assert_population_matches_oracle(
    sys: &UlpSystem,
    analysis: &Analysis<'_>,
    program: &Program,
    input_sets: &[Vec<u16>],
    max_cycles: u64,
    name: &str,
) {
    let oracle = oracle_checks(sys, analysis, program, input_sets, max_cycles);
    for (lanes, threads) in [(0, 0), (5, 2), (64, 1)] {
        let got = analysis
            .validate_population(program, input_sets, max_cycles, lanes, threads)
            .expect("validates");
        assert_eq!(
            got, oracle,
            "{name}: streamed validation differs from the oracle at lanes={lanes} threads={threads}"
        );
    }
}

#[test]
fn packed_validation_matches_the_scalar_oracle_on_the_suite() {
    let sys = system();
    let net_count = sys.cpu().netlist().net_count();
    let mut rng = StdRng::seed_from_u64(0x5eed_0016);
    for bench in xbound_benchsuite::all() {
        let program = bench.program().expect("assembles");
        let analysis = CoAnalysis::new(&sys)
            .config(ExploreConfig {
                widen_threshold: bench.widen_threshold(),
                ..ExploreConfig::suite_default()
            })
            .energy_rounds(bench.energy_rounds())
            .run(&program)
            .expect("analyzes");
        let packed = analysis.tree().potentially_toggled_words(net_count);
        let oracle = oracle_marked(analysis.tree(), net_count);
        assert_eq!(packed.len(), net_count.div_ceil(64));
        for (i, &marked) in oracle.iter().enumerate() {
            assert_eq!(
                (packed[i / 64] >> (i % 64)) & 1 == 1,
                marked,
                "{}: net {i} differs from the scalar annotation",
                bench.name()
            );
        }
        assert_eq!(
            packed[net_count / 64] >> (net_count % 64),
            0,
            "{}: bits past the last net",
            bench.name()
        );
        let mut input_sets = bench.stress_inputs();
        input_sets.extend((0..3).map(|_| bench.gen_inputs(&mut rng)));
        assert_population_matches_oracle(
            &sys,
            &analysis,
            &program,
            &input_sets,
            bench.max_concrete_cycles(),
            bench.name(),
        );
    }
}

/// Inputs of [`SRC`] whose lanes take different branches and so halt at
/// different cycles.
fn staggered_inputs() -> Vec<Vec<u16>> {
    (0..9u16)
        .map(|i| vec![i * 0x1111, 0x4444, i.wrapping_mul(0x2345)])
        .collect()
}

#[test]
fn lanes_halting_at_different_cycles_match_the_oracle() {
    let sys = system();
    let program = assemble(SRC).unwrap();
    let analysis = CoAnalysis::new(&sys).run(&program).expect("analyzes");
    let input_sets = staggered_inputs();
    let mut halts: Vec<usize> = input_sets
        .iter()
        .map(|inputs| {
            sys.profile_concrete(&program, inputs, 10_000)
                .unwrap()
                .0
                .len()
        })
        .collect();
    halts.sort_unstable();
    halts.dedup();
    assert!(halts.len() > 1, "lanes must halt at different cycles");
    assert_population_matches_oracle(&sys, &analysis, &program, &input_sets, 10_000, "SRC");
}

#[test]
fn a_lane_that_cannot_halt_in_budget_is_a_cycle_budget_error() {
    let sys = system();
    let program = assemble(SRC).unwrap();
    let analysis = CoAnalysis::new(&sys).run(&program).expect("analyzes");
    let input_sets = staggered_inputs();
    let halts: Vec<u64> = input_sets
        .iter()
        .map(|inputs| {
            sys.profile_concrete(&program, inputs, 10_000)
                .unwrap()
                .0
                .len() as u64
        })
        .collect();
    let (first, last) = (*halts.iter().min().unwrap(), *halts.iter().max().unwrap());
    assert!(first < last, "lanes must halt at different cycles");
    // Every lane halts when the budget covers the slowest one...
    assert!(analysis
        .validate_population(&program, &input_sets, last, 0, 1)
        .is_ok());
    // ...and one cycle short of it, the group fails after the full budget.
    for lanes in [0, 1] {
        assert_eq!(
            analysis.validate_population(&program, &input_sets, last - 1, lanes, 1),
            Err(AnalysisError::CycleBudget { cycles: last - 1 }),
            "lanes={lanes}"
        );
    }
}
