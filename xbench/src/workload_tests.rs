//! Whole-workload checks: the golden files match the current code, and
//! the counts a traced run reports repeat exactly from run to run.

use crate::report::Report;
use crate::{cold_suite, edit_serve, sweep, validate, Args, Workload};
use std::time::Instant;

/// One pass of `workload` (one second is shorter than any pass).
fn one_pass(workload: Workload, trace: bool) -> Report {
    let args = Args {
        workload,
        seed: 5,
        seconds: 1,
        trace,
    };
    let run = match workload {
        Workload::ColdSuite => cold_suite::run,
        Workload::Sweep => sweep::run,
        Workload::Validate => validate::run,
        Workload::EditServe => edit_serve::run,
    };
    run(&args, Instant::now()).expect("the workload runs")
}

fn values(r: &Report, names: &[&str]) -> Vec<f64> {
    names
        .iter()
        .map(|n| r.get(n).unwrap_or_else(|| panic!("`{n}` reported")))
        .collect()
}

/// Every timed op compares its bound lines with the golden files, so a
/// clean pass of each batch workload is the golden check.
#[test]
fn golden_files_match_the_current_code() {
    for w in [Workload::ColdSuite, Workload::Sweep] {
        let r = one_pass(w, false);
        assert_eq!((r.attempted, r.failed), (14, 0), "{w:?}");
    }
}

/// The counts named here repeat exactly across two traced runs, and
/// leaf spans cover at least 90 % of traced op time.
#[test]
fn traced_counts_repeat() {
    let explore = [
        "activity.cycles",
        "activity.forks",
        "activity.merges",
        "activity.widenings",
        "peak_power.segments",
    ];
    let sweep = [
        "sweep.tables_built",
        "sweep.trace_sets_built",
        "sweep.trace_reuse_hits",
    ];
    let cases: [(Workload, Vec<&str>); 3] = [
        (Workload::ColdSuite, explore.to_vec()),
        (Workload::Sweep, [&explore[..], &sweep[..]].concat()),
        (
            Workload::Validate,
            vec!["sim.concrete_cycles", "validate.sound_runs"],
        ),
    ];
    for (w, names) in cases {
        let (a, b) = (one_pass(w, true), one_pass(w, true));
        assert!(a.correct() && b.correct(), "{w:?}");
        assert_eq!(values(&a, &names), values(&b, &names), "{w:?}");
        assert!(values(&a, &names).iter().all(|v| *v > 0.0), "{w:?}");
        assert!(a.get("trace.coverage").unwrap_or(0.0) >= 0.9, "{w:?}");
    }
}

/// The memo counts of the fixed traced edit sequence repeat at a fixed
/// seed, and every response matches the direct analysis it was sampled
/// against.
#[test]
fn edit_serve_memo_counts_repeat() {
    let names = [
        "memo.hit_ratio",
        "memo.power_hit_ratio",
        "memo.stitched_segments",
        "memo.entries",
    ];
    let (a, b) = (
        one_pass(Workload::EditServe, true),
        one_pass(Workload::EditServe, true),
    );
    assert!(a.correct() && b.correct());
    assert_eq!(a.attempted, edit_serve::TRACED_EDITS as u64);
    assert_eq!(values(&a, &names), values(&b, &names));
    assert_eq!(a.get("service.bound_cache_hits"), Some(0.0));
}
