//! Observability guard: tracing must never perturb result bytes, and
//! the traces it produces must be structurally valid.
//!
//! The whole check lives in **one** `#[test]` because
//! [`xbound_obs::trace::enable`] is process-global and one-way: the
//! untraced reference bounds must be computed before tracing turns on,
//! and a sibling test running concurrently in the same binary would
//! race that ordering.

use std::collections::{BTreeMap, BTreeSet};
use xbound_core::jsonin::Json;
use xbound_core::{par, summary, BoundsReport, CoAnalysis, ExploreConfig, UlpSystem};

/// Canonical full-suite bound lines with the programs fanned out over
/// `threads` suite workers, as `suite_summary` does — the exact bytes
/// `suite_summary --bounds` writes.
fn suite_bounds(sys: &UlpSystem, threads: usize, lanes: usize) -> String {
    let lines = par::par_map(
        threads,
        xbound_benchsuite::all().iter().collect(),
        |_, bench| {
            let program = bench.program().expect("assembles");
            let a = CoAnalysis::new(sys)
                .config(ExploreConfig {
                    widen_threshold: bench.widen_threshold(),
                    lanes,
                    ..ExploreConfig::suite_default()
                })
                .energy_rounds(bench.energy_rounds())
                .run(&program)
                .expect("analyzes");
            summary::bounds_line(bench.name(), &BoundsReport::from_analysis(&a)) + "\n"
        },
    );
    lines.concat()
}

#[test]
fn tracing_is_invisible_in_result_bytes_and_traces_are_well_formed() {
    let sys = UlpSystem::openmsp430_class().expect("system builds");

    // Untraced reference first — must precede `enable()`.
    assert!(
        !xbound_obs::trace::enabled(),
        "tracing must be off for the reference run (XBOUND_TRACE leaked into the test env?)"
    );
    let reference = suite_bounds(&sys, 1, 1);

    xbound_obs::trace::enable();
    for lanes in [1, 8] {
        let traced = suite_bounds(&sys, 3, lanes);
        assert_eq!(traced, reference, "traced bounds diverged at lanes={lanes}");
    }

    // The runs above recorded real spans; now validate the exported
    // Chrome trace document.
    assert!(xbound_obs::trace::event_count() > 0, "no events recorded");
    let doc = xbound_obs::trace::chrome_trace_json();
    let v = Json::parse(&doc).expect("trace parses as JSON");
    let events = v
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // Per-event shape + collect per-tid spans, span names and labels.
    let mut spans: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    let mut span_names: BTreeMap<u64, BTreeSet<String>> = BTreeMap::new();
    let mut labels: BTreeMap<u64, String> = BTreeMap::new();
    let mut names: BTreeSet<String> = BTreeSet::new();
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("ph");
        let tid = e.get("tid").and_then(Json::as_u64).expect("tid");
        assert_eq!(e.get("pid").and_then(Json::as_u64), Some(1));
        let name = e.get("name").and_then(Json::as_str).expect("name");
        match ph {
            "M" => {
                assert_eq!(name, "thread_name");
                let label = e
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .expect("metadata label");
                labels.insert(tid, label.to_string());
            }
            "X" => {
                let ts = e.get("ts").and_then(Json::as_f64).expect("ts");
                let dur = e.get("dur").and_then(Json::as_f64).expect("dur");
                assert!(ts >= 0.0 && dur >= 0.0 && ts.is_finite() && dur.is_finite());
                spans.entry(tid).or_default().push((ts, ts + dur));
                span_names.entry(tid).or_default().insert(name.to_string());
                names.insert(name.to_string());
            }
            "i" => {
                let ts = e.get("ts").and_then(Json::as_f64).expect("ts");
                assert!(ts >= 0.0 && ts.is_finite());
                names.insert(name.to_string());
            }
            other => panic!("unexpected phase `{other}`"),
        }
    }

    // The instrumented pipeline stages must all have fired.
    for expected in [
        "co_analysis",
        "explore",
        "explore_batch",
        "peak_power_compose",
        "peak_energy",
    ] {
        assert!(names.contains(expected), "no `{expected}` span in trace");
    }
    // The programs fanned out over the suite pool: its workers must
    // appear as labeled threads, each carrying whole co-analyses.
    let par_tids = labels
        .iter()
        .filter(|(tid, label)| {
            label.starts_with("xbound-par-")
                && span_names
                    .get(tid)
                    .is_some_and(|n| n.contains("co_analysis"))
        })
        .count();
    assert!(
        par_tids >= 3,
        "only {par_tids} xbound-par tids carry co_analysis spans: {labels:?}"
    );

    // Spans must nest properly per thread (sort by start, longest
    // first; every span fits inside the enclosing open span).
    for (tid, list) in &mut spans {
        list.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap()
                .then(b.1.partial_cmp(&a.1).unwrap())
        });
        let mut stack: Vec<(f64, f64)> = Vec::new();
        for &(start, end) in list.iter() {
            while let Some(&(_, open_end)) = stack.last() {
                if start >= open_end - 1e-3 {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(open_start, open_end)) = stack.last() {
                assert!(
                    start >= open_start - 1e-3 && end <= open_end + 1e-3,
                    "tid {tid}: span [{start}, {end}] straddles [{open_start}, {open_end}]"
                );
            }
            stack.push((start, end));
        }
    }
}
