//! Cold-vs-warm incremental re-analysis over the benchmark suite.
//!
//! ```text
//! cargo run --release -p xbound_bench --bin incremental_replay [-- OPTIONS] [BENCH...]
//! ```
//!
//! For every benchmark this driver runs the co-analysis twice against one
//! subtree memo — a cold run that populates it and a warm run that replays
//! from it — asserts the two `BoundsReport`s are byte-identical, and prints
//! the wall-clock ratio. With `--edit` it additionally applies a
//! one-instruction source edit to `tHold` (the result store moves to a
//! different address), re-analyzes warm against the unedited memo, and
//! byte-diffs the report against a cold, memo-less run of the edited
//! program — the end-to-end incremental-recompile scenario.
//!
//! Options:
//!
//! * `--edit` — run the one-instruction-edit scenario (exits non-zero on
//!   any byte difference or if no subtree is stitched).
//! * `--json PATH` — write per-benchmark cold/warm seconds, speedups, and
//!   memo counters as JSON (the `incremental_reanalysis` section of
//!   `BENCH_sim.json` is produced this way).
//! * `-h`, `--help` — print the usage and exit.
//! * positional names — restrict to those benchmarks.
//!
//! Bad input (an unknown option or benchmark, `--json` without a path)
//! prints a one-line error and exits with status 2.
use std::sync::Arc;
use std::time::Instant;
use xbound_core::jsonout::JsonWriter;
use xbound_core::memo::SubtreeMemo;
use xbound_core::{summary, BoundsReport, CoAnalysis, ExploreConfig, UlpSystem};
use xbound_msp430::assemble;
use xbound_obs::cli::Args;

struct Row {
    name: &'static str,
    cold_s: f64,
    warm_s: f64,
    hits: u64,
    misses: u64,
    stitched: u64,
}

const USAGE: &str = "\
usage: incremental_replay [OPTIONS] [BENCH...]

Analyzes each benchmark (or the named benchmarks) cold and then warm
against one subtree memo, checks the bounds are byte-identical, and
prints the warm/cold wall-clock ratio.

options:
  --edit               also run the one-instruction-edit scenario on tHold
  --json PATH          write per-benchmark timings and memo counters as JSON
  -h, --help           print this help
";

fn main() {
    let mut names: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut edit = false;
    let mut args = Args::from_env("replay", USAGE);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json_path = Some(args.value(&a)),
            "--edit" => edit = true,
            other if other.starts_with('-') => args.fail(&format!("unknown option `{other}`")),
            other => names.push(other.to_string()),
        }
    }
    if let Some(n) = names
        .iter()
        .find(|n| xbound_benchsuite::by_name(n).is_none())
    {
        args.fail(&format!("unknown benchmark `{n}`"));
    }

    let sys = UlpSystem::openmsp430_class().unwrap();
    println!("gates: {}", sys.cpu().netlist().gate_count());
    let benches: Vec<&'static xbound_benchsuite::Benchmark> = xbound_benchsuite::all()
        .iter()
        .filter(|b| names.is_empty() || names.iter().any(|n| n == b.name()))
        .collect();

    let mut rows: Vec<Row> = Vec::new();
    for b in &benches {
        let program = b.program().unwrap();
        let config = ExploreConfig {
            widen_threshold: b.widen_threshold(),
            ..ExploreConfig::suite_default()
        };
        let memo = Arc::new(SubtreeMemo::in_memory());
        let run = |timer: &mut f64| {
            let t0 = Instant::now();
            let a = CoAnalysis::new(&sys)
                .config(config)
                .energy_rounds(b.energy_rounds())
                .memo(Some(memo.clone()))
                .run(&program)
                .unwrap();
            *timer = t0.elapsed().as_secs_f64();
            summary::bounds_line(b.name(), &BoundsReport::from_analysis(&a))
        };
        let (mut cold_s, mut warm_s) = (0.0, 0.0);
        let cold_line = run(&mut cold_s);
        let cold_stats = memo.stats();
        let warm_line = run(&mut warm_s);
        let warm_stats = memo.stats();
        assert_eq!(
            cold_line,
            warm_line,
            "{}: warm bounds differ from cold",
            b.name()
        );
        assert_eq!(
            warm_stats.misses,
            cold_stats.misses,
            "{}: warm run re-simulated an unchanged path",
            b.name()
        );
        let hits = warm_stats.hits - cold_stats.hits;
        println!(
            "{:10} cold={:>8.2?} warm={:>8.2?} ({:>5.1}% of cold) hits={hits} stitched={}",
            b.name(),
            std::time::Duration::from_secs_f64(cold_s),
            std::time::Duration::from_secs_f64(warm_s),
            100.0 * warm_s / cold_s,
            warm_stats.stitched_segments - cold_stats.stitched_segments,
        );
        rows.push(Row {
            name: b.name(),
            cold_s,
            warm_s,
            hits,
            misses: cold_stats.misses,
            stitched: warm_stats.stitched_segments - cold_stats.stitched_segments,
        });
    }
    let under_half = rows.iter().filter(|r| r.warm_s < 0.5 * r.cold_s).count();
    println!(
        "{} of {} benchmarks re-analyze warm in under half the cold wall-clock",
        under_half,
        rows.len()
    );

    if edit {
        edit_scenario(&sys);
    }

    if let Some(path) = json_path {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.field_u64("benchmarks", rows.len() as u64);
        w.field_u64("warm_under_half_cold", under_half as u64);
        w.key("rows");
        w.begin_array();
        for r in &rows {
            w.begin_object();
            w.field_str("name", r.name);
            w.field_raw("cold_seconds", &format!("{:.6}", r.cold_s));
            w.field_raw("warm_seconds", &format!("{:.6}", r.warm_s));
            w.field_raw("warm_over_cold", &format!("{:.4}", r.warm_s / r.cold_s));
            w.field_u64("memo_hits", r.hits);
            w.field_u64("memo_misses", r.misses);
            w.field_u64("stitched_segments", r.stitched);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        let mut doc = w.finish();
        doc.push('\n');
        std::fs::write(&path, doc).expect("write json");
        xbound_obs::info!("replay", "wrote {path}");
    }
}

/// The incremental-recompile scenario: seed the memo with `tHold`, apply a
/// one-instruction edit (the result store moves from `&0x0200` to
/// `&0x0208` — a word fetched only by the post-loop tail), and re-analyze
/// warm. The warm report must byte-match a cold, memo-less analysis of the
/// edited program, with the loop's execution subtrees stitched from the
/// memo.
fn edit_scenario(sys: &UlpSystem) {
    let b = xbound_benchsuite::by_name("tHold").expect("suite has tHold");
    let original = b.source();
    let needle = "mov r8, &0x0200";
    assert_eq!(
        original.matches(needle).count(),
        1,
        "edit anchor must be unique in tHold"
    );
    let edited_src = original.replace(needle, "mov r8, &0x0208");
    let edited = assemble(&edited_src).expect("edited tHold assembles");
    let config = ExploreConfig {
        widen_threshold: b.widen_threshold(),
        ..ExploreConfig::suite_default()
    };

    let memo = Arc::new(SubtreeMemo::in_memory());
    CoAnalysis::new(sys)
        .config(config)
        .energy_rounds(b.energy_rounds())
        .memo(Some(memo.clone()))
        .run(&b.program().unwrap())
        .unwrap();
    let seeded = memo.stats();

    let t0 = Instant::now();
    let cold = CoAnalysis::new(sys)
        .config(config)
        .energy_rounds(b.energy_rounds())
        .run(&edited)
        .unwrap();
    let cold_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let warm = CoAnalysis::new(sys)
        .config(config)
        .energy_rounds(b.energy_rounds())
        .memo(Some(memo.clone()))
        .run(&edited)
        .unwrap();
    let warm_s = t1.elapsed().as_secs_f64();
    let after = memo.stats();

    let cold_line = summary::bounds_line("tHold-edited", &BoundsReport::from_analysis(&cold));
    let warm_line = summary::bounds_line("tHold-edited", &BoundsReport::from_analysis(&warm));
    assert_eq!(cold_line, warm_line, "edited warm bounds differ from cold");
    assert!(after.hits > seeded.hits, "edit scenario stitched nothing");
    assert!(
        after.misses > seeded.misses,
        "the edited tail must re-simulate"
    );
    println!(
        "edit: tHold store @0x0200 -> @0x0208: warm={:.2?} ({:.1}% of cold {:.2?}), hits={}, re-simulated paths={}, bounds byte-identical",
        std::time::Duration::from_secs_f64(warm_s),
        100.0 * warm_s / cold_s,
        std::time::Duration::from_secs_f64(cold_s),
        after.hits - seeded.hits,
        after.misses - seeded.misses,
    );
}
