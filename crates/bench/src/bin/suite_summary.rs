//! Runs the X-based co-analysis over the whole benchmark suite and prints
//! one summary line per benchmark (peak bound, NPE, tree statistics,
//! analysis runtime) — a quick health check of the full pipeline.
//!
//! ```text
//! cargo run --release -p xbound_bench --bin suite_summary [-- OPTIONS] [BENCH...]
//! ```
//!
//! Options:
//!
//! * `--oracle` — run on the full-levelized evaluation engine (equivalent
//!   to `XBOUND_SIM_ENGINE=levelized`); result columns are byte-identical
//!   to the default event-driven engine, only timings differ.
//! * `--threads N` — suite-level worker pool size (default: auto, see
//!   `XBOUND_THREADS`); benchmarks fan out across workers and print in
//!   deterministic suite order regardless.
//! * `--validate N` — additionally validate each analysis against `N`
//!   random concrete runs through the batched engine (Fig 12 toggle
//!   superset + Fig 13 power dominance per run); the summary line gains a
//!   `val=` column. Reports are identical at any lane width/thread count.
//! * `--lanes N` — lane width for the batched validation runs (default:
//!   auto, see `XBOUND_LANES`; clamped to 1..=64).
//! * `--explore-lanes N` — lane width for batched symbolic exploration:
//!   how many pending execution-tree branches share one gate pass
//!   (default: auto, see `XBOUND_EXPLORE_LANES`). Result columns are
//!   byte-identical at any width; only timings and the occupancy
//!   telemetry change.
//! * `--json PATH` — additionally write per-benchmark wall-clock numbers
//!   and bounds as JSON (via the shared `xbound_core::jsonout` writer),
//!   with engine / thread-count / lane-width metadata plus the
//!   exploration's gate-pass and lane-occupancy counters, so
//!   `BENCH_*.json` entries are self-describing.
//! * `--bounds PATH` — write one canonical `{"name": ..., "bounds": ...}`
//!   line per benchmark ([`xbound_core::summary::bounds_line`]); the
//!   co-analysis service's `xbound-client suite` prints byte-identical
//!   lines, which is how CI cross-checks the daemon against the direct
//!   path.
//! * `--sweep PATH` — operating-point sweep mode (`xbound_core::sweep`):
//!   explore each benchmark **once**, then bound every corner of the
//!   default library × voltage × clock grid, writing the
//!   bound-vs-operating-point curves as JSON to `PATH`. One summary line
//!   prints per (benchmark, corner); the final `sweep:` line carries the
//!   tree-reuse counter CI greps. With `--bounds PATH`, each line gains a
//!   trailing `"corner"` field — stripping it yields bytes identical to a
//!   plain single-corner `--bounds` run of that corner (the CI sweep
//!   smoke contract). Not combinable with `--validate`.
//! * `--sweep-corners N` — truncate the default 8-corner grid to its
//!   first `N` corners (the CI smoke runs 4).
//! * `--trace PATH` — record a Chrome-trace of the run (exploration and
//!   its path-simulation batches, forks and commits, power composition,
//!   sweep stages, one track per suite worker) and write it to PATH at
//!   exit; load it at `chrome://tracing` or
//!   <https://ui.perfetto.dev>. `XBOUND_TRACE=PATH` is the environment
//!   spelling. Tracing never changes result bytes — only timings.
//! * `-h`, `--help` — print the usage and exit.
//! * positional names — restrict the run to those benchmarks (the CI smoke
//!   invocation runs a fast subset).
//!
//! Bad input (an unknown option or benchmark, a missing or non-numeric
//! value, `--sweep` combined with `--validate`) prints a
//! one-line error and exits with status 2.
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use xbound_core::jsonout::JsonWriter;
use xbound_core::{
    par, summary, BatchExploreStats, BoundsReport, CoAnalysis, ExploreConfig, UlpSystem,
};
use xbound_obs::cli::Args;

const USAGE: &str = "\
usage: suite_summary [OPTIONS] [BENCH...]

Co-analyzes the benchmark suite (or the named benchmarks) and prints one
summary line per benchmark.

options:
  --oracle             run on the full-levelized evaluation engine
  --threads N          suite-level worker pool size (default: auto)
  --validate N         validate each analysis against N random concrete runs
  --lanes N            lane width of the batched validation runs
  --explore-lanes N    lane width of batched symbolic exploration
  --json PATH          write per-benchmark timings and bounds as JSON
  --bounds PATH        write one canonical bound line per benchmark
  --sweep PATH         bound every corner of the default operating-point
                       grid and write the curves to PATH
  --sweep-corners N    truncate the grid to its first N corners
  --trace PATH         record a Chrome trace of the run to PATH
  -h, --help           print this help
";

struct Row {
    name: &'static str,
    line: String,
    seconds: f64,
    explore: Option<BatchExploreStats>,
    bounds: Option<BoundsReport>,
}

/// Stable per-benchmark salt for validation input generation (FNV-1a, so
/// subsets validate with the same inputs as full-suite runs).
fn name_salt(name: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn main() {
    let mut trace_path = xbound_obs::trace::init_from_env();
    let mut names: Vec<String> = Vec::new();
    let mut threads = 0usize;
    let mut lanes = 0usize;
    let mut explore_lanes = 0usize;
    let mut validate_runs = 0usize;
    let mut json_path: Option<String> = None;
    let mut bounds_path: Option<String> = None;
    let mut sweep_path: Option<String> = None;
    let mut sweep_corners = 0usize;
    let mut args = Args::from_env("suite", USAGE);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--oracle" => std::env::set_var("XBOUND_SIM_ENGINE", "levelized"),
            "--sweep" => sweep_path = Some(args.value(&a)),
            "--sweep-corners" => sweep_corners = args.number(&a),
            "--threads" => threads = args.number(&a),
            "--lanes" => lanes = args.number(&a),
            "--explore-lanes" => explore_lanes = args.number(&a),
            "--validate" => validate_runs = args.number(&a),
            "--json" => json_path = Some(args.value(&a)),
            "--bounds" => bounds_path = Some(args.value(&a)),
            "--trace" => {
                let path = args.value(&a);
                xbound_obs::trace::enable();
                trace_path = Some(path);
            }
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
    if sweep_path.is_some() && validate_runs > 0 {
        args.fail("--sweep is not combinable with --validate");
    }
    let benches: Vec<&'static xbound_benchsuite::Benchmark> = xbound_benchsuite::all()
        .iter()
        .filter(|b| names.is_empty() || names.iter().any(|n| n == b.name()))
        .collect();

    let sys = UlpSystem::openmsp430_class().unwrap();
    println!("gates: {}", sys.cpu().netlist().gate_count());
    if let Some(curve_path) = sweep_path {
        sweep_mode(
            &sys,
            &benches,
            &curve_path,
            sweep_corners,
            threads,
            explore_lanes,
            bounds_path.as_deref(),
        );
        write_trace(trace_path);
        return;
    }
    let suite_workers = par::resolve_threads(threads).min(benches.len().max(1));
    let lane_width = par::resolve_lanes(lanes);
    let explore_lane_width = par::resolve_explore_lanes(explore_lanes);
    let t_suite = Instant::now();
    let rows = par::par_map_labeled(
        suite_workers,
        benches,
        |_, b| b.name().to_string(),
        |_, b| {
            let t0 = Instant::now();
            let program = b.program().unwrap();
            let r = CoAnalysis::new(&sys)
                .config(ExploreConfig {
                    widen_threshold: b.widen_threshold(),
                    lanes: explore_lane_width,
                    ..ExploreConfig::suite_default()
                })
                .energy_rounds(b.energy_rounds())
                .run(&program);
            let mut explore = None;
            let mut bounds = None;
            let line = match r {
                Ok(a) => {
                    let val = if validate_runs > 0 {
                        let mut rng =
                            StdRng::seed_from_u64(xbound_bench::SEED ^ name_salt(b.name()));
                        let input_sets: Vec<Vec<u16>> =
                            (0..validate_runs).map(|_| b.gen_inputs(&mut rng)).collect();
                        let checks = a
                            .validate_population(
                                &program,
                                &input_sets,
                                b.max_concrete_cycles(),
                                lane_width,
                                1,
                            )
                            .expect("validation runs");
                        let sound = checks.iter().filter(|c| c.is_sound()).count();
                        assert_eq!(
                            sound,
                            checks.len(),
                            "{}: soundness violation in batched validation",
                            b.name()
                        );
                        format!(" val={sound}/{} ok", checks.len())
                    } else {
                        String::new()
                    };
                    let s = a.stats();
                    explore = Some(s.batch.clone());
                    bounds = Some(BoundsReport::from_analysis(&a));
                    let e = a.peak_energy();
                    format!(
                        "{:10} peak={:.4} mW npe={:.3e} J/cyc segs={} cycles={} forks={} merges={} widen={} conv={}{val} [{:.2?}]",
                        b.name(), a.peak_power().peak_mw, e.npe_j_per_cycle,
                        a.tree().segments().len(), s.cycles, s.forks, s.merges, s.widenings,
                        e.converged, t0.elapsed()
                    )
                }
                Err(e) => format!("{:10} ERROR: {e} [{:.2?}]", b.name(), t0.elapsed()),
            };
            Row {
                name: b.name(),
                line,
                seconds: t0.elapsed().as_secs_f64(),
                explore,
                bounds,
            }
        },
    );
    for row in &rows {
        println!("{}", row.line);
    }
    let total = t_suite.elapsed().as_secs_f64();
    let engine = xbound_core::sim_engine_name();
    println!(
        "suite: {} benchmarks in {total:.3} s ({} suite worker{}, engine: {engine}, batch lanes: {lane_width}, explore lanes: {explore_lane_width})",
        rows.len(),
        suite_workers,
        if suite_workers == 1 { "" } else { "s" },
    );

    if let Some(path) = json_path {
        // Self-describing metadata first, then the per-benchmark timings
        // and bounds plus the exploration's lane-occupancy telemetry
        // (lane-width dependent; the bounds themselves are byte-identical
        // at any lane width or thread count). Emitted through the shared
        // `jsonout` writer.
        let agg = rows.iter().filter_map(|r| r.explore.as_ref()).fold(
            xbound_core::BatchExploreStats::default(),
            |mut acc, b| {
                acc.lanes = b.lanes;
                acc.absorb(b);
                acc
            },
        );
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.field_str("engine", engine);
        w.field_u64("threads", suite_workers as u64);
        // The cached process-wide worker resolution for this run's
        // `--threads` knob (par::resolve_threads caches the auto path).
        w.field_u64("resolved_threads", par::resolve_threads(threads) as u64);
        w.field_u64("batch_lanes", lane_width as u64);
        w.field_u64("explore_lanes", explore_lane_width as u64);
        w.field_u64("validate_runs", validate_runs as u64);
        w.field_u64("explore_gate_passes", agg.gate_passes);
        w.field_u64("explore_active_lane_cycles", agg.active_lane_cycles);
        w.field_u64("explore_idle_lane_cycles", agg.idle_lane_cycles);
        w.field_raw("explore_occupancy", &format!("{:.4}", agg.occupancy()));
        w.key("benchmarks");
        w.begin_array();
        for row in &rows {
            w.begin_object();
            w.field_str("name", row.name);
            w.field_raw("seconds", &format!("{:.6}", row.seconds));
            if let Some(b) = &row.explore {
                w.field_u64("explore_gate_passes", b.gate_passes);
                w.field_raw("explore_occupancy", &format!("{:.4}", b.occupancy()));
            }
            if let Some(bounds) = &row.bounds {
                w.key("bounds");
                bounds.write(&mut w);
            }
            w.end_object();
        }
        w.end_array();
        w.field_raw("total_seconds", &format!("{total:.6}"));
        w.end_object();
        let mut doc = w.finish();
        doc.push('\n');
        std::fs::write(&path, doc).expect("write json");
        xbound_obs::info!("suite", "wrote {path}");
    }

    if let Some(path) = bounds_path {
        // Canonical per-benchmark bound lines, byte-identical to what
        // `xbound-client suite` prints for the same programs.
        let mut out = String::new();
        for row in &rows {
            match &row.bounds {
                Some(b) => out.push_str(&summary::bounds_line(row.name, b)),
                None => {
                    let mut w = JsonWriter::compact();
                    w.begin_object();
                    w.field_str("name", row.name);
                    w.field_str("error", "analysis failed");
                    w.end_object();
                    out.push_str(&w.finish());
                }
            }
            out.push('\n');
        }
        std::fs::write(&path, out).expect("write bounds");
        xbound_obs::info!("suite", "wrote {path}");
    }
    write_trace(trace_path);
}

/// Writes the Chrome trace collected this run (no-op when tracing was
/// never enabled).
fn write_trace(path: Option<String>) {
    if let Some(path) = path {
        match xbound_obs::trace::write_chrome_trace(&path) {
            Ok(()) => xbound_obs::info!("suite", "wrote trace {path}"),
            Err(e) => {
                xbound_obs::error!("suite", "trace write {path} failed: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// The `--sweep` flow: each benchmark explores **once**, then every
/// corner of the (possibly truncated) default operating-point grid is
/// bounded from the shared tree (`xbound_core::sweep::run_sweep`).
fn sweep_mode(
    sys: &UlpSystem,
    benches: &[&'static xbound_benchsuite::Benchmark],
    curve_path: &str,
    sweep_corners: usize,
    threads: usize,
    explore_lanes: usize,
    bounds_path: Option<&str>,
) {
    use xbound_core::sweep::{run_sweep, SweepAnalysis, SweepSpec};

    struct SweepRow {
        name: &'static str,
        result: Result<SweepAnalysis, String>,
        seconds: f64,
    }

    let spec = SweepSpec::suite_default().truncated(sweep_corners);
    let suite_workers = par::resolve_threads(threads).min(benches.len().max(1));
    let explore_lane_width = par::resolve_explore_lanes(explore_lanes);
    // One layer of parallelism at a time: when benchmarks already fan out
    // across the pool, each sweep bounds its corners serially.
    let inner_threads = if suite_workers > 1 { 1 } else { 0 };
    let t_suite = Instant::now();
    let rows = par::par_map_labeled(
        suite_workers,
        benches.to_vec(),
        |_, b| b.name().to_string(),
        |_, b| {
            let t0 = Instant::now();
            let program = b.program().unwrap();
            let config = ExploreConfig {
                widen_threshold: b.widen_threshold(),
                lanes: explore_lane_width,
                ..ExploreConfig::suite_default()
            };
            let result = run_sweep(
                sys.cpu(),
                &spec,
                &program,
                config,
                b.energy_rounds(),
                inner_threads,
            )
            .map_err(|e| e.to_string());
            SweepRow {
                name: b.name(),
                result,
                seconds: t0.elapsed().as_secs_f64(),
            }
        },
    );

    let mut tree_reuse = 0u64;
    let mut tables_built = 0u64;
    let mut trace_reuse = 0u64;
    for row in &rows {
        match &row.result {
            Ok(s) => {
                for cr in &s.corners {
                    println!(
                        "{:10} {:22} peak={:.4} mW npe={:.3e} J/cyc conv={} [{:.2}ms]",
                        row.name,
                        cr.corner.label(),
                        cr.report.peak_mw,
                        cr.report.npe_j_per_cycle,
                        cr.report.converged,
                        cr.seconds * 1e3,
                    );
                }
                tree_reuse += s.stats.tree_reuse_hits;
                tables_built += s.stats.tables_built;
                trace_reuse += s.stats.trace_reuse_hits;
            }
            Err(e) => println!("{:10} ERROR: {e}", row.name),
        }
    }
    let total = t_suite.elapsed().as_secs_f64();
    let engine = xbound_core::sim_engine_name();
    println!(
        "sweep: {} benchmarks x {} corners in {total:.3} s (tree_reuse={tree_reuse}, tables={tables_built}, trace_reuse={trace_reuse}, {} suite worker{}, engine: {engine})",
        rows.len(),
        spec.corners().len(),
        suite_workers,
        if suite_workers == 1 { "" } else { "s" },
    );

    // The bound-vs-operating-point curve document.
    let mut w = JsonWriter::pretty();
    w.begin_object();
    w.field_str("engine", engine);
    w.field_u64("threads", suite_workers as u64);
    w.field_u64("explore_lanes", explore_lane_width as u64);
    w.key("corners");
    w.begin_array();
    for c in spec.corners() {
        w.begin_object();
        w.field_str("label", &c.label());
        w.field_str("library", c.library().name());
        w.field_f64("voltage_v", c.vdd_v());
        w.field_f64("clock_hz", c.clock_hz());
        w.end_object();
    }
    w.end_array();
    w.key("benchmarks");
    w.begin_array();
    for row in &rows {
        w.begin_object();
        w.field_str("name", row.name);
        w.field_raw("seconds", &format!("{:.6}", row.seconds));
        match &row.result {
            Ok(s) => {
                w.field_raw(
                    "explore_seconds",
                    &format!("{:.6}", s.stats.explore_seconds),
                );
                w.field_u64("tree_reuse_hits", s.stats.tree_reuse_hits);
                w.field_u64("tables_built", s.stats.tables_built);
                w.field_u64("trace_sets_built", s.stats.trace_sets_built);
                w.field_u64("trace_reuse_hits", s.stats.trace_reuse_hits);
                w.key("curve");
                w.begin_array();
                for cr in &s.corners {
                    w.begin_object();
                    w.field_str("corner", &cr.corner.label());
                    w.field_raw("seconds", &format!("{:.6}", cr.seconds));
                    w.key("bounds");
                    cr.report.write(&mut w);
                    w.end_object();
                }
                w.end_array();
            }
            Err(e) => w.field_str("error", e),
        }
        w.end_object();
    }
    w.end_array();
    w.field_raw("total_seconds", &format!("{total:.6}"));
    w.end_object();
    let mut doc = w.finish();
    doc.push('\n');
    std::fs::write(curve_path, doc).expect("write sweep curves");
    xbound_obs::info!("suite", "wrote {curve_path}");

    if let Some(path) = bounds_path {
        // Corner-stamped canonical bound lines: drop the trailing
        // `, "corner": "..."` and the bytes equal a plain single-corner
        // `--bounds` run of that corner — the CI sweep smoke strips it
        // with sed and diffs.
        let mut out = String::new();
        for row in &rows {
            match &row.result {
                Ok(s) => {
                    for cr in &s.corners {
                        let mut w = JsonWriter::compact();
                        w.begin_object();
                        w.field_str("name", row.name);
                        w.key("bounds");
                        cr.report.write(&mut w);
                        w.field_str("corner", &cr.corner.label());
                        w.end_object();
                        out.push_str(&w.finish());
                        out.push('\n');
                    }
                }
                Err(_) => {
                    let mut w = JsonWriter::compact();
                    w.begin_object();
                    w.field_str("name", row.name);
                    w.field_str("error", "analysis failed");
                    w.end_object();
                    out.push_str(&w.finish());
                    out.push('\n');
                }
            }
        }
        std::fs::write(path, out).expect("write bounds");
        xbound_obs::info!("suite", "wrote {path}");
    }
}
