//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p xbound-bench --bin experiments -- all
//! cargo run --release -p xbound-bench --bin experiments -- fig5_1 fig5_2
//! ```
//!
//! Population-size flags (the batched concrete engine makes large
//! populations cheap — lane groups share one gate pass per cycle):
//!
//! * `--profile-runs N` — random input sets per profiling campaign
//!   (default 8);
//! * `--ga-pop N` — stressmark GA population per generation (default 16);
//! * `--lanes N` — concrete batch lane width (sets `XBOUND_LANES`;
//!   results are bit-identical at any width);
//! * `--explore-lanes N` — symbolic-exploration lane width (sets
//!   `XBOUND_EXPLORE_LANES`; results are bit-identical at any width);
//! * `-h`, `--help` — print the usage and the experiment ids, and exit.
//!
//! Bad input (an unknown option or experiment id, a missing or
//! non-numeric value) prints a one-line error and exits with status 2
//! before any experiment runs or the manifest is written.
//!
//! Each experiment prints its table and writes `results/<id>.txt`. See
//! DESIGN.md §4 for the experiment index and EXPERIMENTS.md for the
//! paper-vs-measured record.

use rand::rngs::StdRng;
use rand::SeedableRng;
use xbound_baselines::{design_tool, stressmark, GUARDBAND};
use xbound_bench::{emit, geomean, mw, npe, pct, Harness, Table, SEED};
use xbound_core::optimize::{optimize_program, OptimizeOptions};
use xbound_core::{Corner, SweepSpec, UlpSystem};
use xbound_logic::Lv;
use xbound_msp430::assemble;
use xbound_netlist::{CellKind, Netlist};
use xbound_obs::cli::Args;

/// The experiments `all` (and an empty id list) expands to, in run order.
const ALL: &[&str] = &[
    "tab1_1", "tab1_2", "fig1_5", "fig2_2", "fig2_3", "fig3_2", "fig3_3", "fig3_4", "fig3_5",
    "fig3_6", "fig4_1", "fig5_1", "fig5_2", "tab5_1", "tab5_2", "fig5_4", "fig5_5", "fig5_6",
    "tab6_1",
];

/// Experiments that run only when named.
const EXTRA: &[&str] = &["ablation", "ga_smoke"];

const USAGE: &str = "\
usage: experiments [OPTIONS] [all | ID...]

Regenerates the paper's tables and figures (all of them by default) into
the results directory and records the run in its manifest.json.

options:
  --profile-runs N     random input sets per profiling campaign
  --ga-pop N           stressmark GA population per generation
  --lanes N            concrete batch lane width
  --explore-lanes N    symbolic-exploration lane width
  -h, --help           print this help
";

fn main() {
    let mut ids: Vec<String> = Vec::new();
    let usage = format!("{USAGE}\nids: all {} {}\n", ALL.join(" "), EXTRA.join(" "));
    let mut args = Args::from_env("experiments", usage);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--profile-runs" => xbound_bench::set_profile_runs(args.number(&a)),
            "--ga-pop" => xbound_bench::set_ga_population(args.number(&a)),
            "--lanes" => std::env::set_var("XBOUND_LANES", args.number::<usize>(&a).to_string()),
            "--explore-lanes" => {
                std::env::set_var("XBOUND_EXPLORE_LANES", args.number::<usize>(&a).to_string())
            }
            other if other.starts_with('-') => args.fail(&format!("unknown option `{other}`")),
            id if id == "all" || ALL.contains(&id) || EXTRA.contains(&id) => ids.push(a),
            other => args.fail(&format!("unknown experiment id `{other}`")),
        }
    }
    if ids.is_empty() || ids.iter().any(|id| id == "all") {
        ids = ALL.iter().map(|id| id.to_string()).collect();
    }
    let mut h = Harness::new().expect("core builds");
    // Shared across fig5_1/fig5_2/tab5_1/tab5_2.
    let mut comparison: Option<ComparisonData> = None;
    for id in &ids {
        match id.as_str() {
            "tab1_1" => tab1_1(),
            "tab1_2" => tab1_2(),
            "fig1_5" => fig1_5(&mut h),
            "fig2_2" => fig2_2(&mut h),
            "fig2_3" => fig2_3(&mut h),
            "fig3_2" => fig3_2(),
            "fig3_3" => fig3_3(&mut h),
            "fig3_4" => fig3_4(&mut h),
            "fig3_5" => fig3_5(&mut h),
            "fig3_6" => fig3_6(&mut h),
            "fig4_1" => fig4_1(&mut h),
            "fig5_1" => {
                let data = comparison.get_or_insert_with(|| ComparisonData::collect(&mut h));
                fig5_1(data);
            }
            "fig5_2" => {
                let data = comparison.get_or_insert_with(|| ComparisonData::collect(&mut h));
                fig5_2(data);
            }
            "tab5_1" => {
                let data = comparison.get_or_insert_with(|| ComparisonData::collect(&mut h));
                tab5_1(data);
            }
            "tab5_2" => {
                let data = comparison.get_or_insert_with(|| ComparisonData::collect(&mut h));
                tab5_2(data);
            }
            "fig5_4" => fig5_4_5_6(&mut h, false),
            "fig5_5" => fig5_5(&mut h),
            "fig5_6" => fig5_4_5_6(&mut h, true),
            "tab6_1" => tab6_1(),
            "ablation" => ablation(&mut h),
            "ga_smoke" => ga_smoke(&mut h),
            other => unreachable!("experiment id `{other}` passed the command-line check"),
        }
    }
    write_manifest(&ids);
}

/// Writes `manifest.json` into the results directory (shared `jsonout`
/// writer): which experiments this run produced, with the population
/// knobs — so downstream tooling can tell a partial regeneration from a
/// full one.
fn write_manifest(ran: &[String]) {
    let mut w = xbound_core::jsonout::JsonWriter::pretty();
    w.begin_object();
    w.field_u64("profile_runs", xbound_bench::profile_runs() as u64);
    w.field_u64("ga_population", xbound_bench::ga_config().population as u64);
    w.key("experiments");
    w.begin_array();
    for id in ran {
        w.str_val(id);
    }
    w.end_array();
    w.end_object();
    let mut doc = w.finish();
    doc.push('\n');
    match xbound_core::outdirs::results_dir() {
        Ok(dir) => {
            let path = dir.join("manifest.json");
            if let Err(e) = std::fs::write(&path, doc) {
                xbound_obs::warn!("experiments", "could not write {}: {e}", path.display());
            }
        }
        Err(e) => xbound_obs::warn!("experiments", "could not create results dir: {e}"),
    }
}

fn tab1_1() {
    let mut t = Table::new(&["Battery", "Specific energy [J/g]", "Energy density [MJ/L]"]);
    for b in xbound_sizing::batteries::TABLE {
        t.row(&[
            b.name.to_string(),
            format!("{}", b.specific_energy_j_per_g),
            format!("{:.3}", b.energy_density_mj_per_l),
        ]);
    }
    emit(
        "tab1_1",
        "Battery energy densities (paper Table 1.1)",
        &t.render(),
    );
}

fn tab1_2() {
    let mut t = Table::new(&["Harvester", "Power density [uW/cm^2]"]);
    for hv in xbound_sizing::harvesters::TABLE {
        t.row(&[
            hv.name.to_string(),
            format!("{}", hv.power_density_uw_per_cm2),
        ]);
    }
    emit(
        "tab1_2",
        "Harvester power densities (paper Table 1.2)",
        &t.render(),
    );
}

/// Counts potentially-active nets per module at the peak cycle.
fn active_gates_at_peak(
    nl: &Netlist,
    analysis: &xbound_core::Analysis<'_>,
) -> Vec<(String, usize)> {
    let (sid, ci) = analysis.peak_power().peak_at;
    let seg = analysis.tree().segment(sid);
    let cur = &seg.frames[ci];
    let prev = if ci > 0 {
        seg.frames[ci - 1].clone()
    } else {
        analysis
            .tree()
            .boundary_prev(sid)
            .cloned()
            .unwrap_or_else(|| cur.clone())
    };
    let mut per_module = vec![0usize; nl.modules().len()];
    for g in nl.gates() {
        let o = g.output().index();
        let changed = prev.get(o) != cur.get(o) || cur.get(o) == Lv::X || prev.get(o) == Lv::X;
        if changed {
            per_module[g.module().index()] += 1;
        }
    }
    let mut out: Vec<(String, usize)> = nl
        .modules()
        .iter()
        .cloned()
        .zip(per_module)
        .filter(|(_, n)| *n > 0)
        .collect();
    out.sort_by_key(|b| std::cmp::Reverse(b.1));
    out
}

fn fig1_5(h: &mut Harness) {
    let mut body = String::new();
    let mut totals = Vec::new();
    for name in ["tHold", "PI"] {
        let bench = xbound_benchsuite::by_name(name).expect("exists");
        let nl = h.sys65().cpu().netlist().clone();
        let analysis = h.analysis(bench).expect("analyzes");
        let counts = active_gates_at_peak(&nl, analysis);
        let total: usize = counts.iter().map(|(_, n)| n).sum();
        totals.push((name, total));
        body.push_str(&format!("{name}: {total} active gates at the peak cycle\n"));
        for (m, n) in counts {
            body.push_str(&format!("    {m:<14} {n}\n"));
        }
    }
    body.push_str(&format!(
        "\npaper: tHold 452 vs PI 743 active gates; shape check: PI > tHold -> {}\n",
        if totals[1].1 > totals[0].1 {
            "OK"
        } else {
            "MISMATCH"
        }
    ));
    emit(
        "fig1_5",
        "Active gates at the peak cycle, tHold vs PI (paper Fig 5/1.5)",
        &body,
    );
}

/// Chapter-2-style measurement table for a system: per-benchmark peak power
/// and NPE with input-induced ranges.
fn measurement_table(system: &UlpSystem, names: &[&str], salt: u64) -> Table {
    let mut t = Table::new(&[
        "benchmark",
        "peak min [mW]",
        "peak max [mW]",
        "spread",
        "NPE min [J/cyc]",
        "NPE max [J/cyc]",
    ]);
    // Profiling campaigns are independent per benchmark: fan out, render in
    // suite order.
    let rows = xbound_core::par::par_map_labeled(
        0,
        names.to_vec(),
        |_, name| name.to_string(),
        |_, name| {
            let bench = xbound_benchsuite::by_name(name).expect("exists");
            let prof = Harness::campaign(system, bench, salt).expect("profiles");
            [
                name.to_string(),
                mw(prof.min_peak_mw),
                mw(prof.observed_peak_mw),
                pct((prof.observed_peak_mw / prof.min_peak_mw - 1.0) * 100.0),
                npe(prof.min_npe),
                npe(prof.observed_npe),
            ]
        },
    );
    for row in &rows {
        t.row(row);
    }
    t
}

const CH2_BENCHES: [&str; 8] = [
    "autoCorr",
    "binSearch",
    "FFT",
    "intFilt",
    "mult",
    "PI",
    "tea8",
    "tHold",
];

fn fig2_2(h: &mut Harness) {
    let sys = h.sys130().expect("130nm system").clone();
    let t = measurement_table(&sys, &CH2_BENCHES, 2);
    let rated = design_tool::rated_chip_mw(&sys);
    let body = format!(
        "{}\nrated chip power: {} mW (paper: 4.8 mW for MSP430F1610)\n\
         substitution: simulated 130nm-class core @ 8 MHz stands in for the\n\
         oscilloscope measurement of the MSP430F1610 (see DESIGN.md).\n",
        t.render(),
        mw(rated)
    );
    emit(
        "fig2_2",
        "Measured peak power / NPE across inputs, MSP430F1610-class (paper Fig 7)",
        &body,
    );
}

fn fig2_3(h: &mut Harness) {
    let sys = h.sys130().expect("130nm system").clone();
    let bench = xbound_benchsuite::by_name("mult").expect("exists");
    let program = bench.program().expect("assembles");
    let mut rng = StdRng::seed_from_u64(SEED);
    let inputs = bench.gen_inputs(&mut rng);
    let (_, trace) = sys
        .profile_concrete(&program, &inputs, bench.max_concrete_cycles())
        .expect("runs");
    let series = trace.per_cycle_mw();
    let mut body = format!(
        "mult on the 130nm-class system @ 8 MHz: {} cycles\n\
         peak {} mW at cycle {}, average {} mW (avg/peak = {:.2})\n\nsparkline (16-cycle buckets, max per bucket):\n",
        trace.cycles(),
        mw(trace.peak_mw()),
        trace.peak_cycle(),
        mw(trace.avg_mw()),
        trace.avg_mw() / trace.peak_mw()
    );
    let glyphs = [' ', '.', ':', '-', '=', '+', '*', '#'];
    for chunk in series.chunks(16) {
        let m = chunk.iter().copied().fold(0.0, f64::max);
        let idx = ((m / trace.peak_mw()) * 7.0).round() as usize;
        body.push(glyphs[idx.min(7)]);
    }
    body.push('\n');
    body.push_str("paper: instantaneous power is far below peak most of the time.\n");
    emit(
        "fig2_3",
        "Instantaneous power of mult, MSP430F1610-class (paper Fig 8)",
        &body,
    );
}

fn fig3_2() {
    // The paper's 3-gate toy example: overlapping Xs resolved to maximize
    // even and odd cycles respectively.
    let mut nl = Netlist::new("toy");
    let stim = nl.add_input("stim");
    let g1 = nl.add_net("g1");
    let g2 = nl.add_net("g2");
    let g3 = nl.add_net("g3");
    nl.add_gate(CellKind::Buf, "u1", &[stim], g1).expect("gate");
    nl.add_gate(CellKind::Inv, "u2", &[stim], g2).expect("gate");
    nl.add_gate(CellKind::Buf, "u3", &[g1], g3).expect("gate");
    let _ = (g2, g3);
    let body = "The even/odd X-assignment is exercised by unit tests\n\
                (xbound-core peak_power tests) on the paper's 3-gate pattern;\n\
                the production path runs it on every benchmark (fig3_3).\n\
                Rule check:\n  (X,X) -> cell's max-energy transition\n  (v,X) -> !v\n  (X,v) -> !v in c-1\n";
    emit(
        "fig3_2",
        "Even/odd X-assignment example (paper Fig 10/3.2)",
        body,
    );
}

fn fig3_3(h: &mut Harness) {
    let mut t = Table::new(&[
        "benchmark",
        "cycles",
        "bound min [mW]",
        "bound mean [mW]",
        "bound peak [mW]",
        "peak cycle",
    ]);
    for bench in xbound_benchsuite::all() {
        let analysis = h.analysis(bench).expect("analyzes");
        let env = analysis.peak_power().envelope_mw(analysis.tree());
        let n = env.len().max(1);
        let mean = env.iter().sum::<f64>() / n as f64;
        let min = env.iter().copied().fold(f64::INFINITY, f64::min);
        t.row(&[
            bench.name().to_string(),
            format!("{n}"),
            mw(min),
            mw(mean),
            mw(analysis.peak_power().peak_mw),
            format!("{}", analysis.peak_power().peak_cycle),
        ]);
    }
    emit(
        "fig3_3",
        "Per-cycle X-based peak power traces (paper Fig 11): per-benchmark stats",
        &t.render(),
    );
}

fn fig3_4(h: &mut Harness) {
    let bench = xbound_benchsuite::by_name("mult").expect("exists");
    let program = bench.program().expect("assembles");
    let sys = h.sys65().clone();
    let analysis = h.analysis(bench).expect("analyzes");
    let mut body = String::new();
    // Low-activity and high-activity input sets — one batched gate pass
    // simulates both concrete runs.
    let labels = [
        "low-activity (all zeros)",
        "high-activity (alternating max)",
    ];
    let input_sets: Vec<Vec<u16>> = vec![
        vec![0u16; 8],
        vec![0xFFFF, 0xFFFF, 0, 0, 0xFFFF, 0xFFFF, 0, 0],
    ];
    let runs = sys
        .profile_concrete_batch(&program, &input_sets, bench.max_concrete_cycles())
        .expect("runs");
    for (label, (frames, _)) in labels.iter().zip(&runs) {
        let sup = analysis.check_superset(frames);
        body.push_str(&format!(
            "{label}: common {} nets, X-only {} nets, violations {}\n",
            sup.common,
            sup.x_only,
            sup.violations.len()
        ));
        assert!(sup.is_sound(), "superset property violated");
    }
    body.push_str("\nvalidation: no net toggles concretely without being marked by the\nX-based analysis (paper Fig 12) — the hard soundness invariant.\n");
    emit(
        "fig3_4",
        "Toggle-superset validation for mult (paper Fig 12)",
        &body,
    );
}

fn fig3_5(h: &mut Harness) {
    let bench = xbound_benchsuite::by_name("mult").expect("exists");
    let program = bench.program().expect("assembles");
    let sys = h.sys65().clone();
    let analysis = h.analysis(bench).expect("analyzes");
    let mut body = String::new();
    let mut rng = StdRng::seed_from_u64(SEED ^ 35);
    // Same RNG stream as per-trial profiling, one batched run for all
    // three trials.
    let input_sets: Vec<Vec<u16>> = (0..3).map(|_| bench.gen_inputs(&mut rng)).collect();
    let runs = sys
        .profile_concrete_batch(&program, &input_sets, bench.max_concrete_cycles())
        .expect("runs");
    for (trial, (frames, trace)) in runs.iter().enumerate() {
        let dom = analysis
            .check_dominance(frames, trace)
            .expect("path inside tree");
        body.push_str(&format!(
            "inputs {trial}: cycles {}, min margin {} mW, mean bound/measured {:.2}, violations {}\n",
            dom.cycles,
            mw(dom.min_margin_mw),
            dom.mean_ratio,
            dom.violations.len()
        ));
        assert!(dom.is_sound(), "dominance violated");
    }
    body.push_str("\nvalidation: the X-based trace upper-bounds every input-based power\ntrace cycle-by-cycle (paper Fig 13).\n");
    emit(
        "fig3_5",
        "Per-cycle power dominance for mult (paper Fig 13)",
        &body,
    );
}

fn fig3_6(h: &mut Harness) {
    let bench = xbound_benchsuite::by_name("mult").expect("exists");
    let analysis = h.analysis(bench).expect("analyzes");
    let cois = analysis.cycles_of_interest(2);
    let body = format!(
        "{}\nEach COI reports the in-flight instruction, the FSM phase, and the\nper-module power split that identifies the culprit module (paper Fig 14).\n",
        xbound_core::coi::format_report(&cois)
    );
    emit(
        "fig3_6",
        "Cycles of interest for mult (paper Fig 14)",
        &body,
    );
}

fn fig4_1(h: &mut Harness) {
    let names: Vec<&str> = xbound_benchsuite::all().iter().map(|b| b.name()).collect();
    let sys = h.sys65().clone();
    let t = measurement_table(&sys, &names, 41);
    emit(
        "fig4_1",
        "Peak power / NPE across inputs, openMSP430-class (paper Fig 15)",
        &t.render(),
    );
}

/// Data shared by the Fig 16/17 and Table 4/5 experiments.
struct ComparisonData {
    rows: Vec<BenchComparison>,
    stressmark_gb_peak: f64,
    stressmark_gb_npe: f64,
    design_tool_peak: f64,
    design_tool_npe: f64,
}

struct BenchComparison {
    name: &'static str,
    obs_min: f64,
    obs_max: f64,
    gb_input: f64,
    xbased: f64,
    obs_npe_max: f64,
    gb_input_npe: f64,
    xbased_npe: f64,
}

impl ComparisonData {
    fn collect(h: &mut Harness) -> ComparisonData {
        let sys = h.sys65().clone();
        let dt = design_tool::design_tool_rating(&sys);
        let mut rng = StdRng::seed_from_u64(SEED ^ 51);
        let sm = stressmark::evolve(
            &sys,
            stressmark::StressTarget::PeakPower,
            &xbound_bench::ga_config(),
            &mut rng,
        )
        .expect("GA runs");
        let sm_npe = {
            // Average-power stressmark for the energy comparison.
            let mut rng = StdRng::seed_from_u64(SEED ^ 52);
            let sma = stressmark::evolve(
                &sys,
                stressmark::StressTarget::AveragePower,
                &xbound_bench::ga_config(),
                &mut rng,
            )
            .expect("GA runs");
            sma.avg_mw * 1e-3 / sys.clock_hz() * GUARDBAND
        };
        // Profiling campaigns fan out across the pool; the cached X-based
        // analyses are then attached sequentially in suite order.
        let profs = xbound_core::par::par_map_labeled(
            0,
            xbound_benchsuite::all().iter().collect::<Vec<_>>(),
            |_, bench| bench.name().to_string(),
            |_, bench| Harness::campaign(&sys, bench, 51).expect("profiles"),
        );
        let mut rows = Vec::new();
        for (bench, prof) in xbound_benchsuite::all().iter().zip(profs) {
            let analysis = h.analysis(bench).expect("analyzes");
            rows.push(BenchComparison {
                name: bench.name(),
                obs_min: prof.min_peak_mw,
                obs_max: prof.observed_peak_mw,
                gb_input: prof.gb_peak_mw,
                xbased: analysis.peak_power().peak_mw,
                obs_npe_max: prof.observed_npe,
                gb_input_npe: prof.gb_npe,
                xbased_npe: analysis.peak_energy().npe_j_per_cycle,
            });
        }
        ComparisonData {
            rows,
            stressmark_gb_peak: sm.peak_mw * GUARDBAND,
            stressmark_gb_npe: sm_npe,
            design_tool_peak: dt.peak_mw,
            design_tool_npe: dt.npe_j_per_cycle,
        }
    }
}

fn fig5_1(data: &ComparisonData) {
    let mut t = Table::new(&[
        "benchmark",
        "input-based [mW]",
        "GB input [mW]",
        "X-based [mW]",
        "X vs GB-input",
        "sound",
    ]);
    for r in &data.rows {
        t.row(&[
            r.name.to_string(),
            format!("{}..{}", mw(r.obs_min), mw(r.obs_max)),
            mw(r.gb_input),
            mw(r.xbased),
            pct((r.xbased / r.gb_input - 1.0) * 100.0),
            (r.xbased >= r.obs_max - 1e-9).to_string(),
        ]);
    }
    let x_vs_gbin = geomean(data.rows.iter().map(|r| r.xbased / r.gb_input));
    let x_vs_stress = geomean(data.rows.iter().map(|r| r.xbased / data.stressmark_gb_peak));
    let x_vs_dt = geomean(data.rows.iter().map(|r| r.xbased / data.design_tool_peak));
    let body = format!(
        "{}\nGB stressmark: {} mW   design tool: {} mW\n\n\
         X-based vs GB input-based (geomean): {} (paper: -15%)\n\
         X-based vs GB stressmark  (geomean): {} (paper: -26%)\n\
         X-based vs design tool    (geomean): {} (paper: -27%)\n\
         soundness: X-based >= max observed input-based for every benchmark.\n\
         Deviations above GB-input are the multiplier-heavy / widened kernels;\n\
         see EXPERIMENTS.md for the conservatism discussion.\n",
        t.render(),
        mw(data.stressmark_gb_peak),
        mw(data.design_tool_peak),
        pct((x_vs_gbin - 1.0) * 100.0),
        pct((x_vs_stress - 1.0) * 100.0),
        pct((x_vs_dt - 1.0) * 100.0),
    );
    emit(
        "fig5_1",
        "Peak power: conventional techniques vs X-based (paper Fig 16)",
        &body,
    );
}

fn fig5_2(data: &ComparisonData) {
    let mut t = Table::new(&[
        "benchmark",
        "input NPE max",
        "GB input NPE",
        "X-based NPE",
        "X vs GB-input",
        "sound",
    ]);
    for r in &data.rows {
        t.row(&[
            r.name.to_string(),
            npe(r.obs_npe_max),
            npe(r.gb_input_npe),
            npe(r.xbased_npe),
            pct((r.xbased_npe / r.gb_input_npe - 1.0) * 100.0),
            (r.xbased_npe >= r.obs_npe_max - 1e-18).to_string(),
        ]);
    }
    let x_vs_gbin = geomean(data.rows.iter().map(|r| r.xbased_npe / r.gb_input_npe));
    let x_vs_stress = geomean(
        data.rows
            .iter()
            .map(|r| r.xbased_npe / data.stressmark_gb_npe),
    );
    let x_vs_dt = geomean(
        data.rows
            .iter()
            .map(|r| r.xbased_npe / data.design_tool_npe),
    );
    let body = format!(
        "{}\nGB stressmark NPE: {}   design tool NPE: {}\n\n\
         X-based vs GB input-based (geomean): {} (paper: -17%)\n\
         X-based vs GB stressmark  (geomean): {} (paper: -26%)\n\
         X-based vs design tool    (geomean): {} (paper: -47%)\n",
        t.render(),
        npe(data.stressmark_gb_npe),
        npe(data.design_tool_npe),
        pct((x_vs_gbin - 1.0) * 100.0),
        pct((x_vs_stress - 1.0) * 100.0),
        pct((x_vs_dt - 1.0) * 100.0),
    );
    emit(
        "fig5_2",
        "Normalized peak energy comparison (paper Fig 17)",
        &body,
    );
}

fn savings_table(title: &str, id: &str, pairs: Vec<(f64, f64)>, labels: [&str; 3]) {
    // pairs: per-baseline (baseline_value, xbased_value) averaged reduction.
    let mut t = Table::new(&["Baseline", "10%", "25%", "50%", "75%", "90%", "100%"]);
    for ((base, ours), label) in pairs.into_iter().zip(labels) {
        let row = xbound_sizing::savings::table_row(base, ours);
        let mut cells = vec![label.to_string()];
        cells.extend(row.iter().map(|v| format!("{v:.2}")));
        t.row(&cells);
    }
    emit(id, title, &t.render());
}

fn tab5_1(data: &ComparisonData) {
    // Average relative reduction vs each baseline (clamped at 0: a negative
    // entry means the X-based bound was the more conservative one).
    let gbin = geomean(data.rows.iter().map(|r| (r.xbased / r.gb_input).min(1.0)));
    let gbs = geomean(
        data.rows
            .iter()
            .map(|r| (r.xbased / data.stressmark_gb_peak).min(1.0)),
    );
    let dt = geomean(
        data.rows
            .iter()
            .map(|r| (r.xbased / data.design_tool_peak).min(1.0)),
    );
    savings_table(
        "Harvester-area reduction vs processor contribution (paper Table 4/5.1)",
        "tab5_1",
        vec![(1.0, gbin), (1.0, gbs), (1.0, dt)],
        ["GB-Input", "GB-Stress", "Design Tool"],
    );
}

fn tab5_2(data: &ComparisonData) {
    let gbin = geomean(
        data.rows
            .iter()
            .map(|r| (r.xbased_npe / r.gb_input_npe).min(1.0)),
    );
    let gbs = geomean(
        data.rows
            .iter()
            .map(|r| (r.xbased_npe / data.stressmark_gb_npe).min(1.0)),
    );
    let dt = geomean(
        data.rows
            .iter()
            .map(|r| (r.xbased_npe / data.design_tool_npe).min(1.0)),
    );
    savings_table(
        "Battery-volume reduction vs processor contribution (paper Table 5/5.2)",
        "tab5_2",
        vec![(1.0, gbin), (1.0, gbs), (1.0, dt)],
        ["GB-Input", "GB-Stress", "Design Tool"],
    );
}

fn fig5_4_5_6(h: &mut Harness, overheads: bool) {
    let sys = h.sys65().clone();
    let mut t = if overheads {
        Table::new(&[
            "benchmark",
            "perf degradation",
            "energy overhead",
            "accepted",
        ])
    } else {
        Table::new(&[
            "benchmark",
            "peak before [mW]",
            "peak after [mW]",
            "reduction",
            "dyn-range reduction",
            "accepted",
        ])
    };
    let mut reductions = Vec::new();
    // Draw every benchmark's inputs from the shared stream first (keeps the
    // published tables identical), then optimize benchmarks in parallel.
    let mut rng = StdRng::seed_from_u64(SEED ^ 54);
    let jobs: Vec<_> = xbound_benchsuite::all()
        .iter()
        .map(|bench| (bench, bench.gen_inputs(&mut rng)))
        .collect();
    let reports = xbound_core::par::par_map_labeled(
        0,
        jobs,
        |_, (bench, _)| bench.name().to_string(),
        |_, (bench, inputs)| {
            let opts = OptimizeOptions {
                scratch_reg: Some(14),
                iss_inputs: inputs,
                ..OptimizeOptions::default()
            };
            let config = Harness::explore_config(bench);
            optimize_program(&sys, bench.source(), config, bench.energy_rounds(), &opts)
                .expect("optimizer runs")
        },
    );
    for (bench, report) in xbound_benchsuite::all().iter().zip(&reports) {
        let accepted: Vec<&str> = report.accepted.iter().map(|k| k.name()).collect();
        let range_red = if report.original_dynamic_range_mw > 0.0 {
            (1.0 - report.optimized_dynamic_range_mw / report.original_dynamic_range_mw) * 100.0
        } else {
            0.0
        };
        reductions.push(report.peak_reduction_pct);
        if overheads {
            t.row(&[
                bench.name().to_string(),
                pct(report.performance_degradation_pct),
                pct(report.energy_overhead_pct),
                accepted.join(", "),
            ]);
        } else {
            t.row(&[
                bench.name().to_string(),
                mw(report.original_peak_mw),
                mw(report.optimized_peak_mw),
                pct(-report.peak_reduction_pct),
                pct(-range_red),
                accepted.join(", "),
            ]);
        }
    }
    let avg = reductions.iter().sum::<f64>() / reductions.len() as f64;
    let max = reductions.iter().copied().fold(0.0, f64::max);
    if overheads {
        emit(
            "fig5_6",
            "Performance / energy overhead of the optimizations (paper Fig 21)",
            &t.render(),
        );
    } else {
        let body = format!(
            "{}\naverage peak reduction {:.1}% (paper: 5%), max {:.1}% (paper: 10%)\n\
             (only transforms that reduce the X-based bound are accepted)\n",
            t.render(),
            avg,
            max
        );
        emit(
            "fig5_4",
            "Peak power reduction from OPT1/2/3 (paper Fig 19)",
            &body,
        );
    }
}

fn fig5_5(h: &mut Harness) {
    let sys = h.sys65().clone();
    let bench = xbound_benchsuite::by_name("mult").expect("exists");
    let opts = OptimizeOptions {
        scratch_reg: Some(14),
        iss_inputs: vec![1, 2, 3, 4, 5, 6, 7, 8],
        ..OptimizeOptions::default()
    };
    let report = optimize_program(
        &sys,
        bench.source(),
        Harness::explore_config(bench),
        bench.energy_rounds(),
        &opts,
    )
    .expect("optimizer runs");
    // Bound traces before and after.
    let before = h.analysis(bench).expect("analyzes");
    let after_prog = assemble(&report.optimized_source).expect("assembles");
    let after = xbound_core::CoAnalysis::new(&sys)
        .config(Harness::explore_config(bench))
        .energy_rounds(bench.energy_rounds())
        .run(&after_prog)
        .expect("analyzes");
    let be = before.peak_power().envelope_mw(before.tree());
    let ae = after.peak_power().envelope_mw(after.tree());
    let body = format!(
        "before: peak {} mW over {} cycles\nafter:  peak {} mW over {} cycles\n\
         accepted: {:?}\n\nenvelope (32-cycle buckets, before | after):\n{}\n",
        mw(before.peak_power().peak_mw),
        be.len(),
        mw(after.peak_power().peak_mw),
        ae.len(),
        report.accepted.iter().map(|k| k.name()).collect::<Vec<_>>(),
        {
            let mut s = String::new();
            let bucket = 32;
            let peak = before.peak_power().peak_mw;
            for i in 0..(be.len().max(ae.len()) / bucket + 1) {
                let bmax = be
                    .get((i * bucket).min(be.len())..((i + 1) * bucket).min(be.len()))
                    .unwrap_or(&[])
                    .iter()
                    .copied()
                    .fold(0.0, f64::max);
                let amax = ae
                    .get((i * bucket).min(ae.len())..((i + 1) * bucket).min(ae.len()))
                    .unwrap_or(&[])
                    .iter()
                    .copied()
                    .fold(0.0, f64::max);
                s.push_str(&format!(
                    "{:5} {:<26} | {:<26}\n",
                    i * bucket,
                    "#".repeat((bmax / peak * 25.0) as usize),
                    "#".repeat((amax / peak * 25.0) as usize)
                ));
            }
            s
        }
    );
    emit(
        "fig5_5",
        "mult bound trace before/after optimization (paper Fig 20)",
        &body,
    );
}

/// Ablation: the structural-stability refinement of Algorithm 2 (DESIGN.md
/// design choice). `off` = the paper's literal maximizing assignment;
/// `on` = held registers / unchanged cones cannot toggle.
fn ablation(h: &mut Harness) {
    let sys = h.sys65().clone();
    let mut t = Table::new(&[
        "benchmark",
        "bound, stability off [mW]",
        "bound, stability on [mW]",
        "pessimism removed",
    ]);
    for name in ["mult", "tea8", "tHold", "PI", "intAVG", "binSearch"] {
        let bench = xbound_benchsuite::by_name(name).expect("exists");
        let program = bench.program().expect("assembles");
        let explorer =
            xbound_core::SymbolicExplorer::new(sys.cpu(), Harness::explore_config(bench));
        let (tree, _) = explorer.explore(&program).expect("explores");
        let spec = SweepSpec::new(vec![Corner::nominal(sys.library().clone(), sys.clock_hz())]);
        let peak_mw = |use_stability| {
            let nl = sys.cpu().netlist();
            let rounds = bench.energy_rounds();
            xbound_core::bound_tree(nl, &tree, &spec, use_stability, rounds, 1, |_, b| {
                b.peak.peak_mw
            })[0]
        };
        let (naive, refined) = (peak_mw(false), peak_mw(true));
        t.row(&[
            name.to_string(),
            mw(naive),
            mw(refined),
            pct(-(1.0 - refined / naive) * 100.0),
        ]);
    }
    let body = format!(
        "{}
Both bounds are sound; stability removes the structural pessimism of
charging held registers (e.g. the idle multiplier array) every cycle.
",
        t.render()
    );
    emit(
        "ablation",
        "Design-choice ablation: Algorithm 2 with/without stability analysis",
        &body,
    );
}

/// CI smoke for the batched stressmark path: a tiny GA whose population
/// is scored one lane group at a time, plus a batched-validation pass on
/// the champion's measured trace shape.
fn ga_smoke(h: &mut Harness) {
    let sys = h.sys65().clone();
    let mut rng = StdRng::seed_from_u64(SEED ^ 99);
    // Population follows --ga-pop; everything else is shrunk for smoke.
    let cfg = stressmark::GaConfig {
        generations: 2,
        genome_len: 8,
        eval_cycles: 150,
        ..xbound_bench::ga_config()
    };
    let result = stressmark::evolve(&sys, stressmark::StressTarget::PeakPower, &cfg, &mut rng)
        .expect("GA runs");
    assert!(result.peak_mw > 0.0 && result.avg_mw > 0.0);
    assert_eq!(result.history.len(), cfg.generations);
    let body = format!(
        "batched GA: population {} × {} generations, {} eval cycles/individual\n\
         champion peak {} mW, avg {} mW\nhistory: {:?}\n",
        cfg.population,
        cfg.generations,
        cfg.eval_cycles,
        mw(result.peak_mw),
        mw(result.avg_mw),
        result
            .history
            .iter()
            .map(|v| format!("{v:.3}"))
            .collect::<Vec<_>>(),
    );
    emit(
        "ga_smoke",
        "Stressmark GA smoke on the batched concrete engine",
        &body,
    );
}

fn tab6_1() {
    let mut t = Table::new(&["Processor", "Branch predictor", "Cache"]);
    for p in xbound_sizing::landscape::TABLE {
        t.row(&[
            p.name.to_string(),
            if p.branch_predictor { "yes" } else { "no" }.to_string(),
            if p.cache { "yes" } else { "no" }.to_string(),
        ]);
    }
    let body = format!(
        "{}\n{}% of these processors are fully deterministic — the co-analysis\napplies directly (paper Ch. 6).\n",
        t.render(),
        (xbound_sizing::landscape::deterministic_fraction() * 100.0) as u32
    );
    emit(
        "tab6_1",
        "Microarchitectural features in embedded processors (paper Table 6.1)",
        &body,
    );
}
