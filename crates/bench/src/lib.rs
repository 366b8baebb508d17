//! Shared infrastructure for the experiment harness.
//!
//! The `experiments` binary regenerates every table and figure of the
//! paper's evaluation (see DESIGN.md §4 for the experiment index). This
//! library holds the pieces the experiments share: a lazily-built pair of
//! systems (the 65 nm "openMSP430-class" target and the 130 nm
//! "MSP430F1610-class" target of Chapter 2), cached X-based analyses, the
//! profiling campaign used by the input-based baselines, and text-table
//! rendering.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use xbound_baselines::profiling::{profile, ProfilingResult, RunStat};
use xbound_baselines::stressmark::GaConfig;
use xbound_benchsuite::Benchmark;
use xbound_core::{Analysis, AnalysisError, CoAnalysis, ExploreConfig, UlpSystem};

/// Command-line plumbing shared by the front-end binaries
/// (`suite_summary`, `experiments`, `incremental_replay`): bad input
/// prints one stderr line and exits with status 2 — never a panic, and
/// before any analysis runs or any file is written.
pub mod cli {
    /// The process arguments (program name skipped) of one front end.
    #[derive(Debug)]
    pub struct Args {
        tool: &'static str,
        rest: std::env::Args,
    }

    impl Args {
        /// The arguments of this process; `tool` names the front end in
        /// its error lines.
        pub fn from_env(tool: &'static str) -> Args {
            let mut rest = std::env::args();
            rest.next();
            Args { tool, rest }
        }

        /// Prints `msg` as a one-line error and exits with status 2 (bad
        /// command line).
        pub fn fail(&self, msg: &str) -> ! {
            xbound_obs::error!(self.tool, "{msg} (see --help)");
            std::process::exit(2);
        }

        /// The value following `flag`; fails when the command line ends.
        pub fn value(&mut self, flag: &str) -> String {
            match self.rest.next() {
                Some(v) => v,
                None => self.fail(&format!("{flag} needs a value")),
            }
        }

        /// The numeric value following `flag`; fails when it is missing
        /// or not a non-negative integer.
        pub fn number(&mut self, flag: &str) -> usize {
            let v = self.value(flag);
            v.parse()
                .unwrap_or_else(|_| self.fail(&format!("bad value `{v}` for {flag}")))
        }
    }

    impl Iterator for Args {
        type Item = String;

        fn next(&mut self) -> Option<String> {
            self.rest.next()
        }
    }
}

/// Seed for every randomized experiment (reproducible runs).
pub const SEED: u64 = 0xA5F0_2017;

/// Default number of random input sets per profiling campaign.
pub const PROFILE_RUNS: usize = 8;

static PROFILE_RUNS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);
static GA_POPULATION_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Number of random input sets per profiling campaign
/// ([`PROFILE_RUNS`] unless overridden by [`set_profile_runs`], e.g. the
/// `experiments --profile-runs N` flag). The batched concrete engine
/// makes large populations cheap: lane groups share one gate pass.
pub fn profile_runs() -> usize {
    match PROFILE_RUNS_OVERRIDE.load(Ordering::Relaxed) {
        0 => PROFILE_RUNS,
        n => n,
    }
}

/// Overrides the profiling population size for this process (0 restores
/// the default).
pub fn set_profile_runs(n: usize) {
    PROFILE_RUNS_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The stressmark GA configuration ([`GaConfig::default`] unless the
/// population was overridden by [`set_ga_population`], e.g. the
/// `experiments --ga-pop N` flag).
pub fn ga_config() -> GaConfig {
    let mut cfg = GaConfig::default();
    if let n @ 1.. = GA_POPULATION_OVERRIDE.load(Ordering::Relaxed) {
        cfg.population = n;
        cfg.elitism = cfg.elitism.min(n.saturating_sub(1)).max(1);
    }
    cfg
}

/// Overrides the stressmark GA population size for this process (0
/// restores the default).
pub fn set_ga_population(n: usize) {
    GA_POPULATION_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The experiment harness context.
pub struct Harness {
    sys65: UlpSystem,
    sys130: Option<UlpSystem>,
    analyses: HashMap<&'static str, Analysis<'static>>,
    /// Subtree memo for incremental re-analysis, resolved from
    /// `XBOUND_MEMO` (the `experiments --incremental` flag sets that
    /// variable). `None` runs every analysis cold; results are
    /// byte-identical either way.
    memo: Option<std::sync::Arc<xbound_core::memo::SubtreeMemo>>,
}

impl Harness {
    /// Builds the 65 nm system (the 130 nm variant is built on demand).
    ///
    /// # Errors
    ///
    /// Propagates core-construction errors.
    pub fn new() -> Result<Harness, AnalysisError> {
        Ok(Harness {
            sys65: UlpSystem::openmsp430_class()?,
            sys130: None,
            analyses: HashMap::new(),
            memo: xbound_core::memo::from_env(false),
        })
    }

    /// The openMSP430-class system (65 nm, 100 MHz).
    pub fn sys65(&self) -> &UlpSystem {
        &self.sys65
    }

    /// The MSP430F1610-class system (130 nm, 8 MHz), built on first use.
    ///
    /// # Errors
    ///
    /// Propagates core-construction errors.
    pub fn sys130(&mut self) -> Result<&UlpSystem, AnalysisError> {
        if self.sys130.is_none() {
            self.sys130 = Some(UlpSystem::msp430f1610_class()?);
        }
        Ok(self.sys130.as_ref().expect("just built"))
    }

    /// The exploration configuration for a benchmark (the shared suite
    /// config + the benchmark's widening knob — identical to what
    /// `suite_summary` and the co-analysis service use, which keeps the
    /// drivers byte-comparable).
    pub fn explore_config(bench: &Benchmark) -> ExploreConfig {
        ExploreConfig {
            widen_threshold: bench.widen_threshold(),
            ..ExploreConfig::suite_default()
        }
    }

    /// Runs (and caches) the X-based co-analysis of a benchmark on the
    /// 65 nm system.
    ///
    /// # Errors
    ///
    /// Propagates analysis errors.
    pub fn analysis(
        &mut self,
        bench: &'static Benchmark,
    ) -> Result<&Analysis<'static>, AnalysisError> {
        if !self.analyses.contains_key(bench.name()) {
            let program = bench.program().expect("benchmark assembles");
            // SAFETY-free lifetime workaround: analyses borrow the system;
            // we store them alongside it by leaking a clone of the system.
            // The harness is a process-lifetime singleton in practice.
            let sys: &'static UlpSystem = Box::leak(Box::new(self.sys65.clone()));
            let analysis = CoAnalysis::new(sys)
                .config(Self::explore_config(bench))
                .energy_rounds(bench.energy_rounds())
                .memo(self.memo.clone())
                .run(&program)?;
            self.analyses.insert(bench.name(), analysis);
        }
        Ok(&self.analyses[bench.name()])
    }

    /// Runs the profiling campaign (random + extremal inputs) for a
    /// benchmark on a system.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn campaign(
        system: &UlpSystem,
        bench: &Benchmark,
        seed_salt: u64,
    ) -> Result<ProfilingResult, AnalysisError> {
        let mut rng = StdRng::seed_from_u64(SEED ^ seed_salt);
        let mut result = profile(system, bench, profile_runs(), &mut rng)?;
        // Extremal inputs join the campaign (legitimately part of choosing
        // profiling inputs; raises the observed peak). They batch into
        // lane groups like the random population above.
        let program = bench.program().expect("assembles");
        let stress_sets = bench.stress_inputs();
        let stress_runs = system.profile_concrete_population(
            &program,
            &stress_sets,
            bench.max_concrete_cycles(),
            0,
            1,
        )?;
        for (inputs, (_, trace)) in stress_sets.into_iter().zip(stress_runs) {
            let stat = RunStat {
                inputs,
                peak_mw: trace.peak_mw(),
                avg_mw: trace.avg_mw(),
                cycles: trace.cycles() as u64,
                npe_j_per_cycle: trace.energy_per_cycle_j(),
            };
            result.observed_peak_mw = result.observed_peak_mw.max(stat.peak_mw);
            result.min_peak_mw = result.min_peak_mw.min(stat.peak_mw);
            result.observed_npe = result.observed_npe.max(stat.npe_j_per_cycle);
            result.min_npe = result.min_npe.min(stat.npe_j_per_cycle);
            result.runs.push(stat);
        }
        result.gb_peak_mw = result.observed_peak_mw * xbound_baselines::GUARDBAND;
        result.gb_npe = result.observed_npe * xbound_baselines::GUARDBAND;
        Ok(result)
    }
}

/// A simple fixed-width text table.
#[derive(Debug, Default, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "table arity");
        self.rows.push(cells.to_vec());
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut width = vec![0usize; ncols];
        for c in 0..ncols {
            width[c] = self.header[c].len();
            for r in &self.rows {
                width[c] = width[c].max(r[c].len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (c, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:<w$}  ", cell, w = width[c]);
            }
            out.push('\n');
        };
        line(&self.header, &mut out);
        let total: usize = width.iter().sum::<usize>() + 2 * ncols;
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for r in &self.rows {
            line(r, &mut out);
        }
        out
    }
}

/// Writes an experiment result under the results directory
/// ([`xbound_core::outdirs::results_dir`]: `XBOUND_RESULTS_DIR`, default
/// `results/`, created if missing) and echoes it to stdout. Failures to
/// persist are reported on stderr instead of silently dropping the file.
pub fn emit(id: &str, title: &str, body: &str) {
    let text = format!("== {id}: {title} ==\n{body}\n");
    println!("{text}");
    match xbound_core::outdirs::results_dir() {
        Ok(dir) => {
            let path = dir.join(format!("{id}.txt"));
            if let Err(e) = std::fs::write(&path, &text) {
                xbound_obs::warn!("experiments", "could not write {}: {e}", path.display());
            }
        }
        Err(e) => xbound_obs::warn!("experiments", "could not create results dir: {e}"),
    }
}

/// Formats milliwatts with 4 decimals.
pub fn mw(v: f64) -> String {
    format!("{v:.4}")
}

/// Formats a J/cycle quantity in scientific notation.
pub fn npe(v: f64) -> String {
    format!("{v:.3e}")
}

/// Formats a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{v:+.1}%")
}

/// Geometric-mean helper for ratio summaries.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".to_string(), "1".to_string()]);
        t.row(&["longer".to_string(), "2".to_string()]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn geomean_of_ones_is_one() {
        assert!((geomean([1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
