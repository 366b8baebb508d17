//! Estimators and the closed loop shared by every workload.

use crate::report::Report;
use std::time::{Duration, Instant};

/// Fewest times a run builds its workload's set-up from scratch;
/// `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// A run keeps rebuilding its set-up until the builds have taken this
/// long, so a set-up of a few milliseconds gets a median over many.
pub const SETUP_SPAN: Duration = Duration::from_millis(1000);

/// Most set-up builds in one run.
pub const MAX_SETUP_REPS: usize = 200;

/// The `q`-quantile of `samples` by nearest rank, reported only when at
/// least ten samples lie beyond it. Fewer would let one slow op set it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
    (sorted.len() - 1 - rank >= 10).then_some(sorted[rank])
}

/// The median of `samples` (the mean of the middle two for an even
/// count); `0` when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`), megabytes; `0` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Set-up durations, seconds: the first counted from process start, the
/// rest from their own start.
#[derive(Debug)]
pub struct SetupClock {
    start: Instant,
    times: Vec<f64>,
    once: bool,
}

impl SetupClock {
    /// Starts counting at process start. A traced run reports no
    /// `setup_s`, so it sets up once.
    pub fn new(process_start: Instant, trace: bool) -> SetupClock {
        SetupClock {
            start: process_start,
            times: Vec::new(),
            once: trace,
        }
    }

    /// Ends one set-up and starts the next. Returns `true` when the
    /// finished set-up is the last one, which the run goes on to use:
    /// after [`SETUP_REPS`] builds that together took [`SETUP_SPAN`], or
    /// after [`MAX_SETUP_REPS`].
    pub fn lap(&mut self) -> bool {
        self.times.push(self.start.elapsed().as_secs_f64());
        self.start = Instant::now();
        let spent: f64 = self.times.iter().sum();
        self.once
            || (self.times.len() >= SETUP_REPS && spent >= SETUP_SPAN.as_secs_f64())
            || self.times.len() >= MAX_SETUP_REPS
    }

    /// Set-ups built.
    pub fn reps(&self) -> usize {
        self.times.len()
    }

    /// Median set-up time, seconds.
    pub fn median_s(&self) -> f64 {
        median(&self.times)
    }
}

/// Outcome of one op of a closed loop.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Time the op was in flight.
    pub latency: Duration,
    /// Whether its output checked out.
    pub ok: bool,
}

/// Latencies of a closed-loop run.
#[derive(Debug, Default)]
pub struct Samples {
    /// Ops per pass: op `i` is at position `i % pass_len` of its pass.
    pub pass_len: usize,
    /// Op latencies, milliseconds, in op order.
    pub latencies_ms: Vec<f64>,
    /// Ops whose output did not check out.
    pub failed: u64,
}

/// Runs a closed loop with one op in flight: whole passes of `pass_len`
/// ops, op `i` of the whole sequence being `op(i)`, until the pass
/// boundary nearest to `seconds`, or until `max_ops` ops ran.
pub fn closed_loop(
    seconds: u64,
    pass_len: usize,
    max_ops: usize,
    mut op: impl FnMut(usize) -> Op,
) -> Samples {
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    let mut s = Samples {
        pass_len,
        ..Samples::default()
    };
    while s.latencies_ms.len() + pass_len <= max_ops {
        let pass_start = Instant::now();
        for _ in 0..pass_len {
            let o = op(s.latencies_ms.len());
            s.latencies_ms.push(ms(o.latency));
            s.failed += u64::from(!o.ok);
        }
        if start.elapsed() + pass_start.elapsed() / 2 >= budget {
            break;
        }
    }
    s
}

impl Samples {
    /// The median pass: for each position in the pass, the median latency
    /// at that position, milliseconds. A slow spell of the host moves one
    /// sample per position, not the estimate; and each position keeps its
    /// own program, so the mix of sizes in a pass cannot shift it.
    pub fn median_pass(&self) -> Vec<f64> {
        (0..self.pass_len)
            .map(|k| {
                let at_k: Vec<f64> = self
                    .latencies_ms
                    .iter()
                    .skip(k)
                    .step_by(self.pass_len)
                    .copied()
                    .collect();
                median(&at_k)
            })
            .collect()
    }

    /// The end-to-end metrics every workload reports: `ops_per_s` is the
    /// pass length over the median pass's total, and `op_p50_ms` the
    /// median of the median pass's latencies.
    pub fn report(self, setup: &SetupClock) -> Report {
        let n = self.latencies_ms.len();
        let pass = self.median_pass();
        let mut r = Report {
            attempted: n as u64,
            failed: self.failed,
            ..Report::default()
        };
        r.set("setup_s", setup.median_s());
        r.set(
            "ops_per_s",
            pass.len() as f64 * 1e3 / pass.iter().sum::<f64>(),
        );
        r.set("op_p50_ms", median(&pass));
        r.notes.push(format!(
            "samples: {n} ops in {} passes of {}; {} set-ups",
            n / self.pass_len.max(1),
            self.pass_len,
            setup.reps()
        ));
        // The tail is shown, not gated: only edit-serve's ops come from one
        // continuous distribution, and only there does a run hold the 100
        // ops a p90 with ten samples beyond it needs.
        r.notes.push(match percentile(&self.latencies_ms, 0.9) {
            Some(p90) => format!("tail: op_p90_ms {p90} over {n} ops"),
            None => format!("tail: no op_p90_ms, {n} ops leave fewer than 10 beyond it"),
        });
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
        assert_eq!(percentile(&hundred, 0.5), Some(50.0));
        let ninety_nine = &hundred[..99];
        assert_eq!(percentile(ninety_nine, 0.9), None);
        assert_eq!(percentile(ninety_nine, 0.5), Some(50.0));
        assert_eq!(percentile(&hundred[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&hundred[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let a = percentile(&v, 0.9);
        v.sort_by(f64::total_cmp);
        assert_eq!(a, percentile(&v, 0.9));
        assert_eq!(a, Some(179.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn closed_loop_runs_whole_passes_up_to_the_cap() {
        let mut seen = Vec::new();
        let s = closed_loop(60, 4, 10, |i| {
            seen.push(i);
            Op {
                latency: Duration::from_micros(10),
                ok: i != 5,
            }
        });
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
        assert_eq!(s.latencies_ms.len(), 8);
        assert_eq!(s.failed, 1);
        let one = closed_loop(0, 4, 100, |_| Op {
            latency: Duration::from_micros(10),
            ok: true,
        });
        assert_eq!(
            one.latencies_ms.len(),
            4,
            "a spent budget still ends a whole pass"
        );
    }

    #[test]
    fn metrics_come_from_the_median_pass() {
        let s = Samples {
            pass_len: 3,
            latencies_ms: vec![10.0, 30.0, 5.0, 12.0, 500.0, 6.0, 11.0, 31.0, 4.0],
            failed: 0,
        };
        assert_eq!(s.median_pass(), vec![11.0, 31.0, 5.0]);
        let r = s.report(&SetupClock::new(Instant::now(), true));
        assert_eq!(r.get("ops_per_s"), Some(3.0 * 1e3 / 47.0));
        assert_eq!(r.get("op_p50_ms"), Some(11.0));
        assert_eq!(r.attempted, 9);
    }
}
