//! Spans recorded from outside the program, around its public calls.
//!
//! Each traced op is one span; each public call inside it is a child
//! span. Spans stay in memory and are written out when the run ends. A
//! span's self time is its duration minus its children's.

use crate::report::Report;
use crate::stats::{median, ms};
use std::time::{Duration, Instant};
use xbound_core::jsonout::JsonWriter;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, or `op` for an op span.
    pub name: &'static str,
    /// The op this span belongs to.
    pub op: u64,
    /// Index of the enclosing span, `None` for an op span.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was made.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; otherwise only runs the calls, so the same
/// staged code serves as the untraced reference.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open_op: Option<usize>,
    ops: u64,
}

impl Tracer {
    /// A tracer that records spans.
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.enabled
    }

    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open_op: None,
            ops: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs one op under an op span and returns its result and how long
    /// it took.
    pub fn op<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> (T, Duration) {
        let t0 = Instant::now();
        if !self.enabled {
            let r = f(self);
            return (r, t0.elapsed());
        }
        let id = self.ops;
        self.ops += 1;
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: "op",
            op: id,
            parent: None,
            start_ns,
            end_ns: start_ns,
        });
        self.open_op = Some(index);
        let r = f(self);
        self.open_op = None;
        self.spans[index].end_ns = self.now_ns();
        (r, t0.elapsed())
    }

    /// Runs one public call under a span named `name`, a child of the
    /// open op.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        let parent = self.open_op;
        self.spans.push(Span {
            name,
            op: parent.map_or(0, |p| self.spans[p].op),
            parent,
            start_ns,
            end_ns,
        });
        r
    }

    /// Ops recorded.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Self time of the spans named `name`, milliseconds, summed over
    /// the run.
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.duration_ns().saturating_sub(c) as f64 / 1e6)
            .sum()
    }

    /// [`Tracer::self_ms`] per recorded op.
    pub fn per_op_ms(&self, name: &str) -> f64 {
        self.self_ms(name) / self.ops.max(1) as f64
    }

    /// Share of op time that leaf spans cover.
    pub fn coverage(&self) -> f64 {
        let op_ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum();
        let leaf_ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some())
            .map(Span::duration_ns)
            .sum();
        if op_ns == 0 {
            0.0
        } else {
            leaf_ns as f64 / op_ns as f64
        }
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::compact();
        w.begin_array();
        for s in &self.spans {
            w.begin_object();
            w.field_str("name", s.name);
            w.field_u64("op", s.op);
            match s.parent {
                Some(p) => w.field_u64("parent", p as u64),
                None => w.field_raw("parent", "null"),
            }
            w.field_u64("start_ns", s.start_ns);
            w.field_u64("end_ns", s.end_ns);
            w.end_object();
        }
        w.end_array();
        w.finish()
    }
}

/// A traced run: the recorded spans, each op's `(traced, untraced)`
/// time in milliseconds, and how many ops and passes ran and failed.
#[derive(Debug)]
pub struct TracedRun {
    /// The recording tracer.
    pub tracer: Tracer,
    /// Per op: traced and untraced milliseconds.
    pub pairs: Vec<(f64, f64)>,
    /// Passes run.
    pub passes: u64,
    /// Ops run (each twice).
    pub attempted: u64,
    /// Ops whose output did not check out, traced or not.
    pub failed: u64,
}

impl TracedRun {
    /// A run with nothing recorded yet.
    pub fn new() -> TracedRun {
        TracedRun {
            tracer: Tracer::on(),
            pairs: Vec::new(),
            passes: 0,
            attempted: 0,
            failed: 0,
        }
    }

    /// Runs op `k` twice through the same staged code, `op(k, tracer)`,
    /// first with recording off and then on; `op` returns whether its
    /// output checked out.
    pub fn twice(&mut self, k: usize, op: &mut impl FnMut(usize, &mut Tracer) -> bool) {
        let (plain, t_plain) = Tracer::off().op(|t| op(k, t));
        let (traced, t_traced) = self.tracer.op(|t| op(k, t));
        self.attempted += 1;
        self.failed += u64::from(!(plain && traced));
        self.pairs.push((ms(t_traced), ms(t_plain)));
    }

    /// The run's op counts and tracing figures: leaf coverage of traced
    /// op time, the median per-op excess of traced over untraced time,
    /// both medians, and the spans.
    pub fn report(&self) -> Report {
        let ratios: Vec<f64> = self.pairs.iter().map(|(a, b)| a / b - 1.0).collect();
        let traced: Vec<f64> = self.pairs.iter().map(|p| p.0).collect();
        let untraced: Vec<f64> = self.pairs.iter().map(|p| p.1).collect();
        let mut r = Report {
            attempted: self.attempted,
            failed: self.failed,
            ..Report::default()
        };
        r.set("trace.coverage", self.tracer.coverage());
        r.set("trace.overhead_pct", median(&ratios) * 100.0);
        r.set("trace.op_ms", median(&traced));
        r.set("trace.untraced_op_ms", median(&untraced));
        r.set("trace.ops", self.tracer.ops() as f64);
        r.notes.push(format!("traced passes: {}", self.passes));
        r.spans = Some(self.tracer.to_json());
        r
    }
}

/// The traced run of a batch workload: whole passes of `pass_len` ops,
/// each op run twice (see [`TracedRun::twice`]), until the pass boundary
/// nearest to `seconds`.
pub fn traced_passes(
    seconds: u64,
    pass_len: usize,
    mut op: impl FnMut(usize, &mut Tracer) -> bool,
) -> TracedRun {
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    let mut run = TracedRun::new();
    loop {
        let pass_start = Instant::now();
        for k in 0..pass_len {
            run.twice(k, &mut op);
        }
        run.passes += 1;
        if start.elapsed() + pass_start.elapsed() / 2 >= budget {
            return run;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn leaves_nest_under_their_op_and_self_time_excludes_them() {
        let mut t = Tracer::on();
        for _ in 0..2 {
            t.op(|t| {
                t.span("a", || spin(Duration::from_millis(2)));
                t.span("b", || spin(Duration::from_millis(1)));
            });
        }
        assert_eq!(t.ops(), 2);
        assert_eq!(t.spans.len(), 6);
        assert_eq!(t.spans[4].parent, Some(3));
        assert_eq!(t.spans[4].op, 1);
        assert!(t.self_ms("a") >= 4.0 && t.self_ms("b") >= 2.0);
        assert!(t.self_ms("op") < t.self_ms("b"));
        assert_eq!(t.per_op_ms("a"), t.self_ms("a") / 2.0);
        assert!(t.coverage() > 0.5 && t.coverage() <= 1.0);
        assert!(t.to_json().starts_with("[{\"name\": \"op\""));
    }

    #[test]
    fn traced_passes_run_each_op_twice_in_whole_passes() {
        let mut calls = Vec::new();
        let run = traced_passes(0, 3, |k, t| {
            calls.push((k, t.is_on()));
            t.span("a", || k != 1)
        });
        assert_eq!(
            calls,
            [
                (0, false),
                (0, true),
                (1, false),
                (1, true),
                (2, false),
                (2, true)
            ]
        );
        assert_eq!((run.passes, run.attempted, run.failed), (1, 3, 1));
        let r = run.report();
        assert_eq!(r.get("trace.ops"), Some(3.0));
        assert!(r.spans.is_some());
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        let (v, _) = t.op(|t| t.span("a", || 7));
        assert_eq!(v, 7);
        assert_eq!(t.ops(), 0);
        assert_eq!(t.self_ms("a"), 0.0);
    }
}
