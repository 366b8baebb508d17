//! Global metrics registry: named atomic counters, gauges, and
//! fixed-bucket histograms.
//!
//! The workspace grew its telemetry ad hoc — explorer batching counters
//! in `ExploreStats::batch`, cache hit/miss atomics, the service `stats`
//! response, one-off `sweep:` lines. This module gives them one place to
//! land: instruments are registered by name, updated with relaxed atomic
//! operations (an update never takes a lock), and snapshotted on demand
//! to canonical [`crate::jsonout`] JSON or Prometheus text exposition
//! format.
//!
//! Registration takes a process-wide mutex; callers therefore register
//! once (typically in a `OnceLock` or at subsystem construction) and
//! update the returned handle, which is a clone-cheap `Arc` around the
//! atomic cell. Names use the Prometheus convention
//! (`snake_case`, subsystem prefix, e.g. `xbound_explore_runs_total`).
//!
//! Nothing here feeds back into analysis results: the registry is
//! observability-only and sits outside the byte-identity contract.
//!
//! ```
//! use xbound_obs::metrics;
//! let c = metrics::counter("xbound_doc_example_total");
//! c.inc();
//! c.add(2);
//! assert_eq!(c.get(), 3);
//! assert!(metrics::snapshot_json().contains("xbound_doc_example_total"));
//! ```

use crate::jsonout::JsonWriter;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// An instantaneous value (queue depth, in-flight jobs, cache entries).
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the current value.
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Upper bounds (inclusive) of the fixed duration buckets, in
/// microseconds: 100µs, 1ms, 10ms, 100ms, 1s, 10s, +Inf. Coarse
/// power-of-ten buckets keep `observe` to one comparison chain and cover
/// everything from a cache lookup to a full-suite sweep.
pub const DURATION_BUCKETS_US: [u64; 6] = [100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

struct HistogramInner {
    /// One slot per bound in [`DURATION_BUCKETS_US`] plus the +Inf slot.
    buckets: [AtomicU64; DURATION_BUCKETS_US.len() + 1],
    count: AtomicU64,
    sum_us: AtomicU64,
}

/// A fixed-bucket histogram of microsecond durations.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    /// Records one observation of `us` microseconds.
    pub fn observe_us(&self, us: u64) {
        let idx = DURATION_BUCKETS_US
            .iter()
            .position(|b| us <= *b)
            .unwrap_or(DURATION_BUCKETS_US.len());
        self.inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.inner.sum_us.load(Ordering::Relaxed)
    }

    fn bucket_counts(&self) -> Vec<u64> {
        self.inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// Name-keyed instrument table. `BTreeMap` so every export walks the
/// instruments in one stable order (part of keeping snapshots diffable).
static REGISTRY: OnceLock<Mutex<BTreeMap<&'static str, Instrument>>> = OnceLock::new();

fn registry() -> &'static Mutex<BTreeMap<&'static str, Instrument>> {
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Registers (or fetches) the counter `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different instrument kind.
pub fn counter(name: &'static str) -> Counter {
    let mut reg = registry().lock().expect("metrics registry");
    match reg.entry(name).or_insert_with(|| {
        Instrument::Counter(Counter {
            cell: Arc::new(AtomicU64::new(0)),
        })
    }) {
        Instrument::Counter(c) => c.clone(),
        _ => panic!("metric `{name}` already registered with a different kind"),
    }
}

/// Registers (or fetches) the gauge `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different instrument kind.
pub fn gauge(name: &'static str) -> Gauge {
    let mut reg = registry().lock().expect("metrics registry");
    match reg.entry(name).or_insert_with(|| {
        Instrument::Gauge(Gauge {
            cell: Arc::new(AtomicU64::new(0)),
        })
    }) {
        Instrument::Gauge(g) => g.clone(),
        _ => panic!("metric `{name}` already registered with a different kind"),
    }
}

/// Registers (or fetches) the duration histogram `name` (fixed
/// [`DURATION_BUCKETS_US`] buckets).
///
/// # Panics
///
/// Panics if `name` is already registered as a different instrument kind.
pub fn histogram(name: &'static str) -> Histogram {
    let mut reg = registry().lock().expect("metrics registry");
    match reg.entry(name).or_insert_with(|| {
        Instrument::Histogram(Histogram {
            inner: Arc::new(HistogramInner {
                buckets: Default::default(),
                count: AtomicU64::new(0),
                sum_us: AtomicU64::new(0),
            }),
        })
    }) {
        Instrument::Histogram(h) => h.clone(),
        _ => panic!("metric `{name}` already registered with a different kind"),
    }
}

/// Writes the full registry as one JSON object into `w` (counters and
/// gauges as integer fields; histograms as
/// `{"buckets_us": [...], "counts": [...], "count": n, "sum_us": n}`),
/// in stable name order.
pub fn write_snapshot(w: &mut JsonWriter) {
    let reg = registry().lock().expect("metrics registry");
    w.begin_object();
    for (name, inst) in reg.iter() {
        match inst {
            Instrument::Counter(c) => w.field_u64(name, c.get()),
            Instrument::Gauge(g) => w.field_u64(name, g.get()),
            Instrument::Histogram(h) => {
                w.key(name);
                w.begin_object();
                w.key("buckets_us");
                w.begin_array();
                for b in DURATION_BUCKETS_US {
                    w.u64_val(b);
                }
                w.end_array();
                w.key("counts");
                w.begin_array();
                for c in h.bucket_counts() {
                    w.u64_val(c);
                }
                w.end_array();
                w.field_u64("count", h.count());
                w.field_u64("sum_us", h.sum_us());
                w.end_object();
            }
        }
    }
    w.end_object();
}

/// The registry as a compact canonical JSON document.
pub fn snapshot_json() -> String {
    let mut w = JsonWriter::compact();
    write_snapshot(&mut w);
    w.finish()
}

/// The registry in Prometheus text exposition format (`# TYPE` comments,
/// cumulative `_bucket{le="..."}` series for histograms).
pub fn snapshot_prometheus() -> String {
    let reg = registry().lock().expect("metrics registry");
    let mut out = String::new();
    for (name, inst) in reg.iter() {
        match inst {
            Instrument::Counter(c) => {
                out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.get()));
            }
            Instrument::Gauge(g) => {
                out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", g.get()));
            }
            Instrument::Histogram(h) => {
                out.push_str(&format!("# TYPE {name} histogram\n"));
                let counts = h.bucket_counts();
                let mut cumulative = 0u64;
                for (i, bound) in DURATION_BUCKETS_US.iter().enumerate() {
                    cumulative += counts[i];
                    out.push_str(&format!("{name}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
                }
                cumulative += counts[DURATION_BUCKETS_US.len()];
                out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
                out.push_str(&format!("{name}_sum {}\n", h.sum_us()));
                out.push_str(&format!("{name}_count {}\n", h.count()));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonin::Json;

    #[test]
    fn counter_and_gauge_round_trip() {
        let c = counter("xbound_test_counter_total");
        let before = c.get();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), before + 5);
        // Same name returns the same underlying cell.
        assert_eq!(counter("xbound_test_counter_total").get(), before + 5);

        let g = gauge("xbound_test_gauge");
        g.set(17);
        assert_eq!(gauge("xbound_test_gauge").get(), 17);
    }

    #[test]
    fn histogram_buckets_by_magnitude() {
        let h = histogram("xbound_test_hist_us");
        h.observe_us(50); // <= 100µs
        h.observe_us(500_000); // <= 1s
        h.observe_us(99_000_000); // +Inf
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_us(), 50 + 500_000 + 99_000_000);
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[4], 1);
        assert_eq!(counts[DURATION_BUCKETS_US.len()], 1);
    }

    #[test]
    fn snapshot_is_valid_canonical_json() {
        counter("xbound_test_snapshot_total").add(2);
        gauge("xbound_test_snapshot_gauge").set(9);
        histogram("xbound_test_snapshot_us").observe_us(1);
        let doc = snapshot_json();
        let json = Json::parse(&doc).expect("snapshot parses");
        assert_eq!(
            json.get("xbound_test_snapshot_total")
                .and_then(Json::as_u64),
            Some(2)
        );
        let hist = json.get("xbound_test_snapshot_us").expect("hist present");
        assert_eq!(hist.get("count").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn prometheus_exposition_shape() {
        counter("xbound_test_prom_total").inc();
        histogram("xbound_test_prom_us").observe_us(3);
        let text = snapshot_prometheus();
        assert!(text.contains("# TYPE xbound_test_prom_total counter"));
        assert!(text.contains("xbound_test_prom_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("xbound_test_prom_us_count 1"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<u64>().is_ok(), "bad sample line: {line}");
        }
    }
}
