//! Low-overhead span tracer with Chrome trace-event export.
//!
//! Instrumented code records *spans* (`(name, tid, start_ns, end_ns,
//! args)` via the RAII [`span`] guard) and point-in-time *instants*
//! ([`instant`]) into per-thread buffers. The whole machinery sits behind
//! a single process-global `AtomicBool`: when tracing is disabled
//! (the default), every site costs one relaxed load and an untaken
//! branch — no clock read, no allocation, no lock.
//!
//! When enabled ([`enable`], or `XBOUND_TRACE=out.json` through
//! [`init_from_env`]), each thread lazily registers a bounded event
//! buffer (a ring: the newest [`THREAD_BUFFER_CAP`] events win, with a
//! drop counter) tagged with a small integer `tid` and a label taken
//! from the OS thread name (`xbound-par-2` for a pool worker).
//! [`write_chrome_trace`]
//! drains every buffer into Chrome trace-event JSON (`X` complete events
//! with microsecond timestamps, `i` instants, `M` thread-name metadata),
//! loadable in Perfetto or `chrome://tracing`.
//!
//! Tracing never feeds back into analysis results; enabling it must not
//! change any canonical artifact (asserted by the suite-level determinism
//! guard test in `crates/bench/tests/`).

use crate::jsonout::JsonWriter;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Maximum events retained per thread buffer; older events are dropped
/// (and counted) once a thread exceeds it. 64Ki events ≈ 4 MiB per
/// long-running daemon worker — bounded, and far more than any suite run
/// produces.
pub const THREAD_BUFFER_CAP: usize = 1 << 16;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// True when tracing is on. One relaxed load — this is the only cost an
/// instrumentation site pays when tracing is disabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the tracer on. Events recorded before `enable` are impossible
/// (the guard constructors check [`enabled`] first).
pub fn enable() {
    epoch(); // pin t=0 before the first event
    ENABLED.store(true, Ordering::Relaxed);
}

/// Reads `XBOUND_TRACE`; if set and non-empty, enables tracing and
/// returns the configured output path (the caller decides when to
/// [`write_chrome_trace`] — typically at process exit).
pub fn init_from_env() -> Option<String> {
    let path = std::env::var("XBOUND_TRACE").ok()?;
    if path.is_empty() || path == "0" {
        return None;
    }
    enable();
    Some(path)
}

/// The process trace epoch: all timestamps are nanoseconds since the
/// first call (pinned by [`enable`]).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

#[derive(Clone)]
enum Phase {
    /// Complete span: `dur_ns = end - start`.
    Span { dur_ns: u64 },
    /// Point event.
    Instant,
}

#[derive(Clone)]
struct Event {
    name: &'static str,
    start_ns: u64,
    phase: Phase,
    /// Pre-rendered compact JSON object text (`{"k": v}`) or empty.
    args: String,
}

struct ThreadBuf {
    tid: u32,
    label: String,
    events: Vec<Event>,
    /// Ring cursor: once `events` is full, the next event overwrites
    /// `events[head]`.
    head: usize,
    dropped: u64,
}

impl ThreadBuf {
    fn push(&mut self, ev: Event) {
        if self.events.len() < THREAD_BUFFER_CAP {
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head = (self.head + 1) % THREAD_BUFFER_CAP;
            self.dropped += 1;
        }
    }
}

/// Every thread buffer ever registered (kept alive past thread exit so
/// scoped pool workers survive until export).
static ALL_BUFS: OnceLock<Mutex<Vec<Arc<Mutex<ThreadBuf>>>>> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn all_bufs() -> &'static Mutex<Vec<Arc<Mutex<ThreadBuf>>>> {
    ALL_BUFS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: RefCell<Option<Arc<Mutex<ThreadBuf>>>> = const { RefCell::new(None) };
}

fn with_local(f: impl FnOnce(&mut ThreadBuf)) {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let buf = slot.get_or_insert_with(|| {
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed) as u32;
            let label = std::thread::current()
                .name()
                .map(|n| n.to_string())
                .unwrap_or_else(|| format!("thread-{tid}"));
            let buf = Arc::new(Mutex::new(ThreadBuf {
                tid,
                label,
                events: Vec::new(),
                head: 0,
                dropped: 0,
            }));
            all_bufs().lock().expect("trace registry").push(buf.clone());
            buf
        });
        f(&mut buf.lock().expect("thread trace buffer"));
    });
}

/// An RAII span: records one complete (`X`) event from construction to
/// drop. Construct through [`span`] / [`span_args`].
pub struct SpanGuard {
    /// `None` when tracing was disabled at construction — drop is a
    /// no-op branch.
    live: Option<(&'static str, u64, String)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((name, start_ns, args)) = self.live.take() {
            let dur_ns = now_ns().saturating_sub(start_ns);
            with_local(|b| {
                b.push(Event {
                    name,
                    start_ns,
                    phase: Phase::Span { dur_ns },
                    args,
                });
            });
        }
    }
}

/// Opens a span named `name` ending when the returned guard drops.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { live: None };
    }
    SpanGuard {
        live: Some((name, now_ns(), String::new())),
    }
}

/// [`span`] with arguments: `make_args` runs only when tracing is
/// enabled and returns `(key, value)` pairs rendered into the event's
/// `args` object.
#[inline]
pub fn span_args(
    name: &'static str,
    make_args: impl FnOnce() -> Vec<(String, String)>,
) -> SpanGuard {
    if !enabled() {
        return SpanGuard { live: None };
    }
    SpanGuard {
        live: Some((name, now_ns(), render_args(make_args()))),
    }
}

/// Records a point-in-time (`i`) event (a fork or a commit).
#[inline]
pub fn instant(name: &'static str) {
    if !enabled() {
        return;
    }
    let ev = Event {
        name,
        start_ns: now_ns(),
        phase: Phase::Instant,
        args: String::new(),
    };
    with_local(|b| b.push(ev));
}

/// [`instant`] with lazily built `(key, value)` arguments.
#[inline]
pub fn instant_args(name: &'static str, make_args: impl FnOnce() -> Vec<(String, String)>) {
    if !enabled() {
        return;
    }
    let ev = Event {
        name,
        start_ns: now_ns(),
        phase: Phase::Instant,
        args: render_args(make_args()),
    };
    with_local(|b| b.push(ev));
}

fn render_args(pairs: Vec<(String, String)>) -> String {
    if pairs.is_empty() {
        return String::new();
    }
    let mut w = JsonWriter::compact();
    w.begin_object();
    for (k, v) in &pairs {
        w.key(k);
        w.str_val(v);
    }
    w.end_object();
    w.finish()
}

/// Renders every recorded event as a Chrome trace-event JSON document
/// (`{"traceEvents": [...]}`): one `M`/`thread_name` metadata record per
/// thread, then its events in recorded order. Timestamps are in
/// microseconds (3 fractional digits) since the trace epoch; all events
/// share `pid` 1.
pub fn chrome_trace_json() -> String {
    let bufs = all_bufs().lock().expect("trace registry");
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.key("traceEvents");
    w.begin_array();
    let mut total_dropped = 0u64;
    for buf in bufs.iter() {
        let b = buf.lock().expect("thread trace buffer");
        total_dropped += b.dropped;
        w.begin_object();
        w.field_str("ph", "M");
        w.field_str("name", "thread_name");
        w.field_u64("pid", 1);
        w.field_u64("tid", b.tid as u64);
        w.key("args");
        w.begin_object();
        w.field_str("name", &b.label);
        w.end_object();
        w.end_object();
        // Ring order: oldest surviving event first.
        let n = b.events.len();
        for i in 0..n {
            let ev = &b.events[(b.head + i) % n.max(1)];
            w.begin_object();
            match ev.phase {
                Phase::Span { dur_ns } => {
                    w.field_str("ph", "X");
                    w.field_str("name", ev.name);
                    w.field_u64("pid", 1);
                    w.field_u64("tid", b.tid as u64);
                    w.field_raw("ts", &format_us(ev.start_ns));
                    w.field_raw("dur", &format_us(dur_ns));
                }
                Phase::Instant => {
                    w.field_str("ph", "i");
                    w.field_str("name", ev.name);
                    w.field_u64("pid", 1);
                    w.field_u64("tid", b.tid as u64);
                    w.field_raw("ts", &format_us(ev.start_ns));
                    w.field_str("s", "t");
                }
            }
            if !ev.args.is_empty() {
                w.field_raw("args", &ev.args);
            }
            w.end_object();
        }
    }
    w.end_array();
    w.field_u64("dropped_events", total_dropped);
    w.end_object();
    w.finish()
}

/// Microseconds with fixed 3-digit nanosecond fraction (Chrome traces
/// use µs; the fraction keeps short spans distinguishable).
fn format_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Writes [`chrome_trace_json`] (plus a trailing newline) to `path`.
pub fn write_chrome_trace(path: &str) -> std::io::Result<()> {
    let mut doc = chrome_trace_json();
    doc.push('\n');
    std::fs::write(path, doc)
}

/// Number of events currently buffered across all threads (test/debug
/// aid).
pub fn event_count() -> usize {
    let bufs = all_bufs().lock().expect("trace registry");
    bufs.iter()
        .map(|b| b.lock().expect("thread trace buffer").events.len())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonin::Json;

    // Tracing state is process-global, so the unit tests share one
    // enabled tracer and assert on their own uniquely named events.

    #[test]
    fn disabled_guard_is_inert() {
        // Runs before `enable` in this thread only if the other test has
        // not flipped the global yet — either way the guard must not
        // panic and must not require a buffer.
        let g = span("unit_disabled_span");
        drop(g);
    }

    #[test]
    fn spans_and_instants_round_trip_through_chrome_json() {
        enable();
        {
            let _outer = span("unit_outer");
            let _inner = span_args("unit_inner", || {
                vec![("corner".to_string(), "ulp65@100MHz".to_string())]
            });
            instant("unit_instant");
        }
        let doc = chrome_trace_json();
        let json = Json::parse(&doc).expect("chrome trace parses");
        let events = json
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert!(names.contains(&"unit_outer"));
        assert!(names.contains(&"unit_inner"));
        assert!(names.contains(&"unit_instant"));
        assert!(names.contains(&"thread_name"));
        // The inner span closed before the outer and carries its args.
        let inner = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("unit_inner"))
            .unwrap();
        assert_eq!(
            inner
                .get("args")
                .and_then(|a| a.get("corner"))
                .and_then(Json::as_str),
            Some("ulp65@100MHz")
        );
        let outer = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("unit_outer"))
            .unwrap();
        let ts = |e: &Json, k: &str| e.get(k).and_then(Json::as_f64).unwrap();
        assert!(ts(inner, "ts") >= ts(outer, "ts"));
        assert!(ts(inner, "ts") + ts(inner, "dur") <= ts(outer, "ts") + ts(outer, "dur") + 1e-3);
    }

    #[test]
    fn ring_buffer_drops_oldest_beyond_cap() {
        let mut b = ThreadBuf {
            tid: 99,
            label: "ring".into(),
            events: Vec::new(),
            head: 0,
            dropped: 0,
        };
        for _ in 0..THREAD_BUFFER_CAP + 5 {
            b.push(Event {
                name: "e",
                start_ns: 0,
                phase: Phase::Instant,
                args: String::new(),
            });
        }
        assert_eq!(b.events.len(), THREAD_BUFFER_CAP);
        assert_eq!(b.dropped, 5);
        assert_eq!(b.head, 5);
    }
}
