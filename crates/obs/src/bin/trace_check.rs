//! Validates a Chrome trace-event JSON file produced by
//! [`xbound_obs::trace`] — the CI smoke gate for `suite_summary --trace`
//! and `XBOUND_TRACE`.
//!
//! ```text
//! cargo run -p xbound_obs --bin trace_check -- TRACE.json [--min-tids N] [--expect NAME]...
//! ```
//!
//! Checks, exiting non-zero on the first violation:
//!
//! * the document parses as strict JSON with a `traceEvents` array;
//! * every event carries the Chrome-required fields for its phase
//!   (`ph`/`name`/`pid`/`tid`/`ts`, plus `dur` for `X` spans), with
//!   finite non-negative timestamps;
//! * per tid, complete spans are properly nested (no partial overlap) —
//!   the RAII guards guarantee this by construction, so a violation
//!   means clock or buffer corruption;
//! * at least `--min-tids` distinct event-carrying tids appear (the
//!   "tids cover all workers" suite-trace check);
//! * every `--expect NAME` occurs as some event's name.
//!
//! On success prints one summary line: event/span/instant/tid counts and
//! the dropped-event total. A bad command line exits 2; a trace that
//! fails a check (or cannot be read) exits 1.

use xbound_obs::cli::Args;
use xbound_obs::jsonin::Json;

const USAGE: &str = "\
usage: trace_check TRACE.json [--min-tids N] [--expect NAME]...

Validates a Chrome trace-event JSON file written by `--trace` or
XBOUND_TRACE.

options:
  --min-tids N         require at least N event-carrying thread ids
  --expect NAME        require an event named NAME (repeatable)
  -h, --help           print this help
";

fn fail(msg: &str) -> ! {
    eprintln!("trace_check: {msg}");
    std::process::exit(1);
}

fn main() {
    let mut path: Option<String> = None;
    let mut min_tids = 1usize;
    let mut expect: Vec<String> = Vec::new();
    let mut args = Args::from_env("trace_check", USAGE);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--min-tids" => min_tids = args.number(&a),
            "--expect" => expect.push(args.value(&a)),
            other if other.starts_with('-') => args.fail(&format!("unknown option `{other}`")),
            other if path.is_none() => path = Some(other.to_string()),
            other => args.fail(&format!("unexpected argument `{other}`")),
        }
    }
    let Some(path) = path else {
        args.fail("missing TRACE.json path");
    };
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let doc = Json::parse(&text).unwrap_or_else(|e| fail(&format!("{path}: not valid JSON: {e}")));
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| fail("missing traceEvents array"));

    let req_str = |e: &Json, k: &str, i: usize| -> String {
        e.get(k)
            .and_then(Json::as_str)
            .unwrap_or_else(|| fail(&format!("event {i}: missing string `{k}`")))
            .to_string()
    };
    let req_num = |e: &Json, k: &str, i: usize| -> f64 {
        let v = e
            .get(k)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| fail(&format!("event {i}: missing number `{k}`")));
        if !v.is_finite() || v < 0.0 {
            fail(&format!("event {i}: `{k}` = {v} out of range"));
        }
        v
    };

    // (start_us, end_us, name) per tid, for the nesting check.
    let mut spans_by_tid: std::collections::BTreeMap<u64, Vec<(f64, f64, String)>> =
        std::collections::BTreeMap::new();
    let mut event_tids: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    let mut names: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut span_count = 0usize;
    let mut instant_count = 0usize;

    for (i, e) in events.iter().enumerate() {
        let ph = req_str(e, "ph", i);
        let name = req_str(e, "name", i);
        req_num(e, "pid", i);
        let tid = req_num(e, "tid", i) as u64;
        match ph.as_str() {
            "M" => {
                // Metadata: must name the thread.
                if name != "thread_name" {
                    fail(&format!("event {i}: unexpected metadata `{name}`"));
                }
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| fail(&format!("event {i}: thread_name without args.name")));
            }
            "X" => {
                let ts = req_num(e, "ts", i);
                let dur = req_num(e, "dur", i);
                spans_by_tid
                    .entry(tid)
                    .or_default()
                    .push((ts, ts + dur, name.clone()));
                event_tids.insert(tid);
                names.insert(name);
                span_count += 1;
            }
            "i" => {
                req_num(e, "ts", i);
                event_tids.insert(tid);
                names.insert(name);
                instant_count += 1;
            }
            other => fail(&format!("event {i}: unknown phase `{other}`")),
        }
    }

    // Proper nesting per tid: walking spans ordered by (start, -end),
    // every span must fit entirely inside the enclosing open span.
    for (tid, spans) in &mut spans_by_tid {
        spans.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap()
                .then(b.1.partial_cmp(&a.1).unwrap())
        });
        let mut stack: Vec<(f64, f64, &str)> = Vec::new();
        for (start, end, name) in spans.iter() {
            while let Some(top) = stack.last() {
                if *start >= top.1 {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(top) = stack.last() {
                if *end > top.1 + 1e-3 {
                    fail(&format!(
                        "tid {tid}: span `{name}` [{start}, {end}] partially overlaps `{}` [{}, {}]",
                        top.2, top.0, top.1
                    ));
                }
            }
            stack.push((*start, *end, name));
        }
    }

    if event_tids.len() < min_tids {
        fail(&format!(
            "only {} event-carrying tids, expected at least {min_tids}",
            event_tids.len()
        ));
    }
    for want in &expect {
        if !names.contains(want) {
            fail(&format!("expected event name `{want}` not found"));
        }
    }
    let dropped = doc
        .get("dropped_events")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    println!(
        "trace_check: ok — {} events ({span_count} spans, {instant_count} instants) on {} tids, {dropped} dropped",
        span_count + instant_count,
        event_tids.len(),
    );
}
