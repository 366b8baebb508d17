//! The line-delimited JSON protocol spoken between `xbound-serve` and
//! `xbound-client`.
//!
//! Every request is one JSON object on one line; every response line is
//! one JSON object. Most requests produce exactly one response line;
//! `suite` streams one line per completed benchmark followed by a final
//! `done` line. Responses always carry `"ok"`; failures look like
//! `{"ok": false, "error": "..."}`.
//!
//! Requests:
//!
//! ```text
//! {"op": "analyze", "source": "<assembly>"}
//! {"op": "analyze", "image": {"entry": 49152, "words": [[49152, 16451], ...]}}
//! {"op": "suite", "benches": ["mult", "tea8"]}        // [] or absent = all
//! {"op": "sweep", "benches": ["mult"], "corners": 4}  // 0/absent = full grid
//! {"op": "stats"}
//! {"op": "shutdown"}
//! ```
//!
//! `analyze` accepts optional knobs `widen_threshold`, `energy_rounds`,
//! `max_total_cycles`, `max_segment_cycles` (defaults:
//! [`ExploreConfig::suite_default`] + 10 000 energy rounds — the library
//! defaults of [`xbound_core::CoAnalysis`]). `energy_rounds` must lie in
//! `1..=`[`MAX_ENERGY_ROUNDS`]: zero rounds would report a zero energy
//! "bound", and a larger budget would hold a worker for its whole length
//! on a program whose tree has a loop.
//!
//! The `analyze` response is **deliberately free of serving metadata**
//! (`{"ok": true, "key": "<hex16>", "bounds": {...}}`): a cached answer
//! is byte-identical to a freshly computed one. Hit/miss accounting is
//! observable through `stats` instead.

use crate::json::Json;
use xbound_core::jsonout::JsonWriter;
use xbound_core::{BoundsReport, ExploreConfig};
use xbound_msp430::Program;

/// Default peak-energy value-iteration rounds for raw `analyze` requests
/// (the [`xbound_core::CoAnalysis`] builder default).
pub const DEFAULT_ENERGY_ROUNDS: u64 = 10_000;

/// The largest `energy_rounds` a request may ask for: far above the
/// suite's own 2 000–6 000, and about a second of value iteration per
/// corner on the suite's looping programs (whose trees never converge,
/// so every round runs).
pub const MAX_ENERGY_ROUNDS: u64 = 1_000_000;

/// Protocol revision, bumped whenever the wire format gains or changes
/// an op or response field. Carried (with the crate version) in the
/// `version` field of `stats`/`metrics` responses so clients can warn on
/// daemon/client drift. Rev 3 dropped the four `explore_*` scheduling
/// fields of `stats` (`explore_steals`, `explore_steal_failures`,
/// `explore_idle_wakeups`, `explore_max_speculation_depth`); rev 4
/// dropped its seven `memo_*` fields with the subtree memo.
pub const PROTOCOL_REV: u32 = 4;

/// The `version` string stamped into `stats`/`metrics` responses and
/// compared by `xbound-client`: `<crate-version>+p<protocol-rev>`.
pub fn version_string() -> String {
    format!("{}+p{PROTOCOL_REV}", env!("CARGO_PKG_VERSION"))
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Analyze one program: assembly source or a raw image.
    Analyze {
        /// Assembly source (assembled on the server) …
        source: Option<String>,
        /// … or a pre-assembled image as `(entry, words)`.
        image: Option<(u16, Vec<(u16, u16)>)>,
        /// Exploration config (suite defaults + request overrides).
        config: ExploreConfig,
        /// Peak-energy round budget.
        energy_rounds: u64,
    },
    /// Analyze named benchmarks, streaming results per completion.
    /// Duplicate names are analyzed once (one result line per distinct
    /// name).
    Suite {
        /// Benchmark names; empty = the whole suite.
        benches: Vec<String>,
    },
    /// Analyze named benchmarks over the operating-point grid, exploring
    /// each benchmark once and bounding every corner from the shared
    /// tree. Streams one result line per `(benchmark, corner)`.
    Sweep {
        /// Benchmark names; empty = the whole suite.
        benches: Vec<String>,
        /// Corner-count cap over the default grid; 0 = the full grid.
        corners: u64,
    },
    /// Service telemetry.
    Stats,
    /// Global metrics-registry dump (`format`: `"json"` or
    /// `"prometheus"`).
    Metrics {
        /// `true` = Prometheus text exposition, `false` = canonical JSON.
        prometheus: bool,
    },
    /// Clean shutdown.
    Shutdown,
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a message suitable for an error response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = Json::parse(line).map_err(|e| format!("malformed request: {e}"))?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or("request needs a string `op`")?;
    match op {
        "analyze" => {
            let source = v.get("source").and_then(Json::as_str).map(str::to_string);
            let image = match v.get("image") {
                None => None,
                Some(img) => {
                    let entry = img
                        .get("entry")
                        .and_then(Json::as_u64)
                        .and_then(|n| u16::try_from(n).ok())
                        .ok_or("image needs a u16 `entry`")?;
                    let words = img
                        .get("words")
                        .and_then(Json::as_arr)
                        .ok_or("image needs a `words` array")?
                        .iter()
                        .map(|pair| {
                            let p = pair.as_arr().ok_or("image word must be [addr, word]")?;
                            let addr = p
                                .first()
                                .and_then(Json::as_u64)
                                .and_then(|n| u16::try_from(n).ok());
                            let word = p
                                .get(1)
                                .and_then(Json::as_u64)
                                .and_then(|n| u16::try_from(n).ok());
                            match (addr, word, p.len()) {
                                (Some(a), Some(w), 2) => Ok((a, w)),
                                _ => Err("image word must be [u16, u16]".to_string()),
                            }
                        })
                        .collect::<Result<Vec<(u16, u16)>, String>>()?;
                    Some((entry, words))
                }
            };
            if source.is_some() == image.is_some() {
                return Err("analyze needs exactly one of `source` / `image`".to_string());
            }
            // Knobs are strict: a present-but-mistyped knob is an error,
            // not a silent fall-through to the default (which would cache
            // bounds under knobs the client never asked for).
            let opt_u64 = |k: &str| -> Result<Option<u64>, String> {
                match v.get(k) {
                    None => Ok(None),
                    Some(x) => x
                        .as_u64()
                        .map(Some)
                        .ok_or(format!("`{k}` must be a non-negative integer")),
                }
            };
            let mut config = ExploreConfig::suite_default();
            if let Some(n) = opt_u64("widen_threshold")? {
                config.widen_threshold =
                    u32::try_from(n).map_err(|_| "widen_threshold out of range")?;
            }
            if let Some(n) = opt_u64("max_total_cycles")? {
                config.max_total_cycles = n;
            }
            if let Some(n) = opt_u64("max_segment_cycles")? {
                config.max_segment_cycles = n;
            }
            let energy_rounds = opt_u64("energy_rounds")?.unwrap_or(DEFAULT_ENERGY_ROUNDS);
            if !(1..=MAX_ENERGY_ROUNDS).contains(&energy_rounds) {
                return Err(format!(
                    "`energy_rounds` must be 1 to {MAX_ENERGY_ROUNDS}, got {energy_rounds}"
                ));
            }
            Ok(Request::Analyze {
                source,
                image,
                config,
                energy_rounds,
            })
        }
        "suite" => Ok(Request::Suite {
            benches: parse_benches(&v)?,
        }),
        "sweep" => {
            let corners = match v.get("corners") {
                None => 0,
                Some(c) => c
                    .as_u64()
                    .ok_or("`corners` must be a non-negative integer")?,
            };
            Ok(Request::Sweep {
                benches: parse_benches(&v)?,
                corners,
            })
        }
        "stats" => Ok(Request::Stats),
        "metrics" => match v.get("format") {
            None => Ok(Request::Metrics { prometheus: false }),
            Some(f) => match f.as_str() {
                Some("json") => Ok(Request::Metrics { prometheus: false }),
                Some("prometheus") => Ok(Request::Metrics { prometheus: true }),
                _ => Err("`format` must be \"json\" or \"prometheus\"".to_string()),
            },
        },
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op `{other}`")),
    }
}

/// Parses the optional `benches` array shared by `suite` and `sweep`.
fn parse_benches(v: &Json) -> Result<Vec<String>, String> {
    match v.get("benches") {
        None => Ok(Vec::new()),
        Some(b) => b
            .as_arr()
            .ok_or("`benches` must be an array of names")?
            .iter()
            .map(|n| {
                n.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "`benches` must be an array of names".to_string())
            })
            .collect(),
    }
}

/// Serializes an `analyze` request for `source` (client side).
pub fn analyze_source_request(source: &str) -> String {
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.field_str("op", "analyze");
    w.field_str("source", source);
    w.end_object();
    w.finish()
}

/// Serializes an `analyze` request for a program image (client side).
pub fn analyze_image_request(program: &Program) -> String {
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.field_str("op", "analyze");
    w.key("image");
    w.begin_object();
    w.field_u64("entry", u64::from(program.entry()));
    w.key("words");
    w.begin_array();
    for &(addr, word) in program.words() {
        w.begin_array();
        w.u64_val(u64::from(addr));
        w.u64_val(u64::from(word));
        w.end_array();
    }
    w.end_array();
    w.end_object();
    w.end_object();
    w.finish()
}

/// Serializes a `suite` request (client side).
pub fn suite_request(benches: &[String]) -> String {
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.field_str("op", "suite");
    w.key("benches");
    w.begin_array();
    for b in benches {
        w.str_val(b);
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Serializes a `sweep` request (client side). `corners == 0` asks for
/// the full default grid.
pub fn sweep_request(benches: &[String], corners: u64) -> String {
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.field_str("op", "sweep");
    w.key("benches");
    w.begin_array();
    for b in benches {
        w.str_val(b);
    }
    w.end_array();
    w.field_u64("corners", corners);
    w.end_object();
    w.finish()
}

/// Serializes a no-payload request (`stats` / `shutdown`).
pub fn op_request(op: &str) -> String {
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.field_str("op", op);
    w.end_object();
    w.finish()
}

/// Serializes a `metrics` request (client side).
pub fn metrics_request(prometheus: bool) -> String {
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.field_str("op", "metrics");
    w.field_str("format", if prometheus { "prometheus" } else { "json" });
    w.end_object();
    w.finish()
}

/// The `metrics` response: the registry snapshot as a nested object
/// (JSON format) or one escaped string (Prometheus text).
pub fn metrics_response(prometheus: bool) -> String {
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.field_bool("ok", true);
    w.field_str("version", &version_string());
    if prometheus {
        w.field_str("prometheus", &xbound_obs::metrics::snapshot_prometheus());
    } else {
        w.field_raw("metrics", &xbound_obs::metrics::snapshot_json());
    }
    w.end_object();
    w.finish()
}

/// The deterministic `analyze` success response (no serving metadata —
/// cached and fresh answers are byte-identical).
pub fn analyze_response(key_hex: &str, bounds: &BoundsReport) -> String {
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.field_bool("ok", true);
    w.field_str("key", key_hex);
    w.key("bounds");
    bounds.write(&mut w);
    w.end_object();
    w.finish()
}

/// One streamed `suite` result line. The `{"name": ..., "bounds": ...}`
/// payload matches `suite_summary --bounds` byte-for-byte — the CI
/// cross-check contract.
pub fn suite_result_response(name: &str, bounds: &BoundsReport) -> String {
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.field_bool("ok", true);
    w.field_str("name", name);
    w.key("bounds");
    bounds.write(&mut w);
    w.end_object();
    w.finish()
}

/// The canonical per-benchmark bounds line shared by `xbound-client
/// suite` output and `suite_summary --bounds` files
/// (re-exported from [`xbound_core::summary::bounds_line`]).
pub use xbound_core::summary::bounds_line;

/// The final `suite` line after all results streamed.
pub fn suite_done_response(completed: u64, failed: u64) -> String {
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.field_bool("ok", true);
    w.field_u64("done", completed);
    w.field_u64("failed", failed);
    w.end_object();
    w.finish()
}

/// One streamed `sweep` result line: the canonical
/// `{"name": ..., "bounds": ...}` payload of [`suite_result_response`]
/// plus a trailing `"corner"` label, so stripping the corner recovers a
/// byte-identical single-corner bounds record.
pub fn sweep_result_response(name: &str, corner: &str, bounds: &BoundsReport) -> String {
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.field_bool("ok", true);
    w.field_str("name", name);
    w.key("bounds");
    bounds.write(&mut w);
    w.field_str("corner", corner);
    w.end_object();
    w.finish()
}

/// The final `sweep` line: completed benchmarks, total corner lines
/// streamed, and failed benchmarks.
pub fn sweep_done_response(completed: u64, corners: u64, failed: u64) -> String {
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.field_bool("ok", true);
    w.field_u64("done", completed);
    w.field_u64("corners", corners);
    w.field_u64("failed", failed);
    w.end_object();
    w.finish()
}

/// An error response.
pub fn error_response(message: &str) -> String {
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.field_bool("ok", false);
    w.field_str("error", message);
    w.end_object();
    w.finish()
}

/// A per-benchmark error inside a `suite` stream (the stream continues).
pub fn suite_error_response(name: &str, message: &str) -> String {
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.field_bool("ok", false);
    w.field_str("name", name);
    w.field_str("error", message);
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbound_msp430::assemble;

    #[test]
    fn analyze_source_round_trips() {
        let line = analyze_source_request("main:\n jmp $\n");
        let req = parse_request(&line).unwrap();
        match req {
            Request::Analyze {
                source: Some(s),
                image: None,
                config,
                energy_rounds,
            } => {
                assert_eq!(s, "main:\n jmp $\n");
                assert_eq!(config.max_total_cycles, 5_000_000);
                assert_eq!(energy_rounds, DEFAULT_ENERGY_ROUNDS);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn analyze_image_round_trips() {
        let program = assemble("main:\n mov #7, r4\n jmp $\n").unwrap();
        let line = analyze_image_request(&program);
        let req = parse_request(&line).unwrap();
        match req {
            Request::Analyze {
                image: Some((entry, words)),
                source: None,
                ..
            } => {
                assert_eq!(entry, program.entry());
                assert_eq!(words, program.words());
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn analyze_knob_overrides_parse() {
        let req = parse_request(
            r#"{"op": "analyze", "source": "x", "widen_threshold": 9, "energy_rounds": 5, "max_total_cycles": 123}"#,
        )
        .unwrap();
        match req {
            Request::Analyze {
                config,
                energy_rounds,
                ..
            } => {
                assert_eq!(config.widen_threshold, 9);
                assert_eq!(config.max_total_cycles, 123);
                assert_eq!(energy_rounds, 5);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn suite_and_plain_ops_parse() {
        assert_eq!(
            parse_request(&suite_request(&["mult".to_string()])).unwrap(),
            Request::Suite {
                benches: vec!["mult".to_string()]
            }
        );
        assert_eq!(parse_request(&op_request("stats")).unwrap(), Request::Stats);
        assert_eq!(
            parse_request(&op_request("shutdown")).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn sweep_round_trips_and_validates() {
        assert_eq!(
            parse_request(&sweep_request(&["mult".to_string()], 4)).unwrap(),
            Request::Sweep {
                benches: vec!["mult".to_string()],
                corners: 4
            }
        );
        // Absent knobs default to the whole suite over the full grid.
        assert_eq!(
            parse_request(r#"{"op": "sweep"}"#).unwrap(),
            Request::Sweep {
                benches: Vec::new(),
                corners: 0
            }
        );
        assert!(parse_request(r#"{"op": "sweep", "corners": -2}"#).is_err());
        assert!(parse_request(r#"{"op": "sweep", "benches": "mult"}"#).is_err());
    }

    #[test]
    fn metrics_round_trips_and_validates() {
        assert_eq!(
            parse_request(&metrics_request(false)).unwrap(),
            Request::Metrics { prometheus: false }
        );
        assert_eq!(
            parse_request(&metrics_request(true)).unwrap(),
            Request::Metrics { prometheus: true }
        );
        // Absent format defaults to JSON; junk is rejected.
        assert_eq!(
            parse_request(r#"{"op": "metrics"}"#).unwrap(),
            Request::Metrics { prometheus: false }
        );
        assert!(parse_request(r#"{"op": "metrics", "format": "xml"}"#).is_err());
    }

    #[test]
    fn metrics_response_carries_version_and_snapshot() {
        xbound_obs::metrics::counter("xbound_test_proto_total").inc();
        let json = Json::parse(&metrics_response(false)).unwrap();
        assert_eq!(json.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            json.get("version").and_then(Json::as_str),
            Some(version_string().as_str())
        );
        assert!(json
            .get("metrics")
            .and_then(|m| m.get("xbound_test_proto_total"))
            .is_some());
        let prom = Json::parse(&metrics_response(true)).unwrap();
        assert!(prom
            .get("prometheus")
            .and_then(Json::as_str)
            .unwrap()
            .contains("xbound_test_proto_total"));
    }

    #[test]
    fn bad_requests_are_rejected() {
        for bad in [
            "{}",
            r#"{"op": "nope"}"#,
            r#"{"op": "analyze"}"#,
            r#"{"op": "analyze", "source": "x", "image": {"entry": 0, "words": []}}"#,
            "not json",
        ] {
            assert!(parse_request(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn mistyped_knobs_are_rejected_not_defaulted() {
        for bad in [
            r#"{"op": "analyze", "source": "x", "energy_rounds": "500"}"#,
            r#"{"op": "analyze", "source": "x", "energy_rounds": -1}"#,
            r#"{"op": "analyze", "source": "x", "energy_rounds": 0}"#,
            r#"{"op": "analyze", "source": "x", "energy_rounds": 1000001}"#,
            r#"{"op": "analyze", "source": "x", "energy_rounds": 9007199254740992}"#,
            r#"{"op": "analyze", "source": "x", "max_total_cycles": 1.5}"#,
            r#"{"op": "analyze", "source": "x", "widen_threshold": 5000000000}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad}");
        }
    }
}
