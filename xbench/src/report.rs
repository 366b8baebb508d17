//! The result of one run and its one-line JSON form.

use std::collections::BTreeMap;
use xbound_core::jsonout::JsonWriter;

/// End-to-end metrics and their units, as listed in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units, as listed in `BENCHMARK.json`. A
/// traced run reports every one; a layer its workload does not reach
/// reads 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("cpu.build_ms", "ms"),
    ("activity.explore_ms", "ms"),
    ("activity.us_per_cycle", "us/cycle"),
    ("activity.cycles", "count"),
    ("activity.forks", "count"),
    ("activity.merges", "count"),
    ("activity.widenings", "count"),
    ("activity.gate_passes", "count"),
    ("activity.lane_occupancy", "ratio"),
    ("activity.steals", "count"),
    ("activity.idle_wakeups", "count"),
    ("peak_power.adjust_ms", "ms"),
    ("peak_power.table_ms", "ms"),
    ("peak_power.assign_ms", "ms"),
    ("power.energy_ms", "ms"),
    ("power.us_per_cycle", "us/cycle"),
    ("peak_power.compose_ms", "ms"),
    ("peak_power.peak_energy_ms", "ms"),
    ("peak_power.segments", "count"),
    ("sweep.tables_built", "count"),
    ("sweep.trace_sets_built", "count"),
    ("sweep.trace_reuse_hits", "count"),
    ("sim.population_ms", "ms"),
    ("sim.concrete_cycles", "count"),
    ("sim.ns_per_lane_cycle", "ns/cycle"),
    ("validate.superset_ms", "ms"),
    ("validate.dominance_ms", "ms"),
    ("validate.sound_runs", "count"),
    ("service.parse_ms", "ms"),
    ("service.analyze_ms", "ms"),
    ("service.respond_ms", "ms"),
    ("service.transport_ms", "ms"),
    ("service.bound_cache_hits", "count"),
    ("memo.hit_ratio", "ratio"),
    ("memo.power_hit_ratio", "ratio"),
    ("memo.stitched_segments", "count"),
    ("memo.entries", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.op_ms", "ms"),
    ("trace.untraced_op_ms", "ms"),
    ("trace.ops", "count"),
];

/// What a run found: the ops it attempted and failed, its metrics, and
/// (traced runs) the recorded spans.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted, timed or traced.
    pub attempted: u64,
    /// Ops whose output did not check out.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Lines printed before the result (sample counts, passes).
    pub notes: Vec<String>,
    /// Recorded spans as JSON, written next to the run's scratch data.
    pub spans: Option<String>,
}

impl Report {
    /// Sets a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name neither metric list has: the lists and
    /// `BENCHMARK.json` must name the same metrics.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric `{name}`"
        );
        self.values.insert(name, value);
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// `true` when at least one op ran and none failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The result line, `{"correct", "attempted", "failed", "metrics"}`,
    /// with every metric of `list`.
    pub fn to_json(&self, list: &[(&'static str, &'static str)]) -> String {
        let mut w = JsonWriter::compact();
        w.begin_object();
        w.field_bool("correct", self.correct());
        w.field_u64("attempted", self.attempted);
        w.field_u64("failed", self.failed);
        w.key("metrics");
        w.begin_object();
        for (name, unit) in list {
            let v = self.get(name).unwrap_or(0.0);
            w.key(name);
            w.begin_object();
            w.field_f64("value", if v.is_finite() { v } else { 0.0 });
            w.field_str("unit", unit);
            w.end_object();
        }
        w.end_object();
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbound_core::jsonin::Json;

    /// The metric lists here and in `BENCHMARK.json` agree name for name
    /// and unit for unit.
    #[test]
    fn lists_match_the_benchmark_definition() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark");
        let def = Json::parse(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            def.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let ours = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
    }

    #[test]
    fn result_line_lists_every_metric() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("ops_per_s", 2.5);
        let line = r.to_json(&END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        let v = Json::parse(&line).expect("valid JSON");
        let metrics = v.get("metrics").expect("metrics");
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).expect(name);
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
        }
        assert_eq!(
            metrics
                .get("ops_per_s")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(2.5)
        );
    }

    #[test]
    #[should_panic(expected = "unlisted metric")]
    fn unlisted_metric_is_a_bug() {
        Report::default().set("nope", 1.0);
    }
}
