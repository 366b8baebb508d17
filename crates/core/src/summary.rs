//! A serializable summary of one co-analysis — the value the co-analysis
//! service caches and returns, and the bounds record `suite_summary`
//! publishes.
//!
//! [`Analysis`] itself borrows the system and holds the full annotated
//! execution tree; [`BoundsReport`] is the owned, wire-friendly subset:
//! the peak power / peak energy / NPE bounds plus the deterministic
//! exploration statistics. Its JSON form ([`BoundsReport::to_json`]) is
//! canonical — stable field order, exact-round-trip floats — so the same
//! analysis produces the same bytes whether it ran directly
//! (`suite_summary`), inside the daemon, or was replayed from the
//! daemon's on-disk cache.

use crate::jsonout::JsonWriter;
use crate::peak_power::{PeakEnergyResult, PeakPowerResult};
use crate::tree::ExecutionTree;
use crate::{Analysis, ExploreStats};

/// The owned, serializable bounds of one co-analysis.
///
/// Every field is deterministic: bit-identical at any `(threads, lanes)`
/// setting (the lane-width dependent [`crate::BatchExploreStats`]
/// telemetry is deliberately excluded, so cached and fresh answers
/// compare equal).
#[derive(Debug, Clone, PartialEq)]
pub struct BoundsReport {
    /// Peak power bound, milliwatts.
    pub peak_mw: f64,
    /// Global cycle index of the peak.
    pub peak_cycle: u64,
    /// Normalized peak energy bound, J/cycle.
    pub npe_j_per_cycle: f64,
    /// Peak energy bound over a full execution, joules.
    pub peak_energy_j: f64,
    /// Cycles of the energy-maximizing path.
    pub energy_cycles: u64,
    /// Whether the peak-energy value iteration converged.
    pub converged: bool,
    /// Execution-tree segments.
    pub segments: u64,
    /// Total simulated cycles committed to the tree.
    pub cycles: u64,
    /// Forks encountered during exploration.
    pub forks: u64,
    /// States pruned by subsumption.
    pub merges: u64,
    /// States widened by the Chapter-6 heuristic.
    pub widenings: u64,
}

impl BoundsReport {
    /// Extracts the report from a finished analysis.
    pub fn from_analysis(a: &Analysis<'_>) -> BoundsReport {
        BoundsReport::from_parts(a.tree(), a.stats(), a.peak_power(), &a.peak_energy())
    }

    /// Assembles the report from the pipeline's parts — the
    /// operating-point sweep path, where one shared exploration feeds many
    /// per-corner Algorithm 2 / peak-energy results and no per-corner
    /// [`Analysis`] is ever materialized. [`BoundsReport::from_analysis`]
    /// delegates here, so both paths fill the fields identically.
    pub fn from_parts(
        tree: &ExecutionTree,
        stats: &ExploreStats,
        peak: &PeakPowerResult,
        energy: &PeakEnergyResult,
    ) -> BoundsReport {
        BoundsReport {
            peak_mw: peak.peak_mw,
            peak_cycle: peak.peak_cycle,
            npe_j_per_cycle: energy.npe_j_per_cycle,
            peak_energy_j: energy.peak_energy_j,
            energy_cycles: energy.cycles,
            converged: energy.converged,
            segments: tree.segments().len() as u64,
            cycles: stats.cycles,
            forks: stats.forks,
            merges: stats.merges,
            widenings: stats.widenings,
        }
    }

    /// Serializes the canonical single-line JSON object.
    ///
    /// Field order and number format are stable, and
    /// serialize → parse → serialize is the identity on bytes (floats use
    /// the shortest exact representation; see [`crate::jsonout`]) — the
    /// byte-identity contract between the direct path and the service.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::compact();
        self.write(&mut w);
        w.finish()
    }

    /// Writes the report as the next value of `w` (an object), for
    /// embedding inside a larger document.
    pub fn write(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_f64("peak_mw", self.peak_mw);
        w.field_u64("peak_cycle", self.peak_cycle);
        w.field_f64("npe_j_per_cycle", self.npe_j_per_cycle);
        w.field_f64("peak_energy_j", self.peak_energy_j);
        w.field_u64("energy_cycles", self.energy_cycles);
        w.field_bool("converged", self.converged);
        w.field_u64("segments", self.segments);
        w.field_u64("cycles", self.cycles);
        w.field_u64("forks", self.forks);
        w.field_u64("merges", self.merges);
        w.field_u64("widenings", self.widenings);
        w.end_object();
    }
}

/// The canonical one-line per-benchmark bounds record,
/// `{"name": ..., "bounds": {...}}` — shared by `suite_summary --bounds`
/// files and the co-analysis service's suite stream, so the two paths
/// can be diffed byte-for-byte (the CI service smoke contract).
pub fn bounds_line(name: &str, report: &BoundsReport) -> String {
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.field_str("name", name);
    w.key("bounds");
    report.write(&mut w);
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BoundsReport {
        BoundsReport {
            peak_mw: 1.0 / 3.0,
            peak_cycle: 42,
            npe_j_per_cycle: 1.25e-13,
            peak_energy_j: 6.5e-9,
            energy_cycles: 1000,
            converged: true,
            segments: 7,
            cycles: 12345,
            forks: 3,
            merges: 2,
            widenings: 0,
        }
    }

    #[test]
    fn json_has_stable_order_and_reserializes_identically() {
        let r = sample();
        let s = r.to_json();
        assert!(s.starts_with("{\"peak_mw\": "), "{s}");
        assert!(s.contains("\"converged\": true"), "{s}");
        // Round-tripping the floats through text and re-serializing is
        // the identity on bytes.
        let peak: f64 = s
            .split("\"peak_mw\": ")
            .nth(1)
            .and_then(|t| t.split(',').next())
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(peak.to_bits(), r.peak_mw.to_bits());
        let again = BoundsReport { peak_mw: peak, ..r };
        assert_eq!(again.to_json(), s);
    }
}
