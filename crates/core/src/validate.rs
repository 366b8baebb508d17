//! Validation of the X-based analysis (paper §3.4, Figs 12/13).
//!
//! Two checks demonstrate soundness:
//!
//! 1. **Toggle superset** — every gate that toggles in any input-based
//!    (concrete) execution must be marked potentially-toggled by the
//!    symbolic analysis;
//! 2. **Power dominance** — the per-cycle X-based peak-power bound must be
//!    ≥ the measured per-cycle power of any concrete execution, cycle by
//!    cycle along the path the concrete execution takes through the tree.

use crate::peak_power::PeakPowerResult;
use crate::tree::{ExecutionTree, SegmentEnd, SegmentId};
use xbound_logic::{Frame, Lv};

/// Result of the toggle-superset check (Fig 12).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupersetReport {
    /// Nets toggled by both the concrete run and the symbolic analysis.
    pub common: usize,
    /// Nets only the symbolic analysis marks (the conservative margin).
    pub x_only: usize,
    /// Nets toggled concretely but *not* marked symbolically — must be
    /// empty for a sound analysis.
    pub violations: Vec<usize>,
}

impl SupersetReport {
    /// `true` when the superset property holds.
    pub fn is_sound(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Compares a packed potentially-toggled set (see
/// [`ExecutionTree::potentially_toggled_words`]) against a concrete run's
/// frames: every consecutive pair's differing nets are ORed into packed
/// words, then the two sets are compared with the same kernel the
/// streamed [`crate::Analysis::validate_population`] uses.
///
/// # Panics
///
/// Panics if the frames are wider than the marked set.
pub fn check_toggle_superset(marked: &[u64], concrete_frames: &[Frame]) -> SupersetReport {
    let mut toggled = vec![0u64; marked.len()];
    for w in concrete_frames.windows(2) {
        w[0].or_diff_words_into(&w[1], &mut toggled);
    }
    superset_report(marked, &toggled)
}

/// The toggle-superset comparison of two packed net sets (one bit per
/// net, equal word counts, zero past the last net): `common` and
/// `x_only` are popcounts, `violations` the set bits of
/// `toggled & !marked` in ascending net order.
///
/// # Panics
///
/// Panics if the word counts differ.
pub(crate) fn superset_report(marked: &[u64], toggled: &[u64]) -> SupersetReport {
    assert_eq!(marked.len(), toggled.len(), "net set width mismatch");
    let mut common = 0;
    let mut x_only = 0;
    let mut violations = Vec::new();
    for (w, (&m, &t)) in marked.iter().zip(toggled).enumerate() {
        common += (m & t).count_ones() as usize;
        x_only += (m & !t).count_ones() as usize;
        let mut missed = t & !m;
        while missed != 0 {
            violations.push(w * 64 + missed.trailing_zeros() as usize);
            missed &= missed - 1;
        }
    }
    SupersetReport {
        common,
        x_only,
        violations,
    }
}

/// Follows a concrete run through the execution tree by matching branch
/// directions, returning `(segment, in-segment cycle)` for each concrete
/// cycle. `branch_taken` yields the run's `branch_taken` value at every
/// cycle (from frames: `frames.iter().map(|f| f.get(bt))`); only the
/// values at fork points are read. Returns `None` when the concrete run
/// leaves the explored tree (which indicates an analysis bug).
pub fn follow_path(
    tree: &ExecutionTree,
    branch_taken: impl IntoIterator<Item = Lv>,
) -> Option<Vec<(SegmentId, usize)>> {
    let branch_taken = branch_taken.into_iter();
    let mut out = Vec::with_capacity(branch_taken.size_hint().0);
    let mut seg = tree.root();
    let mut ci = 0usize;
    for dir in branch_taken {
        // Advance over merges: a merged segment's continuation is its
        // covering segment starting right after the branch frame.
        loop {
            if ci < tree.segment(seg).len() {
                break;
            }
            match tree.segment(seg).end {
                SegmentEnd::Fork {
                    taken, not_taken, ..
                } => {
                    seg = match dir {
                        Lv::One => taken,
                        Lv::Zero => not_taken,
                        Lv::X => return None,
                    };
                    ci = 0;
                }
                SegmentEnd::Merged { into, .. } => {
                    // The covering segment's first frame is its branch
                    // cycle, which this path has already executed once.
                    seg = into;
                    ci = 1;
                }
                SegmentEnd::Halt | SegmentEnd::Truncated => return None,
            }
        }
        out.push((seg, ci));
        ci += 1;
    }
    Some(out)
}

/// Soundness checks of one concrete run against an analysis, as produced
/// by [`crate::Analysis::validate_population`] — the Fig 12 toggle
/// superset and the Fig 13 power dominance in one record.
#[derive(Debug, Clone, PartialEq)]
pub struct ConcreteRunCheck {
    /// Toggle-superset report (Fig 12).
    pub superset: SupersetReport,
    /// Power-dominance report (Fig 13); `None` when the concrete run left
    /// the explored tree, which indicates an analysis bug.
    pub dominance: Option<DominanceReport>,
}

impl ConcreteRunCheck {
    /// `true` when both soundness properties hold for this run.
    pub fn is_sound(&self) -> bool {
        self.superset.is_sound() && self.dominance.as_ref().is_some_and(|d| d.is_sound())
    }
}

/// Result of the power-dominance check (Fig 13).
#[derive(Debug, Clone, PartialEq)]
pub struct DominanceReport {
    /// Cycles compared.
    pub cycles: usize,
    /// Minimum margin `bound − measured` over all cycles, milliwatts.
    pub min_margin_mw: f64,
    /// Mean of `bound / measured` (indicates how tight the bound is).
    pub mean_ratio: f64,
    /// Cycles where measured exceeded the bound (must be empty).
    pub violations: Vec<usize>,
}

impl DominanceReport {
    /// `true` when the bound dominates the measured trace everywhere.
    pub fn is_sound(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks per-cycle dominance of the bound over a measured concrete trace.
///
/// `branch_taken` yields the run's `branch_taken` value per cycle (see
/// [`follow_path`]), and `measured_mw[c]` must align with its cycle `c`
/// (same simulation).
pub fn check_power_dominance(
    tree: &ExecutionTree,
    peak: &PeakPowerResult,
    branch_taken: impl IntoIterator<Item = Lv>,
    measured_mw: &[f64],
) -> Option<DominanceReport> {
    let path = follow_path(tree, branch_taken)?;
    let mut min_margin = f64::INFINITY;
    let mut ratio_sum = 0.0;
    let mut ratio_n = 0usize;
    let mut violations = Vec::new();
    // Skip cycle 0 (no transitions by convention on both sides).
    for c in 1..path.len().min(measured_mw.len()) {
        let (sid, ci) = path[c];
        let bound = peak.bound_mw[sid.index()][ci];
        let meas = measured_mw[c];
        let margin = bound - meas;
        if margin < -1e-9 {
            violations.push(c);
        }
        min_margin = min_margin.min(margin);
        if meas > 1e-12 {
            ratio_sum += bound / meas;
            ratio_n += 1;
        }
    }
    Some(DominanceReport {
        cycles: path.len().saturating_sub(1),
        min_margin_mw: if min_margin.is_finite() {
            min_margin
        } else {
            0.0
        },
        mean_ratio: if ratio_n > 0 {
            ratio_sum / ratio_n as f64
        } else {
            1.0
        },
        violations,
    })
}
