//! Counters that the benchmark (`xbench/`) still reads through
//! `xbound_service::Scheduler::memo_stats`.
//!
//! The subtree memo and the segment-power cache these counters described
//! are gone: a co-analysis is a pure function of (image, knobs), which the
//! service's content-addressed bound cache already answers on repeats, and
//! an edit that inserts an instruction shifts every later address, so few
//! memo lookups ever matched. [`MemoStats`] stays, always zero, until the
//! benchmark's next change drops its `memo.*` metrics.

/// Always-zero counter snapshot, kept only for the benchmark's `memo.*`
/// metrics; it goes at the next change to the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Always 0.
    pub hits: u64,
    /// Always 0.
    pub misses: u64,
    /// Always 0.
    pub stitched_segments: u64,
    /// Always 0.
    pub power_hits: u64,
    /// Always 0.
    pub power_misses: u64,
}
