//! The annotated symbolic execution tree of Algorithm 1.
//!
//! The tree is stored as a set of [`Segment`]s: maximal fork-free runs of
//! cycles. Each segment holds the settled value [`Frame`] of every cycle it
//! covers. A segment ends in one of the [`SegmentEnd`] outcomes:
//! completion of the application, a fork on an input-dependent branch, or a
//! merge into an already-explored state (the memoization of Algorithm 1,
//! which is what lets input-dependent loops terminate).

use xbound_logic::Frame;

/// Index of a segment in the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegmentId(pub u32);

impl SegmentId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Which way a fork went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ForkChoice {
    /// `branch_taken` forced to 1.
    Taken,
    /// `branch_taken` forced to 0.
    NotTaken,
}

/// How a segment ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentEnd {
    /// The application reached its final self-loop (`jmp $`).
    Halt,
    /// Input-dependent branch: both directions continue in child segments.
    Fork {
        /// Program counter of the branch instruction.
        branch_pc: u16,
        /// Child segment for `branch_taken = 1`.
        taken: SegmentId,
        /// Child segment for `branch_taken = 0`.
        not_taken: SegmentId,
    },
    /// The post-branch state is covered by an already-explored state: the
    /// continuation is the covering segment (possibly an ancestor — a loop).
    Merged {
        /// Segment whose explored state covers this one.
        into: SegmentId,
        /// Program counter after the branch.
        at_pc: u16,
        /// `true` when the merged state was widened first (Ch. 6 heuristic).
        widened: bool,
    },
    /// Exploration stopped at the cycle budget (bound still sound for the
    /// explored prefix; reported as an error by default).
    Truncated,
}

/// A fork-free run of simulated cycles.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Parent segment and the fork direction that led here (None for root).
    pub parent: Option<(SegmentId, ForkChoice)>,
    /// Global cycle index of `frames[0]` (root starts at 0).
    pub start_cycle: u64,
    /// Settled per-cycle frames (including the forced branch cycle for
    /// fork children).
    pub frames: Vec<Frame>,
    /// How the segment ends.
    pub end: SegmentEnd,
}

impl Segment {
    /// Number of cycles covered.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// `true` when the segment covers no cycles.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Global cycle index of frame `i`.
    pub fn global_cycle(&self, i: usize) -> u64 {
        self.start_cycle + i as u64
    }
}

/// The annotated execution tree.
#[derive(Debug, Clone)]
pub struct ExecutionTree {
    segments: Vec<Segment>,
}

impl ExecutionTree {
    pub(crate) fn new() -> ExecutionTree {
        ExecutionTree {
            segments: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, seg: Segment) -> SegmentId {
        self.segments.push(seg);
        SegmentId((self.segments.len() - 1) as u32)
    }

    pub(crate) fn get_mut(&mut self, id: SegmentId) -> &mut Segment {
        &mut self.segments[id.index()]
    }

    /// All segments; index by [`SegmentId`]. Segment 0 is the root.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// One segment.
    pub fn segment(&self, id: SegmentId) -> &Segment {
        &self.segments[id.index()]
    }

    /// The root segment id.
    pub fn root(&self) -> SegmentId {
        SegmentId(0)
    }

    /// Total simulated cycles across all segments.
    pub fn total_cycles(&self) -> u64 {
        self.segments.iter().map(|s| s.len() as u64).sum()
    }

    /// Number of forks in the tree.
    pub fn fork_count(&self) -> usize {
        self.segments
            .iter()
            .filter(|s| matches!(s.end, SegmentEnd::Fork { .. }))
            .count()
    }

    /// Number of merges (memoization hits).
    pub fn merge_count(&self) -> usize {
        self.segments
            .iter()
            .filter(|s| matches!(s.end, SegmentEnd::Merged { .. }))
            .count()
    }

    /// Frame preceding `seg`'s first frame (the parent's last frame), if any.
    pub fn boundary_prev(&self, id: SegmentId) -> Option<&Frame> {
        let seg = self.segment(id);
        let (pid, _) = seg.parent?;
        self.segment(pid).frames.last()
    }

    /// Iterates `(segment id, cycle index, frame)` in depth-first order —
    /// the "flattened execution trace" of Algorithm 2.
    pub fn flattened(&self) -> impl Iterator<Item = (SegmentId, usize, &Frame)> {
        // DFS order by construction: children are pushed after parents and
        // exploration is depth-first, so plain index order is a valid
        // flattening.
        self.segments.iter().enumerate().flat_map(|(si, seg)| {
            seg.frames
                .iter()
                .enumerate()
                .map(move |(ci, f)| (SegmentId(si as u32), ci, f))
        })
    }

    /// The per-gate *potentially-toggled* annotation of Algorithm 1: a net
    /// is potentially active at a cycle if its value changed from the
    /// previous cycle or either endpoint is X.
    ///
    /// Returns the set packed one bit per net (`net_count.div_ceil(64)`
    /// words, net `i` at bit `i % 64` of word `i / 64`): set if the net
    /// can possibly toggle at any point in any execution. Each segment's
    /// first frame pairs with its parent's last frame; the root's first
    /// frame has no predecessor and contributes nothing.
    pub fn potentially_toggled_words(&self, net_count: usize) -> Vec<u64> {
        let mut out = vec![0u64; net_count.div_ceil(64)];
        for (id, seg) in self.segments.iter().enumerate() {
            let frames = self
                .boundary_prev(SegmentId(id as u32))
                .into_iter()
                .chain(&seg.frames);
            for (prev, cur) in frames.clone().zip(frames.skip(1)) {
                prev.or_potential_toggle_words_into(cur, &mut out);
            }
        }
        out
    }
}
