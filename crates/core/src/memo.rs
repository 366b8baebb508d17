//! Execution-subtree memoization for incremental re-analysis.
//!
//! Simulating one fork-free run is a *pure function* of its starting
//! [`MachineState`] (see the batching discussion in [`crate::activity`]):
//! the program image lives in the snapshot's memories and the simulator
//! applies no other persistent stimulus. A path's result can therefore be
//! reused whenever a later exploration — of the same program, or of an
//! *edited* one — reaches an equivalent start state under equivalent
//! exploration knobs.
//!
//! # Key material
//!
//! An entry is addressed by the FNV-1a hash of
//!
//! * the **context hash** ([`context_hash`]): every result-relevant
//!   [`ExploreConfig`] knob (`max_segment_cycles`, `max_total_cycles`,
//!   `widen_threshold`, `reset_cycles`), the cell-library identifier, the
//!   operating clock, and the codec version. `threads` and `lanes` are
//!   deliberately **excluded** — path simulation is bit-identical at any
//!   `(threads, lanes)` setting, so changing them must still hit;
//! * the **remaining-budget position** (`pre_frames`): the per-segment
//!   cycle budget check reads `pre_frames + frames`, so the same state
//!   can truncate differently at a different budget position;
//! * the full **flip-flop vector** of the start state.
//!
//! # Read-footprint verification
//!
//! The memory image is *not* part of the key: hashing it would make every
//! start state of an edited program a guaranteed miss even though the
//! edit is invisible to most paths. Instead each entry stores the path's
//! **read footprint** — every `(region, offset, value)` memory word the
//! original simulation consulted before writing it itself (instruction
//! fetches included). A candidate hit must match the flip-flop vector
//! exactly and every footprint word. A one-instruction edit therefore
//! invalidates exactly the paths whose execution cone fetches the edited
//! word; everything else replays from the memo and is stitched into the
//! tree.
//!
//! # Replay
//!
//! An entry stores the path's settled frames (delta-coded against the
//! previous cycle) and its ending: halt, or a fork with both directions'
//! branch-cycle frame, after-state flip-flops, and the after-state's
//! memory as a **delta over the start state's memory** (every word the
//! path wrote, whether or not the write changed it). Replaying over a new
//! start state applies that delta to the *new* memories, so unread,
//! unwritten words — such as an edited instruction the path never fetches
//! — flow through to the forked children, which then miss and re-simulate
//! if they do read it.
//!
//! The driver's commit loop (subsumption, widening, segment numbering,
//! statistics) always re-runs on replayed results, so a warm
//! [`crate::Analysis`] is **byte-identical** to a cold one by
//! construction.
//!
//! # Persistence
//!
//! With a cache directory configured, every entry is mirrored to
//! `memo-<key>.json` — the same canonical [`crate::jsonout`] encoding and
//! the same write-then-rename discipline ([`crate::outdirs::write_atomic`])
//! as the service's bound cache, and by default the same
//! `XBOUND_CACHE_DIR`. Disk entries are loaded lazily on a memory miss
//! and re-verified in full before use; a malformed or stale file is
//! simply a miss.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use xbound_logic::{Frame, Lv, XWord};
use xbound_power::EnergyTrace;
use xbound_sim::MachineState;

use crate::activity::ExploreConfig;
use crate::jsonin::Json;
use crate::jsonout::JsonWriter;
use xbound_obs::{metrics, trace};

/// Registry mirrors of the memo's hit/miss telemetry. Unlike the
/// explorer (which mirrors once per run), these increment at the lookup
/// sites — a lookup already pays a map lock, so one relaxed add is
/// noise — which keeps the counters live for a shared daemon memo.
struct MemoMetrics {
    hits: metrics::Counter,
    misses: metrics::Counter,
    power_hits: metrics::Counter,
    power_misses: metrics::Counter,
}

fn memo_metrics() -> &'static MemoMetrics {
    static M: std::sync::OnceLock<MemoMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| MemoMetrics {
        hits: metrics::counter("xbound_memo_hits_total"),
        misses: metrics::counter("xbound_memo_misses_total"),
        power_hits: metrics::counter("xbound_memo_power_hits_total"),
        power_misses: metrics::counter("xbound_memo_power_misses_total"),
    })
}

/// Bumped whenever the on-disk entry layout or the key material changes;
/// folded into [`context_hash`] so stale files can never verify.
const CODEC_VERSION: u64 = 1;

/// Document marker of a persisted entry.
const DOC_KIND: &str = "xbound-subtree-memo";

/// Default in-memory budget (bytes of retained frames/state) when no
/// explicit capacity is given: generous enough to keep a whole suite
/// exploration resident, small enough not to matter on a CI runner.
const DEFAULT_BUDGET_BYTES: usize = 256 << 20;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// Incremental FNV-1a over little-endian byte material.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// The context half of the memo key: every knob outside the machine
/// state that can change what a path simulates to. `threads` and `lanes`
/// are excluded on purpose — results are bit-identical at any setting,
/// and re-analysis after a parallelism change must stay warm.
pub fn context_hash(config: &ExploreConfig, library: &str, clock_hz: f64) -> u64 {
    let mut h = Fnv::new();
    h.u64(CODEC_VERSION);
    h.u64(config.max_segment_cycles);
    h.u64(config.max_total_cycles);
    h.u64(config.widen_threshold as u64);
    h.u64(config.reset_cycles as u64);
    h.u64(library.len() as u64);
    h.bytes(library.as_bytes());
    h.u64(clock_hz.to_bits());
    h.0
}

/// The full memo key: context, budget position, start flip-flop vector.
fn key_hash(ctx: u64, pre_frames: u64, ffs: &[Lv]) -> u64 {
    let mut h = Fnv::new();
    h.u64(ctx);
    h.u64(pre_frames);
    h.u64(ffs.len() as u64);
    let mut packed = 0u64;
    let mut n = 0u32;
    for &v in ffs {
        packed |= (v.code() as u64) << (2 * n);
        n += 1;
        if n == 32 {
            h.u64(packed);
            packed = 0;
            n = 0;
        }
    }
    if n != 0 {
        h.u64(packed);
    }
    h.0
}

/// One fork direction as handed to [`SubtreeMemo::record`]: the forced
/// branch-cycle frame, the committed after-state, and every memory word
/// the path wrote up to this direction's end (the after-state delta).
pub struct RecordedDir<'a> {
    /// The direction's re-simulated branch-cycle frame.
    pub first_frame: &'a Frame,
    /// Machine state after committing the branch cycle.
    pub after: &'a MachineState,
    /// `(region, offset)` of every word written on the path including
    /// this direction's branch cycle — the complete set of words where
    /// `after`'s memory may differ from the start state's.
    pub written: &'a [(u16, u32)],
}

/// How a recorded path ended. Only halting and forking paths are
/// memoizable — truncation depends on the global budget, and errors must
/// re-diagnose.
pub enum PathOutcome<'a> {
    /// Reached the final self-loop.
    Halt,
    /// Input-dependent branch; both directions pre-simulated.
    Fork {
        /// PC of the branch instruction.
        branch_pc: u16,
        /// Direction data, in `[taken, not-taken]` order.
        dirs: Vec<RecordedDir<'a>>,
    },
}

/// A memo hit, reconstructed for the caller's start state.
pub struct ReplayedPath {
    /// The path's settled frames, bit-identical to re-simulation.
    pub frames: Vec<Frame>,
    /// How the path ended.
    pub end: ReplayedEnd,
}

/// The ending of a [`ReplayedPath`].
pub enum ReplayedEnd {
    /// Reached the final self-loop.
    Halt,
    /// Fork: per direction, the branch-cycle frame and the after-state
    /// (the recorded write delta applied over the *caller's* memories).
    Fork {
        /// PC of the branch instruction.
        branch_pc: u16,
        /// `[taken, not-taken]` direction states.
        dirs: Vec<(Frame, MachineState)>,
    },
}

/// Stored fork-direction data (delta-coded).
struct StoredDir {
    first_frame: Frame,
    ffs_after: Vec<Lv>,
    /// Sorted `(region, offset, value)` for every written word.
    mem_delta: Vec<(u16, u32, XWord)>,
}

enum StoredEnd {
    Halt,
    Fork {
        branch_pc: u16,
        dirs: Vec<StoredDir>,
    },
}

/// One memoized path. Frames are delta-coded against the previous cycle
/// (`first` in full, then per-cycle `(net, value)` changes), which keeps
/// resident memory proportional to switching activity instead of
/// `frames × design size`.
struct Entry {
    ctx: u64,
    pre_frames: u64,
    ffs: Vec<Lv>,
    /// Sorted read footprint: `(region, offset, value-as-read)`.
    reads: Vec<(u16, u32, XWord)>,
    frame_count: usize,
    first: Option<Frame>,
    deltas: Vec<Vec<(u32, u8)>>,
    end: StoredEnd,
    /// Approximate resident size, for the byte-budget LRU.
    bytes: usize,
    /// LRU stamp (monotonic use counter).
    stamp: u64,
}

impl Entry {
    fn approx_bytes(&self) -> usize {
        let frame_bytes = |f: &Frame| f.len() / 4 + 48;
        let mut n = 128;
        n += self.ffs.len();
        n += self.reads.len() * 12;
        n += self.first.as_ref().map_or(0, frame_bytes);
        n += self.deltas.iter().map(|d| d.len() * 6 + 32).sum::<usize>();
        if let StoredEnd::Fork { dirs, .. } = &self.end {
            for d in dirs {
                n += frame_bytes(&d.first_frame) + d.ffs_after.len() + d.mem_delta.len() * 12;
            }
        }
        n
    }

    /// Reconstructs the frame sequence (exact, by delta application).
    fn frames(&self) -> Vec<Frame> {
        let mut out = Vec::with_capacity(self.frame_count);
        if let Some(first) = &self.first {
            let mut cur = first.clone();
            out.push(cur.clone());
            for d in &self.deltas {
                for &(i, code) in d {
                    cur.set(i as usize, Lv::from_code(code));
                }
                out.push(cur.clone());
            }
        }
        out
    }

    /// Full verification of a candidate hit: context, budget position,
    /// exact flip-flop vector, every footprint word, and delta bounds.
    fn verify(&self, ctx: u64, pre_frames: u64, start: &MachineState) -> bool {
        if self.ctx != ctx || self.pre_frames != pre_frames || self.ffs.as_slice() != start.ffs() {
            return false;
        }
        let mems = start.mems();
        let word = |r: u16, o: u32| {
            mems.get(r as usize)
                .and_then(|m| m.get(o as usize))
                .copied()
        };
        if !self.reads.iter().all(|&(r, o, v)| word(r, o) == Some(v)) {
            return false;
        }
        if let StoredEnd::Fork { dirs, .. } = &self.end {
            for d in dirs {
                if !d.mem_delta.iter().all(|&(r, o, _)| word(r, o).is_some()) {
                    return false;
                }
            }
        }
        true
    }

    /// Builds the caller-facing replay over `start`'s memories.
    fn replay(&self, start: &MachineState) -> ReplayedPath {
        let frames = self.frames();
        let cycle_after = start.cycle() + frames.len() as u64 + 1;
        let end = match &self.end {
            StoredEnd::Halt => ReplayedEnd::Halt,
            StoredEnd::Fork { branch_pc, dirs } => ReplayedEnd::Fork {
                branch_pc: *branch_pc,
                dirs: dirs
                    .iter()
                    .map(|d| {
                        let mut mems: Vec<Vec<XWord>> = start.mems().to_vec();
                        for &(r, o, v) in &d.mem_delta {
                            mems[r as usize][o as usize] = v;
                        }
                        let after =
                            MachineState::from_parts(d.ffs_after.clone(), mems, cycle_after);
                        (d.first_frame.clone(), after)
                    })
                    .collect(),
            },
        };
        ReplayedPath { frames, end }
    }
}

/// Counter snapshot for telemetry (service `stats`, driver summaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Verified lookups served from the memo (memory or disk).
    pub hits: u64,
    /// Lookups that had to simulate.
    pub misses: u64,
    /// Segments stitched from replays: the replayed segment itself plus
    /// one per fork direction it seeded.
    pub stitched_segments: u64,
    /// Segment energy-trace pairs served from the segment-power cache
    /// (Algorithm 2 traces replayed instead of recomputed).
    pub power_hits: u64,
    /// Segment energy-trace pairs that had to recompute.
    pub power_misses: u64,
}

/// A concurrent, byte-budgeted, optionally disk-backed store of memoized
/// execution-subtree paths. Shared across analyses (and across service
/// worker threads) behind an [`Arc`].
pub struct SubtreeMemo {
    inner: Mutex<HashMap<u64, Entry>>,
    dir: Option<PathBuf>,
    budget_bytes: usize,
    resident_bytes: AtomicU64,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    stitched: AtomicU64,
    power: SegmentPowerCache,
}

impl std::fmt::Debug for SubtreeMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubtreeMemo")
            .field("dir", &self.dir)
            .field("budget_bytes", &self.budget_bytes)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl SubtreeMemo {
    /// A store with an optional persistence directory and an in-memory
    /// byte budget (least-recently-used entries are evicted past it; disk
    /// mirrors are never evicted).
    pub fn new(dir: Option<PathBuf>, budget_bytes: usize) -> SubtreeMemo {
        SubtreeMemo {
            inner: Mutex::new(HashMap::new()),
            dir,
            budget_bytes,
            resident_bytes: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stitched: AtomicU64::new(0),
            power: SegmentPowerCache::new(budget_bytes),
        }
    }

    /// An in-memory-only store with the default budget.
    pub fn in_memory() -> SubtreeMemo {
        SubtreeMemo::new(None, DEFAULT_BUDGET_BYTES)
    }

    /// A disk-backed store with the default budget.
    pub fn with_dir(dir: PathBuf) -> SubtreeMemo {
        SubtreeMemo::new(Some(dir), DEFAULT_BUDGET_BYTES)
    }

    /// Current counter values.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stitched_segments: self.stitched.load(Ordering::Relaxed),
            power_hits: self.power.hits.load(Ordering::Relaxed),
            power_misses: self.power.misses.load(Ordering::Relaxed),
        }
    }

    /// The segment-power cache riding along with this store (in-memory
    /// only; it shares the store's byte budget semantics but not its
    /// persistence — traces are recomputed per process).
    pub fn power(&self) -> &SegmentPowerCache {
        &self.power
    }

    /// Number of resident (in-memory) entries.
    pub fn entries(&self) -> usize {
        self.inner.lock().expect("memo lock").len()
    }

    /// Persistence directory, when disk-backed.
    pub fn dir(&self) -> Option<&PathBuf> {
        self.dir.as_ref()
    }

    /// Looks a path up by `(ctx, pre_frames, start)`. A verified entry is
    /// replayed over `start`'s memories; anything else (absent key, hash
    /// collision, footprint mismatch, stale disk file) is a miss.
    pub fn lookup(&self, ctx: u64, pre_frames: u64, start: &MachineState) -> Option<ReplayedPath> {
        let _span = trace::span("memo_lookup");
        let key = key_hash(ctx, pre_frames, start.ffs());
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        {
            let mut map = self.inner.lock().expect("memo lock");
            if let Some(e) = map.get_mut(&key) {
                if e.verify(ctx, pre_frames, start) {
                    e.stamp = stamp;
                    let replayed = e.replay(start);
                    self.count_hit(&e.end);
                    return Some(replayed);
                }
                self.count_miss();
                return None;
            }
        }
        // Memory miss: try the disk mirror (written by an earlier process
        // or evicted earlier in this one), verify in full, then adopt.
        if let Some(e) = self.load_from_disk(key, ctx, pre_frames, start) {
            let replayed = e.replay(start);
            self.count_hit(&e.end);
            self.insert(key, e);
            return Some(replayed);
        }
        self.count_miss();
        None
    }

    fn count_hit(&self, end: &StoredEnd) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        memo_metrics().hits.inc();
        let stitched = match end {
            StoredEnd::Halt => 1,
            StoredEnd::Fork { dirs, .. } => 1 + dirs.len() as u64,
        };
        self.stitched.fetch_add(stitched, Ordering::Relaxed);
    }

    fn count_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        memo_metrics().misses.inc();
    }

    /// Records one committed path. `reads` is the path's read footprint;
    /// `frames` its settled frames (for forks, the branch-cycle frame
    /// already popped). Replayed results must not be re-recorded (the
    /// driver only records paths that carry a footprint).
    pub fn record(
        &self,
        ctx: u64,
        pre_frames: u64,
        start: &MachineState,
        frames: &[Frame],
        reads: &[(u16, u32, XWord)],
        outcome: PathOutcome<'_>,
    ) {
        let key = key_hash(ctx, pre_frames, start.ffs());
        let mut sorted_reads = reads.to_vec();
        sorted_reads.sort_unstable_by_key(|&(r, o, _)| (r, o));
        let end = match outcome {
            PathOutcome::Halt => StoredEnd::Halt,
            PathOutcome::Fork { branch_pc, dirs } => StoredEnd::Fork {
                branch_pc,
                dirs: dirs
                    .iter()
                    .map(|d| {
                        let mems = d.after.mems();
                        let mut delta: Vec<(u16, u32, XWord)> = d
                            .written
                            .iter()
                            .map(|&(r, o)| (r, o, mems[r as usize][o as usize]))
                            .collect();
                        delta.sort_unstable_by_key(|&(r, o, _)| (r, o));
                        StoredDir {
                            first_frame: d.first_frame.clone(),
                            ffs_after: d.after.ffs().to_vec(),
                            mem_delta: delta,
                        }
                    })
                    .collect(),
            },
        };
        let (first, deltas) = delta_code(frames);
        let mut entry = Entry {
            ctx,
            pre_frames,
            ffs: start.ffs().to_vec(),
            reads: sorted_reads,
            frame_count: frames.len(),
            first,
            deltas,
            end,
            bytes: 0,
            stamp: self.clock.fetch_add(1, Ordering::Relaxed),
        };
        entry.bytes = entry.approx_bytes();
        if let Some(dir) = &self.dir {
            let doc = encode(key, &entry);
            let path = dir.join(format!("memo-{key:016x}.json"));
            // Persistence is best-effort: a full disk must not fail the
            // analysis that produced the entry.
            let _ = crate::outdirs::write_atomic(&path, doc.as_bytes());
        }
        self.insert(key, entry);
    }

    fn insert(&self, key: u64, entry: Entry) {
        let mut map = self.inner.lock().expect("memo lock");
        let added = entry.bytes as u64;
        let removed = map.insert(key, entry).map_or(0, |old| old.bytes as u64);
        let mut resident =
            self.resident_bytes.fetch_add(added, Ordering::Relaxed) + added - removed;
        self.resident_bytes.fetch_sub(removed, Ordering::Relaxed);
        // Byte-budget LRU: evict stalest entries until back under budget.
        while resident > self.budget_bytes as u64 && map.len() > 1 {
            let oldest = map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(&k, _)| k)
                .expect("non-empty map");
            if oldest == key {
                break; // never evict the entry just inserted
            }
            let evicted = map.remove(&oldest).expect("present").bytes as u64;
            self.resident_bytes.fetch_sub(evicted, Ordering::Relaxed);
            resident -= evicted;
        }
    }

    fn load_from_disk(
        &self,
        key: u64,
        ctx: u64,
        pre_frames: u64,
        start: &MachineState,
    ) -> Option<Entry> {
        let dir = self.dir.as_ref()?;
        let path = dir.join(format!("memo-{key:016x}.json"));
        let text = std::fs::read_to_string(path).ok()?;
        let mut entry = decode(&text)?;
        if key_hash(entry.ctx, entry.pre_frames, &entry.ffs) != key
            || !entry.verify(ctx, pre_frames, start)
        {
            return None;
        }
        entry.stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        Some(entry)
    }
}

// --- segment-power cache ----------------------------------------------

/// The key of one [`SegmentPowerCache`] entry: exactly what Algorithm 2
/// reads for one (segment, derated library) — the library name, the
/// stability flag, the segment's start-cycle parity, the parent's
/// adjusted last frame, and the segment's adjusted frames (delta-coded,
/// the same canonical form the subtree memo persists).
///
/// A key is built once per segment lookup and handed to
/// [`SegmentPowerCache::record`] on a miss, so each segment is hashed and
/// delta-coded once.
#[derive(Debug, PartialEq)]
pub(crate) struct PowerKey {
    hash: u64,
    library: String,
    use_stability: bool,
    odd_start: bool,
    boundary: Option<Frame>,
    first: Option<Frame>,
    deltas: Vec<Vec<(u32, u8)>>,
}

impl PowerKey {
    /// The key of one segment's trace pair under `library`.
    pub(crate) fn new(
        library: &str,
        use_stability: bool,
        odd_start: bool,
        boundary: Option<&Frame>,
        frames: &[Frame],
    ) -> PowerKey {
        let mut h = Fnv::new();
        h.u64(library.len() as u64);
        h.bytes(library.as_bytes());
        h.u64(u64::from(use_stability));
        h.u64(u64::from(odd_start));
        h.u64(boundary.map_or(u64::MAX, Frame::content_hash));
        h.u64(frames.len() as u64);
        for f in frames {
            h.u64(f.content_hash());
        }
        let (first, deltas) = delta_code(frames);
        PowerKey {
            hash: h.0,
            library: library.to_string(),
            use_stability,
            odd_start,
            boundary: boundary.cloned(),
            first,
            deltas,
        }
    }
}

/// One cached segment trace pair, with its full key for exact
/// verification.
struct PowerEntry {
    key: PowerKey,
    even: EnergyTrace,
    odd: EnergyTrace,
    bytes: usize,
    stamp: u64,
}

impl PowerEntry {
    fn approx_bytes(&self) -> usize {
        let frame_bytes = |f: &Frame| f.len() / 4 + 48;
        let k = &self.key;
        let mut n = 128 + k.library.len();
        n += k.boundary.as_ref().map_or(0, frame_bytes);
        n += k.first.as_ref().map_or(0, frame_bytes);
        n += k.deltas.iter().map(|d| d.len() * 6 + 32).sum::<usize>();
        n += (self.even.approx_bytes() + self.odd.approx_bytes()) as usize;
        n
    }
}

/// In-memory cache of per-segment Algorithm 2 results: the even/odd
/// [`EnergyTrace`] pair of one (segment, derated library), keyed by
/// exactly what that computation reads — the library name, the stability
/// flag, the segment's start-cycle parity, the parent's adjusted last
/// frame, and the segment's adjusted frames. Hits are verified by full
/// equality of the key, so a replayed trace pair is bit-identical to a
/// recomputation by construction. [`crate::sweep::bound_tree`] looks
/// each (segment, library) up and records its misses.
///
/// Neither the clock nor the exploration knobs are key material: energy
/// traces are clock-free (each analysis converts them at its own clock),
/// and the key holds the adjusted frames themselves, whatever explored
/// them. A re-analysis at another clock, or under other exploration
/// knobs that reach the same frames, hits.
///
/// Unlike the subtree memo this cache is never persisted: traces are
/// process-local and rebuild on first (cold) use.
pub struct SegmentPowerCache {
    inner: Mutex<HashMap<u64, PowerEntry>>,
    budget_bytes: usize,
    resident_bytes: AtomicU64,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for SegmentPowerCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentPowerCache")
            .field("budget_bytes", &self.budget_bytes)
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl SegmentPowerCache {
    fn new(budget_bytes: usize) -> SegmentPowerCache {
        SegmentPowerCache {
            inner: Mutex::new(HashMap::new()),
            budget_bytes,
            resident_bytes: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks one segment's trace pair up. A hit requires the whole key to
    /// verify by equality; anything else is a miss.
    pub(crate) fn lookup(&self, key: &PowerKey) -> Option<(EnergyTrace, EnergyTrace)> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut map = self.inner.lock().expect("power cache lock");
        if let Some(e) = map.get_mut(&key.hash) {
            if e.key == *key {
                e.stamp = stamp;
                self.hits.fetch_add(1, Ordering::Relaxed);
                memo_metrics().power_hits.inc();
                return Some((e.even.clone(), e.odd.clone()));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        memo_metrics().power_misses.inc();
        None
    }

    /// Records one segment's computed trace pair under the key its
    /// missed lookup built.
    pub(crate) fn record(&self, key: PowerKey, even: &EnergyTrace, odd: &EnergyTrace) {
        let hash = key.hash;
        let mut entry = PowerEntry {
            key,
            even: even.clone(),
            odd: odd.clone(),
            bytes: 0,
            stamp: self.clock.fetch_add(1, Ordering::Relaxed),
        };
        entry.bytes = entry.approx_bytes();

        let mut map = self.inner.lock().expect("power cache lock");
        let added = entry.bytes as u64;
        let removed = map.insert(hash, entry).map_or(0, |old| old.bytes as u64);
        let mut resident =
            self.resident_bytes.fetch_add(added, Ordering::Relaxed) + added - removed;
        self.resident_bytes.fetch_sub(removed, Ordering::Relaxed);
        while resident > self.budget_bytes as u64 && map.len() > 1 {
            let oldest = map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(&k, _)| k)
                .expect("non-empty map");
            if oldest == hash {
                break; // never evict the entry just inserted
            }
            let evicted = map.remove(&oldest).expect("present").bytes as u64;
            self.resident_bytes.fetch_sub(evicted, Ordering::Relaxed);
            resident -= evicted;
        }
    }
}

/// Splits a frame sequence into `first` plus per-cycle `(net, code)`
/// deltas.
fn delta_code(frames: &[Frame]) -> (Option<Frame>, Vec<Vec<(u32, u8)>>) {
    let Some(first) = frames.first() else {
        return (None, Vec::new());
    };
    let deltas = frames
        .windows(2)
        .map(|w| {
            let mut d = Vec::new();
            w[1].for_each_diff(&w[0], |i| d.push((i as u32, w[1].get(i).code())));
            d
        })
        .collect();
    (Some(first.clone()), deltas)
}

// --- resolution from the environment ---------------------------------

/// `true` when `XBOUND_MEMO` explicitly disables memoization.
pub fn disabled_by_env() -> bool {
    matches!(
        std::env::var("XBOUND_MEMO").as_deref().map(str::trim),
        Ok("0") | Ok("off") | Ok("false") | Ok("no")
    )
}

/// Resolves a memo store for a CLI driver from `XBOUND_MEMO` and an
/// `--incremental`-style flag:
///
/// * `XBOUND_MEMO=0|off|false|no` — disabled, whatever the flag says;
/// * `XBOUND_MEMO=mem|memory` — enabled, in-memory only;
/// * `XBOUND_MEMO=1|on|true|yes` — enabled, persisted under the shared
///   cache directory ([`crate::outdirs::cache_dir`]);
/// * unset — follows `default_on` (drivers pass their `--incremental`
///   flag; the service passes `true`), persisted when enabled.
pub fn from_env(default_on: bool) -> Option<Arc<SubtreeMemo>> {
    let var = std::env::var("XBOUND_MEMO").ok();
    let choice = var.as_deref().map(str::trim).unwrap_or("");
    let (on, disk) = match choice {
        "0" | "off" | "false" | "no" => (false, false),
        "mem" | "memory" => (true, false),
        "1" | "on" | "true" | "yes" => (true, true),
        _ => (default_on, true),
    };
    if !on {
        return None;
    }
    let dir = if disk {
        // An unusable cache directory degrades to in-memory memoization.
        crate::outdirs::cache_dir(None).ok()
    } else {
        None
    };
    Some(Arc::new(SubtreeMemo::new(dir, DEFAULT_BUDGET_BYTES)))
}

// --- canonical JSON codec ---------------------------------------------

fn lv_string(ffs: &[Lv]) -> String {
    ffs.iter().map(|v| v.to_char()).collect()
}

fn frame_string(f: &Frame) -> String {
    (0..f.len()).map(|i| f.get(i).to_char()).collect()
}

fn encode(key: u64, e: &Entry) -> String {
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.field_str("kind", DOC_KIND);
    w.field_u64("version", CODEC_VERSION);
    w.field_str("key", &format!("{key:016x}"));
    w.field_str("ctx", &format!("{:016x}", e.ctx));
    w.field_u64("pre_frames", e.pre_frames);
    w.field_str("ffs", &lv_string(&e.ffs));
    w.key("reads");
    w.begin_array();
    for &(r, o, v) in &e.reads {
        w.u64_val(r as u64);
        w.u64_val(o as u64);
        w.u64_val(v.val_plane() as u64);
        w.u64_val(v.unk_plane() as u64);
    }
    w.end_array();
    w.key("frames");
    w.begin_array();
    if let Some(first) = &e.first {
        w.str_val(&frame_string(first));
        for d in &e.deltas {
            w.begin_array();
            for &(i, code) in d {
                w.u64_val((i as u64) * 4 + code as u64);
            }
            w.end_array();
        }
    }
    w.end_array();
    w.key("end");
    w.begin_object();
    match &e.end {
        StoredEnd::Halt => w.field_str("kind", "halt"),
        StoredEnd::Fork { branch_pc, dirs } => {
            w.field_str("kind", "fork");
            w.field_u64("branch_pc", *branch_pc as u64);
            w.key("dirs");
            w.begin_array();
            for d in dirs {
                w.begin_object();
                w.field_str("first", &frame_string(&d.first_frame));
                w.field_str("ffs", &lv_string(&d.ffs_after));
                w.key("delta");
                w.begin_array();
                for &(r, o, v) in &d.mem_delta {
                    w.u64_val(r as u64);
                    w.u64_val(o as u64);
                    w.u64_val(v.val_plane() as u64);
                    w.u64_val(v.unk_plane() as u64);
                }
                w.end_array();
                w.end_object();
            }
            w.end_array();
        }
    }
    w.end_object();
    w.end_object();
    w.finish()
}

fn lv_vec(s: &str) -> Option<Vec<Lv>> {
    s.chars().map(Lv::from_char).collect()
}

fn frame_from_string(s: &str) -> Option<Frame> {
    let mut f = Frame::new(s.chars().count());
    for (i, c) in s.chars().enumerate() {
        f.set(i, Lv::from_char(c)?);
    }
    Some(f)
}

/// Decodes a flattened `[region, offset, val_plane, unk_plane, ...]`
/// word list.
fn word_list(v: &Json) -> Option<Vec<(u16, u32, XWord)>> {
    let items = v.as_arr()?;
    if items.len() % 4 != 0 {
        return None;
    }
    items
        .chunks(4)
        .map(|c| {
            let r = u16::try_from(c[0].as_u64()?).ok()?;
            let o = u32::try_from(c[1].as_u64()?).ok()?;
            let val = u16::try_from(c[2].as_u64()?).ok()?;
            let unk = u16::try_from(c[3].as_u64()?).ok()?;
            Some((r, o, XWord::from_planes(val, unk)))
        })
        .collect()
}

fn decode(text: &str) -> Option<Entry> {
    let v = Json::parse(text).ok()?;
    if v.get("kind").and_then(Json::as_str) != Some(DOC_KIND)
        || v.get("version").and_then(Json::as_u64) != Some(CODEC_VERSION)
    {
        return None;
    }
    let hex = |field: &str| u64::from_str_radix(v.get(field)?.as_str()?, 16).ok();
    let ctx = hex("ctx")?;
    let pre_frames = v.get("pre_frames").and_then(Json::as_u64)?;
    let ffs = lv_vec(v.get("ffs")?.as_str()?)?;
    let reads = word_list(v.get("reads")?)?;
    let frame_items = v.get("frames")?.as_arr()?;
    let (first, deltas) = match frame_items.split_first() {
        None => (None, Vec::new()),
        Some((head, rest)) => {
            let first = frame_from_string(head.as_str()?)?;
            let nets = first.len() as u64;
            let deltas: Option<Vec<Vec<(u32, u8)>>> = rest
                .iter()
                .map(|d| {
                    d.as_arr()?
                        .iter()
                        .map(|n| {
                            let n = n.as_u64()?;
                            let (i, code) = (n / 4, (n % 4) as u8);
                            (i < nets && code <= 2).then_some((i as u32, code))
                        })
                        .collect()
                })
                .collect();
            (Some(first), deltas?)
        }
    };
    let frame_count = if first.is_some() { 1 + deltas.len() } else { 0 };
    let endv = v.get("end")?;
    let end = match endv.get("kind").and_then(Json::as_str)? {
        "halt" => StoredEnd::Halt,
        "fork" => {
            let branch_pc = u16::try_from(endv.get("branch_pc").and_then(Json::as_u64)?).ok()?;
            let dirs: Option<Vec<StoredDir>> = endv
                .get("dirs")?
                .as_arr()?
                .iter()
                .map(|d| {
                    Some(StoredDir {
                        first_frame: frame_from_string(d.get("first")?.as_str()?)?,
                        ffs_after: lv_vec(d.get("ffs")?.as_str()?)?,
                        mem_delta: word_list(d.get("delta")?)?,
                    })
                })
                .collect();
            StoredEnd::Fork {
                branch_pc,
                dirs: dirs?,
            }
        }
        _ => return None,
    };
    let mut entry = Entry {
        ctx,
        pre_frames,
        ffs,
        reads,
        frame_count,
        first,
        deltas,
        end,
        bytes: 0,
        stamp: 0,
    };
    entry.bytes = entry.approx_bytes();
    Some(entry)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(ffs: &[Lv], mems: Vec<Vec<XWord>>, cycle: u64) -> MachineState {
        MachineState::from_parts(ffs.to_vec(), mems, cycle)
    }

    fn small_frame(bits: &[Lv]) -> Frame {
        let mut f = Frame::new(bits.len());
        for (i, &v) in bits.iter().enumerate() {
            f.set(i, v);
        }
        f
    }

    fn demo_mems() -> Vec<Vec<XWord>> {
        vec![(0..8).map(XWord::from_u16).collect(), vec![XWord::ALL_X; 4]]
    }

    #[test]
    fn halt_path_round_trips_and_footprint_guards() {
        let memo = SubtreeMemo::in_memory();
        let ctx = 7;
        let start = state(&[Lv::Zero, Lv::One, Lv::X], demo_mems(), 10);
        let frames = vec![
            small_frame(&[Lv::Zero, Lv::Zero, Lv::One, Lv::X]),
            small_frame(&[Lv::One, Lv::Zero, Lv::One, Lv::X]),
            small_frame(&[Lv::One, Lv::X, Lv::Zero, Lv::Zero]),
        ];
        let reads = [(0u16, 3u32, XWord::from_u16(3))];
        memo.record(ctx, 1, &start, &frames, &reads, PathOutcome::Halt);

        let hit = memo.lookup(ctx, 1, &start).expect("same state hits");
        assert_eq!(hit.frames, frames);
        assert!(matches!(hit.end, ReplayedEnd::Halt));

        // An edit to a word the path read must miss ...
        let mut edited = demo_mems();
        edited[0][3] = XWord::from_u16(0x4242);
        assert!(memo
            .lookup(ctx, 1, &state(&[Lv::Zero, Lv::One, Lv::X], edited, 10))
            .is_none());
        // ... an edit elsewhere must still hit.
        let mut elsewhere = demo_mems();
        elsewhere[0][7] = XWord::from_u16(0x4242);
        assert!(memo
            .lookup(ctx, 1, &state(&[Lv::Zero, Lv::One, Lv::X], elsewhere, 10))
            .is_some());
        // Different ffs, pre_frames, or context must miss.
        assert!(memo
            .lookup(
                ctx,
                1,
                &state(&[Lv::Zero, Lv::One, Lv::One], demo_mems(), 10)
            )
            .is_none());
        assert!(memo.lookup(ctx, 0, &start).is_none());
        assert!(memo.lookup(ctx + 1, 1, &start).is_none());

        let s = memo.stats();
        assert_eq!((s.hits, s.misses), (2, 4));
    }

    #[test]
    fn fork_replay_applies_write_delta_over_new_memories() {
        let memo = SubtreeMemo::in_memory();
        let start = state(&[Lv::Zero], demo_mems(), 0);
        let frames = vec![small_frame(&[Lv::Zero, Lv::One])];
        // The path wrote RAM word (1, 2); direction states differ there.
        let mut after_mems = demo_mems();
        after_mems[1][2] = XWord::from_u16(0xAAAA);
        let after_taken = state(&[Lv::One], after_mems.clone(), 2);
        after_mems[1][2] = XWord::from_u16(0x5555);
        let after_not = state(&[Lv::X], after_mems, 2);
        let first = small_frame(&[Lv::One, Lv::One]);
        let written = [(1u16, 2u32)];
        memo.record(
            9,
            0,
            &start,
            &frames,
            &[],
            PathOutcome::Fork {
                branch_pc: 0xF00C,
                dirs: vec![
                    RecordedDir {
                        first_frame: &first,
                        after: &after_taken,
                        written: &written,
                    },
                    RecordedDir {
                        first_frame: &first,
                        after: &after_not,
                        written: &written,
                    },
                ],
            },
        );

        // Replay over *edited* memories: the unread, unwritten edit must
        // flow into both direction states; the written word must come
        // from the recorded delta.
        let mut edited = demo_mems();
        edited[0][5] = XWord::from_u16(0xBEEF);
        let hit = memo
            .lookup(9, 0, &state(&[Lv::Zero], edited, 0))
            .expect("footprint is empty — any memory hits");
        let ReplayedEnd::Fork { branch_pc, dirs } = hit.end else {
            panic!("expected fork")
        };
        assert_eq!(branch_pc, 0xF00C);
        assert_eq!(dirs.len(), 2);
        assert_eq!(dirs[0].1.mems()[1][2], XWord::from_u16(0xAAAA));
        assert_eq!(dirs[1].1.mems()[1][2], XWord::from_u16(0x5555));
        assert_eq!(dirs[0].1.mems()[0][5], XWord::from_u16(0xBEEF));
        assert_eq!(dirs[0].1.ffs(), &[Lv::One]);
        assert_eq!(dirs[1].1.ffs(), &[Lv::X]);
        // cycle_after = start.cycle + frames + 1
        assert_eq!(dirs[0].1.cycle(), 2);
        assert_eq!(memo.stats().stitched_segments, 3);
    }

    #[test]
    fn disk_mirror_survives_a_fresh_store() {
        let dir = std::env::temp_dir().join(format!("xbound-memo-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let start = state(&[Lv::One, Lv::X], demo_mems(), 4);
        let frames = vec![
            small_frame(&[Lv::X, Lv::Zero]),
            small_frame(&[Lv::One, Lv::Zero]),
        ];
        let reads = [(1u16, 1u32, XWord::ALL_X)];
        {
            let memo = SubtreeMemo::with_dir(dir.clone());
            memo.record(3, 1, &start, &frames, &reads, PathOutcome::Halt);
        }
        let fresh = SubtreeMemo::with_dir(dir.clone());
        assert_eq!(fresh.entries(), 0);
        let hit = fresh.lookup(3, 1, &start).expect("loaded from disk");
        assert_eq!(hit.frames, frames);
        assert_eq!(fresh.entries(), 1, "disk hit adopted into memory");
        // A read-word mismatch is re-verified on the disk path too.
        let mut edited = demo_mems();
        edited[1][1] = XWord::from_u16(0);
        let other = SubtreeMemo::with_dir(dir.clone());
        assert!(other
            .lookup(3, 1, &state(&[Lv::One, Lv::X], edited, 4))
            .is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn codec_round_trips_canonically() {
        let start = state(&[Lv::Zero, Lv::X], demo_mems(), 0);
        let frames = vec![
            small_frame(&[Lv::Zero, Lv::One, Lv::X]),
            small_frame(&[Lv::One, Lv::One, Lv::X]),
        ];
        let first = small_frame(&[Lv::X, Lv::X, Lv::Zero]);
        let after = state(&[Lv::One, Lv::Zero], demo_mems(), 3);
        let written = [(1u16, 3u32)];
        let memo = SubtreeMemo::in_memory();
        memo.record(
            11,
            1,
            &start,
            &frames,
            &[(0, 0, XWord::from_u16(0))],
            PathOutcome::Fork {
                branch_pc: 0x1234,
                dirs: vec![
                    RecordedDir {
                        first_frame: &first,
                        after: &after,
                        written: &written,
                    },
                    RecordedDir {
                        first_frame: &first,
                        after: &after,
                        written: &written,
                    },
                ],
            },
        );
        let map = memo.inner.lock().unwrap();
        let (&key, entry) = map.iter().next().expect("one entry");
        let doc = encode(key, entry);
        let back = decode(&doc).expect("decodes");
        assert_eq!(encode(key, &back), doc, "encode∘decode is the identity");
        assert_eq!(back.frames(), frames);
        assert!(back.verify(11, 1, &start));
    }

    #[test]
    fn context_hash_tracks_result_relevant_knobs_only() {
        let base = ExploreConfig::default();
        let h = |c: &ExploreConfig, lib: &str, hz: f64| context_hash(c, lib, hz);
        let reference = h(&base, "ulp65", 1e8);
        // threads / lanes are scheduling, not results: same context.
        let mut c = base;
        c.threads = 7;
        c.lanes = 16;
        assert_eq!(h(&c, "ulp65", 1e8), reference);
        // Every result-relevant knob and operating-point input changes it.
        for f in [
            (&mut |c: &mut ExploreConfig| c.max_segment_cycles += 1)
                as &mut dyn FnMut(&mut ExploreConfig),
            &mut |c| c.max_total_cycles += 1,
            &mut |c| c.widen_threshold += 1,
            &mut |c| c.reset_cycles += 1,
        ] {
            let mut c = base;
            f(&mut c);
            assert_ne!(h(&c, "ulp65", 1e8), reference);
        }
        assert_ne!(h(&base, "ulp130", 1e8), reference);
        assert_ne!(h(&base, "ulp65", 8e6), reference);
    }

    #[test]
    fn byte_budget_evicts_stale_entries_but_keeps_disk() {
        let dir = std::env::temp_dir().join(format!("xbound-memo-evict-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let memo = SubtreeMemo::new(Some(dir.clone()), 1024);
        let frames: Vec<Frame> = (0..4)
            .map(|i| small_frame(&[Lv::from_code(i % 3), Lv::One]))
            .collect();
        let mut starts = Vec::new();
        for i in 0..8u16 {
            let ffs = vec![
                Lv::from_code((i % 3) as u8),
                Lv::from_code(((i / 3) % 3) as u8),
                Lv::from_code(((i / 9) % 3) as u8),
                Lv::One,
            ];
            let s = state(&ffs, demo_mems(), i as u64);
            memo.record(1, 1, &s, &frames, &[], PathOutcome::Halt);
            starts.push(s);
        }
        assert!(
            memo.entries() < 8,
            "budget of 1 KiB must have evicted something (kept {})",
            memo.entries()
        );
        // Every record also hit disk, so even evicted keys still resolve.
        for s in &starts {
            assert!(memo.lookup(1, 1, s).is_some(), "disk fallback");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
