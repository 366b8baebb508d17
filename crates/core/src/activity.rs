//! Algorithm 1: input-independent gate activity analysis.
//!
//! [`SymbolicExplorer`] performs the paper's symbolic simulation: the
//! application binary runs on the gate-level netlist with every input forced
//! to X (unknown). Whenever the next program counter carries X — an
//! input-dependent branch — execution forks on the `branch_taken` control
//! net: one direction is pushed on a stack of unprocessed paths and the
//! other is followed (depth-first). A forked state is **pruned** when an
//! already-explored state at the same program point *covers* it (equal, or
//! X wherever they differ) — re-simulating a covered state cannot enlarge
//! the activity superset. After a fork point has been visited
//! `widen_threshold` times, new states are first **widened** (joined with
//! everything seen there); widening only adds Xs and is therefore
//! conservative, exactly the kind of heuristic the paper's Chapter 6
//! prescribes for scalability.
//!
//! # Batched exploration
//!
//! Simulating one fork-free run of cycles is a *pure function* of its
//! starting [`MachineState`] (the program image lives in the snapshot's
//! memories, and the simulator applies no other persistent stimulus), so
//! independent execution-tree branches can be simulated in any grouping.
//! The internal `PathRunner` packs up to [`ExploreConfig::lanes`] pending
//! branches of the DFS frontier into the lanes of one lane-generic engine
//! ([`xbound_sim::BatchSimulator`]): every gate pass settles all in-flight
//! branches at once, each lane loading its branch's machine state
//! ([`xbound_sim::Engine::set_lane_machine_state`]) and terminating
//! independently (halt / fork / cycle cap). A lane that hits a fork spends
//! two further lock-step passes re-simulating the branch cycle with
//! `branch_taken` forced per lane ([`xbound_sim::Engine::force_lane`]) —
//! one per direction — while sibling lanes keep running.
//!
//! # Determinism
//!
//! Exploration runs on the calling thread. The driver **commits results
//! in strict depth-first order**: segment numbering, the memoization
//! table, subsumption, widening and statistics all happen at commit time,
//! exactly as in the sequential algorithm. When the driver needs the next
//! pending branch, it simulates it together with the branches on top of
//! the pending stack (the ones DFS pops next), up to the lane width, and
//! keeps the extra results until their turn comes. Since simulating a
//! fork-free run is a pure function of its starting state, each branch's
//! simulated path is the same whichever batch brought it home, so the
//! tree, the statistics and every downstream peak-power table are
//! **bit-identical at any lane width** (including 1, the historical scalar
//! explorer). The whole [`ExploreStats`], including the
//! [`BatchExploreStats`] telemetry, is a function of the program, the
//! configuration and the lane width.

use crate::tree::{ExecutionTree, ForkChoice, Segment, SegmentEnd, SegmentId};
use crate::AnalysisError;
use std::collections::HashMap;
use xbound_cpu::Cpu;
use xbound_logic::{BatchFrame, Frame, LaneVal, Lv, XWord};
use xbound_msp430::Program;
use xbound_obs::{metrics, trace};
use xbound_sim::{BatchSimulator, MachineState, SimError};

/// Global observability mirrors of the explorer's telemetry.
///
/// The stats pipeline ([`ExploreStats`]) stays the source of truth; these
/// registry counters are fed once per exploration from the aggregated
/// [`BatchExploreStats`] (never from the hot loop), so the metrics layer
/// costs nothing per gate pass and cannot perturb the byte-identity
/// contract.
struct ExploreMetrics {
    explorations: metrics::Counter,
    gate_passes: metrics::Counter,
    committed_cycles: metrics::Counter,
    explore_us: metrics::Histogram,
}

fn explore_metrics() -> &'static ExploreMetrics {
    static M: std::sync::OnceLock<ExploreMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| ExploreMetrics {
        explorations: metrics::counter("xbound_explore_runs_total"),
        gate_passes: metrics::counter("xbound_explore_gate_passes_total"),
        committed_cycles: metrics::counter("xbound_explore_committed_cycles_total"),
        explore_us: metrics::histogram("xbound_explore_duration_us"),
    })
}

/// Tunables for the exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreConfig {
    /// Maximum cycles in any one segment before exploration fails
    /// (guards against programs that never halt).
    pub max_segment_cycles: u64,
    /// Maximum total simulated cycles across the tree.
    pub max_total_cycles: u64,
    /// Number of distinct states tolerated at one fork PC before the
    /// widening heuristic merges new states.
    pub widen_threshold: u32,
    /// Reset cycles applied before execution starts.
    pub reset_cycles: u32,
    /// Ignored: exploration always runs on the calling thread. The field
    /// remains only because the benchmark's edit generator (`xbench/`)
    /// still sets it, and it goes at the next change to the benchmark.
    pub threads: usize,
    /// Lane width for batched path simulation: how many pending
    /// execution-tree branches share one gate pass. `0` (the default)
    /// resolves via [`crate::par::resolve_explore_lanes`]
    /// (`XBOUND_EXPLORE_LANES`). Results are identical at any setting.
    pub lanes: usize,
}

impl Default for ExploreConfig {
    fn default() -> ExploreConfig {
        ExploreConfig {
            max_segment_cycles: 200_000,
            max_total_cycles: 2_000_000,
            widen_threshold: 4,
            reset_cycles: 2,
            threads: 0,
            lanes: 0,
        }
    }
}

impl ExploreConfig {
    /// The benchmark-suite configuration shared by every full-suite
    /// driver (`suite_summary`, the experiment harness, the co-analysis
    /// service): the default knobs with the cycle budget raised to cover
    /// the largest paper benchmarks. Callers layer the per-benchmark
    /// `widen_threshold` on top.
    pub fn suite_default() -> ExploreConfig {
        ExploreConfig {
            max_total_cycles: 5_000_000,
            ..ExploreConfig::default()
        }
    }
}

/// Batched-exploration telemetry: gate passes and lane occupancy.
///
/// Unlike the other fields of [`ExploreStats`], these counters describe
/// **how** the branches were packed into lanes, not what was explored:
/// they vary with the lane width (compare [`ExploreStats::deterministic`]
/// across widths). At one width they are deterministic like the rest.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BatchExploreStats {
    /// Resolved lane width used for path simulation.
    pub lanes: u64,
    /// Global engine passes (one eval + commit across all lanes).
    pub gate_passes: u64,
    /// Lane-cycles spent on in-flight branches (deterministic: the sum of
    /// every branch's simulated path length, including fork re-simulation).
    pub active_lane_cycles: u64,
    /// Lane-cycles where a lane was empty or already finished while the
    /// batch kept stepping.
    pub idle_lane_cycles: u64,
    /// Always 0: exploration runs on one thread and never steals work.
    /// Kept only because the benchmark (`xbench/`) reads it; it goes at
    /// the next change to the benchmark.
    pub steals: u64,
    /// Always 0, like [`Self::steals`] and for the same reason.
    pub idle_wakeups: u64,
}

impl BatchExploreStats {
    /// Mean fraction of lanes doing useful work per gate pass (1.0 =
    /// perfectly packed; 0.0 when nothing ran batched).
    pub fn occupancy(&self) -> f64 {
        let total = self.active_lane_cycles + self.idle_lane_cycles;
        if total == 0 {
            return 0.0;
        }
        self.active_lane_cycles as f64 / total as f64
    }

    /// Folds another telemetry block into this one: counters add.
    /// `lanes` is left alone — it is a configuration echo, not a counter.
    pub fn absorb(&mut self, other: &BatchExploreStats) {
        self.gate_passes += other.gate_passes;
        self.active_lane_cycles += other.active_lane_cycles;
        self.idle_lane_cycles += other.idle_lane_cycles;
        self.steals += other.steals;
        self.idle_wakeups += other.idle_wakeups;
    }
}

/// Statistics from one exploration.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExploreStats {
    /// Total simulated cycles committed to the tree.
    pub cycles: u64,
    /// Forks encountered.
    pub forks: u64,
    /// States pruned by subsumption.
    pub merges: u64,
    /// States widened by the Chapter-6 heuristic.
    pub widenings: u64,
    /// Batched-exploration telemetry (lane-width dependent; see
    /// [`BatchExploreStats`]).
    pub batch: BatchExploreStats,
}

impl ExploreStats {
    /// The lane-width independent core of the statistics — `(cycles,
    /// forks, merges, widenings)` — bit-identical at any lane width.
    /// [`ExploreStats::batch`] is packing telemetry and is excluded.
    pub fn deterministic(&self) -> (u64, u64, u64, u64) {
        (self.cycles, self.forks, self.merges, self.widenings)
    }
}

struct PcEntry {
    /// `(state, owning segment)` pairs seen at this program point.
    seen: Vec<(MachineState, SegmentId)>,
    visits: u32,
    widen_join: Option<MachineState>,
}

/// The Algorithm-1 explorer bound to a CPU.
pub struct SymbolicExplorer<'c> {
    cpu: &'c Cpu,
    config: ExploreConfig,
    /// Positions of the PC register bits within the sequential-gate list.
    pc_ff_positions: Vec<usize>,
}

/// One simulated fork direction: the re-simulated branch cycle's frame and
/// the machine state after committing it.
struct ForkDir {
    first_frame: Frame,
    after: MachineState,
    pc_after: Option<u16>,
    cycle_after: u64,
}

/// How a fork-free run ended.
enum PathEnd {
    /// Reached the final self-loop.
    Halt,
    /// Hit the per-segment cycle budget.
    Truncated,
    /// PC went X outside a `branch_taken` fork (or a branch PC was not
    /// concrete).
    Unresolved { cycle: u64, state: String },
    /// Simulator error (bus failed to settle). A settle error poisons the
    /// whole batch: every in-flight branch reports it (exploration aborts
    /// with [`AnalysisError::Sim`] regardless of which branch is committed
    /// first).
    Sim(SimError),
    /// Input-dependent branch; both directions pre-simulated.
    Fork { branch_pc: u16, dirs: Vec<ForkDir> },
}

/// The result of simulating one fork-free run: the settled frames (the
/// branch-cycle frame already popped for forks) plus how it ended.
struct PathResult {
    frames: Vec<Frame>,
    end: PathEnd,
}

/// A branch created at a fork but not yet explored.
struct PendingPath {
    seg: SegmentId,
    task: u64,
    /// Fork depth from the root.
    depth: u64,
    state: MachineState,
}

/// One unit of path-simulation work: the branch's start state (`None` =
/// the engine's current power-on state — the root path).
struct BatchTask {
    start: Option<MachineState>,
    pre_frames: u64,
}

/// What a lane is doing within one batched run.
enum LanePhase {
    /// No task (or its task already finished).
    Idle,
    /// Normal fork-free path simulation.
    Run,
    /// Re-simulating the branch cycle of a detected fork with
    /// `branch_taken` forced in this lane; `dir` indexes
    /// `[Taken, NotTaken]`.
    ForkDir { dir: usize },
}

/// Who a lane is working for.
enum LaneJob {
    /// Unoccupied.
    None,
    /// A task the caller asked for; the index is the result slot.
    Requested(usize),
}

/// Per-lane bookkeeping of one in-flight task.
struct LaneRun {
    job: LaneJob,
    phase: LanePhase,
    pre_frames: u64,
    /// The lane's own cycle timeline: `start_cycle + steps` is what a
    /// scalar simulator's cycle counter would read (the engine's global
    /// counter advances every lane at once and is meaningless per lane).
    start_cycle: u64,
    steps: u64,
    frames: Vec<Frame>,
    branch_pc: u16,
    base: Option<MachineState>,
    /// The forced branch-cycle frame of the direction in flight (captured
    /// at eval; the matching after-state needs the commit).
    pending_first: Option<Frame>,
    dirs: Vec<ForkDir>,
}

impl LaneRun {
    fn idle() -> LaneRun {
        LaneRun {
            job: LaneJob::None,
            phase: LanePhase::Idle,
            pre_frames: 0,
            start_cycle: 0,
            steps: 0,
            frames: Vec::new(),
            branch_pc: 0,
            base: None,
            pending_first: None,
            dirs: Vec::new(),
        }
    }

    fn start(job: LaneJob, pre_frames: u64, start_cycle: u64) -> LaneRun {
        LaneRun {
            job,
            phase: LanePhase::Run,
            pre_frames,
            start_cycle,
            ..LaneRun::idle()
        }
    }

    fn cycle(&self) -> u64 {
        self.start_cycle + self.steps
    }
}

/// A deferred engine mutation applied after the global commit of a pass
/// (restoring a lane mid-pass would be overwritten by the commit).
enum PostCommit {
    /// Enter (or continue) fork re-simulation: restore the fork base into
    /// the lane and force `branch_taken` to `dir`'s value there.
    StartDir { lane: usize, dir: usize },
    /// Snapshot the committed direction state, then either start the next
    /// direction or finish the fork.
    FinishDir { lane: usize, dir: usize },
}

/// Batched path simulation over one lane-generic engine.
///
/// The runner owns the engine plus the incremental per-lane scalar frame
/// reconstruction (only nets whose batch word changed since the previous
/// pass are rewritten, exactly like the batched concrete profiler).
struct PathRunner<'c> {
    sim: BatchSimulator<'c>,
    prev: Option<BatchFrame>,
    cur_lane: Vec<Frame>,
    change_buf: Vec<u32>,
    /// Flip-flop next-state buffer, reused every pass.
    next: Vec<LaneVal>,
    stats: BatchExploreStats,
}

impl<'c> PathRunner<'c> {
    /// A runner whose engine has the program image loaded (symbolic:
    /// memory stays X) and `reset_cycles` of reset scheduled ahead of the
    /// root path (every later branch starts from a post-reset snapshot).
    fn new(cpu: &'c Cpu, program: &Program, lanes: usize, reset_cycles: u32) -> PathRunner<'c> {
        let mut sim = cpu.new_batch_sim(lanes);
        Cpu::load_program_batch(&mut sim, program, false);
        sim.reset(reset_cycles);
        sim.set_change_logging(true);
        PathRunner {
            sim,
            prev: None,
            cur_lane: Vec::new(),
            change_buf: Vec::new(),
            next: Vec::new(),
            stats: BatchExploreStats {
                lanes: lanes as u64,
                ..BatchExploreStats::default()
            },
        }
    }

    /// Refreshes the per-lane scalar frames from the settled batch frame:
    /// only nets the engine logged as changed since the previous refresh
    /// are rewritten (O(changed nets), not O(design)).
    fn refresh_lane_frames(&mut self) {
        self.sim.swap_change_log(&mut self.change_buf);
        let bf = self.sim.frame();
        match &mut self.prev {
            None => {
                self.cur_lane = (0..self.sim.lanes()).map(|l| bf.lane_frame(l)).collect();
                self.prev = Some(bf.clone());
            }
            Some(prev) => {
                for &i in &self.change_buf {
                    let i = i as usize;
                    let p = prev.get(i);
                    let q = bf.get(i);
                    let mut changed = (p.val ^ q.val) | (p.unk ^ q.unk);
                    while changed != 0 {
                        let l = changed.trailing_zeros() as usize;
                        self.cur_lane[l].set(i, q.get(l));
                        changed &= changed - 1;
                    }
                    prev.set(i, q);
                }
            }
        }
    }

    /// Simulates every task to completion in lock-step lanes and returns
    /// one [`PathResult`] per task, in task order.
    ///
    /// Per lane and per task this replays the historical scalar
    /// `simulate_path` loop exactly — budget check, eval, halt test, frame
    /// record, PC-X test, fork handling — so each task's result is
    /// bit-identical to a 1-lane run regardless of its batch-mates.
    fn run_batch(&mut self, x: &SymbolicExplorer<'_>, tasks: Vec<BatchTask>) -> Vec<PathResult> {
        let _span = trace::span_args("explore_batch", || {
            vec![("branches".to_string(), tasks.len().to_string())]
        });
        let lanes = self.sim.lanes();
        assert!(!tasks.is_empty() && tasks.len() <= lanes, "task/lane shape");
        let bt = x.cpu.io().branch_taken;
        let mut runs: Vec<LaneRun> = (0..lanes).map(|_| LaneRun::idle()).collect();
        let mut requested_out: Vec<Option<PathResult>> = Vec::new();
        let mut requested_active = tasks.len();
        for (l, t) in tasks.into_iter().enumerate() {
            let start_cycle = match &t.start {
                Some(s) => {
                    self.sim.set_lane_machine_state(l, s);
                    s.cycle()
                }
                None => self.sim.cycle(),
            };
            let slot = requested_out.len();
            requested_out.push(None);
            runs[l] = LaneRun::start(LaneJob::Requested(slot), t.pre_frames, start_cycle);
        }

        /// Moves a finished lane's result out and frees the lane.
        fn finish(
            run: &mut LaneRun,
            end: PathEnd,
            requested_out: &mut [Option<PathResult>],
            requested_active: &mut usize,
        ) {
            let done = std::mem::replace(run, LaneRun::idle());
            let result = PathResult {
                frames: done.frames,
                end,
            };
            match done.job {
                LaneJob::None => unreachable!("finished an unoccupied lane"),
                LaneJob::Requested(slot) => {
                    requested_out[slot] = Some(result);
                    *requested_active -= 1;
                }
            }
        }

        loop {
            // Per-segment budget: checked before eval, like the scalar loop.
            for run in runs.iter_mut() {
                if matches!(run.phase, LanePhase::Run)
                    && run.pre_frames + run.frames.len() as u64 >= x.config.max_segment_cycles
                {
                    finish(
                        run,
                        PathEnd::Truncated,
                        &mut requested_out,
                        &mut requested_active,
                    );
                }
            }
            let active = runs
                .iter()
                .filter(|r| !matches!(r.phase, LanePhase::Idle))
                .count();
            if active == 0 || requested_active == 0 {
                break;
            }

            if let Err(e) = self.sim.settle() {
                for (l, run) in runs.iter_mut().enumerate() {
                    // A lane caught mid-fork still holds its per-lane
                    // `branch_taken` force; release it before the engine
                    // is reused for the next batch.
                    if matches!(run.phase, LanePhase::ForkDir { .. }) {
                        self.sim.force_lane(bt, l, None);
                    }
                    if !matches!(run.phase, LanePhase::Idle) {
                        finish(
                            run,
                            PathEnd::Sim(e.clone()),
                            &mut requested_out,
                            &mut requested_active,
                        );
                    }
                }
                break;
            }
            self.stats.gate_passes += 1;
            self.stats.active_lane_cycles += active as u64;
            self.stats.idle_lane_cycles += (lanes - active) as u64;
            self.refresh_lane_frames();
            let mut next = std::mem::take(&mut self.next);
            self.sim.ff_next_into(&mut next);

            // Pre-commit lane processing. Only lanes that take this pass's
            // clock edge land in `commit_mask`; everything else is frozen
            // by the masked commit (finished lanes stop costing dirty
            // work, and a fork-detecting lane holds its pre-branch state
            // exactly like the scalar explorer, which never committed the
            // X-branch cycle).
            let mut commit_mask: u64 = 0;
            let mut post: Vec<PostCommit> = Vec::new();
            for (l, run) in runs.iter_mut().enumerate() {
                match run.phase {
                    LanePhase::Idle => {}
                    LanePhase::Run => {
                        let halted = x.cpu.state_lane(&self.sim, l)
                            == Some(xbound_cpu::State::Decode)
                            && x.cpu.ir_word_lane(&self.sim, l).to_u16() == Some(0x3FFF);
                        run.frames.push(self.cur_lane[l].clone());
                        if halted {
                            finish(
                                run,
                                PathEnd::Halt,
                                &mut requested_out,
                                &mut requested_active,
                            );
                            continue;
                        }
                        if !x.pc_next_has_x_lane(&next, l) {
                            run.steps += 1; // the upcoming commit is this lane's edge
                            commit_mask |= 1 << l;
                            continue;
                        }
                        // --- fork on branch_taken ---
                        if self.sim.value_lane(bt, l) != Lv::X {
                            let st = x
                                .cpu
                                .state_lane(&self.sim, l)
                                .map(|s| s.name().to_string())
                                .unwrap_or_else(|| "unknown".to_string());
                            let end = PathEnd::Unresolved {
                                cycle: run.cycle(),
                                state: st,
                            };
                            finish(run, end, &mut requested_out, &mut requested_active);
                            continue;
                        }
                        // Remove the X-branch frame: each direction
                        // re-simulates the branch cycle concretely.
                        run.frames.pop();
                        let branch_pc = match self.sim.value_word_lane(&x.cpu.io().pc, l).to_u16() {
                            Some(pc) => pc,
                            None => {
                                let end = PathEnd::Unresolved {
                                    cycle: run.cycle(),
                                    state: "DECODE with unknown branch PC".to_string(),
                                };
                                finish(run, end, &mut requested_out, &mut requested_active);
                                continue;
                            }
                        };
                        run.branch_pc = branch_pc;
                        run.base = Some(self.sim.lane_machine_state_at(l, run.cycle()));
                        post.push(PostCommit::StartDir { lane: l, dir: 0 });
                    }
                    LanePhase::ForkDir { dir } => {
                        // The settled frame is this direction's forced
                        // branch cycle; the after-state needs the commit.
                        run.pending_first = Some(self.cur_lane[l].clone());
                        commit_mask |= 1 << l;
                        post.push(PostCommit::FinishDir { lane: l, dir });
                    }
                }
            }

            self.sim.commit_with_next_masked(&next, commit_mask);
            self.next = next;

            for action in post {
                match action {
                    PostCommit::StartDir { lane, dir } => {
                        // The fork lane was excluded from the commit, so it
                        // already holds the base state — only the direction
                        // force is needed.
                        let run = &mut runs[lane];
                        self.sim
                            .force_lane(bt, lane, Some([Lv::One, Lv::Zero][dir]));
                        run.phase = LanePhase::ForkDir { dir };
                    }
                    PostCommit::FinishDir { lane, dir } => {
                        let run = &mut runs[lane];
                        let cycle_after = run.base.as_ref().expect("fork base").cycle() + 1;
                        let after = self.sim.lane_machine_state_at(lane, cycle_after);
                        run.dirs.push(ForkDir {
                            first_frame: run.pending_first.take().expect("direction in flight"),
                            pc_after: x.pc_of_state(&after).to_u16(),
                            after,
                            cycle_after,
                        });
                        if dir == 0 {
                            // Direction 1 starts from the pre-fork state again.
                            let base = run.base.as_ref().expect("fork base");
                            self.sim.set_lane_machine_state(lane, base);
                            self.sim.force_lane(bt, lane, Some(Lv::Zero));
                            run.phase = LanePhase::ForkDir { dir: 1 };
                        } else {
                            self.sim.force_lane(bt, lane, None);
                            let end = PathEnd::Fork {
                                branch_pc: run.branch_pc,
                                dirs: std::mem::take(&mut run.dirs),
                            };
                            finish(run, end, &mut requested_out, &mut requested_active);
                        }
                    }
                }
            }
        }

        // Every exit path releases per-lane fork forces (fork completion
        // and the settle-error sweep above); a leaked force would corrupt
        // the next batch simulated on this engine.
        debug_assert!(
            runs.iter().all(|r| matches!(r.phase, LanePhase::Idle)),
            "batch ended with a lane still in flight"
        );

        requested_out
            .into_iter()
            .map(|r| r.expect("every requested task finished"))
            .collect()
    }
}

impl<'c> SymbolicExplorer<'c> {
    /// Creates an explorer for the given core.
    pub fn new(cpu: &'c Cpu, config: ExploreConfig) -> SymbolicExplorer<'c> {
        let nl = cpu.netlist();
        let pc_ff_positions = cpu
            .io()
            .pc
            .iter()
            .map(|&net| {
                nl.sequential_gates()
                    .iter()
                    .position(|&g| nl.gate(g).output() == net)
                    .expect("PC bits are flip-flops")
            })
            .collect();
        SymbolicExplorer {
            cpu,
            config,
            pc_ff_positions,
        }
    }

    fn pc_of_state(&self, s: &MachineState) -> XWord {
        let mut w = XWord::ZERO;
        for (i, &pos) in self.pc_ff_positions.iter().enumerate() {
            w.set_bit(i, s.ffs()[pos]);
        }
        w
    }

    fn pc_next_has_x_lane(&self, next: &[LaneVal], lane: usize) -> bool {
        self.pc_ff_positions
            .iter()
            .any(|&p| next[p].get(lane) == Lv::X)
    }

    /// Runs the exploration; returns the annotated execution tree.
    ///
    /// # Errors
    ///
    /// * [`AnalysisError::UnresolvedPc`] — the PC went X outside a fork on
    ///   `branch_taken` (e.g. a computed jump on unknown data);
    /// * [`AnalysisError::CycleBudget`] — the configured budgets were hit;
    /// * [`AnalysisError::Sim`] — the bus failed to settle.
    pub fn explore(
        &self,
        program: &Program,
    ) -> Result<(ExecutionTree, ExploreStats), AnalysisError> {
        let m = explore_metrics();
        m.explorations.inc();
        let t0 = std::time::Instant::now();
        let lanes = crate::par::resolve_explore_lanes(self.config.lanes);
        let r = {
            let _span =
                trace::span_args("explore", || vec![("lanes".to_string(), lanes.to_string())]);
            self.explore_driver(program, lanes)
        };
        m.explore_us.observe_us(t0.elapsed().as_micros() as u64);
        r
    }

    /// Obtains the result for a pending path: from the result cache (a
    /// batch-mate of an earlier fetch), or by simulating it batched with
    /// the top of the pending stack — the branches DFS will pop next.
    fn fetch(
        &self,
        runner: &mut PathRunner<'c>,
        cache: &mut HashMap<u64, PathResult>,
        stack: &[PendingPath],
        p: &PendingPath,
    ) -> PathResult {
        if let Some(r) = cache.remove(&p.task) {
            return r;
        }
        let lanes = runner.sim.lanes();
        let mut tasks = vec![BatchTask {
            start: Some(p.state.clone()),
            pre_frames: 1,
        }];
        let mut ids = Vec::new();
        for q in stack.iter().rev() {
            if tasks.len() >= lanes {
                break;
            }
            if !cache.contains_key(&q.task) {
                tasks.push(BatchTask {
                    start: Some(q.state.clone()),
                    pre_frames: 1,
                });
                ids.push(q.task);
            }
        }
        let mut results = runner.run_batch(self, tasks).into_iter();
        let result = results.next().expect("needed task simulated");
        cache.extend(ids.into_iter().zip(results));
        result
    }

    /// The commit loop: depth-first order, exactly the sequential
    /// algorithm, with path simulation batched through
    /// [`PathRunner::run_batch`].
    fn explore_driver(
        &self,
        program: &Program,
        lanes: usize,
    ) -> Result<(ExecutionTree, ExploreStats), AnalysisError> {
        let mut runner = PathRunner::new(self.cpu, program, lanes, self.config.reset_cycles);
        let mut cache: HashMap<u64, PathResult> = HashMap::new();

        let mut tree = ExecutionTree::new();
        let mut stats = ExploreStats {
            batch: BatchExploreStats {
                lanes: lanes as u64,
                ..BatchExploreStats::default()
            },
            ..ExploreStats::default()
        };
        let mut pc_table: HashMap<u16, PcEntry> = HashMap::new();
        let mut stack: Vec<PendingPath> = Vec::new();
        let mut next_task: u64 = 0;
        let mut cur_depth: u64 = 0;

        let root = tree.push(Segment {
            parent: None,
            start_cycle: 0,
            frames: Vec::new(),
            end: SegmentEnd::Halt, // patched when the segment actually ends
        });
        let mut current = root;
        // Root starts from the engine's power-on state (lane 0; the other
        // lanes idle through it).
        let mut result = runner
            .run_batch(
                self,
                vec![BatchTask {
                    start: None,
                    pre_frames: 0,
                }],
            )
            .pop()
            .expect("root path simulated");

        loop {
            // Commit `result` into segment `current`.
            trace::instant_args("commit", || {
                vec![
                    ("segment".to_string(), current.index().to_string()),
                    ("cycles".to_string(), result.frames.len().to_string()),
                ]
            });
            stats.cycles += result.frames.len() as u64;
            tree.get_mut(current).frames.append(&mut result.frames);
            match result.end {
                PathEnd::Halt => tree.get_mut(current).end = SegmentEnd::Halt,
                PathEnd::Truncated => {
                    tree.get_mut(current).end = SegmentEnd::Truncated;
                    return Err(AnalysisError::CycleBudget {
                        cycles: stats.cycles,
                    });
                }
                PathEnd::Unresolved { cycle, state } => {
                    return Err(AnalysisError::UnresolvedPc { cycle, state });
                }
                PathEnd::Sim(e) => return Err(AnalysisError::Sim(e)),
                PathEnd::Fork { branch_pc, dirs } => {
                    stats.forks += 1;
                    trace::instant_args("fork", || {
                        vec![
                            ("branch_pc".to_string(), format!("{branch_pc:#06x}")),
                            ("depth".to_string(), cur_depth.to_string()),
                        ]
                    });
                    let branch_frame_cycle = {
                        let seg = tree.segment(current);
                        seg.start_cycle + seg.frames.len() as u64
                    };
                    let mut children: [Option<SegmentId>; 2] = [None, None];
                    for (slot, (dir, choice)) in dirs
                        .into_iter()
                        .zip([ForkChoice::Taken, ForkChoice::NotTaken])
                        .enumerate()
                    {
                        stats.cycles += 1;
                        let child = tree.push(Segment {
                            parent: Some((current, choice)),
                            start_cycle: branch_frame_cycle,
                            frames: vec![dir.first_frame],
                            end: SegmentEnd::Halt, // patched
                        });
                        children[slot] = Some(child);

                        // Memoization is keyed by the *post-branch* PC
                        // (branch + direction) so that widening never joins
                        // the two directions of one branch (which would X
                        // the PC).
                        let pc_after = dir.pc_after.ok_or(AnalysisError::UnresolvedPc {
                            cycle: dir.cycle_after,
                            state: "post-branch PC not concrete".to_string(),
                        })?;
                        let entry = pc_table.entry(pc_after).or_insert_with(|| PcEntry {
                            seen: Vec::new(),
                            visits: 0,
                            widen_join: None,
                        });
                        entry.visits += 1;

                        // Subsumption check.
                        if let Some((_, owner)) =
                            entry.seen.iter().find(|(s, _)| s.covers(&dir.after))
                        {
                            stats.merges += 1;
                            tree.get_mut(child).end = SegmentEnd::Merged {
                                into: *owner,
                                at_pc: pc_after,
                                widened: false,
                            };
                            continue;
                        }
                        let state_to_push = if entry.visits > self.config.widen_threshold {
                            // Widen: join with everything seen at this PC.
                            stats.widenings += 1;
                            let mut w = dir.after.clone();
                            if let Some(j) = &entry.widen_join {
                                w.join_in_place(j);
                            }
                            for (s, _) in &entry.seen {
                                w.join_in_place(s);
                            }
                            entry.widen_join = Some(w.clone());
                            if let Some((_, owner)) = entry.seen.iter().find(|(s, _)| s.covers(&w))
                            {
                                stats.merges += 1;
                                tree.get_mut(child).end = SegmentEnd::Merged {
                                    into: *owner,
                                    at_pc: pc_after,
                                    widened: true,
                                };
                                continue;
                            }
                            w
                        } else {
                            dir.after
                        };
                        entry.seen.push((state_to_push.clone(), child));
                        let task = next_task;
                        next_task += 1;
                        stack.push(PendingPath {
                            seg: child,
                            task,
                            depth: cur_depth + 1,
                            state: state_to_push,
                        });
                    }
                    tree.get_mut(current).end = SegmentEnd::Fork {
                        branch_pc,
                        taken: children[0].expect("taken child"),
                        not_taken: children[1].expect("not-taken child"),
                    };
                }
            }

            // Global budget: enforced at segment granularity.
            if stats.cycles >= self.config.max_total_cycles {
                if let Some(p) = stack.pop() {
                    tree.get_mut(p.seg).end = SegmentEnd::Truncated;
                }
                return Err(AnalysisError::CycleBudget {
                    cycles: stats.cycles,
                });
            }

            // Pop the next unexplored path (depth-first).
            match stack.pop() {
                None => break,
                Some(p) => {
                    result = self.fetch(&mut runner, &mut cache, &stack, &p);
                    current = p.seg;
                    cur_depth = p.depth;
                }
            }
        }
        stats.batch.absorb(&runner.stats);
        // Mirror the run's telemetry into the global registry — one
        // batched add per exploration, off the hot path, after the stats
        // are final.
        let m = explore_metrics();
        m.gate_passes.add(stats.batch.gate_passes);
        m.committed_cycles.add(stats.cycles);
        Ok((tree, stats))
    }
}
