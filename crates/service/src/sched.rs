//! The job scheduler: a bounded queue feeding a worker pool, with
//! single-flight deduplication.
//!
//! Every connection handler funnels analysis work through
//! [`Scheduler::analyze`]:
//!
//! 1. **cache probe** — a [`BoundCache`] hit answers immediately;
//! 2. **single-flight** — if an identical key is already being analyzed,
//!    the request waits on that job's completion slot instead of queuing
//!    a duplicate (N concurrent identical requests run exactly one
//!    underlying analysis);
//! 3. **bounded queue** — otherwise the job joins the queue (submitters
//!    block while it is full — backpressure, not unbounded memory) and a
//!    worker runs the existing `CoAnalysis` pipeline.
//!
//! Worker count resolves through [`xbound_core::par::resolve_threads`]
//! (`0` = auto, `XBOUND_THREADS`). Each job explores on its worker's
//! thread; a sweep job bounds its corners serially when the pool has more
//! than one worker ("one layer of parallelism at a time", exactly like the
//! suite drivers). Results are bit-identical to the direct path.

use crate::cache::{BoundCache, CacheHit, KeyMaterial};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use xbound_core::memo::MemoStats;
use xbound_core::sweep::{run_sweep, Corner, SweepSpec};
use xbound_core::{par, BoundsReport, CoAnalysis, ExploreConfig, UlpSystem};
use xbound_msp430::Program;
use xbound_obs::trace;

/// A successful [`Scheduler::analyze`]: the bounds, how they were
/// served, and the content address they live under.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeOutcome {
    /// The canonical analysis result.
    pub report: BoundsReport,
    /// How the request was satisfied (telemetry only).
    pub served: Served,
    /// The 16-hex content address ([`KeyMaterial::hex`]).
    pub key_hex: String,
}

/// How an [`Scheduler::analyze`] call was satisfied (`stats` telemetry;
/// deliberately *not* part of the analyze response, which stays
/// byte-identical however it was served).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// A worker ran the analysis for this request.
    Fresh,
    /// In-memory cache hit.
    CacheMemory,
    /// On-disk cache hit (daemon restarted since the analysis ran).
    CacheDisk,
    /// Coalesced onto an identical in-flight analysis (single-flight).
    Coalesced,
}

/// One sweep-corner result: the corner label and its canonical bounds
/// (byte-identical to a direct single-corner analysis of that operating
/// point).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCornerOutcome {
    /// The corner label ([`Corner::label`]), e.g. `ulp65@0.9v@50MHz`.
    pub label: String,
    /// The canonical analysis result for this corner.
    pub report: BoundsReport,
    /// How this corner was satisfied (telemetry only).
    pub served: Served,
}

/// One queued unit of work.
struct Job {
    program: Program,
    config: ExploreConfig,
    energy_rounds: u64,
    kind: JobKind,
}

enum JobKind {
    /// One single-corner analysis.
    Analyze { key: KeyMaterial, slot: Arc<Slot> },
    /// One shared exploration fanning Algorithm 2 + peak-energy over the
    /// listed corners (only the corners that missed cache and had no
    /// identical in-flight work — each entry is content-addressed
    /// independently, so cache hits compose per corner).
    Sweep {
        corners: Vec<(KeyMaterial, Corner, Arc<Slot>)>,
    },
}

/// A completion slot shared by every request waiting on one analysis.
struct Slot {
    result: Mutex<Option<Result<BoundsReport, String>>>,
    done: Condvar,
}

impl Slot {
    fn new() -> Arc<Slot> {
        Arc::new(Slot {
            result: Mutex::new(None),
            done: Condvar::new(),
        })
    }

    fn fill(&self, r: Result<BoundsReport, String>) {
        *self.result.lock().expect("slot lock") = Some(r);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<BoundsReport, String> {
        let mut guard = self.result.lock().expect("slot lock");
        loop {
            if let Some(r) = guard.as_ref() {
                return r.clone();
            }
            guard = self.done.wait(guard).expect("slot wait");
        }
    }
}

struct State {
    queue: VecDeque<Job>,
    /// Key hex → the in-flight (queued or running) analysis of that key.
    inflight: HashMap<String, Arc<Slot>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for jobs.
    job_ready: Condvar,
    /// Submitters wait here for queue space.
    space: Condvar,
    queue_capacity: usize,
    system: UlpSystem,
    cache: Arc<BoundCache>,
    analyses_run: AtomicU64,
    coalesced: AtomicU64,
    /// Sweep jobs executed (each = one shared exploration).
    sweeps_run: AtomicU64,
    /// Corners bounded fresh inside sweep jobs.
    sweep_corners: AtomicU64,
    /// Corners that reused a sweep job's shared execution tree instead
    /// of exploring again (corners − 1 per sweep job).
    sweep_tree_reuse: AtomicU64,
    workers: usize,
}

/// The analysis scheduler (see the module docs).
pub struct Scheduler {
    shared: Arc<Shared>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Scheduler {
    /// Spawns `workers` analysis workers (`0` = auto via
    /// [`par::resolve_threads`]) over a queue bounded at
    /// `queue_capacity` jobs.
    pub fn new(
        system: UlpSystem,
        cache: Arc<BoundCache>,
        workers: usize,
        queue_capacity: usize,
    ) -> Scheduler {
        let workers = par::resolve_threads(workers);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                inflight: HashMap::new(),
                shutdown: false,
            }),
            job_ready: Condvar::new(),
            space: Condvar::new(),
            queue_capacity: queue_capacity.max(1),
            system,
            cache,
            analyses_run: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            sweeps_run: AtomicU64::new(0),
            sweep_corners: AtomicU64::new(0),
            sweep_tree_reuse: AtomicU64::new(0),
            workers,
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("xbound-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        Scheduler {
            shared,
            handles: Mutex::new(handles),
        }
    }

    /// Resolved worker-pool size.
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Jobs currently queued (not yet claimed by a worker).
    pub fn queue_depth(&self) -> usize {
        self.shared.state.lock().expect("state lock").queue.len()
    }

    /// Keys currently in flight (queued or running).
    pub fn inflight(&self) -> usize {
        self.shared.state.lock().expect("state lock").inflight.len()
    }

    /// Analyses actually executed by workers (cache hits and coalesced
    /// requests excluded).
    pub fn analyses_run(&self) -> u64 {
        self.shared.analyses_run.load(Ordering::Relaxed)
    }

    /// Requests that joined an identical in-flight analysis.
    pub fn coalesced(&self) -> u64 {
        self.shared.coalesced.load(Ordering::Relaxed)
    }

    /// Sweep jobs executed (each = one shared exploration).
    pub fn sweeps_run(&self) -> u64 {
        self.shared.sweeps_run.load(Ordering::Relaxed)
    }

    /// Corners bounded fresh inside sweep jobs.
    pub fn sweep_corners(&self) -> u64 {
        self.shared.sweep_corners.load(Ordering::Relaxed)
    }

    /// Corners that reused a sweep's shared execution tree instead of
    /// exploring again.
    pub fn sweep_tree_reuse(&self) -> u64 {
        self.shared.sweep_tree_reuse.load(Ordering::Relaxed)
    }

    /// Always zero: the scheduler has no subtree memo. Kept only because
    /// the benchmark (`xbench/`) reads it; it goes at the next change to
    /// the benchmark.
    pub fn memo_stats(&self) -> MemoStats {
        MemoStats::default()
    }

    /// Always 0, like [`Self::memo_stats`] and for the same reason.
    pub fn memo_entries(&self) -> usize {
        0
    }

    /// Analyzes `program` under `config`, deduplicating against the cache
    /// and identical in-flight work. Blocks until the bound is available.
    ///
    /// # Errors
    ///
    /// Returns the analysis error message (the scheduler itself never
    /// fails a request except at shutdown).
    pub fn analyze(
        &self,
        program: &Program,
        config: ExploreConfig,
        energy_rounds: u64,
    ) -> Result<AnalyzeOutcome, String> {
        let key = KeyMaterial::new(&self.shared.system, program, &config, energy_rounds);
        let hex = key.hex();
        let done = |report, served| {
            Ok(AnalyzeOutcome {
                report,
                served,
                key_hex: hex.clone(),
            })
        };
        if let Some((report, hit)) = self.shared.cache.get(&key) {
            let served = match hit {
                CacheHit::Memory => Served::CacheMemory,
                CacheHit::Disk => Served::CacheDisk,
            };
            return done(report, served);
        }
        let slot = {
            let mut state = self.shared.state.lock().expect("state lock");
            if let Some(slot) = state.inflight.get(&hex) {
                let slot = Arc::clone(slot);
                drop(state);
                self.shared.coalesced.fetch_add(1, Ordering::Relaxed);
                let _span = trace::span("coalesce_wait");
                let report = slot.wait()?;
                return done(report, Served::Coalesced);
            }
            // Re-probe under the state lock: an identical job may have
            // completed (cache publish + inflight retire) between the
            // unlocked probe above and here — without this, that window
            // queues a redundant full analysis.
            if let Some((report, hit)) = self.shared.cache.recheck(&key) {
                let served = match hit {
                    CacheHit::Memory => Served::CacheMemory,
                    CacheHit::Disk => Served::CacheDisk,
                };
                return done(report, served);
            }
            let slot = Slot::new();
            state.inflight.insert(hex.clone(), Arc::clone(&slot));
            while state.queue.len() >= self.shared.queue_capacity && !state.shutdown {
                state = self.shared.space.wait(state).expect("space wait");
            }
            if state.shutdown {
                state.inflight.remove(&hex);
                // Waiters may already have coalesced onto this slot while
                // we were blocked on queue space — fail them, don't
                // strand them.
                slot.fill(Err("server is shutting down".to_string()));
                return Err("server is shutting down".to_string());
            }
            state.queue.push_back(Job {
                program: program.clone(),
                config,
                energy_rounds,
                kind: JobKind::Analyze {
                    key,
                    slot: Arc::clone(&slot),
                },
            });
            self.shared.job_ready.notify_one();
            slot
        };
        let report = {
            let _span = trace::span("queue_wait");
            slot.wait()?
        };
        done(report, Served::Fresh)
    }

    /// Bounds `program` at every corner of `spec`, exploring **once**
    /// for all the corners that need fresh work. Each corner is
    /// content-addressed independently ([`KeyMaterial::for_corner`]):
    /// cached corners answer from the cache, corners identical to
    /// in-flight work coalesce onto it, and only the rest ride the
    /// shared exploration — so sweep and single-corner requests compose
    /// through one cache. Results come back in `spec` order,
    /// byte-identical to direct single-corner analyses.
    ///
    /// # Errors
    ///
    /// Returns the first failing corner's error message (the shared
    /// exploration failing fails every fresh corner identically).
    pub fn sweep(
        &self,
        program: &Program,
        spec: &SweepSpec,
        config: ExploreConfig,
        energy_rounds: u64,
    ) -> Result<Vec<SweepCornerOutcome>, String> {
        // Per-corner key material first (outside any lock).
        let keyed: Vec<(KeyMaterial, &Corner)> = spec
            .corners()
            .iter()
            .map(|c| {
                (
                    KeyMaterial::for_corner(
                        program,
                        c.library().name(),
                        c.clock_hz(),
                        &config,
                        energy_rounds,
                    ),
                    c,
                )
            })
            .collect();
        // Unlocked cache probe per corner.
        enum Pending {
            Ready(BoundsReport, Served),
            Wait(Arc<Slot>, Served),
        }
        let mut pending: Vec<Option<Pending>> = keyed
            .iter()
            .map(|(key, _)| {
                self.shared.cache.get(key).map(|(report, hit)| {
                    let served = match hit {
                        CacheHit::Memory => Served::CacheMemory,
                        CacheHit::Disk => Served::CacheDisk,
                    };
                    Pending::Ready(report, served)
                })
            })
            .collect();
        {
            let mut state = self.shared.state.lock().expect("state lock");
            let mut fresh: Vec<(KeyMaterial, Corner, Arc<Slot>)> = Vec::new();
            for (i, (key, corner)) in keyed.iter().enumerate() {
                if pending[i].is_some() {
                    continue;
                }
                let hex = key.hex();
                if let Some(slot) = state.inflight.get(&hex) {
                    self.shared.coalesced.fetch_add(1, Ordering::Relaxed);
                    pending[i] = Some(Pending::Wait(Arc::clone(slot), Served::Coalesced));
                    continue;
                }
                // Same under-lock re-probe as `analyze`: the corner may
                // have been published between the unlocked probe and now.
                if let Some((report, hit)) = self.shared.cache.recheck(key) {
                    let served = match hit {
                        CacheHit::Memory => Served::CacheMemory,
                        CacheHit::Disk => Served::CacheDisk,
                    };
                    pending[i] = Some(Pending::Ready(report, served));
                    continue;
                }
                let slot = Slot::new();
                state.inflight.insert(hex, Arc::clone(&slot));
                pending[i] = Some(Pending::Wait(Arc::clone(&slot), Served::Fresh));
                fresh.push((key.clone(), (*corner).clone(), slot));
            }
            if !fresh.is_empty() {
                while state.queue.len() >= self.shared.queue_capacity && !state.shutdown {
                    state = self.shared.space.wait(state).expect("space wait");
                }
                if state.shutdown {
                    for (key, _, slot) in &fresh {
                        state.inflight.remove(&key.hex());
                        slot.fill(Err("server is shutting down".to_string()));
                    }
                    return Err("server is shutting down".to_string());
                }
                state.queue.push_back(Job {
                    program: program.clone(),
                    config,
                    energy_rounds,
                    kind: JobKind::Sweep { corners: fresh },
                });
                self.shared.job_ready.notify_one();
            }
        }
        keyed
            .iter()
            .zip(pending)
            .map(|((_, corner), p)| {
                let (report, served) = match p.expect("every corner resolved") {
                    Pending::Ready(report, served) => (report, served),
                    Pending::Wait(slot, served) => (slot.wait()?, served),
                };
                Ok(SweepCornerOutcome {
                    label: corner.label(),
                    report,
                    served,
                })
            })
            .collect()
    }

    /// Stops accepting jobs, drains the queue, and joins the workers.
    /// Queued work still completes (waiters get their results); only
    /// submitters blocked on a full queue are refused.
    pub fn shutdown(&self) {
        {
            let mut state = self.shared.state.lock().expect("state lock");
            state.shutdown = true;
            self.shared.job_ready.notify_all();
            self.shared.space.notify_all();
        }
        let handles = std::mem::take(&mut *self.handles.lock().expect("handles lock"));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("state lock");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    shared.space.notify_one();
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared.job_ready.wait(state).expect("job wait");
            }
        };
        shared.analyses_run.fetch_add(1, Ordering::Relaxed);
        match job.kind {
            JobKind::Analyze { key, slot } => {
                let _span =
                    trace::span_args("analyze_job", || vec![("key".to_string(), key.hex())]);
                let result = catch_unwind(AssertUnwindSafe(|| {
                    CoAnalysis::new(&shared.system)
                        .config(job.config)
                        .energy_rounds(job.energy_rounds)
                        .run(&job.program)
                        .map(|a| BoundsReport::from_analysis(&a))
                        .map_err(|e| e.to_string())
                }))
                .unwrap_or_else(|p| {
                    Err(format!(
                        "analysis panicked: {}",
                        par::payload_message(p.as_ref())
                    ))
                });
                if let Ok(report) = &result {
                    // Publish to the cache *before* retiring the
                    // in-flight entry so a request arriving in between
                    // finds one or the other — never a third analysis.
                    shared.cache.put(&key, report);
                }
                {
                    let mut state = shared.state.lock().expect("state lock");
                    state.inflight.remove(&key.hex());
                }
                slot.fill(result);
            }
            JobKind::Sweep { corners } => {
                let _span = trace::span_args("sweep_job", || {
                    vec![("corners".to_string(), corners.len().to_string())]
                });
                // One shared exploration for every fresh corner. Algorithm
                // 2's (unit, base library) fan-out runs serially when
                // several daemon workers run ("one layer of parallelism at
                // a time"), at auto threads otherwise.
                let sweep_threads = if shared.workers > 1 { 1 } else { 0 };
                let spec = SweepSpec::new(corners.iter().map(|(_, c, _)| c.clone()).collect());
                let result = catch_unwind(AssertUnwindSafe(|| {
                    run_sweep(
                        shared.system.cpu(),
                        &spec,
                        &job.program,
                        job.config,
                        job.energy_rounds,
                        sweep_threads,
                    )
                    .map_err(|e| e.to_string())
                }))
                .unwrap_or_else(|p| {
                    Err(format!(
                        "sweep panicked: {}",
                        par::payload_message(p.as_ref())
                    ))
                });
                match result {
                    Ok(sweep) => {
                        shared.sweeps_run.fetch_add(1, Ordering::Relaxed);
                        shared
                            .sweep_corners
                            .fetch_add(sweep.stats.corners, Ordering::Relaxed);
                        shared
                            .sweep_tree_reuse
                            .fetch_add(sweep.stats.tree_reuse_hits, Ordering::Relaxed);
                        // `run_sweep` preserves corner order, so results
                        // zip against the keyed corners positionally.
                        for ((key, _, slot), cr) in corners.iter().zip(sweep.corners) {
                            shared.cache.put(key, &cr.report);
                            {
                                let mut state = shared.state.lock().expect("state lock");
                                state.inflight.remove(&key.hex());
                            }
                            slot.fill(Ok(cr.report));
                        }
                    }
                    Err(e) => {
                        for (key, _, slot) in &corners {
                            {
                                let mut state = shared.state.lock().expect("state lock");
                                state.inflight.remove(&key.hex());
                            }
                            slot.fill(Err(e.clone()));
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbound_msp430::assemble;

    fn tiny_program(tag: u16) -> Program {
        // Distinct immediates give distinct cache keys per tag.
        assemble(&format!(
            r#"
            main:
                mov #{tag}, r4
                add r4, r4
                jmp $
            "#
        ))
        .expect("assembles")
    }

    fn scheduler(workers: usize) -> Scheduler {
        let system = UlpSystem::openmsp430_class().expect("builds");
        let cache = Arc::new(BoundCache::new(8, None));
        Scheduler::new(system, cache, workers, 4)
    }

    #[test]
    fn analyze_then_cache_hit() {
        let sched = scheduler(2);
        let program = tiny_program(1);
        let cfg = ExploreConfig::suite_default();
        let first = sched.analyze(&program, cfg, 1000).expect("analyzes");
        assert_eq!(first.served, Served::Fresh);
        let second = sched.analyze(&program, cfg, 1000).expect("analyzes");
        assert_eq!(second.served, Served::CacheMemory);
        assert_eq!(first.key_hex, second.key_hex);
        assert_eq!(first.report, second.report);
        assert_eq!(first.report.to_json(), second.report.to_json());
        assert_eq!(sched.analyses_run(), 1);
    }

    #[test]
    fn concurrent_identical_requests_run_once() {
        let sched = Arc::new(scheduler(2));
        let program = tiny_program(2);
        let cfg = ExploreConfig::suite_default();
        let results: Vec<AnalyzeOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let sched = Arc::clone(&sched);
                    let program = program.clone();
                    s.spawn(move || sched.analyze(&program, cfg, 1000).expect("analyzes"))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("joins"))
                .collect()
        });
        assert_eq!(sched.analyses_run(), 1, "single-flight must deduplicate");
        let canonical = results[0].report.to_json();
        for r in &results {
            assert_eq!(r.report.to_json(), canonical);
        }
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let sched = scheduler(2);
        let cfg = ExploreConfig::suite_default();
        let a = sched.analyze(&tiny_program(3), cfg, 1000).expect("a");
        let b = sched.analyze(&tiny_program(4), cfg, 1000).expect("b");
        assert_eq!(sched.analyses_run(), 2);
        assert_ne!(a.key_hex, b.key_hex, "distinct programs, distinct keys");
        assert!(a.report.cycles > 0 && b.report.cycles > 0);
    }

    #[test]
    fn sweep_and_single_corner_requests_compose_through_the_cache() {
        let sched = scheduler(2);
        let program = tiny_program(6);
        let cfg = ExploreConfig::suite_default();
        let spec = SweepSpec::suite_default().truncated(2);
        let outcomes = sched.sweep(&program, &spec, cfg, 1000).expect("sweeps");
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes.iter().all(|o| o.served == Served::Fresh));
        assert_eq!(sched.sweeps_run(), 1);
        assert_eq!(sched.sweep_corners(), 2);
        assert_eq!(sched.sweep_tree_reuse(), 1);
        // The nominal corner's cache entry answers a direct
        // single-corner request byte-identically.
        let direct = sched.analyze(&program, cfg, 1000).expect("analyzes");
        assert_eq!(direct.served, Served::CacheMemory);
        assert_eq!(direct.report.to_json(), outcomes[0].report.to_json());
        // Re-sweeping is pure cache hits: no new exploration runs.
        let again = sched.sweep(&program, &spec, cfg, 1000).expect("sweeps");
        assert!(again.iter().all(|o| o.served == Served::CacheMemory));
        assert_eq!(sched.sweeps_run(), 1);
        assert_eq!(again[1].label, "ulp65@50MHz");
    }

    #[test]
    fn shutdown_refuses_new_work_but_stays_clean() {
        let sched = scheduler(1);
        sched.shutdown();
        let err = sched
            .analyze(&tiny_program(5), ExploreConfig::suite_default(), 1000)
            .expect_err("refused");
        assert!(err.contains("shutting down"), "{err}");
    }
}
