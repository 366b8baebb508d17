//! The TCP daemon: a `std::net::TcpListener` accept loop feeding a
//! bounded thread-per-connection pool, dispatching protocol requests
//! into the [`Scheduler`].
//!
//! Concurrency layers, outermost first:
//!
//! 1. **accept pool** — at most `conns` connections are handled at once
//!    (resolved via [`par::resolve_threads`], like every other pool in
//!    the workspace); further clients queue in the listen backlog;
//! 2. **job scheduler** — handlers funnel analysis work into the bounded
//!    queue with cache + single-flight deduplication;
//! 3. **analysis workers** — run the existing `CoAnalysis` pipeline.
//!
//! Shutdown is cooperative: a `shutdown` request answers, stops the
//! accept loop, drains active connections and queued jobs, joins the
//! workers, and releases the port.

use crate::cache::BoundCache;
use crate::protocol::{self, Request};
use crate::sched::Scheduler;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;
use xbound_core::jsonout::JsonWriter;
use xbound_core::{par, ExploreConfig, UlpSystem};
use xbound_msp430::{assemble, Program};
use xbound_obs::{metrics, trace};

/// Registry instruments for the daemon's serving layer. Counters are
/// incremented at their event sites; the gauges are refreshed from the
/// scheduler whenever a snapshot is about to be taken (`stats` /
/// `metrics` requests), which keeps the hot request path free of any
/// extra bookkeeping beyond one relaxed add.
struct ServiceMetrics {
    requests: metrics::Counter,
    connections: metrics::Counter,
    queue_depth: metrics::Gauge,
    inflight: metrics::Gauge,
    cache_entries: metrics::Gauge,
    request_us: metrics::Histogram,
}

fn service_metrics() -> &'static ServiceMetrics {
    static M: std::sync::OnceLock<ServiceMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| ServiceMetrics {
        requests: metrics::counter("xbound_service_requests_total"),
        connections: metrics::counter("xbound_service_connections_total"),
        queue_depth: metrics::gauge("xbound_service_queue_depth"),
        inflight: metrics::gauge("xbound_service_inflight"),
        cache_entries: metrics::gauge("xbound_service_cache_entries"),
        request_us: metrics::histogram("xbound_service_request_duration_us"),
    })
}

/// The longest request line the daemon reads, newline excluded. The
/// largest legal request, an image filling the 64 KiB address space, is
/// under 1 MiB of JSON; a longer line gets one error response and the
/// connection closes, so no client can grow the daemon's memory without
/// bound.
pub const MAX_REQUEST_LINE: usize = 16 << 20;

/// Daemon configuration (the `xbound-serve` flags).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind host (default loopback).
    pub host: String,
    /// Bind port (`0` = ephemeral, reported by [`Server::addr`]).
    pub port: u16,
    /// Analysis workers (`0` = auto via [`par::resolve_threads`]).
    pub workers: usize,
    /// Concurrent connection cap (`0` = auto: 4× the
    /// [`par::resolve_threads`] worker resolution, floor 8 — connections
    /// mostly wait on the scheduler rather than compute).
    pub conns: usize,
    /// On-disk cache directory. `None` resolves through
    /// [`xbound_core::outdirs::cache_dir`] (`XBOUND_CACHE_DIR`, then
    /// `<results dir>/cache`). Ignored when `disk_cache` is off.
    pub cache_dir: Option<PathBuf>,
    /// Whether bounds persist on disk at all.
    pub disk_cache: bool,
    /// In-memory LRU capacity (entries).
    pub cache_capacity: usize,
    /// Bounded job-queue capacity.
    pub queue_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            host: "127.0.0.1".to_string(),
            port: 0,
            workers: 0,
            conns: 0,
            cache_dir: None,
            disk_cache: true,
            cache_capacity: 256,
            queue_capacity: 64,
        }
    }
}

/// Counting gate bounding the connection-handler pool.
struct ConnGate {
    active: Mutex<usize>,
    changed: Condvar,
    cap: usize,
}

impl ConnGate {
    fn new(cap: usize) -> ConnGate {
        ConnGate {
            active: Mutex::new(0),
            changed: Condvar::new(),
            cap: cap.max(1),
        }
    }

    fn acquire(&self) {
        let mut n = self.active.lock().expect("gate lock");
        while *n >= self.cap {
            n = self.changed.wait(n).expect("gate wait");
        }
        *n += 1;
    }

    fn release(&self) {
        let mut n = self.active.lock().expect("gate lock");
        *n -= 1;
        self.changed.notify_all();
    }

    fn wait_idle(&self) {
        let mut n = self.active.lock().expect("gate lock");
        while *n > 0 {
            n = self.changed.wait(n).expect("gate wait");
        }
    }
}

/// The daemon state shared by the accept loop and every handler.
pub struct Service {
    scheduler: Scheduler,
    cache: Arc<BoundCache>,
    started: Instant,
    requests: AtomicU64,
    shutting_down: AtomicBool,
    addr: SocketAddr,
    workers: usize,
}

impl Service {
    /// Resolved analysis-worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The bound cache (telemetry).
    pub fn cache(&self) -> &BoundCache {
        &self.cache
    }

    /// The scheduler (telemetry).
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// `true` once a shutdown request was accepted.
    pub fn shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Handles one request line, writing one or more response lines.
    /// Returns `true` when the connection (and for `shutdown`, the
    /// daemon) should stop.
    fn dispatch(&self, line: &str, out: &mut impl Write) -> std::io::Result<bool> {
        let request = match protocol::parse_request(line) {
            Ok(r) => r,
            Err(e) => {
                writeln!(out, "{}", protocol::error_response(&e))?;
                return Ok(false);
            }
        };
        let _span = trace::span_args("request", || {
            let op = match &request {
                Request::Analyze { .. } => "analyze",
                Request::Suite { .. } => "suite",
                Request::Sweep { .. } => "sweep",
                Request::Stats => "stats",
                Request::Metrics { .. } => "metrics",
                Request::Shutdown => "shutdown",
            };
            vec![("op".to_string(), op.to_string())]
        });
        let t0 = Instant::now();
        let done = self.dispatch_parsed(request, out);
        service_metrics()
            .request_us
            .observe_us(t0.elapsed().as_micros() as u64);
        done
    }

    /// [`Self::dispatch`] after parsing, behind the request span and
    /// duration histogram.
    fn dispatch_parsed(&self, request: Request, out: &mut impl Write) -> std::io::Result<bool> {
        match request {
            Request::Analyze {
                source,
                image,
                config,
                energy_rounds,
            } => {
                let program = match (source, image) {
                    (Some(src), None) => assemble(&src).map_err(|e| e.to_string()),
                    (None, Some((entry, words))) => Ok(Program::from_words(words, entry)),
                    _ => unreachable!("parse_request enforces exactly one"),
                };
                let answer = program.and_then(|p| {
                    self.scheduler
                        .analyze(&p, config, energy_rounds)
                        .map(|out| protocol::analyze_response(&out.key_hex, &out.report))
                });
                match answer {
                    Ok(resp) => writeln!(out, "{resp}")?,
                    Err(e) => writeln!(out, "{}", protocol::error_response(&e))?,
                }
                Ok(false)
            }
            Request::Suite { benches } => self.run_suite(&benches, out).map(|()| false),
            Request::Sweep { benches, corners } => {
                self.run_sweep(&benches, corners, out).map(|()| false)
            }
            Request::Stats => {
                writeln!(out, "{}", self.stats_response())?;
                Ok(false)
            }
            Request::Metrics { prometheus } => {
                self.refresh_gauges();
                writeln!(out, "{}", protocol::metrics_response(prometheus))?;
                Ok(false)
            }
            Request::Shutdown => {
                let mut w = JsonWriter::compact();
                w.begin_object();
                w.field_bool("ok", true);
                w.field_bool("shutting_down", true);
                w.end_object();
                writeln!(out, "{}", w.finish())?;
                out.flush()?;
                self.begin_shutdown();
                Ok(true)
            }
        }
    }

    /// Resolves request names to benchmarks (empty = the whole suite),
    /// deduplicating and rejecting unknown names. `Ok(None)` means an
    /// error response was already written.
    fn resolve_benches(
        names: &[String],
        out: &mut impl Write,
    ) -> std::io::Result<Option<Vec<&'static xbound_benchsuite::Benchmark>>> {
        // Duplicates are analyzed once (one result line per distinct
        // name) — this also bounds the per-request fan-out at the suite
        // size, since unknown names are rejected.
        if names.is_empty() {
            return Ok(Some(xbound_benchsuite::all().iter().collect()));
        }
        let mut list: Vec<&'static xbound_benchsuite::Benchmark> = Vec::with_capacity(names.len());
        for n in names {
            match xbound_benchsuite::by_name(n) {
                Some(b) => {
                    if !list.iter().any(|have| have.name() == b.name()) {
                        list.push(b);
                    }
                }
                None => {
                    writeln!(
                        out,
                        "{}",
                        protocol::error_response(&format!("unknown benchmark `{n}`"))
                    )?;
                    return Ok(None);
                }
            }
        }
        Ok(Some(list))
    }

    /// Streams suite results per-completion, then the `done` line.
    fn run_suite(&self, names: &[String], out: &mut impl Write) -> std::io::Result<()> {
        let Some(list) = Self::resolve_benches(names, out)? else {
            return Ok(());
        };
        let (tx, rx) = mpsc::channel();
        let mut completed = 0u64;
        let mut failed = 0u64;
        // If the client goes away mid-stream, remember the error but keep
        // draining so the workers' results are still cached for the next
        // client.
        let mut write_err: Option<std::io::Error> = None;
        std::thread::scope(|s| {
            for b in list {
                let tx = tx.clone();
                s.spawn(move || {
                    let config = ExploreConfig {
                        widen_threshold: b.widen_threshold(),
                        ..ExploreConfig::suite_default()
                    };
                    let result = b.program().map_err(|e| e.to_string()).and_then(|p| {
                        self.scheduler
                            .analyze(&p, config, b.energy_rounds())
                            .map(|out| out.report)
                    });
                    let _ = tx.send((b.name(), result));
                });
            }
            drop(tx);
            for (name, result) in rx {
                let line = match result {
                    Ok(bounds) => {
                        completed += 1;
                        protocol::suite_result_response(name, &bounds)
                    }
                    Err(e) => {
                        failed += 1;
                        protocol::suite_error_response(name, &e)
                    }
                };
                if write_err.is_none() {
                    if let Err(e) = writeln!(out, "{line}").and_then(|()| out.flush()) {
                        write_err = Some(e);
                    }
                }
            }
        });
        if let Some(e) = write_err {
            return Err(e);
        }
        writeln!(out, "{}", protocol::suite_done_response(completed, failed))
    }

    /// Streams operating-point sweep results — one line per
    /// `(benchmark, corner)`, corners in grid order within each
    /// completed benchmark — then the `done` line. Each benchmark
    /// explores once for all its fresh corners
    /// ([`Scheduler::sweep`](crate::sched::Scheduler::sweep)).
    fn run_sweep(
        &self,
        names: &[String],
        corners: u64,
        out: &mut impl Write,
    ) -> std::io::Result<()> {
        let Some(list) = Self::resolve_benches(names, out)? else {
            return Ok(());
        };
        let spec = xbound_core::sweep::SweepSpec::suite_default().truncated(corners as usize);
        let spec = &spec;
        let (tx, rx) = mpsc::channel();
        let mut completed = 0u64;
        let mut corner_lines = 0u64;
        let mut failed = 0u64;
        // Same drain discipline as `run_suite`: a client that goes away
        // mid-stream must not strand the workers' results.
        let mut write_err: Option<std::io::Error> = None;
        std::thread::scope(|s| {
            for b in list {
                let tx = tx.clone();
                s.spawn(move || {
                    let config = ExploreConfig {
                        widen_threshold: b.widen_threshold(),
                        ..ExploreConfig::suite_default()
                    };
                    let result = b
                        .program()
                        .map_err(|e| e.to_string())
                        .and_then(|p| self.scheduler.sweep(&p, spec, config, b.energy_rounds()));
                    let _ = tx.send((b.name(), result));
                });
            }
            drop(tx);
            for (name, result) in rx {
                let lines: Vec<String> = match result {
                    Ok(outcomes) => {
                        completed += 1;
                        corner_lines += outcomes.len() as u64;
                        outcomes
                            .iter()
                            .map(|o| protocol::sweep_result_response(name, &o.label, &o.report))
                            .collect()
                    }
                    Err(e) => {
                        failed += 1;
                        vec![protocol::suite_error_response(name, &e)]
                    }
                };
                for line in lines {
                    if write_err.is_none() {
                        if let Err(e) = writeln!(out, "{line}").and_then(|()| out.flush()) {
                            write_err = Some(e);
                        }
                    }
                }
            }
        });
        if let Some(e) = write_err {
            return Err(e);
        }
        writeln!(
            out,
            "{}",
            protocol::sweep_done_response(completed, corner_lines, failed)
        )
    }

    /// Refreshes the sampled gauges from the scheduler/cache (called
    /// right before a registry snapshot is served).
    fn refresh_gauges(&self) {
        let m = service_metrics();
        m.queue_depth.set(self.scheduler.queue_depth() as u64);
        m.inflight.set(self.scheduler.inflight() as u64);
        m.cache_entries.set(self.cache.len() as u64);
    }

    fn stats_response(&self) -> String {
        let (hits_mem, hits_disk, misses) = self.cache.counters();
        let mut w = JsonWriter::compact();
        w.begin_object();
        w.field_bool("ok", true);
        w.field_str("version", &protocol::version_string());
        w.field_raw(
            "uptime_seconds",
            &format!("{:.3}", self.started.elapsed().as_secs_f64()),
        );
        w.field_u64("workers", self.workers as u64);
        w.field_u64("queue_depth", self.scheduler.queue_depth() as u64);
        w.field_u64("inflight", self.scheduler.inflight() as u64);
        w.field_u64("cache_entries", self.cache.len() as u64);
        w.field_u64("cache_hits_memory", hits_mem);
        w.field_u64("cache_hits_disk", hits_disk);
        w.field_u64("cache_misses", misses);
        w.field_u64("coalesced", self.scheduler.coalesced());
        w.field_u64("analyses_run", self.scheduler.analyses_run());
        // Operating-point sweep telemetry: sweep jobs executed, corners
        // bounded fresh inside them, and corners that reused a shared
        // execution tree instead of exploring again.
        w.field_u64("sweeps_run", self.scheduler.sweeps_run());
        w.field_u64("sweep_corners", self.scheduler.sweep_corners());
        w.field_u64("sweep_tree_reuse", self.scheduler.sweep_tree_reuse());
        // Which gate-eval engine serves analyses (result-neutral: cached
        // and fresh answers are byte-identical across engines, so it is
        // telemetry, not key material).
        w.field_str("sim_engine", xbound_core::sim_engine_name());
        w.field_u64("requests", self.requests.load(Ordering::Relaxed));
        match self.cache.dir() {
            Some(d) => w.field_str("cache_dir", &d.display().to_string()),
            None => w.field_raw("cache_dir", "null"),
        }
        w.end_object();
        w.finish()
    }

    /// Flags shutdown and pokes the accept loop awake.
    fn begin_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept loop blocks in `accept()`; a throwaway connection
        // wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running daemon.
pub struct Server {
    addr: SocketAddr,
    service: Arc<Service>,
    accept_thread: std::thread::JoinHandle<()>,
}

impl Server {
    /// Binds, builds the system + cache + scheduler, and starts the
    /// accept loop.
    ///
    /// # Errors
    ///
    /// Returns bind/cache-directory IO errors and core-construction
    /// failures (as [`std::io::Error`] with `InvalidData`).
    pub fn start(config: ServiceConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind((config.host.as_str(), config.port))?;
        let addr = listener.local_addr()?;
        let dir = if config.disk_cache {
            Some(xbound_core::outdirs::cache_dir(config.cache_dir.clone())?)
        } else {
            None
        };
        let system = UlpSystem::openmsp430_class().map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, format!("core build: {e}"))
        })?;
        let cache = Arc::new(BoundCache::new(config.cache_capacity, dir));
        let scheduler = Scheduler::new(
            system,
            Arc::clone(&cache),
            config.workers,
            config.queue_capacity,
        );
        let workers = scheduler.workers();
        let service = Arc::new(Service {
            scheduler,
            cache,
            started: Instant::now(),
            requests: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            addr,
            workers,
        });
        // Connections mostly *wait* (on the scheduler, or between client
        // requests) rather than compute, so the auto cap is 4× the worker
        // resolution with a floor of 8 — a single-core host still serves
        // a client that keeps one connection open while another connects.
        let conn_cap = if config.conns > 0 {
            config.conns
        } else {
            par::resolve_threads(0).saturating_mul(4).max(8)
        };
        let gate = Arc::new(ConnGate::new(conn_cap));
        let accept_service = Arc::clone(&service);
        let accept_thread = std::thread::Builder::new()
            .name("xbound-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_service, &gate))
            .expect("spawn accept loop");
        Ok(Server {
            addr,
            service,
            accept_thread,
        })
    }

    /// The bound address (resolves `port: 0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared daemon state (telemetry in tests).
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Blocks until the daemon has shut down (accept loop exited,
    /// connections drained, workers joined).
    pub fn join(self) {
        let _ = self.accept_thread.join();
    }
}

fn accept_loop(listener: &TcpListener, service: &Arc<Service>, gate: &Arc<ConnGate>) {
    loop {
        if service.shutting_down() {
            break;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) => {
                if service.shutting_down() {
                    break;
                }
                xbound_obs::warn!("serve", "accept failed: {e}");
                continue;
            }
        };
        if service.shutting_down() {
            // The wake-up connection (or a late client): drop it.
            drop(stream);
            break;
        }
        gate.acquire();
        service_metrics().connections.inc();
        let service = Arc::clone(service);
        // The guard releases the slot even if the handler panics — a
        // leaked slot would shrink the pool for the daemon's lifetime
        // and eventually wedge `wait_idle`.
        let guard = SlotGuard {
            gate: Arc::clone(gate),
        };
        let spawned = std::thread::Builder::new()
            .name("xbound-conn".to_string())
            .spawn(move || {
                let _guard = guard;
                handle_conn(&service, stream);
            });
        if let Err(e) = spawned {
            // The closure (and its guard) never ran; `guard` was moved
            // into the dead closure and dropped with it, releasing the
            // slot.
            xbound_obs::warn!("serve", "spawn failed: {e}");
        }
    }
    // Drain live connections, then the job queue + workers.
    gate.wait_idle();
    service.scheduler.shutdown();
}

/// Releases a [`ConnGate`] slot on drop — panic-safe.
struct SlotGuard {
    gate: Arc<ConnGate>,
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.gate.release();
    }
}

fn handle_conn(service: &Arc<Service>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    // A finite read timeout lets an otherwise-idle handler notice a
    // daemon shutdown: without it, one silent client parked in a
    // blocking read would stall `wait_idle` (and the port) forever.
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(250)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut line = Vec::new();
    'conn: loop {
        line.clear();
        // `read_until` appends; on a timeout the partial data stays in
        // `line` and the retry continues the same line. The `take` stops
        // reading one byte past the cap.
        loop {
            let room = (MAX_REQUEST_LINE + 1 - line.len()) as u64;
            match reader.by_ref().take(room).read_until(b'\n', &mut line) {
                Ok(0) => break 'conn,
                Ok(_) => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if service.shutting_down() {
                        break 'conn;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break 'conn,
            }
        }
        if line.strip_suffix(b"\n").unwrap_or(&line).len() > MAX_REQUEST_LINE {
            let e = format!("request line longer than {MAX_REQUEST_LINE} bytes");
            let _ = writeln!(writer, "{}", protocol::error_response(&e));
            let _ = writer.flush();
            break;
        }
        let line = std::str::from_utf8(&line);
        if line.is_ok_and(|l| l.trim().is_empty()) {
            continue;
        }
        service.requests.fetch_add(1, Ordering::Relaxed);
        service_metrics().requests.inc();
        let Ok(line) = line else {
            // Answer like any other unparsable request and keep serving
            // the connection.
            let e = protocol::error_response("request line is not valid UTF-8");
            if writeln!(writer, "{e}")
                .and_then(|()| writer.flush())
                .is_err()
            {
                break;
            }
            continue;
        };
        match service.dispatch(line.trim_end_matches(['\r', '\n']), &mut writer) {
            Ok(stop) => {
                if writer.flush().is_err() || stop {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}
