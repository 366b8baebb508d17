//! CLI client for the co-analysis daemon.
//!
//! ```text
//! cargo run --release -p xbound_service --bin xbound-client -- [OPTIONS] COMMAND [ARGS]
//! ```
//!
//! Commands:
//!
//! * `analyze FILE.S` — send the assembly file for analysis; prints the
//!   daemon's response line (canonical bounds JSON);
//! * `suite [BENCH...]` — analyze named benchmarks (none = all 14);
//!   prints one canonical `{"name": ..., "bounds": ...}` line per
//!   benchmark **in suite order** (byte-identical to `suite_summary
//!   --bounds` output — results stream per-completion and are reordered
//!   client-side);
//! * `sweep [--corners N] [BENCH...]` — bound named benchmarks at every
//!   corner of the operating-point grid (N caps the grid; 0/absent =
//!   all corners), exploring each benchmark once server-side; prints
//!   one corner-stamped `{"name": ..., "bounds": ..., "corner": ...}`
//!   line per `(benchmark, corner)` in suite × grid order
//!   (byte-identical to `suite_summary --sweep --bounds` output) and
//!   writes one bound-vs-corner curve JSON per benchmark under
//!   `<results dir>/sweeps/`;
//! * `stats [--watch SECS]` — print the daemon's telemetry line;
//!   `--watch` re-polls every SECS seconds and prints a delta view
//!   (requests/s, cache hits/s, queue depth, in-flight) until killed;
//! * `metrics [--prometheus]` — print the daemon's metrics-registry
//!   snapshot (canonical JSON, or Prometheus text exposition with
//!   `--prometheus`);
//! * `wait` — block until the daemon answers a `stats` request (CI
//!   readiness probe);
//! * `shutdown` — ask the daemon to shut down cleanly.
//!
//! `stats` and `metrics` responses carry the daemon's `version`
//! (`<crate>+p<protocol rev>`); the client warns on stderr when it
//! differs from its own.
//!
//! Options: `--port N` (default 4517), `--addr HOST:PORT`,
//! `--timeout S` (overall deadline for `wait`, default 30 s; polls with
//! exponential backoff and exits non-zero on expiry; `--timeout-secs`
//! is the accepted legacy spelling), `-h`/`--help`.
//!
//! The whole command line is checked before the client connects: an
//! unknown option or command, or a missing or malformed value, prints one
//! error line and exits 2. Failures at run time (an unreachable daemon, a
//! `wait` timeout, a daemon error) exit 1.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use xbound_obs::cli::Args;
use xbound_service::json::Json;
use xbound_service::protocol;

const DEFAULT_PORT: u16 = 4517;

const USAGE: &str = "\
usage: xbound-client [OPTIONS] COMMAND [ARGS]

Sends one request to a running xbound-serve daemon.

commands:
  analyze FILE.S       analyze an assembly file
  suite [BENCH...]     analyze benchmarks (none = all 14), in suite order
  sweep [BENCH...]     bound benchmarks at every operating-point corner
  stats                print the daemon's telemetry line
  metrics              print the daemon's metrics-registry snapshot
  wait                 block until the daemon answers (readiness probe)
  shutdown             ask the daemon to shut down cleanly

options:
  --port N             daemon port on 127.0.0.1 (default 4517)
  --addr HOST:PORT     daemon address (overrides --port)
  --timeout S          deadline of `wait` in seconds (default 30)
  --corners N          sweep: only the first N corners of the grid
  --watch SECS         stats: re-poll every SECS seconds and print rates
  --prometheus         metrics: Prometheus text instead of JSON
  -h, --help           print this help
";

/// One checked command line.
enum Command {
    Analyze(String),
    Suite(Vec<String>),
    Sweep { names: Vec<String>, corners: u64 },
    Stats { watch: Option<u64> },
    Metrics { prometheus: bool },
    Wait { timeout_secs: u64 },
    Shutdown,
}

/// Reads the daemon address and the command from the process arguments,
/// failing with status 2 on bad input.
fn parse_command_line() -> (String, Command) {
    let mut args = Args::from_env("client", USAGE);
    let mut addr: Option<String> = None;
    let mut port = DEFAULT_PORT;
    let mut timeout_secs = 30u64;
    let mut corners: Option<u64> = None;
    let mut watch: Option<u64> = None;
    let mut prometheus = false;
    let mut words: Vec<String> = Vec::new();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => addr = Some(args.value(&a)),
            "--port" => port = args.number(&a),
            "--timeout" | "--timeout-secs" => timeout_secs = args.number(&a),
            "--corners" => corners = Some(args.number(&a)),
            "--watch" => watch = Some(args.number(&a)),
            "--prometheus" => prometheus = true,
            other if other.starts_with('-') => args.fail(&format!("unknown option `{other}`")),
            _ => words.push(a),
        }
    }
    let addr = addr.unwrap_or_else(|| format!("127.0.0.1:{port}"));
    let Some((name, operands)) = words.split_first() else {
        args.fail("missing command");
    };
    let command = match name.as_str() {
        "analyze" => match operands {
            [file] => Command::Analyze(file.clone()),
            _ => args.fail("analyze needs exactly one FILE.S"),
        },
        "suite" => Command::Suite(operands.to_vec()),
        "sweep" => Command::Sweep {
            names: operands.to_vec(),
            corners: corners.unwrap_or(0),
        },
        "stats" => Command::Stats { watch },
        "metrics" => Command::Metrics { prometheus },
        "wait" => Command::Wait { timeout_secs },
        "shutdown" => Command::Shutdown,
        other => args.fail(&format!("unknown command `{other}`")),
    };
    for (given, flag, owner) in [
        (corners.is_some(), "--corners", "sweep"),
        (watch.is_some(), "--watch", "stats"),
        (prometheus, "--prometheus", "metrics"),
    ] {
        if given && name != owner {
            args.fail(&format!("{flag} applies only to `{owner}`"));
        }
    }
    if watch == Some(0) {
        args.fail("--watch needs a positive number of seconds");
    }
    let takes_operands = matches!(
        command,
        Command::Analyze(_) | Command::Suite(_) | Command::Sweep { .. }
    );
    if let (false, Some(extra)) = (takes_operands, operands.first()) {
        args.fail(&format!("unexpected argument `{extra}` for `{name}`"));
    }
    (addr, command)
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()
    }

    fn recv(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(line.trim_end_matches('\n').to_string())
    }
}

fn fail(msg: &str) -> ! {
    xbound_obs::error!("client", "{msg}");
    std::process::exit(1);
}

/// Warns (once per invocation is enough — the client is one-shot) when
/// the daemon's `version` differs from this binary's: mixed builds still
/// interoperate over the line protocol, but telemetry fields may differ.
fn check_version(response: &Json) {
    let local = protocol::version_string();
    if let Some(remote) = response.get("version").and_then(Json::as_str) {
        if remote != local {
            xbound_obs::warn!(
                "client",
                "daemon version {remote} != client version {local}; \
                 telemetry fields may differ"
            );
        }
    }
}

fn main() {
    let (addr, command) = parse_command_line();
    match command {
        Command::Analyze(file) => {
            let source = std::fs::read_to_string(&file)
                .unwrap_or_else(|e| fail(&format!("read {file}: {e}")));
            let response = roundtrip(&addr, &protocol::analyze_source_request(&source));
            check_ok(&response);
            println!("{response}");
        }
        Command::Suite(names) => suite(&addr, &names),
        Command::Sweep { names, corners } => sweep(&addr, &names, corners),
        Command::Stats { watch } => stats(&addr, watch),
        Command::Metrics { prometheus } => metrics(&addr, prometheus),
        Command::Wait { timeout_secs } => wait_ready(&addr, timeout_secs),
        Command::Shutdown => {
            let response = roundtrip(&addr, &protocol::op_request("shutdown"));
            check_ok(&response);
            println!("{response}");
        }
    }
}

/// `stats` / `stats --watch SECS`: one-shot prints the daemon's raw
/// telemetry line; watch mode re-polls and prints a delta view
/// (per-second rates over the interval) until the process is killed or
/// the daemon goes away.
fn stats(addr: &str, watch: Option<u64>) {
    let Some(secs) = watch else {
        let response = roundtrip(addr, &protocol::op_request("stats"));
        check_ok(&response);
        check_version(
            &Json::parse(&response).unwrap_or_else(|e| fail(&format!("bad response: {e}"))),
        );
        println!("{response}");
        return;
    };
    let field = |v: &Json, name: &str| v.get(name).and_then(Json::as_u64).unwrap_or(0);
    let mut prev: Option<(Instant, u64, u64, u64)> = None;
    loop {
        let response = roundtrip(addr, &protocol::op_request("stats"));
        check_ok(&response);
        let v = Json::parse(&response).unwrap_or_else(|e| fail(&format!("bad response: {e}")));
        if prev.is_none() {
            check_version(&v);
        }
        let now = Instant::now();
        let requests = field(&v, "requests");
        let hits = field(&v, "cache_hits_memory") + field(&v, "cache_hits_disk");
        let analyses = field(&v, "analyses_run");
        let line = match prev {
            None => format!("requests={requests} cache_hits={hits} analyses={analyses}"),
            Some((t0, req0, hits0, an0)) => {
                let dt = now.duration_since(t0).as_secs_f64().max(1e-9);
                let rate = |cur: u64, old: u64| (cur.saturating_sub(old)) as f64 / dt;
                format!(
                    "requests={requests} ({:+.1}/s) cache_hits={hits} ({:+.1}/s) analyses={analyses} ({:+.1}/s)",
                    rate(requests, req0),
                    rate(hits, hits0),
                    rate(analyses, an0),
                )
            }
        };
        println!(
            "{line} queue={} inflight={} coalesced={}",
            field(&v, "queue_depth"),
            field(&v, "inflight"),
            field(&v, "coalesced"),
        );
        prev = Some((now, requests, hits, analyses));
        std::thread::sleep(Duration::from_secs(secs));
    }
}

/// `metrics [--prometheus]`: print the daemon's metrics-registry
/// snapshot (the canonical JSON response line, or the unescaped
/// Prometheus text with `--prometheus`).
fn metrics(addr: &str, prometheus: bool) {
    let response = roundtrip(addr, &protocol::metrics_request(prometheus));
    check_ok(&response);
    let v = Json::parse(&response).unwrap_or_else(|e| fail(&format!("bad response: {e}")));
    check_version(&v);
    if prometheus {
        let text = v
            .get("prometheus")
            .and_then(Json::as_str)
            .unwrap_or_else(|| fail(&format!("response without prometheus text: {response}")));
        print!("{text}");
    } else {
        println!("{response}");
    }
}

fn roundtrip(addr: &str, request: &str) -> String {
    let mut conn = Conn::open(addr).unwrap_or_else(|e| fail(&format!("connect {addr}: {e}")));
    conn.send(request)
        .and_then(|()| conn.recv())
        .unwrap_or_else(|e| fail(&format!("request failed: {e}")))
}

fn check_ok(response: &str) {
    let ok = Json::parse(response)
        .ok()
        .and_then(|v| v.get("ok").and_then(Json::as_bool))
        .unwrap_or(false);
    if !ok {
        fail(&format!("daemon error: {response}"));
    }
}

/// Resolves the canonical client-side print order: the full suite in
/// `xbound_benchsuite::all()` order when no names are given, the
/// deduplicated request order otherwise (the daemon analyzes duplicates
/// once and streams one result per distinct name).
fn canonical_order(names: &[String]) -> Vec<String> {
    if names.is_empty() {
        xbound_benchsuite::all()
            .iter()
            .map(|b| b.name().to_string())
            .collect()
    } else {
        let mut order = Vec::with_capacity(names.len());
        for n in names {
            if !order.contains(n) {
                order.push(n.clone());
            }
        }
        order
    }
}

/// Runs a suite request and prints canonical per-benchmark bound lines
/// in suite order (the daemon streams per-completion; we reorder).
fn suite(addr: &str, names: &[String]) {
    let order = canonical_order(names);
    let mut conn = Conn::open(addr).unwrap_or_else(|e| fail(&format!("connect {addr}: {e}")));
    conn.send(&protocol::suite_request(&order))
        .unwrap_or_else(|e| fail(&format!("request failed: {e}")));
    let mut results: Vec<Option<String>> = vec![None; order.len()];
    let mut errors = Vec::new();
    loop {
        let line = conn
            .recv()
            .unwrap_or_else(|e| fail(&format!("stream ended early: {e}")));
        let v = Json::parse(&line).unwrap_or_else(|e| fail(&format!("bad response: {e}")));
        if v.get("done").is_some() {
            break;
        }
        let name = v.get("name").and_then(Json::as_str);
        if v.get("ok").and_then(Json::as_bool) == Some(true) {
            let name = name.unwrap_or_else(|| fail(&format!("result without name: {line}")));
            let bounds = v
                .get("bounds")
                .unwrap_or_else(|| fail(&format!("response without bounds: {line}")));
            let report = xbound_service::cache::bounds_from_json(bounds)
                .unwrap_or_else(|e| fail(&format!("bad bounds: {e}")));
            // Re-serializing the parsed report reproduces the daemon's
            // bytes exactly (shortest-repr floats round-trip).
            let canonical = protocol::bounds_line(name, &report);
            // First *unfilled* slot of that name, so a repeated benchmark
            // in the request fills every occurrence.
            let slot = (0..order.len()).find(|&i| order[i] == name && results[i].is_none());
            match slot {
                Some(i) => results[i] = Some(canonical),
                None => errors.push(format!("unexpected benchmark `{name}` in stream")),
            }
        } else {
            let e = v.get("error").and_then(Json::as_str).unwrap_or("unknown");
            match name {
                // A per-benchmark failure: the stream continues.
                Some(name) => errors.push(format!("{name}: {e}")),
                // A whole-request error (e.g. unknown benchmark): no
                // stream and no `done` line will follow — fail now
                // instead of waiting for one.
                None => fail(&format!("daemon error: {e}")),
            }
        }
    }
    for (i, slot) in results.iter().enumerate() {
        match slot {
            Some(line) => println!("{line}"),
            None => errors.push(format!("{}: no result", order[i])),
        }
    }
    if !errors.is_empty() {
        for e in &errors {
            xbound_obs::error!("client", "{e}");
        }
        std::process::exit(1);
    }
}

/// Runs a sweep request: prints corner-stamped canonical bound lines in
/// suite × grid order (the daemon streams whole benchmarks
/// per-completion, corners in grid order within each; we reorder the
/// benchmarks) and writes one bound-vs-corner curve JSON per benchmark
/// under `<results dir>/sweeps/`.
fn sweep(addr: &str, names: &[String], corners: u64) {
    let order = canonical_order(names);
    let mut conn = Conn::open(addr).unwrap_or_else(|e| fail(&format!("connect {addr}: {e}")));
    conn.send(&protocol::sweep_request(&order, corners))
        .unwrap_or_else(|e| fail(&format!("request failed: {e}")));
    // Per-benchmark corner results, in arrival order within a benchmark
    // (the daemon writes each benchmark's corners consecutively in grid
    // order).
    let mut results: Vec<Vec<(String, xbound_core::BoundsReport)>> = vec![Vec::new(); order.len()];
    let mut errors = Vec::new();
    loop {
        let line = conn
            .recv()
            .unwrap_or_else(|e| fail(&format!("stream ended early: {e}")));
        let v = Json::parse(&line).unwrap_or_else(|e| fail(&format!("bad response: {e}")));
        if v.get("done").is_some() {
            break;
        }
        let name = v.get("name").and_then(Json::as_str);
        if v.get("ok").and_then(Json::as_bool) == Some(true) {
            let name = name.unwrap_or_else(|| fail(&format!("result without name: {line}")));
            let corner = v
                .get("corner")
                .and_then(Json::as_str)
                .unwrap_or_else(|| fail(&format!("result without corner: {line}")));
            let bounds = v
                .get("bounds")
                .unwrap_or_else(|| fail(&format!("response without bounds: {line}")));
            let report = xbound_service::cache::bounds_from_json(bounds)
                .unwrap_or_else(|e| fail(&format!("bad bounds: {e}")));
            match order.iter().position(|n| n == name) {
                Some(i) => results[i].push((corner.to_string(), report)),
                None => errors.push(format!("unexpected benchmark `{name}` in stream")),
            }
        } else {
            let e = v.get("error").and_then(Json::as_str).unwrap_or("unknown");
            match name {
                Some(name) => errors.push(format!("{name}: {e}")),
                None => fail(&format!("daemon error: {e}")),
            }
        }
    }
    let sweeps_dir = xbound_core::outdirs::results_dir().and_then(|d| {
        let dir = d.join("sweeps");
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    });
    for (i, corners) in results.iter().enumerate() {
        if corners.is_empty() {
            errors.push(format!("{}: no result", order[i]));
            continue;
        }
        for (corner, report) in corners {
            // Re-serializing reproduces the daemon's bytes exactly; the
            // line matches `suite_summary --sweep --bounds` output.
            let mut w = xbound_core::jsonout::JsonWriter::compact();
            w.begin_object();
            w.field_str("name", &order[i]);
            w.key("bounds");
            report.write(&mut w);
            w.field_str("corner", corner);
            w.end_object();
            println!("{}", w.finish());
        }
        // The per-benchmark bound-vs-corner curve document.
        match &sweeps_dir {
            Ok(dir) => {
                let mut w = xbound_core::jsonout::JsonWriter::pretty();
                w.begin_object();
                w.field_str("name", &order[i]);
                w.key("curve");
                w.begin_array();
                for (corner, report) in corners {
                    w.begin_object();
                    w.field_str("corner", corner);
                    w.key("bounds");
                    report.write(&mut w);
                    w.end_object();
                }
                w.end_array();
                w.end_object();
                let mut doc = w.finish();
                doc.push('\n');
                let path = dir.join(format!("{}.json", order[i]));
                match xbound_core::outdirs::write_atomic(&path, doc.as_bytes()) {
                    Ok(()) => xbound_obs::info!("client", "wrote {}", path.display()),
                    Err(e) => errors.push(format!("write {}: {e}", path.display())),
                }
            }
            Err(e) => errors.push(format!("results dir: {e}")),
        }
    }
    if !errors.is_empty() {
        for e in &errors {
            xbound_obs::error!("client", "{e}");
        }
        std::process::exit(1);
    }
}

/// Polls `stats` until the daemon answers (or the budget runs out),
/// backing off exponentially (10 ms doubling to a 2 s ceiling) so a
/// slow-starting daemon is noticed quickly without hammering the port
/// for the rest of a long budget.
fn wait_ready(addr: &str, timeout_secs: u64) {
    let deadline = Instant::now() + Duration::from_secs(timeout_secs);
    let mut delay = Duration::from_millis(10);
    loop {
        if let Ok(mut conn) = Conn::open(addr) {
            if conn
                .send(&protocol::op_request("stats"))
                .and_then(|()| conn.recv())
                .is_ok()
            {
                println!("ready");
                return;
            }
        }
        let now = Instant::now();
        if now >= deadline {
            fail(&format!(
                "daemon at {addr} not ready after {timeout_secs}s; \
                 is xbound-serve running on that address?"
            ));
        }
        // Never sleep past the deadline — expire on time, not late.
        std::thread::sleep(delay.min(deadline - now));
        delay = (delay * 2).min(Duration::from_secs(2));
    }
}
