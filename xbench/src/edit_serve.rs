//! `edit-serve`: an in-process daemon (in-memory bound cache and subtree
//! memo, default workers) and one TCP client. Set-up analyzes the four
//! unedited programs through the daemon; each op is an `analyze` of a
//! distinct one-instruction edit, so no request is a bound-cache hit and
//! the memo decides how much work is reused.

use crate::edits::{self, Edit};
use crate::report::Report;
use crate::spans::{TracedRun, Tracer};
use crate::staged::{self, config};
use crate::stats::{closed_loop, median, ms, Op, SetupClock};
use crate::Args;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;
use xbound_benchsuite::Benchmark;
use xbound_core::jsonin::Json;
use xbound_core::{BoundsReport, CoAnalysis, UlpSystem};
use xbound_msp430::Program;
use xbound_service::protocol::{self, Request};
use xbound_service::{KeyMaterial, Server, ServiceConfig};

/// Responses compared byte for byte with a direct memo-less analysis
/// after the timed phase.
pub const SAMPLE: usize = 8;

/// Edits the traced run serves: a fixed sequence, so the memo counts
/// repeat exactly.
pub const TRACED_EDITS: usize = 24;

/// Edits generated per second of the timed phase — several times what
/// the daemon serves, so the timed phase never runs out.
const EDITS_PER_SECOND: usize = 40;

/// The `analyze` request line for `program` with `bench`'s knobs.
pub fn request(program: &Program, bench: &Benchmark) -> String {
    let image = protocol::analyze_image_request(program);
    let body = image
        .strip_suffix('}')
        .expect("a request is one JSON object");
    format!(
        "{body}, \"widen_threshold\": {}, \"energy_rounds\": {}}}",
        bench.widen_threshold(),
        bench.energy_rounds()
    )
}

/// A running daemon with an optional client connection.
struct Daemon {
    server: Server,
    conn: Option<(BufReader<TcpStream>, TcpStream)>,
}

impl Daemon {
    /// Starts a daemon with the in-memory cache and memo and default
    /// workers, connecting one client when `tcp`.
    fn start(tcp: bool) -> Result<Daemon, String> {
        let server = Server::start(ServiceConfig {
            disk_cache: false,
            ..ServiceConfig::default()
        })
        .map_err(|e| format!("daemon start: {e}"))?;
        let conn = if tcp { Some(connect(&server)?) } else { None };
        Ok(Daemon { server, conn })
    }

    /// One request over the client connection; returns the response line
    /// without its newline (empty if the connection failed).
    fn round_trip(&mut self, line: &str) -> String {
        let (reader, writer) = self.conn.as_mut().expect("a client connection");
        let mut response = String::new();
        let sent = writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush());
        if sent.is_ok() && reader.read_line(&mut response).is_ok() {
            response.truncate(response.trim_end().len());
        } else {
            response.clear();
        }
        response
    }

    /// One request through the daemon's own calls, in process: parse,
    /// analyze, respond — each a span when `t` records.
    fn in_process(&self, line: &str, t: &mut Tracer) -> String {
        let parsed = t.span("service.parse", || match protocol::parse_request(line) {
            Ok(Request::Analyze {
                image: Some((entry, words)),
                config,
                energy_rounds,
                ..
            }) => Ok((Program::from_words(words, entry), config, energy_rounds)),
            Ok(_) => Err("not an image analyze request".to_string()),
            Err(e) => Err(e),
        });
        let outcome = parsed.and_then(|(program, config, rounds)| {
            t.span("service.analyze", || {
                self.server
                    .service()
                    .scheduler()
                    .analyze(&program, config, rounds)
            })
        });
        t.span("service.respond", || match outcome {
            Ok(o) => protocol::analyze_response(&o.key_hex, &o.report),
            Err(e) => protocol::error_response(&e),
        })
    }

    /// Analyzes the four unedited programs, seeding the memo.
    fn seed(&mut self) -> Result<(), String> {
        for name in edits::PROGRAMS {
            let bench = xbound_benchsuite::by_name(name).ok_or("suite program missing")?;
            let program = bench.program().map_err(|e| e.to_string())?;
            let line = request(&program, bench);
            let response = if self.conn.is_some() {
                self.round_trip(&line)
            } else {
                self.in_process(&line, &mut Tracer::off())
            };
            if !response.starts_with("{\"ok\": true") {
                return Err(format!("seeding {name}: {response}"));
            }
        }
        Ok(())
    }

    /// Shuts the daemon down and waits for it to finish.
    fn stop(mut self) -> Result<(), String> {
        if self.conn.is_none() {
            self.conn = Some(connect(&self.server)?);
        }
        let response = self.round_trip(&protocol::op_request("shutdown"));
        drop(self.conn.take());
        self.server.join();
        if response.contains("\"shutting_down\": true") {
            Ok(())
        } else {
            Err(format!("shutdown answered `{response}`"))
        }
    }
}

fn connect(server: &Server) -> Result<(BufReader<TcpStream>, TcpStream), String> {
    let stream = TcpStream::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("connect: {e}"))?;
    let reader = stream.try_clone().map_err(|e| format!("connect: {e}"))?;
    Ok((BufReader::new(reader), stream))
}

/// What set-up leaves for the timed or traced phase.
struct Setup {
    system: UlpSystem,
    edits: Vec<Edit>,
    lines: Vec<String>,
    daemons: Vec<Daemon>,
}

/// Runs the workload (see the module docs).
pub fn run(args: &Args, start: Instant) -> Result<Report, String> {
    let mut clock = SetupClock::new(start, args.trace);
    let mut build_ms = Vec::new();
    let pool = if args.trace {
        TRACED_EDITS
    } else {
        args.seconds as usize * EDITS_PER_SECOND
    };
    loop {
        let system = staged::build_system(&mut build_ms)?;
        // Untimed runs serve over TCP; the traced run adds two in-process
        // daemons fed the same sequence, one traced and one not.
        let tcp = [true, false, false];
        let mut daemons = tcp[..if args.trace { 3 } else { 1 }]
            .iter()
            .map(|&t| Daemon::start(t))
            .collect::<Result<Vec<_>, _>>()?;
        for d in &mut daemons {
            d.seed()?;
        }
        let edits = edits::generate(args.seed, pool)?;
        let lines = edits.iter().map(|e| request(&e.program, e.bench)).collect();
        let setup = Setup {
            system,
            edits,
            lines,
            daemons,
        };
        if clock.lap() {
            return if args.trace {
                traced(args, setup, &build_ms)
            } else {
                timed(args, setup, &clock)
            };
        }
        for d in setup.daemons {
            d.stop()?;
        }
    }
}

fn timed(args: &Args, setup: Setup, clock: &SetupClock) -> Result<Report, String> {
    let Setup {
        system,
        edits,
        lines,
        mut daemons,
    } = setup;
    let daemon = &mut daemons[0];
    let mut responses = Vec::new();
    let mut samples = closed_loop(args.seconds, edits::PROGRAMS.len(), edits.len(), |i| {
        let t0 = Instant::now();
        let response = daemon.round_trip(&lines[i]);
        let latency = t0.elapsed();
        responses.push(response);
        Op { latency, ok: true }
    });
    for d in daemons {
        d.stop()?;
    }
    samples.failed = check(&system, &edits, &responses, args.seed).len() as u64;
    Ok(samples.report(clock))
}

/// Checks every response for success and the right content key, and a
/// seeded sample of them byte for byte against a direct memo-less
/// analysis. Returns the indices of the failed ops.
fn check(system: &UlpSystem, edits: &[Edit], responses: &[String], seed: u64) -> BTreeSet<usize> {
    let key = |e: &Edit| {
        KeyMaterial::new(
            system,
            &e.program,
            &config(e.bench),
            e.bench.energy_rounds(),
        )
        .hex()
    };
    let mut bad: BTreeSet<usize> = (0..responses.len())
        .filter(|&i| {
            let ok = Json::parse(&responses[i]).ok().is_some_and(|v| {
                v.get("ok") == Some(&Json::Bool(true))
                    && v.get("key").and_then(Json::as_str) == Some(key(&edits[i]).as_str())
            });
            !ok
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7361_6d70_6c65);
    let mut sample = BTreeSet::new();
    while sample.len() < SAMPLE.min(responses.len()) {
        sample.insert(rng.random_range(0..responses.len()));
    }
    for i in sample {
        let e = &edits[i];
        let direct = CoAnalysis::new(system)
            .config(config(e.bench))
            .energy_rounds(e.bench.energy_rounds())
            .run(&e.program)
            .map(|a| protocol::analyze_response(&key(e), &BoundsReport::from_analysis(&a)));
        if direct.as_deref() != Ok(responses[i].as_str()) {
            bad.insert(i);
        }
    }
    bad
}

/// The traced run: the same edits to three daemons in step — over TCP
/// (the untraced round trip), in process untraced, and in process
/// traced — so transport and tracing overhead both come out as
/// differences.
fn traced(args: &Args, setup: Setup, build_ms: &[f64]) -> Result<Report, String> {
    let Setup {
        system,
        edits,
        lines,
        mut daemons,
    } = setup;
    let (memo0, cache0) = service_counters(&daemons[2]);
    let mut run = TracedRun::new();
    let (mut over_tcp, mut transport, mut responses) = (Vec::new(), Vec::new(), Vec::new());
    let mut mismatched = BTreeSet::new();
    for (i, line) in lines.iter().enumerate() {
        let t0 = Instant::now();
        over_tcp.push(daemons[0].round_trip(line));
        let t_tcp = ms(t0.elapsed());
        // The in-process daemons answer the same edit: untraced, then
        // traced; both must answer what the TCP round trip did.
        let failed = run.failed;
        run.twice(i, &mut |i, t| {
            let d = if t.is_on() { &daemons[2] } else { &daemons[1] };
            let response = d.in_process(&lines[i], t);
            let same = response == over_tcp[i];
            if t.is_on() {
                responses.push(response);
            }
            same
        });
        if run.failed > failed {
            mismatched.insert(i);
        }
        transport.push(t_tcp - run.pairs[i].1);
    }
    run.passes = 1;
    let (memo1, cache1) = service_counters(&daemons[2]);
    let entries = daemons[2].server.service().scheduler().memo_entries();
    for d in daemons {
        d.stop()?;
    }
    let mut r = run.report();
    mismatched.extend(check(&system, &edits, &responses, args.seed));
    r.failed = mismatched.len() as u64;
    let ratio = |hits: u64, misses: u64| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    r.set("cpu.build_ms", median(build_ms));
    r.set("service.parse_ms", run.tracer.per_op_ms("service.parse"));
    r.set(
        "service.analyze_ms",
        run.tracer.per_op_ms("service.analyze"),
    );
    r.set(
        "service.respond_ms",
        run.tracer.per_op_ms("service.respond"),
    );
    r.set("service.transport_ms", median(&transport));
    r.set("service.bound_cache_hits", (cache1 - cache0) as f64);
    r.set(
        "memo.hit_ratio",
        ratio(memo1.hits - memo0.hits, memo1.misses - memo0.misses),
    );
    r.set(
        "memo.power_hit_ratio",
        ratio(
            memo1.power_hits - memo0.power_hits,
            memo1.power_misses - memo0.power_misses,
        ),
    );
    r.set(
        "memo.stitched_segments",
        (memo1.stitched_segments - memo0.stitched_segments) as f64,
    );
    r.set("memo.entries", entries as f64);
    Ok(r)
}

/// A daemon's memo counters and bound-cache hits (memory and disk).
fn service_counters(d: &Daemon) -> (xbound_core::memo::MemoStats, u64) {
    let service = d.server.service();
    let (memory, disk, _) = service.cache().counters();
    (service.scheduler().memo_stats(), memory + disk)
}
