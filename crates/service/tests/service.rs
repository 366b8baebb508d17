//! End-to-end daemon tests over real TCP connections: cache hits with
//! byte-identical responses, single-flight deduplication of concurrent
//! identical requests, warm restarts from the on-disk store,
//! byte-identity of daemon bounds against the direct `CoAnalysis` path,
//! the exact `stats` fields, the request-line cap and the energy-budget
//! cap.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use xbound_service::json::Json;
use xbound_service::{protocol, Server, ServiceConfig};

/// A blocking line-oriented test client.
struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: BufWriter::new(stream),
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send");
        self.writer.flush().expect("flush");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "daemon closed the connection");
        line.trim_end_matches('\n').to_string()
    }

    fn roundtrip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }
}

fn memory_only_server() -> Server {
    Server::start(ServiceConfig {
        disk_cache: false,
        workers: 2,
        ..ServiceConfig::default()
    })
    .expect("server starts")
}

fn stat(response: &str, key: &str) -> u64 {
    let v = Json::parse(response).expect("stats parse");
    assert_eq!(
        v.get("ok").and_then(Json::as_bool),
        Some(true),
        "{response}"
    );
    v.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats missing {key}: {response}"))
}

fn tiny_source(tag: u16) -> String {
    format!(
        r#"
        main:
            mov #{tag}, r4
            add r4, r4
            mov &0x0020, r5
            add r5, r4
            jmp $
        "#
    )
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("xbound-service-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn analyze_twice_second_served_from_cache_with_identical_bytes() {
    let server = memory_only_server();
    let mut client = Client::connect(server.addr());
    let request = protocol::analyze_source_request(&tiny_source(1));
    let first = client.roundtrip(&request);
    assert!(first.contains("\"ok\": true"), "{first}");
    assert!(first.contains("\"bounds\": {"), "{first}");
    let second = client.roundtrip(&request);
    assert_eq!(first, second, "cached response must be byte-identical");
    let stats = client.roundtrip(&protocol::op_request("stats"));
    assert_eq!(stat(&stats, "analyses_run"), 1, "{stats}");
    assert!(stat(&stats, "cache_hits_memory") >= 1, "{stats}");
    assert_eq!(stat(&stats, "cache_entries"), 1, "{stats}");
    // A second connection sees the same bytes too.
    let third = Client::connect(server.addr()).roundtrip(&request);
    assert_eq!(first, third);
    let shutdown = client.roundtrip(&protocol::op_request("shutdown"));
    assert!(shutdown.contains("\"shutting_down\": true"), "{shutdown}");
    server.join();
}

#[test]
fn concurrent_identical_requests_run_one_analysis() {
    let server = memory_only_server();
    let addr = server.addr();
    let request = protocol::analyze_source_request(&tiny_source(2));
    let responses: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let request = request.clone();
                s.spawn(move || Client::connect(addr).roundtrip(&request))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });
    for r in &responses {
        assert_eq!(r, &responses[0], "all concurrent answers identical");
        assert!(r.contains("\"ok\": true"), "{r}");
    }
    let stats = Client::connect(addr).roundtrip(&protocol::op_request("stats"));
    assert_eq!(
        stat(&stats, "analyses_run"),
        1,
        "single-flight must collapse concurrent duplicates: {stats}"
    );
    Client::connect(addr).roundtrip(&protocol::op_request("shutdown"));
    server.join();
}

#[test]
fn cache_persists_across_daemon_restart() {
    let dir = fresh_dir("persist");
    let config = || ServiceConfig {
        cache_dir: Some(dir.clone()),
        workers: 1,
        ..ServiceConfig::default()
    };
    let request = protocol::analyze_source_request(&tiny_source(3));
    let first = {
        let server = Server::start(config()).expect("first daemon");
        let mut client = Client::connect(server.addr());
        let first = client.roundtrip(&request);
        assert!(first.contains("\"ok\": true"), "{first}");
        client.roundtrip(&protocol::op_request("shutdown"));
        server.join();
        first
    };
    // A fresh daemon on the same cache dir answers warm: byte-identical
    // bounds, zero analyses run, one disk hit.
    let server = Server::start(config()).expect("second daemon");
    let mut client = Client::connect(server.addr());
    let replay = client.roundtrip(&request);
    assert_eq!(first, replay, "disk-cached answer must be byte-identical");
    let stats = client.roundtrip(&protocol::op_request("stats"));
    assert_eq!(stat(&stats, "analyses_run"), 0, "{stats}");
    assert_eq!(stat(&stats, "cache_hits_disk"), 1, "{stats}");
    client.roundtrip(&protocol::op_request("shutdown"));
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn suite_bounds_match_direct_coanalysis_bytes() {
    use xbound_core::{BoundsReport, CoAnalysis, ExploreConfig, UlpSystem};

    let bench = xbound_benchsuite::by_name("tHold").expect("exists");
    // The direct path, exactly as `suite_summary` runs it.
    let system = UlpSystem::openmsp430_class().expect("builds");
    let program = bench.program().expect("assembles");
    let analysis = CoAnalysis::new(&system)
        .config(ExploreConfig {
            widen_threshold: bench.widen_threshold(),
            ..ExploreConfig::suite_default()
        })
        .energy_rounds(bench.energy_rounds())
        .run(&program)
        .expect("analyzes");
    let direct = protocol::bounds_line(bench.name(), &BoundsReport::from_analysis(&analysis));

    let server = memory_only_server();
    let mut client = Client::connect(server.addr());
    client.send(&protocol::suite_request(&["tHold".to_string()]));
    let result = client.recv();
    let done = client.recv();
    assert!(done.contains("\"done\": 1"), "{done}");
    let v = Json::parse(&result).expect("parses");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{result}");
    let report =
        xbound_service::cache::bounds_from_json(v.get("bounds").expect("bounds")).expect("valid");
    let daemon = protocol::bounds_line("tHold", &report);
    assert_eq!(
        daemon, direct,
        "daemon bounds must be byte-identical to the direct path"
    );
    client.roundtrip(&protocol::op_request("shutdown"));
    server.join();
}

#[test]
fn malformed_and_unknown_requests_get_error_responses() {
    let server = memory_only_server();
    let mut client = Client::connect(server.addr());
    let bad = client.roundtrip("this is not json");
    assert!(bad.contains("\"ok\": false"), "{bad}");
    let unknown = client.roundtrip(r#"{"op": "frobnicate"}"#);
    assert!(unknown.contains("unknown op"), "{unknown}");
    let bad_bench = client.roundtrip(r#"{"op": "suite", "benches": ["nope"]}"#);
    assert!(bad_bench.contains("unknown benchmark"), "{bad_bench}");
    let bad_asm = client.roundtrip(r#"{"op": "analyze", "source": "not assembly at all"}"#);
    assert!(bad_asm.contains("\"ok\": false"), "{bad_asm}");
    // The connection survives all of the above.
    let stats = client.roundtrip(&protocol::op_request("stats"));
    assert!(stats.contains("\"ok\": true"), "{stats}");
    client.roundtrip(&protocol::op_request("shutdown"));
    server.join();
}

#[test]
fn sweep_streams_corner_stamped_bounds_that_compose_with_the_cache() {
    let server = memory_only_server();
    let mut client = Client::connect(server.addr());
    client.send(&protocol::sweep_request(&["mult".to_string()], 2));
    let first = client.recv();
    let second = client.recv();
    let done = client.recv();
    assert!(
        done.contains("\"done\": 1") && done.contains("\"corners\": 2"),
        "{done}"
    );
    for (line, label) in [(&first, "ulp65@100MHz"), (&second, "ulp65@50MHz")] {
        let v = Json::parse(line).expect("parses");
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{line}");
        assert_eq!(v.get("name").and_then(Json::as_str), Some("mult"), "{line}");
        assert_eq!(
            v.get("corner").and_then(Json::as_str),
            Some(label),
            "corners stream in grid order: {line}"
        );
    }
    // The nominal corner seeded the cache: a plain suite request for the
    // same benchmark is a pure cache hit with byte-identical bounds.
    let v = Json::parse(&first).expect("parses");
    let sweep_bounds =
        xbound_service::cache::bounds_from_json(v.get("bounds").expect("bounds")).expect("valid");
    client.send(&protocol::suite_request(&["mult".to_string()]));
    let suite_line = client.recv();
    let _done = client.recv();
    let sv = Json::parse(&suite_line).expect("parses");
    let suite_bounds =
        xbound_service::cache::bounds_from_json(sv.get("bounds").expect("bounds")).expect("valid");
    assert_eq!(
        suite_bounds.to_json(),
        sweep_bounds.to_json(),
        "sweep corner and suite bounds must be byte-identical"
    );
    let stats = client.roundtrip(&protocol::op_request("stats"));
    assert_eq!(stat(&stats, "sweeps_run"), 1, "{stats}");
    assert_eq!(stat(&stats, "sweep_corners"), 2, "{stats}");
    assert_eq!(stat(&stats, "sweep_tree_reuse"), 1, "{stats}");
    assert!(stat(&stats, "cache_hits_memory") >= 1, "{stats}");
    client.roundtrip(&protocol::op_request("shutdown"));
    server.join();
}

/// `stats` carries exactly these fields, and its `version` names
/// protocol rev 4.
#[test]
fn stats_response_has_exactly_the_documented_fields() {
    let server = memory_only_server();
    let mut client = Client::connect(server.addr());
    let stats = client.roundtrip(&protocol::op_request("stats"));
    let Ok(Json::Obj(fields)) = Json::parse(&stats) else {
        panic!("stats is not an object: {stats}");
    };
    let mut expected = [
        "ok",
        "version",
        "uptime_seconds",
        "workers",
        "queue_depth",
        "inflight",
        "cache_entries",
        "cache_hits_memory",
        "cache_hits_disk",
        "cache_misses",
        "coalesced",
        "analyses_run",
        "sweeps_run",
        "sweep_corners",
        "sweep_tree_reuse",
        "sim_engine",
        "requests",
        "cache_dir",
    ];
    expected.sort_unstable();
    assert_eq!(
        fields.keys().map(String::as_str).collect::<Vec<_>>(),
        expected
    );
    let version = fields["version"].as_str().expect("version is a string");
    assert!(version.ends_with("+p4"), "{version}");
    client.roundtrip(&protocol::op_request("shutdown"));
    server.join();
}

/// A request line past the cap gets one error response and its
/// connection closes; the daemon goes on serving other connections.
#[test]
fn over_long_request_line_is_refused_and_the_daemon_serves_on() {
    let server = memory_only_server();
    let mut client = Client::connect(server.addr());
    // One byte past the cap and no newline: the daemon reads all of it,
    // so it closes the connection with nothing left unread.
    let line = vec![b'x'; xbound_service::server::MAX_REQUEST_LINE + 1];
    client.writer.write_all(&line).expect("send");
    client.writer.flush().expect("flush");
    let refused = client.recv();
    assert!(
        refused.contains("\"ok\": false") && refused.contains("longer than"),
        "{refused}"
    );
    let mut rest = String::new();
    let n = client
        .reader
        .read_line(&mut rest)
        .expect("read after refusal");
    assert_eq!(n, 0, "the connection closes after the refusal: {rest}");
    let stats = Client::connect(server.addr()).roundtrip(&protocol::op_request("stats"));
    assert!(stats.contains("\"ok\": true"), "{stats}");
    Client::connect(server.addr()).roundtrip(&protocol::op_request("shutdown"));
    server.join();
}

/// An `energy_rounds` budget past the cap is refused before any work:
/// on this looping program every round would run, so at 2^53 rounds the
/// analysis would hold a worker for years. The connection serves on.
#[test]
fn oversized_energy_budget_is_refused_at_once_and_the_connection_serves_on() {
    let server = memory_only_server();
    let mut client = Client::connect(server.addr());
    client
        .reader
        .get_ref()
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("read timeout");
    let looping = r"main:\n mov &0x0020, r4\nloop:\n dec r4\n jnz loop\n jmp $\n";
    let refused = client.roundtrip(&format!(
        r#"{{"op": "analyze", "source": "{looping}", "energy_rounds": 9007199254740992}}"#
    ));
    assert!(
        refused.contains("\"ok\": false") && refused.contains("energy_rounds"),
        "{refused}"
    );
    let stats = client.roundtrip(&protocol::op_request("stats"));
    assert!(stats.contains("\"ok\": true"), "{stats}");
    client.roundtrip(&protocol::op_request("shutdown"));
    server.join();
}

/// A request line that is not UTF-8 gets one error response, and the
/// same connection goes on serving the next line.
#[test]
fn non_utf8_request_line_gets_an_error_and_the_connection_serves_on() {
    let server = memory_only_server();
    let mut client = Client::connect(server.addr());
    client
        .writer
        .write_all(b"\xff\xfe{\"op\":\"stats\"}\n")
        .expect("send");
    client.writer.flush().expect("flush");
    let refused = client.recv();
    assert!(
        refused.contains("\"ok\": false") && refused.contains("UTF-8"),
        "{refused}"
    );
    let stats = client.roundtrip(r#"{"op":"stats"}"#);
    assert!(stats.contains("\"ok\": true"), "{stats}");
    client.roundtrip(&protocol::op_request("shutdown"));
    server.join();
}
