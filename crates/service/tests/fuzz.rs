//! A seeded mutation fuzzer against a live in-process daemon.
//!
//! Each case mutates one line of a small corpus of well-formed requests
//! (a byte flip, a truncation, deep nesting, a huge number, a huge
//! string or non-UTF-8 bytes), sends it, then sends a `stats` marker on
//! the same connection. The mutated line must get at least one response
//! line before the marker's reply, every response line must be a JSON
//! object with `ok`, and no thread of the daemon may panic. Socket read
//! timeouts turn a hung daemon into a failure. Over-long lines are the
//! subject of `over_long_request_line_is_refused_and_the_daemon_serves_on`
//! in `service.rs`.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;
use xbound_service::json::Json;
use xbound_service::protocol::{self, Request};
use xbound_service::{Server, ServiceConfig};

const SEED: u64 = 0x9e37_79b9_7f4a_7c15;
const CASES: usize = 300;

/// Panics seen by the hook, on any thread of this test binary.
static PANICS: AtomicUsize = AtomicUsize::new(0);

/// xorshift64: a fixed seed gives a fixed sequence of cases.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Exploration caps on every `analyze` line, so that a mutated program
/// that no longer halts fails fast: one mutation changes either the
/// program or the caps, never both.
const CAPS: &str = r#", "max_total_cycles": 20000, "max_segment_cycles": 20000}"#;

fn with_caps(request: &str) -> String {
    format!("{}{CAPS}", request.strip_suffix('}').expect("an object"))
}

fn corpus() -> Vec<String> {
    let tiny = "main:\n mov #7, r4\n add r4, r4\n mov &0x0020, r5\n add r5, r4\n jmp $\n";
    let looping = "main:\n mov &0x0020, r4\nloop:\n dec r4\n jnz loop\n jmp $\n";
    let image = xbound_msp430::assemble(tiny).expect("assembles");
    vec![
        protocol::op_request("stats"),
        protocol::metrics_request(false),
        protocol::metrics_request(true),
        with_caps(&protocol::analyze_source_request(tiny)),
        with_caps(&protocol::analyze_image_request(&image)),
        with_caps(&format!(
            "{}{}",
            protocol::analyze_source_request(looping)
                .strip_suffix('}')
                .expect("an object"),
            r#", "widen_threshold": 4, "energy_rounds": 200}"#
        )),
        protocol::suite_request(&["nope".to_string()]),
        protocol::sweep_request(&["nope".to_string()], 2),
    ]
}

fn mutate(line: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut b = line.to_vec();
    let at = rng.below(b.len() + 1);
    match rng.below(6) {
        0 => {
            let i = rng.below(b.len());
            b[i] ^= 1 << rng.below(8);
        }
        1 => b.truncate(rng.below(b.len())),
        2 => {
            let depth = 1 + rng.below(200);
            let nest = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
            if rng.below(2) == 0 {
                b.splice(0..0, nest[..depth].bytes());
                b.extend(nest[depth..].bytes());
            } else {
                b.splice(at..at, nest.into_bytes());
            }
        }
        3 => {
            const HUGE: [&str; 6] = [
                "1e308",
                "-1e308",
                "18446744073709551616",
                "9007199254740993",
                "123456789012345678901234567890e-7",
                "0.0000000000000000000000000001",
            ];
            let huge = if rng.below(7) == 0 {
                "9".repeat(400)
            } else {
                HUGE[rng.below(HUGE.len())].to_string()
            };
            // Replace the digit run that starts at or after `at`, if any.
            match b[at..].iter().position(u8::is_ascii_digit) {
                Some(d) => {
                    let start = at + d;
                    let len = b[start..].iter().take_while(|c| c.is_ascii_digit()).count();
                    b.splice(start..start + len, huge.into_bytes());
                }
                None => {
                    b.splice(at..at, huge.into_bytes());
                }
            }
        }
        4 => {
            const PIECES: [&str; 6] = ["A", "\\u0000", "\\\"", "\\\\", "é", "\\uD800"];
            let piece = PIECES[rng.below(PIECES.len())];
            let huge = piece.repeat((1 << (10 + rng.below(7))) / piece.len());
            // Just after a quote: inside a string, or opening one.
            let quote = b[at..].iter().position(|&c| c == b'"').map(|q| at + q + 1);
            let pos = quote.unwrap_or(at);
            b.splice(pos..pos, huge.into_bytes());
        }
        _ => {
            const BAD: [&[u8]; 6] = [
                b"\xff",
                b"\xc0\x80",
                b"\x80",
                b"\xe2\x82",
                b"\xed\xa0\x80",
                b"\xf8\x88\x80\x80\x80",
            ];
            b.splice(at..at, BAD[rng.below(BAD.len())].iter().copied());
        }
    }
    b
}

/// Mutants left out: blank lines get no response by design, a line
/// break makes two requests, a mutant that is itself a `stats` request
/// could not be told from the marker, and a valid `shutdown` or a
/// whole-suite `suite`/`sweep` is legitimate work, not malformed input.
fn skipped(mutant: &[u8]) -> bool {
    let Ok(text) = std::str::from_utf8(mutant) else {
        return false;
    };
    text.trim().is_empty()
        || text.contains('\n')
        || matches!(
            protocol::parse_request(text),
            Ok(Request::Stats | Request::Shutdown)
        )
        || matches!(
            protocol::parse_request(text),
            Ok(Request::Suite { benches } | Request::Sweep { benches, .. }) if benches.is_empty()
        )
}

/// Reads one response line, which must be a JSON object with `ok`.
fn recv(reader: &mut BufReader<TcpStream>, case: usize) -> Json {
    let mut line = String::new();
    let n = reader
        .read_line(&mut line)
        .unwrap_or_else(|e| panic!("case {case}: no response ({e})"));
    assert!(n > 0, "case {case}: the daemon closed the connection");
    let v = Json::parse(line.trim_end())
        .unwrap_or_else(|e| panic!("case {case}: response is not JSON ({e}): {line}"));
    assert!(
        v.get("ok").and_then(Json::as_bool).is_some(),
        "case {case}: response without `ok`: {line}"
    );
    v
}

#[test]
fn mutated_requests_get_responses_and_never_panic_the_daemon() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICS.fetch_add(1, Ordering::SeqCst);
        default_hook(info);
    }));
    let server = Server::start(ServiceConfig {
        disk_cache: false,
        workers: 1,
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    let marker = protocol::op_request("stats");
    let corpus = corpus();
    let mut rng = Rng(SEED);
    let mut sent = 0;
    for case in 0..CASES {
        let mutant = mutate(corpus[rng.below(corpus.len())].as_bytes(), &mut rng);
        if skipped(&mutant) {
            continue;
        }
        writer.write_all(&mutant).expect("send");
        writeln!(writer, "\n{marker}").expect("send");
        writer.flush().expect("flush");
        sent += 1;
        let mut answers = 0;
        loop {
            let v = recv(&mut reader, case);
            if v.get("uptime_seconds").is_some() {
                break;
            }
            answers += 1;
        }
        assert!(
            answers > 0,
            "case {case}: no response before the marker's: {}",
            String::from_utf8_lossy(&mutant)
        );
    }
    assert!(sent > CASES / 2, "only {sent} of {CASES} cases sent");
    writeln!(writer, "{}", protocol::op_request("shutdown")).expect("send");
    writer.flush().expect("flush");
    recv(&mut reader, CASES);
    server.join();
    assert_eq!(PANICS.load(Ordering::SeqCst), 0, "the daemon panicked");
}
