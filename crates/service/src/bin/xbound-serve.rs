//! The co-analysis daemon.
//!
//! ```text
//! cargo run --release -p xbound_service --bin xbound-serve -- [OPTIONS]
//! ```
//!
//! Options:
//!
//! * `--port N` — bind port (default 4517; `0` = ephemeral, the chosen
//!   port is printed on the listening line);
//! * `--host H` — bind host (default `127.0.0.1`);
//! * `--cache-dir DIR` — on-disk bound-cache directory (default:
//!   `XBOUND_CACHE_DIR`, then `<results dir>/cache` — see
//!   `XBOUND_RESULTS_DIR`);
//! * `--no-disk-cache` — keep the cache in memory only;
//! * `--workers N` — analysis worker pool (default: auto via
//!   `XBOUND_THREADS` / available parallelism, capped at 8);
//! * `--conns N` — concurrent-connection cap (default: auto, same
//!   resolution as `--workers`);
//! * `--cache-capacity N` — in-memory LRU entries (default 256);
//! * `--queue N` — bounded job-queue capacity (default 64);
//! * `-h`, `--help` — print the usage and exit.
//!
//! The daemon prints one readiness line to stdout
//! (`xbound-serve listening on HOST:PORT ...`) and then serves until an
//! `xbound-client shutdown` request.
//!
//! Environment: `XBOUND_TRACE=out.json` traces the daemon (request
//! lifecycle, scheduler, exploration spans) and writes a Chrome-trace
//! JSON file on clean shutdown; `XBOUND_LOG` sets the stderr log level.

use std::io::Write as _;
use xbound_service::{Server, ServiceConfig};

/// Default TCP port (unassigned range; "x" + the paper year).
const DEFAULT_PORT: u16 = 4517;

const USAGE: &str = "\
usage: xbound-serve [OPTIONS]

Serves co-analysis requests over TCP until an `xbound-client shutdown`.

options:
  --port N             bind port (default 4517; 0 = ephemeral)
  --host H             bind host (default 127.0.0.1)
  --cache-dir DIR      on-disk bound-cache directory
                       (default: XBOUND_CACHE_DIR, then <results dir>/cache)
  --no-disk-cache      keep the bound cache in memory only
  --workers N          analysis worker pool (default: auto)
  --conns N            concurrent-connection cap (default: auto)
  --cache-capacity N   in-memory LRU entries (default 256)
  --queue N            bounded job-queue capacity (default 64)
  -h, --help           print this help
";

fn main() {
    let trace_out = xbound_obs::trace::init_from_env();
    let mut config = ServiceConfig {
        port: DEFAULT_PORT,
        ..ServiceConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| -> String {
            args.next().unwrap_or_else(|| {
                xbound_obs::error!("serve", "{flag} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                return;
            }
            "--port" => config.port = parse(&value("--port"), "--port"),
            "--host" => config.host = value("--host"),
            "--cache-dir" => config.cache_dir = Some(value("--cache-dir").into()),
            "--no-disk-cache" => config.disk_cache = false,
            "--workers" => config.workers = parse(&value("--workers"), "--workers"),
            "--conns" => config.conns = parse(&value("--conns"), "--conns"),
            "--cache-capacity" => {
                config.cache_capacity = parse(&value("--cache-capacity"), "--cache-capacity");
            }
            "--queue" => config.queue_capacity = parse(&value("--queue"), "--queue"),
            other => {
                xbound_obs::error!("serve", "unknown option `{other}`");
                std::process::exit(2);
            }
        }
    }
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            xbound_obs::error!("serve", "startup failed: {e}");
            std::process::exit(1);
        }
    };
    let service = server.service();
    println!(
        "xbound-serve listening on {} (workers={}, cache-dir={})",
        server.addr(),
        service.workers(),
        service
            .cache()
            .dir()
            .map(|d| d.display().to_string())
            .unwrap_or_else(|| "<memory-only>".to_string()),
    );
    let _ = std::io::stdout().flush();
    server.join();
    if let Some(path) = trace_out {
        match xbound_obs::trace::write_chrome_trace(&path) {
            Ok(()) => xbound_obs::info!("serve", "wrote trace {path}"),
            Err(e) => xbound_obs::warn!("serve", "trace write {path} failed: {e}"),
        }
    }
    println!("xbound-serve: shut down cleanly");
}

fn parse<T: std::str::FromStr>(v: &str, flag: &str) -> T {
    v.parse().unwrap_or_else(|_| {
        xbound_obs::error!("serve", "bad value `{v}` for {flag}");
        std::process::exit(2);
    })
}
