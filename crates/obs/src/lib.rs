//! Observability substrate for the workspace: where time goes, without
//! touching what the analyses compute.
//!
//! The co-analysis pipeline is a multi-stage concurrent system — a
//! batched symbolic explorer, an operating-point sweep engine, and a
//! TCP daemon — whose byte-identity
//! contract forbids any timing-dependent output in result artifacts.
//! This crate is the layer *outside* that contract:
//!
//! * [`metrics`] — a global registry of named atomic counters, gauges,
//!   and fixed-bucket histograms, snapshotted to canonical [`jsonout`]
//!   JSON or Prometheus text;
//! * [`trace`] — a low-overhead span tracer (per-thread event buffers
//!   behind one relaxed-atomic enabled check) exported as Chrome
//!   trace-event JSON, loadable in Perfetto / `chrome://tracing`;
//! * [`log`] — the `XBOUND_LOG` leveled key=value stderr logger behind
//!   the workspace's progress and warning output;
//! * [`cli`] — the command-line parser of every front-end binary (usage
//!   on `--help`, exit 2 on bad input);
//! * [`hash`] — FNV-1a, the one content hasher (cache addresses,
//!   validation salts).
//!
//! It is also the new home of the canonical JSON layer ([`jsonout`] /
//! [`jsonin`]), moved down from `xbound_core` so every crate — including
//! the ones `xbound_core` itself depends on — can serialize metrics and
//! traces with the same writer that produces the byte-stable result
//! documents. `xbound_core` re-exports both modules under their
//! historical paths.
//!
//! Everything is std-only and disabled-by-default: with no `XBOUND_TRACE`
//! and no trace flag, each instrumentation site costs one relaxed atomic
//! load and an untaken branch.

#![warn(missing_docs)]

pub mod cli;
pub mod hash;
pub mod jsonin;
pub mod jsonout;
pub mod log;
pub mod metrics;
pub mod trace;
