//! # sps-observe — the online health engine and offline run inspector
//!
//! Turns the simulator's raw sensor streams (the `sps-metrics` registry
//! scrapes and the `sps-trace` phase log) into decision-grade health
//! state, entirely in sim time:
//!
//! * streaming windowed aggregators over cumulative registry snapshots:
//!   sliding rates and log-linear quantiles, tumbling per-scope series;
//! * [`SloSpec`] / [`SloMonitor`] — a fixed set of service-level
//!   objectives (`e2e_p99: sink/e2e_delay_ms{p99} < 250 over 5s`)
//!   evaluated deterministically at every scrape, with breach spans and
//!   [`sps_trace::TraceEvent::SloBreach`] transitions;
//! * anomaly detectors (backpressure, checkpoint stall, heartbeat
//!   flakiness, redundancy loss, audit violations) — small hysteresis
//!   state machines stable under G–E burst noise, plus deliberately binary
//!   standby-coverage and audit verdicts, all with constant thresholds;
//! * [`HealthEngine`] — the per-run composition: SLO monitors, detectors,
//!   recovery-cycle budget tracking, and per-scope rate series, snapshotted
//!   into a deterministic JSONL [`HealthReport`];
//! * [`inspect`] — offline analysis over the JSONL artifacts the bench
//!   binaries write (summaries, timelines, two-run diff to the first
//!   divergent signal, folded-stack flamegraphs), behind the `sps-inspect`
//!   CLI.
//!
//! ## Determinism
//!
//! The engine is strictly an *observer*: it reads the registry and the
//! phase log, schedules nothing, and draws no randomness. Its outputs are
//! pure functions of scrape-time snapshots, so enabling it cannot perturb
//! figure output, and two identical runs (any `--jobs` value) produce
//! byte-identical health reports.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod anomaly;
mod engine;
pub mod inspect;
mod report;
mod slo;
mod window;

pub use sps_trace::jsonl;

pub use anomaly::AnomalySpan;
pub use engine::{HealthConfig, HealthEngine, RECOVERY_MONITOR};
pub use report::{HealthReport, MonitorSummary};
pub use slo::{BreachSpan, SloCmp, SloMonitor, SloSpec, SloStat};
