//! # sps-ha — hybrid high availability for stream processing
//!
//! A full implementation of **Zhang et al., "A Hybrid Approach to High
//! Availability in Stream Processing Systems" (ICDCS 2010)** on top of the
//! `sps-*` substrate crates:
//!
//! * Four standby modes per subjob ([`HaMode`]): NONE, active standby,
//!   passive standby, and the paper's **hybrid** — passive normally, a
//!   pre-deployed suspended secondary with early connections that is
//!   switched to active operation on the *first* heartbeat miss, and rolled
//!   back (reading state from the secondary) when the primary responds
//!   again.
//! * Three checkpoint protocols ([`CheckpointProtocol`]): the paper's
//!   **sweeping checkpointing** (trim-driven, checkpoint immediately after
//!   an output queue is trimmed) plus the synchronous and individual
//!   baselines it is compared against.
//! * Two transient-failure detectors: heartbeat misses and the
//!   **benchmarking** method (§IV-A), with the experiment support to
//!   reproduce the detection-ratio and false-alarm figures.
//! * Fail-stop handling: promotion of the standby and instantiation of a
//!   replacement secondary on a spare machine.
//!
//! The entry point is [`HaSimulation`]:
//!
//! ```
//! use sps_engine::{Job, OperatorSpec};
//! use sps_ha::{HaMode, HaSimulation};
//! use sps_sim::{SimDuration, SimTime};
//! use sps_cluster::SpikeWindow;
//!
//! // The paper's evaluation job: 8 PEs, 4 subjobs, hybrid HA.
//! let job = Job::chain("eval", &OperatorSpec::synthetic_default(), 8, 4);
//! let mut sim = HaSimulation::builder(job)
//!     .mode(HaMode::Hybrid)
//!     .source_rate(500.0)
//!     .seed(7)
//!     .build();
//!
//! // A 2-second transient failure on subjob 1's primary machine.
//! sim.inject_spike_windows(sps_cluster::MachineId(1), &[SpikeWindow {
//!     start: SimTime::from_secs(1),
//!     end: SimTime::from_secs(3),
//!     share: 1.0,
//! }]);
//! sim.run_for(SimDuration::from_secs(5));
//!
//! let report = sim.report();
//! assert!(report.sink_accepted > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod checkpoint;
mod config;
mod data_plane;
mod detect;
mod failover;
mod harness;
mod message;
mod observers;
mod reliable;
mod sink;
mod slot;
mod source;
mod wiring;
mod world;

pub use config::{CheckpointProtocol, ConfigError, HaConfig, HaMode};
pub use detect::{BenchAction, BenchmarkDetector, HbVerdict, HeartbeatMonitor, TrendPredictor};
pub use harness::{HaSimulation, HaSimulationBuilder, RunReport};
pub use message::{Msg, ProducerAddr};
pub use observers::SAMPLE_INTERVAL;
pub use reliable::{REL_RTO_MAX, REL_SWEEP_INTERVAL};
pub use sink::{SinkAccept, SinkRuntime};
pub use source::{zipf_rank, PayloadGen, RateProfile, SourceRuntime};
pub use world::{
    CkptProgress, Event, HaEvent, HaEventKind, HaWorld, PeCkpt, Placement, SjState, SubjobHa,
    TaskTag,
};
