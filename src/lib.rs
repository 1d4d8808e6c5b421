//! # hybrid-ha — hybrid high availability for distributed stream processing
//!
//! A complete Rust implementation and experimental reproduction of
//! **Zhang, Gu, Ye, Yang, Kim, Lei, Liu — "A Hybrid Approach to High
//! Availability in Stream Processing Systems" (ICDCS 2010)**.
//!
//! The paper studies *transient unavailability* — short (seconds), frequent
//! (every tens of seconds) episodes where a shared machine is effectively
//! too overloaded to process its stream — and proposes a **hybrid standby**
//! design: run passive standby (checkpoints to a suspended, pre-deployed
//! secondary with early-created inactive connections) during normal
//! operation, switch the secondary to active operation on the *first*
//! heartbeat miss, and roll back (reading state from the secondary) as soon
//! as the primary responds again. The result is roughly passive-standby
//! cost with near-active-standby recovery.
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `sps-sim` | deterministic discrete-event kernel |
//! | [`cluster`] | `sps-cluster` | machines (processor sharing, load spikes, jitter, wake-up latency), LAN |
//! | [`engine`] | `sps-engine` | elements, operators, retaining/deduplicating queues, PEs, jobs |
//! | [`metrics`] | `sps-metrics` | stats, CDFs, message counters, recovery decomposition |
//! | [`trace`] | `sps-trace` | typed sim-time event bus, flight recorder, recovery spans |
//! | [`ha`] | `sps-ha` | **the paper's contribution**: NONE/AS/PS/Hybrid, sweeping checkpointing, detectors, switch-over/rollback/promotion |
//! | [`workloads`] | `sps-workloads` | evaluation job, example pipelines, failure loads, cluster study |
//!
//! ## Quickstart
//!
//! ```
//! use hybrid_ha::prelude::*;
//!
//! // The paper's evaluation job: 8 PEs in a chain, 4 subjobs of 2 PEs.
//! let job = Job::chain("eval", &OperatorSpec::synthetic_default(), 8, 4);
//! let mut sim = HaSimulation::builder(job)
//!     .mode(HaMode::Hybrid)
//!     .source_rate(1_000.0)
//!     .seed(42)
//!     .build();
//!
//! // A 3-second transient failure on subjob 1's primary machine.
//! sim.inject_spike_windows(MachineId(1), &[SpikeWindow {
//!     start: SimTime::from_secs(2),
//!     end: SimTime::from_secs(5),
//!     share: 1.0,
//! }]);
//! // Stop the feed, then let in-flight elements drain.
//! sim.stop_sources_at(SimTime::from_secs(8));
//! sim.run_for(SimDuration::from_secs(10));
//!
//! let report = sim.report();
//! assert_eq!(report.sink_accepted, sim.world().sources()[0].produced());
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! harnesses that regenerate every figure of the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sps_cluster as cluster;
pub use sps_engine as engine;
pub use sps_ha as ha;
pub use sps_metrics as metrics;
pub use sps_sim as sim;
pub use sps_trace as trace;
pub use sps_workloads as workloads;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use sps_cluster::{
        Dist, LoadComponent, MachineId, NetworkConfig, SpikeProfile, SpikeWindow,
    };
    pub use sps_engine::{
        AggKind, Job, JobBuilder, Operator, OperatorFactory, OperatorSpec, PeId, Replica, SinkId,
        SourceId, SubjobId,
    };
    pub use sps_ha::{
        CheckpointProtocol, HaConfig, HaEventKind, HaMode, HaSimulation, PayloadGen, Placement,
        RateProfile, RunReport,
    };
    pub use sps_metrics::{Cdf, MsgClass, OnlineStats, RecoveryKind, Table};
    pub use sps_sim::{SimDuration, SimRng, SimTime};
    pub use sps_trace::{
        FlightRecorder, RecoveryPhase, RecoverySpan, SharedRecorder, TraceEvent, TraceRecord,
        TraceSink,
    };
    pub use sps_workloads::{
        eval_chain_job, failure_load, financial_job, marginal_spike_share, mixed_fanout_job,
        multiplexed_placement, single_failure, traffic_job, tree_job,
    };
}
