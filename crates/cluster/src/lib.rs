//! # sps-cluster — the simulated cluster substrate
//!
//! Stands in for the physical testbed of Zhang et al. (ICDCS 2010): a set of
//! [`Machine`]s with processor-sharing CPUs, a switched LAN ([`Network`]),
//! and the load phenomena the paper studies:
//!
//! * [`SpikeProfile`] — transient-failure load spikes (regular or Poisson
//!   arrivals, duty-cycle parameterization as in §V-B);
//! * [`jitter_stalls`] — rare OS stalls, the source of heartbeat false
//!   alarms, and [`sched`] — the load-dependent wake-up latency that
//!   starves heartbeat replies;
//! * [`CpuMonitor`] / [`SpikeTracker`] — the 0.25 s utilization sampling and
//!   95 %-threshold spike delineation from the paper's measurement study.
//!
//! All components are *passive* state machines: the simulation world (in
//! `sps-ha`) advances them to the current virtual time and schedules its own
//! wake-up events from values like [`Machine::next_completion`]. That keeps
//! this crate independent of any particular event alphabet and trivially
//! testable.
//!
//! ```
//! use sps_cluster::{LoadComponent, Machine, MachineId};
//! use sps_sim::SimTime;
//!
//! // A 95 % background spike slows a 10 ms task down 20-fold.
//! let mut m = Machine::new(MachineId(0));
//! m.set_background(SimTime::ZERO, LoadComponent::Spike, 0.95);
//! m.submit(SimTime::ZERO, 0.010, 0);
//! assert_eq!(m.next_completion(), Some(SimTime::from_millis(200)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod chaos;
mod cluster;
mod domain;
mod jitter;
mod load;
mod machine;
mod monitor;
mod network;
pub mod sched;

pub use chaos::{BurstLoss, ChaosAction, ChaosPlan, ChaosStep, FaultProfile};
pub use cluster::Cluster;
pub use domain::{DomainId, FaultTopology, SwitchId};
pub use jitter::jitter_stalls;
pub use load::{total_failure_time, Dist, SpikeProfile, SpikeWindow};
pub use machine::{FinishedTask, LoadComponent, Machine, MachineId, TaskId};
pub use monitor::{mean_duration, mean_inter_failure_time, CpuMonitor, SpikeEpisode, SpikeTracker};
pub use network::{Delivery, Network, NetworkConfig};
