//! # sps-workloads — workload generators and scenarios
//!
//! Everything the experiments and examples feed into the HA runtime:
//!
//! * [`eval_chain_job`] — the paper's §V-A evaluation job (8 PEs, 4
//!   subjobs, synthetic computation, selectivity 1);
//! * [`financial_job`] / [`traffic_job`] / [`tree_job`] — realistic
//!   pipelines for the example applications (and the §VII tree extension);
//! * [`multiplexed_placement`] — several primaries sharing one secondary
//!   machine (Fig 5);
//! * [`failure_load`] / [`single_failure`] — the §V-B transient-failure
//!   loads;
//! * [`ZipfKeys`] / [`sharded_job`] / [`sharded_placement`] — skewed-key
//!   scale-out workloads for key-partitioned sharded operators;
//! * [`ClusterStudy`] / [`run_weather_app`] — the §II-B measurement study
//!   behind Figs 1–3, synthesized per the substitution notes in DESIGN.md.
//!   Its calibration (83 machines sampled every 0.25 s against a 95 %
//!   threshold, Fig 1's 0.58 s task on machines 41–61) is constants; a
//!   caller picks only the study's duration and the tasks per machine.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod cluster_study;
mod scenarios;
mod zipf;

pub use cluster_study::{
    run_weather_app, ClusterStudy, MachineStudy, WeatherAppRun, WEATHER_LOADED_FROM,
};
pub use scenarios::{
    chain_job_with, eval_chain_job, failure_load, financial_job, marginal_spike_share,
    mixed_fanout_job, multiplexed_placement, primary_machine_of, single_failure, traffic_job,
    tree_job,
};
pub use zipf::{sharded_job, sharded_placement, ZipfKeys};
