//! Regression pins for queue-depth semantics under the batched data plane.
//!
//! [`HaSimulation::peak_queue_weight`] counts *logical elements* in
//! flight (event weights), not heap entries: a coalesced
//! [`sps_engine::DataBatch`] delivery is one pending event but
//! `batch.len()` elements. This file pins the fig06-shaped workload's
//! depth at batch size 1 — where weights are all 1 and the figure must
//! match the historical entry-count semantics exactly — and at batch 16,
//! where an entry-counting implementation would report a different
//! (smaller) figure.

use sps_engine::SubjobId;
use sps_ha::{HaMode, HaSimulation};
use sps_sim::{SimDuration, SimTime};
use sps_workloads::chain_job_with;

/// Runs the fig06 rate-sweep cell (Hybrid-500ms, 10 K elements/s, 2
/// simulated seconds, seed 2010) and returns the peak logical queue depth.
fn fig06_peak_depth(batch_size: u32) -> u64 {
    let job = chain_job_with(15e-6, 20, 8, 4);
    let n_subjobs = job.subjob_count();
    let mut builder = HaSimulation::builder(job)
        .mode(HaMode::Hybrid)
        .source_rate(10_000.0)
        .seed(2010)
        .tune(|c| {
            c.batch_size = batch_size;
            c.checkpoint_interval = SimDuration::from_millis(500);
        });
    for sj in 0..n_subjobs as u32 {
        builder = builder.subjob_mode(SubjobId(sj), HaMode::Hybrid);
    }
    let mut sim = builder.build();
    sim.run_until(SimTime::from_secs(2));
    sim.peak_queue_weight()
}

#[test]
fn fig06_peak_depth_counts_logical_elements() {
    // Batch size 1: every event weighs 1, so the depth must equal the
    // entry-count figure for this deterministic cell. The 4 monitored
    // subjobs share one queued heartbeat round event.
    assert_eq!(fig06_peak_depth(1), 50);
    // Batch size 16: deliveries coalesce into range-stamped batches, but
    // the depth still counts the elements those entries carry. An
    // entry-counting implementation reports a different figure here.
    assert_eq!(fig06_peak_depth(16), 38);
}
