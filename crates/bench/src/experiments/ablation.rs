//! Ablation: sweeping vs synchronous vs individual checkpointing.
//!
//! Reproduces the §III-B claim (from the authors' earlier work \[11\]) that
//! sweeping checkpointing carries an order of magnitude less checkpoint
//! traffic than the synchronous and individual variants: trimming right
//! before snapshotting means a checkpoint message carries almost no
//! output-queue data, while timer-driven variants ship up to a full
//! interval's worth of unacknowledged elements per checkpoint.

use sps_engine::SubjobId;
use sps_ha::{CheckpointProtocol, HaMode, HaSimulation};
use sps_metrics::{fmt_count, MsgClass, Table};
use sps_sim::SimTime;
use sps_workloads::eval_chain_job;

use crate::common::{f2, Experiment, Scale};
use crate::runner::Runner;

#[derive(Debug, Clone, Copy)]
struct ProtocolRun {
    ckpt_elements: u64,
    ckpt_messages: u64,
    data_elements: u64,
    sink_mean_delay_ms: f64,
    sink_accepted: u64,
}

fn run(protocol: CheckpointProtocol, sim_secs: u64, seed: u64) -> ProtocolRun {
    let job = eval_chain_job();
    let n_subjobs = job.subjob_count();
    let mut builder = HaSimulation::builder(job)
        .mode(HaMode::Passive)
        .source_rate(1_000.0)
        .seed(seed)
        .tune(|c| c.checkpoint_protocol = protocol);
    for sj in 0..n_subjobs as u32 {
        builder = builder.subjob_mode(SubjobId(sj), HaMode::Passive);
    }
    let mut sim = builder.build();
    sim.run_until(SimTime::from_secs(sim_secs));
    let report = sim.report();
    ProtocolRun {
        ckpt_elements: report.counters.elements(MsgClass::Checkpoint),
        ckpt_messages: report.counters.messages(MsgClass::Checkpoint),
        data_elements: report.counters.elements(MsgClass::Data),
        sink_mean_delay_ms: report.sink_mean_delay_ms,
        sink_accepted: report.sink_accepted,
    }
}

/// The checkpointing-protocol ablation.
pub fn ablation_checkpointing(runner: &Runner, scale: Scale, seed: u64) -> Experiment {
    let sim_secs = scale.pick(20, 5);
    let protocols = [
        CheckpointProtocol::Sweeping,
        CheckpointProtocol::Synchronous,
        CheckpointProtocol::Individual,
    ];
    let mut runs = runner
        .map(protocols.to_vec(), |p| run(p, sim_secs, seed))
        .into_iter();
    let mut table = Table::new(vec![
        "protocol",
        "ckpt_elements",
        "ckpt_messages",
        "avg_elements_per_ckpt",
        "ckpt_overhead_vs_data_pct",
        "sink_delay_ms",
        "sink_accepted",
    ]);
    let mut by_protocol = Vec::new();
    for p in protocols {
        let r = runs.next().expect("one run per protocol");
        by_protocol.push((p, r));
        table.row(vec![
            p.to_string(),
            fmt_count(r.ckpt_elements),
            fmt_count(r.ckpt_messages),
            f2(r.ckpt_elements as f64 / r.ckpt_messages.max(1) as f64),
            f2(r.ckpt_elements as f64 / r.data_elements as f64 * 100.0),
            f2(r.sink_mean_delay_ms),
            fmt_count(r.sink_accepted),
        ]);
    }
    let sweeping = by_protocol[0].1;
    let sync = by_protocol[1].1;
    let individual = by_protocol[2].1;
    Experiment {
        figure: "§III-B ablation",
        title: "Sweeping vs synchronous vs individual checkpointing",
        table,
        paper_notes: vec![
            "sweeping checkpointing is ~4× faster and incurs ~10% of the message overhead of \
             synchronous and individual checkpointing"
                .into(),
        ],
        measured_notes: vec![
            format!(
                "sweeping checkpoint traffic is {:.0}% of synchronous and {:.0}% of individual",
                sweeping.ckpt_elements as f64 / sync.ckpt_elements.max(1) as f64 * 100.0,
                sweeping.ckpt_elements as f64 / individual.ckpt_elements.max(1) as f64 * 100.0
            ),
            format!(
                "every protocol delivered all elements ({} / {} / {})",
                fmt_count(sweeping.sink_accepted),
                fmt_count(sync.sink_accepted),
                fmt_count(individual.sink_accepted)
            ),
        ],
        postscript: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeping_carries_least_checkpoint_traffic() {
        let sweeping = run(CheckpointProtocol::Sweeping, 5, 9);
        let individual = run(CheckpointProtocol::Individual, 5, 9);
        let sync = run(CheckpointProtocol::Synchronous, 5, 9);
        assert!(
            (sweeping.ckpt_elements as f64) < 0.5 * individual.ckpt_elements as f64,
            "sweeping {} vs individual {}",
            sweeping.ckpt_elements,
            individual.ckpt_elements
        );
        assert!(
            (sweeping.ckpt_elements as f64) < 0.7 * sync.ckpt_elements as f64,
            "sweeping {} vs synchronous {}",
            sweeping.ckpt_elements,
            sync.ckpt_elements
        );
        // Correctness is identical: same elements delivered.
        assert_eq!(sweeping.sink_accepted, individual.sink_accepted);
        assert_eq!(sweeping.sink_accepted, sync.sink_accepted);
    }
}
