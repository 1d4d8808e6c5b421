//! Figure 6: message overhead vs data rate (§V-B, "Traffic Amount").
//!
//! AS carries about four times NONE's traffic (two copies of every subjob
//! each send to two downstream copies); PS and Hybrid add only ~10 % thanks
//! to sweeping checkpointing, at both checkpoint intervals.

use sps_engine::SubjobId;
use sps_ha::{HaMode, HaSimulation};
use sps_metrics::{fmt_count, Table};
use sps_sim::{SimDuration, SimTime};
use sps_workloads::chain_job_with;

use crate::common::{Experiment, Scale};
use crate::runner::Runner;

/// Per-element CPU demand for the rate sweep: light enough that 25 K
/// elements/s × 2 PEs stays below one machine's capacity (the paper's
/// prototype sustains these rates on its testbed; our default synthetic
/// demand is calibrated for the 1 K/s delay experiments instead).
const RATE_SWEEP_DEMAND: f64 = 15e-6;

#[derive(Debug, Clone, Copy)]
struct Config {
    mode: HaMode,
    ckpt: SimDuration,
}

fn run(config: Config, rate: f64, sim_secs: u64, seed: u64) -> u64 {
    let job = chain_job_with(RATE_SWEEP_DEMAND, 20, 8, 4);
    let n_subjobs = job.subjob_count();
    let mut builder = HaSimulation::builder(job)
        .mode(config.mode)
        .source_rate(rate)
        .seed(seed)
        .tune(|c| c.checkpoint_interval = config.ckpt);
    for sj in 0..n_subjobs as u32 {
        builder = builder.subjob_mode(SubjobId(sj), config.mode);
    }
    let mut sim = builder.build();
    sim.run_until(SimTime::from_secs(sim_secs));
    sim.report().total_overhead_elements()
}

/// Fig 6: total elements transmitted vs source rate for six configurations.
pub fn fig06(runner: &Runner, scale: Scale, seed: u64) -> Experiment {
    let sim_secs = scale.pick(5, 2);
    let rates: Vec<f64> = scale.pick(
        vec![1_000.0, 5_000.0, 10_000.0, 15_000.0, 20_000.0, 25_000.0],
        vec![1_000.0, 10_000.0, 25_000.0],
    );
    let configs = [
        Config {
            mode: HaMode::None,
            ckpt: SimDuration::from_millis(500),
        },
        Config {
            mode: HaMode::Active,
            ckpt: SimDuration::from_millis(500),
        },
        Config {
            mode: HaMode::Passive,
            ckpt: SimDuration::from_millis(100),
        },
        Config {
            mode: HaMode::Passive,
            ckpt: SimDuration::from_millis(500),
        },
        Config {
            mode: HaMode::Hybrid,
            ckpt: SimDuration::from_millis(100),
        },
        Config {
            mode: HaMode::Hybrid,
            ckpt: SimDuration::from_millis(500),
        },
    ];

    let mut table = Table::new(vec![
        "rate_el_per_s",
        "NONE",
        "AS",
        "PS-100ms",
        "PS-500ms",
        "Hybrid-100ms",
        "Hybrid-500ms",
    ]);
    // One cell per (rate, config), in the serial visiting order.
    let mut cells = Vec::new();
    for &rate in &rates {
        for &c in &configs {
            cells.push((c, rate));
        }
    }
    let mut results = runner
        .map(cells, |(c, rate)| run(c, rate, sim_secs, seed))
        .into_iter();

    let mut as_ratio = Vec::new();
    let mut hybrid_overhead = Vec::new();
    for &rate in &rates {
        let counts: Vec<u64> = configs
            .iter()
            .map(|_| results.next().expect("one result per cell"))
            .collect();
        as_ratio.push(counts[1] as f64 / counts[0] as f64);
        hybrid_overhead.push(counts[5] as f64 / counts[0] as f64 - 1.0);
        let mut row = vec![fmt_count(rate as u64)];
        row.extend(counts.iter().map(|&c| fmt_count(c)));
        table.row(row);
    }
    let mean_as = as_ratio.iter().sum::<f64>() / as_ratio.len() as f64;
    let mean_hy = hybrid_overhead.iter().sum::<f64>() / hybrid_overhead.len() as f64;
    Experiment {
        figure: "Figure 6",
        title: "Message overhead (# of elements) vs data rate",
        table,
        paper_notes: vec![
            "total traffic under AS is around four times NONE".into(),
            "for PS and Hybrid the increase is only around 10% (sweeping checkpointing)".into(),
            "Hybrid incurs at least 80% less message overhead than AS".into(),
        ],
        measured_notes: vec![
            format!("AS/NONE ratio: {:.2}×", mean_as),
            format!("Hybrid-500ms overhead vs NONE: {:.1}%", mean_hy * 100.0),
            format!(
                "Hybrid saves {:.0}% of AS's extra traffic",
                (1.0 - mean_hy / (mean_as - 1.0)) * 100.0
            ),
        ],
        postscript: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig06_quick_orders_configs() {
        let e = fig06(&Runner::serial(), Scale::Quick, 1);
        assert_eq!(e.table.len(), 3);
        // AS ratio near 4, hybrid overhead small.
        assert!(e.measured_notes[0].contains('3') || e.measured_notes[0].contains('4'));
    }
}
