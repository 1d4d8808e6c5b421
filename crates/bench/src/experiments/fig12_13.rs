//! Figures 12–13: transient-failure detection (§V-C).
//!
//! Heartbeat vs benchmarking detection over ~200 injected load spikes per
//! background-load level, under bursty application traffic:
//!
//! * Fig 12 — background-load detection ratio: benchmarking declares nearly
//!   everything even at 60 % load (over-sensitive); heartbeat stays low at
//!   low load and approaches 1 at ≥ 90 %.
//! * Fig 13 — false-alarm ratio: benchmarking exceeds 15 % (bursty traffic
//!   triggers it); heartbeat stays near zero.

use sps_metrics::Table;

use crate::common::{f2, Experiment, Scale};
use crate::experiments::detectors::{run_level, DetectorScore};
use crate::runner::Runner;

/// The detector ablation's scenario at each load level, reduced to the
/// `(heartbeat, benchmark)` scores (its trend predictor only reads the CPU
/// samples, so it leaves the run unchanged).
fn sweep(runner: &Runner, scale: Scale, seed: u64) -> Vec<(f64, DetectorScore, DetectorScore)> {
    let spikes = scale.pick(100, 12);
    let loads = scale.pick(vec![0.6, 0.7, 0.8, 0.9, 0.95], vec![0.6, 0.9]);
    let scores = runner.map(loads.clone(), |l| run_level(l, spikes, seed));
    loads
        .into_iter()
        .zip(scores)
        .map(|(load, [hb, bench, _])| (load, hb, bench))
        .collect()
}

/// Fig 12: background-load detection ratio vs machine load.
pub fn fig12(runner: &Runner, scale: Scale, seed: u64) -> Experiment {
    let points = sweep(runner, scale, seed);
    let mut table = Table::new(vec!["machine_load_pct", "heartbeat", "benchmark"]);
    for (load, hb, bench) in &points {
        table.row(vec![
            f2(load * 100.0),
            f2(hb.detection),
            f2(bench.detection),
        ]);
    }
    let hb_low = points.first().map(|p| p.1.detection).unwrap_or(0.0);
    let hb_high = points.last().map(|p| p.1.detection).unwrap_or(0.0);
    let bench_low = points.first().map(|p| p.2.detection).unwrap_or(0.0);
    Experiment {
        figure: "Figure 12",
        title: "Background-load detection ratio vs machine load",
        table,
        paper_notes: vec![
            "benchmarking declares essentially all generated loads even at 60% (over-sensitive)"
                .into(),
            "heartbeat is close to 1 at high loads (≥90%) and much lower at low loads".into(),
        ],
        measured_notes: vec![
            format!("heartbeat: {hb_low:.2} at the lowest load → {hb_high:.2} at the highest"),
            format!("benchmark at the lowest load: {bench_low:.2}"),
        ],
        postscript: None,
    }
}

/// Fig 13: false-alarm ratio vs machine load.
pub fn fig13(runner: &Runner, scale: Scale, seed: u64) -> Experiment {
    let points = sweep(runner, scale, seed);
    let mut table = Table::new(vec!["machine_load_pct", "heartbeat", "benchmark"]);
    for (load, hb, bench) in &points {
        table.row(vec![
            f2(load * 100.0),
            f2(hb.false_alarm),
            f2(bench.false_alarm),
        ]);
    }
    let hb_max = points.iter().map(|p| p.1.false_alarm).fold(0.0, f64::max);
    let bench_min = points.iter().map(|p| p.2.false_alarm).fold(1.0, f64::min);
    Experiment {
        figure: "Figure 13",
        title: "False-alarm ratio vs machine load",
        table,
        paper_notes: vec![
            "benchmarking's false-alarm ratio is fairly high, exceeding 15% even at 90% load"
                .into(),
            "heartbeat maintains a very low false-alarm ratio at all loads".into(),
        ],
        measured_notes: vec![
            format!("heartbeat max false-alarm ratio: {hb_max:.2}"),
            format!("benchmark min false-alarm ratio: {bench_min:.2}"),
        ],
        postscript: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_contrast_between_loads() {
        let [low_hb, ..] = run_level(0.6, 10, 3);
        let [high_hb, high_bench, _] = run_level(0.95, 10, 3);
        assert!(
            high_hb.detection > low_hb.detection,
            "heartbeat detects more at higher load: {} vs {}",
            high_hb.detection,
            low_hb.detection
        );
        assert!(
            high_hb.detection > 0.8,
            "near-certain at 95%: {}",
            high_hb.detection
        );
        assert!(
            high_bench.detection > 0.8,
            "benchmark detects high loads: {}",
            high_bench.detection
        );
    }
}
