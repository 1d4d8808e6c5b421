//! Detector ablation: heartbeat vs benchmarking vs trend prediction.
//!
//! §IV-A closes with "our hybrid HA method can readily take advantage" of
//! any detector that is fast and reliable, citing Gu et al.'s prediction
//! work. This experiment runs all three detectors side by side over the
//! same spike schedule and reports detection ratio, false-alarm ratio, and
//! mean detection delay — extending the paper's Figs 12–13 with the
//! prediction column, plus the §V-C detection-delay comparison.

use sps_cluster::{MachineId, SpikeWindow};
use sps_engine::SubjobId;
use sps_ha::{HaMode, HaSimulation, PayloadGen, RateProfile};
use sps_metrics::Table;
use sps_sim::{SimDuration, SimTime};
use sps_workloads::chain_job_with;

use crate::common::{f2, Experiment, Scale};
use crate::runner::Runner;

/// Per-detector outcome at one load level.
#[derive(Debug, Clone, Copy, Default)]
pub struct DetectorScore {
    /// Detected spikes / injected spikes.
    pub detection: f64,
    /// False declarations / all declarations.
    pub false_alarm: f64,
    /// Mean latency from spike start to the first attributed declaration.
    pub mean_delay_ms: f64,
}

fn score(
    declarations: &[SimTime],
    spikes: &[SpikeWindow],
    tolerance: SimDuration,
) -> DetectorScore {
    let mut first_hit: Vec<Option<SimTime>> = vec![None; spikes.len()];
    let mut false_alarms = 0usize;
    for &at in declarations {
        let mut matched = false;
        for (i, w) in spikes.iter().enumerate() {
            if at >= w.start && at <= w.end + tolerance {
                if first_hit[i].is_none() {
                    first_hit[i] = Some(at);
                }
                matched = true;
                break;
            }
        }
        if !matched {
            false_alarms += 1;
        }
    }
    let hits: Vec<(usize, SimTime)> = first_hit
        .iter()
        .enumerate()
        .filter_map(|(i, t)| t.map(|t| (i, t)))
        .collect();
    let mean_delay_ms = if hits.is_empty() {
        0.0
    } else {
        hits.iter()
            .map(|&(i, t)| t.saturating_since(spikes[i].start).as_millis_f64())
            .sum::<f64>()
            / hits.len() as f64
    };
    DetectorScore {
        detection: hits.len() as f64 / spikes.len() as f64,
        false_alarm: if declarations.is_empty() {
            0.0
        } else {
            false_alarms as f64 / declarations.len() as f64
        },
        mean_delay_ms,
    }
}

/// Runs all three detectors at one target load.
pub fn run_level(load: f64, spikes: usize, seed: u64) -> [DetectorScore; 3] {
    let job = chain_job_with(0.000_3, 20, 4, 2);
    let ambient = 0.18;
    let spike_share = (load - ambient).clamp(0.05, 1.0);
    let machine = MachineId(1);
    let mut sim = HaSimulation::builder(job)
        .mode(HaMode::None)
        .subjob_mode(SubjobId(1), HaMode::Hybrid)
        .source_profile(
            0,
            RateProfile::Bursty {
                base_per_sec: 250.0,
                burst_per_sec: 650.0,
                mean_on: SimDuration::from_millis(300),
                mean_off: SimDuration::from_millis(1_200),
            },
            PayloadGen::Synthetic,
        )
        .seed(seed)
        .tune(|c| c.heartbeat_interval = SimDuration::from_millis(110))
        .build();
    let det = sim.add_benchmark_detector(machine);
    sim.world_mut().attach_predictor(det);

    let windows: Vec<SpikeWindow> = (0..spikes)
        .map(|i| {
            let start = SimTime::from_millis(5_000 + i as u64 * 20_000 + (i as u64 * 613) % 900);
            SpikeWindow {
                start,
                end: start + SimDuration::from_secs(5),
                share: spike_share,
            }
        })
        .collect();
    sim.inject_spike_windows(machine, &windows);
    sim.run_until(windows.last().expect("spikes").end + SimDuration::from_secs(10));

    let tolerance = SimDuration::from_millis(1_000);
    let world = sim.world();
    [
        score(&world.subjob(SubjobId(1)).declarations, &windows, tolerance),
        score(
            &world.bench_detectors()[0].declarations,
            &windows,
            tolerance,
        ),
        score(
            &world.bench_detectors()[0].predictor_declarations,
            &windows,
            tolerance,
        ),
    ]
}

/// The detector ablation experiment.
pub fn ablation_detectors(runner: &Runner, scale: Scale, seed: u64) -> Experiment {
    let spikes = scale.pick(60, 10);
    let loads = scale.pick(vec![0.6, 0.8, 0.9, 0.95], vec![0.6, 0.9]);
    let scores = runner.map(loads.clone(), |load| run_level(load, spikes, seed));
    let mut table = Table::new(vec![
        "load_pct",
        "hb_detect",
        "hb_fa",
        "hb_delay_ms",
        "bench_detect",
        "bench_fa",
        "bench_delay_ms",
        "pred_detect",
        "pred_fa",
        "pred_delay_ms",
    ]);
    let mut high_delays = (0.0, 0.0, 0.0);
    for (&load, [hb, bench, pred]) in loads.iter().zip(scores) {
        if load >= 0.89 {
            high_delays = (hb.mean_delay_ms, bench.mean_delay_ms, pred.mean_delay_ms);
        }
        table.row(vec![
            f2(load * 100.0),
            f2(hb.detection),
            f2(hb.false_alarm),
            f2(hb.mean_delay_ms),
            f2(bench.detection),
            f2(bench.false_alarm),
            f2(bench.mean_delay_ms),
            f2(pred.detection),
            f2(pred.false_alarm),
            f2(pred.mean_delay_ms),
        ]);
    }
    Experiment {
        figure: "§IV-A/§V-C ablation",
        title: "Heartbeat vs benchmarking vs trend prediction",
        table,
        paper_notes: vec![
            "heartbeat: comparable detection delay to benchmarking, far fewer false alarms".into(),
            "the hybrid is compatible with prediction-based detectors (Gu et al.)".into(),
        ],
        measured_notes: vec![format!(
            "mean detection delay at ≥90% load — heartbeat {:.0} ms, benchmark {:.0} ms, \
             predictor {:.0} ms",
            high_delays.0, high_delays.1, high_delays.2
        )],
        postscript: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictor_scores_high_loads() {
        let [hb, bench, pred] = run_level(0.95, 8, 4);
        assert!(hb.detection > 0.8, "heartbeat {:?}", hb);
        assert!(bench.detection > 0.8, "benchmark {:?}", bench);
        assert!(pred.detection > 0.6, "predictor {:?}", pred);
    }

    #[test]
    fn score_matches_declarations_to_windows() {
        let spikes = vec![SpikeWindow {
            start: SimTime::from_secs(10),
            end: SimTime::from_secs(15),
            share: 1.0,
        }];
        let declarations = vec![
            SimTime::from_secs(11),       // hit
            SimTime::from_secs(20),       // false alarm
            SimTime::from_millis(15_100), // within tolerance: still the spike
        ];
        let s = score(&declarations, &spikes, SimDuration::from_millis(1_000));
        assert_eq!(s.detection, 1.0);
        assert_eq!(s.false_alarm, 1.0 / 3.0);
        assert_eq!(s.mean_delay_ms, 1_000.0);
    }

    #[test]
    fn score_handles_empty_declarations() {
        let spikes = vec![SpikeWindow {
            start: SimTime::from_secs(1),
            end: SimTime::from_secs(2),
            share: 1.0,
        }];
        let s = score(&[], &spikes, SimDuration::from_millis(100));
        assert_eq!(s.detection, 0.0);
        assert_eq!(s.false_alarm, 0.0);
        assert_eq!(s.mean_delay_ms, 0.0);
    }
}
