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

use sps_cluster::{MachineId, SpikeWindow};
use sps_engine::SubjobId;
use sps_ha::{HaMode, HaSimulation, PayloadGen, RateProfile};
use sps_metrics::Table;
use sps_sim::{SimDuration, SimTime};
use sps_workloads::chain_job_with;

use crate::common::{f2, Experiment, Scale};
use crate::runner::Runner;

/// One load level's detection outcome for both detectors.
#[derive(Debug, Clone, Copy)]
pub struct DetectionPoint {
    /// Target machine load during spikes.
    pub load: f64,
    /// Heartbeat: detected spikes / injected spikes.
    pub hb_detection: f64,
    /// Heartbeat: false declarations / all declarations.
    pub hb_false_alarm: f64,
    /// Benchmarking: detected spikes / injected spikes.
    pub bench_detection: f64,
    /// Benchmarking: false declarations / all declarations.
    pub bench_false_alarm: f64,
}

/// Classifies declarations against ground-truth spike windows.
fn classify(
    declarations: &[SimTime],
    spikes: &[SpikeWindow],
    tolerance: SimDuration,
) -> (usize, usize) {
    let mut detected = vec![false; spikes.len()];
    let mut false_alarms = 0usize;
    for &at in declarations {
        let mut matched = false;
        for (i, w) in spikes.iter().enumerate() {
            if at >= w.start && at <= w.end + tolerance {
                detected[i] = true;
                matched = true;
                break;
            }
        }
        if !matched {
            false_alarms += 1;
        }
    }
    (detected.iter().filter(|&&d| d).count(), false_alarms)
}

/// Runs the detection experiment at one target load level.
pub fn run_level(load: f64, spikes: usize, seed: u64) -> DetectionPoint {
    // Two subjobs; the machine under test (machine 1) hosts subjob 1's two
    // PEs, whose ambient demand averages ~0.2 CPU under the bursty feed.
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
        .tune(|c| {
            // The §V-C study uses a 110 ms heartbeat.
            c.heartbeat_interval = SimDuration::from_millis(110);
        })
        .build();
    sim.add_benchmark_detector(machine);

    // Periodic 5 s spikes, 15 s apart, with deterministic phase jitter.
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
    let horizon = windows.last().expect("spikes requested").end + SimDuration::from_secs(10);
    sim.run_until(horizon);

    let tolerance = SimDuration::from_millis(1_000);
    let world = sim.world();
    let hb_declarations: Vec<SimTime> = world.monitors()[0].declarations.clone();
    let bench_declarations: Vec<SimTime> = world.bench_detectors()[0].declarations.clone();
    let (hb_hit, hb_fa) = classify(&hb_declarations, &windows, tolerance);
    let (bench_hit, bench_fa) = classify(&bench_declarations, &windows, tolerance);
    let ratio = |hits: usize| hits as f64 / spikes as f64;
    let fa_ratio = |fa: usize, total: usize| {
        if total == 0 {
            0.0
        } else {
            fa as f64 / total as f64
        }
    };
    DetectionPoint {
        load,
        hb_detection: ratio(hb_hit),
        hb_false_alarm: fa_ratio(hb_fa, hb_declarations.len()),
        bench_detection: ratio(bench_hit),
        bench_false_alarm: fa_ratio(bench_fa, bench_declarations.len()),
    }
}

fn sweep(runner: &Runner, scale: Scale, seed: u64) -> Vec<DetectionPoint> {
    let spikes = scale.pick(100, 12);
    let loads = scale.pick(vec![0.6, 0.7, 0.8, 0.9, 0.95], vec![0.6, 0.9]);
    runner.map(loads, |l| run_level(l, spikes, seed))
}

/// Fig 12: background-load detection ratio vs machine load.
pub fn fig12(runner: &Runner, scale: Scale, seed: u64) -> Experiment {
    let points = sweep(runner, scale, seed);
    let mut table = Table::new(vec!["machine_load_pct", "heartbeat", "benchmark"]);
    for p in &points {
        table.row(vec![
            f2(p.load * 100.0),
            f2(p.hb_detection),
            f2(p.bench_detection),
        ]);
    }
    let hb_low = points.first().map(|p| p.hb_detection).unwrap_or(0.0);
    let hb_high = points.last().map(|p| p.hb_detection).unwrap_or(0.0);
    let bench_low = points.first().map(|p| p.bench_detection).unwrap_or(0.0);
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
    for p in &points {
        table.row(vec![
            f2(p.load * 100.0),
            f2(p.hb_false_alarm),
            f2(p.bench_false_alarm),
        ]);
    }
    let hb_max = points.iter().map(|p| p.hb_false_alarm).fold(0.0, f64::max);
    let bench_min = points
        .iter()
        .map(|p| p.bench_false_alarm)
        .fold(1.0, f64::min);
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
    fn classification_matches_windows() {
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
        let (hits, fa) = classify(&declarations, &spikes, SimDuration::from_millis(1_000));
        assert_eq!(hits, 1);
        assert_eq!(fa, 1);
    }

    #[test]
    fn detection_contrast_between_loads() {
        let low = run_level(0.6, 10, 3);
        let high = run_level(0.95, 10, 3);
        assert!(
            high.hb_detection > low.hb_detection,
            "heartbeat detects more at higher load: {} vs {}",
            high.hb_detection,
            low.hb_detection
        );
        assert!(
            high.hb_detection > 0.8,
            "near-certain at 95%: {}",
            high.hb_detection
        );
        assert!(
            high.bench_detection > 0.8,
            "benchmark detects high loads: {}",
            high.bench_detection
        );
    }
}
