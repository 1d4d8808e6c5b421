//! Figures 1–3: the measurement study (§II-B).
//!
//! * Fig 1 — per-machine processing time of a parallel application; about a
//!   50 % increase on machines shared with other applications.
//! * Fig 2 — CDF of per-machine mean inter-failure time; ≥75 % of machines
//!   spike more often than once every 60 s.
//! * Fig 3 — CDF of per-machine mean spike duration; ~70 % under 10 s,
//!   ~20 % over 20 s.

use sps_metrics::Table;
use sps_sim::{SimDuration, SimRng};
use sps_workloads::{run_weather_app, ClusterStudy, WEATHER_LOADED_FROM};

use crate::common::{f2, f3, mean, Experiment, Scale};
use crate::runner::Runner;

/// Fig 1: weather-app processing time per machine.
pub fn fig01(runner: &Runner, scale: Scale, seed: u64) -> Experiment {
    let tasks_per_machine = scale.pick(50, 10);
    let run = runner
        .map(vec![seed], |s| {
            let mut rng = SimRng::seed_from(s);
            run_weather_app(tasks_per_machine, &mut rng)
        })
        .pop()
        .expect("one cell submitted");
    let mut table = Table::new(vec![
        "machine",
        "mean_processing_s",
        "shared_with_other_apps",
    ]);
    for (m, t) in &run.rows {
        table.row(vec![
            m.to_string(),
            f3(*t),
            if *m >= WEATHER_LOADED_FROM {
                "yes"
            } else {
                "no"
            }
            .into(),
        ]);
    }
    let clean: Vec<f64> = run
        .rows
        .iter()
        .filter(|(m, _)| *m < WEATHER_LOADED_FROM)
        .map(|(_, t)| *t)
        .collect();
    let loaded: Vec<f64> = run
        .rows
        .iter()
        .filter(|(m, _)| *m >= WEATHER_LOADED_FROM)
        .map(|(_, t)| *t)
        .collect();
    let ratio = mean(&loaded) / mean(&clean);
    Experiment {
        figure: "Figure 1",
        title: "Impact of transient failures on processing time (weather app)",
        table,
        paper_notes: vec![
            "machines 41–53 finish in ~0.58 s; machines 55–61 take ~0.9 s (a ~50% increase)".into(),
        ],
        measured_notes: vec![format!(
            "clean machines {:.3} s, shared machines {:.3} s — {:.0}% increase",
            mean(&clean),
            mean(&loaded),
            (ratio - 1.0) * 100.0
        )],
        postscript: None,
    }
}

fn study(scale: Scale, seed: u64) -> ClusterStudy {
    let duration = scale.pick(
        SimDuration::from_secs(24 * 3600),
        SimDuration::from_secs(2 * 3600),
    );
    let mut rng = SimRng::seed_from(seed);
    ClusterStudy::run(duration, &mut rng)
}

/// Fig 2: CDF of per-machine mean inter-failure time.
pub fn fig02(runner: &Runner, scale: Scale, seed: u64) -> Experiment {
    let s = runner
        .map(vec![seed], |s| study(scale, s))
        .pop()
        .expect("one cell submitted");
    let mut cdf = s.inter_failure_cdf();
    let mut table = Table::new(vec!["avg_inter_failure_s", "cdf"]);
    for (x, f) in cdf.curve(25) {
        table.row(vec![f2(x), f3(f)]);
    }
    let under_60 = cdf.fraction_at_most(60.0);
    Experiment {
        figure: "Figure 2",
        title: "CDF of transient-failure frequency across 83 machines",
        table,
        paper_notes: vec![
            "over 75% of machines have transient failures more frequent than once every 60 s"
                .into(),
            "all 83 machines exhibited transient unavailability".into(),
        ],
        measured_notes: vec![format!(
            "{:.0}% of machines spike more often than once/60 s; {}/{} machines spiked",
            under_60 * 100.0,
            s.machines_with_spikes(),
            s.machines.len()
        )],
        postscript: None,
    }
}

/// Fig 3: CDF of per-machine mean spike duration.
pub fn fig03(runner: &Runner, scale: Scale, seed: u64) -> Experiment {
    let s = runner
        .map(vec![seed], |s| study(scale, s))
        .pop()
        .expect("one cell submitted");
    let mut cdf = s.duration_cdf();
    let mut table = Table::new(vec!["avg_spike_duration_s", "cdf"]);
    for (x, f) in cdf.curve(25) {
        table.row(vec![f2(x), f3(f)]);
    }
    let under_10 = cdf.fraction_at_most(10.0);
    let under_15 = cdf.fraction_at_most(15.0);
    let over_20 = 1.0 - cdf.fraction_at_most(20.0);
    Experiment {
        figure: "Figure 3",
        title: "CDF of transient-failure duration",
        table,
        paper_notes: vec![
            "about 80% of spikes last less than 15 s; above 70% shorter than 10 s".into(),
            "about 20% last more than 20 s".into(),
        ],
        measured_notes: vec![format!(
            "{:.0}% under 10 s, {:.0}% under 15 s, {:.0}% over 20 s",
            under_10 * 100.0,
            under_15 * 100.0,
            over_20 * 100.0
        )],
        postscript: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig01_quick_shows_slowdown() {
        let e = fig01(&Runner::serial(), Scale::Quick, 1);
        assert_eq!(e.table.len(), 21);
        assert!(e.measured_notes[0].contains("increase"));
    }

    #[test]
    fn fig02_03_quick_produce_curves() {
        let e2 = fig02(&Runner::serial(), Scale::Quick, 1);
        assert!(!e2.table.is_empty());
        let e3 = fig03(&Runner::serial(), Scale::Quick, 1);
        assert!(!e3.table.is_empty());
    }
}
