//! Figures 9–11: hybrid switching overheads (§V-B).
//!
//! * Fig 9 — switch-over and rollback time vs data rate, for 5 s and 10 s
//!   unavailability: switch-over (resume + connection activation) is flat;
//!   rollback (read-state) grows with the rate because more elements sit in
//!   the secondary's queues.
//! * Fig 10 — switching message overhead vs rate ≈ rate × unavailability
//!   duration: dominated by the elements still sent to the unresponsive
//!   primary.
//! * Fig 11 — total message overhead grows linearly with the number of PEs
//!   per machine (each PE adds its own checkpoint traffic).

use sps_engine::SubjobId;
use sps_ha::{HaEventKind, HaMode, HaSimulation};
use sps_metrics::{fmt_count, Table};
use sps_sim::{SimDuration, SimTime};
use sps_workloads::{chain_job_with, single_failure};

use crate::common::{f2, Experiment, Scale};
use crate::runner::Runner;

/// Per-element demand for the rate sweep (saturation stays away up to
/// ~8 K elements/s with 2 PEs per machine, so queueing grows with rate the
/// way the paper's testbed did).
const SWEEP_DEMAND: f64 = 60e-6;

#[derive(Debug, Clone, Copy)]
struct SwitchCycle {
    switchover_ms: f64,
    rollback_ms: f64,
    overhead_elements: u64,
}

fn run_cycle(rate: f64, unavail: SimDuration, seed: u64) -> SwitchCycle {
    // Every subjob runs hybrid HA, as in the paper's prototype: downstream
    // acknowledgments then follow the checkpoint cadence, so the live
    // secondary's output queues hold up to a checkpoint interval of data —
    // the rate-dependent read-back volume Fig 9 measures.
    let job = chain_job_with(SWEEP_DEMAND, 20, 8, 4);
    let mut sim = HaSimulation::builder(job)
        .mode(HaMode::Hybrid)
        .source_rate(rate)
        .seed(seed)
        .tune(|c| {
            // A 10 s unavailability must stay "transient": keep the
            // fail-stop declaration beyond it.
            c.failstop_miss_threshold = 200;
        })
        .build();
    let failure_at = SimTime::from_secs(3);
    sim.inject_spike_windows(
        sps_cluster::MachineId(1),
        &single_failure(failure_at, unavail),
    );
    sim.run_until(failure_at + unavail + SimDuration::from_secs(4));
    let events = sim.world().ha_events();
    let find = |kind: HaEventKind| {
        events
            .iter()
            .find(|e| e.kind == kind)
            .map(|e| e.at)
            .unwrap_or(SimTime::ZERO)
    };
    let detected = find(HaEventKind::Detected);
    let switched = find(HaEventKind::SwitchoverComplete);
    let rb_start = find(HaEventKind::RollbackStarted);
    let rb_done = find(HaEventKind::RollbackComplete);
    SwitchCycle {
        switchover_ms: switched.saturating_since(detected).as_millis_f64(),
        rollback_ms: rb_done.saturating_since(rb_start).as_millis_f64(),
        overhead_elements: sim.world().subjob(SubjobId(1)).switch_overhead_elements,
    }
}

/// One `run_cycle` cell per (rate, unavailability) pair, 5 s then 10 s per
/// rate — the serial visiting order shared by Figs 9 and 10.
fn unavailability_cells(
    runner: &Runner,
    rates: &[f64],
    seed: u64,
) -> std::vec::IntoIter<SwitchCycle> {
    let mut cells = Vec::new();
    for &rate in rates {
        cells.push((rate, SimDuration::from_secs(5)));
        cells.push((rate, SimDuration::from_secs(10)));
    }
    runner
        .map(cells, |(rate, unavail)| run_cycle(rate, unavail, seed))
        .into_iter()
}

/// Fig 9: switch-over and rollback time vs data rate.
pub fn fig09(runner: &Runner, scale: Scale, seed: u64) -> Experiment {
    let rates: Vec<f64> = scale.pick(
        vec![500.0, 1_000.0, 2_000.0, 4_000.0, 7_000.0],
        vec![500.0, 4_000.0],
    );
    let mut table = Table::new(vec![
        "rate_el_per_s",
        "5s_switchover_ms",
        "5s_rollback_ms",
        "10s_switchover_ms",
        "10s_rollback_ms",
    ]);
    let mut sw_all = Vec::new();
    let mut rb_first_last = (0.0, 0.0);
    let mut cycles = unavailability_cells(runner, &rates, seed);
    for (i, &rate) in rates.iter().enumerate() {
        let c5 = cycles.next().expect("one cell per (rate, 5s)");
        let c10 = cycles.next().expect("one cell per (rate, 10s)");
        sw_all.push(c5.switchover_ms);
        sw_all.push(c10.switchover_ms);
        if i == 0 {
            rb_first_last.0 = c10.rollback_ms;
        }
        if i == rates.len() - 1 {
            rb_first_last.1 = c10.rollback_ms;
        }
        table.row(vec![
            fmt_count(rate as u64),
            f2(c5.switchover_ms),
            f2(c5.rollback_ms),
            f2(c10.switchover_ms),
            f2(c10.rollback_ms),
        ]);
    }
    let sw_mean = sw_all.iter().sum::<f64>() / sw_all.len() as f64;
    Experiment {
        figure: "Figure 9",
        title: "Hybrid switch-over and rollback time vs data rate",
        table,
        paper_notes: vec![
            "switch-over time is stable across data rates and durations".into(),
            "rollback time grows with the data rate (more elements to read back)".into(),
        ],
        measured_notes: vec![
            format!("mean switch-over: {sw_mean:.0} ms (≈ resume delay + activation)"),
            format!(
                "10 s rollback: {:.1} ms at the lowest rate → {:.1} ms at the highest",
                rb_first_last.0, rb_first_last.1
            ),
        ],
        postscript: None,
    }
}

/// Fig 10: switching message overhead vs data rate.
pub fn fig10(runner: &Runner, scale: Scale, seed: u64) -> Experiment {
    let rates: Vec<f64> = scale.pick(
        vec![500.0, 1_000.0, 2_000.0, 4_000.0, 7_000.0],
        vec![500.0, 4_000.0],
    );
    let mut table = Table::new(vec![
        "rate_el_per_s",
        "5s_overhead_elements",
        "10s_overhead_elements",
        "10s_over_rate_x_duration",
    ]);
    let mut cycles = unavailability_cells(runner, &rates, seed);
    for &rate in &rates {
        let c5 = cycles.next().expect("one cell per (rate, 5s)");
        let c10 = cycles.next().expect("one cell per (rate, 10s)");
        table.row(vec![
            fmt_count(rate as u64),
            fmt_count(c5.overhead_elements),
            fmt_count(c10.overhead_elements),
            f2(c10.overhead_elements as f64 / (rate * 10.0)),
        ]);
    }
    Experiment {
        figure: "Figure 10",
        title: "Hybrid switching message overhead vs data rate",
        table,
        paper_notes: vec![
            "overhead grows linearly with the rate; roughly rate × unavailability duration".into(),
            "dominated by elements sent to the unresponsive primary; read-back is small".into(),
        ],
        measured_notes: vec!["the last column should stay near 1.0 (≈ rate × duration)".into()],
        postscript: None,
    }
}

/// Fig 11: total message overhead vs number of PEs per machine.
pub fn fig11(runner: &Runner, scale: Scale, seed: u64) -> Experiment {
    let sim_secs = scale.pick(10, 3);
    let pes_per_machine: Vec<usize> = scale.pick(vec![1, 2, 3, 4, 5, 6, 7, 8], vec![1, 4, 8]);
    let mut table = Table::new(vec!["pes_per_machine", "total_overhead_elements"]);
    let mut first = 0u64;
    let mut last = 0u64;
    let totals = runner.map(pes_per_machine.clone(), |k| {
        // Two subjobs of k PEs each, both hybrid; light per-element demand
        // so even 8 PEs per machine stay unsaturated.
        let job = chain_job_with(40e-6, 20, 2 * k, 2);
        let mut sim = HaSimulation::builder(job)
            .mode(HaMode::Hybrid)
            .source_rate(1_000.0)
            .seed(seed)
            .build();
        sim.run_until(SimTime::from_secs(sim_secs));
        sim.report().total_overhead_elements()
    });
    for (i, (&k, total)) in pes_per_machine.iter().zip(totals).enumerate() {
        if i == 0 {
            first = total;
        }
        last = total;
        table.row(vec![k.to_string(), fmt_count(total)]);
    }
    Experiment {
        figure: "Figure 11",
        title: "Message overhead vs number of PEs per machine (hybrid)",
        table,
        paper_notes: vec![
            "overhead increases about linearly: each PE adds its own checkpoint traffic".into(),
        ],
        measured_notes: vec![format!(
            "{} elements at 1 PE/machine → {} at the maximum",
            fmt_count(first),
            fmt_count(last)
        )],
        postscript: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_cycle_records_all_phases() {
        let c = run_cycle(1_000.0, SimDuration::from_secs(5), 5);
        assert!(c.switchover_ms > 0.0, "switchover happened");
        assert!(c.rollback_ms > 0.0, "rollback happened");
        assert!(
            c.overhead_elements > 1_000,
            "elements kept flowing to the primary"
        );
    }

    #[test]
    fn fig11_quick_is_monotone() {
        let e = fig11(&Runner::serial(), Scale::Quick, 2);
        assert_eq!(e.table.len(), 3);
    }
}
