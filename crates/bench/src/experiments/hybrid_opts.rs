//! Ablation of the hybrid's §IV-B optimization techniques ("Gains of the
//! Hybrid Optimization Techniques", §V-B):
//!
//! * **pre-deployment** — resume a suspended copy instead of deploying on
//!   demand ("only 1/4 of the time", a ~75 % reduction);
//! * **early connection** — flip `is_active` instead of connecting on
//!   demand ("a reduction of about 50 % in latency");
//! * **read state on rollback** — the primary jumps to the secondary's
//!   state instead of chewing through everything that arrived during the
//!   failure ("the reduction ... can be the failure duration when data
//!   rates are high").

use sps_cluster::MachineId;
use sps_engine::SubjobId;
use sps_ha::{HaConfig, HaMode, HaSimulation};
use sps_metrics::Table;
use sps_sim::{SimDuration, SimTime};
use sps_workloads::{eval_chain_job, single_failure};

use crate::common::{f2, Experiment, Scale};
use crate::runner::Runner;

/// One configuration's recovery outcome.
#[derive(Debug, Clone, Copy)]
pub struct OptOutcome {
    /// Detection → copy serving (resume or deploy+connect), ms.
    pub ready_ms: f64,
    /// Detection → first new sink output, ms.
    pub total_ms: f64,
    /// Mean delay of elements born in the 4 s after the failure clears
    /// (the rollback catch-up cost), ms.
    pub post_rollback_delay_ms: f64,
}

fn run(tune: impl Fn(&mut HaConfig), failure_secs: u64, seed: u64) -> OptOutcome {
    let mut sim = HaSimulation::builder(eval_chain_job())
        .mode(HaMode::None)
        .subjob_mode(SubjobId(1), HaMode::Hybrid)
        .source_rate(1_000.0)
        .seed(seed)
        .log_sink_accepts(true)
        .tune(tune)
        .build();
    let failure_at = SimTime::from_secs(3);
    let failure_end = failure_at + SimDuration::from_secs(failure_secs);
    sim.inject_spike_windows(
        MachineId(1),
        &single_failure(failure_at, SimDuration::from_secs(failure_secs)),
    );
    // Declared before the run: the recorder folds window means on arrival.
    sim.world_mut().sinks_mut()[0]
        .latency_mut()
        .declare_windows(&[(
            failure_end.as_secs_f64(),
            (failure_end + SimDuration::from_secs(4)).as_secs_f64(),
        )]);
    sim.run_until(failure_end + SimDuration::from_secs(6));
    let t = sim
        .recovery_timeline(SubjobId(1), failure_at)
        .expect("recovery happened");
    let (inside, _) = sim.world().sinks()[0].latency().window_means();
    OptOutcome {
        ready_ms: t.ready_ms - t.detected_ms,
        total_ms: t.total_ms(),
        post_rollback_delay_ms: inside,
    }
}

/// The §IV-B optimization ablation.
pub fn ablation_hybrid_optimizations(runner: &Runner, scale: Scale, seed: u64) -> Experiment {
    let failure_secs = scale.pick(5, 3);
    let runs = scale.pick(5, 2);
    type Tune = fn(&mut HaConfig);
    let configs: [(&str, Tune); 4] = [
        ("full hybrid", |_| {}),
        ("no pre-deployment", |c| c.hybrid_predeploy = false),
        ("no early connections", |c| {
            c.hybrid_early_connections = false
        }),
        ("no read-state rollback", |c| {
            c.read_state_on_rollback = false
        }),
    ];
    let mut table = Table::new(vec![
        "configuration",
        "ready_after_detect_ms",
        "recovery_total_ms",
        "post_rollback_delay_ms",
    ]);
    // One cell per (configuration, repetition), in the serial visiting order.
    let mut cells = Vec::new();
    for (_, tune) in configs {
        for i in 0..runs {
            cells.push((tune, seed + i));
        }
    }
    let mut outcomes = runner
        .map(cells, |(tune, s)| run(tune, failure_secs, s))
        .into_iter();

    let mut rows = Vec::new();
    for (name, _tune) in configs {
        let mut acc = (0.0, 0.0, 0.0);
        for _ in 0..runs {
            let o = outcomes.next().expect("one outcome per cell");
            acc.0 += o.ready_ms;
            acc.1 += o.total_ms;
            acc.2 += o.post_rollback_delay_ms;
        }
        let n = runs as f64;
        let o = OptOutcome {
            ready_ms: acc.0 / n,
            total_ms: acc.1 / n,
            post_rollback_delay_ms: acc.2 / n,
        };
        rows.push((name, o));
        table.row(vec![
            name.into(),
            f2(o.ready_ms),
            f2(o.total_ms),
            f2(o.post_rollback_delay_ms),
        ]);
    }
    let full = rows[0].1;
    let no_pre = rows[1].1;
    let no_read = rows[3].1;
    Experiment {
        figure: "§IV-B/§V-B ablation",
        title: "Gains of the hybrid optimization techniques",
        table,
        paper_notes: vec![
            "pre-deployment: resuming takes only 1/4 of on-demand deployment (~75% reduction)"
                .into(),
            "early connection: ~50% reduction in (re)connection latency".into(),
            "read state on rollback: avoids reprocessing all data arriving during the failure"
                .into(),
        ],
        measured_notes: vec![
            format!(
                "pre-deployment cuts the ready stage {:.0} ms → {:.0} ms ({:.0}% reduction)",
                no_pre.ready_ms,
                full.ready_ms,
                (1.0 - full.ready_ms / no_pre.ready_ms) * 100.0
            ),
            format!(
                "read-state rollback cuts post-failure delay {:.0} ms → {:.0} ms",
                no_read.post_rollback_delay_ms, full.post_rollback_delay_ms
            ),
        ],
        postscript: None,
        dump: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predeployment_cuts_ready_time_by_three_quarters() {
        let full = run(|_| {}, 3, 31);
        let no_pre = run(|c| c.hybrid_predeploy = false, 3, 31);
        let reduction = 1.0 - full.ready_ms / no_pre.ready_ms;
        assert!(
            (0.6..0.9).contains(&reduction),
            "paper: ~75% reduction; got {reduction:.2} ({} vs {})",
            full.ready_ms,
            no_pre.ready_ms
        );
    }

    #[test]
    fn early_connections_cut_switchover_latency() {
        let full = run(|_| {}, 3, 32);
        let no_early = run(|c| c.hybrid_early_connections = false, 3, 32);
        assert!(
            no_early.ready_ms > full.ready_ms + 30.0,
            "on-demand connection adds latency: {} vs {}",
            full.ready_ms,
            no_early.ready_ms
        );
    }

    #[test]
    fn read_state_rollback_avoids_catchup() {
        let full = run(|_| {}, 4, 33);
        let no_read = run(|c| c.read_state_on_rollback = false, 4, 33);
        assert!(
            no_read.post_rollback_delay_ms > 3.0 * full.post_rollback_delay_ms,
            "without read-state the primary chews backlog: {} vs {}",
            full.post_rollback_delay_ms,
            no_read.post_rollback_delay_ms
        );
    }

    #[test]
    fn all_ablated_configurations_are_lossless() {
        for tune in [
            (|c: &mut HaConfig| c.hybrid_predeploy = false) as fn(&mut HaConfig),
            |c| c.hybrid_early_connections = false,
            |c| c.read_state_on_rollback = false,
            |c| {
                c.hybrid_predeploy = false;
                c.hybrid_early_connections = false;
                c.read_state_on_rollback = false;
            },
        ] {
            let mut sim = HaSimulation::builder(eval_chain_job())
                .mode(HaMode::None)
                .subjob_mode(SubjobId(1), HaMode::Hybrid)
                .source_rate(600.0)
                .seed(34)
                .tune(tune)
                .build();
            sim.inject_spike_windows(
                MachineId(1),
                &single_failure(SimTime::from_secs(2), SimDuration::from_secs(3)),
            );
            sim.stop_sources_at(SimTime::from_secs(7));
            sim.run_for(SimDuration::from_secs(12));
            assert_eq!(
                sim.world().sinks()[0].accepted(),
                sim.world().sources()[0].produced(),
                "ablated hybrid lost elements"
            );
        }
    }
}
