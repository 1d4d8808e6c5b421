//! One campaign cell in the tier-1 suite, in the shape the benchmark's
//! `chaos_cells` workload runs 32 of: the all-Hybrid evaluation chain under
//! the reliable layer loses two primaries at once, recovers, and drains —
//! with the protocol auditor attached and an event budget; a second run
//! puts the campaign's loss and duplication on top. The budget is
//! what keeps the retransmission storm out: every Hybrid connection ends
//! the run with a delivered but unacknowledged tail (§III-B: acks follow
//! stored checkpoints), and a sweep that re-sends that tail every 100 ms
//! for the six quiet seconds costs 44.5 events per element where the
//! backed-off sweep costs 25.5.
//!
//! The rate is 499.6 el/s, off the round number as the benchmark's
//! seed-jittered cells are: at exactly 500 el/s this cell happens to end
//! with next to no tail (22 events per element whatever the sweep does),
//! and the budget would guard nothing.

use hybrid_ha::cluster::{ChaosPlan, FaultProfile};
use hybrid_ha::ha::SjState;
use hybrid_ha::prelude::*;
use hybrid_ha::workloads::chain_job_with;
use sps_audit::Auditor;

/// The cell's two dead primaries.
const FAILED: [MachineId; 2] = [MachineId(1), MachineId(3)];

/// Runs the cell under `plan` with the auditor attached and checks what
/// every campaign cell promises: no audit violation, every element
/// delivered exactly once, and every subjob back in `Normal`.
fn run_cell(plan: ChaosPlan) -> HaSimulation {
    let mut sim = HaSimulation::builder(chain_job_with(3e-4, 20, 8, 4))
        .mode(HaMode::Hybrid)
        .source_rate(499.6)
        .seed(2010)
        .tune(|c| {
            c.reliable_control = true;
            c.failstop_miss_threshold = 20;
        })
        .chaos(plan)
        .trace_probe(Box::new(Auditor::new()))
        .audit_expectations(true, true)
        .build();
    sim.stop_sources_at(SimTime::from_secs(10));
    sim.run_until(SimTime::from_secs(16));
    sim.finish_probes();

    assert_eq!(
        sim.audit_violations(),
        0,
        "{}",
        sim.audit_report().unwrap_or_default()
    );
    let world = sim.world();
    let produced = world.sources()[0].produced();
    assert!(produced > 4_900, "the sources ran for 10 s: {produced}");
    assert_eq!(world.sinks()[0].accepted(), produced, "drained, lossless");
    for sj in 0..world.job().subjob_count() as u32 {
        assert_eq!(world.subjob(SubjobId(sj)).state, SjState::Normal);
    }
    sim
}

#[test]
fn a_campaign_cell_recovers_exactly_once_within_its_event_budget() {
    let plan = ChaosPlan::default().correlated_fail_stop(SimTime::from_secs(1), &FAILED);
    let sim = run_cell(plan);
    let world = sim.world();
    let events = world.ha_events();
    let promotions = events.iter().filter(|e| e.kind == HaEventKind::Promoted);
    assert_eq!(promotions.count(), 2, "one promotion per dead primary");
    let produced = world.sources()[0].produced();
    let processed = sim.events_processed();
    assert!(
        processed <= 30 * produced,
        "{processed} events for {produced} elements: {:.1} per element, budget 30",
        processed as f64 / produced as f64
    );
}

/// The same cell with the campaign's weather on top: 2 % loss and 2 %
/// duplication on every link from 1 s to 3 s, across the promotions. The
/// auditor holds the reliable layer to exactly-once under loss.
#[test]
fn a_lossy_campaign_cell_recovers_exactly_once() {
    let plan = ChaosPlan::default()
        .correlated_fail_stop(SimTime::from_secs(1), &FAILED)
        .loss_window(
            SimTime::from_secs(1),
            SimTime::from_secs(3),
            FaultProfile::loss(0.02).with_duplication(0.02),
        );
    let sim = run_cell(plan);
    let network = sim.world().cluster().network();
    assert!(network.chaos_dropped() > 0, "the window dropped messages");
}
