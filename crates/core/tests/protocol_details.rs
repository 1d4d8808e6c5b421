//! Protocol-detail tests: wiring invariants, epoch guards, ack routing,
//! mixed per-subjob modes, and task-tag encoding.

use sps_cluster::{MachineId, SpikeWindow};
use sps_engine::{Job, OperatorSpec, PeId, Replica, SubjobId};
use sps_ha::{HaMode, HaSimulation, SjState};
use sps_sim::{SimDuration, SimTime};

fn job() -> Job {
    Job::chain("eval", &OperatorSpec::synthetic_default(), 8, 4)
}

#[test]
fn wiring_active_standby_has_two_by_two_cross_subjob_connections() {
    let sim = HaSimulation::builder(job())
        .mode(HaMode::Active)
        .seed(1)
        .build();
    let world = sim.world();
    // pe1 (subjob 0, last PE) feeds pe2 (subjob 1): each copy of pe1
    // connects to both copies of pe2 — the 2×2 pattern behind 4× traffic.
    for replica in Replica::BOTH {
        let inst = world.instance(PeId(1), replica).expect("AS deploys both");
        let conns = inst.output(0).connections();
        assert_eq!(conns.len(), 2, "{replica}: cross-subjob fan-out");
        assert!(conns.iter().all(|c| c.active));
    }
    // Intra-subjob pipes stay replica-local: pe0 -> pe1 has one conn each.
    for replica in Replica::BOTH {
        let inst = world.instance(PeId(0), replica).expect("deployed");
        assert_eq!(inst.output(0).connections().len(), 1, "intra pipe is local");
    }
}

#[test]
fn wiring_hybrid_early_connections_exist_but_are_inactive() {
    let sim = HaSimulation::builder(job())
        .mode(HaMode::None)
        .subjob_mode(SubjobId(1), HaMode::Hybrid)
        .seed(2)
        .build();
    let world = sim.world();
    // pe1 (subjob 0, NONE) feeds subjob 1: one active conn to the primary
    // copy and one early, inactive conn to the suspended secondary.
    let pe1 = world.instance(PeId(1), Replica::Primary).expect("deployed");
    let conns = pe1.output(0).connections();
    assert_eq!(conns.len(), 2);
    let active = conns.iter().filter(|c| c.active).count();
    let inactive = conns.iter().filter(|c| !c.active).count();
    assert_eq!(
        (active, inactive),
        (1, 1),
        "early connection pre-created, inactive"
    );
    // Subjob 0 itself is NONE: no secondary copy exists.
    assert!(world.instance(PeId(0), Replica::Secondary).is_none());
    // Subjob 1's secondary exists and is suspended.
    assert!(world
        .instance(PeId(2), Replica::Secondary)
        .is_some_and(|i| i.is_suspended()));
}

#[test]
fn mixed_modes_coexist_in_one_job() {
    // The paper: "Each subjob in the same job can use a different HA mode."
    let mut sim = HaSimulation::builder(job())
        .mode(HaMode::None)
        .subjob_mode(SubjobId(0), HaMode::Active)
        .subjob_mode(SubjobId(1), HaMode::Passive)
        .subjob_mode(SubjobId(2), HaMode::Hybrid)
        .source_rate(600.0)
        .seed(3)
        .build();
    sim.inject_spike_windows(
        MachineId(2),
        &[SpikeWindow {
            start: SimTime::from_secs(2),
            end: SimTime::from_secs(4),
            share: 1.0,
        }],
    );
    sim.stop_sources_at(SimTime::from_secs(7));
    sim.run_for(SimDuration::from_secs(11));
    assert_eq!(
        sim.world().sinks()[0].accepted(),
        sim.world().sources()[0].produced(),
        "mixed-mode chain is lossless"
    );
    // AS subjob duplicated; its copies both ran.
    assert!(sim
        .world()
        .instance(PeId(0), Replica::Secondary)
        .is_some_and(|i| i.processed_total() > 0));
    // PS subjob has no pre-deployed secondary.
    assert!(sim.world().instance(PeId(2), Replica::Secondary).is_none());
}

#[test]
fn subjob_state_returns_to_normal_and_epoch_advances() {
    let mut sim = HaSimulation::builder(job())
        .mode(HaMode::None)
        .subjob_mode(SubjobId(1), HaMode::Hybrid)
        .source_rate(600.0)
        .seed(4)
        .build();
    let epoch_before = sim.world().subjob(SubjobId(1)).epoch;
    sim.inject_spike_windows(
        MachineId(1),
        &[SpikeWindow {
            start: SimTime::from_secs(1),
            end: SimTime::from_secs(3),
            share: 1.0,
        }],
    );
    sim.run_for(SimDuration::from_secs(6));
    let sj = sim.world().subjob(SubjobId(1));
    assert_eq!(sj.state, SjState::Normal, "cycle completed");
    assert!(sj.epoch > epoch_before, "transitions bump the epoch");
    assert_eq!(
        sj.primary_replica,
        Replica::Primary,
        "rollback restored roles"
    );
}

#[test]
fn checkpoints_resume_after_rollback() {
    let mut sim = HaSimulation::builder(job())
        .mode(HaMode::None)
        .subjob_mode(SubjobId(1), HaMode::Hybrid)
        .source_rate(600.0)
        .seed(5)
        .build();
    sim.inject_spike_windows(
        MachineId(1),
        &[SpikeWindow {
            start: SimTime::from_secs(1),
            end: SimTime::from_secs(3),
            share: 1.0,
        }],
    );
    sim.run_for(SimDuration::from_secs(4));
    let ckpts_after_rollback = sim
        .world()
        .counters()
        .messages(sps_metrics::MsgClass::Checkpoint);
    sim.run_for(SimDuration::from_secs(4));
    let ckpts_later = sim
        .world()
        .counters()
        .messages(sps_metrics::MsgClass::Checkpoint);
    assert!(
        ckpts_later > ckpts_after_rollback + 4,
        "the sweep keeps running after rollback: {ckpts_after_rollback} -> {ckpts_later}"
    );
}

#[test]
fn retention_grows_during_failure_and_trims_after_recovery() {
    let mut sim = HaSimulation::builder(job())
        .mode(HaMode::None)
        .subjob_mode(SubjobId(1), HaMode::Hybrid)
        .source_rate(600.0)
        .seed(6)
        .build();
    sim.inject_spike_windows(
        MachineId(1),
        &[SpikeWindow {
            start: SimTime::from_secs(2),
            end: SimTime::from_secs(5),
            share: 1.0,
        }],
    );
    // Mid-failure: the upstream retains for the stalled primary.
    sim.run_until(SimTime::from_millis(4_500));
    let retained_mid = sim
        .world()
        .instance(PeId(1), Replica::Primary)
        .expect("upstream")
        .output(0)
        .retained_len();
    assert!(
        retained_mid > 300,
        "retention covers the stalled primary's window: {retained_mid}"
    );
    // Well after rollback: trimming caught up.
    sim.run_until(SimTime::from_secs(9));
    let retained_after = sim
        .world()
        .instance(PeId(1), Replica::Primary)
        .expect("upstream")
        .output(0)
        .retained_len();
    assert!(
        retained_after < retained_mid / 3,
        "rollback releases retention: {retained_mid} -> {retained_after}"
    );
}

#[test]
fn no_ha_events_without_failures() {
    let mut sim = HaSimulation::builder(job())
        .mode(HaMode::Hybrid)
        .source_rate(800.0)
        .seed(7)
        .build();
    sim.run_for(SimDuration::from_secs(6));
    assert!(
        sim.world().ha_events().is_empty(),
        "quiet cluster, no declarations: {:?}",
        sim.world().ha_events()
    );
}

#[test]
fn heartbeat_traffic_is_counted_but_not_as_elements() {
    let mut sim = HaSimulation::builder(job())
        .mode(HaMode::Hybrid)
        .source_rate(500.0)
        .seed(8)
        .build();
    sim.run_for(SimDuration::from_secs(3));
    let c = sim.world().counters();
    assert!(
        c.messages(sps_metrics::MsgClass::Heartbeat) > 50,
        "pings flowed"
    );
    assert_eq!(
        c.elements(sps_metrics::MsgClass::Heartbeat),
        0,
        "heartbeats carry no element units"
    );
}
