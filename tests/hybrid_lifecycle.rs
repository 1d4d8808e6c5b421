//! Behavioural tests of the hybrid state machine: event ordering,
//! false-alarm tolerance, repeated switch/rollback cycles, and fail-stop
//! promotion.

use hybrid_ha::prelude::*;

fn eval_sim(seed: u64) -> HaSimulation {
    HaSimulation::builder(eval_chain_job())
        .mode(HaMode::None)
        .subjob_mode(SubjobId(1), HaMode::Hybrid)
        .source_rate(800.0)
        .seed(seed)
        .log_sink_accepts(true)
        .build()
}

fn kinds_of(sim: &HaSimulation) -> Vec<HaEventKind> {
    sim.world().ha_events().iter().map(|e| e.kind).collect()
}

#[test]
fn lifecycle_events_are_well_ordered() {
    let mut sim = eval_sim(1);
    sim.inject_spike_windows(
        MachineId(1),
        &single_failure(SimTime::from_secs(2), SimDuration::from_secs(3)),
    );
    sim.run_for(SimDuration::from_secs(8));
    let events = sim.world().ha_events();
    let order: Vec<HaEventKind> = events.iter().map(|e| e.kind).collect();
    assert_eq!(
        order,
        vec![
            HaEventKind::Detected,
            HaEventKind::SwitchoverComplete,
            HaEventKind::RollbackStarted,
            HaEventKind::RollbackComplete,
        ]
    );
    for pair in events.windows(2) {
        assert!(pair[0].at <= pair[1].at, "events in time order");
    }
    // Detection on the first miss: within ~3 heartbeat intervals.
    let detect_ms = events[0]
        .at
        .saturating_since(SimTime::from_secs(2))
        .as_millis_f64();
    assert!(
        (50.0..350.0).contains(&detect_ms),
        "1-miss detection, got {detect_ms} ms"
    );
    // Rollback soon after the failure clears.
    let rollback_ms = events[2]
        .at
        .saturating_since(SimTime::from_secs(5))
        .as_millis_f64();
    assert!(
        rollback_ms < 1_000.0,
        "rollback within 1 s of recovery, got {rollback_ms} ms"
    );
}

#[test]
fn repeated_cycles_accumulate_no_errors() {
    let mut sim = eval_sim(2);
    for k in 0..4 {
        sim.inject_spike_windows(
            MachineId(1),
            &single_failure(SimTime::from_secs(2 + 4 * k), SimDuration::from_secs(2)),
        );
    }
    sim.stop_sources_at(SimTime::from_secs(20));
    sim.run_for(SimDuration::from_secs(24));
    let kinds = kinds_of(&sim);
    let switches = kinds
        .iter()
        .filter(|k| **k == HaEventKind::SwitchoverComplete)
        .count();
    let rollbacks = kinds
        .iter()
        .filter(|k| **k == HaEventKind::RollbackComplete)
        .count();
    assert!(switches >= 4, "one switch-over per spike, got {switches}");
    assert_eq!(
        switches, rollbacks,
        "every switch-over eventually rolls back"
    );
    assert_eq!(
        sim.world().sinks()[0].accepted(),
        sim.world().sources()[0].produced(),
        "lossless across {switches} cycles"
    );
}

#[test]
fn secondary_is_refreshed_in_memory_while_suspended() {
    let mut sim = eval_sim(3);
    sim.run_for(SimDuration::from_secs(3));
    let world = sim.world();
    // Subjob 1 = PEs 2 and 3; the suspended secondary's restored counter
    // state tracks the primary via checkpoint refreshes.
    let sj = world.subjob(SubjobId(1));
    assert!(
        sj.ckpt(PeId(2)).stored.is_some(),
        "checkpoints stored at the secondary"
    );
    let sec = world
        .instance(PeId(2), Replica::Secondary)
        .expect("pre-deployed");
    assert!(
        sec.is_suspended(),
        "secondary suspended in normal operation"
    );
    assert_eq!(sec.processed_total(), 0, "suspended copy consumed no CPU");
}

#[test]
fn false_alarm_rolls_back_cheaply() {
    // A spike shorter than the resume delay: the switch-over may complete
    // or be aborted, but either way the system returns to Normal and no
    // data is lost.
    let mut sim = eval_sim(4);
    sim.inject_spike_windows(
        MachineId(1),
        &single_failure(SimTime::from_secs(2), SimDuration::from_millis(160)),
    );
    sim.stop_sources_at(SimTime::from_secs(6));
    sim.run_for(SimDuration::from_secs(9));
    assert_eq!(
        sim.world().sinks()[0].accepted(),
        sim.world().sources()[0].produced()
    );
    let sj = sim.world().subjob(SubjobId(1));
    assert_eq!(format!("{:?}", sj.state), "Normal");
}

#[test]
fn failstop_promotes_and_redeploys_standby() {
    let mut sim = HaSimulation::builder(eval_chain_job())
        .mode(HaMode::None)
        .subjob_mode(SubjobId(1), HaMode::Hybrid)
        .source_rate(800.0)
        .seed(5)
        .tune(|c| c.failstop_miss_threshold = 15)
        .build();
    sim.fail_stop_at(MachineId(1), SimTime::from_secs(2));
    sim.stop_sources_at(SimTime::from_secs(8));
    sim.run_for(SimDuration::from_secs(12));
    let kinds = kinds_of(&sim);
    assert!(kinds.contains(&HaEventKind::Promoted), "{kinds:?}");
    assert!(kinds.contains(&HaEventKind::SecondaryReady), "{kinds:?}");
    assert!(
        !kinds.contains(&HaEventKind::RollbackStarted),
        "a dead machine never triggers rollback: {kinds:?}"
    );
    let sj = sim.world().subjob(SubjobId(1));
    assert_eq!(sj.primary_replica, Replica::Secondary, "roles swapped");
    assert_eq!(
        sim.world().sinks()[0].accepted(),
        sim.world().sources()[0].produced(),
        "fail-stop recovery is lossless"
    );
    // The replacement standby exists, suspended, on a spare machine.
    let standby = sim
        .world()
        .instance(PeId(2), Replica::Primary)
        .expect("redeployed");
    assert!(standby.is_suspended());
}

/// Under the §IV-B "no pre-deployment" ablation a hybrid standby copy is
/// deployed on demand at switch-over, never ahead of time — and the
/// replacement standby a promotion provisions follows the same rule as the
/// one provisioned at job start.
#[test]
fn promotion_keeps_no_standby_copy_without_predeploy() {
    let mut sim = HaSimulation::builder(eval_chain_job())
        .subjob_mode(SubjobId(0), HaMode::Hybrid)
        .subjob_mode(SubjobId(1), HaMode::Active)
        .subjob_mode(SubjobId(2), HaMode::Passive)
        .subjob_mode(SubjobId(3), HaMode::Hybrid)
        .source_rate(1_000.0)
        .seed(2010)
        .tune(|c| {
            c.failstop_miss_threshold = 10;
            c.hybrid_predeploy = false;
        })
        .build();
    sim.fail_stop_at(MachineId(0), SimTime::from_millis(500));
    sim.run_for(SimDuration::from_secs(4));
    let world = sim.world();
    let standby_deployed = |sj: SubjobId| -> Vec<bool> {
        let standby = world.subjob(sj).primary_replica.other();
        let pes = world.job().subjob_pes(sj);
        pes.iter()
            .map(|&pe| world.instance(pe, standby).is_some())
            .collect()
    };
    let promoted = world
        .ha_events()
        .iter()
        .any(|e| e.subjob == SubjobId(0) && e.kind == HaEventKind::Promoted);
    assert!(promoted, "{:?}", world.ha_events());
    assert_eq!(
        standby_deployed(SubjobId(3)),
        [false, false],
        "at job start"
    );
    assert_eq!(
        standby_deployed(SubjobId(0)),
        [false, false],
        "after the promotion"
    );
}

#[test]
fn ps_and_hybrid_share_detection_but_differ_in_reaction() {
    let run = |mode: HaMode| {
        let mut sim = HaSimulation::builder(eval_chain_job())
            .mode(HaMode::None)
            .subjob_mode(SubjobId(1), mode)
            .source_rate(800.0)
            .seed(6)
            .build();
        sim.inject_spike_windows(
            MachineId(1),
            &single_failure(SimTime::from_secs(2), SimDuration::from_secs(3)),
        );
        sim.run_for(SimDuration::from_secs(8));
        sim.world()
            .ha_events()
            .iter()
            .find(|e| e.kind == HaEventKind::Detected)
            .map(|e| e.at)
            .expect("detected")
    };
    let hybrid = run(HaMode::Hybrid);
    let ps = run(HaMode::Passive);
    let h_ms = hybrid
        .saturating_since(SimTime::from_secs(2))
        .as_millis_f64();
    let p_ms = ps.saturating_since(SimTime::from_secs(2)).as_millis_f64();
    assert!(
        p_ms > h_ms + 150.0,
        "PS (3 misses) declares at least 2 intervals later: {h_ms} vs {p_ms}"
    );
}

#[test]
fn switch_overhead_tracks_rate_times_duration() {
    let overhead = |rate: f64| {
        let mut sim = HaSimulation::builder(eval_chain_job())
            .mode(HaMode::None)
            .subjob_mode(SubjobId(1), HaMode::Hybrid)
            .source_rate(rate)
            .seed(7)
            .build();
        sim.inject_spike_windows(
            MachineId(1),
            &single_failure(SimTime::from_secs(2), SimDuration::from_secs(4)),
        );
        sim.run_for(SimDuration::from_secs(9));
        sim.world().subjob(SubjobId(1)).switch_overhead_elements
    };
    let low = overhead(400.0);
    let high = overhead(1_200.0);
    assert!(
        high as f64 > 2.0 * low as f64,
        "overhead grows with rate (Fig 10): {low} vs {high}"
    );
    assert!(
        (low as f64) > 400.0 * 3.0 * 0.5,
        "roughly rate x duration: {low}"
    );
}

/// A 64-shard job, every subjob Hybrid. The router's primary machine
/// suffers a transient spike (switch-over, then a rollback that reads the
/// state back) and later fail-stops (promotion, then a replacement
/// standby). Between these its 64-port checkpoints are deltas whenever
/// the subjob is settled, full otherwise. In a debug build every
/// checkpoint arrival asserts that each copy on the restore point's basis
/// matches the point outside its moved set; the run must also stay
/// lossless.
#[test]
fn wide_router_checkpoints_survive_switch_over_rollback_and_promotion() {
    use hybrid_ha::workloads::ZipfKeys;

    let job = Job::sharded("wide", &OperatorSpec::synthetic_default(), 64, 1e-5);
    let mut sim = HaSimulation::builder(job)
        .mode(HaMode::Hybrid)
        .source_profile(
            0,
            RateProfile::Constant { per_sec: 2_000.0 },
            ZipfKeys::new(100_000, 1.05).payload_gen(),
        )
        .tune(|c| c.failstop_miss_threshold = 15)
        .seed(7)
        .build();
    let router = sim.world().subjob(SubjobId(0)).primary_machine;
    sim.inject_spike_windows(
        router,
        &single_failure(SimTime::from_secs(2), SimDuration::from_millis(800)),
    );
    sim.fail_stop_at(router, SimTime::from_secs(6));
    sim.stop_sources_at(SimTime::from_secs(10));
    sim.run_for(SimDuration::from_secs(14));
    let kinds: Vec<HaEventKind> = sim
        .world()
        .ha_events()
        .iter()
        .filter(|e| e.subjob == SubjobId(0))
        .map(|e| e.kind)
        .collect();
    for kind in [
        HaEventKind::SwitchoverComplete,
        HaEventKind::RollbackComplete,
        HaEventKind::Promoted,
        HaEventKind::SecondaryReady,
    ] {
        assert!(kinds.contains(&kind), "{kind:?} missing from {kinds:?}");
    }
    let sj = sim.world().subjob(SubjobId(0));
    assert_eq!(sj.primary_replica, Replica::Secondary, "roles swapped");
    assert!(
        sj.ckpt(PeId(0)).stored.is_some(),
        "the new standby holds a checkpoint"
    );
    assert_eq!(
        sim.world().sinks()[0].accepted(),
        sim.world().sources()[0].produced(),
        "lossless"
    );
}
