//! The §IV-B false-alarm claim: "with a heartbeat interval of 110 ms, and
//! the CPU usage around 60%, a false alarm occurs once every 11 minutes on
//! average" — and the hybrid affords them because rollback is cheap.

use hybrid_ha::prelude::*;

fn run_ten_minutes(seed: u64) -> (usize, u64, u64) {
    let job = eval_chain_job();
    let mut sim = HaSimulation::builder(job)
        .mode(HaMode::None)
        .subjob_mode(SubjobId(1), HaMode::Hybrid)
        .source_rate(1_000.0) // ~60% CPU on the protected machine
        .seed(seed)
        .tune(|c| c.heartbeat_interval = SimDuration::from_millis(110))
        .build();
    let horizon = SimTime::from_secs(600);
    // OS jitter on the primary at its ~60% ambient load; NO real spikes, so
    // every declaration is a false alarm.
    sim.inject_jitter(MachineId(1), horizon, 0.6);
    sim.stop_sources_at(horizon);
    sim.run_until(horizon + SimDuration::from_secs(5));
    let world = sim.world();
    let false_alarms = world
        .ha_events()
        .iter()
        .filter(|e| e.kind == HaEventKind::Detected)
        .count();
    (
        false_alarms,
        world.sources()[0].produced(),
        world.sinks()[0].accepted(),
    )
}

#[test]
fn false_alarms_are_rare_and_harmless_at_sixty_percent_load() {
    // Seed 151's Pareto duration draws include stalls comfortably longer
    // than the 110 ms heartbeat interval; its ten minutes show two false
    // alarms. (A stall only converts into a missed heartbeat when a full
    // ping deadline falls inside it.) The three-seed, 30-minute aggregate
    // is `crates/core/tests/jitter_false_alarms.rs`.
    let (fa, produced, accepted) = run_ten_minutes(151);
    // "our hybrid method can afford false alarms to certain extent,
    // because it can quickly roll back" — and loses nothing doing so.
    assert_eq!(accepted, produced, "false alarms must be harmless");
    assert!(
        (1..=6).contains(&fa),
        "paper: ~1 false alarm per 11 min at 60% CPU; got {fa} in 10 min"
    );
}

#[test]
fn without_jitter_there_are_no_false_alarms() {
    let job = eval_chain_job();
    let mut sim = HaSimulation::builder(job)
        .mode(HaMode::None)
        .subjob_mode(SubjobId(1), HaMode::Hybrid)
        .source_rate(1_000.0)
        .seed(74)
        .tune(|c| c.heartbeat_interval = SimDuration::from_millis(110))
        .build();
    sim.run_until(SimTime::from_secs(300));
    assert!(
        sim.world().ha_events().is_empty(),
        "steady 60% application load alone must not trip the detector: {:?}",
        sim.world().ha_events()
    );
}
