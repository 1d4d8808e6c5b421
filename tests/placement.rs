//! Placement-variation tests: dedicated source machines, protecting the
//! head subjob, and builder validation.

use hybrid_ha::prelude::*;

/// A placement with the source on its own machine (machine 9), so the head
/// subjob's machine can fail without touching the feed.
fn dedicated_source_placement(job: &Job) -> Placement {
    let mut p = Placement::default_for(job);
    let dedicated = MachineId(p.machine_count() as u32);
    for m in &mut p.sources {
        *m = dedicated;
    }
    p
}

#[test]
fn head_subjob_recovers_from_source_retention() {
    // Protect subjob 0 and fail its machine outright: recovery has no
    // upstream PE to retransmit from — the retained *source* queue is the
    // only copy of the unacknowledged data.
    let job = eval_chain_job();
    let placement = dedicated_source_placement(&job);
    let head_machine = placement.primaries[0];
    let mut sim = HaSimulation::builder(job)
        .mode(HaMode::None)
        .subjob_mode(SubjobId(0), HaMode::Hybrid)
        .placement(placement)
        .source_rate(700.0)
        .seed(81)
        .build();
    sim.inject_spike_windows(
        head_machine,
        &single_failure(SimTime::from_secs(2), SimDuration::from_secs(3)),
    );
    sim.stop_sources_at(SimTime::from_secs(7));
    sim.run_for(SimDuration::from_secs(11));
    let world = sim.world();
    assert!(
        world
            .ha_events()
            .iter()
            .any(|e| e.kind == HaEventKind::SwitchoverComplete),
        "head subjob switched over: {:?}",
        world.ha_events()
    );
    assert_eq!(
        world.sinks()[0].accepted(),
        world.sources()[0].produced(),
        "source retention covered the head subjob's recovery"
    );
}

#[test]
fn head_subjob_survives_failstop_with_dedicated_source() {
    let job = eval_chain_job();
    let placement = dedicated_source_placement(&job);
    let head_machine = placement.primaries[0];
    let mut sim = HaSimulation::builder(job)
        .mode(HaMode::None)
        .subjob_mode(SubjobId(0), HaMode::Hybrid)
        .placement(placement)
        .source_rate(700.0)
        .seed(82)
        .tune(|c| c.failstop_miss_threshold = 12)
        .build();
    sim.fail_stop_at(head_machine, SimTime::from_secs(2));
    sim.stop_sources_at(SimTime::from_secs(7));
    sim.run_for(SimDuration::from_secs(11));
    let world = sim.world();
    assert!(world
        .ha_events()
        .iter()
        .any(|e| e.kind == HaEventKind::Promoted));
    assert_eq!(
        world.sinks()[0].accepted(),
        world.sources()[0].produced(),
        "promotion after head-machine death is lossless"
    );
}

#[test]
fn source_queue_is_trimmed_in_steady_state() {
    // Retention must not grow without bound: the head subjob's
    // checkpoint-driven acknowledgments trim the source queue.
    let mut sim = HaSimulation::builder(eval_chain_job())
        .mode(HaMode::Passive)
        .source_rate(1_000.0)
        .seed(83)
        .build();
    sim.run_for(SimDuration::from_secs(6));
    let q = sim.world().sources()[0].queue();
    assert!(
        q.retained_len() < 2_500,
        "source retention bounded by ~2 checkpoint intervals, got {}",
        q.retained_len()
    );
    assert!(q.trimmed_through() > 3_000, "steady trimming happened");
}

#[test]
#[should_panic(expected = "needs a secondary machine")]
fn missing_secondary_machine_is_rejected_at_build() {
    let job = eval_chain_job();
    let mut placement = Placement::default_for(&job);
    placement.secondaries[1] = None;
    let _ = HaSimulation::builder(job)
        .mode(HaMode::None)
        .subjob_mode(SubjobId(1), HaMode::Hybrid)
        .placement(placement)
        .build();
}

#[test]
#[should_panic(expected = "one mode per subjob")]
fn wrong_mode_vector_is_rejected() {
    // Constructing the world directly with a short mode vector must fail
    // loudly (the builder normally guarantees the right length).
    use hybrid_ha::ha::{HaConfig, HaWorld, PayloadGen, RateProfile};
    let job = eval_chain_job();
    let placement = Placement::default_for(&job);
    let _ = HaWorld::new(
        job,
        HaConfig::default(),
        vec![HaMode::None], // 1 mode for 4 subjobs
        placement,
        vec![(
            RateProfile::Constant { per_sec: 100.0 },
            PayloadGen::Synthetic,
        )],
        false,
    );
}

/// Figure 5's worst cell: subjobs 1–3 share one secondary machine, and
/// failures occupy 30 % of each primary's time. Two recoveries overlap on
/// the shared machine: while subjob 2 runs switched over there, subjob 3
/// switches over and asks subjob 2's active copy to resend from subjob 3's
/// restored position. That copy's queue came back from a checkpoint below
/// its live trim floor, so the standby's connection must gate the trim
/// before anything trims on the serving connection's ack; when it did not,
/// the trim jumped past the resume point and the run panicked at 2.35 s.
#[test]
fn overlapping_recoveries_on_a_shared_secondary_stay_exactly_once() {
    let seed = 2015;
    let shared = [1u32, 2, 3];
    let job = eval_chain_job();
    let placement = multiplexed_placement(&job, &shared);
    let primaries: Vec<MachineId> = shared
        .iter()
        .map(|&sj| placement.primaries[sj as usize])
        .collect();
    let mut builder = HaSimulation::builder(job)
        .mode(HaMode::None)
        .placement(placement)
        .source_rate(1_000.0)
        .seed(seed)
        .trace_probe(Box::new(sps_audit::Auditor::new()))
        .audit_expectations(true, true);
    for &sj in &shared {
        builder = builder.subjob_mode(SubjobId(sj), HaMode::Hybrid);
    }
    let mut sim = builder.build();
    let horizon = SimTime::from_secs(10);
    for (i, &m) in primaries.iter().enumerate() {
        // Figure 5's failure load and per-primary RNG stream.
        let mut rng = SimRng::seed_from(seed ^ (0xF105 + i as u64 * 7919));
        let load = failure_load(
            0.30,
            SimDuration::from_secs(5),
            marginal_spike_share(0.6),
            horizon,
            &mut rng,
        );
        sim.inject_spike_windows(m, &load);
    }
    sim.stop_sources_at(horizon);
    sim.run_until(SimTime::from_secs(40));
    sim.finish_probes();

    assert_eq!(
        sim.audit_violations(),
        0,
        "{}",
        sim.audit_report().unwrap_or_default()
    );
    let world = sim.world();
    let produced = world.sources()[0].produced();
    assert_eq!(produced, 9_999, "the source ran for 10 s at 1,000 el/s");
    assert_eq!(world.sinks()[0].accepted(), produced, "drained, lossless");
}

/// The evaluation chain with subjobs 1 and 2 on one (primary, standby)
/// machine pair, both Hybrid; subjobs 0 and 3 run unprotected. Returns the
/// simulation, audited, and the shared primary.
fn shared_pair_sim(seed: u64, tune: fn(&mut HaConfig)) -> (HaSimulation, MachineId) {
    let job = eval_chain_job();
    let mut placement = Placement::default_for(&job);
    placement.primaries[2] = placement.primaries[1];
    placement.secondaries[2] = placement.secondaries[1];
    let primary = placement.primaries[1];
    let sim = HaSimulation::builder(job)
        .mode(HaMode::None)
        .subjob_mode(SubjobId(1), HaMode::Hybrid)
        .subjob_mode(SubjobId(2), HaMode::Hybrid)
        .placement(placement)
        .source_rate(500.0)
        .seed(seed)
        .tune(tune)
        .trace_probe(Box::new(sps_audit::Auditor::new()))
        .audit_expectations(true, true)
        .build();
    (sim, primary)
}

/// Drains the run and checks the sink got every element exactly once.
fn assert_exactly_once(sim: &mut HaSimulation, what: &str) {
    sim.finish_probes();
    assert_eq!(
        sim.audit_violations(),
        0,
        "{what}: {}",
        sim.audit_report().unwrap_or_default()
    );
    let world = sim.world();
    assert_eq!(
        world.sinks()[0].accepted(),
        world.sources()[0].produced(),
        "{what}: drained, lossless"
    );
}

/// `kind`'s log entries per subjob.
fn ha_event_count(sim: &HaSimulation, subjob: u32, kind: HaEventKind) -> usize {
    sim.world()
        .ha_events()
        .iter()
        .filter(|e| e.subjob == SubjobId(subjob) && e.kind == kind)
        .count()
}

#[test]
fn a_shared_machine_pair_costs_one_ping_and_one_pong_per_round() {
    let (mut sim, _) = shared_pair_sim(91, |_| {});
    // Rounds at 0.1 s, 0.2 s, …, 5.0 s; the last round's pong may still be
    // on the wire.
    sim.run_for(SimDuration::from_millis(5_050));
    let msgs = sim.world().counters().messages(MsgClass::Heartbeat);
    assert_eq!(msgs, 2 * 50, "one ping and one pong per round for the pair");
    for sj in [1, 2] {
        assert_eq!(ha_event_count(&sim, sj, HaEventKind::Detected), 0);
    }
}

#[test]
fn a_spike_on_a_shared_primary_switches_over_and_rolls_back_both_subjobs() {
    let (mut sim, primary) = shared_pair_sim(92, |_| {});
    sim.inject_spike_windows(
        primary,
        &single_failure(SimTime::from_secs(2), SimDuration::from_secs(2)),
    );
    sim.stop_sources_at(SimTime::from_secs(7));
    sim.run_for(SimDuration::from_secs(12));
    for sj in [1, 2] {
        for kind in [
            HaEventKind::SwitchoverComplete,
            HaEventKind::RollbackComplete,
        ] {
            assert_eq!(
                ha_event_count(&sim, sj, kind),
                1,
                "subjob {sj} {kind:?}: {:?}",
                sim.world().ha_events()
            );
        }
    }
    assert_exactly_once(&mut sim, "spike");
}

#[test]
fn a_failstop_of_a_shared_primary_promotes_both_subjobs() {
    let (mut sim, primary) = shared_pair_sim(93, |c| c.failstop_miss_threshold = 12);
    sim.fail_stop_at(primary, SimTime::from_secs(2));
    sim.stop_sources_at(SimTime::from_secs(7));
    sim.run_for(SimDuration::from_secs(12));
    for sj in [1, 2] {
        assert_eq!(
            ha_event_count(&sim, sj, HaEventKind::Promoted),
            1,
            "subjob {sj}: {:?}",
            sim.world().ha_events()
        );
    }
    assert_exactly_once(&mut sim, "fail-stop");
}
