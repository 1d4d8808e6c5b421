//! Checkpoint-protocol tests: all three protocols recover correctly and
//! resume checkpointing after every recovery; the sweeping protocol
//! carries the least checkpoint traffic (§III-B).

use hybrid_ha::prelude::*;

/// What happens to subjob 1 (PEs 2 and 3) of the eval chain in a run.
#[derive(Debug, Clone, Copy)]
enum Case {
    /// Passive, no failure.
    Quiet,
    /// Hybrid, a 1 s spike on the primary: switch-over, then rollback.
    HybridRollback,
    /// Hybrid, the primary fail-stops: promotion and a fresh standby.
    HybridPromotion,
    /// Hybrid, the standby machine (6) fail-stops: a fresh standby.
    HybridStandbyLost,
    /// Passive, a 3 s spike on the primary: migration to the standby.
    PassiveMigration,
}

struct Outcome {
    produced: u64,
    accepted: u64,
    ckpt_elements: u64,
    /// Per PE of subjob 1: how long after the subjob's last recovery
    /// phase its first checkpoint was stored (`None`: never).
    resumed_after: Vec<Option<SimDuration>>,
}

fn run(protocol: CheckpointProtocol, case: Case, seed: u64) -> Outcome {
    let mode = match case {
        Case::Quiet | Case::PassiveMigration => HaMode::Passive,
        _ => HaMode::Hybrid,
    };
    let recorder = SharedRecorder::default().control_plane_only();
    let mut sim = HaSimulation::builder(eval_chain_job())
        .mode(HaMode::None)
        .subjob_mode(SubjobId(1), mode)
        .source_rate(800.0)
        .seed(seed)
        .tune(|c| {
            c.checkpoint_protocol = protocol;
            if let Case::HybridPromotion = case {
                c.failstop_miss_threshold = 15;
            }
        })
        .trace_sink(Box::new(recorder.clone()))
        .build();
    // At 3.2 s the Individual protocol's spiked primary still has a
    // checkpoint under way when the migration completes, so a recovery
    // that kept that progress would never checkpoint the PE again.
    let at = SimTime::from_millis(3_200);
    match case {
        Case::Quiet => {}
        Case::HybridRollback => {
            sim.inject_spike_windows(MachineId(1), &single_failure(at, SimDuration::from_secs(1)))
        }
        Case::HybridPromotion => sim.fail_stop_at(MachineId(1), at),
        Case::HybridStandbyLost => sim.fail_stop_at(MachineId(6), at),
        Case::PassiveMigration => {
            sim.inject_spike_windows(MachineId(1), &single_failure(at, SimDuration::from_secs(3)))
        }
    }
    sim.stop_sources_at(SimTime::from_secs(8));
    sim.run_for(SimDuration::from_secs(12));
    let world = sim.world();
    let recovered = world
        .ha_events()
        .iter()
        .filter(|e| e.subjob == SubjobId(1))
        .map(|e| e.at)
        .max()
        .unwrap_or(SimTime::ZERO);
    let resumed_after = world
        .job()
        .subjob_pes(SubjobId(1))
        .iter()
        .map(|pe| {
            recorder.with(|r| {
                r.records().find_map(|rec| match rec.event {
                    TraceEvent::CheckpointStored { pe: p, .. }
                        if p == pe.0 && rec.at >= recovered =>
                    {
                        Some(rec.at.saturating_since(recovered))
                    }
                    _ => None,
                })
            })
        })
        .collect();
    Outcome {
        produced: world.sources()[0].produced(),
        accepted: world.sinks()[0].accepted(),
        ckpt_elements: world.counters().elements(MsgClass::Checkpoint),
        resumed_after,
    }
}

#[test]
fn all_protocols_recover_losslessly() {
    let interval = HaConfig::default().checkpoint_interval;
    for protocol in [
        CheckpointProtocol::Sweeping,
        CheckpointProtocol::Synchronous,
        CheckpointProtocol::Individual,
    ] {
        for case in [
            Case::HybridRollback,
            Case::HybridPromotion,
            Case::HybridStandbyLost,
            Case::PassiveMigration,
        ] {
            let out = run(protocol, case, 11);
            assert_eq!(
                out.accepted, out.produced,
                "{protocol} {case:?} lost elements"
            );
            assert!(
                out.ckpt_elements > 0,
                "{protocol} {case:?} checkpointed nothing"
            );
            for (i, gap) in out.resumed_after.iter().enumerate() {
                assert!(
                    gap.is_some_and(|g| g <= interval + interval),
                    "{protocol} {case:?}: PE #{i} of subjob 1 stored no checkpoint within \
                     two intervals of the last recovery phase ({gap:?})"
                );
            }
        }
    }
}

#[test]
fn sweeping_has_least_checkpoint_traffic() {
    let traffic = |protocol| run(protocol, Case::Quiet, 12).ckpt_elements;
    let sweeping = traffic(CheckpointProtocol::Sweeping);
    let sync = traffic(CheckpointProtocol::Synchronous);
    let individual = traffic(CheckpointProtocol::Individual);
    assert!(
        (sweeping as f64) < 0.6 * sync as f64,
        "sweeping {sweeping} vs synchronous {sync}"
    );
    assert!(
        (sweeping as f64) < 0.6 * individual as f64,
        "sweeping {sweeping} vs individual {individual}"
    );
}

#[test]
fn checkpoint_interval_bounds_retransmission() {
    // A shorter interval means fresher standby state, so less data to
    // retransmit/reprocess on switch-over.
    let retrans = |ckpt_ms: u64| {
        let mut sim = HaSimulation::builder(eval_chain_job())
            .mode(HaMode::None)
            .subjob_mode(SubjobId(1), HaMode::Hybrid)
            .source_rate(800.0)
            .seed(13)
            .log_sink_accepts(true)
            .tune(|c| c.checkpoint_interval = SimDuration::from_millis(ckpt_ms))
            .build();
        let failure_at = SimTime::from_secs(3);
        sim.inject_spike_windows(
            MachineId(1),
            &single_failure(failure_at, SimDuration::from_secs(4)),
        );
        sim.run_for(SimDuration::from_secs(9));
        sim.recovery_timeline(SubjobId(1), failure_at)
            .expect("recovered")
            .retrans_reprocess_ms()
    };
    let short = retrans(100);
    let long = retrans(2_000);
    assert!(
        long > short,
        "longer checkpoint interval retransmits more: {short} vs {long}"
    );
}

#[test]
fn checkpoints_stop_when_mode_does_not_need_them() {
    for mode in [HaMode::None, HaMode::Active] {
        let mut sim = HaSimulation::builder(eval_chain_job())
            .mode(mode)
            .source_rate(500.0)
            .seed(14)
            .build();
        sim.run_for(SimDuration::from_secs(3));
        assert_eq!(
            sim.world().counters().elements(MsgClass::Checkpoint),
            0,
            "{mode} must not checkpoint"
        );
    }
}

#[test]
fn checkpoint_traffic_scales_with_pe_count() {
    // Fig 11's mechanism: each PE contributes its own checkpoint stream.
    let ckpt_elements = |pes_per_subjob: usize| {
        let job = Job::chain(
            "scale",
            &OperatorSpec::Synthetic {
                selectivity: 1.0,
                demand_secs: 4e-5,
                state_elements: 20,
            },
            2 * pes_per_subjob,
            2,
        );
        let mut sim = HaSimulation::builder(job)
            .mode(HaMode::Passive)
            .source_rate(800.0)
            .seed(15)
            .build();
        sim.run_for(SimDuration::from_secs(5));
        sim.world().counters().elements(MsgClass::Checkpoint)
    };
    let small = ckpt_elements(1);
    let large = ckpt_elements(4);
    assert!(
        large as f64 > 2.5 * small as f64,
        "4x the PEs should give roughly 4x checkpoint traffic: {small} vs {large}"
    );
}
