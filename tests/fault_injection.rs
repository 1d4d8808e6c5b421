//! Fault-injection tests beyond CPU spikes: network partitions between the
//! checkpoint path, message loss into recovery, and secondary-machine
//! failures.

use hybrid_ha::prelude::*;

fn sim_with(mode: HaMode, seed: u64) -> HaSimulation {
    HaSimulation::builder(eval_chain_job())
        .mode(HaMode::None)
        .subjob_mode(SubjobId(1), mode)
        .source_rate(600.0)
        .seed(seed)
        .build()
}

/// Under the default placement for the 8-PE/4-subjob chain: primaries on
/// machines 0–3, sink on 4, secondaries on 5–8.
const SJ1_PRIMARY: MachineId = MachineId(1);
const SJ1_SECONDARY: MachineId = MachineId(6);

#[test]
fn partitioned_checkpoint_path_still_recovers_losslessly() {
    // Cut the primary→secondary link before any checkpoint flows: the
    // standby's state stays empty/stale, so recovery must fall back to
    // retransmission from upstream retention — and still lose nothing.
    let mut sim = sim_with(HaMode::Hybrid, 51);
    sim.world_mut()
        .cluster_mut()
        .network_mut()
        .set_partitioned(SJ1_PRIMARY, SJ1_SECONDARY, true);
    sim.inject_spike_windows(
        SJ1_PRIMARY,
        &single_failure(SimTime::from_secs(2), SimDuration::from_secs(3)),
    );
    sim.stop_sources_at(SimTime::from_secs(7));
    sim.run_for(SimDuration::from_secs(12));
    let world = sim.world();
    assert_eq!(
        world.counters().elements(MsgClass::Checkpoint),
        0,
        "the partition blocked every checkpoint"
    );
    assert!(
        world
            .ha_events()
            .iter()
            .any(|e| e.kind == HaEventKind::SwitchoverComplete),
        "heartbeats flow monitor->primary, so detection still works"
    );
    assert_eq!(
        world.sinks()[0].accepted(),
        world.sources()[0].produced(),
        "retention-based retransmission covers a checkpoint-less standby"
    );
}

#[test]
fn healed_partition_resumes_checkpointing() {
    let mut sim = sim_with(HaMode::Passive, 52);
    sim.world_mut()
        .cluster_mut()
        .network_mut()
        .set_partitioned(SJ1_PRIMARY, SJ1_SECONDARY, true);
    sim.run_for(SimDuration::from_secs(3));
    assert_eq!(sim.world().counters().elements(MsgClass::Checkpoint), 0);
    sim.world_mut()
        .cluster_mut()
        .network_mut()
        .set_partitioned(SJ1_PRIMARY, SJ1_SECONDARY, false);
    sim.run_for(SimDuration::from_secs(3));
    assert!(
        sim.world().counters().elements(MsgClass::Checkpoint) > 0,
        "checkpointing resumes once the link heals"
    );
}

#[test]
fn partitioned_data_link_stalls_then_resumes_without_loss() {
    // Cut the machine-0 -> machine-1 data path (subjob 0 feeds subjob 1)
    // for two seconds. Like a stalled TCP connection, the upstream send
    // cursor must hold position so the backlog flows on heal — no element
    // may be skipped or permanently stashed behind a gap.
    let mut sim = sim_with(HaMode::None, 58);
    sim.world_mut()
        .cluster_mut()
        .network_mut()
        .set_partitioned(MachineId(0), SJ1_PRIMARY, true);
    sim.run_until(SimTime::from_secs(3));
    let stalled = sim.world().sinks()[0].accepted();
    sim.world_mut()
        .cluster_mut()
        .network_mut()
        .set_partitioned(MachineId(0), SJ1_PRIMARY, false);
    sim.stop_sources_at(SimTime::from_secs(6));
    sim.run_for(SimDuration::from_secs(8));
    let world = sim.world();
    assert_eq!(stalled, 0, "nothing crossed the cut link");
    assert_eq!(
        world.sinks()[0].accepted(),
        world.sources()[0].produced(),
        "healed link delivers the retained backlog in order"
    );
}

#[test]
fn secondary_machine_failstop_leaves_primary_serving() {
    // Losing the standby is not a data-plane event: the primary keeps
    // serving; the subjob simply has no cover.
    let mut sim = sim_with(HaMode::Hybrid, 53);
    sim.fail_stop_at(SJ1_SECONDARY, SimTime::from_secs(2));
    sim.stop_sources_at(SimTime::from_secs(6));
    sim.run_for(SimDuration::from_secs(9));
    let world = sim.world();
    assert_eq!(
        world.sinks()[0].accepted(),
        world.sources()[0].produced(),
        "data plane unaffected by standby loss"
    );
}

#[test]
fn failure_hitting_two_subjobs_simultaneously() {
    // Machines 1 and 2 fail together; both hybrid subjobs must switch and
    // recover independently.
    let mut sim = HaSimulation::builder(eval_chain_job())
        .mode(HaMode::None)
        .subjob_mode(SubjobId(1), HaMode::Hybrid)
        .subjob_mode(SubjobId(2), HaMode::Hybrid)
        .source_rate(600.0)
        .seed(54)
        .build();
    for m in [MachineId(1), MachineId(2)] {
        sim.inject_spike_windows(
            m,
            &single_failure(SimTime::from_secs(2), SimDuration::from_secs(3)),
        );
    }
    sim.stop_sources_at(SimTime::from_secs(8));
    sim.run_for(SimDuration::from_secs(12));
    let world = sim.world();
    let switched: Vec<SubjobId> = world
        .ha_events()
        .iter()
        .filter(|e| e.kind == HaEventKind::SwitchoverComplete)
        .map(|e| e.subjob)
        .collect();
    assert!(switched.contains(&SubjobId(1)), "{switched:?}");
    assert!(switched.contains(&SubjobId(2)), "{switched:?}");
    assert_eq!(world.sinks()[0].accepted(), world.sources()[0].produced());
}

#[test]
fn failstop_during_switchover_still_promotes() {
    // The machine dies *after* the transient detection already switched the
    // subjob over: promotion must finish the job.
    let mut sim = HaSimulation::builder(eval_chain_job())
        .mode(HaMode::None)
        .subjob_mode(SubjobId(1), HaMode::Hybrid)
        .source_rate(600.0)
        .seed(55)
        .tune(|c| c.failstop_miss_threshold = 12)
        .build();
    // A spike begins, then the machine dies outright mid-spike.
    sim.inject_spike_windows(
        MachineId(1),
        &single_failure(SimTime::from_secs(2), SimDuration::from_secs(10)),
    );
    sim.fail_stop_at(MachineId(1), SimTime::from_millis(2_600));
    sim.stop_sources_at(SimTime::from_secs(8));
    sim.run_for(SimDuration::from_secs(12));
    let world = sim.world();
    let kinds: Vec<HaEventKind> = world.ha_events().iter().map(|e| e.kind).collect();
    assert!(
        kinds.contains(&HaEventKind::SwitchoverComplete),
        "{kinds:?}"
    );
    assert!(kinds.contains(&HaEventKind::Promoted), "{kinds:?}");
    assert_eq!(world.sinks()[0].accepted(), world.sources()[0].produced());
}

#[test]
fn failstop_racing_the_rollback_still_promotes() {
    // Sweep the death instant across the moments after the spike clears —
    // including the sub-millisecond window where the rollback has started
    // but the state-read cannot be delivered. Every timing must end with a
    // serving copy and no loss.
    for offset_us in [0u64, 2_000, 7_000, 7_300, 7_500, 8_000, 20_000, 150_000] {
        let mut sim = HaSimulation::builder(eval_chain_job())
            .mode(HaMode::None)
            .subjob_mode(SubjobId(1), HaMode::Hybrid)
            .source_rate(600.0)
            .seed(57)
            .tune(|c| c.failstop_miss_threshold = 10)
            .build();
        sim.inject_spike_windows(
            MachineId(1),
            &single_failure(SimTime::from_secs(2), SimDuration::from_secs(3)),
        );
        // The spike ends at 5 s; rollback begins a few ms later.
        sim.fail_stop_at(
            MachineId(1),
            SimTime::from_secs(5) + SimDuration::from_micros(offset_us),
        );
        sim.stop_sources_at(SimTime::from_secs(10));
        sim.run_for(SimDuration::from_secs(15));
        let world = sim.world();
        assert_eq!(
            world.sinks()[0].accepted(),
            world.sources()[0].produced(),
            "offset {offset_us}us lost data: {:?}",
            world.ha_events()
        );
        let sj = world.subjob(SubjobId(1));
        assert_eq!(
            format!("{:?}", sj.state),
            "Normal",
            "offset {offset_us}us left state {:?}: {:?}",
            sj.state,
            world.ha_events()
        );
    }
}

#[test]
fn back_to_back_failstops_exhaust_spares_gracefully() {
    // First fail-stop promotes and redeploys onto the first spare; killing
    // the new primary repeats the cycle onto the second spare; a third
    // fail-stop leaves no cover but the system must not panic or lose the
    // already-delivered stream.
    let mut sim = HaSimulation::builder(eval_chain_job())
        .mode(HaMode::None)
        .subjob_mode(SubjobId(1), HaMode::Hybrid)
        .source_rate(600.0)
        .seed(56)
        .tune(|c| c.failstop_miss_threshold = 10)
        .build();
    sim.fail_stop_at(MachineId(1), SimTime::from_secs(2));
    sim.run_for(SimDuration::from_secs(6));
    let new_primary = sim.world().subjob(SubjobId(1)).primary_machine;
    assert_ne!(new_primary, MachineId(1), "promoted off the dead machine");
    sim.fail_stop_at(new_primary, sim.now() + SimDuration::from_secs(1));
    sim.stop_sources_at(sim.now() + SimDuration::from_secs(4));
    sim.run_for(SimDuration::from_secs(10));
    let world = sim.world();
    let promotions = world
        .ha_events()
        .iter()
        .filter(|e| e.kind == HaEventKind::Promoted)
        .count();
    assert_eq!(promotions, 2, "two promotions: {:?}", world.ha_events());
    assert_eq!(
        world.sinks()[0].accepted(),
        world.sources()[0].produced(),
        "no loss across repeated promotions"
    );
}

#[test]
fn a_standby_behind_a_partitioned_switch_aborts_the_switchover() {
    use hybrid_ha::cluster::{ChaosPlan, FaultTopology, SwitchId};
    use hybrid_ha::ha::SjState;
    use hybrid_ha::trace::AbortReason;

    // Six racks of four, one switch each. Subjob 1's standby (m8) sits
    // alone behind switch 2; the other standbys share rack 1, and the
    // source and sink sit on rack 5, which nothing faults.
    let standby = MachineId(8);
    let placement = Placement {
        primaries: (0..4).map(MachineId).collect(),
        secondaries: [4, 8, 5, 6].map(|m| Some(MachineId(m))).to_vec(),
        sources: vec![MachineId(20)],
        sinks: vec![MachineId(21)],
        spares: [7].into_iter().chain(9..20).map(MachineId).collect(),
    };
    // The standby's switch is cut for exactly the second its primary is
    // spiked: the first heartbeat miss declares, and the ladder must
    // refuse to switch over into the partitioned domain.
    let (cut, heal) = (SimTime::from_secs(2), SimTime::from_secs(3));
    let recorder = SharedRecorder::default().control_plane_only();
    let mut sim = HaSimulation::builder(eval_chain_job())
        .mode(HaMode::Hybrid)
        .source_rate(500.0)
        .seed(61)
        .tune(|c| c.reliable_control = true)
        .placement(placement)
        .topology(FaultTopology::grid(22, 4, 1))
        .chaos(ChaosPlan::default().switch_partition_window(cut, heal, SwitchId(2)))
        .trace_sink(Box::new(recorder.clone()))
        .trace_probe(Box::new(sps_audit::Auditor::new()))
        .audit_expectations(true, true)
        .build();
    sim.inject_spike_windows(SJ1_PRIMARY, &single_failure(cut, heal - cut));
    sim.stop_sources_at(SimTime::from_secs(6));
    sim.run_until(SimTime::from_secs(10));
    sim.finish_probes();

    let aborts: Vec<TraceRecord> = recorder.with(|r| {
        r.records()
            .filter(|rec| matches!(rec.event, TraceEvent::FailoverAborted { .. }))
            .collect()
    });
    assert_eq!(aborts.len(), 1, "{aborts:?}");
    let TraceEvent::FailoverAborted {
        subjob,
        machine,
        reason,
    } = aborts[0].event
    else {
        unreachable!("filtered above")
    };
    assert_eq!((subjob, machine), (1, standby.0));
    assert_eq!(reason, AbortReason::DomainFault);
    assert!(aborts[0].at > cut && aborts[0].at < heal);

    let world = sim.world();
    assert!(
        world.ha_events().is_empty(),
        "the refused switch-over left no recovery phase: {:?}",
        world.ha_events()
    );
    let sj = world.subjob(SubjobId(1));
    assert_eq!(sj.state, SjState::Normal, "back to Normal after the heal");
    assert_eq!(sj.secondary_machine, Some(standby), "the standby is kept");
    assert_eq!(
        world.sinks()[0].accepted(),
        world.sources()[0].produced(),
        "exactly once across the refused failover"
    );
    assert_eq!(
        sim.audit_violations(),
        0,
        "{}",
        sim.audit_report().unwrap_or_default()
    );
}
