//! Topology-shape tests beyond the paper's chain: fan-out (one stream, two
//! consumers), trees with two sources, and recovery on each.

use hybrid_ha::prelude::*;

/// source → split → {left, right} → two sinks; the split subjob is
/// protected.
fn fanout_job() -> Job {
    let mut b = JobBuilder::new("fanout");
    let src = b.add_source("src");
    let sink_l = b.add_sink("left-out");
    let sink_r = b.add_sink("right-out");
    let split = b.add_pe(
        "split",
        OperatorSpec::Map {
            scale: 1.0,
            offset: 0.0,
            demand_secs: 2e-4,
        },
    );
    let left = b.add_pe("left-count", OperatorSpec::Counter { demand_secs: 2e-4 });
    let right = b.add_pe(
        "right-agg",
        OperatorSpec::WindowAggregate {
            window: 4,
            agg: AggKind::Sum,
            demand_secs: 2e-4,
        },
    );
    b.connect_source(src, split, 0);
    b.connect(split, 0, left, 0);
    b.connect(split, 0, right, 0);
    b.connect_sink(left, 0, sink_l);
    b.connect_sink(right, 0, sink_r);
    b.subjobs(vec![vec![split], vec![left], vec![right]]);
    b.build().expect("valid fan-out topology")
}

fn produced_and_sunk(sim: &HaSimulation) -> (u64, u64, u64) {
    let produced = sim.world().sources().iter().map(|s| s.produced()).sum();
    (
        produced,
        sim.world().sinks()[0].accepted(),
        sim.world().sinks()[1].accepted(),
    )
}

#[test]
fn fanout_delivers_both_branches_without_failures() {
    let mut sim = HaSimulation::builder(fanout_job())
        .mode(HaMode::None)
        .source_rate(800.0)
        .seed(61)
        .build();
    sim.stop_sources_at(SimTime::from_secs(5));
    sim.run_for(SimDuration::from_secs(8));
    let (produced, left, right) = produced_and_sunk(&sim);
    assert_eq!(left, produced, "counter branch is selectivity-1");
    assert_eq!(right, produced / 4, "window-4 branch aggregates");
}

#[test]
fn fanout_split_recovers_losslessly_under_hybrid() {
    let mut sim = HaSimulation::builder(fanout_job())
        .mode(HaMode::None)
        .subjob_mode(SubjobId(0), HaMode::Hybrid)
        .source_rate(800.0)
        .seed(62)
        .build();
    // Subjob 0 (the split) is on machine 0 under the default placement.
    sim.inject_spike_windows(
        MachineId(0),
        &single_failure(SimTime::from_secs(2), SimDuration::from_secs(2)),
    );
    sim.stop_sources_at(SimTime::from_secs(6));
    sim.run_for(SimDuration::from_secs(10));
    let (produced, left, right) = produced_and_sunk(&sim);
    assert_eq!(left, produced, "left branch lossless across recovery");
    assert_eq!(right, produced / 4, "right branch lossless across recovery");
    assert!(sim
        .world()
        .ha_events()
        .iter()
        .any(|e| e.kind == HaEventKind::SwitchoverComplete));
}

#[test]
fn fanout_trim_respects_the_slower_branch() {
    // Make the right branch slow: the split's output queue may only trim
    // to the slower consumer's acknowledged position.
    let mut b = JobBuilder::new("skewed");
    let src = b.add_source("src");
    let sink_l = b.add_sink("fast");
    let sink_r = b.add_sink("slow");
    let split = b.add_pe(
        "split",
        OperatorSpec::Map {
            scale: 1.0,
            offset: 0.0,
            demand_secs: 1e-4,
        },
    );
    let fast = b.add_pe("fast", OperatorSpec::Counter { demand_secs: 1e-4 });
    let slow = b.add_pe(
        "slow",
        OperatorSpec::Counter {
            demand_secs: 1.5e-3,
        },
    );
    b.connect_source(src, split, 0);
    b.connect(split, 0, fast, 0);
    b.connect(split, 0, slow, 0);
    b.connect_sink(fast, 0, sink_l);
    b.connect_sink(slow, 0, sink_r);
    b.subjobs(vec![vec![split], vec![fast], vec![slow]]);
    let job = b.build().expect("valid");

    let mut sim = HaSimulation::builder(job)
        .mode(HaMode::None)
        .source_rate(900.0)
        .seed(63)
        .build();
    sim.run_for(SimDuration::from_secs(3));
    // The slow branch (1.5 ms/element at 900/s) is oversubscribed and
    // lags; the split's retained queue must cover its position.
    let split_inst = sim
        .world()
        .instance(PeId(0), Replica::Primary)
        .expect("deployed");
    let q = split_inst.output(0);
    let acks: Vec<u64> = q.connections().iter().map(|c| c.acked).collect();
    let min_ack = *acks.iter().min().unwrap();
    let max_ack = *acks.iter().max().unwrap();
    assert!(max_ack > min_ack + 100, "branches diverge: {acks:?}");
    assert_eq!(
        q.trimmed_through(),
        min_ack,
        "trim floor is the minimum across branches"
    );
    assert!(q.retained_len() as u64 >= max_ack - min_ack);
}

#[test]
fn tree_with_two_sources_under_active_standby() {
    let mut sim = HaSimulation::builder(tree_job())
        .mode(HaMode::None)
        .subjob_mode(SubjobId(2), HaMode::Active)
        .source_rate(500.0)
        .seed(64)
        .build();
    sim.inject_spike_windows(
        MachineId(2),
        &single_failure(SimTime::from_secs(2), SimDuration::from_secs(3)),
    );
    sim.stop_sources_at(SimTime::from_secs(6));
    sim.run_for(SimDuration::from_secs(10));
    let produced: u64 = sim.world().sources().iter().map(|s| s.produced()).sum();
    assert_eq!(
        sim.world().sinks()[0].accepted(),
        produced,
        "AS masks the join-stage failure"
    );
    assert!(sim.world().ha_events().is_empty(), "AS needs no events");
    // Both join replicas consumed from both branches.
    for replica in Replica::BOTH {
        let inst = sim.world().instance(PeId(2), replica).expect("AS pair");
        assert!(inst.processed_total() > 0, "{replica} worked");
        assert_eq!(inst.input_ports(), 2);
    }
}

/// The mixed fan-out (one stream feeding a PE in its own subjob and a PE
/// in another) recovers losslessly when the standby's links are made on
/// demand: without early connections, without pre-deployment, and under
/// passive standby, where the split's standby is deployed at recovery.
#[test]
fn mixed_fanout_recovers_losslessly_with_on_demand_links() {
    type Edit = fn(&mut HaConfig);
    let edits: [(&str, HaMode, Edit); 3] = [
        ("no early connections", HaMode::Hybrid, |c| {
            c.hybrid_early_connections = false
        }),
        ("no predeploy", HaMode::Hybrid, |c| {
            c.hybrid_predeploy = false
        }),
        ("passive standby", HaMode::Passive, |_| {}),
    ];
    for (name, mode, edit) in edits {
        let mut sim = HaSimulation::builder(mixed_fanout_job())
            .mode(mode)
            .tune(edit)
            .source_rate(800.0)
            .seed(66)
            .build();
        // Subjob 0 (split + local) is on machine 0 under the default
        // placement.
        sim.inject_spike_windows(
            MachineId(0),
            &single_failure(SimTime::from_secs(2), SimDuration::from_secs(2)),
        );
        sim.stop_sources_at(SimTime::from_secs(6));
        sim.run_for(SimDuration::from_secs(12));
        let (produced, remote, local) = produced_and_sunk(&sim);
        assert!(produced > 4_000, "{name}: {produced} produced");
        assert_eq!(remote, produced, "{name}: cross-subjob branch lossless");
        assert_eq!(local, produced, "{name}: same-subjob branch lossless");
        let recovered = |kind| sim.world().ha_events().iter().any(|e| e.kind == kind);
        assert!(
            recovered(HaEventKind::SwitchoverComplete) || recovered(HaEventKind::PsConnected),
            "{name}: the split's standby took over"
        );
    }
}

/// Where the loss-free wedge shows (ROADMAP items 1(a) and 2(c)): the
/// mixed fan-out under passive standby and the reliable layer, with subjob
/// 0's primary spiked while subjob 1's primary fail-stops. Subjob 1's
/// migrated copy resumes stream 1 from a split queue already trimmed past
/// its restored position, so the remote sink ends 1,000 short and stays
/// there — no message is lost, and the auditor's `stream_complete` is the
/// only invariant that sees it. This test pins the wedge as it is; the fix
/// must flip it (both sinks at `produced`, no violation) and delete it.
#[test]
fn known_loss_free_wedge_on_the_mixed_fanout() {
    use hybrid_ha::workloads::primary_machine_of;
    use sps_audit::Auditor;

    /// Produced, the sinks' accepted counts, and the one violation line.
    const KNOWN_LOSS_FREE_WEDGE: (u64, [u64; 2], &str) = (
        2_399,
        [1_399, 2_399],
        "stream_complete subjob=4294967295 entity=1 seq=1256 detail=2399",
    );
    let job = mixed_fanout_job();
    let mut sim = HaSimulation::builder(job.clone())
        .mode(HaMode::Passive)
        .tune(|c| c.reliable_control = true)
        .source_rate(400.0)
        .seed(2010)
        .trace_probe(Box::new(Auditor::new()))
        .audit_expectations(true, true)
        .build();
    sim.inject_spike_windows(
        primary_machine_of(&job, 0),
        &single_failure(SimTime::from_secs(2), SimDuration::from_secs(2)),
    );
    sim.fail_stop_at(primary_machine_of(&job, 1), SimTime::from_millis(3_500));
    sim.stop_sources_at(SimTime::from_secs(6));
    sim.run_until(SimTime::from_secs(40));
    sim.finish_probes();

    let (produced, remote, local) = produced_and_sunk(&sim);
    let report = sim.audit_report().unwrap_or_default();
    let (want_produced, want_sinks, want_violation) = KNOWN_LOSS_FREE_WEDGE;
    assert_eq!(produced, want_produced);
    assert_eq!([remote, local], want_sinks, "the remote sink stays short");
    assert_eq!(sim.audit_violations(), 1, "{report}");
    assert!(report.contains("  stream_complete: 1\n"), "{report}");
    assert!(report.contains(want_violation), "{report}");
}

/// A 64-way key-partitioned job (router + one subjob per shard) on an
/// 83-machine grid, multiplexed two-deep: a switch partition cuts twelve
/// machines — the primaries of 24 shards — off the router for a second,
/// and later one other shard's primary fail-stops. The router's ports to
/// the cut shards keep their backlog while the link is down (stalled-TCP
/// semantics, so the runtime has to come back to those ports on its own
/// after the heal), every shard recovers, and the sink sees each element
/// exactly once.
#[test]
fn wide_sharded_job_survives_a_switch_partition_and_a_shard_failstop() {
    use hybrid_ha::cluster::{ChaosPlan, FaultTopology, SwitchId};
    use hybrid_ha::ha::SjState;
    use hybrid_ha::workloads::{sharded_job, sharded_placement, ZipfKeys};

    const SHARDS: usize = 64;
    let job = sharded_job(SHARDS, 2e-4, 16);
    // 4 machines per rack, 3 racks per switch: switch 1 is machines 12..24.
    let topology = FaultTopology::grid(83, 4, 3);
    let placement = sharded_placement(&job, 83, &topology);
    let cut: Vec<usize> = (0..SHARDS)
        .filter(|&s| (12..24).contains(&placement.primaries[1 + s].0))
        .collect();
    assert_eq!(cut.len(), 24, "two shard primaries per cut machine");
    let victim = placement.primaries[1 + 30];
    assert!(!(12..24).contains(&victim.0) && victim != placement.primaries[0]);

    // Heal between two heartbeats, so no rollback is under way yet when
    // the drain is checked.
    let (cut_at, heal_at) = (SimTime::from_secs(2), SimTime::from_millis(3_030));
    let mut sim = HaSimulation::builder(job)
        .mode(HaMode::Hybrid)
        .topology(topology)
        .placement(placement)
        .source_profile(
            0,
            RateProfile::Constant { per_sec: 2_000.0 },
            ZipfKeys::new(100_000, 0.8).payload_gen(),
        )
        .chaos(ChaosPlan::new().switch_partition_window(cut_at, heal_at, SwitchId(1)))
        // Fail-stop after 1.5 s of silence: longer than the partition, so
        // the cut shards roll back and only the dead one is promoted.
        .tune(|c| c.failstop_miss_threshold = 15)
        .seed(65)
        .build();
    sim.fail_stop_at(victim, SimTime::from_secs(5));
    sim.stop_sources_at(SimTime::from_secs(8));

    // Elements the router has produced for the cut shards' primaries but
    // not yet sent them.
    let stalled = |sim: &HaSimulation| -> u64 {
        let router = sim
            .world()
            .instance(PeId(0), Replica::Primary)
            .expect("router deployed");
        cut.iter()
            .map(|&s| {
                let q = router.output(s);
                q.next_seq() - q.connections()[0].next_to_send
            })
            .sum()
    };
    // Just before the heal the cursors have held position for a second...
    sim.run_until(heal_at - SimDuration::from_millis(1));
    let held = stalled(&sim);
    assert!(held > 300, "backlog behind the partition: {held}");
    // ...and the router's next few completions after it (one per 0.5 ms,
    // nearly all for other shards, well before any rollback touches these
    // queues) flush every stalled port, not just the ports they wrote.
    sim.run_until(heal_at + SimDuration::from_millis(20));
    assert_eq!(stalled(&sim), 0, "healed links drain at the next dispatch");

    sim.run_until(SimTime::from_secs(14));
    let world = sim.world();
    let produced = world.sources()[0].produced();
    assert!(produced > 15_000);
    assert_eq!(
        world.sinks()[0].accepted(),
        produced,
        "every element reaches the sink exactly once"
    );
    for sj in 0..=SHARDS as u32 {
        assert_eq!(
            world.subjob(SubjobId(sj)).state,
            SjState::Normal,
            "subjob {sj} back to Normal"
        );
    }
    let count = |kind| world.ha_events().iter().filter(|e| e.kind == kind).count();
    assert_eq!(count(HaEventKind::RollbackComplete), cut.len());
    assert_eq!(count(HaEventKind::Promoted), 1, "only the dead shard");
}
