//! Cross-crate recovery-correctness tests: under every HA mode and failure
//! pattern, the system must deliver every element exactly once to the sink
//! (the paper's guarantee for deterministic PEs, §II-C).

use hybrid_ha::prelude::*;

/// A chain whose last PE is a stateful counter: the sink's final value
/// equals the number of elements that passed through, so state corruption
/// or replay errors surface as a wrong count, not just a wrong cardinality.
fn counting_job() -> Job {
    let mut b = JobBuilder::new("counting");
    let src = b.add_source("src");
    let sink = b.add_sink("sink");
    let a = b.add_pe(
        "map",
        OperatorSpec::Map {
            scale: 1.0,
            offset: 0.0,
            demand_secs: 3e-4,
        },
    );
    let c = b.add_pe("count", OperatorSpec::Counter { demand_secs: 3e-4 });
    let d = b.add_pe(
        "tail",
        OperatorSpec::Map {
            scale: 1.0,
            offset: 0.0,
            demand_secs: 3e-4,
        },
    );
    let e = b.add_pe("tail2", OperatorSpec::Counter { demand_secs: 3e-4 });
    b.connect_source(src, a, 0);
    b.connect(a, 0, c, 0);
    b.connect(c, 0, d, 0);
    b.connect(d, 0, e, 0);
    b.connect_sink(e, 0, sink);
    b.subjobs(vec![vec![a, c], vec![d, e]]);
    b.build().expect("valid")
}

fn run_with_failures(mode: HaMode, spikes: &[(u64, u64)], seed: u64) -> (u64, u64) {
    let mut sim = HaSimulation::builder(counting_job())
        .mode(HaMode::None)
        .subjob_mode(SubjobId(0), mode)
        .source_rate(600.0)
        .seed(seed)
        .build();
    for &(s, e) in spikes {
        sim.inject_spike_windows(
            MachineId(0),
            &[SpikeWindow {
                start: SimTime::from_millis(s),
                end: SimTime::from_millis(e),
                share: 1.0,
            }],
        );
    }
    sim.stop_sources_at(SimTime::from_secs(10));
    sim.run_for(SimDuration::from_secs(14));
    let produced = sim.world().sources()[0].produced();
    (produced, sim.world().sinks()[0].accepted())
}

#[test]
fn every_mode_is_lossless_under_one_failure() {
    for mode in HaMode::ALL {
        if mode == HaMode::None {
            continue; // NONE on a source-colocated machine never fully stalls
        }
        let (produced, accepted) = run_with_failures(mode, &[(2_000, 5_000)], 17);
        assert_eq!(accepted, produced, "{mode} lost or duplicated elements");
    }
}

#[test]
fn consecutive_failures_are_survived() {
    // The §II-C requirement: "under single or multiple consecutive
    // failures".
    for mode in [HaMode::Passive, HaMode::Hybrid] {
        let (produced, accepted) =
            run_with_failures(mode, &[(1_500, 3_000), (4_500, 6_000), (7_000, 8_200)], 23);
        assert_eq!(
            accepted, produced,
            "{mode} failed under consecutive failures"
        );
    }
}

#[test]
fn stateful_counter_value_is_exact_after_recovery() {
    let mut sim = HaSimulation::builder(counting_job())
        .mode(HaMode::None)
        .subjob_mode(SubjobId(0), HaMode::Hybrid)
        .subjob_mode(SubjobId(1), HaMode::Hybrid)
        .source_rate(600.0)
        .seed(5)
        .log_sink_accepts(true)
        .build();
    sim.inject_spike_windows(
        MachineId(0),
        &[SpikeWindow {
            start: SimTime::from_secs(2),
            end: SimTime::from_secs(4),
            share: 1.0,
        }],
    );
    sim.inject_spike_windows(
        MachineId(1),
        &[SpikeWindow {
            start: SimTime::from_secs(5),
            end: SimTime::from_secs(7),
            share: 1.0,
        }],
    );
    sim.stop_sources_at(SimTime::from_secs(9));
    sim.run_for(SimDuration::from_secs(13));
    let produced = sim.world().sources()[0].produced();
    let accepted = sim.world().sinks()[0].accepted();
    assert_eq!(accepted, produced);
    // The final sink element's sequence number equals the count: no element
    // was double-counted by a restored counter.
    let log = sim.world().sinks()[0].accept_log().expect("logging on");
    let max_seq = log
        .iter()
        .map(|(_, _, s)| *s)
        .max()
        .expect("elements flowed");
    assert_eq!(
        max_seq, produced,
        "stateful count drifted across recoveries"
    );
}

#[test]
fn tree_topology_recovers_losslessly() {
    // §VII future work: more complex PE topologies.
    let mut sim = HaSimulation::builder(tree_job())
        .mode(HaMode::None)
        .subjob_mode(SubjobId(2), HaMode::Hybrid) // protect the join
        .source_rate(400.0)
        .seed(9)
        .build();
    // The join subjob lands on machine 2 under the default placement.
    sim.inject_spike_windows(
        MachineId(2),
        &[SpikeWindow {
            start: SimTime::from_secs(2),
            end: SimTime::from_secs(4),
            share: 1.0,
        }],
    );
    sim.stop_sources_at(SimTime::from_secs(8));
    sim.run_for(SimDuration::from_secs(12));
    let produced: u64 = sim.world().sources().iter().map(|s| s.produced()).sum();
    assert_eq!(
        sim.world().sinks()[0].accepted(),
        produced,
        "tree join lost elements across recovery"
    );
}

#[test]
fn active_standby_masks_failures_without_detection() {
    let mut sim = HaSimulation::builder(counting_job())
        .mode(HaMode::None)
        .subjob_mode(SubjobId(0), HaMode::Active)
        .source_rate(600.0)
        .seed(31)
        .build();
    sim.inject_spike_windows(
        MachineId(0),
        &[SpikeWindow {
            start: SimTime::from_secs(2),
            end: SimTime::from_secs(6),
            share: 1.0,
        }],
    );
    sim.stop_sources_at(SimTime::from_secs(8));
    sim.run_for(SimDuration::from_secs(12));
    assert!(
        sim.world().ha_events().is_empty(),
        "AS needs no detection or switching"
    );
    let report = sim.report();
    assert_eq!(report.sink_accepted, sim.world().sources()[0].produced());
    assert!(
        report.sink_p99_delay_ms < 100.0,
        "the healthy copy keeps p99 low: {} ms",
        report.sink_p99_delay_ms
    );
}
