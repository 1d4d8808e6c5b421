//! Chaos campaigns: the HA protocols must deliver every element exactly
//! once to the sink — and settle back to normal operation — under lossy,
//! reordering, duplicating, and partitioned networks, including correlated
//! machine fail-stops (the ISSUE acceptance scenario).

use sps_cluster::{
    BurstLoss, ChaosPlan, DomainId, FaultProfile, FaultTopology, MachineId, SwitchId,
};
use sps_engine::{Dest, Job, OperatorSpec, OutputQueue, PeId, Replica, SubjobId};
use sps_ha::{
    HaEventKind, HaMode, HaSimulation, Placement, SjState, REL_RTO_MAX, REL_SWEEP_INTERVAL,
};
use sps_metrics::Scope;
use sps_sim::{SimDuration, SimTime};
use sps_trace::{SharedRecorder, TraceEvent};

fn chain_job() -> Job {
    Job::chain("eval", &OperatorSpec::synthetic_default(), 8, 4)
}

/// The ISSUE's baseline chaos weather: ~2% independent loss with
/// Gilbert–Elliott bursts and a little delivery jitter on every link.
fn lossy_weather() -> FaultProfile {
    FaultProfile::loss(0.02)
        .with_burst(BurstLoss {
            good_to_bad: 0.01,
            bad_to_good: 0.2,
            bad_loss_prob: 0.6,
        })
        .with_jitter(SimDuration::from_millis(2))
}

fn promoted_count(world: &sps_ha::HaWorld, sj: SubjobId) -> usize {
    world
        .ha_events()
        .iter()
        .filter(|e| e.subjob == sj && e.kind == HaEventKind::Promoted)
        .count()
}

/// Hybrid standbys everywhere, sustained lossy weather across the whole
/// run: every element still reaches the sink exactly once, and every
/// spurious switch-over (a single lost pong trips the hybrid's 1-miss
/// detector) is rolled back by the end.
#[test]
fn hybrid_survives_sustained_loss_without_element_loss() {
    let plan = ChaosPlan::default().loss_window(
        SimTime::from_millis(500),
        SimTime::from_secs(7),
        lossy_weather(),
    );
    let mut sim = HaSimulation::builder(chain_job())
        .mode(HaMode::Hybrid)
        .source_rate(500.0)
        .seed(11)
        .tune(|c| c.reliable_control = true)
        .chaos(plan)
        .build();
    sim.stop_sources_at(SimTime::from_secs(9));
    sim.run_for(SimDuration::from_secs(14));

    let world = sim.world();
    let produced = world.sources()[0].produced();
    assert!(produced > 2_000, "source ran: {produced}");
    assert_eq!(
        world.sinks()[0].accepted(),
        produced,
        "no sink-visible loss under 2% chaos loss"
    );
    for sj in 0..4 {
        let sj_id = SubjobId(sj);
        assert_eq!(
            world.subjob(sj_id).state,
            SjState::Normal,
            "subjob {sj} settled after the weather cleared"
        );
        assert_eq!(
            promoted_count(world, sj_id),
            0,
            "loss alone must never promote"
        );
    }
}

/// The acceptance campaign: ≥1% per-link loss plus a correlated
/// two-machine fail-stop. The hybrid must reach quiescence with zero
/// sink-visible loss or duplication and exactly one promotion per failed
/// subjob — no double promotion anywhere.
#[test]
fn correlated_fail_stop_under_loss_recovers_exactly_once() {
    let plan = ChaosPlan::default()
        .loss_window(
            SimTime::from_millis(500),
            SimTime::from_secs(6),
            lossy_weather(),
        )
        .correlated_fail_stop(SimTime::from_secs(3), &[MachineId(1), MachineId(3)]);
    let mut sim = HaSimulation::builder(chain_job())
        .mode(HaMode::Hybrid)
        .source_rate(500.0)
        .seed(12)
        .tune(|c| {
            c.reliable_control = true;
            c.failstop_miss_threshold = 20;
        })
        .chaos(plan)
        .build();
    sim.stop_sources_at(SimTime::from_secs(10));
    sim.run_for(SimDuration::from_secs(16));

    let world = sim.world();
    let produced = world.sources()[0].produced();
    assert_eq!(
        world.sinks()[0].accepted(),
        produced,
        "correlated fail-stop under loss loses nothing at the sink"
    );
    for sj in 0..4 {
        let sj_id = SubjobId(sj);
        let promotions = promoted_count(world, sj_id);
        let expected = usize::from(sj == 1 || sj == 3);
        assert_eq!(
            promotions, expected,
            "subjob {sj}: exactly one promotion per dead primary, zero elsewhere"
        );
        assert_eq!(
            world.subjob(sj_id).state,
            SjState::Normal,
            "subjob {sj} reached quiescence"
        );
    }
    // The promoted subjobs run on their former secondaries with fresh
    // standbys redeployed on spares.
    for sj in [1u32, 3] {
        let s = world.subjob(SubjobId(sj));
        assert_eq!(s.primary_replica, Replica::Secondary);
        assert!(s.secondary_machine.is_some(), "replacement standby exists");
    }
}

/// A one-way partition eats the monitor's pings: the hybrid switches over
/// (false suspicion), but on heal the fresh pong rolls it back — the live
/// primary is never double-promoted and no element is lost or duplicated
/// at the sink.
#[test]
fn one_way_partition_causes_no_split_brain() {
    // Subjob 1: monitor on the secondary machine 6 pings primary machine 1.
    let plan = ChaosPlan::default().one_way_partition(
        SimTime::from_secs(2),
        SimTime::from_secs(4),
        MachineId(6),
        MachineId(1),
    );
    let mut sim = HaSimulation::builder(chain_job())
        .mode(HaMode::None)
        .subjob_mode(SubjobId(1), HaMode::Hybrid)
        .source_rate(500.0)
        .seed(13)
        .tune(|c| c.reliable_control = true)
        .chaos(plan)
        .build();
    sim.stop_sources_at(SimTime::from_secs(7));
    sim.run_for(SimDuration::from_secs(10));

    let world = sim.world();
    let kinds: Vec<HaEventKind> = world
        .ha_events()
        .iter()
        .filter(|e| e.subjob == SubjobId(1))
        .map(|e| e.kind)
        .collect();
    assert!(
        kinds.contains(&HaEventKind::SwitchoverComplete),
        "lost pings look like a failure: {kinds:?}"
    );
    assert!(
        kinds.contains(&HaEventKind::RollbackComplete),
        "the heal's fresh pong rolls the false alarm back: {kinds:?}"
    );
    assert!(
        !kinds.contains(&HaEventKind::Promoted),
        "a one-way partition must never promote over a live primary: {kinds:?}"
    );
    let sj = world.subjob(SubjobId(1));
    assert_eq!(sj.state, SjState::Normal);
    assert_eq!(sj.primary_replica, Replica::Primary, "roles restored");
    assert!(
        world
            .instance(PeId(2), Replica::Secondary)
            .is_some_and(|i| i.is_suspended()),
        "the standby is suspended again — one serving copy per subjob"
    );
    let produced = world.sources()[0].produced();
    assert_eq!(world.sinks()[0].accepted(), produced, "no loss");
    assert_eq!(world.sinks()[0].duplicates_dropped(), 0, "no duplication");
}

/// Chaos duplication and jitter (no loss) reorder and repeat deliveries;
/// sequence-number dedup and stashing absorb both.
#[test]
fn duplication_and_jitter_do_not_corrupt_delivery() {
    let weather = FaultProfile::default()
        .with_duplication(0.05)
        .with_jitter(SimDuration::from_millis(3));
    let plan =
        ChaosPlan::default().loss_window(SimTime::from_millis(200), SimTime::from_secs(4), weather);
    let mut sim = HaSimulation::builder(chain_job())
        .mode(HaMode::None)
        .source_rate(500.0)
        .seed(14)
        .chaos(plan)
        .build();
    sim.stop_sources_at(SimTime::from_secs(5));
    sim.run_for(SimDuration::from_secs(7));

    let world = sim.world();
    let produced = world.sources()[0].produced();
    assert_eq!(
        world.sinks()[0].accepted(),
        produced,
        "duplication/reordering must not change what the sink accepts"
    );
}

/// The chaos run is a deterministic function of the seed: identical seeds
/// replay byte-identically, different seeds diverge. (This is the in-test
/// twin of the CI determinism job.)
#[test]
fn chaos_campaign_is_deterministic_per_seed() {
    let run = |seed| {
        let plan = ChaosPlan::default()
            .loss_window(
                SimTime::from_millis(500),
                SimTime::from_secs(3),
                lossy_weather(),
            )
            .correlated_fail_stop(SimTime::from_secs(2), &[MachineId(1)]);
        let mut sim = HaSimulation::builder(chain_job())
            .mode(HaMode::Hybrid)
            .source_rate(500.0)
            .seed(seed)
            .tune(|c| {
                c.reliable_control = true;
                c.failstop_miss_threshold = 20;
            })
            .chaos(plan)
            .build();
        sim.stop_sources_at(SimTime::from_secs(5));
        sim.run_for(SimDuration::from_secs(8));
        let r = sim.report();
        (
            r.sink_accepted,
            r.sink_duplicates,
            r.total_overhead_elements(),
            r.events_processed,
            format!("{:.9}", r.sink_mean_delay_ms),
        )
    };
    assert_eq!(run(21), run(21));
    assert_ne!(run(21).3, run(22).3);
}

/// An empty chaos plan perturbs nothing: installing it leaves the run
/// identical to a chaos-free build (the figure-parity guarantee — chaos
/// draws happen only on faulted links).
#[test]
fn empty_chaos_plan_is_a_no_op() {
    let run = |with_plan: bool| {
        let mut b = HaSimulation::builder(chain_job())
            .mode(HaMode::Hybrid)
            .source_rate(500.0)
            .seed(15);
        if with_plan {
            b = b.chaos(ChaosPlan::default());
        }
        let mut sim = b.build();
        sim.stop_sources_at(SimTime::from_secs(3));
        sim.run_for(SimDuration::from_secs(5));
        let r = sim.report();
        (
            r.sink_accepted,
            r.events_processed,
            r.total_overhead_elements(),
        )
    };
    assert_eq!(run(false), run(true));
}

/// The trace layer observes the chaos: net drops, retransmissions, and the
/// plan's own steps all land in the recorded trace.
#[test]
fn telemetry_sees_drops_retransmits_and_steps() {
    let recorder = SharedRecorder::default();
    let plan = ChaosPlan::default().loss_window(
        SimTime::from_millis(500),
        SimTime::from_secs(4),
        FaultProfile::loss(0.05).with_duplication(0.02),
    );
    let mut sim = HaSimulation::builder(chain_job())
        .mode(HaMode::Hybrid)
        .source_rate(500.0)
        .seed(16)
        .tune(|c| c.reliable_control = true)
        .chaos(plan)
        .trace_sink(Box::new(recorder.clone()))
        .build();
    sim.stop_sources_at(SimTime::from_secs(5));
    sim.run_for(SimDuration::from_secs(8));

    let count = |f: fn(&TraceEvent) -> bool| {
        recorder.with(|r| r.records().filter(|rec| f(&rec.event)).count())
    };
    assert!(
        count(|e| matches!(e, TraceEvent::NetDrop { chaos: true, .. })) > 0,
        "5% loss drops something"
    );
    assert!(
        count(|e| matches!(e, TraceEvent::NetDuplicate { .. })) > 0,
        "2% duplication fires"
    );
    assert!(
        count(|e| matches!(e, TraceEvent::Retransmit { .. })) > 0,
        "lost checkpoint traffic is retransmitted"
    );
    let chaos_steps: Vec<(SimTime, &str)> = recorder.with(|r| {
        r.records()
            .filter_map(|rec| match rec.event {
                TraceEvent::ChaosPhase { action, .. } => Some((rec.at, action.as_str())),
                _ => None,
            })
            .collect()
    });
    assert_eq!(
        chaos_steps,
        [
            (SimTime::from_millis(500), "default_faults"),
            (SimTime::from_secs(4), "clear_default_faults"),
        ],
        "both plan steps applied and recorded"
    );
    // The weather cleared and the reliable layer settled everything.
    let world = sim.world();
    assert_eq!(world.sinks()[0].accepted(), world.sources()[0].produced());
}

/// Six-rack topology (one switch per rack) and an explicit layout that
/// keeps the source and sink on a rack the campaign never touches:
/// primaries on r0, standbys on r1, spares on r2–r4, source+sink on r5.
fn domain_campaign_setup() -> (FaultTopology, Placement) {
    let topology = FaultTopology::grid(22, 4, 1);
    let placement = Placement {
        primaries: (0..4).map(MachineId).collect(),
        secondaries: (4..8).map(|m| Some(MachineId(m))).collect(),
        sources: vec![MachineId(20)],
        sinks: vec![MachineId(21)],
        spares: (8..20).map(MachineId).collect(),
    };
    (topology, placement)
}

/// Three successive correlated domain failures, each spaced past recovery:
/// the primaries' rack, then the rack holding the freshly re-provisioned
/// standbys, then the promoted primaries' rack. Every cycle must end with
/// every subjob back to Normal on a live primary with a live,
/// domain-disjoint standby, and the whole run delivers exactly once.
#[test]
fn successive_domain_failures_keep_standbys_domain_disjoint() {
    let (topology, placement) = domain_campaign_setup();
    // Cycle 1 kills every primary (r0): promote onto r1, re-provision
    // standbys on spares. Cycle 2 kills the rack those standbys landed on:
    // standby-death repair re-provisions again. Cycle 3 kills the promoted
    // primaries (r1): the ladder promotes onto the repaired standbys.
    let plan = ChaosPlan::default()
        .domain_fail_stop(SimTime::from_secs(3), DomainId(0))
        .domain_fail_stop(SimTime::from_secs(7), DomainId(4))
        .domain_fail_stop(SimTime::from_secs(11), DomainId(1));
    let mut sim = HaSimulation::builder(chain_job())
        .mode(HaMode::Hybrid)
        .source_rate(500.0)
        .seed(31)
        .tune(|c| {
            c.reliable_control = true;
            c.failstop_miss_threshold = 20;
        })
        .placement(placement)
        .topology(topology.clone())
        .chaos(plan)
        .build();
    sim.stop_sources_at(SimTime::from_secs(15));

    let assert_cycle = |world: &sps_ha::HaWorld, cycle: u32| {
        for sj in 0..4u32 {
            let s = world.subjob(SubjobId(sj));
            assert_eq!(
                s.state,
                SjState::Normal,
                "cycle {cycle}: subjob {sj} settled"
            );
            assert!(
                world.cluster().machine(s.primary_machine).is_up(),
                "cycle {cycle}: subjob {sj} primary is live"
            );
            let sec = s
                .secondary_machine
                .unwrap_or_else(|| panic!("cycle {cycle}: subjob {sj} has a standby"));
            assert!(
                world.cluster().machine(sec).is_up(),
                "cycle {cycle}: subjob {sj} standby is live"
            );
            assert!(
                topology.domain_disjoint(s.primary_machine, sec),
                "cycle {cycle}: subjob {sj} pair {:?}/{sec:?} shares a domain",
                s.primary_machine
            );
        }
    };
    sim.run_until(SimTime::from_millis(6_900));
    assert_cycle(sim.world(), 1);
    sim.run_until(SimTime::from_millis(10_900));
    assert_cycle(sim.world(), 2);
    sim.run_until(SimTime::from_secs(22));
    assert_cycle(sim.world(), 3);

    let world = sim.world();
    let produced = world.sources()[0].produced();
    assert!(produced > 2_000, "source ran: {produced}");
    assert_eq!(
        world.sinks()[0].accepted(),
        produced,
        "exactly-once across three correlated domain failures"
    );
    for sj in 0..4 {
        assert_eq!(
            promoted_count(world, SubjobId(sj)),
            2,
            "subjob {sj}: promoted in cycles 1 and 3, repaired in place in cycle 2"
        );
    }
}

/// The domain campaign is a deterministic function of the seed, like every
/// other chaos scenario: identical seeds replay identically, different
/// seeds diverge.
#[test]
fn domain_campaign_is_deterministic_per_seed() {
    let run = |seed| {
        let (topology, placement) = domain_campaign_setup();
        let plan = ChaosPlan::default()
            .loss_window(
                SimTime::from_millis(500),
                SimTime::from_secs(6),
                lossy_weather(),
            )
            .domain_fail_stop(SimTime::from_secs(3), DomainId(0))
            .domain_fail_stop(SimTime::from_secs(7), DomainId(4));
        let mut sim = HaSimulation::builder(chain_job())
            .mode(HaMode::Hybrid)
            .source_rate(500.0)
            .seed(seed)
            .tune(|c| {
                c.reliable_control = true;
                c.failstop_miss_threshold = 20;
            })
            .placement(placement)
            .topology(topology)
            .chaos(plan)
            .build();
        sim.stop_sources_at(SimTime::from_secs(9));
        sim.run_for(SimDuration::from_secs(13));
        let r = sim.report();
        (
            r.sink_accepted,
            r.sink_duplicates,
            r.total_overhead_elements(),
            r.events_processed,
            format!("{:.9}", r.sink_mean_delay_ms),
        )
    };
    assert_eq!(run(41), run(41));
    assert_ne!(run(41).3, run(42).3);
}

/// Causal lineage stays coherent under chaos: with 2% loss plus
/// Gilbert–Elliott bursts forcing reliable-layer rewinds, every delivered
/// element's derivation chain is acyclic and monotone, stamps are ordered
/// (emitted ≤ sent ≤ received per hop), the delivery log mirrors the sink
/// exactly, and each rewound element is flagged retransmitted on exactly
/// one hop of its chain no matter how many times its cursor rewound.
#[test]
fn lineage_invariants_hold_under_chaos_loss() {
    let plan = ChaosPlan::default().loss_window(
        SimTime::from_millis(500),
        SimTime::from_secs(7),
        lossy_weather(),
    );
    let mut sim = HaSimulation::builder(chain_job())
        .mode(HaMode::Hybrid)
        .source_rate(500.0)
        .seed(17)
        .tune(|c| c.reliable_control = true)
        .chaos(plan)
        .lineage(true)
        .build();
    sim.stop_sources_at(SimTime::from_secs(9));
    sim.run_for(SimDuration::from_secs(14));

    let world = sim.world();
    let lineage = world.lineage().expect("lineage enabled");
    assert_eq!(
        lineage.delivered().len() as u64,
        world.sinks()[0].accepted(),
        "delivery log mirrors the sink exactly"
    );
    let mut any_retransmit = false;
    let mut decomposed = 0usize;
    for &(key, _) in lineage.delivered() {
        let Some(hops) = lineage.decompose(key) else {
            continue;
        };
        decomposed += 1;
        // Acyclic: every element appears exactly once along its own chain.
        let mut keys: Vec<_> = hops.iter().map(|h| h.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), hops.len(), "cycle in the chain of {key:?}");
        // Monotone: derivation order is emission order.
        for w in hops.windows(2) {
            assert!(
                w[1].emitted_at >= w[0].emitted_at,
                "non-monotone chain for {key:?}"
            );
        }
        for h in &hops {
            let r = lineage.record(h.key).expect("hop elements are recorded");
            // Stamps are ordered within a hop.
            if let Some(sent) = r.sent_at {
                assert!(sent >= r.emitted_at, "sent before emitted: {:?}", h.key);
                if let Some(recv) = r.recv_at {
                    assert!(recv >= sent, "received before sent: {:?}", h.key);
                }
            }
            // The flag mirrors the rewind count as a boolean — a
            // many-times-rewound element is still flagged on just this
            // one hop (chain keys are unique, checked above).
            assert_eq!(h.retransmitted, r.retransmits > 0);
            any_retransmit |= h.retransmitted;
        }
    }
    assert!(decomposed > 1_000, "chains decomposed: {decomposed}");
    assert!(
        any_retransmit,
        "burst loss under the reliable layer must rewind at least one element"
    );
}

/// Partial-batch retransmission: with a 16-element batched data plane
/// under the same ack-eating weather, a retransmission sweep rewinds each
/// starved connection to its acked boundary — which generally falls in
/// the *middle* of an originally transmitted range-stamped batch. The
/// resent run re-chunks from the split point. The sink must still see
/// every element exactly once, every rewound element must be
/// retransmit-flagged exactly once on its own hop, and at least one
/// rewind boundary must demonstrably split a batch: a flagged element
/// whose same-stream predecessor went out in the same original range but
/// was never resent.
#[test]
fn partial_batch_retransmission_is_exactly_once_across_split() {
    let plan = ChaosPlan::default().loss_window(
        SimTime::from_millis(500),
        SimTime::from_secs(7),
        lossy_weather(),
    );
    let mut sim = HaSimulation::builder(chain_job())
        .mode(HaMode::Hybrid)
        .source_rate(500.0)
        .seed(23)
        .tune(|c| {
            c.reliable_control = true;
            c.batch_size = 16;
        })
        .chaos(plan)
        .lineage(true)
        .build();
    sim.stop_sources_at(SimTime::from_secs(9));
    sim.run_for(SimDuration::from_secs(14));

    let world = sim.world();
    let produced = world.sources()[0].produced();
    assert!(produced > 2_000, "source ran: {produced}");
    assert_eq!(
        world.sinks()[0].accepted(),
        produced,
        "exactly-once delivery under partial-batch retransmission"
    );

    let lineage = world.lineage().expect("lineage enabled");
    let mut seen = std::collections::BTreeSet::new();
    let mut flagged = std::collections::BTreeSet::new();
    for &(key, _) in lineage.delivered() {
        let Some(hops) = lineage.decompose(key) else {
            continue;
        };
        for h in &hops {
            seen.insert(h.key);
            let r = lineage.record(h.key).expect("hop elements are recorded");
            // Flagged exactly once: the boolean rides the element's own
            // hop and mirrors its rewind count, however many sweeps
            // re-sent it.
            assert_eq!(h.retransmitted, r.retransmits > 0);
            if h.retransmitted {
                flagged.insert(h.key);
            }
        }
    }
    assert!(
        !flagged.is_empty(),
        "burst loss must rewind at least one element"
    );
    // The split boundary: a resent element whose immediate same-stream
    // predecessor was delivered without a resend. At batch size 16 the
    // two necessarily shared an original range-stamped batch unless the
    // boundary sat exactly on a batch edge — across every rewind in the
    // run, at least one must fall mid-batch.
    let split = flagged.iter().any(|&(stream, seq)| {
        seq > 1 && seen.contains(&(stream, seq - 1)) && !flagged.contains(&(stream, seq - 1))
    });
    assert!(split, "no rewind boundary fell inside a batch");
}

// ---- the retransmission sweep's backoff ----

/// One output connection of the evaluation chain as a test can see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Conn {
    /// Which one: `(pe, replica, port, connection)`, `u32::MAX` for the
    /// source.
    id: (u32, usize, usize, usize),
    stream: u32,
    /// The sequence number its queue retains nothing at or below for it:
    /// acknowledged, or trimmed away under a suspended copy.
    floor: u64,
    next_to_send: u64,
}

impl Conn {
    /// Elements sent and still retained: what a rewind would re-send.
    fn in_flight(&self) -> u64 {
        (self.next_to_send - 1).saturating_sub(self.floor)
    }
}

/// Every active output connection of the chain: the source's, then each
/// PE's by replica, port and connection.
fn active_connections(world: &sps_ha::HaWorld) -> Vec<Conn> {
    let mut out = Vec::new();
    let mut push = |pe: u32, replica: usize, port: usize, q: &OutputQueue<Dest>| {
        for (ci, c) in q.connections().iter().enumerate().filter(|(_, c)| c.active) {
            out.push(Conn {
                id: (pe, replica, port, ci),
                stream: q.stream().0,
                floor: c.acked.max(q.trimmed_through()),
                next_to_send: c.next_to_send,
            });
        }
    };
    push(u32::MAX, 0, 0, world.sources()[0].queue());
    for pe in 0..8 {
        for (r, replica) in Replica::BOTH.into_iter().enumerate() {
            if let Some(inst) = world.instance(PeId(pe), replica) {
                for port in 0..inst.output_ports() {
                    push(pe, r, port, inst.output(port));
                }
            }
        }
    }
    out
}

/// Elements the sweep has re-sent so far (needs `collect_metrics(true)`).
fn data_retransmits(world: &sps_ha::HaWorld) -> u64 {
    let registry = world.metrics().expect("metrics collected");
    registry.counter(Scope::global("reliable"), "data_retransmits")
}

/// How often a send cursor was rewound over `(stream, seq)` (needs
/// `lineage(true)`).
fn rewinds_over(world: &sps_ha::HaWorld, stream: u32, seq: u64) -> u32 {
    let lineage = world.lineage().expect("lineage enabled");
    lineage.record((stream, seq)).map_or(0, |r| r.retransmits)
}

/// §III-B leaves every checkpoint-acked connection with a delivered but
/// unacknowledged tail once the stream stops, and its receiver may not
/// re-ack duplicates — silence the sweep cannot tell from loss. The backoff
/// bounds what that costs: over six quiet seconds the tail is re-sent about
/// ten times (sweeps 1, 2, 4, 8, 16, 24, … 56), not on each of 60 sweeps,
/// and nothing the sink sees changes.
#[test]
fn a_quiet_unacknowledged_tail_is_resent_with_backoff_not_every_sweep() {
    let mut sim = HaSimulation::builder(chain_job())
        .mode(HaMode::Hybrid)
        .source_rate(500.0)
        .seed(18)
        .tune(|c| c.reliable_control = true)
        .collect_metrics(true)
        .build();
    let stop = SimTime::from_secs(4);
    sim.stop_sources_at(stop);
    sim.run_until(stop);
    let before = data_retransmits(sim.world());
    sim.run_until(stop + SimDuration::from_secs(6));

    let world = sim.world();
    let tail: u64 = active_connections(world).iter().map(Conn::in_flight).sum();
    assert!(tail > 500, "a checkpoint interval's worth per hop: {tail}");
    let resent = data_retransmits(world) - before;
    assert!(
        resent >= 7 * tail && resent <= 12 * tail,
        "{resent} elements re-sent for a tail of {tail}: every sweep would be 59x"
    );
    let produced = world.sources()[0].produced();
    assert_eq!(world.sinks()[0].accepted(), produced, "exactly once");
    assert_eq!(
        world.sinks()[0].duplicates_dropped(),
        0,
        "no resend reaches the sink"
    );
    for sj in 0..4 {
        assert_eq!(world.subjob(SubjobId(sj)).state, SjState::Normal);
    }
}

/// Backing off must not turn into giving up: under the campaign's 2 %
/// bursty loss — where a retransmission can itself be lost — a connection
/// that sits at one `(acked, next_to_send)` pair with elements in flight is
/// rewound again within `REL_RTO_MAX` plus one sweep, every time, and the
/// run still ends exactly-once. The sources stop inside the loss window so
/// that the frozen tails sit under loss for six seconds. A rewind is read
/// off the lineage count of the connection's newest in-flight element;
/// both replicas of a PE produce the same stream, so while a subjob is
/// switched over one copy's rewind can vouch for the other's.
#[test]
fn a_stalled_connection_is_never_left_longer_than_the_rto_cap_under_loss() {
    let plan = ChaosPlan::default().loss_window(
        SimTime::from_millis(500),
        SimTime::from_secs(12),
        lossy_weather(),
    );
    let mut sim = HaSimulation::builder(chain_job())
        .mode(HaMode::Hybrid)
        .source_rate(500.0)
        .seed(19)
        .tune(|c| c.reliable_control = true)
        .chaos(plan)
        .lineage(true)
        .build();
    sim.stop_sources_at(SimTime::from_secs(6));
    let (sweep, rto_max) = (REL_SWEEP_INTERVAL, REL_RTO_MAX);

    // Sampled midway between sweeps: per connection with elements in
    // flight, its cursors and rewind count as last seen, and when any of
    // them last changed.
    let mut seen = std::collections::BTreeMap::new();
    let mut capped_waits = 0u32;
    let mut now = SimTime::from_millis(50);
    while now < SimTime::from_secs(16) {
        sim.run_until(now);
        let world = sim.world();
        let mut in_flight = active_connections(world);
        in_flight.retain(|c| c.in_flight() > 0);
        seen.retain(|id, _| in_flight.iter().any(|c| c.id == *id));
        for c in in_flight {
            let sample = (c, rewinds_over(world, c.stream, c.next_to_send - 1));
            let (last, since) = seen.entry(c.id).or_insert((sample, now));
            let quiet = now.saturating_since(*since);
            assert!(
                quiet <= rto_max + sweep,
                "{last:?} went {quiet} without a rewind at {now}"
            );
            if *last != sample {
                capped_waits += u32::from(quiet == rto_max);
                (*last, *since) = (sample, now);
            }
        }
        now += sweep;
    }
    assert!(
        capped_waits > 20,
        "the run must reach the capped regime it bounds: {capped_waits} waits of {rto_max}"
    );

    let world = sim.world();
    let produced = world.sources()[0].produced();
    assert!(produced > 2_000, "source ran: {produced}");
    assert_eq!(world.sinks()[0].accepted(), produced, "exactly once");
    for sj in 0..4 {
        assert_eq!(world.subjob(SubjobId(sj)).state, SjState::Normal);
    }
}

/// A partitioned destination is waited for, not backed off from: nothing
/// is re-sent into the cut, and the first sweep after the heal rewinds —
/// with the sources long stopped, that sweep is all that restarts the flow.
#[test]
fn the_first_sweep_after_a_partition_heals_rewinds_at_once() {
    // PE 3 (subjob 1, machine 1) feeds PE 4 (subjob 2, machine 2); neither
    // subjob's heartbeats cross that link.
    let (cut, heal) = (SimTime::from_secs(2), SimTime::from_millis(5_030));
    let plan = ChaosPlan::default().partition_window(cut, heal, MachineId(1), MachineId(2));
    let mut sim = HaSimulation::builder(chain_job())
        .mode(HaMode::Hybrid)
        .source_rate(500.0)
        .seed(20)
        .tune(|c| c.reliable_control = true)
        .chaos(plan)
        .lineage(true)
        .build();
    sim.stop_sources_at(SimTime::from_secs(3));

    // The newest element in flight on PE 3's one active connection, and
    // how often it has been rewound over.
    let newest_in_flight = |world: &sps_ha::HaWorld| {
        let q = world
            .instance(PeId(3), Replica::Primary)
            .expect("deployed")
            .output(0);
        let c = q.connections().iter().find(|c| c.active).expect("active");
        assert!(c.next_to_send > c.acked + 1, "elements in flight");
        let (stream, seq) = (q.stream().0, c.next_to_send - 1);
        (stream, seq, rewinds_over(world, stream, seq))
    };
    sim.run_until(SimTime::from_millis(2_250));
    let early = newest_in_flight(sim.world());
    sim.run_until(SimTime::from_secs(5));
    let late = newest_in_flight(sim.world());
    assert_eq!(early, late, "nothing sent or re-sent into the partition");
    // 30 sweeps have looked at the frozen pair; the next is at 5.1 s.
    sim.run_until(SimTime::from_millis(5_150));
    assert_eq!(
        rewinds_over(sim.world(), late.0, late.1),
        late.2 + 1,
        "the first sweep after the heal rewinds"
    );

    sim.run_until(SimTime::from_secs(9));
    let world = sim.world();
    let produced = world.sources()[0].produced();
    assert_eq!(world.sinks()[0].accepted(), produced, "the backlog flowed");
    for sj in 0..4 {
        assert_eq!(world.subjob(SubjobId(sj)).state, SjState::Normal);
    }
}

/// The message `f` panicked with, or `None` when it returned.
fn panic_message(f: impl FnOnce()) -> Option<String> {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).err()?;
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
}

/// A chaos plan naming a machine, rack or switch the cluster lacks is
/// refused when the simulation is built, before the first event, instead
/// of doing nothing, growing the network, or panicking mid-run.
#[test]
fn chaos_plans_outside_the_cluster_are_refused_at_build() {
    // The evaluation chain's default placement: 11 machines, flat.
    let t = SimTime::from_secs(1);
    let build = |plan: ChaosPlan| {
        panic_message(|| {
            HaSimulation::builder(chain_job()).chaos(plan).build();
        })
    };
    let cases = [
        (
            ChaosPlan::new()
                .correlated_fail_stop(t, &[MachineId(1)])
                .domain_fail_stop(t, DomainId(11)),
            "chaos step 1 names unknown rack r11",
        ),
        (
            ChaosPlan::new().switch_partition_window(t, t, SwitchId(11)),
            "chaos step 0 names unknown switch s11",
        ),
        (
            ChaosPlan::new().link_window(t, t, MachineId(0), MachineId(11), lossy_weather()),
            "chaos step 0 names unknown machine m11",
        ),
        (
            ChaosPlan::new().partition_window(t, t, MachineId(12), MachineId(0)),
            "chaos step 0 names unknown machine m12",
        ),
        (
            ChaosPlan::new().correlated_fail_stop(t, &[MachineId(40)]),
            "chaos step 0 names unknown machine m40",
        ),
    ];
    for (plan, want) in cases {
        assert_eq!(build(plan), Some(format!("invalid chaos plan: {want}")));
    }
    let edge = ChaosPlan::new()
        .domain_fail_stop(t, DomainId(10))
        .switch_partition_window(t, t, SwitchId(10));
    assert_eq!(build(edge), None, "the last rack and switch exist");
}

/// Each harness fault injection checks its machine at the call.
#[test]
fn harness_injections_outside_the_cluster_panic_at_the_call() {
    let sim = || HaSimulation::builder(chain_job()).build();
    let (m, t) = (MachineId(11), SimTime::from_secs(1));
    let window = sps_cluster::SpikeWindow {
        start: t,
        end: t + SimDuration::from_secs(1),
        share: 0.9,
    };
    let refused = |name: &str, call: &dyn Fn(&mut HaSimulation)| {
        let mut sim = sim();
        let got = panic_message(|| call(&mut sim));
        let want = format!("{name}: m11 is outside the cluster's 11 machines");
        assert_eq!(got, Some(want));
    };
    refused("fail_stop_at", &|s| s.fail_stop_at(m, t));
    refused("inject_spike_windows", &|s| {
        s.inject_spike_windows(m, &[window])
    });
    refused("inject_jitter", &|s| s.inject_jitter(m, t, 0.5));
    refused("add_benchmark_detector", &|s| {
        s.add_benchmark_detector(m);
    });
    let mut sim = sim();
    sim.fail_stop_at(MachineId(10), t);
    sim.run_for(SimDuration::from_secs(2));
}
