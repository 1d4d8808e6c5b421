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

/// The longest stretch the sink stays silent in the sink-silence hole
/// below is at least this long today. The constant is a canary, not a
/// bound: the data-plane sweep rewinds a connection only when its
/// `(acked, next_to_send)` pair repeats, and while the producer keeps
/// producing `next_to_send` always moves, so one element lost at 1.2 s is
/// resent only once the sources stop at 6 s.
const KNOWN_SINK_SILENCE: SimDuration = SimDuration::from_millis(4_500);

/// Pins the sink-silence hole: the evaluation chain under the reliable
/// layer at 500 el/s, with 5 % loss on every link from 1.0 s to 1.2 s.
/// Every element still reaches the sink exactly once, but on seeds 1–8
/// the sink accepts nothing for 4.7–5.1 s, from the end of the loss
/// window until the sources stop.
///
/// The fix for the hole (a receiver-side gap report) must flip this
/// assertion to a longest silence of at most `REL_RTO_MAX` plus two
/// `REL_SWEEP_INTERVAL`s (1.0 s) on every seed, and rename the test.
#[test]
fn known_sink_silence_after_a_short_loss_window() {
    for seed in 1..=8 {
        let plan = ChaosPlan::default().loss_window(
            SimTime::from_millis(1_000),
            SimTime::from_millis(1_200),
            FaultProfile::loss(0.05),
        );
        let mut sim =
            HaSimulation::builder(Job::chain("eval", &OperatorSpec::synthetic_default(), 8, 4))
                .mode(HaMode::Hybrid)
                .source_rate(500.0)
                .seed(seed)
                .tune(|c| c.reliable_control = true)
                .chaos(plan)
                .log_sink_accepts(true)
                .build();
        sim.stop_sources_at(SimTime::from_secs(6));
        sim.run_until(SimTime::from_secs(8));

        let world = sim.world();
        let produced = world.sources()[0].produced();
        let log = world.sinks()[0].accept_log().expect("logging on");
        let mut seqs: Vec<u64> = log.iter().map(|&(_, _, seq)| seq).collect();
        seqs.sort_unstable();
        assert!(
            seqs.iter().copied().eq(1..=produced),
            "seed {seed}: {} accepts for {produced} produced elements",
            seqs.len()
        );
        let mut last = SimTime::ZERO;
        let mut longest = SimDuration::ZERO;
        for &(at, _, _) in log {
            longest = longest.max(at.saturating_since(last));
            last = at;
        }
        assert!(
            longest >= KNOWN_SINK_SILENCE,
            "seed {seed}: the longest sink silence is {longest}; the hole closed, \
             so flip this test to its fixed bound"
        );
    }
}
