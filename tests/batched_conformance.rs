//! The batched data plane in the tier-1 suite: the evaluation chain with
//! subjobs Hybrid / Active / Passive / Hybrid rides out one CPU spike on a
//! Hybrid primary and one fail-stop of the Passive primary, then drains —
//! once at `batch_size` 1 and once at 64, with the protocol auditor
//! attached. Each run must deliver exactly what its own sources produced,
//! in order and once, and end with every subjob back to `Normal`.
//!
//! Three metamorphic relations hold runs to each other, each on the same
//! cell drained after 3,200 elements, each on what the sink accepted in
//! which order and on the bits of every serving operator's state: batch
//! invariance (`batch_size` 1, 16 and 64), mode invariance (every subjob
//! under None, Active, Passive or Hybrid) and failure-free equivalence (the
//! mixed-mode cell against itself without failures, once through a spike
//! and a Passive fail-stop, once through a Hybrid promotion and a lost
//! standby).

use std::collections::BTreeMap;

use hybrid_ha::engine::{PeId, Replica, StreamId, FIRST_SEQ};
use hybrid_ha::ha::{HaSimulationBuilder, SjState};
use hybrid_ha::prelude::*;
use sps_audit::Auditor;

/// Under the default placement subjob `i`'s primary is machine `i`.
const HYBRID_PRIMARY: MachineId = MachineId(0);
const PASSIVE_PRIMARY: MachineId = MachineId(2);

/// The cell before its subjobs are given their modes.
fn bare_cell(batch_size: u32) -> HaSimulationBuilder {
    HaSimulation::builder(eval_chain_job())
        .source_rate(1_000.0)
        .seed(2010)
        .log_sink_accepts(true)
        .tune(|c| c.batch_size = batch_size)
}

fn cell(batch_size: u32) -> HaSimulationBuilder {
    bare_cell(batch_size)
        .subjob_mode(SubjobId(0), HaMode::Hybrid)
        .subjob_mode(SubjobId(1), HaMode::Active)
        .subjob_mode(SubjobId(2), HaMode::Passive)
        .subjob_mode(SubjobId(3), HaMode::Hybrid)
}

fn conformance_run(batch_size: u32) -> HaSimulation {
    let mut sim = cell(batch_size)
        .trace_probe(Box::new(Auditor::new()))
        .audit_expectations(true, true)
        .build();
    sim.inject_spike_windows(
        HYBRID_PRIMARY,
        &single_failure(SimTime::from_secs(1), SimDuration::from_secs(2)),
    );
    sim.fail_stop_at(PASSIVE_PRIMARY, SimTime::from_secs(4));
    sim.stop_sources_at(SimTime::from_secs(7));
    sim.run_for(SimDuration::from_secs(12));
    sim.finish_probes();
    sim
}

fn assert_conformant(batch_size: u32) {
    let sim = conformance_run(batch_size);
    let world = sim.world();
    assert_eq!(world.config().batch_size, batch_size);

    let produced = world.sources()[0].produced();
    assert!(produced > 6_000, "too short a run: {produced}");
    assert_eq!(world.sinks()[0].accepted(), produced, "drained, lossless");

    // Per stream, the accept log is FIRST_SEQ.. with no gap and no repeat.
    let mut next: BTreeMap<StreamId, u64> = BTreeMap::new();
    for &(_, stream, seq) in world.sinks()[0].accept_log().expect("logged") {
        let expect = next.entry(stream).or_insert(FIRST_SEQ);
        assert_eq!(seq, *expect, "batch {batch_size}: {stream} out of sequence");
        *expect += 1;
    }
    let accepted: u64 = next.values().map(|n| n - FIRST_SEQ).sum();
    assert_eq!(accepted, produced, "batch {batch_size}");

    for sj in 0..world.job().subjob_count() as u32 {
        assert_eq!(
            world.subjob(SubjobId(sj)).state,
            SjState::Normal,
            "batch {batch_size}: subjob {sj} did not settle"
        );
    }
    // The spike drives the Hybrid switch-over and rollback; the fail-stop
    // promotes the Passive subjob's standby copy (for a Passive subjob that
    // is the committed migration: deployed, connected, roles swapped).
    assert_ne!(world.subjob(SubjobId(2)).primary_machine, PASSIVE_PRIMARY);
    let kinds: Vec<HaEventKind> = world.ha_events().iter().map(|e| e.kind).collect();
    for kind in [
        HaEventKind::SwitchoverComplete,
        HaEventKind::RollbackComplete,
        HaEventKind::PsDeployed,
        HaEventKind::PsConnected,
    ] {
        assert!(
            kinds.contains(&kind),
            "batch {batch_size}: no {kind:?} in {kinds:?}"
        );
    }
    assert_eq!(
        sim.audit_violations(),
        0,
        "batch {batch_size}: {}",
        sim.audit_report().unwrap_or_default()
    );
}

#[test]
fn unbatched_run_is_exactly_once_and_settles() {
    assert_conformant(1);
}

#[test]
fn batch_64_run_is_exactly_once_and_settles() {
    assert_conformant(64);
}

/// What a drained run of the cell leaves behind: the sink's `(stream,
/// seq)` accept order and, per serving PE copy, whether it is the primary
/// and the bits of its operator state. The Synthetic operator's `acc` folds
/// every value the copy consumed, in order, so equal states mean equal
/// payload sequences at every hop.
type Outcome = (Vec<(StreamId, u64)>, Vec<(PeId, Replica, bool, Vec<u64>)>);

/// The serving primaries' states by PE, whichever replica slot serves.
fn primaries(outcome: &Outcome) -> Vec<(PeId, &[u64])> {
    let serving = outcome.1.iter().filter(|&&(_, _, primary, _)| primary);
    serving.map(|(pe, _, _, state)| (*pe, &state[..])).collect()
}

/// Drains `cell` after 3,200 elements; with `faults`, through a 1 s CPU
/// spike on the Hybrid primary at 0.5 s and a fail-stop of the Passive
/// primary at 2 s.
fn drained_outcome(cell: HaSimulationBuilder, faults: bool) -> Outcome {
    let sim = drained(cell, |sim| {
        if faults {
            sim.inject_spike_windows(
                HYBRID_PRIMARY,
                &single_failure(SimTime::from_millis(500), SimDuration::from_secs(1)),
            );
            sim.fail_stop_at(PASSIVE_PRIMARY, SimTime::from_secs(2));
        }
    });
    outcome(&sim)
}

/// Builds `cell`, lets `faults` schedule its failures, and drains it
/// after 3,200 elements.
fn drained(cell: HaSimulationBuilder, faults: impl FnOnce(&mut HaSimulation)) -> HaSimulation {
    let mut sim = cell.build();
    faults(&mut sim);
    // The first tick fires one gap (1 ms) in and a tick of `b` elements is
    // followed by a gap of `b` ms, so at 1, 16 and 64 alike exactly 3,200
    // elements are out by 3,200 ms and the next tick is due at 3,201 ms.
    sim.stop_sources_at(SimTime::from_micros(3_200_500));
    sim.run_for(SimDuration::from_secs(8));
    sim
}

fn outcome(sim: &HaSimulation) -> Outcome {
    let world = sim.world();
    assert_eq!(world.sources()[0].produced(), 3_200);

    let accepts: Vec<(StreamId, u64)> = world.sinks()[0]
        .accept_log()
        .expect("logged")
        .iter()
        .map(|&(_, stream, seq)| (stream, seq))
        .collect();
    assert_eq!(accepts.len(), 3_200, "drained, lossless");
    let mut states = Vec::new();
    for pe in (0..world.job().pe_count() as u32).map(PeId) {
        let sj = world.subjob(world.job().subjob_of(pe));
        for replica in Replica::BOTH {
            let primary = replica == sj.primary_replica;
            // Only an Active standby copy processes anything.
            if sj.mode != HaMode::Active && !primary {
                continue;
            }
            let state = world
                .instance(pe, replica)
                .expect("deployed")
                .snapshot(SimTime::ZERO)
                .operator_state;
            let bits = state.0.iter().map(|w| w.to_bits()).collect();
            states.push((pe, replica, primary, bits));
        }
    }
    (accepts, states)
}

#[test]
fn batch_sizes_agree_on_the_sink_sequence_and_every_operator_state() {
    let unbatched = drained_outcome(cell(1), false);
    assert_eq!(
        unbatched.1.len(),
        8 + 2,
        "eight primaries, two Active standbys"
    );
    for batch_size in [16, 64] {
        let batched = drained_outcome(cell(batch_size), false);
        assert_eq!(batched.0, unbatched.0, "batch {batch_size}: accept order");
        assert_eq!(batched.1, unbatched.1, "batch {batch_size}: operator state");
    }
}

#[test]
fn ha_modes_agree_on_the_sink_sequence_and_every_primary_state() {
    let unprotected = drained_outcome(bare_cell(1).mode(HaMode::None), false);
    assert_eq!(unprotected.1.len(), 8, "eight lone copies");
    for mode in [HaMode::Active, HaMode::Passive, HaMode::Hybrid] {
        let protected = drained_outcome(bare_cell(1).mode(mode), false);
        let serving = if mode == HaMode::Active { 16 } else { 8 };
        assert_eq!(protected.1.len(), serving, "{mode:?} on every subjob");
        assert_eq!(protected.0, unprotected.0, "{mode:?}: accept order");
        assert_eq!(
            primaries(&protected),
            primaries(&unprotected),
            "{mode:?}: operator state"
        );
    }
}

#[test]
fn a_recovered_run_agrees_with_its_failure_free_run() {
    let clean = drained_outcome(cell(1), false);
    let recovered = drained_outcome(cell(1), true);
    assert_eq!(recovered.0, clean.0, "accept order");
    // Subjob 2's serving copy is the promoted one: same state, other slot.
    assert_eq!(primaries(&recovered), primaries(&clean), "operator state");
    assert_ne!(recovered.1, clean.1, "the fail-stop moved a primary");
}

/// Relation (i) over the fail-stop paths: the Hybrid primary dies at 0.5 s
/// (switch-over, promotion, a fresh standby from the spare pool), then
/// subjob 3's standby machine at 1.5 s (its standby is re-provisioned onto
/// the last spare). Every epoch bump along the way is traced.
#[test]
fn a_promoted_and_reprovisioned_run_agrees_with_its_failure_free_run() {
    let failstop_cell = || cell(1).tune(|c| c.failstop_miss_threshold = 10);
    let clean = outcome(&drained(failstop_cell(), |_| {}));
    let recorder = SharedRecorder::default();
    let sim = drained(
        failstop_cell().trace_sink(Box::new(recorder.clone())),
        |sim| {
            sim.fail_stop_at(HYBRID_PRIMARY, SimTime::from_millis(500));
            sim.fail_stop_at(MachineId(8), SimTime::from_millis(1_500));
        },
    );
    let kinds: Vec<HaEventKind> = sim.world().ha_events().iter().map(|e| e.kind).collect();
    let count = |kind| kinds.iter().filter(|&&k| k == kind).count();
    assert_eq!(count(HaEventKind::Promoted), 1, "{kinds:?}");
    assert_eq!(count(HaEventKind::SecondaryReady), 2, "{kinds:?}");

    let recovered = outcome(&sim);
    assert_eq!(recovered.0, clean.0, "accept order");
    assert_eq!(primaries(&recovered), primaries(&clean), "operator state");

    // Each subjob's epoch_change records count 0, 1, …, its final epoch.
    let mut epochs: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    recorder.with(|r| {
        for record in r.records() {
            if let TraceEvent::EpochChange { subjob, epoch, .. } = record.event {
                epochs.entry(subjob).or_default().push(epoch);
            }
        }
    });
    assert_eq!(epochs.len(), 4, "every subjob opens at epoch 0");
    for (subjob, seen) in epochs {
        let last = sim.world().subjob(SubjobId(subjob)).epoch;
        assert_eq!(seen, (0..=last).collect::<Vec<_>>(), "subjob {subjob}");
    }
}
