//! The batched data plane in the tier-1 suite: the evaluation chain with
//! subjobs Hybrid / Active / Passive / Hybrid rides out one CPU spike on a
//! Hybrid primary and one fail-stop of the Passive primary, then drains —
//! once at `batch_size` 1 and once at 64, with the protocol auditor
//! attached. Each run must deliver exactly what its own sources produced,
//! in order and once, and end with every subjob back to `Normal`.
//!
//! Batch invariance holds the batch sizes to each other: the same cell
//! without failures, drained at `batch_size` 1, 16 and 64, accepts the same
//! sequence at the sink and leaves every serving operator in the same
//! state bit for bit.

use std::collections::BTreeMap;

use hybrid_ha::engine::{PeId, Replica, StreamId, FIRST_SEQ};
use hybrid_ha::ha::{HaSimulationBuilder, SjState};
use hybrid_ha::prelude::*;
use sps_audit::Auditor;

/// Under the default placement subjob `i`'s primary is machine `i`.
const HYBRID_PRIMARY: MachineId = MachineId(0);
const PASSIVE_PRIMARY: MachineId = MachineId(2);

fn cell(batch_size: u32) -> HaSimulationBuilder {
    HaSimulation::builder(eval_chain_job())
        .subjob_mode(SubjobId(0), HaMode::Hybrid)
        .subjob_mode(SubjobId(1), HaMode::Active)
        .subjob_mode(SubjobId(2), HaMode::Passive)
        .subjob_mode(SubjobId(3), HaMode::Hybrid)
        .source_rate(1_000.0)
        .seed(2010)
        .log_sink_accepts(true)
        .tune(|c| c.batch_size = batch_size)
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

/// What a failure-free, drained run of the cell leaves behind: the sink's
/// `(stream, seq)` accept order and, per serving PE copy, the bits of its
/// operator state. The Synthetic operator's `acc` folds every value the
/// copy consumed, in order, so equal states mean equal payload sequences
/// at every hop.
type Outcome = (Vec<(StreamId, u64)>, Vec<(PeId, Replica, Vec<u64>)>);

fn failure_free_outcome(batch_size: u32) -> Outcome {
    let mut sim = cell(batch_size).build();
    // The first tick fires one gap (1 ms) in and a tick of `b` elements is
    // followed by a gap of `b` ms, so at 1, 16 and 64 alike exactly 3,200
    // elements are out by 3,200 ms and the next tick is due at 3,201 ms.
    sim.stop_sources_at(SimTime::from_micros(3_200_500));
    sim.run_for(SimDuration::from_secs(8));
    let world = sim.world();
    assert_eq!(world.sources()[0].produced(), 3_200, "batch {batch_size}");

    let accepts: Vec<(StreamId, u64)> = world.sinks()[0]
        .accept_log()
        .expect("logged")
        .iter()
        .map(|&(_, stream, seq)| (stream, seq))
        .collect();
    let mut states = Vec::new();
    for pe in (0..world.job().pe_count() as u32).map(PeId) {
        let sj = world.subjob(world.job().subjob_of(pe));
        for replica in Replica::BOTH {
            // A Hybrid or Passive standby copy processes nothing.
            if sj.mode != HaMode::Active && replica != sj.primary_replica {
                continue;
            }
            let state = world
                .instance(pe, replica)
                .expect("deployed")
                .snapshot(SimTime::ZERO)
                .operator_state;
            states.push((pe, replica, state.0.iter().map(|w| w.to_bits()).collect()));
        }
    }
    (accepts, states)
}

#[test]
fn batch_sizes_agree_on_the_sink_sequence_and_every_operator_state() {
    let unbatched = failure_free_outcome(1);
    assert_eq!(unbatched.0.len(), 3_200, "drained, lossless");
    assert_eq!(
        unbatched.1.len(),
        8 + 2,
        "eight primaries, two Active standbys"
    );
    for batch_size in [16, 64] {
        let batched = failure_free_outcome(batch_size);
        assert_eq!(batched.0, unbatched.0, "batch {batch_size}: accept order");
        assert_eq!(batched.1, unbatched.1, "batch {batch_size}: operator state");
    }
}
