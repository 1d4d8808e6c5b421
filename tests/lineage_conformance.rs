//! Causal lineage under replication and rollback, in the tier-1 suite: the
//! evaluation chain with one Active and one Hybrid subjob rides out a CPU
//! spike with lineage on and off. Lineage must change nothing, and what it
//! recorded must account for every element produced and delivered.

use hybrid_ha::engine::FIRST_SEQ;
use hybrid_ha::prelude::*;
use hybrid_ha::trace::SOURCE_PE;

/// Subjob 1 (PEs 2–3, machine 1) is Active, subjob 2 (PEs 4–5, machine 2)
/// Hybrid; one 2 s spike hits both primaries, so the Active secondary
/// becomes the first writer of its streams and the Hybrid subjob switches
/// over and rolls back. Sources stop early enough for the run to drain.
fn spiked_run(lineage: bool) -> HaSimulation {
    let mut sim = HaSimulation::builder(eval_chain_job())
        .mode(HaMode::None)
        .subjob_mode(SubjobId(1), HaMode::Active)
        .subjob_mode(SubjobId(2), HaMode::Hybrid)
        .source_rate(800.0)
        .seed(2010)
        .log_sink_accepts(true)
        .lineage(lineage)
        .build();
    let spike = single_failure(SimTime::from_secs(2), SimDuration::from_secs(2));
    sim.inject_spike_windows(MachineId(1), &spike);
    sim.inject_spike_windows(MachineId(2), &spike);
    sim.stop_sources_at(SimTime::from_secs(7));
    sim.run_for(SimDuration::from_secs(10));
    sim
}

#[test]
fn lineage_perturbs_nothing_and_accounts_for_every_element() {
    let plain = spiked_run(false);
    let traced = spiked_run(true);
    assert!(plain.world().lineage().is_none());
    let lineage = traced.world().lineage().expect("lineage enabled");

    // No perturbation: same accepts at the same instants, same HA history.
    let accepts = traced.world().sinks()[0].accept_log().expect("logged");
    assert_eq!(
        accepts,
        plain.world().sinks()[0].accept_log().expect("logged")
    );
    assert_eq!(traced.world().ha_events(), plain.world().ha_events());
    let kinds: Vec<HaEventKind> = traced.world().ha_events().iter().map(|e| e.kind).collect();
    assert!(
        kinds.contains(&HaEventKind::SwitchoverComplete)
            && kinds.contains(&HaEventKind::RollbackComplete),
        "the spike must drive a switch-over and a rollback, got {kinds:?}"
    );
    let produced = traced.world().sources()[0].produced();
    assert!(produced > 5_000, "too short a run: {produced}");
    assert_eq!(accepts.len() as u64, produced, "drained and lossless");

    // The delivery log is the sink's accept sequence.
    let delivered = lineage.delivered();
    assert_eq!(delivered.len(), accepts.len());
    for (&((stream, seq), at), &(accepted_at, s, q)) in delivered.iter().zip(accepts) {
        assert_eq!((stream, seq, at), (s.0, q, accepted_at));
    }

    // Every delivered element decomposes through all eight PEs, and its hop
    // components telescope to the delay the sink saw.
    let mut secondary_hops = 0usize;
    for &(key, accepted_at) in delivered {
        let hops = lineage.decompose(key).expect("delivered keys are recorded");
        assert_eq!(hops.len(), 9, "source hop + 8 PEs for {key:?}");
        assert_eq!(hops[0].pe, SOURCE_PE);
        let total: f64 = hops.iter().map(|h| h.total_ms()).sum();
        let e2e = accepted_at
            .saturating_since(hops[0].emitted_at)
            .as_millis_f64();
        assert!(
            (total - e2e).abs() < 1e-6,
            "hops sum {total} ms, sink saw {e2e} ms for {key:?}"
        );
        secondary_hops += hops.iter().filter(|h| h.replica == 1).count();
    }
    assert!(
        secondary_hops > 0,
        "during the spike a secondary copy is some element's first writer"
    );

    // One record per logical element, however many replicas produced it.
    let world = traced.world();
    let mut elements = world.sources()[0].queue().produced_total();
    for pe in world.job().pe_ids() {
        for port in 0..world.job().out_ports(pe) {
            elements += [Replica::Primary, Replica::Secondary]
                .iter()
                .filter_map(|&r| world.instance(pe, r))
                .map(|inst| inst.output(port).next_seq() - FIRST_SEQ)
                .max()
                .expect("every PE has a live copy");
        }
    }
    assert_eq!(lineage.len() as u64, elements);
    assert_eq!(elements, produced * 9, "selectivity 1 over nine streams");
}
