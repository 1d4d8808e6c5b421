//! Lineage and critical-path acceptance tests over the Fig 9–11 hybrid
//! recovery scenario: the per-cycle [`RecoveryCriticalPath`] must attribute
//! at least 95% of each recovery span to labelled edges, and the causal
//! hop decomposition must telescope — per-hop components summing exactly
//! to the end-to-end delay of the delivered element.

use sps_cluster::MachineId;
use sps_ha::{HaMode, HaSimulation};
use sps_sim::{SimDuration, SimTime};
use sps_trace::{recovery_critical_paths, SharedRecorder, TraceEvent};
use sps_workloads::{chain_job_with, single_failure};

/// The Fig 9/10 `run_cycle` scenario with lineage and a trace recorder
/// attached: every subjob hybrid, one 5 s transient failure on machine 1.
fn recovery_run(seed: u64) -> (HaSimulation, SharedRecorder) {
    let recorder = SharedRecorder::default();
    let job = chain_job_with(60e-6, 20, 8, 4);
    let mut sim = HaSimulation::builder(job)
        .mode(HaMode::Hybrid)
        .source_rate(1_000.0)
        .seed(seed)
        .tune(|c| c.failstop_miss_threshold = 200)
        .lineage(true)
        .trace_sink(Box::new(recorder.clone()))
        .build();
    let failure_at = SimTime::from_secs(3);
    let unavail = SimDuration::from_secs(5);
    sim.inject_spike_windows(MachineId(1), &single_failure(failure_at, unavail));
    sim.run_until(failure_at + unavail + SimDuration::from_secs(4));
    (sim, recorder)
}

/// The failure-injection times the trace records, in order.
fn inject_times(recorder: &SharedRecorder) -> Vec<SimTime> {
    recorder.with(|r| {
        r.records()
            .filter(|rec| matches!(rec.event, TraceEvent::FailureInject { .. }))
            .map(|rec| rec.at)
            .collect()
    })
}

#[test]
fn critical_path_decomposes_recovery_spans() {
    let (sim, recorder) = recovery_run(2010);
    let paths = recovery_critical_paths(sim.world().tracer().phases(), &inject_times(&recorder));
    assert!(
        !paths.is_empty(),
        "hybrid recovery produced no critical path"
    );
    let labels: Vec<&str> = paths
        .iter()
        .flat_map(|p| p.edges.iter().map(|e| e.label))
        .collect();
    assert!(labels.contains(&"detection"), "labels: {labels:?}");
    assert!(labels.contains(&"switch_over"), "labels: {labels:?}");
    assert!(labels.contains(&"state_read"), "labels: {labels:?}");
    for p in &paths {
        assert!(
            p.coverage() >= 0.95,
            "cycle {} of subjob {} attributes only {:.1}% of its {:.1} ms span",
            p.cycle,
            p.subjob,
            p.coverage() * 100.0,
            p.duration_ms()
        );
        // Edges are causal: each starts where its predecessor ended.
        for w in p.edges.windows(2) {
            assert!(w[1].from >= w[0].to, "out-of-order edges in {p:?}");
        }
    }
}

#[test]
fn hop_decomposition_telescopes_to_end_to_end_delay() {
    let (sim, _recorder) = recovery_run(2010);
    let lineage = sim.world().lineage().expect("lineage enabled");
    let delivered = lineage.delivered();
    assert!(
        delivered.len() > 1_000,
        "too few deliveries: {}",
        delivered.len()
    );

    let mut decomposed = 0usize;
    for &(key, delivered_at) in delivered {
        let (Some(hops), Some(rec)) = (lineage.decompose(key), lineage.record(key)) else {
            continue;
        };
        let Some(recv) = rec.recv_at else {
            continue;
        };
        decomposed += 1;
        // Acyclic chain rooted at a source emit.
        assert!(!hops.is_empty());
        // Per-hop components telescope exactly: their sum is the element's
        // journey from origin emission to sink arrival (acceptance can be
        // later when an out-of-order arrival waited for a gap fill).
        let total: f64 = hops.iter().map(|h| h.total_ms()).sum();
        let e2e = recv.saturating_since(hops[0].emitted_at).as_millis_f64();
        assert!(
            (total - e2e).abs() < 1e-6,
            "hops sum {total} ms but emit-to-arrival is {e2e} ms for {key:?}"
        );
        assert!(delivered_at >= recv, "accepted before arrival for {key:?}");
        // Emission times are monotone along the chain.
        for w in hops.windows(2) {
            assert!(w[1].emitted_at >= w[0].emitted_at, "non-monotone {key:?}");
        }
    }
    // At least 95% of delivered elements decompose with a full stamp set
    // (the rest lack one, e.g. elements re-created from a restored
    // checkpoint).
    assert!(
        decomposed as f64 >= delivered.len() as f64 * 0.95,
        "{decomposed} of {} delivered elements decomposed",
        delivered.len()
    );
}
