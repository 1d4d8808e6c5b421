//! Health-engine acceptance tests over the Fig 9–11 hybrid recovery
//! scenario: the built-in recovery SLO monitor must record at least one
//! deterministic breach span whose duration telescopes to the phase log's
//! recovery decomposition, the exported report must be byte-stable across
//! runs, and enabling the engine must not perturb the simulation at all.
//! A second scenario — `domain_campaign`'s layout losing its whole standby
//! rack — pins the `redundancy_loss` anomaly span.

use sps_cluster::{ChaosPlan, DomainId, FaultTopology, MachineId};
use sps_ha::{HaMode, HaSimulation, Placement};
use sps_observe::{HealthConfig, RECOVERY_MONITOR};
use sps_sim::{SimDuration, SimTime};
use sps_trace::{recovery_critical_paths, recovery_spans, AnomalyKind, SharedRecorder, TraceEvent};
use sps_workloads::{chain_job_with, eval_chain_job, single_failure};

/// The Fig 9/10 `run_cycle` scenario (every subjob hybrid, one 5 s
/// transient failure on machine 1) with the health engine attached.
fn recovery_run(seed: u64, health: bool) -> (HaSimulation, SharedRecorder) {
    let recorder = SharedRecorder::default();
    let job = chain_job_with(60e-6, 20, 8, 4);
    let mut builder = HaSimulation::builder(job)
        .mode(HaMode::Hybrid)
        .source_rate(1_000.0)
        .seed(seed)
        .tune(|c| c.failstop_miss_threshold = 200)
        .trace_sink(Box::new(recorder.clone()));
    if health {
        builder = builder.health(HealthConfig);
    }
    let mut sim = builder.build();
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
fn recovery_breach_span_telescopes_to_phase_log() {
    let (sim, recorder) = recovery_run(2010, true);
    let engine = sim.world().health().expect("health engine enabled");
    let recovery = engine
        .monitors()
        .iter()
        .find(|m| m.spec.name == RECOVERY_MONITOR)
        .expect("built-in recovery monitor present");
    let spans = recovery.spans();
    assert!(
        !spans.is_empty(),
        "a multi-second recovery cycle must breach the 200 ms budget"
    );
    for s in spans {
        assert!(s.end_ns.is_some(), "cycle ended inside the run: {s:?}");
    }

    // The breach spans' total duration telescopes to the phase log's
    // per-cycle recovery decomposition: both anchor each cycle at the
    // failure injection that triggered it and close at the terminal
    // recovery phase, so the totals agree exactly.
    let phases = sim.world().tracer().phases();
    let injects = inject_times(&recorder);
    let paths = recovery_critical_paths(phases, &injects);
    assert_eq!(
        spans.len(),
        paths.len(),
        "one breach span per recovery cycle"
    );
    let breach_total_ms: f64 = spans
        .iter()
        .map(|s| (s.end_ns.unwrap() - s.start_ns) as f64 / 1e6)
        .sum();
    let path_total_ms: f64 = paths.iter().map(|p| p.duration_ms()).sum();
    assert!(
        (breach_total_ms - path_total_ms).abs() < 1e-6,
        "breach spans total {breach_total_ms} ms but critical paths total {path_total_ms} ms"
    );

    // The per-cycle recovery spans from the phase log telescope to the
    // same total: their per-phase segments partition each cycle.
    let span_total_ms: f64 = recovery_spans(phases, injects[0])
        .iter()
        .map(|s| s.end.saturating_since(s.start).as_millis_f64())
        .sum();
    assert!(
        (breach_total_ms - span_total_ms).abs() < 1e-6,
        "breach spans total {breach_total_ms} ms but recovery spans total {span_total_ms} ms"
    );
}

#[test]
fn health_report_is_byte_stable_across_runs() {
    let (a, _ra) = recovery_run(2010, true);
    let (b, _rb) = recovery_run(2010, true);
    let ja = a.world().health().unwrap().report().to_jsonl_string();
    let jb = b.world().health().unwrap().report().to_jsonl_string();
    assert_eq!(ja, jb, "same seed must reproduce the report byte for byte");
    assert!(ja.contains(RECOVERY_MONITOR));

    let (c, _rc) = recovery_run(7, true);
    let jc = c.world().health().unwrap().report().to_jsonl_string();
    assert_ne!(ja, jc, "a different seed produces a different report");
}

#[test]
fn health_engine_perturbs_nothing() {
    let (mut with, _rw) = recovery_run(2010, true);
    let (mut without, _ro) = recovery_run(2010, false);

    assert!(with.world().health().is_some());
    assert!(without.world().health().is_none());

    // Figure-facing outputs are identical with and without the engine:
    // it only reads the registry and phase log at scrape time.
    assert_eq!(
        with.world().sources()[0].produced(),
        without.world().sources()[0].produced()
    );
    assert_eq!(
        with.world().sinks()[0].accepted(),
        without.world().sinks()[0].accepted()
    );
    assert_eq!(
        with.world().sinks()[0].duplicates_dropped(),
        without.world().sinks()[0].duplicates_dropped()
    );
    assert_eq!(with.world().ha_events(), without.world().ha_events());
    let p99_with = with.world_mut().sinks_mut()[0]
        .latency_mut()
        .quantile_ms(0.99);
    let p99_without = without.world_mut().sinks_mut()[0]
        .latency_mut()
        .quantile_ms(0.99);
    assert_eq!(p99_with, p99_without);
}

#[test]
fn standby_rack_failure_opens_and_closes_a_redundancy_loss_span() {
    // `domain_campaign`'s domain-aware layout: six racks of four (one
    // switch each), primaries fill r0, standbys fill r1, r2–r4 are spares.
    let placement = Placement {
        primaries: (0..4).map(MachineId).collect(),
        secondaries: (4..8).map(|m| Some(MachineId(m))).collect(),
        sources: vec![MachineId(20)],
        sinks: vec![MachineId(21)],
        spares: (8..20).map(MachineId).collect(),
    };
    let rack_dies_at = SimTime::from_secs(2);
    let mut sim = HaSimulation::builder(eval_chain_job())
        .mode(HaMode::Hybrid)
        .source_rate(1_000.0)
        .seed(2010)
        .tune(|c| c.reliable_control = true)
        .placement(placement)
        .topology(FaultTopology::grid(22, 4, 1))
        .chaos(ChaosPlan::default().domain_fail_stop(rack_dies_at, DomainId(1)))
        .health(HealthConfig)
        .build();
    sim.stop_sources_at(SimTime::from_secs(4));
    sim.run_until(SimTime::from_secs(6));

    // The four subjobs run unprotected from the rack failure until
    // re-provisioning lands the replacement standbys.
    let report = sim.world().health().expect("health enabled").report();
    let spans: Vec<_> = report
        .anomalies
        .iter()
        .filter(|a| a.detector == AnomalyKind::RedundancyLoss)
        .collect();
    assert!(!spans.is_empty(), "no redundancy_loss span: {report:?}");
    for s in spans {
        assert!(s.start_ns >= rack_dies_at.as_nanos(), "{s:?}");
        assert!(s.end_ns.is_some(), "still open at end of run: {s:?}");
    }
}
