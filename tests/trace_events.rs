//! The tracing layer's end-to-end contracts: deterministic dumps, faithful
//! recovery-span decomposition, and read-only (non-perturbing) sampling.

use hybrid_ha::prelude::*;
use hybrid_ha::trace::recovery_spans;

/// The eval chain with subjob 1 Hybrid and a one-second spike on its
/// primary's machine, traced into `sinks`; not yet run.
fn spiked_sim(seed: u64, sinks: Vec<Box<dyn TraceSink>>) -> HaSimulation {
    let mut builder = HaSimulation::builder(eval_chain_job())
        .mode(HaMode::None)
        .subjob_mode(SubjobId(1), HaMode::Hybrid)
        .source_rate(1_000.0)
        .seed(seed);
    for sink in sinks {
        builder = builder.trace_sink(sink);
    }
    let mut sim = builder.build();
    sim.inject_spike_windows(
        MachineId(1),
        &[SpikeWindow {
            start: SimTime::from_secs(1),
            end: SimTime::from_secs(2),
            share: 1.0,
        }],
    );
    sim
}

/// An instrumented hybrid run with one transient failure, returning the
/// recorder's JSONL dump.
fn traced_run(seed: u64) -> String {
    let recorder = SharedRecorder::default();
    let mut sim = spiked_sim(seed, vec![Box::new(recorder.clone())]);
    sim.stop_sources_at(SimTime::from_secs(4));
    sim.run_until(SimTime::from_secs(5));
    recorder.to_jsonl_string()
}

#[test]
fn same_seed_gives_byte_identical_trace_dumps() {
    let a = traced_run(99);
    let b = traced_run(99);
    assert!(!a.is_empty());
    assert_eq!(a, b, "traced simulation must be deterministic");
}

#[test]
fn different_seeds_give_different_dumps() {
    // Sanity check on the determinism test itself: the dump actually
    // depends on the randomness, so byte-equality above is meaningful.
    assert_ne!(traced_run(99), traced_run(100));
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    // Identical scenario with and without a sink: the trace layer must be
    // purely observational, so the headline numbers agree exactly.
    let run = |traced: bool| {
        let mut builder = HaSimulation::builder(eval_chain_job())
            .mode(HaMode::Hybrid)
            .source_rate(1_000.0)
            .seed(7);
        if traced {
            builder = builder.trace_sink(Box::new(SharedRecorder::default()));
        }
        let mut sim = builder.build();
        sim.inject_spike_windows(
            MachineId(1),
            &[SpikeWindow {
                start: SimTime::from_secs(1),
                end: SimTime::from_secs(3),
                share: 1.0,
            }],
        );
        sim.stop_sources_at(SimTime::from_secs(5));
        sim.run_until(SimTime::from_secs(7));
        // Not `events_processed`: the sampler adds its own timer events.
        // Everything physical must be bit-identical.
        let r = sim.report();
        (
            r.sink_accepted,
            r.sink_duplicates,
            r.sink_mean_delay_ms.to_bits(),
            r.sink_p99_delay_ms.to_bits(),
        )
    };
    assert_eq!(run(false), run(true));
}

/// One fail-stop under the given mode; returns the recovery spans of the
/// phase log, anchored at the fail-stop the trace records.
fn failstop_spans(mode: HaMode) -> Vec<RecoverySpan> {
    let recorder = SharedRecorder::default();
    let job = eval_chain_job();
    let mut sim = HaSimulation::builder(job)
        .mode(HaMode::None)
        .subjob_mode(SubjobId(1), mode)
        .source_rate(1_000.0)
        .seed(42)
        .tune(|c| c.failstop_miss_threshold = 10)
        .trace_sink(Box::new(recorder.clone()))
        .build();
    sim.fail_stop_at(MachineId(1), SimTime::from_secs(2));
    sim.stop_sources_at(SimTime::from_secs(6));
    sim.run_until(SimTime::from_secs(8));
    let injects: Vec<(SimTime, u32, bool)> = recorder.with(|r| {
        r.records()
            .filter_map(|rec| match rec.event {
                TraceEvent::FailureInject { machine, fail_stop } => {
                    Some((rec.at, machine, fail_stop))
                }
                _ => None,
            })
            .collect()
    });
    assert_eq!(
        injects,
        [(SimTime::from_secs(2), 1, true)],
        "exactly the injected fail-stop is recorded as ground truth"
    );
    recovery_spans(sim.world().tracer().phases(), injects[0].0)
}

fn assert_chained_and_monotone(spans: &[RecoverySpan]) {
    for w in spans.windows(2) {
        assert_eq!(w[0].end, w[1].start, "spans chain without gaps/overlap");
    }
    for s in spans {
        assert!(s.start <= s.end, "span bounds are ordered: {s:?}");
    }
}

#[test]
fn active_standby_has_no_detection_spans() {
    // AS runs both replicas and never monitors, so a fail-stop produces no
    // recovery phases at all — downstream dedup just keeps consuming the
    // surviving replica.
    let spans = failstop_spans(HaMode::Active);
    assert!(spans.is_empty(), "AS must not emit phases: {spans:?}");
}

#[test]
fn passive_standby_decomposes_into_detect_deploy_connect() {
    let spans = failstop_spans(HaMode::Passive);
    let phases: Vec<RecoveryPhase> = spans.iter().map(|s| s.phase).collect();
    assert_eq!(
        phases,
        vec![
            RecoveryPhase::Detected,
            RecoveryPhase::PsDeployed,
            RecoveryPhase::PsConnected,
        ],
        "PS recovery is detect → deploy → connect"
    );
    let detections = spans
        .iter()
        .filter(|s| s.phase == RecoveryPhase::Detected)
        .count();
    assert_eq!(detections, 1, "exactly one detection span");
    assert_chained_and_monotone(&spans);
    // The detection span starts at the failure and covers 3 heartbeat
    // intervals (PS declares on the third consecutive miss).
    assert_eq!(spans[0].start, SimTime::from_secs(2));
    assert!(
        (spans[0].millis() - 300.0).abs() < 50.0,
        "PS detection ≈ 3 × 100 ms heartbeats, got {:.1} ms",
        spans[0].millis()
    );
}

#[test]
fn hybrid_decomposes_into_detect_switchover_then_promotion() {
    let spans = failstop_spans(HaMode::Hybrid);
    let phases: Vec<RecoveryPhase> = spans.iter().map(|s| s.phase).collect();
    assert_eq!(
        phases,
        vec![
            RecoveryPhase::Detected,
            RecoveryPhase::SwitchoverComplete,
            RecoveryPhase::Promoted,
            RecoveryPhase::SecondaryReady,
        ],
        "hybrid fail-stop is detect → switch-over → promote → new secondary"
    );
    let detections = spans
        .iter()
        .filter(|s| s.phase == RecoveryPhase::Detected)
        .count();
    assert_eq!(detections, 1, "exactly one detection span");
    assert_chained_and_monotone(&spans);
    // Hybrid declares on the first miss: detection ≈ 1 heartbeat interval.
    assert_eq!(spans[0].start, SimTime::from_secs(2));
    assert!(
        (spans[0].millis() - 100.0).abs() < 50.0,
        "hybrid detection ≈ 1 × 100 ms heartbeat, got {:.1} ms",
        spans[0].millis()
    );
    // Switch-over (resume of the pre-deployed secondary) ≈ the 50 ms resume delay.
    assert!(
        (spans[1].millis() - 50.0).abs() < 25.0,
        "switch-over ≈ 50 ms resume, got {:.1} ms",
        spans[1].millis()
    );
}

#[test]
fn queue_snapshots_cover_every_deployed_instance() {
    let recorder = SharedRecorder::default();
    let job = eval_chain_job();
    let mut sim = HaSimulation::builder(job)
        .mode(HaMode::Hybrid)
        .source_rate(500.0)
        .seed(5)
        .trace_sink(Box::new(recorder.clone()))
        .build();
    sim.stop_sources_at(SimTime::from_secs(2));
    sim.run_until(SimTime::from_secs(3));
    let mut instances = std::collections::BTreeSet::new();
    let mut loads = Vec::new();
    recorder.with(|r| {
        for rec in r.records() {
            match rec.event {
                TraceEvent::PeSnapshot { pe, replica, .. } => {
                    instances.insert((pe, replica));
                }
                TraceEvent::MachineSnapshot { cpu_load, .. } => loads.push(cpu_load),
                _ => {}
            }
        }
    });
    // All 8 chain PEs are hybrid-protected: primary (0) and secondary (1)
    // instances must both appear in the periodic PE snapshots.
    for pe in 0..8u32 {
        for replica in [0u8, 1] {
            assert!(
                instances.contains(&(pe, replica)),
                "no snapshots for pe {pe} replica {replica}"
            );
        }
    }
    // Machine load samples exist and stay in [0, 1].
    assert!(!loads.is_empty());
    for load in loads {
        assert!(
            (0.0..=1.0 + 1e-9).contains(&load),
            "load {load} out of range"
        );
    }
}

/// A sink that keeps every record as the struct it was handed.
struct Keep(std::rc::Rc<std::cell::RefCell<Vec<TraceRecord>>>);

impl TraceSink for Keep {
    fn record(&mut self, record: &TraceRecord) {
        self.0.borrow_mut().push(*record);
    }
}

#[test]
fn a_wrapped_ring_holds_exactly_the_tail_of_what_was_emitted() {
    // The recorder stores records packed and decodes them on the way out;
    // the goldens and dumps above never wrap it. Here one run with a
    // spike (so recovery, checkpoint and snapshot kinds flow beside the
    // data plane) feeds a small ring and a plain `Vec` side by side.
    let ring = SharedRecorder::with_capacity(4096);
    let kept = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let mut sim = spiked_sim(
        99,
        vec![Box::new(ring.clone()), Box::new(Keep(kept.clone()))],
    );
    sim.stop_sources_at(SimTime::from_secs(3));
    // Checked mid-flow and drained: two windows with different contents.
    for until in [SimTime::from_millis(2_200), SimTime::from_secs(4)] {
        sim.run_until(until);
        let all = kept.borrow();
        let tail = &all[all.len() - 4096..];
        ring.with(|r| {
            assert_eq!(r.len(), 4096);
            assert_eq!(r.evicted(), (all.len() - 4096) as u64);
            assert!(r.records().eq(tail.iter().copied()));
        });
        let rendered: String = tail.iter().map(|rec| rec.to_json() + "\n").collect();
        assert_eq!(ring.to_jsonl_string(), rendered);
        let kinds: std::collections::BTreeSet<_> = tail.iter().map(|r| r.event.kind()).collect();
        assert!(kinds.len() >= 8, "a window of few kinds: {kinds:?}");
    }
}
