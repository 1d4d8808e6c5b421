//! End-to-end gates for the protocol auditor (`sps-audit`).
//!
//! Three things are locked down here:
//!
//! 1. the fully instrumented hybrid scenario (spike switch-over + rollback,
//!    fail-stop promotion, chaos loss/duplication, reliable control) is
//!    **clean**: zero violations under the strictest expectations, with a
//!    seed-deterministic report;
//! 2. three mutations of that clean run's trace — a sink delivery recorded
//!    twice, a promotion's standby re-provisioning struck out, and a
//!    stream's final record claiming one element more than its consumers
//!    processed — each replay to a violation of the invariant they break:
//!    the auditor actually fires, it is not a rubber stamp;
//! 3. the **offline** frontend (`sps_audit::replay_dump`, what
//!    `sps-inspect audit` runs) reaches the same verdict as the online
//!    probe, byte for byte, from the flight-recorder dump alone.

use sps_audit::{replay_dump, Auditor, FirstViolation};
use sps_cluster::{ChaosPlan, FaultProfile, MachineId, SpikeWindow};
use sps_ha::{HaMode, HaSimulation};
use sps_sim::SimTime;
use sps_trace::{jsonl, EpochCause, SharedRecorder, TraceEvent, TraceRecord};
use sps_workloads::eval_chain_job;

/// The observed-run scenario with the online auditor AND a flight
/// recorder attached. Returns `(online_report, online_violations,
/// dump_jsonl)`.
///
/// The recorder is control-plane-only: every audited event kind is
/// control-plane, so the dump replays to the identical report while
/// staying far below the ring capacity (no preamble eviction).
fn audited_run(seed: u64) -> (String, u64, String) {
    let recorder = SharedRecorder::default().control_plane_only();
    let run = audited_run_into(&recorder, seed);
    let evicted = recorder.with(|r| r.evicted());
    assert_eq!(evicted, 0, "ring eviction would truncate the replay");
    run
}

/// [`audited_run`] traced into a recorder of the caller's choosing.
fn audited_run_into(recorder: &SharedRecorder, seed: u64) -> (String, u64, String) {
    let chaos = ChaosPlan::default()
        .loss_window(
            SimTime::from_millis(2_500),
            SimTime::from_millis(3_500),
            FaultProfile::loss(0.05).with_duplication(0.05),
        )
        .link_window(
            SimTime::from_millis(2_500),
            SimTime::from_millis(3_500),
            MachineId(1),
            MachineId(6),
            FaultProfile::loss(0.5),
        );
    let mut sim = HaSimulation::builder(eval_chain_job())
        .mode(HaMode::Hybrid)
        .source_rate(1_000.0)
        .seed(seed)
        .tune(|c| {
            c.failstop_miss_threshold = 15;
            c.reliable_control = true;
        })
        .chaos(chaos)
        .trace_sink(Box::new(recorder.clone()))
        .trace_probe(Box::new(Auditor::new()))
        .audit_expectations(true, true)
        .build();
    sim.inject_spike_windows(
        MachineId(1),
        &[SpikeWindow {
            start: SimTime::from_secs(1),
            end: SimTime::from_secs(2),
            share: 1.0,
        }],
    );
    sim.fail_stop_at(MachineId(1), SimTime::from_secs(4));
    sim.stop_sources_at(SimTime::from_secs(8));
    sim.run_until(SimTime::from_secs(12));
    sim.finish_probes();
    let report = sim.audit_report().expect("auditor installed");
    let violations = sim.audit_violations();
    let mut dump = Vec::new();
    recorder
        .export_jsonl(&mut dump)
        .expect("in-memory JSONL export cannot fail");
    (
        report,
        violations,
        String::from_utf8(dump).expect("JSONL is UTF-8"),
    )
}

#[test]
fn clean_run_passes_both_frontends_identically() {
    let (report, violations, dump) = audited_run(2010);
    assert_eq!(violations, 0, "{report}");
    assert!(report.contains("verdict: PASS"), "{report}");

    let outcome = replay_dump(&dump).expect("clean dump replays");
    assert_eq!(outcome.violations, 0);
    assert_eq!(outcome.recorded_violations, 0);
    assert!(outcome.first.is_none());
    assert_eq!(
        outcome.report, report,
        "offline replay must reproduce the online report byte for byte"
    );
}

/// A ring that wrapped has evicted the `audit_meta` preamble first. Its
/// dump used to replay with every expectation off and print `verdict:
/// PASS` over a trace that starts mid-epoch; it must be refused instead.
#[test]
fn a_wrapped_ring_is_refused_where_the_whole_trace_passes() {
    let small = SharedRecorder::with_capacity(4096);
    let (report, violations, headless) = audited_run_into(&small, 2010);
    assert_eq!(violations, 0, "{report}");
    assert!(
        small.with(|r| r.evicted()) > 0,
        "the ring must have wrapped"
    );
    assert_eq!(headless.lines().count(), 4096);
    let err = replay_dump(&headless).expect_err("a headless dump is not auditable");
    assert!(err.contains("audit_meta"), "{err}");

    let whole = SharedRecorder::default();
    let (same_report, _, dump) = audited_run_into(&whole, 2010);
    assert_eq!(whole.with(|r| r.evicted()), 0);
    assert_eq!(same_report, report, "the recorder's size moves nothing");
    assert_eq!(
        replay_dump(&dump).expect("whole dump replays").report,
        report
    );
    // Every line of a whole trace, data plane included, is a fix-point of
    // the schema's reader and writer.
    assert!(dump.lines().count() > 100_000);
    for line in dump.lines() {
        let read = jsonl::parse_flat_object(line).and_then(|obj| TraceRecord::from_json(&obj));
        assert_eq!(read.map(|r| r.to_json()).as_deref(), Ok(line));
    }
}

/// The clean run's dump, each line beside its typed record.
fn typed_lines(dump: &str) -> Vec<(&str, TraceRecord)> {
    dump.lines()
        .map(|line| {
            let record = jsonl::parse_flat_object(line)
                .and_then(|obj| TraceRecord::from_json(&obj))
                .expect("the clean dump reads back");
            (line, record)
        })
        .collect()
}

/// Replays a mutated dump and checks it fails on `invariant` alone, with
/// its first violation naming it.
fn assert_replay_flags(mutated: &str, invariant: &str) -> FirstViolation {
    let outcome = replay_dump(mutated).expect("the mutated dump replays");
    let report = &outcome.report;
    assert!(outcome.violations > 0, "canary did not fire:\n{report}");
    assert!(report.contains("verdict: FAIL"), "{report}");
    assert!(
        report.contains(&format!("{invariant}: {}", outcome.violations)),
        "another invariant flagged too:\n{report}"
    );
    assert_eq!(outcome.recorded_violations, 0, "the clean run had none");
    let first = outcome.first.expect("a first violation with context");
    assert!(first.rendered.contains(invariant), "{}", first.rendered);
    // The mutation is deterministic: replaying it again changes nothing.
    assert_eq!(replay_dump(mutated).expect("replays").report, *report);
    first
}

/// A sink delivery that accepted elements, recorded twice: the second copy
/// accepts without advancing the position, the signature of a duplicate
/// counted twice (receiver dedup bypassed).
#[test]
fn a_duplicated_sink_delivery_is_caught_on_replay() {
    let (_, violations, dump) = audited_run(2010);
    assert_eq!(violations, 0);
    let lines = typed_lines(&dump);
    let at = lines
        .iter()
        .position(|(_, r)| {
            matches!(r.event, TraceEvent::SinkDeliver { newly_accepted, .. } if newly_accepted >= 1)
        })
        .expect("the run delivers");
    let mut mutated = String::new();
    for (i, (line, _)) in lines.iter().enumerate() {
        let copies = if i == at { 2 } else { 1 };
        for _ in 0..copies {
            mutated.push_str(line);
            mutated.push('\n');
        }
    }
    let first = assert_replay_flags(&mutated, "sink_exactly_once");
    assert!(
        !first.backtrace.is_empty(),
        "first violation should come with a causal backtrace"
    );
}

/// The fail-stop promotes subjob 1's standby; with the re-provisioning
/// that follows struck from the trace, the subjob ends the run neither
/// covered by a standby nor declared a dead end.
#[test]
fn a_struck_standby_reprovision_is_caught_on_replay() {
    let (_, violations, dump) = audited_run(2010);
    assert_eq!(violations, 0);
    let lines = typed_lines(&dump);
    let (promote_at, promoted) = lines
        .iter()
        .enumerate()
        .find_map(|(i, (_, r))| match r.event {
            TraceEvent::EpochChange {
                subjob,
                cause: EpochCause::Promote,
                ..
            } => Some((i, subjob)),
            _ => None,
        })
        .expect("the fail-stop promotes");
    let struck = |i: usize, r: &TraceRecord| {
        i > promote_at
            && matches!(r.event, TraceEvent::StandbyProvision { subjob, .. } if subjob == promoted)
    };
    let mutated: String = lines
        .iter()
        .enumerate()
        .filter(|(i, (_, r))| !struck(*i, r))
        .map(|(_, (line, _))| format!("{line}\n"))
        .collect();
    assert!(mutated.len() < dump.len(), "a re-provisioning was struck");
    assert_replay_flags(&mutated, "standby_coverage");
}

/// The last `stream_final` record with its `last_seq` raised by one: the
/// stream's consumers now end short of what its producers made, the
/// signature of a wedged stream.
#[test]
fn a_stream_left_short_is_caught_on_replay() {
    let (_, violations, dump) = audited_run(2010);
    assert_eq!(violations, 0);
    let lines = typed_lines(&dump);
    let last = lines
        .iter()
        .rposition(|(_, r)| matches!(r.event, TraceEvent::StreamFinal { .. }))
        .expect("the run ends with one stream_final record per stream");
    let mutated: String = lines
        .iter()
        .enumerate()
        .map(|(i, (line, r))| match r.event {
            TraceEvent::StreamFinal {
                stream,
                last_seq,
                processed,
            } if i == last => {
                let raised = TraceEvent::StreamFinal {
                    stream,
                    last_seq: last_seq + 1,
                    processed,
                };
                format!(
                    "{}\n",
                    TraceRecord {
                        at: r.at,
                        event: raised
                    }
                    .to_json()
                )
            }
            _ => format!("{line}\n"),
        })
        .collect();
    let first = assert_replay_flags(&mutated, "stream_complete");
    assert!(
        !first.backtrace.is_empty(),
        "first violation should come with the stream's history"
    );
}
