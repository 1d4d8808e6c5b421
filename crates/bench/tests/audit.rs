//! End-to-end gates for the protocol auditor (`sps-audit`).
//!
//! Three things are locked down here:
//!
//! 1. the fully instrumented hybrid scenario (spike switch-over + rollback,
//!    fail-stop promotion, chaos loss/duplication, reliable control) is
//!    **clean**: zero violations under the strictest expectations, with a
//!    seed-deterministic report;
//! 2. the two test-only protocol mutations (`test_break_sink_dedup`,
//!    `test_skip_standby_reprovision`) each produce a deterministic
//!    violation — the auditor actually fires, it is not a rubber stamp;
//! 3. the **offline** frontend (`sps_audit::replay_dump`, what
//!    `sps-inspect audit` runs) reaches the same verdict as the online
//!    probe, byte for byte, from the flight-recorder dump alone.

use sps_audit::{replay_dump, Auditor};
use sps_cluster::{ChaosPlan, FaultProfile, MachineId, SpikeWindow};
use sps_ha::{HaConfig, HaMode, HaSimulation};
use sps_sim::SimTime;
use sps_trace::{jsonl, SharedRecorder, TraceRecord};
use sps_workloads::eval_chain_job;

/// The observed-run scenario with the online auditor AND a flight
/// recorder attached, plus a config mutation hook for the canaries.
/// Returns `(online_report, online_violations, dump_jsonl)`.
///
/// The recorder is control-plane-only: every audited event kind is
/// control-plane, so the dump replays to the identical report while
/// staying far below the ring capacity (no preamble eviction).
fn audited_run(seed: u64, mutate: impl FnOnce(&mut HaConfig)) -> (String, u64, String) {
    let recorder = SharedRecorder::default().control_plane_only();
    let run = audited_run_into(&recorder, seed, mutate);
    let evicted = recorder.with(|r| r.evicted());
    assert_eq!(evicted, 0, "ring eviction would truncate the replay");
    run
}

/// [`audited_run`] traced into a recorder of the caller's choosing.
fn audited_run_into(
    recorder: &SharedRecorder,
    seed: u64,
    mutate: impl FnOnce(&mut HaConfig),
) -> (String, u64, String) {
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
            mutate(c);
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
    let (report, violations, dump) = audited_run(2010, |_| {});
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
    let (report, violations, headless) = audited_run_into(&small, 2010, |_| {});
    assert_eq!(violations, 0, "{report}");
    assert!(
        small.with(|r| r.evicted()) > 0,
        "the ring must have wrapped"
    );
    assert_eq!(headless.lines().count(), 4096);
    let err = replay_dump(&headless).expect_err("a headless dump is not auditable");
    assert!(err.contains("audit_meta"), "{err}");

    let whole = SharedRecorder::default();
    let (same_report, _, dump) = audited_run_into(&whole, 2010, |_| {});
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

#[test]
fn broken_sink_dedup_is_caught_by_both_frontends() {
    let (report, violations, dump) = audited_run(2010, |c| c.test_break_sink_dedup = true);
    // The chaos duplication window re-delivers elements; with receiver
    // dedup broken they are accepted twice, which the exactly-once rule
    // must flag.
    assert!(violations > 0, "canary did not fire:\n{report}");
    assert!(report.contains("verdict: FAIL"), "{report}");
    assert!(
        report.contains("sink_exactly_once"),
        "wrong invariant flagged:\n{report}"
    );

    let outcome = replay_dump(&dump).expect("dump replays");
    assert_eq!(outcome.violations, violations);
    assert_eq!(
        outcome.recorded_violations, violations,
        "the online probe's violation records must be in the dump"
    );
    assert_eq!(
        outcome.report, report,
        "offline replay must reproduce the online report byte for byte"
    );
    let first = outcome.first.expect("a first violation with context");
    assert!(
        first.rendered.contains("sink_exactly_once"),
        "{}",
        first.rendered
    );
    assert!(
        !first.backtrace.is_empty(),
        "first violation should come with a causal backtrace"
    );

    // The canary is deterministic: same seed, same report.
    let (again, _, _) = audited_run(2010, |c| c.test_break_sink_dedup = true);
    assert_eq!(report, again);
}

#[test]
fn skipped_standby_reprovision_is_caught_by_both_frontends() {
    let (report, violations, dump) = audited_run(2010, |c| c.test_skip_standby_reprovision = true);
    // The fail-stop promotes the secondary; with re-provisioning skipped
    // the subjob finishes the run without standby coverage.
    assert!(violations > 0, "canary did not fire:\n{report}");
    assert!(report.contains("verdict: FAIL"), "{report}");
    assert!(
        report.contains("standby_coverage"),
        "wrong invariant flagged:\n{report}"
    );

    let outcome = replay_dump(&dump).expect("dump replays");
    assert_eq!(outcome.violations, violations);
    assert_eq!(
        outcome.report, report,
        "offline replay must reproduce the online report byte for byte"
    );
    let first = outcome.first.expect("a first violation with context");
    assert!(
        first.rendered.contains("standby_coverage"),
        "{}",
        first.rendered
    );

    let (again, _, _) = audited_run(2010, |c| c.test_skip_standby_reprovision = true);
    assert_eq!(report, again);
}
