//! `--observe-out DIR`: one observed run, five views of it.
//!
//! [`observed_run`] builds a single simulation with every observation
//! layer attached — flight recorder, protocol auditor, lineage, metrics
//! registry, health engine — and [`Observed::files`] renders what each
//! layer saw of *that run* as `trace.jsonl`, `metrics.jsonl`,
//! `metrics.csv`, `health.jsonl` and `audit.txt`. Because the files share
//! one run, `sps-inspect` can join them: the audit verdict in `audit.txt`
//! is the one `sps-inspect audit trace.jsonl` replays, and the breach
//! spans in `health.jsonl` bracket recovery records in `trace.jsonl`.
//!
//! The run is a fixed scenario, not a cell of the figure that was asked
//! for (that needs the observation spine of ROADMAP item 3), so figure
//! numbers never come from an instrumented simulation. The campaign
//! binaries instead attach recorder and auditor to their real sweep cells
//! and write `trace.jsonl` / `audit.txt` through [`write_campaign`]. Status
//! goes to stderr, so stdout is byte-identical with and without the flag.

use std::path::Path;

use sps_audit::Auditor;
use sps_cluster::{ChaosPlan, FaultProfile, MachineId, SpikeWindow};
use sps_ha::{HaMode, HaSimulation};
use sps_metrics::Registry;
use sps_observe::{HealthConfig, HealthReport};
use sps_sim::SimTime;
use sps_trace::SharedRecorder;
use sps_workloads::eval_chain_job;

/// What every observation layer saw of one run.
#[derive(Debug)]
pub struct Observed {
    /// The flight recorder (every event kind, nothing evicted).
    pub recorder: SharedRecorder,
    /// The scraped metrics registry.
    pub registry: Registry,
    /// The health engine's end-of-run report.
    pub health: HealthReport,
    /// The online auditor's end-of-run report.
    pub audit_report: String,
    /// The online auditor's violation count.
    pub audit_violations: u64,
}

/// Runs the observed scenario: every subjob Hybrid under the reliable
/// control layer, so the run is lossless and drains to quiescence — the
/// auditor's strictest expectations — while touching every
/// [`sps_trace::TraceEvent`] kind in 12 simulated seconds:
///
/// * steady traffic → element send/recv, acks, checkpoints, heartbeats,
///   queue high-water marks, periodic machine/PE snapshots;
/// * a benchmark detector on machine 1 → probes and verdicts;
/// * a 1 s full-CPU spike (10 missed heartbeats, below the lowered
///   fail-stop threshold of 15) → failure inject/detect, switch-over, then
///   rollback once the primary's heartbeat replies resume;
/// * a fail-stop at 4 s → element drops at the dead machine, promotion,
///   standby re-provisioning, epoch advance;
/// * a chaos loss/duplication window → chaos steps, net drops, duplicated
///   deliveries, receiver dedup, and (heavy loss on the m1 → m6 checkpoint
///   link) at least one reliable-layer retransmission.
pub fn observed_run(seed: u64) -> Observed {
    let recorder = SharedRecorder::default();
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
        .lineage(true)
        .health(HealthConfig)
        .build();
    sim.add_benchmark_detector(MachineId(1));
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
    let world = sim.world();
    Observed {
        registry: world.metrics().expect("health implies metrics").clone(),
        health: world.health().expect("health engine enabled").report(),
        audit_report: sim.audit_report().expect("auditor installed"),
        audit_violations: sim.audit_violations(),
        recorder,
    }
}

impl Observed {
    /// The five files of an `--observe-out` directory, name and bytes.
    pub fn files(&self) -> [(&'static str, Vec<u8>); 5] {
        let mut csv = Vec::new();
        self.registry
            .export_csv(&mut csv)
            .expect("in-memory CSV export cannot fail");
        [
            ("trace.jsonl", self.recorder.to_jsonl_string().into_bytes()),
            (
                "metrics.jsonl",
                self.registry.to_jsonl_string().into_bytes(),
            ),
            ("metrics.csv", csv),
            ("health.jsonl", self.health.to_jsonl_string().into_bytes()),
            ("audit.txt", self.audit_report.clone().into_bytes()),
        ]
    }
}

/// Creates `dir` and writes `files` into it. A requested artifact that
/// cannot be written is a failed invocation: the error goes to stderr and
/// the process exits 1.
fn write_files(dir: &Path, files: &[(&str, Vec<u8>)]) {
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        files
            .iter()
            .try_for_each(|(name, bytes)| std::fs::write(dir.join(name), bytes))
    });
    if let Err(e) = written {
        eprintln!("error: could not write to {}: {e}", dir.display());
        std::process::exit(1);
    }
}

/// What a campaign leaves in its `--observe-out` directory: the
/// flight-recorder dump of its heaviest real cell as `trace.jsonl` and the
/// auditor's per-cell reports as `audit.txt`.
pub fn write_campaign(
    dir: &Path,
    (trace_jsonl, trace_records): (Vec<u8>, usize),
    (audit_reports, audit_violations): (String, u64),
    cells: usize,
) {
    write_files(
        dir,
        &[
            ("trace.jsonl", trace_jsonl),
            ("audit.txt", audit_reports.into_bytes()),
        ],
    );
    eprintln!(
        "observe: {trace_records} trace records, {audit_violations} audit violations across \
         {cells} cells written to {}",
        dir.display()
    );
}

/// If an observation directory was requested, runs the observed scenario
/// and writes its five files there.
pub fn maybe_capture(dir: Option<&Path>, seed: u64) {
    let Some(dir) = dir else {
        return;
    };
    let run = observed_run(seed);
    write_files(dir, &run.files());
    eprintln!(
        "observe: {} trace records, {} scrapes, {} SLO breaches, {} audit violations \
         written to {}",
        run.recorder.with(|r| r.len()),
        run.registry.scrape_count(),
        run.health.breach_count(),
        run.audit_violations,
        dir.display()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use sps_observe::RECOVERY_MONITOR;
    use std::collections::BTreeSet;

    /// One run, the union of what the four per-layer captures it replaced
    /// asserted separately.
    #[test]
    fn one_run_satisfies_every_layer() {
        let run = observed_run(2010);

        // Trace: every event kind, nothing evicted from the ring.
        let (kinds, evicted): (BTreeSet<&'static str>, u64) = run.recorder.with(|r| {
            (
                r.records().map(|rec| rec.event.kind()).collect(),
                r.evicted(),
            )
        });
        assert_eq!(evicted, 0, "ring eviction would truncate the replay");
        for kind in [
            "element_send",
            "element_recv",
            "element_drop",
            "ack",
            "checkpoint_start",
            "checkpoint_sent",
            "checkpoint_stored",
            "heartbeat_ping",
            "heartbeat_pong",
            "heartbeat_miss",
            "bench_probe",
            "bench_verdict",
            "failure_inject",
            "failure_detect",
            "recovery",
            "queue_high_water",
            "machine_snapshot",
            "pe_snapshot",
            "net_drop",
            "net_duplicate",
            "retransmit",
            "chaos_phase",
            "audit_meta",
            "subjob_meta",
            "sink_deliver",
            "checkpoint_covered",
            "ack_sent",
            "epoch_change",
            "standby_provision",
        ] {
            assert!(kinds.contains(kind), "missing event kind {kind}: {kinds:?}");
        }

        // Audit: clean under the strictest expectations, and the offline
        // replay of this run's own dump reaches the online verdict.
        assert_eq!(run.audit_violations, 0, "{}", run.audit_report);
        assert!(run.audit_report.contains("verdict: PASS"));
        assert!(run
            .audit_report
            .contains("expectations: lossless=true quiescent=true"));
        let replay = sps_audit::replay_dump(&run.recorder.to_jsonl_string()).expect("replays");
        assert_eq!(replay.violations, 0);
        assert_eq!(replay.report, run.audit_report);

        // Health: every recovery cycle breaches the 200 ms budget and
        // closes inside the run.
        assert_eq!(run.health.scrapes, 120);
        let recovery = run
            .health
            .monitors
            .iter()
            .find(|m| m.name == RECOVERY_MONITOR)
            .expect("built-in recovery monitor present");
        assert!(!recovery.spans.is_empty());
        assert!(recovery.spans.iter().all(|s| s.end_ns.is_some()));

        // Metrics: the same 120 scrapes, with data-plane, sink and
        // recovery counters and the delay histogram in the series.
        let reg = &run.registry;
        assert_eq!(reg.scrape_count(), 120);
        assert!(reg.counter_total("data_plane", "elements_sent") > 0);
        assert!(reg.counter_total("sink", "accepted") > 0);
        assert!(reg.counter_total("recovery", "detected") >= 1);
        assert!(reg.counter_total("recovery", "switchover_complete") >= 1);
        let jsonl = reg.to_jsonl_string();
        assert!(jsonl.contains("\"component\":\"cluster\""));
        assert!(jsonl.contains("\"name\":\"e2e_delay_ms\""));
    }

    #[test]
    fn same_seed_gives_five_byte_identical_files() {
        let (a, b) = (observed_run(7).files(), observed_run(7).files());
        for ((name, x), (_, y)) in a.iter().zip(&b) {
            assert!(x == y, "{name} differs between two runs at seed 7");
            assert!(!x.is_empty(), "{name} is empty");
        }
    }
}
