//! Chaos robustness campaign (not a paper figure): sweeps per-link loss
//! rates under a correlated two-machine fail-stop and reports whether the
//! hybrid protocol reached quiescence with exactly-once sink delivery.
//!
//! Pass `--quick` for a reduced sweep and `--jobs N` to run the loss
//! levels as parallel cells (output is byte-identical for any N). With
//! `--observe-out DIR` the protocol auditor rides every real sweep cell
//! and `DIR` receives `trace.jsonl` (the flight-recorder dump of the
//! heaviest-loss cell, a deterministic function of the seed — the CI
//! determinism job byte-diffs two runs) and `audit.txt` (the per-cell
//! reports). Status goes to stderr; stdout is unchanged.

use sps_audit::Auditor;
use sps_bench::common::{campaign_cell, Experiment, RunOpts};
use sps_bench::observe_capture::write_campaign;
use sps_engine::SubjobId;
use sps_ha::HaEventKind;
use sps_metrics::Table;
use sps_trace::{SharedRecorder, TraceEvent};

struct CampaignRun {
    produced: u64,
    accepted: u64,
    sink_duplicates: u64,
    chaos_drops: u64,
    retransmits: u64,
    promotions: usize,
    all_normal: bool,
    /// The flight recorder's JSONL dump, exported inside the cell: the
    /// recorder itself is single-threaded (`Rc`), so the serialized bytes
    /// are what crosses back to the submitting thread.
    trace_jsonl: Vec<u8>,
    trace_records: usize,
    /// The protocol auditor's end-of-run report, when `--observe-out`
    /// attached the auditor to this cell's trace bus.
    audit_report: Option<String>,
    audit_violations: u64,
}

fn run_campaign(loss: f64, seed: u64, audit: bool) -> CampaignRun {
    // Control-plane-only keeps the JSONL dump small enough to byte-diff
    // in CI while retaining every fault, chaos, and recovery record.
    let recorder = SharedRecorder::default().control_plane_only();
    // The cell declares its audit expectations unconditionally, so the
    // JSONL preamble (and hence an offline `sps-inspect audit` of the
    // dump) is identical with and without `--observe-out`; the table's own
    // exactly_once/quiescent columns assert the same promises.
    let sim = campaign_cell(loss, seed, |builder| {
        let builder = builder.trace_sink(Box::new(recorder.clone()));
        if audit {
            // The auditor rides this cell's real trace bus: a strictly
            // read-only probe, so the sweep stays byte-identical with and
            // without it.
            builder.trace_probe(Box::new(Auditor::new()))
        } else {
            builder
        }
    });

    let (chaos_drops, retransmits) = recorder.with(|r| {
        r.records()
            .fold((0, 0), |(drops, retx), rec| match rec.event {
                TraceEvent::NetDrop { chaos: true, .. } => (drops + 1, retx),
                TraceEvent::Retransmit { .. } => (drops, retx + 1),
                _ => (drops, retx),
            })
    });
    let world = sim.world();
    let promotions = world
        .ha_events()
        .iter()
        .filter(|e| e.kind == HaEventKind::Promoted)
        .count();
    let all_normal = (0..world.job().subjob_count() as u32)
        .all(|sj| world.subjob(SubjobId(sj)).state == sps_ha::SjState::Normal);
    let mut trace_jsonl = Vec::new();
    recorder
        .export_jsonl(&mut trace_jsonl)
        .expect("in-memory JSONL export cannot fail");
    let trace_records = recorder.with(|r| r.len());
    CampaignRun {
        produced: world.sources()[0].produced(),
        accepted: world.sinks()[0].accepted(),
        sink_duplicates: world.sinks()[0].duplicates_dropped(),
        chaos_drops,
        retransmits,
        promotions,
        all_normal,
        trace_jsonl,
        trace_records,
        audit_report: sim.audit_report(),
        audit_violations: sim.audit_violations(),
    }
}

fn main() {
    let (opts, _, _) = RunOpts::parse_or_exit("chaos_campaign", &[], None);
    let losses: Vec<f64> = opts
        .scale
        .pick(vec![0.0, 0.01, 0.02, 0.05], vec![0.0, 0.02]);
    let seed = opts.seed;

    // Each loss level is an independent simulation cell; results come back
    // in sweep order, so the table (and the heaviest-loss recorder kept for
    // the deterministic JSONL dump) match the serial sweep byte for byte.
    let audit = opts.observe_out.is_some();
    let runs = opts
        .runner()
        .map(losses.clone(), move |loss| run_campaign(loss, seed, audit));

    let mut table = Table::new(vec![
        "loss_pct",
        "produced",
        "accepted",
        "sink_dups",
        "chaos_drops",
        "retransmits",
        "promotions",
        "quiescent",
        "exactly_once",
    ]);
    let mut last_trace = None;
    let mut all_ok = true;
    let mut audit_reports = String::new();
    let mut audit_violations = 0u64;
    for (&loss, run) in losses.iter().zip(runs) {
        let exactly_once = run.accepted == run.produced;
        all_ok &= exactly_once && run.all_normal && run.promotions == 2;
        table.row(vec![
            format!("{:.1}", loss * 100.0),
            run.produced.to_string(),
            run.accepted.to_string(),
            run.sink_duplicates.to_string(),
            run.chaos_drops.to_string(),
            run.retransmits.to_string(),
            run.promotions.to_string(),
            run.all_normal.to_string(),
            exactly_once.to_string(),
        ]);
        if let Some(report) = &run.audit_report {
            audit_reports.push_str(&format!(
                "=== cell loss={:.1}% ===\n{report}\n",
                loss * 100.0
            ));
            audit_violations += run.audit_violations;
        }
        last_trace = Some((run.trace_jsonl, run.trace_records));
    }

    Experiment {
        figure: "Chaos campaign",
        title: "correlated two-machine fail-stop under per-link chaos loss",
        table,
        paper_notes: vec![
            "the hybrid absorbs false alarms cheaply and promotes only on real fail-stops".into(),
        ],
        measured_notes: vec![if all_ok {
            "every sweep point reached quiescence with exactly-once delivery and \
             exactly one promotion per failed primary"
                .into()
        } else {
            "INVARIANT VIOLATION: at least one sweep point lost or duplicated data, \
             failed to settle, or promoted more than once per failure"
                .into()
        }],
        postscript: None,
    }
    .print();

    if let Some(dir) = &opts.observe_out {
        write_campaign(
            dir,
            last_trace.expect("at least one sweep point ran"),
            (audit_reports, audit_violations),
            losses.len(),
        );
    }
}
