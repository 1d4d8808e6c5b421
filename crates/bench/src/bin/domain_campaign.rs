//! Domain-failure chaos campaign (the fault-domain figure): availability
//! under k successive correlated rack failures, domain-aware vs. static
//! (rack-colocated) placement.
//!
//! Every fault sequence targets the racks that hold live replicas at that
//! point of the run. With domain-aware placement each rack failure takes
//! out only one copy of every subjob — the promotion-safety ladder
//! promotes the surviving standby and a fresh standby is re-provisioned on
//! a healthy, domain-disjoint spare — so availability stays at 100% for
//! any k the spare pool can fund. With static placement the very first
//! rack failure removes both replicas (and the checkpoint store) of the
//! colocated subjobs, and the spare-redeploy fallback can only restart
//! them empty.
//!
//! Pass `--quick` for a reduced sweep and `--jobs N` to run the cells in
//! parallel (output is byte-identical for any N). With `--observe-out
//! DIR` the protocol auditor rides every real sweep cell and `DIR`
//! receives `trace.jsonl` (the flight-recorder dump of the heaviest
//! domain-aware cell) and `audit.txt` (the per-cell reports). Status goes
//! to stderr; stdout is unchanged.

use sps_audit::Auditor;
use sps_bench::common::{Experiment, RunOpts};
use sps_bench::observe_capture::write_campaign;
use sps_cluster::{ChaosPlan, DomainId, FaultTopology, MachineId};
use sps_engine::SubjobId;
use sps_ha::{HaEventKind, HaMode, HaSimulation, Placement, SjState};
use sps_metrics::Table;
use sps_sim::{SimDuration, SimTime};
use sps_trace::{SharedRecorder, TraceEvent};
use sps_workloads::eval_chain_job;

/// Six racks, one switch per rack. Racks r0/r1 hold the job, r2–r4 fund
/// re-provisioning, and the two-machine rack r5 hosts the source and sink
/// and is never faulted.
fn topology() -> FaultTopology {
    FaultTopology::grid(22, 4, 1)
}

/// Domain-disjoint layout: primaries fill r0, standbys fill r1, so no
/// single rack failure can remove both copies of any subjob.
fn domain_aware_placement() -> Placement {
    Placement {
        primaries: (0..4).map(MachineId).collect(),
        secondaries: (4..8).map(|m| Some(MachineId(m))).collect(),
        sources: vec![MachineId(20)],
        sinks: vec![MachineId(21)],
        spares: (8..20).map(MachineId).collect(),
    }
}

/// Domain-oblivious layout: each subjob's standby sits right next to its
/// primary, two full pairs per rack — one rack failure kills both copies.
fn static_placement() -> Placement {
    Placement {
        primaries: vec![MachineId(0), MachineId(2), MachineId(4), MachineId(6)],
        secondaries: vec![
            Some(MachineId(1)),
            Some(MachineId(3)),
            Some(MachineId(5)),
            Some(MachineId(7)),
        ],
        sources: vec![MachineId(20)],
        sinks: vec![MachineId(21)],
        spares: (8..20).map(MachineId).collect(),
    }
}

/// The first `k` entries follow the live replicas of the domain-aware
/// layout: primaries start on r0, promotion moves them to r1, and
/// re-provisioning lands the replacement standbys on r4 (the spare pool is
/// drained from the top).
fn fault_racks(k: usize) -> Vec<(SimTime, DomainId)> {
    [
        (SimTime::from_secs(3), DomainId(0)),
        (SimTime::from_secs(7), DomainId(1)),
        (SimTime::from_secs(11), DomainId(4)),
    ][..k]
        .to_vec()
}

struct CampaignRun {
    produced: u64,
    accepted: u64,
    promotions: usize,
    aborts: usize,
    all_normal: bool,
    pairs_disjoint: bool,
    trace_jsonl: Vec<u8>,
    trace_records: usize,
    /// The protocol auditor's end-of-run report, when `--observe-out`
    /// attached the auditor to this cell's trace bus.
    audit_report: Option<String>,
    audit_violations: u64,
}

fn run_campaign(
    placement: Placement,
    domain_aware: bool,
    k: usize,
    seed: u64,
    audit: bool,
) -> CampaignRun {
    let topology = topology();
    let mut plan = ChaosPlan::default();
    for (at, rack) in fault_racks(k) {
        plan = plan.domain_fail_stop(at, rack);
    }
    let recorder = SharedRecorder::default().control_plane_only();
    let mut builder = HaSimulation::builder(eval_chain_job())
        .mode(HaMode::Hybrid)
        .source_rate(500.0)
        .seed(seed)
        .tune(|c| {
            c.reliable_control = true;
            c.failstop_miss_threshold = 20;
        })
        .placement(placement)
        .topology(topology.clone())
        .chaos(plan)
        .trace_sink(Box::new(recorder.clone()))
        // Domain-aware cells promise lossless, quiescent runs — the same
        // claim the table's avail/quiescent columns make. Static cells
        // deliberately lose both replicas to one rack, so only the
        // always-on invariants apply there (the end-of-run gap and
        // coverage checks would flag placement policy, not protocol
        // bugs). Declared unconditionally so the JSONL preamble (and an
        // offline `sps-inspect audit` of the dump) is identical with and
        // without `--observe-out`.
        .audit_expectations(domain_aware, domain_aware);
    if audit {
        // The auditor is a strictly read-only probe on this cell's real
        // trace bus: the campaign output stays byte-identical with and
        // without it.
        builder = builder.trace_probe(Box::new(Auditor::new()));
    }
    let mut sim = builder.build();
    sim.stop_sources_at(SimTime::from_secs(15));
    sim.run_for(SimDuration::from_secs(22));
    sim.finish_probes();

    let world = sim.world();
    let promotions = world
        .ha_events()
        .iter()
        .filter(|e| e.kind == HaEventKind::Promoted)
        .count();
    let aborts = recorder.with(|r| {
        r.records()
            .filter(|rec| matches!(rec.event, TraceEvent::FailoverAborted { .. }))
            .count()
    });
    let subjob_count = world.job().subjob_count() as u32;
    let all_normal =
        (0..subjob_count).all(|sj| world.subjob(SubjobId(sj)).state == SjState::Normal);
    let pairs_disjoint = (0..subjob_count).all(|sj| {
        let s = world.subjob(SubjobId(sj));
        s.secondary_machine.is_some_and(|sec| {
            world.cluster().machine(sec).is_up() && topology.domain_disjoint(s.primary_machine, sec)
        })
    });
    let mut trace_jsonl = Vec::new();
    recorder
        .export_jsonl(&mut trace_jsonl)
        .expect("in-memory JSONL export cannot fail");
    let trace_records = recorder.with(|r| r.len());
    CampaignRun {
        produced: world.sources()[0].produced(),
        accepted: world.sinks()[0].accepted(),
        promotions,
        aborts,
        all_normal,
        pairs_disjoint,
        trace_jsonl,
        trace_records,
        audit_report: sim.audit_report(),
        audit_violations: sim.audit_violations(),
    }
}

fn main() {
    let (opts, _, _) = RunOpts::parse_or_exit("domain_campaign", &[], None);
    let ks: Vec<usize> = opts.scale.pick(vec![0, 1, 2, 3], vec![0, 1, 3]);
    let seed = opts.seed;

    // Static first, domain-aware second, so the flight-recorder dump kept
    // for `--observe-out` is the heaviest domain-aware cell.
    let cells: Vec<(usize, bool)> = ks.iter().flat_map(|&k| [(k, false), (k, true)]).collect();
    let audit = opts.observe_out.is_some();
    let runs = opts.runner().map(cells.clone(), move |(k, domain_aware)| {
        let placement = if domain_aware {
            domain_aware_placement()
        } else {
            static_placement()
        };
        run_campaign(placement, domain_aware, k, seed, audit)
    });

    let mut table = Table::new(vec![
        "faults",
        "placement",
        "produced",
        "accepted",
        "avail_pct",
        "promotions",
        "aborts",
        "quiescent",
        "disjoint",
    ]);
    let mut last_trace = None;
    let mut aware_ok = true;
    let mut static_degraded = false;
    let mut audit_reports = String::new();
    let mut audit_violations = 0u64;
    for (&(k, domain_aware), run) in cells.iter().zip(runs) {
        let avail = if run.produced == 0 {
            100.0
        } else {
            run.accepted as f64 * 100.0 / run.produced as f64
        };
        if domain_aware {
            aware_ok &= run.accepted == run.produced
                && run.all_normal
                && run.pairs_disjoint
                && run.aborts == 0;
        } else if k > 0 {
            static_degraded |= run.accepted < run.produced || !run.all_normal;
        }
        table.row(vec![
            k.to_string(),
            if domain_aware { "domain" } else { "static" }.to_string(),
            run.produced.to_string(),
            run.accepted.to_string(),
            format!("{avail:.3}"),
            run.promotions.to_string(),
            run.aborts.to_string(),
            run.all_normal.to_string(),
            run.pairs_disjoint.to_string(),
        ]);
        if let Some(report) = &run.audit_report {
            audit_reports.push_str(&format!(
                "=== cell faults={k} placement={} ===\n{report}\n",
                if domain_aware { "domain" } else { "static" }
            ));
            audit_violations += run.audit_violations;
        }
        last_trace = Some((run.trace_jsonl, run.trace_records));
    }

    Experiment {
        figure: "Domain campaign",
        title: "availability vs. successive correlated rack failures, by placement",
        table,
        paper_notes: vec![
            "replica placement across fault domains is what lets an SPE absorb \
             correlated failures instead of merely independent ones"
                .into(),
        ],
        measured_notes: vec![
            if aware_ok {
                "domain-aware placement survives every fault sequence: exactly-once \
                 delivery, zero ladder dead-ends, and a live domain-disjoint standby \
                 re-provisioned after each cycle"
                    .into()
            } else {
                "INVARIANT VIOLATION: a domain-aware cell lost data, aborted a \
                 failover, or finished without a domain-disjoint standby"
                    .into()
            },
            if static_degraded {
                "static placement loses both replicas to a single rack failure and \
                 degrades availability"
                    .into()
            } else {
                "static placement was not degraded by this sweep".into()
            },
        ],
        postscript: None,
    }
    .print();

    if let Some(dir) = &opts.observe_out {
        write_campaign(
            dir,
            last_trace.expect("at least one sweep cell ran"),
            (audit_reports, audit_violations),
            cells.len(),
        );
    }
}
