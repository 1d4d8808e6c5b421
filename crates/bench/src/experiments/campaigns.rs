//! The two robustness campaigns (not paper figures): `chaos_campaign`
//! sweeps per-link loss under a correlated two-machine fail-stop, and
//! `domain_campaign` sweeps successive rack failures under two replica
//! placements. Both report whether the hybrid protocol reached quiescence
//! with exactly-once sink delivery.
//!
//! Every cell runs through `run_cell`, which attaches the control-plane
//! flight recorder and the protocol auditor to the cell's real trace bus.
//! The auditor is a strictly read-only probe, so the tables are byte-equal
//! to a bare run's (the committed goldens were rendered without it). Each
//! campaign returns its [`CampaignDump`]: the trace of its last cell and the
//! audit report of every cell, which `figures --observe-out DIR` writes
//! under `DIR/<name>/`.

use sps_audit::Auditor;
use sps_cluster::{BurstLoss, ChaosPlan, DomainId, FaultProfile, FaultTopology, MachineId};
use sps_engine::{Job, SubjobId};
use sps_ha::{HaEventKind, HaMode, HaSimulation, HaSimulationBuilder, Placement, SjState};
use sps_metrics::Table;
use sps_sim::{SimDuration, SimTime};
use sps_trace::{FlightRecorder, SharedRecorder, TraceEvent};
use sps_workloads::eval_chain_job;

use crate::common::{CampaignDump, Experiment, Scale};
use crate::runner::Runner;

/// What one campaign cell leaves behind: the columns both tables read, the
/// campaign's own columns `X`, and the cell's share of the dump.
struct Cell<X> {
    produced: u64,
    accepted: u64,
    promotions: usize,
    /// Every subjob ended back in `Normal`.
    quiescent: bool,
    own: X,
    /// The flight recorder's JSONL dump, exported inside the cell: the
    /// recorder itself is single-threaded (`Rc`), so the serialized bytes
    /// are what crosses back to the submitting thread.
    trace_jsonl: Vec<u8>,
    audit_report: String,
    audit_violations: u64,
}

/// Adds the cell's trace sink and probe to a simulation builder.
type Attach<'a> = &'a dyn Fn(HaSimulationBuilder) -> HaSimulationBuilder;

/// Runs one campaign cell: `run` builds the simulation through the given
/// [`Attach`], runs it and finishes its probes; `own` reads the campaign's
/// own columns off the finished run and its recorder.
fn run_cell<X>(
    run: impl FnOnce(Attach) -> HaSimulation,
    own: impl FnOnce(&HaSimulation, &FlightRecorder) -> X,
) -> Cell<X> {
    // Control-plane-only keeps the JSONL dump small enough to byte-diff in
    // CI while retaining every fault, chaos, and recovery record.
    let recorder = SharedRecorder::default().control_plane_only();
    let sim = run(&|builder| {
        builder
            .trace_sink(Box::new(recorder.clone()))
            .trace_probe(Box::new(Auditor::new()))
    });
    let world = sim.world();
    let subjobs = world.job().subjob_count() as u32;
    Cell {
        produced: world.sources()[0].produced(),
        accepted: world.sinks()[0].accepted(),
        promotions: world
            .ha_events()
            .iter()
            .filter(|e| e.kind == HaEventKind::Promoted)
            .count(),
        quiescent: (0..subjobs).all(|sj| world.subjob(SubjobId(sj)).state == SjState::Normal),
        own: recorder.with(|r| own(&sim, r)),
        trace_jsonl: recorder.to_jsonl_string().into_bytes(),
        audit_report: sim.audit_report().expect("auditor attached"),
        audit_violations: sim.audit_violations(),
    }
}

/// Folds a campaign's cells, each under its `audit.txt` label, into its
/// dump: the last cell's trace and every cell's audit report.
fn dump<X>(cells: impl IntoIterator<Item = (String, Cell<X>)>) -> CampaignDump {
    let mut out = CampaignDump {
        trace_jsonl: Vec::new(),
        audit: String::new(),
        violations: 0,
        cells: 0,
    };
    for (label, cell) in cells {
        out.audit
            .push_str(&format!("=== cell {label} ===\n{}\n", cell.audit_report));
        out.violations += cell.audit_violations;
        out.cells += 1;
        out.trace_jsonl = cell.trace_jsonl;
    }
    out
}

/// Runs one `chaos_campaign` cell, lossless and quiescent by promise:
/// `job` all-Hybrid (the campaign runs the evaluation chain) at 500 el/s,
/// reliable control, bursty `loss` from 0.5 s to 6 s, machines 1 and 3
/// fail-stop at 3 s, sources stop at 10 s, 16 s run. `attach` adds the
/// caller's trace sinks and probes.
pub fn campaign_cell(
    job: Job,
    loss: f64,
    seed: u64,
    attach: impl FnOnce(HaSimulationBuilder) -> HaSimulationBuilder,
) -> HaSimulation {
    // The zero-loss baseline gets a clean network (no burst chain either).
    let weather = if loss > 0.0 {
        FaultProfile::loss(loss).with_burst(BurstLoss {
            good_to_bad: 0.01,
            bad_to_good: 0.2,
            bad_loss_prob: 0.6,
        })
    } else {
        FaultProfile::default()
    };
    let plan = ChaosPlan::default()
        .loss_window(SimTime::from_millis(500), SimTime::from_secs(6), weather)
        .correlated_fail_stop(SimTime::from_secs(3), &[MachineId(1), MachineId(3)]);
    let builder = HaSimulation::builder(job)
        .mode(HaMode::Hybrid)
        .source_rate(500.0)
        .seed(seed)
        .tune(|c| {
            c.reliable_control = true;
            c.failstop_miss_threshold = 20;
        })
        .chaos(plan)
        .audit_expectations(true, true);
    let mut sim = attach(builder).build();
    sim.stop_sources_at(SimTime::from_secs(10));
    sim.run_for(SimDuration::from_secs(16));
    sim.finish_probes();
    sim
}

/// Chaos campaign: a correlated two-machine fail-stop under per-link chaos
/// loss, one cell per loss level.
pub fn chaos_campaign(runner: &Runner, scale: Scale, seed: u64) -> Experiment {
    let losses = scale.pick(vec![0.0, 0.01, 0.02, 0.05], vec![0.0, 0.02]);
    let cells = runner.map(losses.clone(), |loss| {
        run_cell(
            |attach| campaign_cell(eval_chain_job(), loss, seed, attach),
            |sim, recorder| {
                let (drops, retransmits) =
                    recorder
                        .records()
                        .fold((0, 0), |(drops, retx), rec| match rec.event {
                            TraceEvent::NetDrop { chaos: true, .. } => (drops + 1, retx),
                            TraceEvent::Retransmit { .. } => (drops, retx + 1),
                            _ => (drops, retx),
                        });
                (
                    sim.world().sinks()[0].duplicates_dropped(),
                    drops,
                    retransmits,
                )
            },
        )
    });

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
    let mut all_ok = true;
    for (&loss, c) in losses.iter().zip(&cells) {
        let exactly_once = c.accepted == c.produced;
        all_ok &= exactly_once && c.quiescent && c.promotions == 2;
        let (sink_dups, chaos_drops, retransmits) = c.own;
        table.row(vec![
            format!("{:.1}", loss * 100.0),
            c.produced.to_string(),
            c.accepted.to_string(),
            sink_dups.to_string(),
            chaos_drops.to_string(),
            retransmits.to_string(),
            c.promotions.to_string(),
            c.quiescent.to_string(),
            exactly_once.to_string(),
        ]);
    }

    let labels = losses.iter().map(|l| format!("loss={:.1}%", l * 100.0));
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
        dump: Some(dump(labels.zip(cells))),
    }
}

/// Domain-disjoint layout on `FaultTopology::grid(22, 4, 1)` (six racks,
/// one switch each): primaries fill r0, standbys fill r1, so no single rack
/// failure can remove both copies of any subjob. Racks r2–r4 fund
/// re-provisioning, and the two-machine rack r5 hosts the source and sink
/// and is never faulted.
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
        ..domain_aware_placement()
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

/// Domain campaign (the fault-domain figure): availability under k
/// successive correlated rack failures, domain-aware vs. static
/// (rack-colocated) placement.
///
/// Every fault sequence targets the racks that hold live replicas at that
/// point of the run. With domain-aware placement each rack failure takes
/// out only one copy of every subjob — the promotion-safety ladder
/// promotes the surviving standby and a fresh standby is re-provisioned on
/// a healthy, domain-disjoint spare — so availability stays at 100% for
/// any k the spare pool can fund. With static placement the very first
/// rack failure removes both replicas (and the checkpoint store) of the
/// colocated subjobs, and the spare-redeploy fallback can only restart
/// them empty.
pub fn domain_campaign(runner: &Runner, scale: Scale, seed: u64) -> Experiment {
    let ks = scale.pick(vec![0, 1, 2, 3], vec![0, 1, 3]);
    // Static first, domain-aware second, so the dump's trace is the
    // heaviest domain-aware cell.
    let sweep: Vec<(usize, bool)> = ks.iter().flat_map(|&k| [(k, false), (k, true)]).collect();
    let cells = runner.map(sweep.clone(), |(k, domain_aware)| {
        run_cell(
            |attach| {
                let plan = fault_racks(k)
                    .into_iter()
                    .fold(ChaosPlan::default(), |p, (at, rack)| {
                        p.domain_fail_stop(at, rack)
                    });
                let builder = HaSimulation::builder(eval_chain_job())
                    .mode(HaMode::Hybrid)
                    .source_rate(500.0)
                    .seed(seed)
                    .tune(|c| {
                        c.reliable_control = true;
                        c.failstop_miss_threshold = 20;
                    })
                    .placement(if domain_aware {
                        domain_aware_placement()
                    } else {
                        static_placement()
                    })
                    .topology(FaultTopology::grid(22, 4, 1))
                    .chaos(plan)
                    // Domain-aware cells promise lossless, quiescent runs —
                    // the same claim the table's avail/quiescent columns
                    // make. Static cells deliberately lose both replicas to
                    // one rack, so only the always-on invariants apply there
                    // (the end-of-run gap and coverage checks would flag
                    // placement policy, not protocol bugs).
                    .audit_expectations(domain_aware, domain_aware);
                let mut sim = attach(builder).build();
                sim.stop_sources_at(SimTime::from_secs(15));
                sim.run_for(SimDuration::from_secs(22));
                sim.finish_probes();
                sim
            },
            |sim, recorder| {
                let aborts = recorder
                    .records()
                    .filter(|rec| matches!(rec.event, TraceEvent::FailoverAborted { .. }))
                    .count();
                let world = sim.world();
                let cluster = world.cluster();
                let pairs_disjoint = (0..world.job().subjob_count() as u32).all(|sj| {
                    let s = world.subjob(SubjobId(sj));
                    s.secondary_machine.is_some_and(|sec| {
                        cluster.machine(sec).is_up()
                            && cluster.topology().domain_disjoint(s.primary_machine, sec)
                    })
                });
                (aborts, pairs_disjoint)
            },
        )
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
    let placement = |domain_aware| if domain_aware { "domain" } else { "static" };
    let mut aware_ok = true;
    let mut static_degraded = false;
    for (&(k, domain_aware), c) in sweep.iter().zip(&cells) {
        let (aborts, pairs_disjoint) = c.own;
        let avail = if c.produced == 0 {
            100.0
        } else {
            c.accepted as f64 * 100.0 / c.produced as f64
        };
        if domain_aware {
            aware_ok &= c.accepted == c.produced && c.quiescent && pairs_disjoint && aborts == 0;
        } else if k > 0 {
            static_degraded |= c.accepted < c.produced || !c.quiescent;
        }
        table.row(vec![
            k.to_string(),
            placement(domain_aware).to_string(),
            c.produced.to_string(),
            c.accepted.to_string(),
            format!("{avail:.3}"),
            c.promotions.to_string(),
            aborts.to_string(),
            c.quiescent.to_string(),
            pairs_disjoint.to_string(),
        ]);
    }

    let labels = sweep
        .iter()
        .map(|&(k, aware)| format!("faults={k} placement={}", placement(aware)));
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
        dump: Some(dump(labels.zip(cells))),
    }
}
