//! Event order on every job shape, pinned. The figure goldens run chains
//! and sharded jobs only; this matrix runs the evaluation chain, the tree,
//! the traffic and financial pipelines and the mixed fan-out under Hybrid,
//! PS and AS in six configurations, and byte-compares one summary row per
//! run with `crates/bench/golden/topology_traces.txt`.
//!
//! A row holds the FNV-1a hash of every trace record's JSON line (data
//! plane included), the record count, the sinks' accepted and duplicate
//! totals, the events processed and the overhead in elements. Every run
//! has a 2 s spike on subjob 0's primary machine at 2 s, stops its sources
//! at 6 s and drains to 10 s.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use sps_cluster::SpikeWindow;
use sps_engine::Job;
use sps_ha::{HaConfig, HaMode, HaSimulation};
use sps_sim::{SimDuration, SimTime};
use sps_trace::{TraceRecord, TraceSink};
use sps_workloads::{
    eval_chain_job, financial_job, mixed_fanout_job, primary_machine_of, traffic_job, tree_job,
};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/topology_traces.txt");

/// FNV-1a over the JSON lines of every record, and their count.
struct Digest {
    hash: u64,
    records: u64,
}

impl Digest {
    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

struct DigestSink(Rc<RefCell<Digest>>);

impl TraceSink for DigestSink {
    fn record(&mut self, record: &TraceRecord) {
        let mut digest = self.0.borrow_mut();
        digest.feed(record.to_json().as_bytes());
        digest.feed(b"\n");
        digest.records += 1;
    }
}

/// The six configurations: name, config edit, and whether the last
/// subjob's primary fail-stops at 3.5 s.
type Variant = (&'static str, fn(&mut HaConfig), bool);

const VARIANTS: [Variant; 6] = [
    ("default", |_| {}, false),
    (
        "no_early_connections",
        |c| c.hybrid_early_connections = false,
        false,
    ),
    ("no_predeploy", |c| c.hybrid_predeploy = false, false),
    ("reliable_failstop", |c| c.reliable_control = true, true),
    (
        "reliable_failstop_b16",
        |c| {
            c.reliable_control = true;
            c.batch_size = 16;
        },
        true,
    ),
    ("no_read_state", |c| c.read_state_on_rollback = false, false),
];

fn jobs() -> Vec<(&'static str, Job)> {
    vec![
        ("eval_chain", eval_chain_job()),
        ("tree", tree_job()),
        ("traffic8", traffic_job(8)),
        ("financial16", financial_job(16)),
        ("mixed_fanout", mixed_fanout_job()),
    ]
}

fn row(job_name: &str, job: &Job, mode: HaMode, variant: &Variant) -> String {
    let (name, edit, fail_stop) = *variant;
    let last = job.subjob_count() as u32 - 1;
    let digest = Rc::new(RefCell::new(Digest {
        hash: 0xcbf2_9ce4_8422_2325,
        records: 0,
    }));
    let mut sim = HaSimulation::builder(job.clone())
        .mode(mode)
        .tune(edit)
        .source_rate(400.0)
        .seed(2010)
        .trace_sink(Box::new(DigestSink(Rc::clone(&digest))))
        .build();
    sim.inject_spike_windows(
        primary_machine_of(job, 0),
        &[SpikeWindow {
            start: SimTime::from_secs(2),
            end: SimTime::from_secs(4),
            share: 1.0,
        }],
    );
    if fail_stop {
        sim.fail_stop_at(primary_machine_of(job, last), SimTime::from_millis(3_500));
    }
    sim.stop_sources_at(SimTime::from_secs(6));
    sim.run_for(SimDuration::from_secs(10));
    let report = sim.report();
    let sinks = sim.world().sinks();
    let accepted: u64 = sinks.iter().map(|s| s.accepted()).sum();
    let duplicates: u64 = sinks.iter().map(|s| s.duplicates_dropped()).sum();
    let digest = digest.borrow();
    format!(
        "{job_name} {mode} {name} fnv={:016x} records={} accepted={accepted} duplicates={duplicates} events={} overhead={}",
        digest.hash,
        digest.records,
        report.events_processed,
        report.total_overhead_elements(),
    )
}

fn render() -> String {
    let mut out = String::new();
    for (job_name, job) in jobs() {
        for mode in [HaMode::Hybrid, HaMode::Passive, HaMode::Active] {
            for variant in &VARIANTS {
                let _ = writeln!(out, "{}", row(job_name, &job, mode, variant));
            }
        }
    }
    out
}

#[test]
fn every_topology_replays_its_pinned_trace() {
    let rendered = render();
    assert_eq!(rendered.lines().count(), 90);
    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    if rendered != golden {
        let fresh = concat!(env!("CARGO_TARGET_TMPDIR"), "/topology_traces.txt");
        std::fs::write(fresh, &rendered).expect("write the fresh render");
        let first = rendered
            .lines()
            .zip(golden.lines())
            .find(|(now, pinned)| now != pinned);
        panic!(
            "topology traces differ from {GOLDEN} (fresh render in {fresh}); first differing row: {first:?}"
        );
    }
}
