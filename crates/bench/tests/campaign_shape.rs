//! A thousand `chaos_campaign` cells at 2 % bursty loss, seeds 0..1000,
//! with the protocol auditor attached, for each of three chain shapes:
//! none may panic, and the seeds the auditor flags are exactly the shape's
//! known wedges — which are also exactly the seeds whose sink ends short
//! of the source.
//!
//! Every cell overlaps a correlated two-machine fail-stop with the loss
//! window, so standbys resume from restored positions on queues that lost
//! acks; a resume whose connection did not yet gate the trim once trimmed
//! away its own restart point and panicked (seeds 65, 90, 729, 743, 772).
//! Run it in release: one cell is ~50 ms there, and the quarters run on
//! parallel test threads.

use std::ops::Range;

use sps_audit::Auditor;
use sps_bench::experiments::campaigns::campaign_cell;
use sps_engine::{Job, OperatorSpec};
use sps_workloads::eval_chain_job;

/// The seeds that still lose elements for good — the sink stops short of
/// the source with every subjob back in `Normal`. In each, one stream's
/// consumer waits inside a `resume` clamp for elements its producer
/// already trimmed, which the auditor's `stream_complete` check flags
/// (seed 391 also shows one `sink_seq_gap`). ROADMAP item 2(c) finds
/// their cause; its fix empties this list, and any new loss fails the
/// sweep.
const KNOWN_WEDGES: [u64; 12] = [107, 232, 312, 367, 391, 408, 431, 464, 488, 494, 554, 689];

/// The campaign chain with a stateless identity `Map` in place of the
/// `Synthetic` operator: 8 PEs in 4 subjobs, 0.3 ms of demand.
fn map_chain() -> Job {
    let identity = OperatorSpec::Map {
        scale: 1.0,
        offset: 0.0,
        demand_secs: 0.000_3,
    };
    Job::chain("eval", &identity, 8, 4)
}

/// The known wedges of [`map_chain`]. Only 107, 431 and 464 are
/// campaign wedges too.
const KNOWN_MAP_WEDGES: [u64; 10] = [89, 107, 328, 404, 431, 464, 590, 647, 759, 800];

/// The campaign chain with a one-element-state `Counter`: 8 PEs in 4
/// subjobs, 0.3 ms of demand.
fn counter_chain() -> Job {
    Job::chain(
        "eval",
        &OperatorSpec::Counter {
            demand_secs: 0.000_3,
        },
        8,
        4,
    )
}

/// The known wedges of [`counter_chain`]: the `Map` chain's, less 404,
/// 431 and 647, plus 349.
const KNOWN_COUNTER_WEDGES: [u64; 8] = [89, 107, 328, 349, 464, 590, 759, 800];

/// Runs the cells of `job` for `seeds` and checks them against the
/// shape's `known` wedges.
fn sweep(job: fn() -> Job, known: &[u64], seeds: Range<u64>) {
    let mut panicked = Vec::new();
    let mut flagged = Vec::new();
    let mut lossy = Vec::new();
    for seed in seeds.clone() {
        let cell = std::panic::catch_unwind(|| {
            let sim = campaign_cell(job(), 0.02, seed, |b| {
                b.trace_probe(Box::new(Auditor::new()))
            });
            let world = sim.world();
            let complete = world.sinks()[0].accepted() == world.sources()[0].produced();
            (sim.audit_violations() > 0, complete)
        });
        match cell {
            Err(_) => panicked.push(seed),
            Ok((audit_failed, complete)) => {
                if audit_failed {
                    flagged.push(seed);
                }
                if !complete {
                    lossy.push(seed);
                }
            }
        }
    }
    assert!(panicked.is_empty(), "cells panicked: {panicked:?}");
    let known: Vec<u64> = known
        .iter()
        .copied()
        .filter(|s| seeds.contains(s))
        .collect();
    assert_eq!(flagged, known, "cells the auditor flags (lossy: {lossy:?})");
    assert_eq!(lossy, known, "cells whose sink ends short of the source");
}

#[test]
fn campaign_cells_0_to_250() {
    sweep(eval_chain_job, &KNOWN_WEDGES, 0..250);
}

#[test]
fn campaign_cells_250_to_500() {
    sweep(eval_chain_job, &KNOWN_WEDGES, 250..500);
}

#[test]
fn campaign_cells_500_to_750() {
    sweep(eval_chain_job, &KNOWN_WEDGES, 500..750);
}

#[test]
fn campaign_cells_750_to_1000() {
    sweep(eval_chain_job, &KNOWN_WEDGES, 750..1000);
}

#[test]
fn map_chain_cells_0_to_500() {
    sweep(map_chain, &KNOWN_MAP_WEDGES, 0..500);
}

#[test]
fn map_chain_cells_500_to_1000() {
    sweep(map_chain, &KNOWN_MAP_WEDGES, 500..1000);
}

#[test]
fn counter_chain_cells_0_to_500() {
    sweep(counter_chain, &KNOWN_COUNTER_WEDGES, 0..500);
}

#[test]
fn counter_chain_cells_500_to_1000() {
    sweep(counter_chain, &KNOWN_COUNTER_WEDGES, 500..1000);
}
