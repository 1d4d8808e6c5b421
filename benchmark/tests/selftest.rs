//! The benchmark's self-test, at one-tenth horizons: every declared metric
//! is emitted exactly once per workload, exact metrics repeat bit for bit,
//! and the traced pass accounts for every event it stepped.

use std::path::PathBuf;

use sps_benchmark::ledger::{ledger, Metrics};
use sps_benchmark::measure::{kind_layer, Spec, KINDS, PHASES};
use sps_benchmark::report::{end_to_end, measure, per_layer};
use sps_benchmark::workloads::WORKLOADS;

// This file holds exactly one `#[test]`. The counting allocator is
// process-wide, and libtest's own thread allocates when it reports another
// test of the same binary as finished: with two tests here, `peak_live_bytes`
// of a repetition in flight read 21 bytes high. The benchmark binary is
// single-threaded, so its equality check on `peak_live_bytes` stays strict.

/// 2010 is the seed the harness was written with; the other was not used
/// until this test existed.
const SEEDS: [u64; 2] = [2010, 90_417];

/// End-to-end metrics that are simulated or counted, not timed.
const EXACT_END_TO_END: [&str; 3] = [
    "peak_live_bytes",
    "sim_latency_p50_ms",
    "sim_latency_p99_ms",
];

/// Per-layer metrics that must repeat exactly: event counts per kind and
/// phase, and every counter read from the public accessors.
fn exact_per_layer(name: &str) -> bool {
    name.ends_with(".events")
        || name.starts_with("core.msg.")
        || name.starts_with("cluster.net.") && !name.contains("send_ns")
        || [
            "sim.events_per_element",
            "sim.peak_queue_weight",
            "core.detections",
            "core.switchovers",
            "core.rollbacks",
            "core.promotions",
            "core.recovery_p50_ms",
            "core.recovery_p90_ms",
            "core.detect_p50_ms",
            "core.sink_duplicates_dropped",
        ]
        .contains(&name)
}

struct Pass {
    end_to_end: Metrics,
    per_layer: Metrics,
    digest: String,
}

fn pass(spec: Spec) -> Pass {
    let ledger = ledger();
    // Zero seconds: the minimum of two repetitions.
    let measured = measure(&[spec], 0.0).remove(0);
    assert_eq!(measured.reps.len(), 2);
    let e2e = end_to_end(&measured);
    assert!(e2e.verdict.correct(), "{}: {:?}", spec.wl.name, e2e.verdict);
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let (per_layer, verdict) = per_layer(spec, &out).expect("trace file is written");
    assert!(verdict.correct(), "{}: {verdict:?}", spec.wl.name);
    // Every declared name once, finite, and nothing undeclared. (A name
    // emitted twice panics inside `Metrics::put`.)
    e2e.metrics
        .against(&ledger.end_to_end)
        .expect("end-to-end names");
    per_layer
        .against(&ledger.per_layer)
        .expect("per-layer names");
    Pass {
        end_to_end: e2e.metrics,
        per_layer,
        digest: e2e.digest,
    }
}

#[test]
fn every_workload_emits_the_ledger_and_repeats_exactly() {
    let ledger = ledger();
    assert_eq!(
        ledger.workloads,
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>(),
        "BENCHMARK.json and workloads.rs name the same workloads in the same order"
    );
    for seed in SEEDS {
        for wl in &WORKLOADS {
            let spec = Spec {
                wl,
                seed,
                scale: 10,
                obs: wl.observers,
            };
            let a = pass(spec);
            let b = pass(spec);
            let get =
                |m: &Metrics, name: &str| m.get(name).unwrap_or_else(|| panic!("{name} missing"));

            assert_eq!(a.digest, b.digest, "{} seed {seed}", wl.name);
            for name in EXACT_END_TO_END {
                assert_eq!(
                    get(&a.end_to_end, name).to_bits(),
                    get(&b.end_to_end, name).to_bits(),
                    "{} seed {seed}: {name}",
                    wl.name
                );
            }
            for d in ledger.per_layer.iter().filter(|d| exact_per_layer(&d.name)) {
                assert_eq!(
                    get(&a.per_layer, &d.name).to_bits(),
                    get(&b.per_layer, &d.name).to_bits(),
                    "{} seed {seed}: {}",
                    wl.name,
                    d.name
                );
            }

            let events = get(&a.per_layer, "sim.events");
            assert!(events > 0.0);
            let by_kind: f64 = KINDS
                .iter()
                .map(|k| get(&a.per_layer, &format!("{}.{k}.events", kind_layer(k))))
                .sum();
            let by_phase: f64 = PHASES
                .iter()
                .map(|p| get(&a.per_layer, &format!("core.phase.{p}.events")))
                .sum();
            assert_eq!(by_kind, events, "{} seed {seed}: per-kind events", wl.name);
            assert_eq!(
                by_phase, events,
                "{} seed {seed}: per-phase events",
                wl.name
            );
            let shares: f64 = KINDS
                .iter()
                .map(|k| get(&a.per_layer, &format!("{}.{k}.wall_share", kind_layer(k))))
                .sum();
            assert!(
                (shares - 1.0).abs() < 0.01,
                "{} seed {seed}: wall shares sum to {shares}",
                wl.name
            );
        }
    }
    seeds_give_different_inputs();
}

fn seeds_give_different_inputs() {
    // A failure-free chain draws no randomness, so the rate and demand
    // factors are what make the seed an input; see workloads.rs.
    let spec = |seed| Spec {
        wl: &WORKLOADS[0],
        seed,
        scale: 10,
        obs: WORKLOADS[0].observers,
    };
    let a = end_to_end(&measure(&[spec(SEEDS[0])], 0.0).remove(0));
    let b = end_to_end(&measure(&[spec(SEEDS[1])], 0.0).remove(0));
    assert_ne!(a.digest, b.digest);
    assert_ne!(
        a.metrics.get("sim_latency_p50_ms"),
        b.metrics.get("sim_latency_p50_ms")
    );
}
