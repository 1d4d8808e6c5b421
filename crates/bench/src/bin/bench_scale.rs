//! Scaling-curve benchmark: sharded jobs across a machines × shards grid.
//!
//! For every cell of machines ∈ {83, 500, 1000, 5000} × shards ∈
//! {8, 256, 2048} (`--quick` keeps {83×8, 500×256}), one key-partitioned
//! sharded job (router + one subjob per shard, Zipf-skewed keys) runs for
//! a fixed simulated span, and the harness records:
//!
//! * **deterministic, world-derived values** — elements produced/accepted,
//!   DES events, peak logical queue weight, active network links and
//!   sparse network bytes — printed to **stdout**, which is byte-identical
//!   across `--jobs` values and repeat runs;
//! * **host-dependent values** — wall-clock, events/second, peak live heap
//!   (with `--features bench` at `--jobs 1`), peak RSS, and the
//!   dense-matrix bytes those machines would have needed (a `size_of` sum
//!   that moves with struct layout, not with behaviour) — written only to
//!   the JSON report (`BENCH_scale.json`, or `--out <path>`).
//!
//! A final pair of runs compares recovery of the *hot* shard (the one
//! owning Zipf rank 1) against a *cold* shard under the same skew: the
//! failed shard recovers through its own per-shard checkpoint while every
//! other shard keeps its steady state.

use std::time::Instant;

use sps_bench::common::{peak_rss_bytes, RunOpts, Scale};
use sps_cluster::{FaultTopology, Network};
use sps_engine::SubjobId;
use sps_ha::{HaMode, HaSimulation, RateProfile, SjState};
use sps_sim::{SimDuration, SimTime};
use sps_workloads::{sharded_job, sharded_placement, single_failure, ZipfKeys};

#[cfg(feature = "bench")]
use sps_sim::counting_alloc::{self, CountingAllocator};

#[cfg(feature = "bench")]
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Per-element CPU demand of each shard operator (seconds).
const SHARD_DEMAND_SECS: f64 = 2e-5;
/// Shard operator state footprint (elements) carried by each checkpoint.
const SHARD_STATE_ELEMENTS: u64 = 64;
/// Source rate for every cell (elements/second).
const SOURCE_RATE: f64 = 2_000.0;

fn grid_for(machines: usize) -> FaultTopology {
    if machines <= 100 {
        FaultTopology::grid(machines, 4, 3)
    } else {
        FaultTopology::grid(machines, 20, 5)
    }
}

struct CellOut {
    machines: usize,
    shards: usize,
    subjobs: usize,
    produced: u64,
    accepted: u64,
    events: u64,
    peak_queue_weight: u64,
    net_active_links: usize,
    net_sparse_bytes: u64,
    dense_net_bytes: u64,
    wall_ms: f64,
    run_ms: f64,
    peak_live_bytes: Option<u64>,
}

fn run_cell(
    machines: usize,
    shards: usize,
    sim_secs: u64,
    seed: u64,
    attribute_heap: bool,
) -> CellOut {
    #[cfg(feature = "bench")]
    if attribute_heap {
        counting_alloc::reset_peak_live();
    }
    #[cfg(not(feature = "bench"))]
    let _ = attribute_heap;
    let t0 = Instant::now();
    let job = sharded_job(shards, SHARD_DEMAND_SECS, SHARD_STATE_ELEMENTS);
    let subjobs = job.subjob_count();
    let topology = grid_for(machines);
    let placement = sharded_placement(&job, machines, &topology);
    let zipf = ZipfKeys::new(1_000_000, 1.05);
    let mut sim = HaSimulation::builder(job)
        .topology(topology)
        .placement(placement)
        .source_profile(
            0,
            RateProfile::Constant {
                per_sec: SOURCE_RATE,
            },
            zipf.payload_gen(),
        )
        .seed(seed)
        .build();
    let t_run = Instant::now();
    sim.run_for(SimDuration::from_secs(sim_secs));
    let run_ms = t_run.elapsed().as_secs_f64() * 1e3;
    let produced = sim.world().sources()[0].produced();
    let events = sim.events_processed();
    let peak_queue_weight = sim.peak_queue_weight();
    let accepted = sim.report().sink_accepted;
    let network = sim.world().cluster().network();
    let net_active_links = network.active_busy_links();
    let net_sparse_bytes = network.sparse_state_bytes();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    #[cfg(feature = "bench")]
    let peak_live_bytes = attribute_heap.then(counting_alloc::peak_live_bytes);
    #[cfg(not(feature = "bench"))]
    let peak_live_bytes = None;
    CellOut {
        machines,
        shards,
        subjobs,
        produced,
        accepted,
        events,
        peak_queue_weight,
        net_active_links,
        net_sparse_bytes,
        dense_net_bytes: Network::dense_equivalent_bytes(machines),
        wall_ms,
        run_ms,
        peak_live_bytes,
    }
}

/// Per-element CPU demand in the recovery comparison — heavy enough that
/// reprocessing a hot shard's backlog takes visible sim-time.
const RECOVERY_DEMAND_SECS: f64 = 1e-3;

struct RecoveryOut {
    label: &'static str,
    shard: u32,
    subjob: u32,
    /// Sink accepts by one sim-second after failure inception.
    accepted_1s: u64,
    detected_ms: f64,
    ready_ms: f64,
    other_shards_normal: bool,
}

/// Fails the primary machine of one shard of an 83-machine, 8-shard cell
/// under heavy Zipf skew (`shard = None` runs the failure-free baseline).
///
/// The shards run in passive-standby mode with a long checkpoint interval,
/// so recovery goes through the per-shard checkpoint path: the hot shard
/// must retransmit and reprocess everything since its last sweep-visit
/// while the cold shard replays almost nothing. Because the healthy
/// shards keep feeding the shared sink throughout, the comparison metric
/// is the *accepted-element deficit* against the baseline at a fixed
/// instant (one sim-second after inception) — a deterministic,
/// world-derived number that scales with the failed shard's load.
fn run_recovery(label: &'static str, shard: Option<u32>, seed: u64) -> RecoveryOut {
    let shards = 8usize;
    let job = sharded_job(shards, RECOVERY_DEMAND_SECS, SHARD_STATE_ELEMENTS);
    let subjob = shard.map(|s| job.shard_subjob(s as usize));
    let topology = grid_for(83);
    let placement = sharded_placement(&job, 83, &topology);
    let zipf = ZipfKeys::new(100_000, 1.2);
    let mut sim = HaSimulation::builder(job)
        .topology(topology)
        .placement(placement.clone())
        .mode(HaMode::Passive)
        .tune(|c| c.checkpoint_interval = SimDuration::from_secs(2))
        .source_profile(
            0,
            RateProfile::Constant {
                per_sec: SOURCE_RATE,
            },
            zipf.payload_gen(),
        )
        .seed(seed)
        .log_sink_accepts(true)
        .build();
    let failure_at = SimTime::from_secs(5);
    if let Some(sj) = subjob {
        sim.inject_spike_windows(
            placement.primaries[sj.0 as usize],
            &single_failure(failure_at, SimDuration::from_secs(10)),
        );
    }
    sim.run_until(failure_at + SimDuration::from_secs(1));
    let other_shards_normal = (0..shards)
        .filter(|&s| Some(s as u32) != shard)
        .all(|s| sim.world().subjob(SubjobId(1 + s as u32)).state == SjState::Normal);
    let timeline = subjob.and_then(|sj| sim.recovery_timeline(sj, failure_at));
    RecoveryOut {
        label,
        shard: shard.unwrap_or(0),
        subjob: subjob.map_or(0, |sj| sj.0),
        accepted_1s: sim.report().sink_accepted,
        detected_ms: timeline.as_ref().map_or(0.0, |t| t.detected_ms),
        ready_ms: timeline.as_ref().map_or(0.0, |t| t.ready_ms),
        other_shards_normal,
    }
}

fn json_f(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".to_string()
    }
}

fn json_opt_u64(x: Option<u64>) -> String {
    x.map_or_else(|| "null".to_string(), |v| v.to_string())
}

fn main() {
    let (opts, _, out) = RunOpts::parse_or_exit("bench_scale", &[], Some("--out"));
    let out = out.unwrap_or_else(|| "BENCH_scale.json".to_string());
    // --quick trims the *grid*, not the simulated span: the per-cell cost
    // is small (~1 s wall for the worst cell), and keeping the span makes
    // the quick cells' events/sec directly comparable with the committed
    // full-scale BENCH_scale.json — which is what CI's regression gate
    // does. A shorter span would under-read eps (startup work amortizes
    // over fewer events) and trip the gate spuriously.
    let sim_secs = 10;
    let machines_axis: &[usize] = &[83, 500, 1_000, 5_000];
    let shards_axis: &[usize] = &[8, 256, 2_048];
    let cells: Vec<(usize, usize)> = match opts.scale {
        Scale::Full => machines_axis
            .iter()
            .flat_map(|&m| shards_axis.iter().map(move |&s| (m, s)))
            .collect(),
        Scale::Quick => vec![(83, 8), (500, 256)],
    };
    // Per-cell heap attribution needs the cells to run alone in the
    // process; with --jobs > 1 the counters interleave, so they are
    // reported as null.
    let attribute_heap = opts.jobs == 1;
    eprintln!(
        "bench_scale: {} cells ({} scale, seed {}, --jobs {}, sim {sim_secs}s/cell)",
        cells.len(),
        opts.scale.pick("full", "quick"),
        opts.seed,
        opts.jobs
    );

    let runner = opts.runner();
    let seed = opts.seed;
    let results: Vec<CellOut> = runner.map(cells, |(m, s)| {
        run_cell(m, s, sim_secs, seed, attribute_heap)
    });

    println!("== bench_scale — sharded scale-out curve ==");
    println!();
    println!(
        "{:>8} {:>7} {:>8} {:>9} {:>9} {:>11} {:>10} {:>13}",
        "machines",
        "shards",
        "subjobs",
        "produced",
        "accepted",
        "peak_queue",
        "net_links",
        "net_bytes"
    );
    for c in &results {
        println!(
            "{:>8} {:>7} {:>8} {:>9} {:>9} {:>11} {:>10} {:>13}",
            c.machines,
            c.shards,
            c.subjobs,
            c.produced,
            c.accepted,
            c.peak_queue_weight,
            c.net_active_links,
            c.net_sparse_bytes
        );
        eprintln!(
            "  {}x{}: {:.0} ms, {} events{}",
            c.machines,
            c.shards,
            c.wall_ms,
            c.events,
            match c.peak_live_bytes {
                Some(b) => format!(", peak heap {:.1} MiB", b as f64 / (1024.0 * 1024.0)),
                None => String::new(),
            }
        );
    }
    println!();

    let zipf = ZipfKeys::new(100_000, 1.2);
    let (hot, cold) = (zipf.hot_shard(8), zipf.cold_shard(8));
    let recoveries: Vec<RecoveryOut> = runner.map(
        vec![("base", None), ("hot", Some(hot)), ("cold", Some(cold))],
        |(label, shard)| run_recovery(label, shard, seed),
    );
    let baseline = recoveries[0].accepted_1s;
    println!("recovery under zipf keys (s=1.2, passive standbys, 2s checkpoints, 83 machines x 8 shards):");
    println!("  baseline (no failure) accepted by +1s: {baseline}");
    for r in recoveries.iter().skip(1) {
        println!(
            "  {:<4} shard {} (subjob {}): detect {:.1} ms, ready {:.1} ms, \
             deficit at +1s: {} elements, other shards steady: {}",
            r.label,
            r.shard,
            r.subjob,
            r.detected_ms,
            r.ready_ms,
            baseline.saturating_sub(r.accepted_1s),
            r.other_shards_normal
        );
    }
    println!();

    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"sps-bench-scale-v1\",\n");
    json.push_str(&format!(
        "  \"scale\": \"{}\",\n",
        opts.scale.pick("full", "quick")
    ));
    json.push_str(&format!("  \"seed\": {},\n", opts.seed));
    json.push_str(&format!("  \"jobs\": {},\n", opts.jobs));
    json.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    json.push_str(&format!("  \"sim_secs_per_cell\": {sim_secs},\n"));
    json.push_str("  \"cells\": [\n");
    for (i, c) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let eps = c.events as f64 / (c.run_ms / 1e3).max(1e-9);
        json.push_str(&format!(
            "    {{\"machines\": {}, \"shards\": {}, \"subjobs\": {}, \
             \"produced\": {}, \"accepted\": {}, \"events\": {}, \
             \"peak_queue_weight\": {}, \"net_active_links\": {}, \
             \"net_sparse_bytes\": {}, \"dense_net_bytes\": {}, \
             \"wall_ms\": {}, \"run_ms\": {}, \"events_per_sec\": {}, \
             \"peak_live_bytes\": {}, \"heap_per_machine_bytes\": {}}}{comma}\n",
            c.machines,
            c.shards,
            c.subjobs,
            c.produced,
            c.accepted,
            c.events,
            c.peak_queue_weight,
            c.net_active_links,
            c.net_sparse_bytes,
            c.dense_net_bytes,
            json_f(c.wall_ms),
            json_f(c.run_ms),
            json_f(eps),
            json_opt_u64(c.peak_live_bytes),
            json_opt_u64(c.peak_live_bytes.map(|b| b / c.machines as u64)),
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"recovery\": {\n");
    json.push_str(&format!(
        "    \"baseline_accepted_1s\": {baseline},\n    \"cases\": [\n"
    ));
    let cases: Vec<&RecoveryOut> = recoveries.iter().skip(1).collect();
    for (i, r) in cases.iter().enumerate() {
        let comma = if i + 1 < cases.len() { "," } else { "" };
        json.push_str(&format!(
            "      {{\"which\": \"{}\", \"shard\": {}, \"subjob\": {}, \
             \"detected_ms\": {}, \"ready_ms\": {}, \"accepted_1s\": {}, \
             \"deficit_elements\": {}, \"other_shards_normal\": {}}}{comma}\n",
            r.label,
            r.shard,
            r.subjob,
            json_f(r.detected_ms),
            json_f(r.ready_ms),
            r.accepted_1s,
            baseline.saturating_sub(r.accepted_1s),
            r.other_shards_normal,
        ));
    }
    json.push_str("    ]\n  },\n");
    json.push_str(&format!(
        "  \"peak_rss_bytes\": {}\n",
        json_opt_u64(peak_rss_bytes())
    ));
    json.push_str("}\n");

    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("error: could not write {out}: {e}");
        std::process::exit(1);
    }
    eprintln!("bench_scale: report written to {out}");
}
