//! Repetitions: build → warm-up → sliced measured span → drain, with the
//! failure accounting and the simulated-statistics digest of every one.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use sps_engine::SubjobId;
use sps_ha::{HaEvent, HaEventKind, HaSimulation, SjState};
use sps_metrics::MsgCounters;
use sps_sim::counting_alloc;
use sps_sim::{SimDuration, SimTime, StepProbe};

use crate::workloads::{Observers, Unit, Workload, SLICE};

/// The event kinds the ledger names; everything else lands in `other`.
pub const KINDS: [&str; 8] = [
    "machine_tick",
    "deliver",
    "source_tick",
    "heartbeat_tick",
    "checkpoint_timer",
    "checkpoint_persisted",
    "retransmit",
    "other",
];

/// `HaWorld::protocol_phase()` labels.
pub const PHASES: [&str; 6] = [
    "steady",
    "switching_over",
    "switched_over",
    "rolling_back",
    "ps_deploying",
    "ps_connecting",
];

/// The ledger's layer for an event kind: the machine model lives in
/// `sps-cluster`, every other handler in `sps-core`.
pub fn kind_layer(kind: &str) -> &'static str {
    if kind == "machine_tick" {
        "cluster"
    } else {
        "core"
    }
}

fn kind_index(kind_name: &str) -> usize {
    match kind_name {
        "machine_tick" => 0,
        "deliver" => 1,
        "source_tick" => 2,
        "heartbeat_tick" => 3,
        "checkpoint_timer" => 4,
        "checkpoint_persisted" => 5,
        "rel_retransmit" | "retransmit_sweep" => 6,
        _ => 7,
    }
}

fn phase_index(phase: &str) -> usize {
    PHASES
        .iter()
        .position(|p| *p == phase)
        .unwrap_or_else(|| panic!("unknown protocol phase {phase}: add it to the ledger"))
}

/// Accumulated cost of the events under one label.
#[derive(Debug, Default, Clone, Copy)]
pub struct Bin {
    pub events: u64,
    pub wall_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Bin {
    fn add(&mut self, probe: &StepProbe) {
        self.events += 1;
        self.wall_ns += probe.wall_ns;
        self.allocs += probe.allocations;
        self.alloc_bytes += probe.alloc_bytes;
    }

    pub fn merge(&mut self, other: &Bin) {
        self.events += other.events;
        self.wall_ns += other.wall_ns;
        self.allocs += other.allocs;
        self.alloc_bytes += other.alloc_bytes;
    }
}

/// One slice of a traced repetition: a span whose children are the per-kind
/// bins and whose self time is what the handlers do not account for.
#[derive(Debug, Clone)]
pub struct SliceSpan {
    pub unit: usize,
    pub sim_start: SimTime,
    pub sim_end: SimTime,
    /// Host ns since the traced repetition began.
    pub host_start_ns: u64,
    pub wall_ns: u64,
    /// The part of `wall_ns` spent building the unit (campaign cells only).
    pub build_ns: u64,
    /// The part of `wall_ns` this harness spent reading the protocol phase
    /// before each event: a scan over every subjob, 2,049 of them on
    /// `sharded_scale`. Timed where it happens so it does not pass for queue
    /// pop time.
    pub classify_ns: u64,
    pub kinds: [Bin; KINDS.len()],
}

/// What stepping a repetition through `step_profiled` collects.
#[derive(Debug)]
pub struct Trace {
    pub began: Instant,
    pub slices: Vec<SliceSpan>,
    pub phases: [Bin; PHASES.len()],
    /// Sink-accepted elements over the traced slices.
    pub elements: u64,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            began: Instant::now(),
            slices: Vec::new(),
            phases: [Bin::default(); PHASES.len()],
            elements: 0,
        }
    }
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

/// The simulated statistics of one unit: exact under a fixed seed, so equal
/// across repetitions, traced or not.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitStats {
    pub produced: u64,
    pub accepted: u64,
    pub span_elements: u64,
    pub duplicates_dropped: u64,
    pub events: u64,
    pub span_events: u64,
    pub counters: MsgCounters,
    pub latency_p50_ms: f64,
    pub latency_p99_ms: f64,
    pub latency_samples: u64,
    pub ha_events: Vec<HaEvent>,
    pub all_normal: bool,
    pub peak_queue_weight: u64,
    pub net_msgs_sent: u64,
    pub net_chaos_dropped: u64,
    pub net_active_links: u64,
    pub net_sparse_bytes: u64,
    pub failures: Vec<(SubjobId, SimTime)>,
    /// `Some` when an auditor rode the unit.
    pub audit_violations: Option<u64>,
}

/// Host-side readings of one repetition.
#[derive(Debug, Default, Clone)]
pub struct Timing {
    /// Per unit: construction + `build()` + warm-up.
    pub setup_s: Vec<f64>,
    /// Per unit: the job/topology/placement share of the above.
    pub build_s: Vec<f64>,
    /// Per slice of the measured span, in order.
    pub slice_s: Vec<f64>,
    /// Per unit: counting-allocator peak live heap from before its build to
    /// the end of its drain. Exact, but a reading of the host side: a traced
    /// repetition's includes its spans, so it stays out of `UnitStats`.
    pub peak_live_bytes: Vec<u64>,
}

#[derive(Debug, Default, Clone)]
pub struct Rep {
    pub units: Vec<UnitStats>,
    pub timing: Timing,
    /// Operations attempted: elements the sources produced (the nominal
    /// count for a unit that panicked).
    pub attempted: u64,
    /// Lost, delivered twice, or belonging to a unit that panicked or ended
    /// with a subjob outside `SjState::Normal`.
    pub failed: u64,
    pub panicked_units: usize,
}

impl Rep {
    /// Peak live heap of one simulation. Over cells, the median of each
    /// cell's peak, as for the latency quantiles: the maximum over cells
    /// follows whichever rare cell shows up.
    pub fn peak_live_bytes(&self) -> u64 {
        let peaks: Vec<f64> = self
            .timing
            .peak_live_bytes
            .iter()
            .map(|&b| b as f64)
            .collect();
        median(&peaks) as u64
    }
}

/// What one repetition runs.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub wl: &'static Workload,
    pub seed: u64,
    /// Divisor of horizons and cell counts: 1 for the benchmark, 10 for its
    /// self-test.
    pub scale: u64,
    pub obs: Observers,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Steps to `to` under the profiler, binning every event by kind and phase.
fn step_to(sim: &mut HaSimulation, to: SimTime, span: &mut SliceSpan, phases: &mut [Bin]) {
    while sim.now() < to {
        // Read before the step, so classifying cannot perturb the handler.
        let t0 = Instant::now();
        let phase = phase_index(sim.world().protocol_phase());
        span.classify_ns += t0.elapsed().as_nanos() as u64;
        let Some((kind, probe)) = sim.step_profiled(|e| kind_index(e.kind_name())) else {
            break;
        };
        span.kinds[kind].add(&probe);
        phases[phase].add(&probe);
    }
}

fn run_unit(
    spec: Spec,
    unit_idx: usize,
    timing: &mut Timing,
    mut trace: Option<&mut Trace>,
) -> UnitStats {
    let live0 = counting_alloc::live_bytes();
    counting_alloc::reset_peak_live();
    let t0 = Instant::now();
    let Unit {
        mut sim,
        build_s,
        warmup_end,
        horizon,
        end,
        failures,
        ..
    } = spec.wl.build(spec.seed, unit_idx, spec.scale, spec.obs);
    sim.run_until(warmup_end);
    let mut carry = t0.elapsed().as_secs_f64();
    timing.setup_s.push(carry);
    timing.build_s.push(build_s);
    // A unit without warm-up is a campaign cell: its build is part of what a
    // campaign pays per cell, so the first slice carries it.
    if warmup_end > SimTime::ZERO {
        carry = 0.0;
    }
    let events0 = sim.events_processed();
    let accepted0 = sim.world().sinks()[0].accepted();

    // The event that crosses a stepping target is handled before the clock
    // is compared, so a traced repetition stops stepping one slice short of
    // the horizon and finishes under `run_until`; it then handles exactly
    // the events a timed repetition does.
    let trace_end = SimTime::from_nanos(horizon.as_nanos() - SLICE.as_nanos());
    // A campaign cell is one slice. (Slicing cells at 100 sim-ms too was
    // tried: in eight alternating pairs it read 16 % higher and spread no
    // less, 12.1 % against 11.1 %.)
    let whole_unit = warmup_end == SimTime::ZERO;
    let mut at = warmup_end;
    while at < horizon {
        let next = if whole_unit {
            horizon
        } else {
            (at + SLICE).min(horizon)
        };
        match trace.as_deref_mut() {
            None => {
                let ((), wall) = timed(|| sim.run_until(next));
                timing.slice_s.push(wall + carry);
            }
            Some(tr) => {
                let target = next.min(trace_end);
                if sim.now() < target {
                    let mut span = SliceSpan {
                        unit: unit_idx,
                        sim_start: at,
                        sim_end: target,
                        host_start_ns: tr.began.elapsed().as_nanos() as u64,
                        wall_ns: 0,
                        build_ns: (carry * 1e9) as u64,
                        classify_ns: 0,
                        kinds: [Bin::default(); KINDS.len()],
                    };
                    let ((), wall) = timed(|| step_to(&mut sim, target, &mut span, &mut tr.phases));
                    span.wall_ns = ((wall + carry) * 1e9) as u64;
                    timing.slice_s.push(wall + carry);
                    tr.slices.push(span);
                }
                if next > trace_end {
                    assert!(
                        sim.now() <= next,
                        "stepping overshot the slice end: events are sparser than a slice"
                    );
                    tr.elements += sim.world().sinks()[0].accepted() - accepted0;
                    sim.run_until(next);
                }
            }
        }
        carry = 0.0;
        at = next;
    }
    let span_events = sim.events_processed() - events0;
    let span_elements = sim.world().sinks()[0].accepted() - accepted0;
    sim.run_until(end);
    sim.finish_probes();

    // Read before the quantile queries below sort the latency samples.
    timing
        .peak_live_bytes
        .push(counting_alloc::peak_live_bytes().saturating_sub(live0));
    let audit_violations = spec.obs.auditor.then(|| sim.audit_violations());
    let events = sim.events_processed();
    let peak_queue_weight = sim.peak_queue_weight();
    let world = sim.world_mut();
    let latency = world.sinks_mut()[0].latency_mut();
    let latency_p50_ms = latency.quantile_ms(0.5).unwrap_or(0.0);
    let latency_p99_ms = latency.quantile_ms(0.99).unwrap_or(0.0);
    let latency_samples = latency.count();
    let network = world.cluster().network();
    UnitStats {
        produced: world.sources().iter().map(|s| s.produced()).sum(),
        accepted: world.sinks().iter().map(|s| s.accepted()).sum(),
        span_elements,
        duplicates_dropped: world.sinks().iter().map(|s| s.duplicates_dropped()).sum(),
        events,
        span_events,
        counters: *world.counters(),
        latency_p50_ms,
        latency_p99_ms,
        latency_samples,
        ha_events: world.ha_events(),
        all_normal: (0..world.job().subjob_count() as u32)
            .all(|sj| world.subjob(SubjobId(sj)).state == SjState::Normal),
        peak_queue_weight,
        net_msgs_sent: network.messages_sent(),
        net_chaos_dropped: network.chaos_dropped(),
        net_active_links: network.active_busy_links() as u64,
        net_sparse_bytes: network.sparse_state_bytes(),
        failures,
        audit_violations,
    }
}

/// Runs one repetition. With `trace`, the measured span is stepped through
/// `HaSimulation::step_profiled` instead of `run_until`.
pub fn run_rep(spec: Spec, mut trace: Option<&mut Trace>) -> Rep {
    let mut rep = Rep::default();
    for unit_idx in 0..spec.wl.units(spec.scale) {
        // A panic inside the simulator is a counted failure of that unit's
        // elements, never a crash of the benchmark.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_unit(spec, unit_idx, &mut rep.timing, trace.as_deref_mut())
        }));
        match outcome {
            Ok(stats) => {
                rep.attempted += stats.produced;
                rep.failed += if stats.all_normal {
                    // Lost elements, or duplicates the sink let through.
                    stats.produced.abs_diff(stats.accepted)
                } else {
                    stats.produced
                };
                rep.units.push(stats);
            }
            Err(_) => {
                let nominal = spec.wl.nominal_elements(spec.seed, unit_idx, spec.scale);
                rep.attempted += nominal;
                rep.failed += nominal;
                rep.panicked_units += 1;
            }
        }
    }
    rep
}

/// Host time of a measured span from `R` repetitions of the same slices:
/// Σᵢ minᵣ wallᵣ,ᵢ. The run is deterministic, so slice `i` does identical
/// work in every repetition; the per-slice minimum sheds time a noisy
/// neighbour stole from one repetition, and the sum keeps slices that are
/// slow in all of them (recovery). Ragged input (a unit panicked) is cut to
/// the shortest repetition.
pub fn sigma_min(reps: &[&[f64]]) -> f64 {
    let n = reps.iter().map(|r| r.len()).min().unwrap_or(0);
    (0..n)
        .map(|i| reps.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .sum()
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile of sorted-on-the-fly samples, nearest rank.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Sim-ms from each injected failure to the first `kinds` event on the hit
/// subjob within the following 10 sim-s (the spacing of injected failures).
pub fn ms_from_failure(stats: &UnitStats, from: &[HaEventKind], until: &[HaEventKind]) -> Vec<f64> {
    let window = SimDuration::from_secs(10);
    stats
        .failures
        .iter()
        .filter_map(|&(subjob, at)| {
            let mut cycle = stats
                .ha_events
                .iter()
                .filter(|e| e.subjob == subjob && e.at >= at && e.at < at + window);
            let first = cycle.find(|e| from.contains(&e.kind))?;
            let last = if until.contains(&first.kind) {
                first
            } else {
                cycle.find(|e| until.contains(&e.kind))?
            };
            Some(last.at.saturating_since(at).as_millis_f64())
        })
        .collect()
}

/// A stable 64-bit FNV-1a digest of the simulated statistics, for result
/// files; the repetitions themselves are compared field by field.
pub fn digest(units: &[UnitStats]) -> String {
    let text = format!("{units:?}");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigma_min_returns_the_planted_floor() {
        // Every slice has a floor; each repetition is the floor plus noise
        // that hits different slices, and every slice is clean in at least
        // one repetition.
        let floor: Vec<f64> = (0..50).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
        let reps: Vec<Vec<f64>> = (0..5)
            .map(|r| {
                floor
                    .iter()
                    .enumerate()
                    .map(|(i, f)| {
                        if i % 5 == r {
                            *f
                        } else {
                            f + 0.1 * ((i + r) % 3 + 1) as f64
                        }
                    })
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = reps.iter().map(|r| r.as_slice()).collect();
        let planted: f64 = floor.iter().sum();
        assert_eq!(sigma_min(&refs), planted);
        // Whole-repetition totals all sit above it.
        for r in &reps {
            assert!(r.iter().sum::<f64>() > planted);
        }
        assert_eq!(sigma_min(&[]), 0.0);
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.9), 4.0);
    }
}
