//! The six workloads. Parameters are constants here; README.md says why
//! each workload exists and which layer it leans on.
//!
//! Every workload is an open loop: sources emit at a fixed sim-time rate
//! whatever the pipeline does. The inputs are made from the seed: besides
//! seeding the simulation's own RNG (failure detection phases, Zipf keys,
//! cell seeds), the seed draws a ±0.5 % factor for the source rate and
//! for the per-element CPU demand, because a failure-free chain consumes no
//! randomness at all and would otherwise be the same input under every seed.

use std::time::Instant;

use sps_audit::Auditor;
use sps_cluster::{ChaosPlan, FaultTopology, MachineId, SpikeWindow};
use sps_engine::SubjobId;
use sps_ha::{HaMode, HaSimulation, HaSimulationBuilder, RateProfile};
use sps_observe::HealthConfig;
use sps_sim::{SimDuration, SimRng, SimTime};
use sps_trace::SharedRecorder;
use sps_workloads::{chain_job_with, sharded_job, sharded_placement, ZipfKeys};

/// Width of one timed slice of the measured span.
pub const SLICE: SimDuration = SimDuration::from_millis(100);
/// Untimed warm-up before the measured span: fills chunk pools, timer-wheel
/// buckets and scratch buffers. Counted in `setup_s`.
pub const WARMUP: SimDuration = SimDuration::from_secs(1);
/// Untimed drain after the sources stop, so produced == accepted is decidable.
pub const DRAIN: SimDuration = SimDuration::from_secs(5);

/// Length of one chaos cell, and when its sources stop (as `chaos_campaign`).
const CELL_END: SimTime = SimTime::from_secs(16);
const CELL_SOURCES_STOP: SimTime = SimTime::from_secs(10);

/// Which observation layers ride a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Observers {
    pub recorder: bool,
    pub lineage: bool,
    pub registry: bool,
    pub health: bool,
    pub auditor: bool,
}

impl Observers {
    pub const NONE: Observers = Observers {
        recorder: false,
        lineage: false,
        registry: false,
        health: false,
        auditor: false,
    };
    pub const ALL: Observers = Observers {
        recorder: true,
        lineage: true,
        registry: true,
        health: true,
        auditor: true,
    };

    pub fn with_auditor(mut self) -> Observers {
        self.auditor = true;
        self
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Chain { batch_size: u32 },
    Sharded,
    Transient,
    ChaosCells,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    kind: Kind,
    /// Measured span in sim-ms at scale 1 (per cell for `chaos_cells`).
    span_ms: u64,
    /// Independent simulations per repetition.
    units: usize,
    /// The observers every repetition of this workload carries.
    pub observers: Observers,
}

pub static WORKLOADS: [Workload; 6] = [
    Workload {
        name: "steady_chain",
        kind: Kind::Chain { batch_size: 1 },
        span_ms: 30_000,
        units: 1,
        observers: Observers::NONE,
    },
    Workload {
        name: "batched_chain",
        kind: Kind::Chain { batch_size: 64 },
        span_ms: 150_000,
        units: 1,
        observers: Observers::NONE,
    },
    Workload {
        name: "sharded_scale",
        kind: Kind::Sharded,
        span_ms: 10_000,
        units: 1,
        observers: Observers::NONE,
    },
    Workload {
        name: "transient_failures",
        kind: Kind::Transient,
        span_ms: 250_000,
        units: 1,
        observers: Observers::NONE,
    },
    Workload {
        name: "chaos_cells",
        kind: Kind::ChaosCells,
        span_ms: 16_000,
        units: 32,
        observers: Observers::NONE,
    },
    Workload {
        name: "observed_chain",
        kind: Kind::Chain { batch_size: 1 },
        span_ms: 6_000,
        units: 1,
        observers: Observers::ALL,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One built simulation: a whole repetition, or one chaos cell.
pub struct Unit {
    pub sim: HaSimulation,
    pub recorder: Option<SharedRecorder>,
    /// Host seconds spent constructing job, topology and placement.
    pub build_s: f64,
    /// End of the untimed warm-up (`ZERO` when the unit has none).
    pub warmup_end: SimTime,
    /// End of the measured span; sources stop no later than this.
    pub horizon: SimTime,
    /// End of the drain.
    pub end: SimTime,
    /// Ground truth for detection and recovery times: which subjob's primary
    /// was hit, and when.
    pub failures: Vec<(SubjobId, SimTime)>,
}

/// A ±0.5 % factor drawn from the seed.
fn jitter(seed: u64, stream: u64) -> f64 {
    1.0 + (SimRng::seed_from(seed).fork(stream).unit() - 0.5) * 0.01
}

fn observe(
    mut b: HaSimulationBuilder,
    obs: Observers,
) -> (HaSimulationBuilder, Option<SharedRecorder>) {
    let mut recorder = None;
    if obs.recorder {
        let r = SharedRecorder::default();
        b = b.trace_sink(Box::new(r.clone()));
        recorder = Some(r);
    }
    if obs.registry {
        b = b.collect_metrics(true);
    }
    if obs.health {
        b = b.health(HealthConfig::default());
    }
    if obs.auditor {
        b = b.trace_probe(Box::new(Auditor::new()));
    }
    // Every workload is lossless and ends drained; declaring it costs nothing
    // without a sink and arms the auditor's end-of-run checks with one.
    (
        b.lineage(obs.lineage).audit_expectations(true, true),
        recorder,
    )
}

impl Workload {
    /// The seed of one unit: the workload seed itself, except that every
    /// campaign cell gets its own. A cell's simulation draws nothing random
    /// once the loss window is gone, so it is the input factors drawn from
    /// this seed that make the cells of a run differ, as a campaign's do.
    fn unit_seed(&self, seed: u64, unit: usize) -> u64 {
        match self.kind {
            Kind::ChaosCells => SimRng::seed_from(seed).fork(unit as u64).next_u64(),
            _ => seed,
        }
    }

    /// Source rate in elements per sim-s under a unit's seed.
    fn rate(&self, seed: u64) -> f64 {
        let nominal = match self.kind {
            Kind::Chain { .. } => 10_000.0,
            Kind::Sharded => 2_000.0,
            Kind::Transient => 1_000.0,
            Kind::ChaosCells => 500.0,
        };
        nominal * jitter(seed, 0xBE7C_0001)
    }

    /// When the sources of a unit stop.
    fn sources_stop(&self, scale: u64) -> SimTime {
        match self.kind {
            Kind::ChaosCells => CELL_SOURCES_STOP,
            _ => SimTime::ZERO + WARMUP + self.span(scale),
        }
    }

    /// Elements one unit's sources emit if nothing goes wrong; what a unit
    /// that panicked is charged as attempted and failed.
    pub fn nominal_elements(&self, seed: u64, unit: usize, scale: u64) -> u64 {
        (self.rate(self.unit_seed(seed, unit)) * self.sources_stop(scale).as_secs_f64()) as u64
    }

    /// Simulations per repetition at `scale` (a divisor: 10 = one tenth).
    pub fn units(&self, scale: u64) -> usize {
        self.units.div_ceil(scale as usize)
    }

    /// Measured span of one unit at `scale`.
    pub fn span(&self, scale: u64) -> SimDuration {
        match self.kind {
            // A cell is a fixed scenario; scale takes cells away instead.
            Kind::ChaosCells => SimDuration::from_millis(self.span_ms),
            _ => SimDuration::from_millis(self.span_ms / scale),
        }
    }

    /// Builds unit `unit` of a repetition, observers attached, sources set to
    /// stop at the horizon.
    pub fn build(&self, seed: u64, unit: usize, scale: u64, obs: Observers) -> Unit {
        let seed = self.unit_seed(seed, unit);
        let rate = self.rate(seed);
        let demand_f = jitter(seed, 0xBE7C_0002);
        let span = self.span(scale);
        let t0 = Instant::now();
        let (warmup_end, horizon, end) = match self.kind {
            Kind::ChaosCells => (SimTime::ZERO, CELL_END, CELL_END),
            _ => {
                let horizon = SimTime::ZERO + WARMUP + span;
                (SimTime::ZERO + WARMUP, horizon, horizon + DRAIN)
            }
        };
        let mut failures = Vec::new();
        let builder = match self.kind {
            Kind::Chain { batch_size } => {
                HaSimulation::builder(chain_job_with(15e-6 * demand_f, 20, 8, 4))
                    .mode(HaMode::Hybrid)
                    .source_rate(rate)
                    .tune(|c| c.batch_size = batch_size)
                    .seed(seed)
            }
            Kind::Sharded => {
                let job = sharded_job(2_048, 2e-5 * demand_f, 64);
                let topology = FaultTopology::grid(1_000, 20, 5);
                let placement = sharded_placement(&job, 1_000, &topology);
                HaSimulation::builder(job)
                    .topology(topology)
                    .placement(placement)
                    .source_profile(
                        0,
                        RateProfile::Constant { per_sec: rate },
                        ZipfKeys::new(1_000_000, 1.05).payload_gen(),
                    )
                    .seed(seed)
            }
            Kind::Transient => HaSimulation::builder(chain_job_with(3e-4 * demand_f, 20, 8, 4))
                .subjob_mode(SubjobId(0), HaMode::Hybrid)
                .subjob_mode(SubjobId(1), HaMode::Active)
                .subjob_mode(SubjobId(2), HaMode::Passive)
                .subjob_mode(SubjobId(3), HaMode::Hybrid)
                .source_rate(rate)
                .tune(|c| c.reliable_control = true)
                .seed(seed),
            Kind::ChaosCells => {
                // `chaos_campaign` also opens a 2 % bursty loss window. That
                // is left out on purpose: under that loss the protocol
                // permanently loses data in about one cell in 10^4 even with
                // no failure injected, and far more often when the window
                // overlaps a fail-stop (README, "Non-workloads"), and a
                // benchmark's operations must not fail. The fail-stop alone
                // failed in 0 of 12,000 cells. The cost: no workload sends
                // through `Network`'s chaos path; only the standalone
                // `cluster.net.send_ns.chaos` covers it.
                let fail_at = SimTime::from_secs(1);
                let plan = ChaosPlan::default()
                    .correlated_fail_stop(fail_at, &[MachineId(1), MachineId(3)]);
                failures = vec![(SubjobId(1), fail_at), (SubjobId(3), fail_at)];
                HaSimulation::builder(chain_job_with(3e-4 * demand_f, 20, 8, 4))
                    .mode(HaMode::Hybrid)
                    .source_rate(rate)
                    .tune(|c| {
                        c.reliable_control = true;
                        c.failstop_miss_threshold = 20;
                    })
                    .chaos(plan)
                    .seed(seed)
            }
        };
        let build_s = t0.elapsed().as_secs_f64();
        let (builder, recorder) = observe(builder, obs);
        let mut sim = builder.build();
        // Scheduled now, not when the horizon is reached, so a repetition
        // stepped event by event orders it exactly like a timed one.
        sim.stop_sources_at(self.sources_stop(scale));
        if self.kind == Kind::Transient {
            // A 2 s full-CPU spike every 10 sim-s, rotating over the four
            // primaries (subjob i's primary is machine i).
            let mut start = SimTime::from_secs(5);
            let mut k = 0u32;
            while start + SimDuration::from_secs(2) < horizon {
                let window = SpikeWindow {
                    start,
                    end: start + SimDuration::from_secs(2),
                    share: 1.0,
                };
                sim.inject_spike_windows(MachineId(k % 4), &[window]);
                failures.push((SubjobId(k % 4), start));
                start += SimDuration::from_secs(10);
                k += 1;
            }
        }
        Unit {
            sim,
            recorder,
            build_s,
            warmup_end,
            horizon,
            end,
            failures,
        }
    }
}
