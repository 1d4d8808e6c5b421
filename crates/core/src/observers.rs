//! The read-only observation layers a world can carry beside the trace bus:
//! causal lineage, the metrics registry, the online health engine, and the
//! periodic sampler that feeds them. None of it is protocol state; every
//! layer is off unless the builder switches it on, and an observed run
//! keeps the event schedule of a plain one.

use sps_cluster::{Cluster, MachineId};
use sps_engine::Replica;
use sps_metrics::{Registry, Scope};
use sps_observe::HealthEngine;
use sps_sim::{SimDuration, SimTime};
use sps_trace::{LineageTable, TraceEvent, Tracer};

use crate::config::{HaConfig, HaMode};
use crate::slot::Slot;
use crate::world::{replica_code, slot_of, unslot, HaWorld, SubjobHa, TaskTag};

/// The period of [`Event::Sample`](crate::Event::Sample), in simulated
/// time.
pub const SAMPLE_INTERVAL: SimDuration = SimDuration::from_millis(100);

/// Every observation layer of one world, and the sampler's memory.
#[derive(Debug, Default)]
pub(crate) struct Observers {
    /// Causal tuple lineage, when enabled on the builder. Boxed so the
    /// disabled (default) case costs one pointer and one branch per hook.
    lineage: Option<Box<LineageTable>>,
    /// The metrics registry (scoped counters/gauges/histograms and their
    /// scrape history), when enabled on the builder.
    metrics: Option<Box<Registry>>,
    /// The online health engine, when enabled on the builder (it implies
    /// the registry). Stepped after every registry scrape; strictly
    /// read-only over the simulation, like the sampler itself.
    health: Option<Box<HealthEngine>>,
    /// The sampler's busy window, per machine: `(last_sample_time,
    /// busy_integral_at_last_sample)`. Strictly read-only with respect to
    /// the simulation (separate from the world's scheduling load estimate).
    /// Empty unless the sampler runs.
    sample_busy: Vec<(SimTime, f64)>,
    /// Last queue high-water marks emitted per instance slot:
    /// `(input, output)`; only growth produces a new trace event. Empty
    /// unless the sampler runs.
    trace_queue_hw: Vec<(u64, u64)>,
    /// Ground truth for the health engine: `(machine, nanoseconds)` of
    /// every injected spike start and fail-stop.
    injections: Vec<(u32, u64)>,
}

impl Observers {
    /// The layers the builder asked for over `world`, whose trace sinks and
    /// probes are already installed. The health engine steps on registry
    /// scrapes, so it brings the registry whatever `metrics` says. The
    /// sampler runs — and its tables exist — only when something observes
    /// it: a trace sink or probe, or the registry.
    pub(crate) fn new(world: &HaWorld, lineage: bool, metrics: bool, health: bool) -> Observers {
        let metrics = metrics || health;
        let sampled = metrics || world.tracer.is_enabled();
        let table = |len: usize| if sampled { len } else { 0 };
        Observers {
            // One column per stream up front, so recording never grows the
            // vector.
            lineage: lineage
                .then(|| Box::new(LineageTable::with_streams(world.job.stream_count()))),
            metrics: metrics.then(|| Box::new(Registry::new())),
            health: health.then(|| Box::new(HealthEngine::new(world.cfg.checkpoint_interval))),
            sample_busy: vec![(SimTime::ZERO, 0.0); table(world.cluster.len())],
            trace_queue_hw: vec![(0, 0); table(world.slots.len())],
            injections: Vec::new(),
        }
    }

    /// `true` when [`Event::Sample`](crate::Event::Sample) runs. Every
    /// world has a machine, so the per-machine table is empty exactly when
    /// nothing observes the sampler.
    pub(crate) fn samples(&self) -> bool {
        !self.sample_busy.is_empty()
    }

    /// The lineage table, when lineage tracking was enabled.
    pub(crate) fn lineage(&self) -> Option<&LineageTable> {
        self.lineage.as_deref()
    }

    /// The lineage table to record into — one branch when lineage is off.
    #[inline]
    pub(crate) fn lineage_mut(&mut self) -> Option<&mut LineageTable> {
        self.lineage.as_deref_mut()
    }

    /// The metrics registry, when metrics collection was enabled.
    pub(crate) fn metrics(&self) -> Option<&Registry> {
        self.metrics.as_deref()
    }

    /// The metrics registry to record into — one branch when metrics are
    /// off.
    #[inline]
    pub(crate) fn metrics_mut(&mut self) -> Option<&mut Registry> {
        self.metrics.as_deref_mut()
    }

    /// The health engine, when enabled.
    pub(crate) fn health(&self) -> Option<&HealthEngine> {
        self.health.as_deref()
    }

    /// Adds `by` to a registry counter — one branch when metrics are off.
    #[inline]
    pub(crate) fn metric_inc(&mut self, scope: Scope, name: &'static str, by: u64) {
        if let Some(registry) = self.metrics.as_deref_mut() {
            registry.inc(scope, name, by);
        }
    }

    /// Records the start of an injected failure — a spike or a fail-stop —
    /// as ground truth.
    pub(crate) fn note_injection(&mut self, machine: MachineId, at: SimTime) {
        self.injections.push((machine.0, at.as_nanos()));
    }

    /// The sim-timer-driven sampler. It walks every machine once and then
    /// every PE copy once, and feeds both observers in the same pass: with a
    /// trace sink or probe installed, per-machine load and per-PE queue
    /// snapshots plus queue high-water growth; with metrics enabled, the
    /// machine and PE gauges, then one scrape and a health-engine step.
    /// Strictly read-only — it never advances machines, touches the
    /// scheduling load estimate, or draws randomness, so an observed run
    /// stays bit-identical to a plain one.
    pub(crate) fn sample(
        &mut self,
        now: SimTime,
        cluster: &Cluster<TaskTag>,
        slots: &[Slot],
        subjobs: &[SubjobHa],
        cfg: &HaConfig,
        tracer: &mut Tracer,
    ) {
        let tracing = tracer.is_enabled();
        for m in 0..cluster.len() {
            let machine = cluster.machine(MachineId(m as u32));
            // `busy_integral` is current as of the machine's last advance;
            // under steady traffic that lags by at most one task.
            let busy = machine.busy_integral();
            let (last_t, last_busy) = self.sample_busy[m];
            let dt = now.saturating_since(last_t).as_secs_f64();
            let cpu_load = if dt > 0.0 {
                ((busy - last_busy) / dt).max(0.0)
            } else {
                0.0
            };
            self.sample_busy[m] = (now, busy);
            if tracing {
                tracer.emit(
                    now,
                    TraceEvent::MachineSnapshot {
                        machine: m as u32,
                        cpu_load,
                        background: machine.background_share(),
                        run_queue: machine.active_tasks() as u32,
                    },
                );
            }
            if let Some(registry) = self.metrics.as_deref_mut() {
                let scope = Scope::machine("cluster", m as u32);
                registry.set_gauge(scope, "cpu_load", cpu_load);
                registry.set_gauge(scope, "background_share", machine.background_share());
                registry.set_gauge(scope, "run_queue", machine.active_tasks() as f64);
                registry.set_gauge(scope, "run_queue_hw", machine.run_queue_high_water() as f64);
            }
        }
        for (slot, record) in slots.iter().enumerate() {
            let Some(inst) = record.copy() else {
                continue;
            };
            let (pe, replica) = unslot(slot);
            let input_depth = inst.input_depth();
            let output_backlog = inst.output_backlog();
            if tracing {
                let rep = replica_code(replica);
                let in_hw = inst.input_high_water();
                let out_hw = inst.output_high_water();
                tracer.emit(
                    now,
                    TraceEvent::PeSnapshot {
                        pe: pe.0,
                        replica: rep,
                        input_depth,
                        output_backlog,
                        processed_total: inst.processed_total(),
                    },
                );
                let (prev_in, prev_out) = self.trace_queue_hw[slot];
                if in_hw > prev_in {
                    tracer.emit(
                        now,
                        TraceEvent::QueueHighWater {
                            pe: pe.0,
                            replica: rep,
                            input: true,
                            depth: in_hw,
                        },
                    );
                }
                if out_hw > prev_out {
                    tracer.emit(
                        now,
                        TraceEvent::QueueHighWater {
                            pe: pe.0,
                            replica: rep,
                            input: false,
                            depth: out_hw,
                        },
                    );
                }
                self.trace_queue_hw[slot] = (in_hw.max(prev_in), out_hw.max(prev_out));
            }
            if let Some(registry) = self.metrics.as_deref_mut() {
                // Replica is part of the scope name-space via the metric
                // name: scopes identify (component, machine, pe), and an AS
                // pair's replicas live on different machines.
                let scope = Scope::pe("data_plane", record.machine().0, pe.0);
                let (depth, backlog) = match replica {
                    Replica::Primary => ("input_depth_primary", "output_backlog_primary"),
                    Replica::Secondary => ("input_depth_secondary", "output_backlog_secondary"),
                };
                registry.set_gauge(scope, depth, input_depth as f64);
                registry.set_gauge(scope, backlog, output_backlog as f64);
            }
        }
        self.scrape(now, cluster, slots, subjobs, cfg, tracer);
    }

    /// The rest of the metrics side of [`sample`](Self::sample), after the
    /// machine and PE gauges: the redundancy and audit gauges, a snapshot
    /// of every registered metric into the registry's time-series, then one
    /// health-engine step over it.
    fn scrape(
        &mut self,
        now: SimTime,
        cluster: &Cluster<TaskTag>,
        slots: &[Slot],
        subjobs: &[SubjobHa],
        cfg: &HaConfig,
        tracer: &mut Tracer,
    ) {
        let Some(registry) = self.metrics.as_deref_mut() else {
            return;
        };
        // Redundancy gauge for the health layer: how many subjobs currently
        // lack a live standby. A standby is live when a secondary machine
        // is assigned and up and, for modes that pre-deploy secondary
        // copies, the copies are actually in place — a freshly promoted
        // subjob stays "missing" until its replacement standby finishes
        // deploying.
        let mut standbys_missing = 0u64;
        for sj in subjobs {
            let standby = sj.primary_replica.other();
            let live = sj.secondary_machine.is_some_and(|sec| {
                cluster.machine(sec).is_up()
                    && (!cfg.predeploys(sj.mode)
                        || sj
                            .pes()
                            .all(|pe| slots[slot_of(pe, standby)].copy().is_some()))
            });
            standbys_missing += u64::from(sj.mode != HaMode::None && !live);
        }
        registry.set_gauge(
            Scope::global("recovery"),
            "standbys_missing",
            standbys_missing as f64,
        );
        // Audit gauges: per-invariant violation totals from any installed
        // protocol-auditor probes (all zero on a healthy run). The health
        // engine watches `audit/violations_total`.
        if tracer.has_probes() {
            let mut totals = Vec::new();
            tracer.probe_totals(&mut totals);
            let mut sum = 0u64;
            for (name, count) in totals {
                sum += count;
                registry.set_gauge(Scope::global("audit"), name, count as f64);
            }
            registry.set_gauge(Scope::global("audit"), "violations_total", sum as f64);
        }
        registry.scrape(now.as_nanos());
        // Step the health engine over the fresh snapshot. Still strictly
        // read-only: the engine sees the registry, the always-on phase log,
        // and the injection ground truth, and its verdicts go back out on
        // the trace bus (a no-op unless a sink is installed).
        if let Some(engine) = self.health.as_deref_mut() {
            let events =
                engine.on_scrape(now.as_nanos(), registry, tracer.phases(), &self.injections);
            for event in events {
                tracer.emit(now, event);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sps_engine::{Job, OperatorSpec};
    use sps_sim::{Ctx, Simulation, World};

    use crate::data_plane::schedule_initial_events;
    use crate::source::{PayloadGen, RateProfile};
    use crate::world::{Event, Placement};
    use crate::HaSimulation;

    /// A world that counts the [`Event::Sample`]s it handles.
    struct Counting {
        world: HaWorld,
        samples: u32,
    }

    impl World for Counting {
        type Event = Event;

        fn handle(&mut self, ctx: &mut Ctx<Event>, event: Event) {
            self.samples += u32::from(matches!(event, Event::Sample));
            self.world.handle(ctx, event);
        }
    }

    fn job() -> Job {
        Job::chain("t", &OperatorSpec::synthetic_default(), 8, 4)
    }

    /// Runs the evaluation chain for one simulated second with only the
    /// registry possibly on, as the builder sets it up.
    fn run(metrics: bool) -> Counting {
        let job = job();
        let placement = Placement::default_for(&job);
        let mut world = HaWorld::new(
            job,
            HaConfig::default(),
            vec![HaMode::Hybrid; 4],
            placement,
            vec![(
                RateProfile::Constant { per_sec: 500.0 },
                PayloadGen::Synthetic,
            )],
            false,
        );
        world.observers = Observers::new(&world, false, metrics, false);
        let mut sim = Simulation::new(Counting { world, samples: 0 }, 7);
        let (counting, ctx) = sim.parts_mut();
        schedule_initial_events(&mut counting.world, ctx);
        sim.run_for(SimDuration::from_secs(1));
        sim.into_world()
    }

    #[test]
    fn an_unobserved_world_holds_no_sampler_tables_and_never_samples() {
        let plain = run(false);
        assert_eq!(plain.samples, 0);
        assert!(plain.world.sinks()[0].accepted() > 0, "the run did work");
        let observers = &plain.world.observers;
        assert!(!observers.samples());
        assert!(observers.sample_busy.is_empty() && observers.trace_queue_hw.is_empty());

        let sampled = run(true);
        assert_eq!(sampled.samples, 10);
        let (world, observers) = (&sampled.world, &sampled.world.observers);
        assert_eq!(observers.sample_busy.len(), world.cluster().len());
        assert_eq!(observers.trace_queue_hw.len(), world.slots.len());
    }

    #[test]
    fn health_brings_the_registry_in_either_builder_order() {
        let health = sps_observe::HealthConfig::default;
        let metrics_then_health = HaSimulation::builder(job())
            .collect_metrics(true)
            .health(health())
            .build();
        let health_then_no_metrics = HaSimulation::builder(job())
            .health(health())
            .collect_metrics(false)
            .build();
        for sim in [metrics_then_health, health_then_no_metrics] {
            assert!(sim.world().metrics().is_some());
            assert!(sim.world().health().is_some());
        }
    }
}
