//! The public experiment harness: build a cluster-backed HA simulation,
//! inject failures, run it, and collect a report.

use std::fmt;

use sps_cluster::{jitter_stalls, ChaosPlan, FaultTopology, LoadComponent, MachineId, SpikeWindow};
use sps_engine::{Job, SubjobId};
use sps_metrics::{MsgCounters, RecoveryKind, RecoveryTimeline};
use sps_sim::{SimDuration, SimTime, Simulation};
use sps_trace::{TraceProbe, TraceSink};

use crate::config::{HaConfig, HaMode};
use crate::data_plane::schedule_initial_events;
use crate::detect::BENCH_SAMPLE_INTERVAL;
use crate::observers::Observers;
use crate::source::{PayloadGen, RateProfile};
use crate::world::{Event, HaEventKind, HaWorld, Placement};

/// Builder for an [`HaSimulation`].
///
/// ```
/// use sps_engine::{Job, OperatorSpec};
/// use sps_ha::{HaMode, HaSimulation};
///
/// let job = Job::chain("eval", &OperatorSpec::synthetic_default(), 8, 4);
/// let mut sim = HaSimulation::builder(job)
///     .mode(HaMode::Hybrid)
///     .source_rate(1_000.0)
///     .seed(42)
///     .build();
/// sim.run_for(sps_sim::SimDuration::from_secs(2));
/// assert!(sim.world().sinks()[0].accepted() > 0);
/// ```
pub struct HaSimulationBuilder {
    job: Job,
    cfg: HaConfig,
    modes: Vec<Option<HaMode>>,
    placement: Option<Placement>,
    topology: Option<FaultTopology>,
    source_profiles: Vec<(RateProfile, PayloadGen)>,
    seed: u64,
    log_sink_accepts: bool,
    trace_sinks: Vec<Box<dyn TraceSink>>,
    trace_probes: Vec<Box<dyn TraceProbe>>,
    audit_lossless: bool,
    audit_quiescent: bool,
    chaos: Option<ChaosPlan>,
    lineage: bool,
    collect_metrics: bool,
    health: bool,
}

impl fmt::Debug for HaSimulationBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HaSimulationBuilder")
            .field("cfg", &self.cfg)
            .field("modes", &self.modes)
            .field("seed", &self.seed)
            .field("log_sink_accepts", &self.log_sink_accepts)
            .field("trace_sinks", &self.trace_sinks.len())
            .field("trace_probes", &self.trace_probes.len())
            .field("chaos", &self.chaos.as_ref().map(|p| p.steps().len()))
            .field("lineage", &self.lineage)
            .field("collect_metrics", &self.collect_metrics)
            .field("health", &self.health)
            .finish_non_exhaustive()
    }
}

impl HaSimulationBuilder {
    /// Starts a builder over `job` with paper-default settings.
    pub fn new(job: Job) -> Self {
        let n_subjobs = job.subjob_count();
        let n_sources = job.source_count();
        HaSimulationBuilder {
            modes: vec![None; n_subjobs],
            source_profiles: vec![
                (
                    RateProfile::Constant { per_sec: 1_000.0 },
                    PayloadGen::Synthetic,
                );
                n_sources
            ],
            job,
            cfg: HaConfig::default(),
            placement: None,
            topology: None,
            seed: 0,
            log_sink_accepts: false,
            trace_sinks: Vec::new(),
            trace_probes: Vec::new(),
            audit_lossless: false,
            audit_quiescent: false,
            chaos: None,
            lineage: false,
            collect_metrics: false,
            health: false,
        }
    }

    /// Sets the default HA mode for every subjob.
    pub fn mode(mut self, mode: HaMode) -> Self {
        self.cfg.mode = mode;
        self
    }

    /// Overrides the mode of one subjob (the §V-B experiments protect a
    /// single subjob).
    pub fn subjob_mode(mut self, subjob: SubjobId, mode: HaMode) -> Self {
        self.modes[subjob.0 as usize] = Some(mode);
        self
    }

    /// Mutates the configuration in place.
    pub fn tune(mut self, f: impl FnOnce(&mut HaConfig)) -> Self {
        f(&mut self.cfg);
        self
    }

    /// Overrides the placement (multiplexing experiments share one
    /// secondary machine between subjobs).
    pub fn placement(mut self, placement: Placement) -> Self {
        self.placement = Some(placement);
        self
    }

    /// Installs a rack/switch fault topology on the cluster's machines
    /// (the default is flat: every machine alone in its own domain).
    /// Domain-scoped chaos actions ([`ChaosPlan::domain_fail_stop`],
    /// [`ChaosPlan::switch_partition_window`]) expand against it, and the
    /// promotion-safety ladder refuses to promote into a faulted domain.
    /// The topology must cover exactly the placement's machines; pair it
    /// with [`Placement::domain_aware_for`] to keep every primary/standby
    /// pair domain-disjoint.
    pub fn topology(mut self, topology: FaultTopology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Sets every source to a constant rate in elements/second.
    pub fn source_rate(mut self, per_sec: f64) -> Self {
        for p in &mut self.source_profiles {
            *p = (RateProfile::Constant { per_sec }, PayloadGen::Synthetic);
        }
        self
    }

    /// Sets one source's rate profile and payload generator.
    pub fn source_profile(mut self, source: usize, rate: RateProfile, payload: PayloadGen) -> Self {
        self.source_profiles[source] = (rate, payload);
        self
    }

    /// Seeds the simulation RNG.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Keeps a per-element sink accept log (needed by recovery-time
    /// decomposition).
    pub fn log_sink_accepts(mut self, log: bool) -> Self {
        self.log_sink_accepts = log;
        self
    }

    /// Installs a trace sink (e.g. a [`sps_trace::SharedRecorder`]); the
    /// telemetry sampler starts automatically when at least one sink is
    /// installed.
    pub fn trace_sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.trace_sinks.push(sink);
        self
    }

    /// Installs a trace probe (e.g. the `sps-audit` protocol auditor): a
    /// streaming observer on the trace bus whose derived records (audit
    /// violations) are fanned back out to the installed sinks. Probes are
    /// read-only observation — they see copies of records and cannot touch
    /// the event schedule — so installing one never perturbs the run.
    pub fn trace_probe(mut self, probe: Box<dyn TraceProbe>) -> Self {
        self.trace_probes.push(probe);
        self
    }

    /// Declares the run's audit expectations, recorded in the trace
    /// preamble for streaming/offline auditors: `lossless` promises no
    /// element is ever dropped irrecoverably (so a sink sequence gap at end
    /// of run is a violation), `quiescent` promises the run ends drained
    /// (sources stopped and in-flight work settled, so end-of-run liveness
    /// checks — gap-freedom and standby coverage — are decidable). Both
    /// default to `false`, which disables those end-of-run checks.
    pub fn audit_expectations(mut self, lossless: bool, quiescent: bool) -> Self {
        self.audit_lossless = lossless;
        self.audit_quiescent = quiescent;
        self
    }

    /// Installs a chaos plan: its steps are scheduled at their instants and
    /// the network's fault RNG is reseeded from a deterministic fork of the
    /// simulation seed. Enabling chaos does *not* switch on the reliable
    /// control layer — campaigns that want retransmission set
    /// [`HaConfig::reliable_control`](crate::HaConfig) via
    /// [`tune`](Self::tune).
    pub fn chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Switches causal tuple lineage on: every element is stamped at emit,
    /// send, receive, and processing start, so delivered outputs decompose
    /// into per-hop queueing/processing/network components. Lineage is an
    /// observation layer — enabling it never changes the event schedule.
    /// The `SPS_LINEAGE=1` environment variable enables it globally (used by
    /// the no-perturbation rows of `crates/bench/tests/goldens.rs`).
    pub fn lineage(mut self, on: bool) -> Self {
        self.lineage = on;
        self
    }

    /// Switches the sim-time metrics registry on: counters, gauges and
    /// histograms are scraped every [`SAMPLE_INTERVAL`](crate::SAMPLE_INTERVAL)
    /// of simulated time into a deterministic time series (`metrics.jsonl` / `metrics.csv` under the
    /// bench binaries' `--observe-out`). Like lineage, this is read-only
    /// observation.
    pub fn collect_metrics(mut self, on: bool) -> Self {
        self.collect_metrics = on;
        self
    }

    /// Switches the online health engine on: SLO monitors, anomaly
    /// detectors, and recovery-budget tracking stepped at every metrics
    /// scrape (so this implies [`collect_metrics`](Self::collect_metrics)).
    /// [`HealthConfig`](sps_observe::HealthConfig) carries no settings;
    /// the checkpoint-stall budget is 4x the checkpoint interval. Like
    /// lineage and metrics, the engine is read-only observation: enabling
    /// it never changes the event schedule.
    pub fn health(mut self, _: sps_observe::HealthConfig) -> Self {
        self.health = true;
        self
    }

    /// Builds the simulation, deploys everything, and schedules the initial
    /// events.
    ///
    /// # Panics
    ///
    /// Panics on a chaos plan naming a machine, rack or switch the cluster
    /// lacks ([`ChaosPlan::check`]).
    pub fn build(mut self) -> HaSimulation {
        // `SPS_BATCH_SIZE=N` overrides the data-plane batch size globally
        // (used by `crates/bench/tests/goldens.rs` to re-render figures at
        // N > 1 without touching the workload definitions). Batch size 1 is
        // byte-identical to the unbatched runtime, so the default changes
        // nothing.
        if let Ok(v) = std::env::var("SPS_BATCH_SIZE") {
            self.cfg.batch_size = v
                .parse()
                .expect("SPS_BATCH_SIZE must be a positive integer");
        }
        self.cfg.validate();
        let default_mode = self.cfg.mode;
        let modes: Vec<HaMode> = self
            .modes
            .iter()
            .map(|m| m.unwrap_or(default_mode))
            .collect();
        let placement = self
            .placement
            .unwrap_or_else(|| Placement::default_for(&self.job));
        let mut world = HaWorld::new(
            self.job,
            self.cfg,
            modes,
            placement,
            self.source_profiles,
            self.log_sink_accepts,
        );
        if let Some(topology) = self.topology {
            world.cluster_mut().set_topology(topology);
        }
        for sink in self.trace_sinks {
            world.tracer_mut().add_sink(sink);
        }
        for probe in self.trace_probes {
            world.tracer_mut().add_probe(probe);
        }
        // The preamble (run shape, per-subjob modes, initial epochs) leads
        // every trace so auditors can replay from the first record.
        world.emit_audit_preamble(self.audit_lossless, self.audit_quiescent);
        let env_lineage = std::env::var("SPS_LINEAGE").is_ok_and(|v| v == "1");
        world.observers = Observers::new(
            &world,
            self.lineage || env_lineage,
            self.collect_metrics,
            self.health,
        );
        let mut sim = Simulation::new(world, self.seed);
        let (world, ctx) = sim.parts_mut();
        schedule_initial_events(world, ctx);
        if let Some(plan) = self.chaos {
            // An independent RNG stream for the network's fault draws, so
            // chaos never perturbs the main schedule's randomness.
            let chaos_seed = sps_sim::SimRng::seed_from(self.seed)
                .fork(0xC4A0_5EED)
                .next_u64();
            if let Err(e) = world.cluster_mut().install_chaos(&plan, chaos_seed) {
                panic!("invalid chaos plan: {e}");
            }
            for (i, step) in plan.steps().iter().enumerate() {
                ctx.schedule_at(step.at, Event::ChaosStep { step: i as u32 });
            }
        }
        HaSimulation { sim }
    }
}

/// A ready-to-run HA experiment.
#[derive(Debug)]
pub struct HaSimulation {
    sim: Simulation<HaWorld>,
}

impl HaSimulation {
    /// Starts a builder.
    pub fn builder(job: Job) -> HaSimulationBuilder {
        HaSimulationBuilder::new(job)
    }

    /// Runs for a span of simulated time.
    pub fn run_for(&mut self, span: SimDuration) {
        self.sim.run_for(span);
    }

    /// Runs until an absolute instant.
    pub fn run_until(&mut self, at: SimTime) {
        self.sim.run_until(at);
    }

    /// Events handled so far (allocation and throughput benchmarks use
    /// this to delimit steady-state windows).
    pub fn events_processed(&self) -> u64 {
        self.sim.events_processed()
    }

    /// This run's peak logical event-queue weight (elements in flight, not
    /// heap entries).
    pub fn peak_queue_weight(&self) -> u64 {
        self.sim.peak_queue_weight()
    }

    /// Pops and handles one event under the self-profiler (bench builds
    /// only): `classify` labels the event *before* it is handled — use
    /// [`Event::kind_name`] and/or [`HaWorld::protocol_phase`] — and the
    /// returned probe carries the handler's wall-clock time and allocation
    /// deltas. Returns `None` when the queue is empty. Profiling is
    /// host-side instrumentation around the handler call; the simulated
    /// schedule is identical to [`run_for`](Self::run_for).
    #[cfg(feature = "bench")]
    pub fn step_profiled<L>(
        &mut self,
        classify: impl FnOnce(&Event) -> L,
    ) -> Option<(L, sps_sim::StepProbe)> {
        self.sim.step_profiled(classify)
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The world under simulation.
    pub fn world(&self) -> &HaWorld {
        self.sim.world()
    }

    /// The world, exclusively (for quantile queries and ad-hoc probes).
    pub fn world_mut(&mut self) -> &mut HaWorld {
        self.sim.world_mut()
    }

    /// Panics at the call, not mid-run, when `machine` is outside the
    /// cluster.
    fn assert_machine(&self, machine: MachineId, call: &str) {
        let n = self.sim.world().cluster().len();
        assert!(
            (machine.0 as usize) < n,
            "{call}: {machine} is outside the cluster's {n} machines"
        );
    }

    /// Schedules `component` of `machine`'s background load to each
    /// window's share over the window.
    fn schedule_load(&mut self, machine: MachineId, load: LoadComponent, windows: &[SpikeWindow]) {
        for w in windows {
            for (at, share) in [(w.start, w.share), (w.end, 0.0)] {
                let event = Event::SetBackground {
                    machine: machine.0,
                    component: load,
                    share,
                };
                self.sim.schedule_at(at, event);
            }
        }
    }

    /// Schedules a transient-failure load schedule on a machine and records
    /// it as ground truth.
    pub fn inject_spike_windows(&mut self, machine: MachineId, windows: &[SpikeWindow]) {
        self.assert_machine(machine, "inject_spike_windows");
        self.schedule_load(machine, LoadComponent::Spike, windows);
        for w in windows {
            let observers = &mut self.sim.world_mut().observers;
            observers.note_injection(machine, w.start);
        }
    }

    /// Schedules OS-jitter stalls on a machine over `[now, horizon)`
    /// assuming the given ambient load (not recorded as ground truth — these
    /// are the false-alarm source).
    pub fn inject_jitter(&mut self, machine: MachineId, horizon: SimTime, ambient_load: f64) {
        self.assert_machine(machine, "inject_jitter");
        let (_, ctx) = self.sim.parts_mut();
        let mut rng = ctx.rng().fork(0x7177_0000 + machine.0 as u64);
        let windows = jitter_stalls(&mut rng, horizon, ambient_load);
        self.schedule_load(machine, LoadComponent::Jitter, &windows);
    }

    /// Schedules a machine fail-stop.
    pub fn fail_stop_at(&mut self, machine: MachineId, at: SimTime) {
        self.assert_machine(machine, "fail_stop_at");
        self.sim
            .schedule_at(at, Event::FailStop { machine: machine.0 });
    }

    /// Stops all sources at `at` (warm-down so in-flight elements drain).
    pub fn stop_sources_at(&mut self, at: SimTime) {
        self.sim.schedule_at(at, Event::StopSources);
    }

    /// Installs a benchmark detector on a machine and starts its sampling.
    pub fn add_benchmark_detector(&mut self, machine: MachineId) -> u32 {
        self.assert_machine(machine, "add_benchmark_detector");
        let det = self.sim.world_mut().add_benchmark_detector(machine);
        self.sim
            .schedule_in(BENCH_SAMPLE_INTERVAL, Event::BenchSample { det });
        det
    }

    /// Emits one `stream_final` record per stream (how far its producers
    /// got and its consumers followed), then runs every installed trace
    /// probe's end-of-run checks (liveness invariants such as stream
    /// completeness, sink gap-freedom and standby coverage), fanning any
    /// final violation records out to the trace sinks. Call once, after
    /// the run is complete and before reading the audit report.
    pub fn finish_probes(&mut self) {
        let now = self.sim.now();
        let world = self.sim.world_mut();
        world.emit_stream_finals(now);
        world.tracer_mut().finish_probes();
    }

    /// The concatenated deterministic reports of every installed trace
    /// probe, or `None` when no probe is installed.
    pub fn audit_report(&self) -> Option<String> {
        self.sim.world().tracer().probe_report()
    }

    /// Total audit violations across all installed probes.
    pub fn audit_violations(&self) -> u64 {
        self.sim.world().tracer().probe_violations()
    }

    /// Summarizes the run.
    pub fn report(&mut self) -> RunReport {
        let now = self.sim.now();
        let world = self.sim.world_mut();
        let sink = &mut world.sinks_mut()[0];
        let p99 = sink.latency_mut().quantile_ms(0.99).unwrap_or(0.0);
        let sink = &world.sinks()[0];
        RunReport {
            duration: now.saturating_since(SimTime::ZERO),
            sink_mean_delay_ms: sink.latency().mean_ms(),
            sink_p99_delay_ms: p99,
            sink_accepted: sink.accepted(),
            sink_duplicates: sink.duplicates_dropped(),
            counters: *world.counters(),
            events_processed: self.sim.events_processed(),
        }
    }

    /// Reconstructs the recovery timeline for the first failure declared at
    /// or after `failure_at` on `subjob` (Figs 7–8): detection is the
    /// `Detected` event, readiness the switch-over/connection completion,
    /// and first output the first sink accept after readiness. Requires
    /// [`HaSimulationBuilder::log_sink_accepts`].
    pub fn recovery_timeline(
        &self,
        subjob: SubjobId,
        failure_at: SimTime,
    ) -> Option<RecoveryTimeline> {
        let world = self.sim.world();
        let events = world.ha_events();
        let detected = events
            .iter()
            .find(|e| e.subjob == subjob && e.kind == HaEventKind::Detected && e.at >= failure_at)?
            .at;
        let (ready, kind) = events
            .iter()
            .filter(|e| e.subjob == subjob && e.at >= detected)
            .find_map(|e| match e.kind {
                HaEventKind::SwitchoverComplete => Some((e.at, RecoveryKind::Hybrid)),
                HaEventKind::PsConnected => Some((e.at, RecoveryKind::PassiveStandby)),
                _ => None,
            })?;
        let first_output = world.sinks()[0].first_accept_at_or_after(ready)?;
        let ms = |t: SimTime| t.saturating_since(failure_at).as_millis_f64();
        Some(RecoveryTimeline::new(
            kind,
            ms(detected),
            ms(ready),
            ms(first_output).max(ms(ready)),
        ))
    }
}

/// Aggregate results of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Simulated duration.
    pub duration: SimDuration,
    /// Mean end-to-end element delay at the sink (ms).
    pub sink_mean_delay_ms: f64,
    /// 99th-percentile end-to-end delay (ms).
    pub sink_p99_delay_ms: f64,
    /// Elements accepted by the sink (deduplicated).
    pub sink_accepted: u64,
    /// Duplicate elements the sink dropped.
    pub sink_duplicates: u64,
    /// Message counters (the paper's element-unit overhead).
    pub counters: MsgCounters,
    /// Simulator events processed (run cost diagnostics).
    pub events_processed: u64,
}

impl RunReport {
    /// The paper's "message overhead (# of elements)".
    pub fn total_overhead_elements(&self) -> u64 {
        self.counters.total_elements()
    }
}
