//! The HA world: every machine, instance, queue, detector, and protocol of
//! one experiment, driven by the discrete-event kernel.
//!
//! This module defines the event alphabet, the per-subjob HA state machine,
//! and construction/wiring; the protocol handlers live in sibling modules
//! (`data_plane`, `checkpoint`, `failover`).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use sps_cluster::{
    ChaosAction, ChaosStep, Cluster, FaultTopology, LoadComponent, MachineId, NetworkConfig,
};
use sps_engine::{
    Dest, InstanceId, Job, PeCheckpoint, PeId, Replica, SinkId, SourceId, StreamId, SubjobId,
};
use sps_metrics::MsgClass;
use sps_metrics::MsgCounters;
use sps_metrics::{Registry, Scope};
use sps_sim::{Ctx, SimDuration, SimTime, TimerGen, TimerSlot, World};
use sps_trace::{ChaosKind, EpochCause, HaModeTag, LineageTable, TraceEvent, Tracer};

use crate::config::{HaConfig, HaMode};
use crate::detect::{BenchmarkDetector, HeartbeatMonitor, PairRounds, TrendPredictor};
use crate::message::Msg;
use crate::sink::SinkRuntime;
use crate::slot::Slot;
use crate::source::{PayloadGen, RateProfile, SourceRuntime};
use crate::sweep::SweepLedger;

/// Where subjobs, sources, sinks, and standbys are placed.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Primary machine per subjob.
    pub primaries: Vec<MachineId>,
    /// Secondary (standby/checkpoint-target) machine per subjob; `None`
    /// only for [`HaMode::None`] subjobs.
    pub secondaries: Vec<Option<MachineId>>,
    /// Machine per source.
    pub sources: Vec<MachineId>,
    /// Machine per sink.
    pub sinks: Vec<MachineId>,
    /// Spare machines for replacement secondaries after promotion.
    pub spares: Vec<MachineId>,
}

impl Placement {
    /// The paper's default layout for a job with `n` subjobs: source with
    /// subjob 0 on machine 0, primaries on machines `0..n`, the sink on its
    /// own machine, one dedicated secondary per subjob, and two spares.
    pub fn default_for(job: &Job) -> Placement {
        let n = job.subjob_count();
        let primaries: Vec<MachineId> = (0..n as u32).map(MachineId).collect();
        let sinks: Vec<MachineId> = (0..job.sink_count() as u32)
            .map(|i| MachineId(n as u32 + i))
            .collect();
        let sec_base = n as u32 + job.sink_count() as u32;
        let secondaries: Vec<Option<MachineId>> = (0..n as u32)
            .map(|i| Some(MachineId(sec_base + i)))
            .collect();
        let spare_base = sec_base + n as u32;
        let spares = vec![MachineId(spare_base), MachineId(spare_base + 1)];
        Placement {
            primaries,
            secondaries,
            sources: vec![MachineId(0); job.source_count()],
            sinks,
            spares,
        }
    }

    /// A domain-aware variant of [`Placement::default_for`]: same
    /// primaries, sources, and sinks, but each subjob's secondary is the
    /// lowest-id unused machine *domain-disjoint* from its primary under
    /// `topology`, and every remaining machine becomes a spare. Under the
    /// flat topology this reproduces the default layout exactly; under a
    /// grid it guarantees no rack or switch fault removes both replicas
    /// of any subjob.
    ///
    /// # Panics
    ///
    /// Panics when the topology has too few machines to place every
    /// subjob's standby domain-disjointly.
    pub fn domain_aware_for(job: &Job, topology: &FaultTopology) -> Placement {
        let base = Placement::default_for(job);
        let machines = topology.machines();
        let mut used = vec![false; machines];
        for m in base
            .primaries
            .iter()
            .chain(&base.sources)
            .chain(&base.sinks)
        {
            if let Some(u) = used.get_mut(m.0 as usize) {
                *u = true;
            }
        }
        // Every machine below `free` is used, so each search starts there
        // and a used prefix is walked once, not once per subjob.
        let mut free = 0;
        let mut secondaries = Vec::with_capacity(base.primaries.len());
        for &primary in &base.primaries {
            while free < machines && used[free] {
                free += 1;
            }
            let pick = (free..machines)
                .find(|&m| !used[m] && topology.domain_disjoint(primary, MachineId(m as u32)))
                .unwrap_or_else(|| {
                    panic!("no unused machine is domain-disjoint from primary {primary:?}")
                });
            used[pick] = true;
            secondaries.push(Some(MachineId(pick as u32)));
        }
        let spares = (0..machines as u32)
            .filter(|&m| !used[m as usize])
            .map(MachineId)
            .collect();
        Placement {
            primaries: base.primaries,
            secondaries,
            sources: base.sources,
            sinks: base.sinks,
            spares,
        }
    }

    /// The number of machines this placement requires.
    pub fn machine_count(&self) -> usize {
        let max = self
            .primaries
            .iter()
            .chain(self.secondaries.iter().flatten())
            .chain(self.sources.iter())
            .chain(self.sinks.iter())
            .chain(self.spares.iter())
            .map(|m| m.0)
            .max()
            .unwrap_or(0);
        max as usize + 1
    }
}

/// The event alphabet of the HA world.
#[derive(Debug, Clone)]
pub enum Event {
    /// A source should emit its next element.
    SourceTick {
        /// Source index.
        source: u32,
        /// Timer guard.
        gen: TimerGen,
    },
    /// A machine's earliest CPU task completes.
    MachineTick {
        /// Machine index.
        machine: u32,
        /// Timer guard.
        gen: TimerGen,
    },
    /// A network message arrives at a machine.
    Deliver {
        /// Destination machine.
        to: MachineId,
        /// The message.
        msg: Msg,
    },
    /// The heartbeat period elapsed: run one round over every monitored
    /// subjob.
    HeartbeatTick,
    /// A synchronous (pe = `None`) or individual (pe = `Some`) checkpoint
    /// timer fired.
    CheckpointTimer {
        /// Subjob index.
        subjob: u32,
        /// The PE, for individual checkpointing.
        pe: Option<PeId>,
    },
    /// The hybrid secondary finished resuming.
    SwitchoverComplete {
        /// Subjob index.
        subjob: u32,
        /// Epoch guard.
        epoch: u64,
    },
    /// Passive standby finished deploying the secondary copy.
    DeployComplete {
        /// Subjob index.
        subjob: u32,
        /// Epoch guard.
        epoch: u64,
    },
    /// Passive standby finished connecting the deployed copy.
    ConnectComplete {
        /// Subjob index.
        subjob: u32,
        /// Epoch guard.
        epoch: u64,
    },
    /// A replacement secondary (after promotion) is deployed and suspended.
    SecondaryReady {
        /// Subjob index.
        subjob: u32,
        /// Epoch guard.
        epoch: u64,
    },
    /// Background-load change (spike/jitter/co-located app on/off).
    SetBackground {
        /// Machine index.
        machine: u32,
        /// Which load component changes.
        component: LoadComponent,
        /// New share for that component.
        share: f64,
    },
    /// A machine fail-stops.
    FailStop {
        /// Machine index.
        machine: u32,
    },
    /// A benchmark detector's CPU-sampling period elapsed.
    BenchSample {
        /// Detector index.
        det: u32,
    },
    /// Stop all sources (experiment warm-down).
    StopSources,
    /// The periodic read-only sampler fired, every [`SAMPLE_INTERVAL`]
    /// (only scheduled when a trace sink or probe is installed, or metrics
    /// collection is enabled): trace snapshots and registry gauges.
    Sample,
    /// A deferred CPU-task submission (after an OS wake-up delay).
    SubmitTask {
        /// Machine index.
        machine: u32,
        /// CPU demand in seconds.
        demand_secs: f64,
        /// What the task is.
        tag: TaskTag,
    },
    /// A reliable control message's retransmission timer fired.
    RelRetransmit {
        /// The transmission id; a no-op if it was acked or cancelled.
        tx: u64,
    },
    /// The periodic data-plane retransmit sweep fired (only scheduled when
    /// [`crate::HaConfig::reliable_control`] is on): stalled connections
    /// replay their unacknowledged retained elements.
    RetransmitSweep,
    /// One step of the installed [`sps_cluster::ChaosPlan`] is due.
    ChaosStep {
        /// Index into the plan's step list.
        step: u32,
    },
}

impl Event {
    /// A stable short name for the event's kind, independent of payload
    /// (the self-profiler bins host-side cost per kind).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Event::SourceTick { .. } => "source_tick",
            Event::MachineTick { .. } => "machine_tick",
            Event::Deliver { .. } => "deliver",
            Event::HeartbeatTick => "heartbeat_tick",
            Event::CheckpointTimer { .. } => "checkpoint_timer",
            Event::SwitchoverComplete { .. } => "switchover_complete",
            Event::DeployComplete { .. } => "deploy_complete",
            Event::ConnectComplete { .. } => "connect_complete",
            Event::SecondaryReady { .. } => "secondary_ready",
            Event::SetBackground { .. } => "set_background",
            Event::FailStop { .. } => "fail_stop",
            Event::BenchSample { .. } => "bench_sample",
            Event::StopSources => "stop_sources",
            Event::Sample => "sample",
            Event::SubmitTask { .. } => "submit_task",
            Event::RelRetransmit { .. } => "rel_retransmit",
            Event::RetransmitSweep => "retransmit_sweep",
            Event::ChaosStep { .. } => "chaos_step",
        }
    }
}

/// Tags identifying what a finished CPU task was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskTag {
    /// A PE processing one element; payload is the instance slot plus the
    /// slot's restore epoch (completions from before a restore/redeploy are
    /// discarded — the old thread's result is thrown away).
    PeWork {
        /// Instance slot index.
        slot: usize,
        /// Slot restore epoch at submission time.
        epoch: u32,
    },
    /// Producing a heartbeat reply; carries what the pong echoes.
    HeartbeatReply {
        /// The pinged pair's first subjob.
        subjob: SubjobId,
        /// Ping sequence number.
        seq: u64,
        /// Heartbeat round.
        round: u64,
    },
    /// A benchmark-detector standard-set run.
    Benchmark {
        /// Detector index.
        det: u32,
    },
}

/// The life-cycle state of a subjob's HA machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SjState {
    /// Primary serving; standby (if any) in its mode-defined role.
    Normal,
    /// Hybrid: resume of the suspended secondary is in flight.
    SwitchingOver,
    /// Hybrid: secondary active alongside the suspected primary.
    SwitchedOver,
    /// Hybrid: state read-back to the primary is in flight.
    RollingBack,
    /// Passive standby: deployment of the secondary copy is in flight.
    Deploying,
    /// Passive standby: connection establishment is in flight.
    Connecting,
}

impl SjState {
    /// Number of states (the length of a per-state table).
    pub(crate) const COUNT: usize = 6;
}

/// Pending multi-PE quiesce actions.
#[derive(Debug, Clone)]
pub enum SubjobPending {
    /// Synchronous checkpoint: waiting for all PEs to pause.
    SyncCheckpoint {
        /// PEs not yet quiescent.
        waiting: Vec<PeId>,
    },
    /// Hybrid rollback: waiting for the live secondary's PEs to pause
    /// before reading their state back.
    RollbackRead {
        /// PEs not yet quiescent.
        waiting: Vec<PeId>,
    },
}

/// Notable HA transitions, for experiment post-processing.
///
/// This is the trace layer's [`sps_trace::RecoveryPhase`] — the control
/// plane logs phases on the trace bus, and [`HaWorld::ha_events`] is
/// derived from that log.
pub use sps_trace::RecoveryPhase as HaEventKind;

/// One logged HA transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HaEvent {
    /// When it happened.
    pub at: SimTime,
    /// Which subjob.
    pub subjob: SubjobId,
    /// What happened.
    pub kind: HaEventKind,
}

/// Per-subjob HA state.
#[derive(Debug)]
pub struct SubjobHa {
    /// The subjob's standby mode.
    pub mode: HaMode,
    /// Machine currently playing the primary role.
    pub primary_machine: MachineId,
    /// Machine currently playing the secondary role (absent for NONE, or
    /// transiently after a promotion exhausted the spares).
    pub secondary_machine: Option<MachineId>,
    /// Which replica slot currently plays the primary role.
    pub primary_replica: Replica,
    /// Life-cycle state.
    pub state: SjState,
    /// Bumped at every transition; in-flight events carry the epoch they
    /// were scheduled under and are dropped if stale.
    pub epoch: u64,
    /// `true` while the subjob has been [`SjState::Normal`] for its whole
    /// epoch. Then each PE's checkpoints are cut one at a time, each after
    /// the previous one was stored, so none can land out of order and a
    /// capture may be a delta onto the restore point. A rollback returns to
    /// `Normal` without a new epoch while a checkpoint cut when switched
    /// over may still be in flight; until the next epoch, captures are
    /// full.
    pub(crate) settled: bool,
    /// A pending multi-PE quiesce (synchronous checkpoint or rollback).
    pub pending: Option<SubjobPending>,
    /// One checkpoint record per PE of the subjob, sorted by PE id; read
    /// through [`SubjobHa::ckpt`].
    pub(crate) ckpts: Vec<(PeId, PeCkpt)>,
    /// Elements sent to the suspected primary while switched over plus
    /// state read back on rollback (Fig 10's overhead metric).
    pub switch_overhead_elements: u64,
    /// The standby's heartbeat monitor of the primary; `None` for modes
    /// that do not monitor ([`HaMode::monitors`]).
    pub hb: Option<HeartbeatMonitor>,
    /// When the monitor declared the primary failed (any threshold).
    pub declarations: Vec<SimTime>,
}

impl SubjobHa {
    /// `true` when a role change or in-flight transition makes `epoch`
    /// stale.
    pub fn is_stale(&self, epoch: u64) -> bool {
        epoch != self.epoch
    }

    /// `true` while the subjob is still in `state` under `epoch`: the guard
    /// each delayed transition step checks before it acts.
    pub(crate) fn is_at(&self, epoch: u64, state: SjState) -> bool {
        !self.is_stale(epoch) && self.state == state
    }

    /// The checkpoint record of `pe`, which must belong to this subjob.
    pub fn ckpt(&self, pe: PeId) -> &PeCkpt {
        &self.ckpts[self.ckpt_index(pe)].1
    }

    pub(crate) fn ckpt_mut(&mut self, pe: PeId) -> &mut PeCkpt {
        let i = self.ckpt_index(pe);
        &mut self.ckpts[i].1
    }

    fn ckpt_index(&self, pe: PeId) -> usize {
        let found = self.ckpts.binary_search_by_key(&pe, |&(id, _)| id);
        found.expect("a PE of this subjob")
    }

    /// Forgets every checkpoint in progress and the per-PE checkpoint
    /// history, as a role change or a lost standby must; the stored
    /// checkpoints go too when `store_lost` (they lived in a machine that
    /// is gone or no longer the standby). Stamps are never reused.
    pub(crate) fn drop_checkpoint_progress(&mut self, store_lost: bool) {
        self.pending = None;
        for (_, rec) in &mut self.ckpts {
            let stored = rec.stored.take().filter(|_| !store_lost);
            *rec = PeCkpt {
                stored,
                stamps: rec.stamps,
                ..PeCkpt::default()
            };
        }
    }
}

/// Where a PE's primary-role copy is in its checkpoint cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CkptProgress {
    /// No checkpoint of the PE under way.
    #[default]
    Idle,
    /// Paused for a per-PE checkpoint, waiting to quiesce.
    Pausing,
    /// Snapshot sent to the secondary; its store-ack has not come back.
    InFlight,
}

/// One PE's checkpoint record: the state of the §III-B rule that an
/// upstream keeps an element until a stored checkpoint of its consumer
/// covers it.
#[derive(Debug, Default)]
pub struct PeCkpt {
    /// When the PE was last snapshotted (throttles the sweeping protocol).
    pub last_at: Option<SimTime>,
    /// Where the PE is in its checkpoint cycle.
    pub progress: CkptProgress,
    /// Input positions of the last snapshot sent: the acks to send once
    /// it is stored.
    pub ack_positions: Vec<Vec<(StreamId, u64)>>,
    /// The restore point: the checkpoint stored on the secondary machine
    /// ("in memory", §IV-B), always full. A full checkpoint is stored by
    /// pointer, shared with the message that carried it; a delta is
    /// applied in place.
    pub stored: Option<Arc<PeCheckpoint>>,
    /// Stamps handed out to the PE's captures so far.
    stamps: u32,
}

impl PeCkpt {
    /// A stamp no earlier capture of this PE carries.
    pub(crate) fn next_stamp(&mut self) -> u32 {
        self.stamps += 1;
        self.stamps
    }

    /// Stores `ckpt` as the restore point and returns the updated point.
    /// A full checkpoint replaces it; a delta is applied in place at the
    /// cost of the ports it lists (a duplicate applies as a no-op).
    ///
    /// # Panics
    ///
    /// Panics if `ckpt` is a delta and the restore point is neither its
    /// base nor `ckpt` itself.
    pub(crate) fn store(&mut self, ckpt: Arc<PeCheckpoint>) -> &PeCheckpoint {
        match &mut self.stored {
            Some(point) if !ckpt.is_full() => {
                Arc::make_mut(point).apply(Arc::unwrap_or_clone(ckpt));
            }
            stored => {
                assert!(ckpt.is_full(), "a delta needs a restore point to land on");
                *stored = Some(ckpt);
            }
        }
        self.stored.as_deref().expect("just stored")
    }
}

/// One in-flight reliable control transmission, kept by the sender until
/// acknowledged, cancelled (stale epoch, dead sender), or abandoned.
#[derive(Debug, Clone)]
pub(crate) struct RelPending {
    /// Sending machine.
    pub src: MachineId,
    /// Destination machine.
    pub dst: MachineId,
    /// The wrapped payload, re-sent verbatim on each attempt.
    pub msg: Msg,
    /// Overhead class of the payload (for per-class byte accounting).
    pub class: MsgClass,
    /// Retransmissions performed so far.
    pub attempt: u32,
}

/// A benchmark detector deployed on one machine (detection experiments),
/// optionally paired with a trend predictor fed by the same sample stream.
#[derive(Debug)]
pub struct BenchRt {
    /// The machine it watches.
    pub machine: MachineId,
    /// Detector state.
    pub det: BenchmarkDetector,
    /// CPU sampling state.
    pub monitor: sps_cluster::CpuMonitor,
    /// Times of declarations.
    pub declarations: Vec<SimTime>,
    /// An optional Gu-et-al.-style trend predictor sharing the samples.
    pub predictor: Option<TrendPredictor>,
    /// Times of the predictor's declarations.
    pub predictor_declarations: Vec<SimTime>,
    /// When the most recent benchmark probe task was submitted (tracing).
    pub last_probe_at: Option<SimTime>,
}

/// The complete simulated system.
#[derive(Debug)]
pub struct HaWorld {
    pub(crate) cfg: HaConfig,
    pub(crate) job: Job,
    pub(crate) placement: Placement,
    pub(crate) cluster: Cluster<TaskTag>,
    pub(crate) machine_timers: Vec<TimerSlot>,
    /// One record per PE copy: index = `pe * 2 + replica` (0 = primary).
    pub(crate) slots: Vec<Slot>,
    /// Per-machine rolling utilization estimates (for scheduling-latency
    /// sampling): `(last_time, last_busy_integral, estimate)`.
    pub(crate) load_est: Vec<(SimTime, f64, f64)>,
    pub(crate) sources: Vec<SourceRuntime>,
    pub(crate) sinks: Vec<SinkRuntime>,
    pub(crate) subjobs: Vec<SubjobHa>,
    /// How many subjobs are in each [`SjState`], indexed by the state's
    /// discriminant and kept by [`HaWorld::set_sj_state`], so
    /// [`HaWorld::protocol_phase`] need not scan the subjobs.
    pub(crate) sj_state_counts: [u32; SjState::COUNT],
    pub(crate) bench_detectors: Vec<BenchRt>,
    pub(crate) counters: MsgCounters,
    /// The trace bus. Control-plane recovery phases are always logged
    /// here; data-plane events only flow when a sink is installed.
    pub(crate) tracer: Tracer,
    /// The sampler's busy window, per machine: `(last_sample_time,
    /// busy_integral_at_last_sample)`. Strictly read-only with respect to
    /// the simulation (separate from `load_est`, which feeds scheduling).
    pub(crate) sample_busy: Vec<(SimTime, f64)>,
    /// Last queue high-water marks emitted per instance slot:
    /// `(input, output)`; only growth produces a new trace event.
    pub(crate) trace_queue_hw: Vec<(u64, u64)>,
    /// Ground-truth failure windows injected per machine.
    pub(crate) injected_spikes: Vec<(MachineId, SimTime, SimTime)>,
    /// Ground-truth fail-stop instants injected per machine.
    pub(crate) injected_failstops: Vec<(MachineId, SimTime)>,
    /// The installed chaos plan's steps; [`Event::ChaosStep`] indexes here.
    pub(crate) chaos_steps: Vec<ChaosStep>,
    /// Switches currently partitioned by a chaos [`ChaosAction::PartitionSwitch`]
    /// step; machines behind them count as having an active domain fault.
    pub(crate) partitioned_switches: BTreeSet<u32>,
    /// Next reliable transmission id.
    pub(crate) rel_next_tx: u64,
    /// In-flight reliable control messages, by transmission id.
    pub(crate) rel_inflight: BTreeMap<u64, RelPending>,
    /// Transmission ids already processed at their receiver (dedup for
    /// retransmissions and chaos duplication). Ids are globally unique, so
    /// one set covers every machine.
    pub(crate) rel_seen: BTreeSet<u64>,
    /// What the retransmit sweep saw of every connection at the previous
    /// sweep, and how far each stalled one is into its backoff.
    pub(crate) rel_sweep_prev: SweepLedger,
    /// Reusable buffer for the dispatch hot path: elements drained from a
    /// hop's output connections, emptied before return.
    pub(crate) dispatch_scratch: Vec<sps_engine::DataElement>,
    /// Reusable output collector for batch completion: what the operator
    /// emitted for the batch being finished, emptied before return.
    pub(crate) emit_scratch: sps_engine::Emitter,
    /// Reusable buffer for dispatch: `(dest, start, end)` spans into
    /// `dispatch_scratch`, emptied before return.
    pub(crate) span_scratch: Vec<(sps_engine::Dest, usize, usize)>,
    /// Reusable buffer for dispatch: `(port, conn, dest)` of the active
    /// connections of the hop being dispatched, emptied before return.
    pub(crate) conn_scratch: Vec<(usize, sps_engine::ConnectionId, sps_engine::Dest)>,
    /// Reusable buffer for acknowledgment generation: `(port, stream,
    /// processed-through)` triples of the instance being acked, emptied
    /// before return.
    pub(crate) ack_scratch: Vec<(usize, sps_engine::StreamId, u64)>,
    /// Reusable buffer for machine ticks: the tasks that just completed on
    /// the ticking machine, emptied before return.
    pub(crate) task_scratch: Vec<sps_cluster::FinishedTask<TaskTag>>,
    /// The heartbeat round's machine pairs and the member lists its pongs
    /// fan out to.
    pub(crate) hb_pairs: PairRounds,
    /// Free list of [`sps_engine::DataBatch`] element buffers: a sender
    /// takes one to build a batch, the receiver hands it back, so a steady
    /// batched run stops allocating per message. It holds at most as many
    /// buffers as batches were ever in flight at once.
    pub(crate) batch_bufs: Vec<Vec<sps_engine::DataElement>>,
    /// Causal tuple lineage, when enabled on the builder. Boxed so the
    /// disabled (default) case costs one pointer and one branch per hook.
    pub(crate) lineage: Option<Box<LineageTable>>,
    /// The metrics registry (scoped counters/gauges/histograms and their
    /// scrape history), when enabled on the builder.
    pub(crate) metrics: Option<Box<Registry>>,
    /// The online health engine, when enabled on the builder (requires
    /// metrics). Stepped after every registry scrape; strictly read-only
    /// over the simulation, like the sampler itself.
    pub(crate) health: Option<Box<sps_observe::HealthEngine>>,
}

/// The period of [`Event::Sample`], in simulated time.
pub const SAMPLE_INTERVAL: SimDuration = SimDuration::from_millis(100);

impl HaWorld {
    /// Builds a world: deploys instances per mode, wires every connection
    /// (including the hybrid's early connections), and prepares detectors.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent placement (missing secondary for an HA mode
    /// that needs one) or invalid configuration.
    pub fn new(
        job: Job,
        cfg: HaConfig,
        modes: Vec<HaMode>,
        placement: Placement,
        source_profiles: Vec<(RateProfile, PayloadGen)>,
        log_sink_accepts: bool,
    ) -> Self {
        cfg.validate();
        assert_eq!(modes.len(), job.subjob_count(), "one mode per subjob");
        assert_eq!(
            placement.primaries.len(),
            job.subjob_count(),
            "one primary machine per subjob"
        );
        assert_eq!(
            source_profiles.len(),
            job.source_count(),
            "one rate profile per source"
        );

        let mut cluster = Cluster::new(NetworkConfig::default());
        cluster.add_machines(placement.machine_count());

        let n_pes = job.pe_count();

        // Sources and sinks.
        let sources: Vec<SourceRuntime> = (0..job.source_count())
            .map(|i| {
                let (profile, payload) = source_profiles[i];
                SourceRuntime::new(
                    SourceId(i as u32),
                    job.source_stream(SourceId(i as u32)),
                    profile,
                    payload,
                )
            })
            .collect();
        let sinks: Vec<SinkRuntime> = (0..job.sink_count())
            .map(|i| SinkRuntime::new(SinkId(i as u32), log_sink_accepts))
            .collect();

        let mut world = HaWorld {
            slots: (0..n_pes * 2).map(|_| Slot::empty()).collect(),
            load_est: vec![(SimTime::ZERO, 0.0, 0.0); cluster.len()],
            machine_timers: (0..cluster.len()).map(|_| TimerSlot::new()).collect(),
            subjobs: Vec::new(),
            sj_state_counts: [0; SjState::COUNT],
            bench_detectors: Vec::new(),
            counters: MsgCounters::new(),
            tracer: Tracer::new(),
            sample_busy: vec![(SimTime::ZERO, 0.0); cluster.len()],
            trace_queue_hw: vec![(0, 0); n_pes * 2],
            injected_spikes: Vec::new(),
            injected_failstops: Vec::new(),
            chaos_steps: Vec::new(),
            partitioned_switches: BTreeSet::new(),
            rel_next_tx: 0,
            rel_inflight: BTreeMap::new(),
            rel_seen: BTreeSet::new(),
            rel_sweep_prev: SweepLedger::default(),
            dispatch_scratch: Vec::new(),
            emit_scratch: sps_engine::Emitter::default(),
            span_scratch: Vec::new(),
            conn_scratch: Vec::new(),
            ack_scratch: Vec::new(),
            task_scratch: Vec::new(),
            hb_pairs: PairRounds::new(job.subjob_count(), cluster.len()),
            batch_bufs: Vec::new(),
            lineage: None,
            metrics: None,
            health: None,
            cfg,
            placement,
            cluster,
            sources,
            sinks,
            job,
        };

        // Subjob HA state.
        for sj in world.job.subjob_ids() {
            let mode = modes[sj.0 as usize];
            let pes = world.job.subjob_pes(sj);
            let mut ckpts: Vec<_> = pes.iter().map(|&pe| (pe, PeCkpt::default())).collect();
            ckpts.sort_unstable_by_key(|&(pe, _)| pe);
            world.subjobs.push(SubjobHa {
                mode,
                primary_machine: world.placement.primaries[sj.0 as usize],
                secondary_machine: world.placement.secondaries[sj.0 as usize],
                primary_replica: Replica::Primary,
                state: SjState::Normal,
                epoch: 0,
                settled: true,
                pending: None,
                ckpts,
                switch_overhead_elements: 0,
                hb: mode.monitors().then(HeartbeatMonitor::new),
                declarations: Vec::new(),
            });
        }

        world.sj_state_counts[SjState::Normal as usize] = world.subjobs.len() as u32;

        // Deploy instances.
        for pe in (0..n_pes as u32).map(PeId) {
            let sj = world.job.subjob_of(pe);
            let mode = modes[sj.0 as usize];
            let primary = world.placement.primaries[sj.0 as usize];
            world.deploy_copy(pe, Replica::Primary, primary, false);
            if world.cfg.predeploys(mode) {
                let sec = world.placement.secondaries[sj.0 as usize]
                    .unwrap_or_else(|| panic!("{sj} mode {mode} needs a secondary machine"));
                // "we suspend this job immediately after its deployment".
                world.deploy_copy(pe, Replica::Secondary, sec, mode == HaMode::Hybrid);
            }
        }
        world.wire_all();
        world
    }

    /// `true` if the instance in `slot` exists and is not suspended.
    pub(crate) fn slot_is_serving(&self, slot: usize) -> bool {
        self.slots[slot]
            .copy()
            .is_some_and(|inst| !inst.is_suspended())
    }

    /// Deploys a fresh copy of `pe` as `replica` on `machine`, restored
    /// from the subjob's stored checkpoint when it has one. Job start and
    /// every later deployment come through here.
    pub(crate) fn deploy_copy(
        &mut self,
        pe: PeId,
        replica: Replica,
        machine: MachineId,
        suspended: bool,
    ) {
        let job = &self.job;
        let out_streams: Vec<StreamId> = (0..job.out_ports(pe))
            .map(|p| job.pe_stream(pe, p))
            .collect();
        let mut inst = sps_engine::PeInstance::new(
            InstanceId { pe, replica },
            job.pe(pe).operator.clone(),
            job.in_ports(pe),
            &out_streams,
        );
        for &(port, stream) in job.input_streams(pe) {
            inst.register_input_stream(port, stream);
        }
        if let Some(ckpt) = &self.subjobs[job.subjob_of(pe).0 as usize].ckpt(pe).stored {
            inst.restore(ckpt);
        }
        inst.set_suspended(suspended);
        self.slots[slot_of(pe, replica)].deploy(inst, machine);
    }

    /// `true` if the destination is currently a serving consumer.
    pub(crate) fn dest_is_serving(&self, dest: Dest) -> bool {
        match dest {
            Dest::Pe { inst, .. } => self.slot_is_serving(slot_of(inst.pe, inst.replica)),
            Dest::Sink(_) => true,
        }
    }

    /// The machine hosting a destination.
    pub(crate) fn dest_machine(&self, dest: Dest) -> MachineId {
        match dest {
            Dest::Pe { inst, .. } => self.slots[slot_of(inst.pe, inst.replica)].machine(),
            Dest::Sink(s) => self.placement.sinks[s.0 as usize],
        }
    }

    /// Installs a benchmark detector on `machine` (detection experiments).
    pub fn add_benchmark_detector(&mut self, machine: MachineId) -> u32 {
        let id = self.bench_detectors.len() as u32;
        self.bench_detectors.push(BenchRt {
            machine,
            det: BenchmarkDetector::default(),
            monitor: sps_cluster::CpuMonitor::new(),
            declarations: Vec::new(),
            predictor: None,
            predictor_declarations: Vec::new(),
            last_probe_at: None,
        });
        id
    }

    /// Attaches a trend predictor to an installed benchmark detector; it is
    /// fed the same CPU samples.
    pub fn attach_predictor(&mut self, det: u32) {
        self.bench_detectors[det as usize].predictor = Some(TrendPredictor::default());
    }

    // ---- accessors used by harnesses ----

    /// The job under test.
    pub fn job(&self) -> &Job {
        &self.job
    }

    /// The configuration.
    pub fn config(&self) -> &HaConfig {
        &self.cfg
    }

    /// Message counters (element-unit overhead accounting).
    pub fn counters(&self) -> &MsgCounters {
        &self.counters
    }

    /// The sinks.
    pub fn sinks(&self) -> &[SinkRuntime] {
        &self.sinks
    }

    /// The sinks, exclusively (for latency quantile queries).
    pub fn sinks_mut(&mut self) -> &mut [SinkRuntime] {
        &mut self.sinks
    }

    /// The sources.
    pub fn sources(&self) -> &[SourceRuntime] {
        &self.sources
    }

    /// Logged HA transitions, derived from the trace bus's control-plane
    /// phase log.
    pub fn ha_events(&self) -> Vec<HaEvent> {
        self.tracer
            .phases()
            .iter()
            .map(|p| HaEvent {
                at: p.at,
                subjob: SubjobId(p.subjob),
                kind: p.phase,
            })
            .collect()
    }

    /// The trace bus.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The trace bus, exclusively (to install sinks).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Emits the audit preamble — the run's shape ([`TraceEvent::AuditMeta`]),
    /// each subjob's HA mode ([`TraceEvent::SubjobMeta`]), and each subjob's
    /// initial epoch/primary — so a streaming auditor (online probe or
    /// offline replay of a recorded dump) knows the expectations to check
    /// against. A no-op unless tracing is enabled (build-time only).
    pub(crate) fn emit_audit_preamble(&mut self, lossless: bool, quiescent: bool) {
        if !self.tracer.is_enabled() {
            return;
        }
        let flat = {
            let topo = self.cluster.topology();
            let machines = topo.machines();
            topo.rack_count() == machines && topo.switch_count() == machines
        };
        self.tracer.emit(
            SimTime::ZERO,
            TraceEvent::AuditMeta {
                subjobs: self.subjobs.len() as u32,
                flat,
                lossless,
                quiescent,
            },
        );
        let metas: Vec<(u32, HaModeTag, u64, u32, u8)> = self
            .subjobs
            .iter()
            .enumerate()
            .map(|(i, sj)| {
                let mode = match sj.mode {
                    HaMode::None => HaModeTag::None,
                    HaMode::Active => HaModeTag::Active,
                    HaMode::Passive => HaModeTag::Passive,
                    HaMode::Hybrid => HaModeTag::Hybrid,
                };
                (
                    i as u32,
                    mode,
                    sj.epoch,
                    sj.primary_machine.0,
                    replica_code(sj.primary_replica),
                )
            })
            .collect();
        for (subjob, mode, epoch, primary_machine, primary_replica) in metas {
            self.tracer
                .emit(SimTime::ZERO, TraceEvent::SubjobMeta { subjob, mode });
            self.tracer.emit(
                SimTime::ZERO,
                TraceEvent::EpochChange {
                    subjob,
                    epoch,
                    cause: EpochCause::Init,
                    primary_machine,
                    primary_replica,
                },
            );
        }
    }

    /// Per-subjob HA state.
    pub fn subjob(&self, sj: SubjobId) -> &SubjobHa {
        &self.subjobs[sj.0 as usize]
    }

    /// Benchmark detectors.
    pub fn bench_detectors(&self) -> &[BenchRt] {
        &self.bench_detectors
    }

    /// The cluster (machines + network).
    pub fn cluster(&self) -> &Cluster<TaskTag> {
        &self.cluster
    }

    /// The cluster, exclusively (fault-injection: partitions, capacities).
    pub fn cluster_mut(&mut self) -> &mut Cluster<TaskTag> {
        &mut self.cluster
    }

    /// One PE instance, if deployed.
    pub fn instance(&self, pe: PeId, replica: Replica) -> Option<&sps_engine::PeInstance> {
        self.slots[slot_of(pe, replica)].copy()
    }

    // ---- lineage + metrics (optional observation layers) ----

    /// Switches causal tuple lineage on (builder-time only).
    pub(crate) fn enable_lineage(&mut self) {
        // One column per stream up front, so recording never grows the vector.
        self.lineage = Some(Box::new(LineageTable::with_streams(
            self.job.stream_count(),
        )));
    }

    /// Switches metrics collection on (builder-time only).
    pub(crate) fn enable_metrics(&mut self) {
        self.metrics = Some(Box::new(Registry::new()));
    }

    /// The lineage table, when lineage tracking was enabled.
    pub fn lineage(&self) -> Option<&LineageTable> {
        self.lineage.as_deref()
    }

    /// The metrics registry, when metrics collection was enabled.
    pub fn metrics(&self) -> Option<&Registry> {
        self.metrics.as_deref()
    }

    /// Switches the online health engine on (builder-time only; the
    /// builder has already enabled metrics).
    pub(crate) fn enable_health(&mut self) {
        assert!(
            self.metrics.is_some(),
            "health engine requires metrics collection"
        );
        let engine = sps_observe::HealthEngine::new(self.cfg.checkpoint_interval);
        self.health = Some(Box::new(engine));
    }

    /// The health engine, when enabled.
    pub fn health(&self) -> Option<&sps_observe::HealthEngine> {
        self.health.as_deref()
    }

    /// Adds `by` to a registry counter — one branch when metrics are off.
    #[inline]
    pub(crate) fn metric_inc(&mut self, scope: Scope, name: &'static str, by: u64) {
        if let Some(registry) = self.metrics.as_deref_mut() {
            registry.inc(scope, name, by);
        }
    }

    /// Moves a subjob to `state`. Every life-cycle transition goes through
    /// here so the per-state counts stay exact; leaving `Normal` unsettles
    /// the subjob until its next epoch ([`SubjobHa::settled`]).
    pub(crate) fn set_sj_state(&mut self, sj: SubjobId, state: SjState) {
        let sj = &mut self.subjobs[sj.0 as usize];
        self.sj_state_counts[sj.state as usize] -= 1;
        self.sj_state_counts[state as usize] += 1;
        sj.settled &= state == SjState::Normal;
        sj.state = state;
    }

    /// A coarse label of what the recovery protocol is doing right now:
    /// the most advanced non-`Normal` subjob state, or `"steady"`. The
    /// self-profiler bins host-side event cost by this label.
    pub fn protocol_phase(&self) -> &'static str {
        // Most advanced first.
        const PHASES: [(SjState, &str); 5] = [
            (SjState::RollingBack, "rolling_back"),
            (SjState::SwitchedOver, "switched_over"),
            (SjState::SwitchingOver, "switching_over"),
            (SjState::Connecting, "ps_connecting"),
            (SjState::Deploying, "ps_deploying"),
        ];
        debug_assert_eq!(
            self.subjobs
                .iter()
                .fold([0; SjState::COUNT], |mut counts, sj| {
                    counts[sj.state as usize] += 1;
                    counts
                }),
            self.sj_state_counts,
            "a subjob state was written past set_sj_state"
        );
        PHASES
            .iter()
            .find(|(state, _)| self.sj_state_counts[*state as usize] > 0)
            .map_or("steady", |&(_, label)| label)
    }

    // ---- periodic read-only sampler ----

    /// The sim-timer-driven sampler. It walks every machine once and then
    /// every PE copy once, and feeds both observers in the same pass: with a
    /// trace sink or probe installed, per-machine load and per-PE queue
    /// snapshots plus queue high-water growth; with metrics enabled, the
    /// machine and PE gauges, then one scrape and a health-engine step.
    /// Strictly read-only — it never advances machines, touches the
    /// scheduling load estimate, or draws randomness, so an observed run
    /// stays bit-identical to a plain one.
    pub(crate) fn on_sample(&mut self, ctx: &mut Ctx<Event>) {
        ctx.schedule_in(SAMPLE_INTERVAL, Event::Sample);
        let now = ctx.now();
        let tracing = self.tracer.is_enabled();
        for m in 0..self.cluster.len() {
            let machine = self.cluster.machine(MachineId(m as u32));
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
                self.tracer.emit(
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
        for (slot, record) in self.slots.iter().enumerate() {
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
                self.tracer.emit(
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
                    self.tracer.emit(
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
                    self.tracer.emit(
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
        self.scrape(now);
    }

    /// The rest of the metrics side of [`on_sample`](Self::on_sample),
    /// after the machine and PE gauges: the redundancy and audit gauges, a
    /// snapshot of every registered metric into the registry's
    /// time-series, then one health-engine step over it.
    fn scrape(&mut self, now: SimTime) {
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
        for (sj_id, sj) in self.job.subjob_ids().zip(&self.subjobs) {
            let standby = sj.primary_replica.other();
            let deployed = |pe: &PeId| self.slots[slot_of(*pe, standby)].copy().is_some();
            let live = sj.secondary_machine.is_some_and(|sec| {
                self.cluster.machine(sec).is_up()
                    && (!self.cfg.predeploys(sj.mode)
                        || self.job.subjob_pes(sj_id).iter().all(deployed))
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
        if self.tracer.has_probes() {
            let mut totals = Vec::new();
            self.tracer.probe_totals(&mut totals);
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
            let injects: Vec<(u32, u64)> = self
                .injected_spikes
                .iter()
                .map(|&(m, start, _)| (m.0, start.as_nanos()))
                .chain(
                    self.injected_failstops
                        .iter()
                        .map(|&(m, at)| (m.0, at.as_nanos())),
                )
                .collect();
            let events = engine.on_scrape(now.as_nanos(), registry, self.tracer.phases(), &injects);
            for event in events {
                self.tracer.emit(now, event);
            }
        }
    }

    // ---- chaos plan ----

    /// Applies one due step of the installed chaos plan.
    pub(crate) fn on_chaos_step(&mut self, ctx: &mut Ctx<Event>, step: u32) {
        let Some(s) = self.chaos_steps.get(step as usize).copied() else {
            return;
        };
        const NONE: u32 = u32::MAX;
        let (kind, a, b) = match &s.action {
            ChaosAction::LinkFaults { src, dst, .. } => (ChaosKind::LinkFaults, src.0, dst.0),
            ChaosAction::ClearLinkFaults { src, dst } => (ChaosKind::ClearLinkFaults, src.0, dst.0),
            ChaosAction::DefaultFaults { profile: Some(_) } => {
                (ChaosKind::DefaultFaults, NONE, NONE)
            }
            ChaosAction::DefaultFaults { profile: None } => {
                (ChaosKind::ClearDefaultFaults, NONE, NONE)
            }
            ChaosAction::Partition { a, b } => (ChaosKind::Partition, a.0, b.0),
            ChaosAction::Heal { a, b } => (ChaosKind::Heal, a.0, b.0),
            ChaosAction::FailStop { machine } => (ChaosKind::FailStop, machine.0, NONE),
            ChaosAction::FailDomain { rack } => (ChaosKind::FailDomain, rack.0, NONE),
            ChaosAction::PartitionSwitch { switch } => (ChaosKind::PartitionSwitch, switch.0, NONE),
            ChaosAction::HealSwitch { switch } => (ChaosKind::HealSwitch, switch.0, NONE),
        };
        self.tracer.emit(
            ctx.now(),
            TraceEvent::ChaosPhase {
                step,
                action: kind,
                a,
                b,
            },
        );
        match s.action {
            ChaosAction::LinkFaults { src, dst, profile } => {
                self.cluster
                    .network_mut()
                    .set_link_faults(src, dst, profile);
            }
            ChaosAction::ClearLinkFaults { src, dst } => {
                self.cluster.network_mut().clear_link_faults(src, dst);
            }
            ChaosAction::DefaultFaults { profile } => {
                self.cluster.network_mut().set_default_faults(profile);
            }
            ChaosAction::Partition { a, b } => {
                self.cluster.network_mut().set_partitioned(a, b, true);
            }
            ChaosAction::Heal { a, b } => {
                self.cluster.network_mut().set_partitioned(a, b, false);
            }
            ChaosAction::FailStop { machine } => self.on_fail_stop(ctx, machine.0),
            ChaosAction::FailDomain { rack } => {
                // Correlated fail-stop: every live machine in the rack dies
                // at once (power-rail loss). Expansion happens here, at
                // apply time, against the installed topology.
                let members: Vec<MachineId> =
                    self.cluster.topology().machines_in_rack(rack).collect();
                for m in members {
                    if self.cluster.machine(m).is_up() {
                        self.on_fail_stop(ctx, m.0);
                    }
                }
            }
            ChaosAction::PartitionSwitch { switch } => {
                self.partitioned_switches.insert(switch.0);
                self.set_switch_partitioned(switch, true);
            }
            ChaosAction::HealSwitch { switch } => {
                self.partitioned_switches.remove(&switch.0);
                self.set_switch_partitioned(switch, false);
            }
        }
    }

    /// Partitions (or heals) every link crossing `switch`: machines behind
    /// it lose connectivity to every machine that is not.
    fn set_switch_partitioned(&mut self, switch: sps_cluster::SwitchId, on: bool) {
        let topo = self.cluster.topology();
        let inside: BTreeSet<u32> = topo.machines_behind_switch(switch).map(|m| m.0).collect();
        let outside: Vec<u32> = (0..self.cluster.len() as u32)
            .filter(|m| !inside.contains(m))
            .collect();
        for &i in &inside {
            for &o in &outside {
                self.cluster
                    .network_mut()
                    .set_partitioned(MachineId(i), MachineId(o), on);
            }
        }
    }

    /// `true` when `m`'s fault domain has an active correlated fault: its
    /// switch is partitioned, or any machine in its rack is down. Under
    /// the flat topology (every machine alone in its domain) this reduces
    /// to "`m` itself is down or isolated".
    pub(crate) fn domain_has_active_fault(&self, m: MachineId) -> bool {
        let topo = self.cluster.topology();
        if self.partitioned_switches.contains(&topo.switch_of(m).0) {
            return true;
        }
        topo.machines_in_rack(topo.rack_of(m))
            .any(|peer| !self.cluster.machine(peer).is_up())
    }

    /// Removes and returns the best spare for a new standby: up, in a
    /// fault-free domain, and (when `disjoint_from` is given) domain-
    /// disjoint from that machine. Scans from the *back* of the spare list
    /// so that with a flat topology and healthy spares it picks exactly
    /// the machine `spares.pop()` always picked.
    pub(crate) fn take_safe_spare(
        &mut self,
        disjoint_from: Option<MachineId>,
    ) -> Option<MachineId> {
        let pos = self.placement.spares.iter().rposition(|&s| {
            self.cluster.machine(s).is_up()
                && !self.domain_has_active_fault(s)
                && disjoint_from.is_none_or(|p| self.cluster.topology().domain_disjoint(s, p))
        })?;
        Some(self.placement.spares.remove(pos))
    }
}

/// The trace-layer encoding of a replica: 0 primary, 1 secondary.
pub(crate) fn replica_code(replica: Replica) -> u8 {
    match replica {
        Replica::Primary => 0,
        Replica::Secondary => 1,
    }
}

/// The instance-slot index of `(pe, replica)`.
pub(crate) fn slot_of(pe: PeId, replica: Replica) -> usize {
    pe.0 as usize * 2
        + match replica {
            Replica::Primary => 0,
            Replica::Secondary => 1,
        }
}

/// The `(pe, replica)` of an instance-slot index.
pub(crate) fn unslot(slot: usize) -> (PeId, Replica) {
    (
        PeId((slot / 2) as u32),
        if slot.is_multiple_of(2) {
            Replica::Primary
        } else {
            Replica::Secondary
        },
    )
}

impl World for HaWorld {
    type Event = Event;

    fn handle(&mut self, ctx: &mut Ctx<Event>, event: Event) {
        match event {
            Event::SourceTick { source, gen } => self.on_source_tick(ctx, source, gen),
            Event::MachineTick { machine, gen } => self.on_machine_tick(ctx, machine, gen),
            Event::Deliver { to, msg } => self.on_deliver(ctx, to, msg),
            Event::HeartbeatTick => self.on_heartbeat_round(ctx),
            Event::CheckpointTimer { subjob, pe } => self.on_checkpoint_timer(ctx, subjob, pe),
            Event::SwitchoverComplete { subjob, epoch } => {
                self.on_switchover_complete(ctx, subjob, epoch)
            }
            Event::DeployComplete { subjob, epoch } => self.on_deploy_complete(ctx, subjob, epoch),
            Event::ConnectComplete { subjob, epoch } => {
                self.on_connect_complete(ctx, subjob, epoch)
            }
            Event::SecondaryReady { subjob, epoch } => self.on_secondary_ready(ctx, subjob, epoch),
            Event::SetBackground {
                machine,
                component,
                share,
            } => self.on_set_background(ctx, machine, component, share),
            Event::FailStop { machine } => self.on_fail_stop(ctx, machine),
            Event::BenchSample { det } => self.on_bench_sample(ctx, det),
            Event::Sample => self.on_sample(ctx),
            Event::StopSources => {
                for s in &mut self.sources {
                    s.stop();
                }
            }
            Event::SubmitTask {
                machine,
                demand_secs,
                tag,
            } => {
                let m = MachineId(machine);
                if self.cluster.machine(m).is_up() {
                    self.submit_task(ctx, m, demand_secs, tag);
                }
            }
            Event::RelRetransmit { tx } => self.on_rel_retransmit(ctx, tx),
            Event::RetransmitSweep => self.on_retransmit_sweep(ctx),
            Event::ChaosStep { step } => self.on_chaos_step(ctx, step),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sps_engine::OperatorSpec;

    fn job() -> Job {
        Job::chain("t", &OperatorSpec::synthetic_default(), 8, 4)
    }

    #[test]
    fn slot_mapping_round_trips() {
        for pe in 0..16u32 {
            for replica in Replica::BOTH {
                let slot = slot_of(PeId(pe), replica);
                assert_eq!(unslot(slot), (PeId(pe), replica));
            }
        }
        assert_eq!(slot_of(PeId(0), Replica::Primary), 0);
        assert_eq!(slot_of(PeId(0), Replica::Secondary), 1);
        assert_eq!(slot_of(PeId(1), Replica::Primary), 2);
    }

    #[test]
    fn default_placement_layout() {
        let p = Placement::default_for(&job());
        assert_eq!(
            p.primaries,
            vec![MachineId(0), MachineId(1), MachineId(2), MachineId(3)]
        );
        assert_eq!(p.sinks, vec![MachineId(4)]);
        assert_eq!(
            p.secondaries,
            vec![
                Some(MachineId(5)),
                Some(MachineId(6)),
                Some(MachineId(7)),
                Some(MachineId(8))
            ]
        );
        assert_eq!(
            p.sources,
            vec![MachineId(0)],
            "source co-located with subjob 0"
        );
        assert_eq!(p.spares.len(), 2);
        assert_eq!(p.machine_count(), 11);
    }

    #[test]
    fn domain_aware_placement_matches_default_under_flat_topology() {
        let d = Placement::default_for(&job());
        let p = Placement::domain_aware_for(&job(), &FaultTopology::flat(d.machine_count()));
        assert_eq!(p.primaries, d.primaries);
        assert_eq!(p.secondaries, d.secondaries);
        assert_eq!(p.sources, d.sources);
        assert_eq!(p.sinks, d.sinks);
        assert_eq!(p.spares, d.spares);
    }

    #[test]
    fn domain_aware_placement_keeps_pairs_disjoint_on_a_grid() {
        // 16 machines: 4 racks of 4, 2 racks per switch. All primaries
        // (m0-m3) share rack 0, so every standby must land behind the
        // other switch.
        let t = FaultTopology::grid(16, 4, 2);
        let p = Placement::domain_aware_for(&job(), &t);
        for (i, sec) in p.secondaries.iter().enumerate() {
            assert!(t.domain_disjoint(p.primaries[i], sec.unwrap()));
        }
        assert_eq!(p.machine_count(), 16);
        assert!(!p.spares.is_empty());
    }

    /// Naive first-fit: for each subjob, scan every machine from 0 for the
    /// first unused one domain-disjoint from its primary. This is the scan
    /// `domain_aware_for` used to run, with a `Vec<bool>` in place of its
    /// `BTreeSet` so that debug builds stay quick.
    fn reference_domain_aware(job: &Job, topology: &FaultTopology) -> Placement {
        let base = Placement::default_for(job);
        let machines = topology.machines();
        let mut used = vec![false; machines];
        for m in base
            .primaries
            .iter()
            .chain(&base.sources)
            .chain(&base.sinks)
        {
            if let Some(u) = used.get_mut(m.0 as usize) {
                *u = true;
            }
        }
        let mut secondaries = Vec::new();
        for &primary in &base.primaries {
            let pick = (0..machines)
                .find(|&m| !used[m] && topology.domain_disjoint(primary, MachineId(m as u32)))
                .unwrap_or_else(|| {
                    panic!("no unused machine is domain-disjoint from primary {primary:?}")
                });
            used[pick] = true;
            secondaries.push(Some(MachineId(pick as u32)));
        }
        Placement {
            spares: (0..machines as u32)
                .filter(|&m| !used[m as usize])
                .map(MachineId)
                .collect(),
            secondaries,
            ..base
        }
    }

    /// A chain of `subjobs` one-PE subjobs whose tail feeds `sinks` sinks.
    fn wide_job(subjobs: usize, sinks: usize) -> Job {
        let mut b = sps_engine::JobBuilder::new("wide");
        let src = b.add_source("src");
        let pes: Vec<PeId> = (0..subjobs)
            .map(|i| b.add_pe(format!("pe{i}"), OperatorSpec::synthetic_default()))
            .collect();
        b.connect_source(src, pes[0], 0);
        for pair in pes.windows(2) {
            b.connect(pair[0], 0, pair[1], 0);
        }
        for i in 0..sinks {
            let sink = b.add_sink(format!("sink{i}"));
            b.connect_sink(pes[subjobs - 1], 0, sink);
        }
        b.subjobs(pes.iter().map(|&pe| vec![pe]).collect());
        b.build().expect("valid chain")
    }

    /// The placement, or the panic message it died with.
    fn placed(f: impl FnOnce() -> Placement) -> Result<Placement, String> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        })
    }

    #[test]
    fn domain_aware_placement_agrees_with_naive_first_fit() {
        let mut rng = sps_sim::SimRng::seed_from(0x91AC);
        let (mut fits, mut panics) = (0, 0);
        for case in 0..48 {
            let machines = rng.uniform_u64(10, 6_001) as usize;
            let topology = match rng.uniform_u64(0, 4) {
                0 => FaultTopology::flat(machines),
                // One switch over everything: nothing is domain-disjoint.
                1 => FaultTopology::grid(machines, 1 + machines / 3, 3),
                _ => FaultTopology::grid(
                    machines,
                    *rng.pick(&[1, 2, 4, 5, 20]),
                    *rng.pick(&[1, 2, 3, 5]),
                ),
            };
            // Mostly a job the budget can hold; now and then one it cannot.
            let cap = if rng.chance(0.15) {
                2_049
            } else {
                (machines - 3) / 2
            };
            let subjobs = rng.uniform_u64(1, cap.clamp(1, 2_049) as u64 + 1) as usize;
            let job = wide_job(subjobs, 1 + rng.uniform_u64(0, 3) as usize);
            let want = placed(|| reference_domain_aware(&job, &topology));
            let got = placed(|| Placement::domain_aware_for(&job, &topology));
            match (want, got) {
                (Ok(w), Ok(g)) => {
                    assert_eq!(g.primaries, w.primaries, "case {case}");
                    assert_eq!(g.secondaries, w.secondaries, "case {case}");
                    assert_eq!(g.sources, w.sources, "case {case}");
                    assert_eq!(g.sinks, w.sinks, "case {case}");
                    assert_eq!(g.spares, w.spares, "case {case}");
                    fits += 1;
                }
                (Err(w), Err(g)) => {
                    assert_eq!(g, w, "case {case}");
                    panics += 1;
                }
                (w, g) => panic!("case {case}: reference {:?}, change {:?}", w.err(), g.err()),
            }
        }
        assert!(
            fits >= 25 && panics >= 5,
            "{fits} placed, {panics} panicked"
        );
    }

    #[test]
    #[should_panic(expected = "no unused machine is domain-disjoint")]
    fn domain_aware_placement_panics_with_too_few_machines() {
        // Four subjobs and a sink leave three of eight machines free.
        Placement::domain_aware_for(&job(), &FaultTopology::flat(8));
    }

    /// `bench_scale`'s widest cell: 2,049 subjobs on 5,000 machines, 20 per
    /// rack and 5 racks per switch. FNV-1a over every secondary then every
    /// spare.
    #[test]
    fn wide_domain_aware_placement_digest() {
        let job = Job::sharded("wide", &OperatorSpec::synthetic_default(), 2_048, 1e-6);
        let p = Placement::domain_aware_for(&job, &FaultTopology::grid(5_000, 20, 5));
        let ids = p.secondaries.iter().flatten().chain(&p.spares);
        let digest = ids.fold(0xcbf2_9ce4_8422_2325u64, |h, m| {
            m.0.to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
        });
        assert_eq!((p.secondaries.len(), p.spares.len()), (2_049, 901));
        assert_eq!(digest, 0x5405_b2b2_0185_9ef4, "digest {digest:#018x}");
    }

    #[test]
    fn machine_count_spans_custom_layouts() {
        let mut p = Placement::default_for(&job());
        p.secondaries[3] = Some(MachineId(40));
        assert_eq!(p.machine_count(), 41);
    }

    #[test]
    fn subjob_state_is_stale_after_epoch_bump() {
        let sj = SubjobHa {
            mode: HaMode::Hybrid,
            primary_machine: MachineId(0),
            secondary_machine: Some(MachineId(1)),
            primary_replica: Replica::Primary,
            state: SjState::Normal,
            epoch: 3,
            settled: true,
            pending: None,
            ckpts: Vec::new(),
            switch_overhead_elements: 0,
            hb: Some(HeartbeatMonitor::new()),
            declarations: Vec::new(),
        };
        assert!(!sj.is_stale(3));
        assert!(sj.is_stale(2));
        assert!(sj.is_stale(4));
    }
}
