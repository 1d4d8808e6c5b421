//! The typed trace-event model and its JSONL encoding.
//!
//! Every observable action in the simulator maps to one [`TraceEvent`]
//! variant. Events carry only primitive fields (ids, counts, sizes,
//! sim-times as nanoseconds) so they can be encoded to JSON Lines without
//! a serialisation framework and compared byte-for-byte across runs.

use std::fmt::Write as _;

use sps_sim::SimTime;

/// Why a data-plane element was dropped instead of delivered/accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DropReason {
    /// The destination machine was failed-stop at delivery time.
    MachineDown,
    /// The delivery raced a completed switch-over/rollback and carried a
    /// stale epoch.
    StaleEpoch,
    /// The receiving input queue had already accepted this sequence number
    /// (duplicate from a redundant replica or a retransmission overlap).
    Duplicate,
}

impl DropReason {
    /// Stable lower-snake name used in the JSONL encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            DropReason::MachineDown => "machine_down",
            DropReason::StaleEpoch => "stale_epoch",
            DropReason::Duplicate => "duplicate",
        }
    }
}

/// The kind of chaos-plan action a [`TraceEvent::ChaosPhase`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ChaosKind {
    /// A fault profile was installed on one directed link.
    LinkFaults,
    /// A directed link's fault profile was removed.
    ClearLinkFaults,
    /// The network-wide default fault profile was set.
    DefaultFaults,
    /// The network-wide default fault profile was cleared.
    ClearDefaultFaults,
    /// A two-way partition was cut.
    Partition,
    /// A partition was healed.
    Heal,
    /// A machine was fail-stopped.
    FailStop,
    /// A machine's CPU capacity was gray-degraded (or restored).
    GrayDegrade,
    /// Every machine in one rack fault domain was fail-stopped at once.
    FailDomain,
    /// Every machine behind one switch was partitioned from the rest.
    PartitionSwitch,
    /// A switch partition was healed.
    HealSwitch,
}

impl ChaosKind {
    /// Stable lower-snake name used in the JSONL encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            ChaosKind::LinkFaults => "link_faults",
            ChaosKind::ClearLinkFaults => "clear_link_faults",
            ChaosKind::DefaultFaults => "default_faults",
            ChaosKind::ClearDefaultFaults => "clear_default_faults",
            ChaosKind::Partition => "partition",
            ChaosKind::Heal => "heal",
            ChaosKind::FailStop => "fail_stop",
            ChaosKind::GrayDegrade => "gray_degrade",
            ChaosKind::FailDomain => "fail_domain",
            ChaosKind::PartitionSwitch => "partition_switch",
            ChaosKind::HealSwitch => "heal_switch",
        }
    }
}

/// Why a failover attempt was abandoned without promoting anything
/// (see [`TraceEvent::FailoverAborted`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AbortReason {
    /// The standby was already lost and no spare machine remained.
    NoStandby,
    /// The promotion-safety ladder rejected the standby (stale heartbeat
    /// or checkpoint lag) and no safe spare remained.
    StandbyUnhealthy,
    /// The standby's machine sits in a fault domain with an active fault
    /// and no domain-disjoint spare remained.
    DomainFault,
}

impl AbortReason {
    /// Stable lower-snake name used in the JSONL encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            AbortReason::NoStandby => "no_standby",
            AbortReason::StandbyUnhealthy => "standby_unhealthy",
            AbortReason::DomainFault => "domain_fault",
        }
    }
}

/// A named phase of a recovery cycle, as logged on the control plane.
///
/// This is the single source of truth for recovery phases: `sps-ha`
/// re-exports it as `HaEventKind`, and the recovery-time decomposition in
/// `sps-metrics` is derived from spans of these phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RecoveryPhase {
    /// A transient failure was declared (PS: 3 misses, Hybrid: 1 miss).
    Detected,
    /// Hybrid switch-over completed (secondary live).
    SwitchoverComplete,
    /// Hybrid rollback started (fresh pong received).
    RollbackStarted,
    /// Hybrid rollback completed (primary restored and live).
    RollbackComplete,
    /// PS deployment completed.
    PsDeployed,
    /// PS connections established (new copy live).
    PsConnected,
    /// Fail-stop declared; secondary promoted to primary.
    Promoted,
    /// Replacement secondary deployed and suspended.
    SecondaryReady,
}

impl RecoveryPhase {
    /// Stable lower-snake name used in the JSONL encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            RecoveryPhase::Detected => "detected",
            RecoveryPhase::SwitchoverComplete => "switchover_complete",
            RecoveryPhase::RollbackStarted => "rollback_started",
            RecoveryPhase::RollbackComplete => "rollback_complete",
            RecoveryPhase::PsDeployed => "ps_deployed",
            RecoveryPhase::PsConnected => "ps_connected",
            RecoveryPhase::Promoted => "promoted",
            RecoveryPhase::SecondaryReady => "secondary_ready",
        }
    }

    /// Inverse of [`as_str`](Self::as_str): parses the JSONL phase name
    /// (offline analyzers reconstruct phase logs from trace dumps).
    pub fn parse(name: &str) -> Option<RecoveryPhase> {
        Some(match name {
            "detected" => RecoveryPhase::Detected,
            "switchover_complete" => RecoveryPhase::SwitchoverComplete,
            "rollback_started" => RecoveryPhase::RollbackStarted,
            "rollback_complete" => RecoveryPhase::RollbackComplete,
            "ps_deployed" => RecoveryPhase::PsDeployed,
            "ps_connected" => RecoveryPhase::PsConnected,
            "promoted" => RecoveryPhase::Promoted,
            "secondary_ready" => RecoveryPhase::SecondaryReady,
            _ => return None,
        })
    }
}

/// The HA mode of one subjob, as carried by [`TraceEvent::SubjobMeta`].
///
/// Mirrors `sps_ha::HaMode` without depending on it: the trace crate sits
/// below the protocol crate, and offline analyzers (the auditor's replay
/// frontend) must reconstruct modes from dumps alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HaModeTag {
    /// Single copy, no failure handling.
    None,
    /// Active standby (two serving copies, downstream dedup).
    Active,
    /// Passive standby (checkpoints, deploy on demand).
    Passive,
    /// The paper's hybrid.
    Hybrid,
}

impl HaModeTag {
    /// Stable lower-snake name used in the JSONL encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            HaModeTag::None => "none",
            HaModeTag::Active => "active",
            HaModeTag::Passive => "passive",
            HaModeTag::Hybrid => "hybrid",
        }
    }

    /// Inverse of [`as_str`](Self::as_str) for offline replay.
    pub fn parse(name: &str) -> Option<HaModeTag> {
        Some(match name {
            "none" => HaModeTag::None,
            "active" => HaModeTag::Active,
            "passive" => HaModeTag::Passive,
            "hybrid" => HaModeTag::Hybrid,
            _ => return None,
        })
    }
}

/// Which protocol transition bumped a subjob's epoch (see
/// [`TraceEvent::EpochChange`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EpochCause {
    /// Initial deployment (epoch 0, emitted once per subjob at build).
    Init,
    /// A switch-over in flight was aborted by a fresh pong (false alarm).
    SwitchoverAbort,
    /// Hybrid switch-over began (secondary resuming).
    Switchover,
    /// PS declared a failure and started an on-demand deploy.
    PsDetect,
    /// A deployed copy finished connecting and took over (role swap).
    PsConnect,
    /// Fail-stop promotion: the secondary became the primary.
    Promote,
    /// Promotion fell back to a spare redeploy (dead primary, PS path).
    SpareRedeploy,
    /// The standby machine died; the subjob dropped to one copy.
    StandbyLost,
}

impl EpochCause {
    /// Stable lower-snake name used in the JSONL encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            EpochCause::Init => "init",
            EpochCause::SwitchoverAbort => "switchover_abort",
            EpochCause::Switchover => "switchover",
            EpochCause::PsDetect => "ps_detect",
            EpochCause::PsConnect => "ps_connect",
            EpochCause::Promote => "promote",
            EpochCause::SpareRedeploy => "spare_redeploy",
            EpochCause::StandbyLost => "standby_lost",
        }
    }

    /// Inverse of [`as_str`](Self::as_str) for offline replay.
    pub fn parse(name: &str) -> Option<EpochCause> {
        Some(match name {
            "init" => EpochCause::Init,
            "switchover_abort" => EpochCause::SwitchoverAbort,
            "switchover" => EpochCause::Switchover,
            "ps_detect" => EpochCause::PsDetect,
            "ps_connect" => EpochCause::PsConnect,
            "promote" => EpochCause::Promote,
            "spare_redeploy" => EpochCause::SpareRedeploy,
            "standby_lost" => EpochCause::StandbyLost,
            _ => return None,
        })
    }
}

/// The protocol invariant an [`TraceEvent::AuditViolation`] breaks.
///
/// The checker semantics live in `sps-audit`; the names live here so the
/// violation event encodes/parses like every other trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AuditInvariant {
    /// A sink accepted an already-processed sequence number (receiver
    /// dedup failed) or its processed-through position regressed.
    SinkExactlyOnce,
    /// At end of a quiescent lossless run, a sink's processed-through
    /// position never caught up with the highest sequence it saw.
    SinkSeqGap,
    /// A checkpoint-acked primary acknowledged upstream beyond its last
    /// stored checkpoint position (§III-B ordering).
    CkptAckOrder,
    /// A subjob's epoch failed to increase across a transition.
    EpochRegression,
    /// Two different primaries were declared for the same subjob epoch.
    SplitBrain,
    /// A recovery-phase transition that the subjob's HA mode cannot
    /// legally produce.
    IllegalPhase,
    /// A reliable-transfer retransmission attempt number repeated or
    /// regressed (the flagged-once rule).
    RetransmitReflag,
    /// A promotion completed without re-provisioning a standby and
    /// without declaring the failover aborted.
    StandbyCoverage,
    /// A freshly provisioned standby landed in the primary's fault domain
    /// on a non-flat topology.
    DomainDisjoint,
}

impl AuditInvariant {
    /// Every invariant, in report order.
    pub const ALL: [AuditInvariant; 9] = [
        AuditInvariant::SinkExactlyOnce,
        AuditInvariant::SinkSeqGap,
        AuditInvariant::CkptAckOrder,
        AuditInvariant::EpochRegression,
        AuditInvariant::SplitBrain,
        AuditInvariant::IllegalPhase,
        AuditInvariant::RetransmitReflag,
        AuditInvariant::StandbyCoverage,
        AuditInvariant::DomainDisjoint,
    ];

    /// Stable lower-snake name used in the JSONL encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            AuditInvariant::SinkExactlyOnce => "sink_exactly_once",
            AuditInvariant::SinkSeqGap => "sink_seq_gap",
            AuditInvariant::CkptAckOrder => "ckpt_ack_order",
            AuditInvariant::EpochRegression => "epoch_regression",
            AuditInvariant::SplitBrain => "split_brain",
            AuditInvariant::IllegalPhase => "illegal_phase",
            AuditInvariant::RetransmitReflag => "retransmit_reflag",
            AuditInvariant::StandbyCoverage => "standby_coverage",
            AuditInvariant::DomainDisjoint => "domain_disjoint",
        }
    }

    /// Inverse of [`as_str`](Self::as_str) for offline replay.
    pub fn parse(name: &str) -> Option<AuditInvariant> {
        AuditInvariant::ALL.into_iter().find(|i| i.as_str() == name)
    }
}

/// The detector family a [`TraceEvent::Anomaly`] verdict belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AnomalyKind {
    /// Queue-depth high-water trend: input queues growing past threshold.
    Backpressure,
    /// Checkpoint sweep overran its interval budget (no store completed).
    CheckpointStall,
    /// Heartbeat suspect/refute churn above the flakiness band.
    HeartbeatFlaky,
    /// A recovery cycle in flight has burned past its time budget.
    RecoveryBudgetBurn,
    /// A subjob is running without a live standby (redundancy lost until
    /// re-provisioning completes).
    RedundancyLoss,
    /// The protocol auditor's violation count increased (any invariant).
    AuditViolations,
}

impl AnomalyKind {
    /// Stable lower-snake name used in the JSONL encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            AnomalyKind::Backpressure => "backpressure",
            AnomalyKind::CheckpointStall => "checkpoint_stall",
            AnomalyKind::HeartbeatFlaky => "heartbeat_flaky",
            AnomalyKind::RecoveryBudgetBurn => "recovery_budget_burn",
            AnomalyKind::RedundancyLoss => "redundancy_loss",
            AnomalyKind::AuditViolations => "audit_violations",
        }
    }
}

/// One typed, sim-time-free trace event. The timestamp lives in the
/// enclosing [`TraceRecord`] so the event payload stays reusable.
///
/// Field conventions: `machine` is a machine index, `pe` a processing
/// element id, `replica` is `0` for primary / `1` for secondary, `subjob`
/// a subjob index, and times are sim-time nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A data element (or batch) left an instance's output queue.
    ElementSend {
        /// Sending PE id.
        pe: u32,
        /// Sending replica (0 primary, 1 secondary).
        replica: u8,
        /// Stream the elements belong to.
        stream: u32,
        /// Number of elements in the message.
        elements: u32,
        /// Highest sequence number in the batch.
        last_seq: u64,
    },
    /// A data message was accepted by the receiving instance.
    ElementRecv {
        /// Receiving PE id.
        pe: u32,
        /// Receiving replica.
        replica: u8,
        /// Stream the elements belong to.
        stream: u32,
        /// Elements newly accepted for processing.
        accepted: u32,
        /// Elements stashed waiting for a sequence gap to fill.
        stashed: u32,
        /// Elements rejected as duplicates.
        duplicates: u32,
    },
    /// A data-plane message was dropped instead of delivered.
    ElementDrop {
        /// Destination machine index.
        machine: u32,
        /// Elements lost with the message.
        elements: u32,
        /// Why the message was dropped.
        reason: DropReason,
    },
    /// A downstream acknowledged element receipt back upstream.
    Ack {
        /// The PE whose output queue is being acknowledged.
        pe: u32,
        /// Replica of that PE.
        replica: u8,
        /// Acknowledged-through sequence number.
        through_seq: u64,
    },
    /// A checkpoint began for one PE instance.
    CheckpointStart {
        /// PE being checkpointed.
        pe: u32,
        /// Replica being checkpointed.
        replica: u8,
    },
    /// A checkpoint message (state snapshot) was produced and sent.
    CheckpointSent {
        /// PE whose state was captured.
        pe: u32,
        /// Replica whose state was captured.
        replica: u8,
        /// Retained elements captured in the snapshot.
        elements: u32,
        /// Serialised size of the checkpoint message.
        bytes: u64,
    },
    /// A checkpoint reached stable storage / the standby.
    CheckpointStored {
        /// PE whose checkpoint completed.
        pe: u32,
        /// Replica whose checkpoint completed.
        replica: u8,
    },
    /// A heartbeat ping was sent to a monitored machine.
    HeartbeatPing {
        /// Monitored machine index.
        machine: u32,
        /// Ping sequence number.
        seq: u64,
    },
    /// A heartbeat reply came back fresh (clears suspicion if any).
    HeartbeatPong {
        /// Replying machine index.
        machine: u32,
        /// Sequence number being answered.
        seq: u64,
        /// Whether this pong cleared an active suspicion.
        cleared_suspicion: bool,
    },
    /// A heartbeat tick found outstanding unanswered pings.
    HeartbeatMiss {
        /// Monitored machine index.
        machine: u32,
        /// Consecutive misses so far.
        streak: u32,
    },
    /// A benchmark detector probe task was submitted.
    BenchProbe {
        /// Probed machine index.
        machine: u32,
    },
    /// A benchmark detector probe completed and produced a verdict.
    BenchVerdict {
        /// Probed machine index.
        machine: u32,
        /// Measured probe latency in sim nanoseconds.
        latency_ns: u64,
        /// Whether the probe declared the machine overloaded.
        overloaded: bool,
    },
    /// A failure (spike window or fail-stop) was injected by the harness.
    FailureInject {
        /// Affected machine index.
        machine: u32,
        /// `true` for a permanent fail-stop, `false` for a load spike.
        fail_stop: bool,
    },
    /// The control plane declared a machine failed/overloaded.
    FailureDetect {
        /// Declared machine index.
        machine: u32,
        /// Affected subjob index.
        subjob: u32,
        /// Consecutive heartbeat misses at declaration time.
        miss_streak: u32,
    },
    /// A recovery phase boundary on the control plane.
    Recovery {
        /// Affected subjob index.
        subjob: u32,
        /// Which phase boundary was crossed.
        phase: RecoveryPhase,
    },
    /// A failover attempt gave up without promoting: the subjob keeps its
    /// (possibly failed) primary and has lost redundancy. Previously a
    /// silent dead-end; now visible to health reports and `sps-inspect`.
    FailoverAborted {
        /// Affected subjob index.
        subjob: u32,
        /// The standby machine the ladder rejected (or `u32::MAX` when no
        /// standby existed at all).
        machine: u32,
        /// Why the attempt was abandoned.
        reason: AbortReason,
    },
    /// A queue reached a new high-water mark (only growth is reported).
    QueueHighWater {
        /// Owning PE id.
        pe: u32,
        /// Owning replica.
        replica: u8,
        /// `true` for the input queue, `false` for the output queue.
        input: bool,
        /// The new high-water depth in elements.
        depth: u64,
    },
    /// A periodic telemetry snapshot of one machine.
    MachineSnapshot {
        /// Machine index.
        machine: u32,
        /// Mean total utilisation over the last sample interval (0..=1+).
        cpu_load: f64,
        /// Background (injected) share at snapshot time.
        background: f64,
        /// Runnable simulated tasks at snapshot time.
        run_queue: u32,
    },
    /// A periodic telemetry snapshot of one PE instance.
    PeSnapshot {
        /// PE id.
        pe: u32,
        /// Replica.
        replica: u8,
        /// Pending input elements (accepted + stashed).
        input_depth: u64,
        /// Retained output elements (sent but unacknowledged).
        output_backlog: u64,
        /// Total elements processed so far.
        processed_total: u64,
    },
    /// The network dropped a message (partition or chaos loss).
    NetDrop {
        /// Sending machine index.
        src: u32,
        /// Destination machine index.
        dst: u32,
        /// Wire size of the lost message.
        bytes: u64,
        /// `true` for chaos loss, `false` for a partition drop.
        chaos: bool,
    },
    /// The network delivered a chaos-duplicated copy of a message.
    NetDuplicate {
        /// Sending machine index.
        src: u32,
        /// Destination machine index.
        dst: u32,
        /// Wire size of the duplicated message.
        bytes: u64,
    },
    /// The reliable control plane retransmitted an unacknowledged message.
    Retransmit {
        /// Sending machine index.
        src: u32,
        /// Destination machine index.
        dst: u32,
        /// Reliable-transfer id being retried.
        tx: u64,
        /// Retry attempt number (1 = first retransmission).
        attempt: u32,
    },
    /// A chaos-plan step was applied to the cluster.
    ChaosPhase {
        /// Index of the step within the plan.
        step: u32,
        /// What kind of action fired.
        action: ChaosKind,
        /// First machine involved (or `u32::MAX` when not applicable).
        a: u32,
        /// Second machine involved (or `u32::MAX` when not applicable).
        b: u32,
    },
    /// An SLO monitor crossed its breach boundary (health engine).
    SloBreach {
        /// Index of the monitor in the health engine's table (the health
        /// report maps indices to monitor names).
        monitor: u32,
        /// `true` when the breach begins, `false` when it clears.
        entered: bool,
        /// The observed statistic at the crossing scrape.
        observed: f64,
        /// The spec's threshold.
        threshold: f64,
        /// Breach duration in sim nanoseconds (0 on enter).
        duration_ns: u64,
    },
    /// An anomaly detector changed verdict (health engine).
    Anomaly {
        /// Which detector family fired.
        detector: AnomalyKind,
        /// Machine the verdict is about (or `u32::MAX` when global).
        machine: u32,
        /// PE the verdict is about (or `u32::MAX` when not PE-scoped).
        pe: u32,
        /// `true` at onset, `false` at clear.
        onset: bool,
        /// The detector's signal value at the transition.
        value: f64,
    },
    /// Run-level audit metadata, emitted once at build time whenever the
    /// tracer is enabled. Makes recorded dumps self-describing for the
    /// offline auditor (`sps-inspect audit`).
    AuditMeta {
        /// Number of subjobs in the job.
        subjobs: u32,
        /// `true` when the fault topology is flat (every machine its own
        /// domain) — domain-disjointness is then vacuous and unaudited.
        flat: bool,
        /// The scenario expects every produced element to reach its sink
        /// (reliable control plane and/or no unrecovered loss).
        lossless: bool,
        /// The scenario stops its sources and drains before the end of the
        /// run, so end-of-run liveness checks (seq gaps, standby coverage)
        /// are meaningful.
        quiescent: bool,
    },
    /// Per-subjob audit metadata (HA mode), emitted after
    /// [`AuditMeta`](Self::AuditMeta) at build time.
    SubjobMeta {
        /// Subjob index.
        subjob: u32,
        /// The subjob's HA mode.
        mode: HaModeTag,
    },
    /// A data delivery arrived at a sink: the receiver-side exactly-once
    /// ledger, aggregated per message (batch-aware via the range stamp).
    SinkDeliver {
        /// Sink index.
        sink: u32,
        /// Stream the delivery belongs to.
        stream: u32,
        /// Lowest sequence number in the delivery.
        seq_start: u64,
        /// Highest sequence number in the delivery.
        seq_end: u64,
        /// Elements newly accepted (including drained stash).
        newly_accepted: u32,
        /// Elements rejected as duplicates of already-processed positions.
        duplicates: u32,
        /// The sink's cumulative processed-through position afterwards.
        processed_through: u64,
    },
    /// A stored checkpoint covers acknowledgments up to `seq` on one input
    /// stream of a checkpoint-acked primary PE (§III-B: the positions
    /// snapshotted with the checkpoint, released when the store confirms).
    CheckpointCovered {
        /// PE whose checkpoint stored.
        pe: u32,
        /// Replica of that PE.
        replica: u8,
        /// Input stream the covered position belongs to.
        stream: u32,
        /// Covered (ackable) sequence position.
        seq: u64,
    },
    /// A checkpoint-acked primary sent a cumulative upstream ack. Legal
    /// only at or below the last [`CheckpointCovered`](Self::CheckpointCovered)
    /// position for the same (pe, replica, stream).
    AckSent {
        /// Acking PE.
        pe: u32,
        /// Acking replica.
        replica: u8,
        /// Stream being acknowledged.
        stream: u32,
        /// Acknowledged-through sequence position.
        seq: u64,
    },
    /// A subjob epoch bump: every role/life-cycle transition the stale-epoch
    /// guard keys on, with the post-transition primary identity.
    EpochChange {
        /// Affected subjob index.
        subjob: u32,
        /// The new epoch value.
        epoch: u64,
        /// Which transition bumped it.
        cause: EpochCause,
        /// Machine playing the primary role after the transition.
        primary_machine: u32,
        /// Replica slot playing the primary role after the transition.
        primary_replica: u8,
    },
    /// The standby slot of a subjob was (re)assigned after a failover
    /// transition — or left empty (`machine == u32::MAX`), which must be
    /// accompanied by a [`FailoverAborted`](Self::FailoverAborted).
    StandbyProvision {
        /// Affected subjob index.
        subjob: u32,
        /// The new standby machine, or `u32::MAX` when none remained.
        machine: u32,
        /// `true` when the machine was freshly taken from the spare pool
        /// (domain-disjointness is then required on non-flat topologies).
        fresh: bool,
        /// Fault domain of the primary machine (`u32::MAX` when unknown).
        primary_domain: u32,
        /// Fault domain of the standby machine (`u32::MAX` when none).
        standby_domain: u32,
    },
    /// The streaming auditor observed a protocol-invariant violation.
    /// Field meaning depends on the invariant; the audit report renders
    /// them (`entity` is a sink/PE/subjob/machine index, `seq` a sequence
    /// number/epoch/phase code, `detail` the bound that was broken).
    AuditViolation {
        /// Which invariant was broken.
        invariant: AuditInvariant,
        /// Affected subjob (`u32::MAX` when not subjob-scoped).
        subjob: u32,
        /// Invariant-specific entity id (`u32::MAX` when unused).
        entity: u32,
        /// Invariant-specific sequence/epoch/code.
        seq: u64,
        /// Invariant-specific bound or prior value.
        detail: u64,
    },
}

impl TraceEvent {
    /// Stable lower-snake event-kind name used in the JSONL encoding.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::ElementSend { .. } => "element_send",
            TraceEvent::ElementRecv { .. } => "element_recv",
            TraceEvent::ElementDrop { .. } => "element_drop",
            TraceEvent::Ack { .. } => "ack",
            TraceEvent::CheckpointStart { .. } => "checkpoint_start",
            TraceEvent::CheckpointSent { .. } => "checkpoint_sent",
            TraceEvent::CheckpointStored { .. } => "checkpoint_stored",
            TraceEvent::HeartbeatPing { .. } => "heartbeat_ping",
            TraceEvent::HeartbeatPong { .. } => "heartbeat_pong",
            TraceEvent::HeartbeatMiss { .. } => "heartbeat_miss",
            TraceEvent::BenchProbe { .. } => "bench_probe",
            TraceEvent::BenchVerdict { .. } => "bench_verdict",
            TraceEvent::FailureInject { .. } => "failure_inject",
            TraceEvent::FailureDetect { .. } => "failure_detect",
            TraceEvent::Recovery { .. } => "recovery",
            TraceEvent::FailoverAborted { .. } => "failover_aborted",
            TraceEvent::QueueHighWater { .. } => "queue_high_water",
            TraceEvent::MachineSnapshot { .. } => "machine_snapshot",
            TraceEvent::PeSnapshot { .. } => "pe_snapshot",
            TraceEvent::NetDrop { .. } => "net_drop",
            TraceEvent::NetDuplicate { .. } => "net_duplicate",
            TraceEvent::Retransmit { .. } => "retransmit",
            TraceEvent::ChaosPhase { .. } => "chaos_phase",
            TraceEvent::SloBreach { .. } => "slo_breach",
            TraceEvent::Anomaly { .. } => "anomaly",
            TraceEvent::AuditMeta { .. } => "audit_meta",
            TraceEvent::SubjobMeta { .. } => "subjob_meta",
            TraceEvent::SinkDeliver { .. } => "sink_deliver",
            TraceEvent::CheckpointCovered { .. } => "checkpoint_covered",
            TraceEvent::AckSent { .. } => "ack_sent",
            TraceEvent::EpochChange { .. } => "epoch_change",
            TraceEvent::StandbyProvision { .. } => "standby_provision",
            TraceEvent::AuditViolation { .. } => "audit_violation",
        }
    }

    /// `true` for the high-rate data-plane kinds that are only emitted when
    /// a sink asked for them (see `TraceSink::wants_data_plane`).
    pub fn is_data_plane(&self) -> bool {
        matches!(
            self,
            TraceEvent::ElementSend { .. }
                | TraceEvent::ElementRecv { .. }
                | TraceEvent::Ack { .. }
                | TraceEvent::HeartbeatPing { .. }
                | TraceEvent::HeartbeatPong { .. }
        )
    }
}

/// A timestamped trace event: what happened, and at which sim-time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Simulated time of the event.
    pub at: SimTime,
    /// The event payload.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Encode as one JSON object (one JSONL line, without the newline).
    ///
    /// Keys are emitted in a fixed order (`t`, `kind`, then payload fields
    /// in declaration order) so identical runs give byte-identical dumps.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        self.write_json(&mut s);
        s
    }

    /// Append the [`to_json`](Self::to_json) object to `s`, so an exporter
    /// can reuse one line buffer for a whole dump.
    pub fn write_json(&self, s: &mut String) {
        let _ = write!(
            s,
            "{{\"t\":{},\"kind\":\"{}\"",
            self.at.as_nanos(),
            self.event.kind()
        );
        match self.event {
            TraceEvent::ElementSend {
                pe,
                replica,
                stream,
                elements,
                last_seq,
            } => {
                let _ = write!(
                    s,
                    ",\"pe\":{pe},\"replica\":{replica},\"stream\":{stream},\"elements\":{elements},\"last_seq\":{last_seq}"
                );
            }
            TraceEvent::ElementRecv {
                pe,
                replica,
                stream,
                accepted,
                stashed,
                duplicates,
            } => {
                let _ = write!(
                    s,
                    ",\"pe\":{pe},\"replica\":{replica},\"stream\":{stream},\"accepted\":{accepted},\"stashed\":{stashed},\"duplicates\":{duplicates}"
                );
            }
            TraceEvent::ElementDrop {
                machine,
                elements,
                reason,
            } => {
                let _ = write!(
                    s,
                    ",\"machine\":{machine},\"elements\":{elements},\"reason\":\"{}\"",
                    reason.as_str()
                );
            }
            TraceEvent::Ack {
                pe,
                replica,
                through_seq,
            } => {
                let _ = write!(
                    s,
                    ",\"pe\":{pe},\"replica\":{replica},\"through_seq\":{through_seq}"
                );
            }
            TraceEvent::CheckpointStart { pe, replica } => {
                let _ = write!(s, ",\"pe\":{pe},\"replica\":{replica}");
            }
            TraceEvent::CheckpointSent {
                pe,
                replica,
                elements,
                bytes,
            } => {
                let _ = write!(
                    s,
                    ",\"pe\":{pe},\"replica\":{replica},\"elements\":{elements},\"bytes\":{bytes}"
                );
            }
            TraceEvent::CheckpointStored { pe, replica } => {
                let _ = write!(s, ",\"pe\":{pe},\"replica\":{replica}");
            }
            TraceEvent::HeartbeatPing { machine, seq } => {
                let _ = write!(s, ",\"machine\":{machine},\"seq\":{seq}");
            }
            TraceEvent::HeartbeatPong {
                machine,
                seq,
                cleared_suspicion,
            } => {
                let _ = write!(
                    s,
                    ",\"machine\":{machine},\"seq\":{seq},\"cleared_suspicion\":{cleared_suspicion}"
                );
            }
            TraceEvent::HeartbeatMiss { machine, streak } => {
                let _ = write!(s, ",\"machine\":{machine},\"streak\":{streak}");
            }
            TraceEvent::BenchProbe { machine } => {
                let _ = write!(s, ",\"machine\":{machine}");
            }
            TraceEvent::BenchVerdict {
                machine,
                latency_ns,
                overloaded,
            } => {
                let _ = write!(
                    s,
                    ",\"machine\":{machine},\"latency_ns\":{latency_ns},\"overloaded\":{overloaded}"
                );
            }
            TraceEvent::FailureInject { machine, fail_stop } => {
                let _ = write!(s, ",\"machine\":{machine},\"fail_stop\":{fail_stop}");
            }
            TraceEvent::FailureDetect {
                machine,
                subjob,
                miss_streak,
            } => {
                let _ = write!(
                    s,
                    ",\"machine\":{machine},\"subjob\":{subjob},\"miss_streak\":{miss_streak}"
                );
            }
            TraceEvent::Recovery { subjob, phase } => {
                let _ = write!(s, ",\"subjob\":{subjob},\"phase\":\"{}\"", phase.as_str());
            }
            TraceEvent::FailoverAborted {
                subjob,
                machine,
                reason,
            } => {
                let _ = write!(
                    s,
                    ",\"subjob\":{subjob},\"machine\":{machine},\"reason\":\"{}\"",
                    reason.as_str()
                );
            }
            TraceEvent::QueueHighWater {
                pe,
                replica,
                input,
                depth,
            } => {
                let _ = write!(
                    s,
                    ",\"pe\":{pe},\"replica\":{replica},\"input\":{input},\"depth\":{depth}"
                );
            }
            TraceEvent::MachineSnapshot {
                machine,
                cpu_load,
                background,
                run_queue,
            } => {
                let _ = write!(
                    s,
                    ",\"machine\":{machine},\"cpu_load\":{},\"background\":{},\"run_queue\":{run_queue}",
                    fmt_f64(cpu_load),
                    fmt_f64(background)
                );
            }
            TraceEvent::PeSnapshot {
                pe,
                replica,
                input_depth,
                output_backlog,
                processed_total,
            } => {
                let _ = write!(
                    s,
                    ",\"pe\":{pe},\"replica\":{replica},\"input_depth\":{input_depth},\"output_backlog\":{output_backlog},\"processed_total\":{processed_total}"
                );
            }
            TraceEvent::NetDrop {
                src,
                dst,
                bytes,
                chaos,
            } => {
                let _ = write!(
                    s,
                    ",\"src\":{src},\"dst\":{dst},\"bytes\":{bytes},\"chaos\":{chaos}"
                );
            }
            TraceEvent::NetDuplicate { src, dst, bytes } => {
                let _ = write!(s, ",\"src\":{src},\"dst\":{dst},\"bytes\":{bytes}");
            }
            TraceEvent::Retransmit {
                src,
                dst,
                tx,
                attempt,
            } => {
                let _ = write!(
                    s,
                    ",\"src\":{src},\"dst\":{dst},\"tx\":{tx},\"attempt\":{attempt}"
                );
            }
            TraceEvent::ChaosPhase { step, action, a, b } => {
                let _ = write!(
                    s,
                    ",\"step\":{step},\"action\":\"{}\",\"a\":{a},\"b\":{b}",
                    action.as_str()
                );
            }
            TraceEvent::SloBreach {
                monitor,
                entered,
                observed,
                threshold,
                duration_ns,
            } => {
                let _ = write!(
                    s,
                    ",\"monitor\":{monitor},\"entered\":{entered},\"observed\":{},\"threshold\":{},\"duration_ns\":{duration_ns}",
                    fmt_f64(observed),
                    fmt_f64(threshold)
                );
            }
            TraceEvent::Anomaly {
                detector,
                machine,
                pe,
                onset,
                value,
            } => {
                let _ = write!(
                    s,
                    ",\"detector\":\"{}\",\"machine\":{machine},\"pe\":{pe},\"onset\":{onset},\"value\":{}",
                    detector.as_str(),
                    fmt_f64(value)
                );
            }
            TraceEvent::AuditMeta {
                subjobs,
                flat,
                lossless,
                quiescent,
            } => {
                let _ = write!(
                    s,
                    ",\"subjobs\":{subjobs},\"flat\":{flat},\"lossless\":{lossless},\"quiescent\":{quiescent}"
                );
            }
            TraceEvent::SubjobMeta { subjob, mode } => {
                let _ = write!(s, ",\"subjob\":{subjob},\"mode\":\"{}\"", mode.as_str());
            }
            TraceEvent::SinkDeliver {
                sink,
                stream,
                seq_start,
                seq_end,
                newly_accepted,
                duplicates,
                processed_through,
            } => {
                let _ = write!(
                    s,
                    ",\"sink\":{sink},\"stream\":{stream},\"seq_start\":{seq_start},\"seq_end\":{seq_end},\"newly_accepted\":{newly_accepted},\"duplicates\":{duplicates},\"processed_through\":{processed_through}"
                );
            }
            TraceEvent::CheckpointCovered {
                pe,
                replica,
                stream,
                seq,
            } => {
                let _ = write!(
                    s,
                    ",\"pe\":{pe},\"replica\":{replica},\"stream\":{stream},\"seq\":{seq}"
                );
            }
            TraceEvent::AckSent {
                pe,
                replica,
                stream,
                seq,
            } => {
                let _ = write!(
                    s,
                    ",\"pe\":{pe},\"replica\":{replica},\"stream\":{stream},\"seq\":{seq}"
                );
            }
            TraceEvent::EpochChange {
                subjob,
                epoch,
                cause,
                primary_machine,
                primary_replica,
            } => {
                let _ = write!(
                    s,
                    ",\"subjob\":{subjob},\"epoch\":{epoch},\"cause\":\"{}\",\"primary_machine\":{primary_machine},\"primary_replica\":{primary_replica}",
                    cause.as_str()
                );
            }
            TraceEvent::StandbyProvision {
                subjob,
                machine,
                fresh,
                primary_domain,
                standby_domain,
            } => {
                let _ = write!(
                    s,
                    ",\"subjob\":{subjob},\"machine\":{machine},\"fresh\":{fresh},\"primary_domain\":{primary_domain},\"standby_domain\":{standby_domain}"
                );
            }
            TraceEvent::AuditViolation {
                invariant,
                subjob,
                entity,
                seq,
                detail,
            } => {
                let _ = write!(
                    s,
                    ",\"invariant\":\"{}\",\"subjob\":{subjob},\"entity\":{entity},\"seq\":{seq},\"detail\":{detail}",
                    invariant.as_str()
                );
            }
        }
        s.push('}');
    }
}

/// Upper bound on [`TraceRecord::encode`]'s output: the widest record is a
/// `sink_deliver` whose time delta and seven integers all take their full
/// LEB128 width (61 bytes).
pub(crate) const MAX_ENCODED_LEN: usize = 64;

/// Writer half of the packed encoding: a cursor into the caller's buffer.
struct PackedWriter<'a> {
    buf: &'a mut [u8],
    pos: usize,
}

impl PackedWriter<'_> {
    fn byte(&mut self, b: u8) {
        self.buf[self.pos] = b;
        self.pos += 1;
    }
}

/// Reader half. It reads only what a [`PackedWriter`] wrote, so a short
/// or unknown input is a bug in this module and panics.
struct PackedReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl PackedReader<'_> {
    fn byte(&mut self) -> u8 {
        let b = self.buf[self.pos];
        self.pos += 1;
        b
    }
}

/// A field type of the packed encoding.
trait Wire: Sized {
    fn put(self, w: &mut PackedWriter<'_>);
    fn get(r: &mut PackedReader<'_>) -> Self;
}

/// LEB128: seven bits per byte, low group first.
impl Wire for u64 {
    fn put(mut self, w: &mut PackedWriter<'_>) {
        while self >= 0x80 {
            w.byte(self as u8 | 0x80);
            self >>= 7;
        }
        w.byte(self as u8);
    }
    fn get(r: &mut PackedReader<'_>) -> u64 {
        let (mut v, mut shift) = (0, 0);
        loop {
            let b = r.byte();
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }
}

impl Wire for u32 {
    fn put(self, w: &mut PackedWriter<'_>) {
        u64::from(self).put(w);
    }
    fn get(r: &mut PackedReader<'_>) -> u32 {
        u64::get(r) as u32
    }
}

impl Wire for u8 {
    fn put(self, w: &mut PackedWriter<'_>) {
        w.byte(self);
    }
    fn get(r: &mut PackedReader<'_>) -> u8 {
        r.byte()
    }
}

impl Wire for bool {
    fn put(self, w: &mut PackedWriter<'_>) {
        w.byte(self as u8);
    }
    fn get(r: &mut PackedReader<'_>) -> bool {
        r.byte() != 0
    }
}

/// The bit pattern, so `-0.0` and every NaN payload survive.
impl Wire for f64 {
    fn put(self, w: &mut PackedWriter<'_>) {
        for b in self.to_bits().to_le_bytes() {
            w.byte(b);
        }
    }
    fn get(r: &mut PackedReader<'_>) -> f64 {
        f64::from_bits(u64::from_le_bytes(std::array::from_fn(|_| r.byte())))
    }
}

/// One byte per field-less enum: a value's index in `WIRE`, which must be
/// declaration order (`x as u8`). The unnamed `match` makes a variant
/// missing from the list a compile error.
macro_rules! wire_enum {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $ty {
            pub(crate) const WIRE: &'static [$ty] = &[$($ty::$variant),+];
        }
        impl Wire for $ty {
            fn put(self, w: &mut PackedWriter<'_>) {
                w.byte(self as u8);
            }
            fn get(r: &mut PackedReader<'_>) -> $ty {
                $ty::WIRE[usize::from(r.byte())]
            }
        }
        const _: fn($ty) = |x| match x {
            $($ty::$variant => (),)+
        };
    };
}

wire_enum!(DropReason {
    MachineDown,
    StaleEpoch,
    Duplicate
});
wire_enum!(ChaosKind {
    LinkFaults,
    ClearLinkFaults,
    DefaultFaults,
    ClearDefaultFaults,
    Partition,
    Heal,
    FailStop,
    GrayDegrade,
    FailDomain,
    PartitionSwitch,
    HealSwitch,
});
wire_enum!(AbortReason {
    NoStandby,
    StandbyUnhealthy,
    DomainFault
});
wire_enum!(RecoveryPhase {
    Detected,
    SwitchoverComplete,
    RollbackStarted,
    RollbackComplete,
    PsDeployed,
    PsConnected,
    Promoted,
    SecondaryReady,
});
wire_enum!(HaModeTag {
    None,
    Active,
    Passive,
    Hybrid
});
wire_enum!(EpochCause {
    Init,
    SwitchoverAbort,
    Switchover,
    PsDetect,
    PsConnect,
    Promote,
    SpareRedeploy,
    StandbyLost,
});
wire_enum!(AuditInvariant {
    SinkExactlyOnce,
    SinkSeqGap,
    CkptAckOrder,
    EpochRegression,
    SplitBrain,
    IllegalPhase,
    RetransmitReflag,
    StandbyCoverage,
    DomainDisjoint,
});
wire_enum!(AnomalyKind {
    Backpressure,
    CheckpointStall,
    HeartbeatFlaky,
    RecoveryBudgetBurn,
    RedundancyLoss,
    AuditViolations,
});

/// Generates [`TraceRecord::encode`] and [`TraceRecord::decode`] from one
/// table of `tag => Variant { fields in wire order }`; each field's type
/// picks its [`Wire`] encoding. `encode`'s `match` has no wildcard and the
/// patterns no `..`, so a variant or a field missing from the table does
/// not compile.
macro_rules! packed_layout {
    ($($tag:literal => $variant:ident { $($field:ident),* }),+ $(,)?) => {
        impl TraceRecord {
            /// Write the packed form the flight recorder stores to the
            /// front of `out` and return its length, at most
            /// [`MAX_ENCODED_LEN`]: one tag byte, the time as a LEB128
            /// delta from `prev` (the record before this one), then the
            /// payload in declaration order — LEB128 per `u32`/`u64`, one
            /// byte per `u8`, `bool` and enum, the eight bytes of its bit
            /// pattern per `f64`. Lossless for any `prev`, one later than
            /// `at` included (the delta wraps).
            pub(crate) fn encode(&self, prev: SimTime, out: &mut [u8]) -> usize {
                let mut w = PackedWriter { buf: out, pos: 0 };
                let dt = self.at.as_nanos().wrapping_sub(prev.as_nanos());
                match self.event {
                    $(TraceEvent::$variant { $($field),* } => {
                        w.byte($tag);
                        dt.put(&mut w);
                        $($field.put(&mut w);)*
                    })+
                }
                w.pos
            }

            /// The record at the front of `bytes`, which
            /// [`encode`](Self::encode) wrote with the same `prev`, and
            /// the number of bytes it occupies.
            pub(crate) fn decode(bytes: &[u8], prev: SimTime) -> (TraceRecord, usize) {
                let mut r = PackedReader { buf: bytes, pos: 0 };
                let tag = r.byte();
                let at = SimTime::from_nanos(prev.as_nanos().wrapping_add(u64::get(&mut r)));
                // Struct-expression fields are evaluated as written.
                let event = match tag {
                    $($tag => TraceEvent::$variant { $($field: Wire::get(&mut r)),* },)+
                    _ => unreachable!("tag {tag} is not one `encode` writes"),
                };
                (TraceRecord { at, event }, r.pos)
            }
        }
    };
}

packed_layout! {
    0 => ElementSend { pe, replica, stream, elements, last_seq },
    1 => ElementRecv { pe, replica, stream, accepted, stashed, duplicates },
    2 => ElementDrop { machine, elements, reason },
    3 => Ack { pe, replica, through_seq },
    4 => CheckpointStart { pe, replica },
    5 => CheckpointSent { pe, replica, elements, bytes },
    6 => CheckpointStored { pe, replica },
    7 => HeartbeatPing { machine, seq },
    8 => HeartbeatPong { machine, seq, cleared_suspicion },
    9 => HeartbeatMiss { machine, streak },
    10 => BenchProbe { machine },
    11 => BenchVerdict { machine, latency_ns, overloaded },
    12 => FailureInject { machine, fail_stop },
    13 => FailureDetect { machine, subjob, miss_streak },
    14 => Recovery { subjob, phase },
    15 => FailoverAborted { subjob, machine, reason },
    16 => QueueHighWater { pe, replica, input, depth },
    17 => MachineSnapshot { machine, cpu_load, background, run_queue },
    18 => PeSnapshot { pe, replica, input_depth, output_backlog, processed_total },
    19 => NetDrop { src, dst, bytes, chaos },
    20 => NetDuplicate { src, dst, bytes },
    21 => Retransmit { src, dst, tx, attempt },
    22 => ChaosPhase { step, action, a, b },
    23 => SloBreach { monitor, entered, observed, threshold, duration_ns },
    24 => Anomaly { detector, machine, pe, onset, value },
    25 => AuditMeta { subjobs, flat, lossless, quiescent },
    26 => SubjobMeta { subjob, mode },
    27 => SinkDeliver {
        sink, stream, seq_start, seq_end, newly_accepted, duplicates, processed_through
    },
    28 => CheckpointCovered { pe, replica, stream, seq },
    29 => AckSent { pe, replica, stream, seq },
    30 => EpochChange { subjob, epoch, cause, primary_machine, primary_replica },
    31 => StandbyProvision { subjob, machine, fresh, primary_domain, standby_domain },
    32 => AuditViolation { invariant, subjob, entity, seq, detail },
}

/// Deterministic float formatting for the JSONL encoding: fixed six
/// decimal places, so the same value always serialises identically and
/// never in exponent notation.
fn fmt_f64(x: f64) -> impl std::fmt::Display {
    struct Fixed6(f64);
    impl std::fmt::Display for Fixed6 {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            if self.0.is_finite() {
                write!(f, "{:.6}", self.0)
            } else {
                // JSON has no Inf/NaN; clamp to a sentinel.
                f.write_str("null")
            }
        }
    }
    Fixed6(x)
}

/// Test records that put every field of every variant through the values
/// where its encoding changes width. Shared with the recorder's ring test.
#[cfg(test)]
pub(crate) mod samples {
    use super::*;

    const INTS: [u64; 8] = [0, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX];
    const FLOATS: [f64; 5] = [0.0, -0.0, 1e-9, f64::MAX, f64::MIN_POSITIVE];
    /// Time deltas: same instant, one tick, a typical gap, past `u32`.
    const GAPS_NS: [u64; 4] = [0, 1, 4_500, u32::MAX as u64 + 1];

    /// Hands out field values, one list position per call, so neighbouring
    /// fields differ; narrower types take the value clamped to their range.
    pub(crate) struct Draw {
        i: usize,
        stride: usize,
    }

    impl Draw {
        /// Starts `round` positions into the lists.
        pub(crate) fn rotating(round: usize) -> Self {
            Draw {
                i: round,
                stride: 1,
            }
        }

        /// Every integer field at its type's maximum.
        pub(crate) fn widest() -> Self {
            Draw {
                i: INTS.len() - 1,
                stride: 0,
            }
        }

        fn step(&mut self) -> usize {
            self.i += self.stride;
            self.i - self.stride
        }
        fn u64(&mut self) -> u64 {
            INTS[self.step() % INTS.len()]
        }
        fn u32(&mut self) -> u32 {
            self.u64().min(u64::from(u32::MAX)) as u32
        }
        fn u8(&mut self) -> u8 {
            self.u64().min(u64::from(u8::MAX)) as u8
        }
        fn f64(&mut self) -> f64 {
            FLOATS[self.step() % FLOATS.len()]
        }
        fn bool(&mut self) -> bool {
            self.step() % 2 == 1
        }
        fn pick<T: Copy>(&mut self, all: &[T]) -> T {
            all[self.step() % all.len()]
        }
        pub(crate) fn gap(&mut self) -> u64 {
            GAPS_NS[self.step() % GAPS_NS.len()]
        }
    }

    /// The variant declared after `prev` (`None`: the first), filled from
    /// `d`. The `match` is exhaustive on purpose: a new variant does not
    /// compile until it has a place in this chain, and with it a sample.
    fn next_event(prev: Option<TraceEvent>, d: &mut Draw) -> Option<TraceEvent> {
        use TraceEvent as E;
        Some(match prev {
            None => E::ElementSend {
                pe: d.u32(),
                replica: d.u8(),
                stream: d.u32(),
                elements: d.u32(),
                last_seq: d.u64(),
            },
            Some(E::ElementSend { .. }) => E::ElementRecv {
                pe: d.u32(),
                replica: d.u8(),
                stream: d.u32(),
                accepted: d.u32(),
                stashed: d.u32(),
                duplicates: d.u32(),
            },
            Some(E::ElementRecv { .. }) => E::ElementDrop {
                machine: d.u32(),
                elements: d.u32(),
                reason: d.pick(DropReason::WIRE),
            },
            Some(E::ElementDrop { .. }) => E::Ack {
                pe: d.u32(),
                replica: d.u8(),
                through_seq: d.u64(),
            },
            Some(E::Ack { .. }) => E::CheckpointStart {
                pe: d.u32(),
                replica: d.u8(),
            },
            Some(E::CheckpointStart { .. }) => E::CheckpointSent {
                pe: d.u32(),
                replica: d.u8(),
                elements: d.u32(),
                bytes: d.u64(),
            },
            Some(E::CheckpointSent { .. }) => E::CheckpointStored {
                pe: d.u32(),
                replica: d.u8(),
            },
            Some(E::CheckpointStored { .. }) => E::HeartbeatPing {
                machine: d.u32(),
                seq: d.u64(),
            },
            Some(E::HeartbeatPing { .. }) => E::HeartbeatPong {
                machine: d.u32(),
                seq: d.u64(),
                cleared_suspicion: d.bool(),
            },
            Some(E::HeartbeatPong { .. }) => E::HeartbeatMiss {
                machine: d.u32(),
                streak: d.u32(),
            },
            Some(E::HeartbeatMiss { .. }) => E::BenchProbe { machine: d.u32() },
            Some(E::BenchProbe { .. }) => E::BenchVerdict {
                machine: d.u32(),
                latency_ns: d.u64(),
                overloaded: d.bool(),
            },
            Some(E::BenchVerdict { .. }) => E::FailureInject {
                machine: d.u32(),
                fail_stop: d.bool(),
            },
            Some(E::FailureInject { .. }) => E::FailureDetect {
                machine: d.u32(),
                subjob: d.u32(),
                miss_streak: d.u32(),
            },
            Some(E::FailureDetect { .. }) => E::Recovery {
                subjob: d.u32(),
                phase: d.pick(RecoveryPhase::WIRE),
            },
            Some(E::Recovery { .. }) => E::FailoverAborted {
                subjob: d.u32(),
                machine: d.u32(),
                reason: d.pick(AbortReason::WIRE),
            },
            Some(E::FailoverAborted { .. }) => E::QueueHighWater {
                pe: d.u32(),
                replica: d.u8(),
                input: d.bool(),
                depth: d.u64(),
            },
            Some(E::QueueHighWater { .. }) => E::MachineSnapshot {
                machine: d.u32(),
                cpu_load: d.f64(),
                background: d.f64(),
                run_queue: d.u32(),
            },
            Some(E::MachineSnapshot { .. }) => E::PeSnapshot {
                pe: d.u32(),
                replica: d.u8(),
                input_depth: d.u64(),
                output_backlog: d.u64(),
                processed_total: d.u64(),
            },
            Some(E::PeSnapshot { .. }) => E::NetDrop {
                src: d.u32(),
                dst: d.u32(),
                bytes: d.u64(),
                chaos: d.bool(),
            },
            Some(E::NetDrop { .. }) => E::NetDuplicate {
                src: d.u32(),
                dst: d.u32(),
                bytes: d.u64(),
            },
            Some(E::NetDuplicate { .. }) => E::Retransmit {
                src: d.u32(),
                dst: d.u32(),
                tx: d.u64(),
                attempt: d.u32(),
            },
            Some(E::Retransmit { .. }) => E::ChaosPhase {
                step: d.u32(),
                action: d.pick(ChaosKind::WIRE),
                a: d.u32(),
                b: d.u32(),
            },
            Some(E::ChaosPhase { .. }) => E::SloBreach {
                monitor: d.u32(),
                entered: d.bool(),
                observed: d.f64(),
                threshold: d.f64(),
                duration_ns: d.u64(),
            },
            Some(E::SloBreach { .. }) => E::Anomaly {
                detector: d.pick(AnomalyKind::WIRE),
                machine: d.u32(),
                pe: d.u32(),
                onset: d.bool(),
                value: d.f64(),
            },
            Some(E::Anomaly { .. }) => E::AuditMeta {
                subjobs: d.u32(),
                flat: d.bool(),
                lossless: d.bool(),
                quiescent: d.bool(),
            },
            Some(E::AuditMeta { .. }) => E::SubjobMeta {
                subjob: d.u32(),
                mode: d.pick(HaModeTag::WIRE),
            },
            Some(E::SubjobMeta { .. }) => E::SinkDeliver {
                sink: d.u32(),
                stream: d.u32(),
                seq_start: d.u64(),
                seq_end: d.u64(),
                newly_accepted: d.u32(),
                duplicates: d.u32(),
                processed_through: d.u64(),
            },
            Some(E::SinkDeliver { .. }) => E::CheckpointCovered {
                pe: d.u32(),
                replica: d.u8(),
                stream: d.u32(),
                seq: d.u64(),
            },
            Some(E::CheckpointCovered { .. }) => E::AckSent {
                pe: d.u32(),
                replica: d.u8(),
                stream: d.u32(),
                seq: d.u64(),
            },
            Some(E::AckSent { .. }) => E::EpochChange {
                subjob: d.u32(),
                epoch: d.u64(),
                cause: d.pick(EpochCause::WIRE),
                primary_machine: d.u32(),
                primary_replica: d.u8(),
            },
            Some(E::EpochChange { .. }) => E::StandbyProvision {
                subjob: d.u32(),
                machine: d.u32(),
                fresh: d.bool(),
                primary_domain: d.u32(),
                standby_domain: d.u32(),
            },
            Some(E::StandbyProvision { .. }) => E::AuditViolation {
                invariant: d.pick(AuditInvariant::WIRE),
                subjob: d.u32(),
                entity: d.u32(),
                seq: d.u64(),
                detail: d.u64(),
            },
            Some(E::AuditViolation { .. }) => return None,
        })
    }

    /// One event of every variant, in declaration order.
    pub(crate) fn every_variant(d: &mut Draw) -> Vec<TraceEvent> {
        let mut all = Vec::new();
        let mut prev = None;
        while let Some(event) = next_event(prev, d) {
            all.push(event);
            prev = Some(event);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encodes `records` back to back and decodes them again, checking each
    /// against its original by value, by `Debug` (which tells `-0.0` from
    /// `0.0` and prints `1e-9` in full) and by JSON.
    fn assert_round_trips(records: &[TraceRecord]) {
        let mut bytes = Vec::new();
        let mut prev = SimTime::ZERO;
        for r in records {
            // A record wider than the declared bound overruns `one`.
            let mut one = [0; MAX_ENCODED_LEN];
            let len = r.encode(prev, &mut one);
            bytes.extend_from_slice(&one[..len]);
            prev = r.at;
        }
        let (mut pos, mut prev) = (0, SimTime::ZERO);
        for want in records {
            let (got, used) = TraceRecord::decode(&bytes[pos..], prev);
            assert_eq!(got, *want);
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
            assert_eq!(got.to_json(), want.to_json());
            pos += used;
            prev = got.at;
        }
        assert_eq!(pos, bytes.len(), "decode consumed what encode wrote");
    }

    #[test]
    fn packed_encoding_round_trips_every_variant_at_every_width() {
        // 24 starting positions take every field through every entry of
        // its list (the longest, `ChaosKind::WIRE`, has 11).
        for round in 0..24 {
            let mut draw = samples::Draw::rotating(round);
            let mut at = 0u64;
            let records: Vec<TraceRecord> = samples::every_variant(&mut draw)
                .into_iter()
                .map(|event| {
                    at += draw.gap();
                    TraceRecord {
                        at: SimTime::from_nanos(at),
                        event,
                    }
                })
                .collect();
            assert_eq!(records.len(), 33);
            assert_round_trips(&records);
        }
    }

    #[test]
    fn widest_records_fit_the_declared_bound_and_time_may_run_backwards() {
        let widest: Vec<TraceRecord> = samples::every_variant(&mut samples::Draw::widest())
            .into_iter()
            .zip([SimTime::MAX, SimTime::ZERO].into_iter().cycle())
            .map(|(event, at)| TraceRecord { at, event })
            .collect();
        assert_round_trips(&widest);
        let deliver = widest[27];
        assert_eq!(deliver.event.kind(), "sink_deliver");
        assert_eq!(
            deliver.encode(SimTime::from_nanos(1), &mut [0; MAX_ENCODED_LEN]),
            61,
            "the record MAX_ENCODED_LEN is sized for"
        );
    }

    #[test]
    fn common_records_pack_into_about_ten_bytes() {
        let send = TraceRecord {
            at: SimTime::from_nanos(2_000_004_500),
            event: TraceEvent::ElementSend {
                pe: 5,
                replica: 0,
                stream: 6,
                elements: 1,
                last_seq: 20_000,
            },
        };
        let len = send.encode(SimTime::from_secs(2), &mut [0; MAX_ENCODED_LEN]);
        // tag, 2-byte delta, four 1-byte fields, 3-byte sequence number.
        assert_eq!(len, 10);
    }

    #[test]
    fn json_encoding_is_stable_and_wellformed() {
        let rec = TraceRecord {
            at: SimTime::from_millis(1_500),
            event: TraceEvent::Recovery {
                subjob: 1,
                phase: RecoveryPhase::Detected,
            },
        };
        assert_eq!(
            rec.to_json(),
            "{\"t\":1500000000,\"kind\":\"recovery\",\"subjob\":1,\"phase\":\"detected\"}"
        );
    }

    #[test]
    fn float_fields_are_fixed_precision() {
        let rec = TraceRecord {
            at: SimTime::ZERO,
            event: TraceEvent::MachineSnapshot {
                machine: 3,
                cpu_load: 0.5,
                background: 1.0 / 3.0,
                run_queue: 2,
            },
        };
        let json = rec.to_json();
        assert!(json.contains("\"cpu_load\":0.500000"), "{json}");
        assert!(json.contains("\"background\":0.333333"), "{json}");
    }

    #[test]
    fn phase_names_roundtrip() {
        for p in [
            RecoveryPhase::Detected,
            RecoveryPhase::SwitchoverComplete,
            RecoveryPhase::RollbackStarted,
            RecoveryPhase::RollbackComplete,
            RecoveryPhase::PsDeployed,
            RecoveryPhase::PsConnected,
            RecoveryPhase::Promoted,
            RecoveryPhase::SecondaryReady,
        ] {
            assert_eq!(RecoveryPhase::parse(p.as_str()), Some(p));
        }
        assert_eq!(RecoveryPhase::parse("nope"), None);
    }

    #[test]
    fn health_events_encode_stably() {
        let breach = TraceRecord {
            at: SimTime::from_millis(3_200),
            event: TraceEvent::SloBreach {
                monitor: 2,
                entered: true,
                observed: 412.5,
                threshold: 250.0,
                duration_ns: 0,
            },
        };
        assert_eq!(
            breach.to_json(),
            "{\"t\":3200000000,\"kind\":\"slo_breach\",\"monitor\":2,\"entered\":true,\"observed\":412.500000,\"threshold\":250.000000,\"duration_ns\":0}"
        );
        let anomaly = TraceRecord {
            at: SimTime::from_millis(100),
            event: TraceEvent::Anomaly {
                detector: AnomalyKind::Backpressure,
                machine: 1,
                pe: 4,
                onset: true,
                value: 96.0,
            },
        };
        assert_eq!(
            anomaly.to_json(),
            "{\"t\":100000000,\"kind\":\"anomaly\",\"detector\":\"backpressure\",\"machine\":1,\"pe\":4,\"onset\":true,\"value\":96.000000}"
        );
        assert!(!breach.event.is_data_plane());
        assert!(!anomaly.event.is_data_plane());
    }

    #[test]
    fn failover_aborted_encodes_stably() {
        let rec = TraceRecord {
            at: SimTime::from_millis(2_000),
            event: TraceEvent::FailoverAborted {
                subjob: 2,
                machine: u32::MAX,
                reason: AbortReason::NoStandby,
            },
        };
        assert_eq!(
            rec.to_json(),
            "{\"t\":2000000000,\"kind\":\"failover_aborted\",\"subjob\":2,\"machine\":4294967295,\"reason\":\"no_standby\"}"
        );
        for r in [
            AbortReason::NoStandby,
            AbortReason::StandbyUnhealthy,
            AbortReason::DomainFault,
        ] {
            assert!(!r.as_str().contains('"'));
        }
        assert_eq!(AnomalyKind::RedundancyLoss.as_str(), "redundancy_loss");
        assert_eq!(ChaosKind::FailDomain.as_str(), "fail_domain");
        assert_eq!(ChaosKind::PartitionSwitch.as_str(), "partition_switch");
        assert_eq!(ChaosKind::HealSwitch.as_str(), "heal_switch");
    }

    #[test]
    fn audit_events_encode_stably() {
        let deliver = TraceRecord {
            at: SimTime::from_millis(250),
            event: TraceEvent::SinkDeliver {
                sink: 0,
                stream: 9,
                seq_start: 17,
                seq_end: 20,
                newly_accepted: 4,
                duplicates: 0,
                processed_through: 20,
            },
        };
        assert_eq!(
            deliver.to_json(),
            "{\"t\":250000000,\"kind\":\"sink_deliver\",\"sink\":0,\"stream\":9,\"seq_start\":17,\"seq_end\":20,\"newly_accepted\":4,\"duplicates\":0,\"processed_through\":20}"
        );
        let epoch = TraceRecord {
            at: SimTime::from_millis(4_000),
            event: TraceEvent::EpochChange {
                subjob: 1,
                epoch: 3,
                cause: EpochCause::Promote,
                primary_machine: 6,
                primary_replica: 1,
            },
        };
        assert_eq!(
            epoch.to_json(),
            "{\"t\":4000000000,\"kind\":\"epoch_change\",\"subjob\":1,\"epoch\":3,\"cause\":\"promote\",\"primary_machine\":6,\"primary_replica\":1}"
        );
        let violation = TraceRecord {
            at: SimTime::from_millis(5_000),
            event: TraceEvent::AuditViolation {
                invariant: AuditInvariant::SinkExactlyOnce,
                subjob: u32::MAX,
                entity: 0,
                seq: 42,
                detail: 42,
            },
        };
        assert_eq!(
            violation.to_json(),
            "{\"t\":5000000000,\"kind\":\"audit_violation\",\"invariant\":\"sink_exactly_once\",\"subjob\":4294967295,\"entity\":0,\"seq\":42,\"detail\":42}"
        );
        // None of the audit kinds are data-plane: they must land in
        // control-plane-only campaign dumps for offline replay.
        for ev in [
            deliver.event,
            epoch.event,
            violation.event,
            TraceEvent::AuditMeta {
                subjobs: 5,
                flat: true,
                lossless: true,
                quiescent: true,
            },
            TraceEvent::SubjobMeta {
                subjob: 0,
                mode: HaModeTag::Hybrid,
            },
            TraceEvent::CheckpointCovered {
                pe: 1,
                replica: 0,
                stream: 2,
                seq: 7,
            },
            TraceEvent::AckSent {
                pe: 1,
                replica: 0,
                stream: 2,
                seq: 7,
            },
            TraceEvent::StandbyProvision {
                subjob: 1,
                machine: 9,
                fresh: true,
                primary_domain: 0,
                standby_domain: 1,
            },
        ] {
            assert!(!ev.is_data_plane(), "{} must be control-plane", ev.kind());
        }
    }

    #[test]
    fn audit_enums_roundtrip() {
        for inv in AuditInvariant::ALL {
            assert_eq!(AuditInvariant::parse(inv.as_str()), Some(inv));
        }
        assert_eq!(AuditInvariant::parse("nope"), None);
        for c in [
            EpochCause::Init,
            EpochCause::SwitchoverAbort,
            EpochCause::Switchover,
            EpochCause::PsDetect,
            EpochCause::PsConnect,
            EpochCause::Promote,
            EpochCause::SpareRedeploy,
            EpochCause::StandbyLost,
        ] {
            assert_eq!(EpochCause::parse(c.as_str()), Some(c));
        }
        for m in [
            HaModeTag::None,
            HaModeTag::Active,
            HaModeTag::Passive,
            HaModeTag::Hybrid,
        ] {
            assert_eq!(HaModeTag::parse(m.as_str()), Some(m));
        }
        assert_eq!(AnomalyKind::AuditViolations.as_str(), "audit_violations");
    }

    #[test]
    fn data_plane_classification() {
        let send = TraceEvent::ElementSend {
            pe: 0,
            replica: 0,
            stream: 0,
            elements: 1,
            last_seq: 1,
        };
        assert!(send.is_data_plane());
        let rec = TraceEvent::Recovery {
            subjob: 0,
            phase: RecoveryPhase::Promoted,
        };
        assert!(!rec.is_data_plane());
    }
}
