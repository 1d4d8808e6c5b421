//! HA configuration: standby modes, checkpoint protocols, detection and
//! recovery parameters.

use sps_sim::SimDuration;

/// The high-availability mode of one subjob (§V-A of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HaMode {
    /// A single copy; failures are not handled.
    None,
    /// Active standby: two copies run independently; downstream eliminates
    /// duplicates.
    Active,
    /// Passive standby: the primary checkpoints to a secondary machine; on
    /// failure a copy is deployed there and resumes from the checkpoint.
    Passive,
    /// The paper's hybrid: passive standby normally, with a pre-deployed
    /// suspended secondary that is switched to active-standby operation on
    /// the first heartbeat miss and rolled back when the primary recovers.
    Hybrid,
}

impl HaMode {
    /// All modes, in the paper's presentation order.
    pub const ALL: [HaMode; 4] = [
        HaMode::None,
        HaMode::Active,
        HaMode::Passive,
        HaMode::Hybrid,
    ];

    /// `true` if this mode runs a periodic checkpoint protocol.
    pub fn checkpoints(self) -> bool {
        matches!(self, HaMode::Passive | HaMode::Hybrid)
    }

    /// `true` if this mode monitors the primary with heartbeats.
    pub fn monitors(self) -> bool {
        matches!(self, HaMode::Passive | HaMode::Hybrid)
    }
}

impl std::fmt::Display for HaMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            HaMode::None => "NONE",
            HaMode::Active => "AS",
            HaMode::Passive => "PS",
            HaMode::Hybrid => "Hybrid",
        };
        f.write_str(s)
    }
}

/// When PEs of a subjob are checkpointed (§III-A/B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointProtocol {
    /// The paper's method: each PE checkpoints immediately after its output
    /// queue is trimmed (at most once per interval); the sink's continuous
    /// acknowledgments seed a trim/checkpoint wave that sweeps upstream.
    Sweeping,
    /// A per-subjob timer suspends *all* PEs, checkpoints them together,
    /// then resumes them.
    Synchronous,
    /// Each PE has its own timer driving its own pause/checkpoint/resume,
    /// decoupled from queue trimming.
    Individual,
}

impl std::fmt::Display for CheckpointProtocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CheckpointProtocol::Sweeping => "sweeping",
            CheckpointProtocol::Synchronous => "synchronous",
            CheckpointProtocol::Individual => "individual",
        };
        f.write_str(s)
    }
}

/// Consecutive heartbeat misses before passive standby declares a failure
/// (conventionally 3).
pub(crate) const PS_MISS_THRESHOLD: u32 = 3;

/// Consecutive heartbeat misses before the hybrid switches over: the paper
/// triggers "after the first heartbeat miss" (§IV-A).
pub(crate) const HYBRID_MISS_THRESHOLD: u32 = 1;

/// Time to resume a pre-deployed suspended copy (hybrid switch-over; the
/// paper reports this takes about 1/4 of on-demand deployment, §IV-B).
pub(crate) const RESUME_DELAY: SimDuration = SimDuration::from_millis(50);

/// Time to deploy a subjob copy on demand (PS recovery, and the hybrid's
/// replacement-secondary instantiation).
pub(crate) const DEPLOY_DELAY: SimDuration = SimDuration::from_millis(200);

/// Time to establish upstream/downstream connections on demand (PS); the
/// hybrid's early connections avoid this ("a reduction of about 50%", §IV-B).
pub(crate) const CONNECT_DELAY: SimDuration = SimDuration::from_millis(60);

/// CPU seconds the primary spends producing one heartbeat reply: a tiny
/// responder, so only scheduling latency under load can starve it.
pub(crate) const HEARTBEAT_REPLY_DEMAND_SECS: f64 = 0.000_5;

/// Under AS/NONE (no checkpoint-driven acks), a cumulative ack goes
/// upstream every this many processed elements.
pub(crate) const ACK_EVERY_ELEMENTS: u64 = 16;

/// Wire size of one data element, in bytes.
pub(crate) const ELEMENT_BYTES: u32 = 256;

/// Tunables of the HA layer. Defaults reproduce the paper's evaluation
/// settings (checkpoint 500 ms, heartbeat 100 ms, PS declares at 3 misses,
/// Hybrid acts on the first miss); the calibrated cost constants beside it
/// are fixed.
#[derive(Debug, Clone)]
pub struct HaConfig {
    /// Default standby mode for every subjob (overridable per subjob).
    pub mode: HaMode,
    /// Checkpoint scheduling protocol.
    pub checkpoint_protocol: CheckpointProtocol,
    /// Minimum spacing between checkpoints of one PE.
    pub checkpoint_interval: SimDuration,
    /// Heartbeat ping period.
    pub heartbeat_interval: SimDuration,
    /// Consecutive misses before a fail-stop is declared and the secondary
    /// is promoted permanently. Must comfortably exceed the transient-
    /// failure duration distribution (the paper's Fig 3 shows spikes beyond
    /// 20 s), or long spikes are misclassified as machine deaths.
    pub failstop_miss_threshold: u32,
    /// §IV-B optimization: keep a suspended secondary deployed from job
    /// start (`true`, the paper's design) instead of deploying it on demand
    /// at switch-over. Disabling reproduces the paper's "75% reduction"
    /// ablation.
    pub hybrid_predeploy: bool,
    /// §IV-B optimization: create upstream/downstream connections for the
    /// standby at deployment with `is_active = false` (`true`), instead of
    /// connecting on demand during switch-over ("a reduction of about 50%
    /// in latency compared to establishing connections on-demand").
    pub hybrid_early_connections: bool,
    /// §IV-B optimization: on rollback, the primary reads the secondary's
    /// newer state and jumps forward (`true`); without it the primary must
    /// chew through everything that arrived during the failure.
    pub read_state_on_rollback: bool,
    /// Data-plane batching factor: sources generate and PEs dequeue up to
    /// this many elements per tick, and the dispatch paths coalesce
    /// same-destination contiguous runs into one range-stamped
    /// [`Msg::DataBatch`](crate::Msg::DataBatch) per delivery. The default
    /// of 1 is byte-identical to the unbatched runtime (every run is a
    /// singleton [`Msg::Data`](crate::Msg::Data)); larger values trade
    /// per-element scheduling overhead for coarser event granularity.
    pub batch_size: u32,
    /// Reliability hardening for lossy networks: wrap control-plane
    /// messages (checkpoint transfer, store acks, rollback state reads) in
    /// sequence-numbered envelopes with retransmission and receiver-side
    /// deduplication, and run the periodic data-plane retransmit sweep.
    /// Off by default — the envelope adds wire bytes, so enabling it shifts
    /// serialization timings; chaos campaigns switch it on explicitly.
    /// Heartbeat pings/pongs are deliberately *not* covered: they are
    /// periodic and self-correcting, and a lost pong is exactly the
    /// false-alarm the hybrid protocol is designed to absorb.
    pub reliable_control: bool,
}

impl Default for HaConfig {
    fn default() -> Self {
        HaConfig {
            mode: HaMode::Hybrid,
            checkpoint_protocol: CheckpointProtocol::Sweeping,
            checkpoint_interval: SimDuration::from_millis(500),
            heartbeat_interval: SimDuration::from_millis(100),
            failstop_miss_threshold: 600,
            hybrid_predeploy: true,
            hybrid_early_connections: true,
            read_state_on_rollback: true,
            batch_size: 1,
            reliable_control: false,
        }
    }
}

impl HaConfig {
    /// `true` if a subjob in `mode` keeps a deployed standby copy: always
    /// under active standby, under the hybrid only with
    /// [`HaConfig::hybrid_predeploy`]. Job start, every standby
    /// re-provisioning and the redundancy gauge all ask this one question.
    pub fn predeploys(&self, mode: HaMode) -> bool {
        match mode {
            HaMode::Active => true,
            HaMode::Hybrid => self.hybrid_predeploy,
            HaMode::None | HaMode::Passive => false,
        }
    }

    /// Validates parameter sanity.
    ///
    /// # Panics
    ///
    /// Panics on non-positive intervals or inverted thresholds; catches
    /// configuration mistakes early, before a long simulation run.
    pub fn validate(&self) {
        assert!(
            !self.checkpoint_interval.is_zero(),
            "checkpoint interval must be positive"
        );
        assert!(
            !self.heartbeat_interval.is_zero(),
            "heartbeat interval must be positive"
        );
        assert!(
            self.failstop_miss_threshold > PS_MISS_THRESHOLD.max(HYBRID_MISS_THRESHOLD),
            "fail-stop threshold must exceed the transient thresholds"
        );
        assert!(self.batch_size >= 1, "data batch size must be >= 1");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid_and_paperlike() {
        let c = HaConfig::default();
        c.validate();
        assert_eq!(c.checkpoint_interval, SimDuration::from_millis(500));
        assert_eq!(c.heartbeat_interval, SimDuration::from_millis(100));
        // The 75 % redeployment reduction: resume is 1/4 of deploy.
        assert!((RESUME_DELAY.as_secs_f64() / DEPLOY_DELAY.as_secs_f64() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn mode_capability_matrix() {
        use HaMode::*;
        let c = HaConfig::default();
        assert!(!None.checkpoints() && !c.predeploys(None) && !None.monitors());
        assert!(!Active.checkpoints() && c.predeploys(Active) && !Active.monitors());
        assert!(Passive.checkpoints() && !c.predeploys(Passive) && Passive.monitors());
        assert!(Hybrid.checkpoints() && c.predeploys(Hybrid) && Hybrid.monitors());
        // The §IV-B ablation drops only the hybrid's pre-deployed copy.
        let ablated = HaConfig {
            hybrid_predeploy: false,
            ..HaConfig::default()
        };
        assert!(ablated.predeploys(Active) && !ablated.predeploys(Hybrid));
    }

    #[test]
    fn modes_display_as_paper_names() {
        assert_eq!(HaMode::None.to_string(), "NONE");
        assert_eq!(HaMode::Active.to_string(), "AS");
        assert_eq!(HaMode::Passive.to_string(), "PS");
        assert_eq!(HaMode::Hybrid.to_string(), "Hybrid");
        assert_eq!(CheckpointProtocol::Sweeping.to_string(), "sweeping");
    }

    #[test]
    #[should_panic(expected = "fail-stop threshold")]
    fn validate_rejects_inverted_thresholds() {
        let c = HaConfig {
            failstop_miss_threshold: 2,
            ..HaConfig::default()
        };
        c.validate();
    }

    #[test]
    fn reliability_defaults_off_but_validate_when_enabled() {
        let c = HaConfig::default();
        assert!(!c.reliable_control, "envelopes change wire sizes: opt-in");
        let on = HaConfig {
            reliable_control: true,
            ..HaConfig::default()
        };
        on.validate();
    }
}
