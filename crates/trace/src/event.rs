//! The typed trace-event model and its two encodings, declared once.
//!
//! Every observable action in the simulator maps to one [`TraceEvent`]
//! variant. Events carry only primitive fields (ids, counts, sizes,
//! sim-times as nanoseconds) so they can be encoded to JSON Lines without
//! a serialisation framework and compared byte-for-byte across runs.
//!
//! The schema is two kinds of declaration and nothing else: one
//! `trace_enum!` per field-less enum (`Variant = "name"`) and one
//! `trace_events!` table (`tag "kind" data|control => Variant { fields }`).
//! Everything that must agree with them — names, `kind()`, the data-plane
//! flag, the JSONL writer and reader, the packed codec, the test sampler —
//! is generated from those rows, each field's type supplying its halves
//! through the private [`Wire`] trait. Two things the table keeps: JSON key
//! order = declaration order = wire order, and tags are append-only,
//! because recorded rings are decoded by tag.

use std::fmt::Write as _;

use sps_sim::SimTime;

use crate::jsonl::{self, FlatObject, JsonValue};

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

/// A field type of the schema: its packed form, its JSON form, and the
/// values the tests put it through.
trait Wire: Sized {
    /// What a JSON value that does not read as one is reported not to be.
    const NAME: &'static str;
    fn put(self, w: &mut PackedWriter<'_>);
    fn get(r: &mut PackedReader<'_>) -> Self;
    fn put_json(self, s: &mut String);
    /// `None` for a value of the wrong type or out of this type's range.
    fn get_json(v: &JsonValue) -> Option<Self>;
    #[cfg(test)]
    fn sample(d: &mut samples::Draw) -> Self;
}

/// The JSON and sample halves every unsigned integer shares: printed in
/// full, read back exactly or not at all, sampled from one list clamped to
/// the type's range.
macro_rules! uint_text {
    ($ty:ident) => {
        const NAME: &'static str = stringify!($ty);
        fn put_json(self, s: &mut String) {
            let _ = write!(s, "{self}");
        }
        fn get_json(v: &JsonValue) -> Option<$ty> {
            v.as_u64()?.try_into().ok()
        }
        #[cfg(test)]
        fn sample(d: &mut samples::Draw) -> $ty {
            d.u64().min($ty::MAX.into()) as $ty
        }
    };
}

/// LEB128: seven bits per byte, low group first.
impl Wire for u64 {
    uint_text!(u64);
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
    uint_text!(u32);
    fn put(self, w: &mut PackedWriter<'_>) {
        u64::from(self).put(w);
    }
    fn get(r: &mut PackedReader<'_>) -> u32 {
        u64::get(r) as u32
    }
}

impl Wire for u8 {
    uint_text!(u8);
    fn put(self, w: &mut PackedWriter<'_>) {
        w.byte(self);
    }
    fn get(r: &mut PackedReader<'_>) -> u8 {
        r.byte()
    }
}

impl Wire for bool {
    const NAME: &'static str = "bool";
    fn put(self, w: &mut PackedWriter<'_>) {
        w.byte(self as u8);
    }
    fn get(r: &mut PackedReader<'_>) -> bool {
        r.byte() != 0
    }
    fn put_json(self, s: &mut String) {
        let _ = write!(s, "{self}");
    }
    fn get_json(v: &JsonValue) -> Option<bool> {
        v.as_bool()
    }
    #[cfg(test)]
    fn sample(d: &mut samples::Draw) -> bool {
        d.bool()
    }
}

/// Packed as the bit pattern, so `-0.0` and every NaN payload survive. In
/// JSON fixed six decimal places, so the same value always serialises
/// identically and never in exponent notation; JSON has no Inf/NaN, so
/// those are written as `null`, which reads back as NaN.
impl Wire for f64 {
    const NAME: &'static str = "number";
    fn put(self, w: &mut PackedWriter<'_>) {
        for b in self.to_bits().to_le_bytes() {
            w.byte(b);
        }
    }
    fn get(r: &mut PackedReader<'_>) -> f64 {
        f64::from_bits(u64::from_le_bytes(std::array::from_fn(|_| r.byte())))
    }
    fn put_json(self, s: &mut String) {
        if self.is_finite() {
            let _ = write!(s, "{self:.6}");
        } else {
            s.push_str("null");
        }
    }
    fn get_json(v: &JsonValue) -> Option<f64> {
        match v {
            JsonValue::Null => Some(f64::NAN),
            v => v.as_f64(),
        }
    }
    #[cfg(test)]
    fn sample(d: &mut samples::Draw) -> f64 {
        d.f64()
    }
}

/// The field `key` of a parsed dump line, as the type its row declares.
fn field<T: Wire>(obj: &FlatObject, key: &str) -> Result<T, String> {
    let v = jsonl::get(obj, key).ok_or_else(|| format!("missing \"{key}\""))?;
    T::get_json(v).ok_or_else(|| format!("\"{key}\": {v:?} is not a {}", T::NAME))
}

/// Declares one field-less enum of the schema, `Variant = "name"` per
/// value, and generates everything that must list its values: `ALL`,
/// `as_str`, `parse`, and the [`Wire`] halves (one byte on the wire — the
/// value's index in `ALL`, which is declaration order — and the quoted
/// name in JSON). A new value is one row; append it, because recorded
/// rings hold the index.
macro_rules! trace_enum {
    (
        $(#[$meta:meta])*
        pub enum $ty:ident {
            $($(#[$vmeta:meta])* $variant:ident = $name:literal),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum $ty {
            $($(#[$vmeta])* $variant),+
        }

        impl $ty {
            /// Every value, in declaration order (the order reports list
            /// them in).
            pub const ALL: &'static [$ty] = &[$($ty::$variant),+];

            /// Stable lower-snake name used in the JSONL encoding.
            pub fn as_str(self) -> &'static str {
                match self {
                    $($ty::$variant => $name),+
                }
            }

            /// Inverse of [`as_str`](Self::as_str): offline analyzers
            /// rebuild typed records from trace dumps.
            pub fn parse(name: &str) -> Option<$ty> {
                match name {
                    $($name => Some($ty::$variant),)+
                    _ => None,
                }
            }
        }

        impl Wire for $ty {
            const NAME: &'static str = stringify!($ty);
            fn put(self, w: &mut PackedWriter<'_>) {
                w.byte(self as u8);
            }
            fn get(r: &mut PackedReader<'_>) -> $ty {
                $ty::ALL[usize::from(r.byte())]
            }
            fn put_json(self, s: &mut String) {
                s.push('"');
                s.push_str(self.as_str());
                s.push('"');
            }
            fn get_json(v: &JsonValue) -> Option<$ty> {
                $ty::parse(v.as_str()?)
            }
            #[cfg(test)]
            fn sample(d: &mut samples::Draw) -> $ty {
                d.pick($ty::ALL)
            }
        }
    };
}

trace_enum! {
    /// Why a data-plane element was dropped instead of delivered/accepted.
    pub enum DropReason {
        /// The destination machine was failed-stop at delivery time.
        MachineDown = "machine_down",
        /// The delivery raced a completed switch-over/rollback and carried a
        /// stale epoch.
        StaleEpoch = "stale_epoch",
        /// The receiving input queue had already accepted this sequence number
        /// (duplicate from a redundant replica or a retransmission overlap).
        Duplicate = "duplicate",
    }
}

trace_enum! {
    /// The kind of chaos-plan action a [`TraceEvent::ChaosPhase`] records.
    pub enum ChaosKind {
        /// A fault profile was installed on one directed link.
        LinkFaults = "link_faults",
        /// A directed link's fault profile was removed.
        ClearLinkFaults = "clear_link_faults",
        /// The network-wide default fault profile was set.
        DefaultFaults = "default_faults",
        /// The network-wide default fault profile was cleared.
        ClearDefaultFaults = "clear_default_faults",
        /// A two-way partition was cut.
        Partition = "partition",
        /// A partition was healed.
        Heal = "heal",
        /// A machine was fail-stopped.
        FailStop = "fail_stop",
        /// Every machine in one rack fault domain was fail-stopped at once.
        FailDomain = "fail_domain",
        /// Every machine behind one switch was partitioned from the rest.
        PartitionSwitch = "partition_switch",
        /// A switch partition was healed.
        HealSwitch = "heal_switch",
    }
}

trace_enum! {
    /// Why a failover attempt was abandoned without promoting anything
    /// (see [`TraceEvent::FailoverAborted`]).
    pub enum AbortReason {
        /// The standby was already lost and no spare machine remained.
        NoStandby = "no_standby",
        /// The promotion-safety ladder rejected the standby (stale heartbeat
        /// or checkpoint lag) and no safe spare remained.
        StandbyUnhealthy = "standby_unhealthy",
        /// The standby's machine sits in a fault domain with an active fault
        /// and no domain-disjoint spare remained.
        DomainFault = "domain_fault",
    }
}

trace_enum! {
    /// A named phase of a recovery cycle, as logged on the control plane.
    ///
    /// This is the single source of truth for recovery phases: `sps-ha`
    /// re-exports it as `HaEventKind`, and the recovery-time decomposition in
    /// `sps-metrics` is derived from spans of these phases.
    pub enum RecoveryPhase {
        /// A transient failure was declared (PS: 3 misses, Hybrid: 1 miss).
        Detected = "detected",
        /// Hybrid switch-over completed (secondary live).
        SwitchoverComplete = "switchover_complete",
        /// Hybrid rollback started (fresh pong received).
        RollbackStarted = "rollback_started",
        /// Hybrid rollback completed (primary restored and live).
        RollbackComplete = "rollback_complete",
        /// PS deployment completed.
        PsDeployed = "ps_deployed",
        /// PS connections established (new copy live).
        PsConnected = "ps_connected",
        /// Fail-stop declared; secondary promoted to primary.
        Promoted = "promoted",
        /// Replacement secondary deployed and suspended.
        SecondaryReady = "secondary_ready",
    }
}

trace_enum! {
    /// The HA mode of one subjob, as carried by [`TraceEvent::SubjobMeta`].
    ///
    /// Mirrors `sps_ha::HaMode` without depending on it: the trace crate sits
    /// below the protocol crate, and offline analyzers (the auditor's replay
    /// frontend) must reconstruct modes from dumps alone.
    pub enum HaModeTag {
        /// Single copy, no failure handling.
        None = "none",
        /// Active standby (two serving copies, downstream dedup).
        Active = "active",
        /// Passive standby (checkpoints, deploy on demand).
        Passive = "passive",
        /// The paper's hybrid.
        Hybrid = "hybrid",
    }
}

trace_enum! {
    /// Which protocol transition bumped a subjob's epoch (see
    /// [`TraceEvent::EpochChange`]).
    pub enum EpochCause {
        /// Initial deployment (epoch 0, emitted once per subjob at build).
        Init = "init",
        /// A switch-over in flight was aborted by a fresh pong (false alarm).
        SwitchoverAbort = "switchover_abort",
        /// Hybrid switch-over began (secondary resuming).
        Switchover = "switchover",
        /// PS declared a failure and started an on-demand deploy.
        PsDetect = "ps_detect",
        /// A deployed copy finished connecting and took over (role swap).
        PsConnect = "ps_connect",
        /// Fail-stop promotion: the secondary became the primary.
        Promote = "promote",
        /// Promotion fell back to a spare redeploy (dead primary, PS path).
        SpareRedeploy = "spare_redeploy",
        /// The standby machine died; the subjob dropped to one copy.
        StandbyLost = "standby_lost",
    }
}

trace_enum! {
    /// The protocol invariant an [`TraceEvent::AuditViolation`] breaks.
    ///
    /// The checker semantics live in `sps-audit`; the names live here so the
    /// violation event encodes/parses like every other trace event.
    pub enum AuditInvariant {
        /// A sink accepted an already-processed sequence number (receiver
        /// dedup failed) or its processed-through position regressed.
        SinkExactlyOnce = "sink_exactly_once",
        /// At end of a quiescent lossless run, a sink's processed-through
        /// position never caught up with the highest sequence it saw.
        SinkSeqGap = "sink_seq_gap",
        /// A checkpoint-acked primary acknowledged upstream beyond its last
        /// stored checkpoint position (§III-B ordering).
        CkptAckOrder = "ckpt_ack_order",
        /// A subjob's epoch failed to increase across a transition.
        EpochRegression = "epoch_regression",
        /// Two different primaries were declared for the same subjob epoch.
        SplitBrain = "split_brain",
        /// A recovery-phase transition that the subjob's HA mode cannot
        /// legally produce.
        IllegalPhase = "illegal_phase",
        /// A reliable-transfer retransmission attempt number repeated or
        /// regressed (the flagged-once rule).
        RetransmitReflag = "retransmit_reflag",
        /// A promotion completed without re-provisioning a standby and
        /// without declaring the failover aborted.
        StandbyCoverage = "standby_coverage",
        /// A freshly provisioned standby landed in the primary's fault domain
        /// on a non-flat topology.
        DomainDisjoint = "domain_disjoint",
        /// At the end of a quiescent lossless run, the serving consumers of a
        /// stream had not processed everything its producers produced.
        StreamComplete = "stream_complete",
    }
}

trace_enum! {
    /// The detector family a [`TraceEvent::Anomaly`] verdict belongs to.
    pub enum AnomalyKind {
        /// Queue-depth high-water trend: input queues growing past threshold.
        Backpressure = "backpressure",
        /// Checkpoint sweep overran its interval budget (no store completed).
        CheckpointStall = "checkpoint_stall",
        /// Heartbeat suspect/refute churn above the flakiness band.
        HeartbeatFlaky = "heartbeat_flaky",
        /// A recovery cycle in flight has burned past its time budget.
        RecoveryBudgetBurn = "recovery_budget_burn",
        /// A subjob is running without a live standby (redundancy lost until
        /// re-provisioning completes).
        RedundancyLoss = "redundancy_loss",
        /// The protocol auditor's violation count increased (any invariant).
        AuditViolations = "audit_violations",
    }
}

/// `true` for a `data` row of the event table, `false` for a `control` one.
macro_rules! is_data {
    (data) => {
        true
    };
    (control) => {
        false
    };
}

/// Declares [`TraceEvent`] as one table, a row per kind:
///
/// ```text
/// /// what happened
/// tag "kind" data|control => Variant {
///     /// what it is
///     field: type,
/// },
/// ```
///
/// and generates from it the enum, [`TraceEvent::kind`],
/// [`TraceEvent::is_data_plane`], [`TraceEvent::KINDS`], the JSONL writer
/// [`TraceRecord::write_json`] and its total reader
/// [`TraceRecord::from_json`], the packed [`TraceRecord::encode`] /
/// [`TraceRecord::decode`], and the tests' every-variant sampler. `tag` is
/// the first byte of the packed form (append-only: recorded rings are
/// decoded by it), `"kind"` the JSONL name, `data` marks the high-rate
/// kinds a sink must ask for, and the fields are written and read in the
/// order declared, each by its type's [`Wire`] impl. The generated
/// `match`es over variants have no wildcard arm, and those that touch
/// fields bind every one, so a row cannot be half applied.
macro_rules! trace_events {
    (
        $(#[$meta:meta])*
        pub enum TraceEvent {
            $(
                $(#[$vmeta:meta])*
                $tag:literal $kind:literal $plane:ident => $variant:ident {
                    $($(#[$fmeta:meta])* $field:ident: $fty:ty),+ $(,)?
                }
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub enum TraceEvent {
            $(
                $(#[$vmeta])*
                $variant {
                    $($(#[$fmeta])* $field: $fty),+
                }
            ),+
        }

        impl TraceEvent {
            /// Every kind name with its data-plane flag, in declaration
            /// order.
            pub const KINDS: &'static [(&'static str, bool)] = &[$(($kind, is_data!($plane))),+];

            /// Stable lower-snake event-kind name used in the JSONL encoding.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(TraceEvent::$variant { .. } => $kind),+
                }
            }

            /// `true` for the high-rate data-plane kinds that are only emitted
            /// when a sink asked for them (see `TraceSink::wants_data_plane`).
            pub fn is_data_plane(&self) -> bool {
                match self {
                    $(TraceEvent::$variant { .. } => is_data!($plane)),+
                }
            }

            /// One event of every variant, in declaration order, each
            /// field drawn from `d` in turn.
            #[cfg(test)]
            pub(crate) fn every_variant(d: &mut samples::Draw) -> Vec<TraceEvent> {
                // Struct-expression fields are evaluated as written.
                vec![$(TraceEvent::$variant { $($field: Wire::sample(d)),+ }),+]
            }
        }

        impl TraceRecord {
            /// Append the [`to_json`](Self::to_json) object to `s`, so an
            /// exporter can reuse one line buffer for a whole dump.
            pub fn write_json(&self, s: &mut String) {
                let _ = write!(
                    s,
                    "{{\"t\":{},\"kind\":\"{}\"",
                    self.at.as_nanos(),
                    self.event.kind()
                );
                match self.event {
                    $(TraceEvent::$variant { $($field),+ } => {
                        $(
                            s.push_str(concat!(",\"", stringify!($field), "\":"));
                            $field.put_json(s);
                        )+
                    })+
                }
                s.push('}');
            }

            /// The record a parsed dump line encodes: the inverse of
            /// [`to_json`](Self::to_json) for every kind, up to the six
            /// decimals floats are written with. An unknown kind or enum
            /// name, a missing field, and an integer outside its field's
            /// range are each an error naming the key.
            pub fn from_json(obj: &FlatObject) -> Result<TraceRecord, String> {
                let at = SimTime::from_nanos(field(obj, "t")?);
                let kind = jsonl::get(obj, "kind")
                    .and_then(JsonValue::as_str)
                    .ok_or("missing or non-string \"kind\"")?;
                let event = match kind {
                    $($kind => TraceEvent::$variant {
                        $($field: field(obj, stringify!($field))?),+
                    },)+
                    _ => return Err(format!("unknown \"kind\" \"{kind}\"")),
                };
                Ok(TraceRecord { at, event })
            }

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
                    $(TraceEvent::$variant { $($field),+ } => {
                        w.byte($tag);
                        dt.put(&mut w);
                        $($field.put(&mut w);)+
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
                    $($tag => TraceEvent::$variant { $($field: Wire::get(&mut r)),+ },)+
                    _ => unreachable!("tag {tag} is not one `encode` writes"),
                };
                (TraceRecord { at, event }, r.pos)
            }
        }
    };
}

trace_events! {
    /// One typed, sim-time-free trace event. The timestamp lives in the
    /// enclosing [`TraceRecord`] so the event payload stays reusable.
    ///
    /// Field conventions: `machine` is a machine index, `pe` a processing
    /// element id, `replica` is `0` for primary / `1` for secondary, `subjob`
    /// a subjob index, and times are sim-time nanoseconds.
    pub enum TraceEvent {
        /// A data element (or batch) left an instance's output queue.
        0 "element_send" data => ElementSend {
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
        1 "element_recv" data => ElementRecv {
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
        2 "element_drop" control => ElementDrop {
            /// Destination machine index.
            machine: u32,
            /// Elements lost with the message.
            elements: u32,
            /// Why the message was dropped.
            reason: DropReason,
        },
        /// A downstream acknowledged element receipt back upstream.
        3 "ack" data => Ack {
            /// The PE whose output queue is being acknowledged.
            pe: u32,
            /// Replica of that PE.
            replica: u8,
            /// Acknowledged-through sequence number.
            through_seq: u64,
        },
        /// A checkpoint began for one PE instance.
        4 "checkpoint_start" control => CheckpointStart {
            /// PE being checkpointed.
            pe: u32,
            /// Replica being checkpointed.
            replica: u8,
        },
        /// A checkpoint message (state snapshot) was produced and sent.
        5 "checkpoint_sent" control => CheckpointSent {
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
        6 "checkpoint_stored" control => CheckpointStored {
            /// PE whose checkpoint completed.
            pe: u32,
            /// Replica whose checkpoint completed.
            replica: u8,
        },
        /// A heartbeat ping was sent to a monitored machine.
        7 "heartbeat_ping" data => HeartbeatPing {
            /// Monitored machine index.
            machine: u32,
            /// Ping sequence number.
            seq: u64,
        },
        /// A heartbeat reply came back fresh (clears suspicion if any).
        8 "heartbeat_pong" data => HeartbeatPong {
            /// Replying machine index.
            machine: u32,
            /// Sequence number being answered.
            seq: u64,
            /// Whether this pong cleared an active suspicion.
            cleared_suspicion: bool,
        },
        /// A heartbeat tick found outstanding unanswered pings.
        9 "heartbeat_miss" control => HeartbeatMiss {
            /// Monitored machine index.
            machine: u32,
            /// Consecutive misses so far.
            streak: u32,
        },
        /// A benchmark detector probe task was submitted.
        10 "bench_probe" control => BenchProbe {
            /// Probed machine index.
            machine: u32,
        },
        /// A benchmark detector probe completed and produced a verdict.
        11 "bench_verdict" control => BenchVerdict {
            /// Probed machine index.
            machine: u32,
            /// Measured probe latency in sim nanoseconds.
            latency_ns: u64,
            /// Whether the probe declared the machine overloaded.
            overloaded: bool,
        },
        /// A failure (spike window or fail-stop) was injected by the harness.
        12 "failure_inject" control => FailureInject {
            /// Affected machine index.
            machine: u32,
            /// `true` for a permanent fail-stop, `false` for a load spike.
            fail_stop: bool,
        },
        /// The control plane declared a machine failed/overloaded.
        13 "failure_detect" control => FailureDetect {
            /// Declared machine index.
            machine: u32,
            /// Affected subjob index.
            subjob: u32,
            /// Consecutive heartbeat misses at declaration time.
            miss_streak: u32,
        },
        /// A recovery phase boundary on the control plane.
        14 "recovery" control => Recovery {
            /// Affected subjob index.
            subjob: u32,
            /// Which phase boundary was crossed.
            phase: RecoveryPhase,
        },
        /// A failover attempt gave up without promoting: the subjob keeps its
        /// (possibly failed) primary and has lost redundancy. Previously a
        /// silent dead-end; now visible to health reports and `sps-inspect`.
        15 "failover_aborted" control => FailoverAborted {
            /// Affected subjob index.
            subjob: u32,
            /// The standby machine the ladder rejected (or `u32::MAX` when no
            /// standby existed at all).
            machine: u32,
            /// Why the attempt was abandoned.
            reason: AbortReason,
        },
        /// A queue reached a new high-water mark (only growth is reported).
        16 "queue_high_water" control => QueueHighWater {
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
        17 "machine_snapshot" control => MachineSnapshot {
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
        18 "pe_snapshot" control => PeSnapshot {
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
        19 "net_drop" control => NetDrop {
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
        20 "net_duplicate" control => NetDuplicate {
            /// Sending machine index.
            src: u32,
            /// Destination machine index.
            dst: u32,
            /// Wire size of the duplicated message.
            bytes: u64,
        },
        /// The reliable control plane retransmitted an unacknowledged message.
        21 "retransmit" control => Retransmit {
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
        22 "chaos_phase" control => ChaosPhase {
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
        23 "slo_breach" control => SloBreach {
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
        24 "anomaly" control => Anomaly {
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
        25 "audit_meta" control => AuditMeta {
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
        26 "subjob_meta" control => SubjobMeta {
            /// Subjob index.
            subjob: u32,
            /// The subjob's HA mode.
            mode: HaModeTag,
        },
        /// A data delivery arrived at a sink: the receiver-side exactly-once
        /// ledger, aggregated per message (batch-aware via the range stamp).
        27 "sink_deliver" control => SinkDeliver {
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
        28 "checkpoint_covered" control => CheckpointCovered {
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
        29 "ack_sent" control => AckSent {
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
        30 "epoch_change" control => EpochChange {
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
        31 "standby_provision" control => StandbyProvision {
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
        32 "audit_violation" control => AuditViolation {
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
        /// One stream at the end of a run, emitted just before the probes
        /// finish: how far its producers got and how far its consumers
        /// followed.
        33 "stream_final" control => StreamFinal {
            /// Stream index.
            stream: u32,
            /// Highest sequence number any deployed producer copy produced.
            last_seq: u64,
            /// Lowest processed-through position over the serving consumer
            /// copies.
            processed: u64,
        },
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
}

/// Upper bound on [`TraceRecord::encode`]'s output: the widest record is a
/// `sink_deliver` whose time delta and seven integers all take their full
/// LEB128 width (61 bytes).
pub(crate) const MAX_ENCODED_LEN: usize = 64;

/// The values [`TraceEvent::every_variant`] puts every field of every
/// variant through: the ones where an encoding changes width. Shared with
/// the recorder's ring test.
#[cfg(test)]
pub(crate) mod samples {
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
        pub(crate) fn u64(&mut self) -> u64 {
            INTS[self.step() % INTS.len()]
        }
        pub(crate) fn f64(&mut self) -> f64 {
            FLOATS[self.step() % FLOATS.len()]
        }
        pub(crate) fn bool(&mut self) -> bool {
            self.step() % 2 == 1
        }
        pub(crate) fn pick<T: Copy>(&mut self, all: &[T]) -> T {
            all[self.step() % all.len()]
        }
        pub(crate) fn gap(&mut self) -> u64 {
            GAPS_NS[self.step() % GAPS_NS.len()]
        }
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
        // its list (the longest, `ChaosKind::ALL` and `AuditInvariant::ALL`,
        // have 10).
        for round in 0..24 {
            let mut draw = samples::Draw::rotating(round);
            let mut at = 0u64;
            let records: Vec<TraceRecord> = TraceEvent::every_variant(&mut draw)
                .into_iter()
                .map(|event| {
                    at += draw.gap();
                    TraceRecord {
                        at: SimTime::from_nanos(at),
                        event,
                    }
                })
                .collect();
            assert_eq!(records.len(), 34);
            assert_round_trips(&records);
        }
    }

    #[test]
    fn widest_records_fit_the_declared_bound_and_time_may_run_backwards() {
        let widest: Vec<TraceRecord> = TraceEvent::every_variant(&mut samples::Draw::widest())
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
    fn every_enum_name_round_trips() {
        macro_rules! names_round_trip {
            ($($ty:ident),+) => {$(
                for &v in $ty::ALL {
                    assert_eq!($ty::parse(v.as_str()), Some(v));
                }
                assert_eq!($ty::parse("nope"), None);
            )+};
        }
        names_round_trip!(
            DropReason,
            ChaosKind,
            AbortReason,
            RecoveryPhase,
            HaModeTag,
            EpochCause,
            AuditInvariant,
            AnomalyKind
        );
        assert_eq!(RecoveryPhase::ALL.len(), 8);
        assert_eq!(AuditInvariant::ALL.len(), 10);
        assert_eq!(AnomalyKind::AuditViolations.as_str(), "audit_violations");
    }

    /// What an offline tool does with one dump line.
    fn read(line: &str) -> Result<TraceRecord, String> {
        TraceRecord::from_json(&jsonl::parse_flat_object(line)?)
    }

    #[test]
    fn json_text_is_a_fix_point_of_reading_and_writing() {
        for round in 0..24 {
            let mut draw = samples::Draw::rotating(round);
            for event in TraceEvent::every_variant(&mut draw) {
                let at = SimTime::from_nanos(draw.u64());
                let line = TraceRecord { at, event }.to_json();
                let back = read(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
                // The text survives, so every integer, flag and name did.
                assert_eq!(back.to_json(), line);
                // `back` holds each float at the six decimals it is written
                // with, and such a record survives as a value.
                assert_eq!(read(&line), Ok(back));
            }
        }
        for &reason in AbortReason::ALL {
            let aborted = TraceRecord {
                at: SimTime::from_millis(2_000),
                event: TraceEvent::FailoverAborted {
                    subjob: 2,
                    machine: u32::MAX,
                    reason,
                },
            };
            assert_eq!(read(&aborted.to_json()), Ok(aborted));
        }
        let nan = "{\"t\":0,\"kind\":\"anomaly\",\"detector\":\"backpressure\",\"machine\":1,\"pe\":4,\"onset\":true,\"value\":null}";
        assert_eq!(read(nan).unwrap().to_json(), nan);
    }

    #[test]
    fn reading_rejects_what_writing_cannot_have_written() {
        let deliver = |sink: u64, seq_end: &str| {
            format!(
                "{{\"t\":1,\"kind\":\"sink_deliver\",\"sink\":{sink},\"stream\":9,\"seq_start\":17,\"seq_end\":{seq_end},\"newly_accepted\":4,\"duplicates\":0,\"processed_through\":20}}"
            )
        };
        let two53 = 1u64 << 53;
        for seq in [two53 - 1, two53 + 1, u64::MAX] {
            let TraceEvent::SinkDeliver { seq_end, .. } =
                read(&deliver(0, &seq.to_string())).unwrap().event
            else {
                panic!("not a sink_deliver");
            };
            assert_eq!(seq_end, seq);
        }
        let err = |line: &str| read(line).unwrap_err();
        let e = err(&deliver(u64::from(u32::MAX) + 1, "20"));
        assert!(e.contains("\"sink\"") && e.contains("u32"), "{e}");
        let e = err(&deliver(0, "18446744073709551616"));
        assert!(e.contains("\"seq_end\"") && e.contains("u64"), "{e}");
        let e = err("{\"t\":1,\"kind\":\"ack\",\"pe\":1,\"replica\":256,\"through_seq\":3}");
        assert!(e.contains("\"replica\"") && e.contains("u8"), "{e}");
        let e = err("{\"t\":1,\"kind\":\"recovery\",\"subjob\":1,\"phase\":\"detcted\"}");
        assert!(
            e.contains("\"phase\"") && e.contains("RecoveryPhase"),
            "{e}"
        );
        let e = err("{\"t\":1,\"kind\":\"recovery\",\"subjob\":1}");
        assert!(e.contains("missing \"phase\""), "{e}");
        let e = err("{\"t\":1,\"kind\":\"recovry\",\"subjob\":1,\"phase\":\"detected\"}");
        assert!(e.contains("unknown \"kind\" \"recovry\""), "{e}");
        let e = err("{\"kind\":\"bench_probe\",\"machine\":1}");
        assert!(e.contains("missing \"t\""), "{e}");
        let e = err("{\"t\":1,\"kind\":\"bench_probe\",\"machine\":true}");
        assert!(e.contains("\"machine\"") && e.contains("u32"), "{e}");
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
        let data: Vec<&str> = TraceEvent::KINDS
            .iter()
            .filter_map(|&(kind, data)| data.then_some(kind))
            .collect();
        assert_eq!(
            data,
            [
                "element_send",
                "element_recv",
                "ack",
                "heartbeat_ping",
                "heartbeat_pong"
            ]
        );
        assert_eq!(TraceEvent::KINDS.len(), 34);
    }
}
