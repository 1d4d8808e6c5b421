//! # sps-trace — sim-time-aware tracing for the hybrid-HA simulator
//!
//! A typed observability layer threaded through the simulator:
//!
//! * [`TraceEvent`] / [`TraceRecord`] — the typed, sim-time-stamped event
//!   vocabulary: element send/receive/drop, acks, checkpoint lifecycle,
//!   heartbeat and benchmark-probe activity, failure injection/detection,
//!   recovery phases, queue high-water marks, and periodic snapshots;
//! * [`jsonl`] — the flat-JSON reader for the workspace's own dumps; with
//!   it [`TraceRecord::from_json`] inverts [`TraceRecord::to_json`] for
//!   every kind, so offline tools rebuild typed records from a dump;
//! * [`Tracer`] / [`TraceSink`] — the event bus. Zero sinks means the
//!   data-plane hot path costs one branch; control-plane recovery phases
//!   are always kept (they feed the recovery-time decomposition);
//! * [`FlightRecorder`] / [`SharedRecorder`] — a bounded ring of the most
//!   recent records with JSONL export (`trace.jsonl` under the bench
//!   bins' `--observe-out`);
//! * [`recovery_spans`] — the phase log ([`Tracer::phases`]) as per-subjob
//!   recovery spans (folded by `(subjob, cycle, phase)` identity);
//! * [`LineageTable`] — causal tuple lineage: per logical element
//!   `(stream, seq)`, the producing PE, parent element, and emit / send /
//!   receive / processing-start stamps, decomposable into per-hop
//!   queueing / network / processing time with retransmission flags;
//! * [`RecoveryCriticalPath`] / [`recovery_critical_paths`] — per
//!   recovery cycle, the labelled dependency chain (detection →
//!   switch-over → promotion → state read → …) with per-edge attribution.
//!
//! The crate depends only on `sps-sim` (for [`sps_sim::SimTime`]); the
//! engine and cluster layers stay trace-agnostic and are sampled from
//! above. Counting records of one kind is a filter over
//! [`FlightRecorder::records`], not a second store.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub(crate) mod critical_path;
mod event;
pub mod jsonl;
mod lineage;
mod recorder;
mod sink;
mod spans;

pub use critical_path::{
    longest_critical_path, recovery_critical_paths, CriticalPathEdge, RecoveryCriticalPath,
};
pub use event::{
    AbortReason, AnomalyKind, AuditInvariant, ChaosKind, DropReason, EpochCause, HaModeTag,
    RecoveryPhase, TraceEvent, TraceRecord,
};
pub use lineage::{ElementKey, HopTiming, LineageTable, TupleRecord, SOURCE_PE};
pub use recorder::{FlightRecorder, SharedRecorder, DEFAULT_CAPACITY};
pub use sink::{PhaseRecord, TraceProbe, TraceSink, Tracer};
pub use spans::{recovery_spans, RecoverySpan};
