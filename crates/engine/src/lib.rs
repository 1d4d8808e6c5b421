//! # sps-engine — the stream-processing engine substrate
//!
//! The runtime mechanics of a distributed stream-processing system, modelled
//! after the prototype of Zhang et al. (ICDCS 2010):
//!
//! * [`DataElement`] / [`StreamId`] — sequence-numbered elements on logical
//!   streams shared by all replicas of a PE;
//! * [`Operator`] / [`OperatorSpec`] — deterministic per-element processing
//!   logic with snapshot/restore of the small internal state (never the
//!   memory image);
//! * [`OutputQueue`] — retention until accumulative acknowledgment, the
//!   paper's queue-trimming rule, and the hybrid method's `is_active`
//!   connection flag;
//! * [`InputQueue`] — duplicate elimination and position tracking;
//! * [`PeInstance`] — one deployed copy of a PE, with the
//!   suspension flag and the pause/checkpoint/resume surface the Checkpoint
//!   Manager drives;
//! * [`Job`] / [`JobBuilder`] — validated dataflow topologies partitioned
//!   into subjobs.
//!
//! The engine is *mechanism*; all HA *policy* (standby modes, checkpoint
//! scheduling, failure detection, switch-over) lives in `sps-ha`.
//!
//! ```
//! use sps_engine::{Job, OperatorSpec};
//!
//! // The paper's evaluation job: 8 PEs in a chain, 4 subjobs of 2 PEs.
//! let job = Job::chain("eval", &OperatorSpec::synthetic_default(), 8, 4);
//! assert_eq!(job.subjob_count(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod batch;
mod chunk;
mod element;
mod job;
mod operator;
mod pe;
mod queue;

pub use batch::{DataBatch, OutputSession};
pub use chunk::{ChunkedDeque, CHUNK_CAP};
pub use element::{DataElement, Payload, PeId, StreamId, DEFAULT_ELEMENT_BYTES, FIRST_SEQ};
pub use job::{BuildJobError, Consumer, Job, JobBuilder, PeSpec, Producer, SourceId, SubjobId};
pub use operator::{
    shard_of, AggKind, Emitter, Operator, OperatorFactory, OperatorSpec, OperatorState,
};
pub use pe::{Dest, InstanceId, PeCheckpoint, PeInstance, Replica, SinkId, WorkBatch};
pub use queue::{
    Connection, ConnectionId, InputQueue, Offer, OutputQueue, OutputQueueState, RunOffer,
};
