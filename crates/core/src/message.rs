//! The message alphabet exchanged between machines.

use std::sync::Arc;

use sps_cluster::MachineId;
use sps_engine::{DataBatch, DataElement, Dest, InstanceId, PeCheckpoint, SourceId, SubjobId};

/// Addresses the owner of an output queue: acknowledgments are sent to it,
/// and the failover plumbing reaches a producer copy's queue through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProducerAddr {
    /// An external source's output queue.
    Source(SourceId),
    /// Output port `1` of PE instance `0`.
    Instance(InstanceId, usize),
}

/// A network message. Sizes are derived per variant when sending.
#[derive(Debug, Clone)]
pub enum Msg {
    /// A data element bound for a PE input port or a sink.
    Data {
        /// Destination input.
        to: Dest,
        /// The element.
        elem: DataElement,
    },
    /// A contiguous run of data elements under one
    /// `(stream, seq_start..=seq_end)` range stamp, bound for a PE input
    /// port or a sink. Only emitted for runs of two or more elements — a
    /// coalesced singleton run goes out as [`Msg::Data`], which is what
    /// keeps batch size 1 byte-identical to the unbatched runtime.
    DataBatch {
        /// Destination input.
        to: Dest,
        /// The range-stamped run.
        batch: DataBatch,
    },
    /// A cumulative acknowledgment: every element of the connection's
    /// stream with sequence number `<= seq` has been processed (and, under
    /// checkpointing, its effects persisted) by the sender. The producer
    /// finds the connection by the sender's identity.
    Ack {
        /// The output queue being acknowledged.
        to: ProducerAddr,
        /// Who is acknowledging (the connection's destination).
        from: Dest,
        /// Processed-through sequence number.
        seq: u64,
    },
    /// Checkpoints of one or more PEs of a subjob, primary → secondary
    /// machine. Sweeping/individual protocols send one PE per message;
    /// the synchronous protocol bundles the whole subjob.
    Checkpoint {
        /// The subjob being checkpointed.
        subjob: SubjobId,
        /// Epoch guard: stale checkpoints from before a role change are
        /// discarded.
        epoch: u64,
        /// The PE snapshots. `Arc`-shared so the reliable layer's
        /// retransmission buffer and chaos duplicates clone a pointer, not
        /// the element batches.
        ckpts: Vec<Arc<PeCheckpoint>>,
    },
    /// Secondary machine → primary: the checkpoint was stored; the primary
    /// may now send the corresponding upstream acknowledgments (§III-B
    /// ordering: ack only after the resulting states are checkpointed).
    CheckpointStored {
        /// The subjob.
        subjob: SubjobId,
        /// Epoch guard.
        epoch: u64,
        /// Which PEs were stored.
        pes: Vec<sps_engine::PeId>,
    },
    /// Heartbeat ping, monitor → monitored machine.
    Ping {
        /// The monitor index.
        monitor: u32,
        /// Ping sequence number.
        seq: u64,
    },
    /// Heartbeat reply, monitored machine → monitor.
    Pong {
        /// The monitor index.
        monitor: u32,
        /// Echoed ping sequence number.
        seq: u64,
    },
    /// Hybrid rollback: the suspended secondary's state read back by the
    /// recovering primary ("Read State on Rollback", §IV-B).
    StateRead {
        /// The subjob rolling back.
        subjob: SubjobId,
        /// Epoch guard.
        epoch: u64,
        /// Snapshots of the secondary's current state (`Arc`-shared, like
        /// [`Msg::Checkpoint`]).
        ckpts: Vec<Arc<PeCheckpoint>>,
    },
    /// Control signalling (deploy/resume/activate requests); payload size
    /// only.
    Control {
        /// A short label for tracing.
        what: &'static str,
    },
    /// A sequence-numbered reliable envelope around a control-plane message
    /// (checkpoint transfer, store-acknowledgment, state read-back). The
    /// sender keeps the payload in flight and retransmits with exponential
    /// backoff until a [`Msg::RelAck`] arrives; the receiver deduplicates by
    /// `tx` so retransmissions are idempotent.
    Reliable {
        /// Globally unique transmission id (assigned by the sending world).
        tx: u64,
        /// The sending machine — where the receiver directs its ack.
        from: MachineId,
        /// The wrapped message.
        inner: Box<Msg>,
    },
    /// Receiver → sender acknowledgment of one reliable transmission.
    RelAck {
        /// The acknowledged transmission id.
        tx: u64,
    },
}

impl Msg {
    /// Approximate wire size in bytes, given the configured element size.
    pub fn wire_bytes(&self, element_bytes: u32) -> u64 {
        match self {
            Msg::Data { elem, .. } => elem.size_bytes as u64 + 32,
            // One header amortized over the run: the batching win on the wire.
            Msg::DataBatch { batch, .. } => batch.payload_bytes() + 32,
            Msg::Ack { .. } => 48,
            Msg::Checkpoint { ckpts, .. } | Msg::StateRead { ckpts, .. } => ckpts
                .iter()
                .map(|c| c.byte_size(element_bytes))
                .sum::<u64>()
                .max(64),
            Msg::CheckpointStored { pes, .. } => 32 + 8 * pes.len() as u64,
            Msg::Ping { .. } | Msg::Pong { .. } => 32,
            Msg::Control { .. } => 64,
            // Envelope: tx + sender header around the payload.
            Msg::Reliable { inner, .. } => 16 + inner.wire_bytes(element_bytes),
            Msg::RelAck { .. } => 40,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sps_engine::{PeId, StreamId};
    use sps_sim::SimTime;

    #[test]
    fn wire_sizes_scale_with_content() {
        let elem = DataElement {
            stream: StreamId(0),
            seq: 1,
            created_at: SimTime::ZERO,
            key: 0,
            value: 0.0,
            size_bytes: 256,
        };
        let data = Msg::Data {
            to: Dest::Sink(sps_engine::SinkId(0)),
            elem,
        };
        assert_eq!(data.wire_bytes(256), 288);
        assert_eq!(Msg::Ping { monitor: 0, seq: 1 }.wire_bytes(256), 32);

        // A batch amortizes the 32-byte header over the whole run.
        let run: Vec<DataElement> = (1..=4).map(|seq| DataElement { seq, ..elem }).collect();
        let batched = Msg::DataBatch {
            to: Dest::Sink(sps_engine::SinkId(0)),
            batch: DataBatch::from_run(&run),
        };
        assert_eq!(batched.wire_bytes(256), 4 * 256 + 32);

        let ckpt = PeCheckpoint {
            pe: PeId(0),
            operator_state: Default::default(),
            state_elements: 20,
            outputs: vec![],
            input_positions: vec![],
            input_backlog: vec![],
            taken_at: SimTime::ZERO,
        };
        let msg = Msg::Checkpoint {
            subjob: SubjobId(0),
            epoch: 0,
            ckpts: vec![Arc::new(ckpt)],
        };
        // 20 state elements * 256 bytes + 64 header.
        assert_eq!(msg.wire_bytes(256), 20 * 256 + 64);

        // The reliable envelope adds a fixed header over the payload.
        let wrapped = Msg::Reliable {
            tx: 7,
            from: MachineId(1),
            inner: Box::new(msg),
        };
        assert_eq!(wrapped.wire_bytes(256), 16 + 20 * 256 + 64);
        assert_eq!(Msg::RelAck { tx: 7 }.wire_bytes(256), 40);
    }
}
