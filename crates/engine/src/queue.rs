//! Sequence-numbered output and input queues.
//!
//! These implement the data-plane half of the paper's recovery story:
//!
//! * An [`OutputQueue`] assigns an incremental sequence number to each newly
//!   produced element and **retains** elements until an accumulative
//!   acknowledgment says every trim-relevant downstream consumer has
//!   processed them (and, under checkpointing, persisted the resulting
//!   state). "If an output queue sends data to multiple downstream input
//!   queues, it removes a data element only when all downstream input queues
//!   indicate that data element is no longer needed." (§III-B)
//! * An [`InputQueue`] performs duplicate elimination by sequence number —
//!   required under active standby (two replicas send the same logical
//!   elements) and after retransmission-based recovery.
//!
//! Connections carry the hybrid method's `is_active` flag: an early-created
//! connection to a suspended secondary exists but transmits nothing until
//! switch-over flips the flag (§IV-B). Inactive connections are also
//! excluded from trimming: the suspended secondary's position advances via
//! checkpoints, which by protocol order always run ahead of the
//! acknowledgments that drive trimming.
//!
//! A caller moves a connection in one call — [`OutputQueue::resume`],
//! [`OutputQueue::replay`], [`OutputQueue::suspend`] or
//! [`OutputQueue::rewind`] — that sets its ack, flag, trim and cursor
//! together, so no call order can trim away what it is about to resend.

use std::collections::VecDeque;
use std::ops::Range;

use sps_sim::SimTime;

use crate::chunk::ChunkedDeque;
use crate::element::{is_contiguous_run, DataElement, Payload, StreamId, FIRST_SEQ};

/// Index of a connection within one output queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnectionId(pub usize);

/// One downstream connection of an output queue.
///
/// `D` is the runtime's destination address type (the engine does not care
/// what a destination is).
#[derive(Debug, Clone)]
pub struct Connection<D> {
    /// Where elements on this connection are delivered.
    pub dest: D,
    /// The paper's `isActive` field: inactive connections transmit nothing,
    /// and their acknowledgments do not gate trimming.
    pub active: bool,
    /// Sequence number of the next element to transmit.
    pub next_to_send: u64,
    /// Highest cumulatively acknowledged sequence number (0 = none).
    pub acked: u64,
}

/// A sequence-numbered, retaining output queue.
#[derive(Debug, Clone)]
pub struct OutputQueue<D> {
    stream: StreamId,
    next_seq: u64,
    /// Retained elements with contiguous sequence numbers
    /// `trimmed + 1 ..= next_seq - 1`, in copy-on-write chunks so a
    /// checkpoint captures them by cloning chunk pointers.
    retained: ChunkedDeque,
    /// All elements with `seq <= trimmed` have been removed.
    trimmed: u64,
    connections: Vec<Connection<D>>,
    produced_total: u64,
    /// Largest retained-backlog depth ever observed.
    high_water: usize,
}

/// The checkpointable part of an output queue (per §III-B, checkpoint
/// messages include output queues; connections are topology, not state).
#[derive(Debug, Clone, PartialEq)]
pub struct OutputQueueState {
    /// The stream identity.
    pub stream: StreamId,
    /// Next sequence number to assign.
    pub next_seq: u64,
    /// The retained elements, sequences `trimmed() + 1 .. next_seq`,
    /// sharing chunks with the live queue at capture time (copy-on-write
    /// keeps this frozen while the queue moves on).
    pub retained: ChunkedDeque,
}

impl OutputQueueState {
    /// Number of elements this state contributes to a checkpoint message.
    pub fn element_count(&self) -> u64 {
        self.retained.len() as u64
    }

    /// Trim floor at snapshot time: the retained elements are the
    /// contiguous run just below `next_seq`.
    pub fn trimmed(&self) -> u64 {
        self.next_seq - 1 - self.retained.len() as u64
    }
}

impl<D> OutputQueue<D> {
    /// Creates an empty queue producing into `stream`.
    pub fn new(stream: StreamId) -> Self {
        OutputQueue {
            stream,
            next_seq: FIRST_SEQ,
            retained: ChunkedDeque::new(),
            trimmed: FIRST_SEQ - 1,
            connections: Vec::new(),
            produced_total: 0,
            high_water: 0,
        }
    }

    /// The stream this queue produces.
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    /// Adds a connection joining at the current head of the stream;
    /// `counts_for_trim` must equal `active`.
    pub fn connect(&mut self, dest: D, active: bool, counts_for_trim: bool) -> ConnectionId {
        assert_eq!(
            counts_for_trim, active,
            "a connection counts for trimming exactly while it is active"
        );
        let id = ConnectionId(self.connections.len());
        self.connections.push(Connection {
            dest,
            active,
            next_to_send: self.next_seq,
            acked: self.trimmed,
        });
        id
    }

    /// Stamps `payload` with this stream and the next sequence number
    /// without retaining it: the caller stages a run of stamped elements
    /// and hands it to [`OutputQueue::retain_run`] before anything else
    /// reads the queue.
    pub(crate) fn stamp(&mut self, payload: Payload, created_at: SimTime) -> DataElement {
        let elem = DataElement {
            stream: self.stream,
            seq: self.next_seq,
            created_at,
            key: payload.key,
            value: payload.value,
            size_bytes: payload.size_bytes,
        };
        self.next_seq += 1;
        self.produced_total += 1;
        elem
    }

    /// Retains a run of just-stamped elements with one slice append.
    pub(crate) fn retain_run(&mut self, run: &[DataElement]) {
        self.retained.extend_from_slice(run);
        self.high_water = self.high_water.max(self.retained.len());
    }

    /// Stamps `payload` with this stream and the next sequence number,
    /// retains it, and returns it. The runtime then calls
    /// [`OutputQueue::drain_sendable`] per active connection.
    pub fn produce(&mut self, payload: Payload, created_at: SimTime) -> DataElement {
        let elem = self.stamp(payload, created_at);
        self.retained.push_back(elem);
        self.high_water = self.high_water.max(self.retained.len());
        elem
    }

    /// Elements ready to transmit on `conn` (retained, not yet sent there).
    /// Advances the connection's send cursor; returns nothing for inactive
    /// connections.
    pub fn drain_sendable(&mut self, conn: ConnectionId) -> Vec<DataElement> {
        let mut out = Vec::new();
        self.drain_sendable_into(conn, &mut out);
        out
    }

    /// Like [`OutputQueue::drain_sendable`], but appends to a caller-owned
    /// buffer instead of allocating a fresh `Vec` — the dispatch hot path
    /// reuses one scratch buffer across every connection of a hop. Returns
    /// the number of elements appended.
    pub fn drain_sendable_into(&mut self, conn: ConnectionId, out: &mut Vec<DataElement>) -> usize {
        let c = &mut self.connections[conn.0];
        if !c.active {
            return 0;
        }
        debug_assert!(
            c.next_to_send > self.trimmed,
            "connection {} wants trimmed element {} (trimmed through {})",
            conn.0,
            c.next_to_send,
            self.trimmed
        );
        let start = (c.next_to_send - self.trimmed - 1) as usize;
        let before = out.len();
        self.retained.copy_from_into(start, out);
        c.next_to_send = self.next_seq;
        out.len() - before
    }

    /// `true` if [`OutputQueue::drain_sendable_into`] on `conn` would yield
    /// at least one element: the connection is active and its send cursor
    /// is behind the head of the stream.
    pub fn has_unsent(&self, conn: ConnectionId) -> bool {
        let c = &self.connections[conn.0];
        c.active && c.next_to_send < self.next_seq
    }

    /// Registers a cumulative acknowledgment on `conn` and trims every
    /// element no trim-relevant consumer still needs. Returns the number of
    /// elements removed.
    pub fn register_ack(&mut self, conn: ConnectionId, acked_seq: u64) -> usize {
        let c = &mut self.connections[conn.0];
        c.acked = c.acked.max(acked_seq);
        self.trim_to_floor()
    }

    fn trim_to_floor(&mut self) -> usize {
        let floor = self
            .connections
            .iter()
            .filter(|c| c.active)
            .map(|c| c.acked)
            .min()
            .unwrap_or(self.trimmed);
        if floor <= self.trimmed {
            return 0;
        }
        // Retained sequences are contiguous from `trimmed + 1`, so the
        // acknowledged prefix is a length, not a search.
        debug_assert!(self
            .retained
            .front()
            .is_none_or(|e| e.seq == self.trimmed + 1));
        let floor = floor.min(self.next_seq - 1);
        let removed = self.retained.drop_front((floor - self.trimmed) as usize);
        self.trimmed = floor;
        removed
    }

    /// A consumer restored at `after` takes `conn` over: it acks `after` and
    /// turns active *before* the trim, so the trim stops at `after`; the
    /// cursor moves past both. Returns the sequences sent again.
    pub fn resume(&mut self, conn: ConnectionId, after: u64) -> Range<u64> {
        let c = &mut self.connections[conn.0];
        c.acked = after;
        c.active = true;
        self.trim_to_floor();
        self.move_cursor(conn, (after + 1).max(self.trimmed + 1))
    }

    /// Turns `conn` active and resends everything retained after the trim.
    /// Returns the sequences sent again.
    pub fn replay(&mut self, conn: ConnectionId) -> Range<u64> {
        self.connections[conn.0].active = true;
        self.trim_to_floor();
        self.move_cursor(conn, self.trimmed + 1)
    }

    /// Turns `conn` inactive: it sends nothing and stops gating the trim.
    pub fn suspend(&mut self, conn: ConnectionId) {
        self.connections[conn.0].active = false;
        self.trim_to_floor();
    }

    /// Moves `conn`'s cursor back (never forward) to its first
    /// unacknowledged retained element. Returns the sequences sent again.
    pub fn rewind(&mut self, conn: ConnectionId) -> Range<u64> {
        let c = &self.connections[conn.0];
        let to = c.next_to_send.min((c.acked + 1).max(self.trimmed + 1));
        self.move_cursor(conn, to)
    }

    /// Points `conn`'s cursor at `to` and returns the range it moved back
    /// over.
    fn move_cursor(&mut self, conn: ConnectionId, to: u64) -> Range<u64> {
        let c = &mut self.connections[conn.0];
        let from = std::mem::replace(&mut c.next_to_send, to);
        to..from.max(to)
    }

    /// The connection table.
    pub fn connections(&self) -> &[Connection<D>] {
        &self.connections
    }

    /// One connection.
    pub fn connection(&self, conn: ConnectionId) -> &Connection<D> {
        &self.connections[conn.0]
    }

    /// Number of retained (unacknowledged) elements.
    pub fn retained_len(&self) -> usize {
        self.retained.len()
    }

    /// Largest retained-backlog depth ever observed (telemetry).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Highest trimmed sequence number.
    pub fn trimmed_through(&self) -> u64 {
        self.trimmed
    }

    /// Sequence number the next produced element will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Total elements ever produced.
    pub fn produced_total(&self) -> u64 {
        self.produced_total
    }

    /// Snapshot for a checkpoint message. O(1) amortized: the retained
    /// elements are captured by cloning chunk pointers, not elements.
    pub fn snapshot(&self) -> OutputQueueState {
        OutputQueueState {
            stream: self.stream,
            next_seq: self.next_seq,
            retained: self.retained.clone(),
        }
    }

    /// Restores queue contents from a snapshot, preserving the connection
    /// table and clamping each cursor into the restored range. The trim
    /// floor is the snapshot's even where live acks are past it.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot belongs to a different stream.
    pub fn restore(&mut self, state: &OutputQueueState) {
        assert_eq!(
            state.stream, self.stream,
            "snapshot stream mismatch: restoring {} into {}",
            state.stream, self.stream
        );
        self.next_seq = state.next_seq;
        self.trimmed = state.trimmed();
        self.retained = state.retained.clone();
        for c in &mut self.connections {
            c.next_to_send = c.next_to_send.clamp(self.trimmed + 1, self.next_seq);
        }
    }
}

/// Outcome of offering a run to an input queue, in elements.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunOffer {
    /// Became pending: accepted elements of the run plus any stash drained
    /// behind them.
    pub accepted: usize,
    /// Ahead of the expected sequence; stashed until the gap fills.
    pub stashed: usize,
    /// Already accepted earlier; dropped.
    pub duplicates: usize,
}

/// Outcome of offering an element to an input queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// Accepted; this many elements (the element plus any stash drained
    /// behind it) became pending.
    Accepted(usize),
    /// A duplicate of an already-accepted element; dropped.
    Duplicate,
    /// Ahead of the expected sequence; stashed until the gap fills.
    Stashed,
}

#[derive(Debug, Clone, Default)]
struct StreamCursor {
    /// Next sequence number this queue will accept.
    next_accept: u64,
    /// Highest sequence number whose processing has completed.
    processed: u64,
    /// Out-of-order arrivals waiting for the gap to fill, as a dense window
    /// keyed by offset from `next_accept`: slot `i` holds the element with
    /// `seq == next_accept + 1 + i` (`None` marks a hole).
    stashed: VecDeque<Option<DataElement>>,
}

/// Sentinel in the stream-index lookup table: stream not registered here.
const NO_STREAM: u16 = u16::MAX;

/// A deduplicating input queue over one or more logical streams.
///
/// Streams are resolved through a dense per-queue index assigned at wiring
/// time: `lookup[stream.0 - base]` maps a global [`StreamId`] to a compact
/// slot in the parallel `ids`/`cursors` vectors, so the per-element `offer`
/// path is two array loads instead of a tree walk. The table is a window
/// starting at the smallest registered id, so its length is the spread of
/// the ids this queue consumes, not the job's stream count. `ids` stays
/// sorted by stream id so [`InputQueue::positions`] and
/// [`InputQueue::streams`] iterate in the same order the previous
/// `BTreeMap` representation did.
#[derive(Debug, Clone, Default)]
pub struct InputQueue {
    /// Registered streams, sorted ascending.
    ids: Vec<StreamId>,
    /// Cursor per registered stream, parallel to `ids`.
    cursors: Vec<StreamCursor>,
    /// Global stream id minus `base` -> compact index into
    /// `ids`/`cursors`.
    lookup: Vec<u16>,
    /// The stream id `lookup[0]` stands for: the smallest registered id.
    base: u32,
    pending: ChunkedDeque,
    duplicates_dropped: u64,
    accepted_total: u64,
    /// Largest pending-queue depth ever observed.
    high_water: usize,
}

impl InputQueue {
    /// Creates a queue consuming no streams yet.
    pub fn new() -> Self {
        InputQueue::default()
    }

    /// Registers a stream this queue consumes, starting at [`FIRST_SEQ`].
    /// Re-registering an existing stream keeps its cursor.
    pub fn register_stream(&mut self, stream: StreamId) {
        self.ensure_stream(stream);
    }

    /// Index of `stream` in `ids`/`cursors`, registering it if new.
    fn ensure_stream(&mut self, stream: StreamId) -> usize {
        if let Some(idx) = self.find(stream) {
            return idx;
        }
        if self.lookup.is_empty() {
            self.base = stream.0;
        } else if stream.0 < self.base {
            // Rare: a lower id registered after the window was placed.
            let gap = (self.base - stream.0) as usize;
            self.lookup
                .splice(0..0, std::iter::repeat_n(NO_STREAM, gap));
            self.base = stream.0;
        }
        let slot = (stream.0 - self.base) as usize;
        if slot >= self.lookup.len() {
            self.lookup.resize(slot + 1, NO_STREAM);
        }
        let pos = self.ids.partition_point(|&s| s < stream);
        self.ids.insert(pos, stream);
        self.cursors.insert(
            pos,
            StreamCursor {
                next_accept: FIRST_SEQ,
                processed: FIRST_SEQ - 1,
                stashed: VecDeque::new(),
            },
        );
        assert!(
            self.ids.len() < NO_STREAM as usize,
            "too many streams on one input queue"
        );
        for (i, s) in self.ids.iter().enumerate().skip(pos) {
            self.lookup[(s.0 - self.base) as usize] = i as u16;
        }
        pos
    }

    /// Index of `stream` in `cursors`, if registered. An id below the
    /// window wraps past its end.
    #[inline]
    fn find(&self, stream: StreamId) -> Option<usize> {
        match self.lookup.get(stream.0.wrapping_sub(self.base) as usize) {
            Some(&idx) if idx != NO_STREAM => Some(idx as usize),
            _ => None,
        }
    }

    /// The processed-through position of `stream`, if this queue consumes
    /// it: one table lookup, where [`InputQueue::positions_iter`] walks
    /// every stream.
    pub fn processed(&self, stream: StreamId) -> Option<u64> {
        self.find(stream).map(|idx| self.cursors[idx].processed)
    }

    /// Index of a registered `stream` in `cursors`.
    fn cursor_index(&self, stream: StreamId) -> usize {
        self.find(stream)
            .unwrap_or_else(|| panic!("stream {stream} not registered on this input"))
    }

    /// Offers one element; duplicates are dropped, gaps stashed.
    ///
    /// # Panics
    ///
    /// Panics if the element's stream was never registered.
    pub fn offer(&mut self, elem: DataElement) -> Offer {
        let idx = self.cursor_index(elem.stream);
        let cursor = &mut self.cursors[idx];
        if elem.seq < cursor.next_accept {
            self.duplicates_dropped += 1;
            return Offer::Duplicate;
        }
        if elem.seq > cursor.next_accept {
            let offset = (elem.seq - cursor.next_accept - 1) as usize;
            if cursor.stashed.len() <= offset {
                cursor.stashed.resize(offset + 1, None);
            }
            cursor.stashed[offset] = Some(elem);
            return Offer::Stashed;
        }
        let mut accepted = 1;
        self.pending.push_back(elem);
        cursor.next_accept += 1;
        // Drain the stash window while it is contiguous. Popping slot 0
        // after an accept keeps the offset keying aligned: a `Some` is the
        // next in-order element, a `None` is the still-open gap.
        while let Some(slot) = cursor.stashed.pop_front() {
            match slot {
                Some(next) => {
                    self.pending.push_back(next);
                    cursor.next_accept += 1;
                    accepted += 1;
                }
                None => break,
            }
        }
        self.accepted_total += accepted as u64;
        self.high_water = self.high_water.max(self.pending.len());
        Offer::Accepted(accepted)
    }

    /// Offers a run — consecutive sequence numbers of one stream, as a
    /// [`DataBatch`](crate::DataBatch) carries — with the outcome of
    /// offering its elements one by one. `on_accept` sees each element of
    /// the run whose own offer was accepted (not the stash drained behind
    /// it).
    ///
    /// With nothing stashed and a run that does not start past the next
    /// expected sequence, the leading duplicates and the in-order tail are
    /// one cursor update and one slice append; otherwise the run is offered
    /// element by element.
    ///
    /// # Panics
    ///
    /// Panics if the run's stream was never registered.
    pub fn offer_run(
        &mut self,
        run: &[DataElement],
        mut on_accept: impl FnMut(&DataElement),
    ) -> RunOffer {
        let Some(first) = run.first() else {
            return RunOffer::default();
        };
        debug_assert!(
            is_contiguous_run(run),
            "a run is one stream of consecutive sequence numbers"
        );
        let idx = self.cursor_index(first.stream);
        let cursor = &mut self.cursors[idx];
        if !cursor.stashed.is_empty() || first.seq > cursor.next_accept {
            let mut total = RunOffer::default();
            for elem in run {
                match self.offer(*elem) {
                    Offer::Accepted(n) => {
                        total.accepted += n;
                        on_accept(elem);
                    }
                    Offer::Stashed => total.stashed += 1,
                    Offer::Duplicate => total.duplicates += 1,
                }
            }
            return total;
        }
        let duplicates = ((cursor.next_accept - first.seq) as usize).min(run.len());
        let tail = &run[duplicates..];
        cursor.next_accept += tail.len() as u64;
        self.pending.extend_from_slice(tail);
        tail.iter().for_each(on_accept);
        self.duplicates_dropped += duplicates as u64;
        self.accepted_total += tail.len() as u64;
        self.high_water = self.high_water.max(self.pending.len());
        RunOffer {
            accepted: tail.len(),
            stashed: 0,
            duplicates,
        }
    }

    /// Takes the next pending element for processing (FIFO across streams).
    pub fn take_next(&mut self) -> Option<DataElement> {
        self.pending.pop_front()
    }

    /// Takes up to `max` pending elements, handing them to `sink` in order
    /// as slices. Returns how many were taken.
    pub fn take_run(&mut self, max: usize, sink: impl FnMut(&[DataElement])) -> usize {
        self.pending.pop_front_run(max, sink)
    }

    /// Records that processing of `elem` completed and its effects are in
    /// the operator state. Checkpoints and acknowledgments use this
    /// position.
    pub fn mark_processed(&mut self, stream: StreamId, seq: u64) {
        if let Some(idx) = self.find(stream) {
            let cursor = &mut self.cursors[idx];
            cursor.processed = cursor.processed.max(seq);
        }
    }

    /// `(stream, processed-through)` pairs — the tiny position metadata a
    /// checkpoint records (the queue *data* is never checkpointed).
    pub fn positions(&self) -> Vec<(StreamId, u64)> {
        self.positions_iter().collect()
    }

    /// Borrowing form of [`InputQueue::positions`], in ascending stream-id
    /// order, for callers that must not allocate.
    pub fn positions_iter(&self) -> impl Iterator<Item = (StreamId, u64)> + '_ {
        self.ids
            .iter()
            .zip(&self.cursors)
            .map(|(&s, c)| (s, c.processed))
    }

    /// Resets to the given processed positions, discarding all pending and
    /// stashed elements (they will be retransmitted by upstream retention).
    pub fn restore(&mut self, positions: &[(StreamId, u64)]) {
        self.pending.clear();
        for (stream, processed) in positions {
            let idx = self.ensure_stream(*stream);
            let cursor = &mut self.cursors[idx];
            cursor.processed = *processed;
            cursor.next_accept = *processed + 1;
            cursor.stashed.clear();
        }
    }

    /// Number of accepted-but-unprocessed elements.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Largest pending-queue depth ever observed (telemetry).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// A snapshot of the accepted-but-unprocessed elements, in order (the
    /// input backlog a hybrid rollback read transfers to the primary).
    /// O(1) amortized: clones chunk pointers, not elements.
    pub fn pending_elements(&self) -> ChunkedDeque {
        self.pending.clone()
    }

    /// Total duplicates dropped (active-standby redundancy plus
    /// retransmission overlap).
    pub fn duplicates_dropped(&self) -> u64 {
        self.duplicates_dropped
    }

    /// Total elements accepted.
    pub fn accepted_total(&self) -> u64 {
        self.accepted_total
    }

    /// The registered streams, in ascending id order.
    pub fn streams(&self) -> impl Iterator<Item = StreamId> + '_ {
        self.ids.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(v: f64) -> Payload {
        Payload::new(0, v)
    }

    fn mk_queue() -> OutputQueue<&'static str> {
        OutputQueue::new(StreamId(1))
    }

    #[test]
    fn produce_assigns_incremental_seqs() {
        let mut q = mk_queue();
        let a = q.produce(payload(1.0), SimTime::ZERO);
        let b = q.produce(payload(2.0), SimTime::ZERO);
        assert_eq!(a.seq, FIRST_SEQ);
        assert_eq!(b.seq, FIRST_SEQ + 1);
        assert_eq!(q.retained_len(), 2);
        assert_eq!(q.produced_total(), 2);
    }

    #[test]
    fn drain_sendable_is_incremental() {
        let mut q = mk_queue();
        let c = q.connect("down", true, true);
        q.produce(payload(1.0), SimTime::ZERO);
        q.produce(payload(2.0), SimTime::ZERO);
        assert_eq!(q.drain_sendable(c).len(), 2);
        assert_eq!(q.drain_sendable(c).len(), 0, "cursor advanced");
        q.produce(payload(3.0), SimTime::ZERO);
        let third = q.drain_sendable(c);
        assert_eq!(third.len(), 1);
        assert_eq!(third[0].seq, 3);
    }

    #[test]
    fn inactive_connection_sends_nothing_until_activated() {
        let mut q = mk_queue();
        let c = q.connect("standby", false, false);
        q.produce(payload(1.0), SimTime::ZERO);
        assert!(q.drain_sendable(c).is_empty());
        assert!(q.replay(c).is_empty(), "nothing was sent before");
        assert_eq!(q.drain_sendable(c).len(), 1);
    }

    #[test]
    fn ack_trims_but_only_to_the_minimum() {
        let mut q = mk_queue();
        let a = q.connect("a", true, true);
        let b = q.connect("b", true, true);
        for i in 0..5 {
            q.produce(payload(i as f64), SimTime::ZERO);
        }
        assert_eq!(q.register_ack(a, 4), 0, "b has acked nothing");
        assert_eq!(q.register_ack(b, 2), 2, "min(4, 2) = 2 trims two");
        assert_eq!(q.retained_len(), 3);
        assert_eq!(q.trimmed_through(), 2);
        assert_eq!(q.register_ack(b, 5), 2, "min(4, 5) = 4");
    }

    #[test]
    fn trim_ignores_non_trim_connections() {
        let mut q = mk_queue();
        let primary = q.connect("primary", true, true);
        let _standby = q.connect("standby", false, false);
        for i in 0..3 {
            q.produce(payload(i as f64), SimTime::ZERO);
        }
        assert_eq!(q.register_ack(primary, 3), 3, "standby does not block trim");
        assert_eq!(q.retained_len(), 0);
    }

    #[test]
    fn ack_regression_is_ignored() {
        let mut q = mk_queue();
        let c = q.connect("down", true, true);
        for i in 0..4 {
            q.produce(payload(i as f64), SimTime::ZERO);
        }
        q.register_ack(c, 3);
        q.register_ack(c, 1); // stale cumulative ack
        assert_eq!(q.trimmed_through(), 3);
    }

    #[test]
    fn rewind_resends_everything_after_the_ack() {
        let mut q = mk_queue();
        let c = q.connect("down", true, true);
        for i in 0..5 {
            q.produce(payload(i as f64), SimTime::ZERO);
        }
        q.drain_sendable(c);
        q.register_ack(c, 2);
        assert_eq!(q.rewind(c), 3..6);
        assert!(q.rewind(c).is_empty(), "already at the first unacked");
        let replay = q.drain_sendable(c);
        assert_eq!(
            replay.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
    }

    #[test]
    fn resume_counts_for_trim_before_it_trims() {
        let mut q = mk_queue();
        let primary = q.connect("primary", true, true);
        let standby = q.connect("standby", false, false);
        for i in 0..10 {
            q.produce(payload(i as f64), SimTime::ZERO);
        }
        let snap = q.snapshot();
        q.register_ack(primary, 8);
        // The restored queue sits below the floor the primary's ack set.
        q.restore(&snap);
        assert_eq!(q.trimmed_through(), 0);
        q.resume(standby, 4);
        assert_eq!(q.trimmed_through(), 4, "the standby holds the floor at 4");
        let resent = q.drain_sendable(standby);
        assert_eq!(
            resent.iter().map(|e| e.seq).collect::<Vec<_>>(),
            (5..=10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn suspend_stops_sending_and_releases_the_trim() {
        let mut q = mk_queue();
        let a = q.connect("a", true, true);
        let b = q.connect("b", true, true);
        for i in 0..4 {
            q.produce(payload(i as f64), SimTime::ZERO);
        }
        q.register_ack(a, 3);
        assert_eq!(q.trimmed_through(), 0, "b has acked nothing");
        q.suspend(b);
        assert_eq!(q.trimmed_through(), 3);
        assert!(q.drain_sendable(b).is_empty());
    }

    #[test]
    #[should_panic(expected = "exactly while it is active")]
    fn connect_rejects_a_trim_flag_unlike_active() {
        mk_queue().connect("late", true, false);
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut q = mk_queue();
        let c = q.connect("down", true, true);
        for i in 0..4 {
            q.produce(payload(i as f64), SimTime::ZERO);
        }
        q.register_ack(c, 1);
        let snap = q.snapshot();
        assert_eq!(snap.element_count(), 3);
        assert_eq!(snap.next_seq, 5);
        assert_eq!(snap.trimmed(), 1);

        let mut fresh: OutputQueue<&'static str> = OutputQueue::new(StreamId(1));
        fresh.connect("down", true, true);
        fresh.restore(&snap);
        assert_eq!(fresh.next_seq(), 5);
        assert_eq!(fresh.retained_len(), 3);
        assert_eq!(fresh.trimmed_through(), 1);
    }

    #[test]
    #[should_panic(expected = "stream mismatch")]
    fn restore_checks_stream() {
        let mut q = mk_queue();
        let snap = OutputQueue::<&'static str>::new(StreamId(9)).snapshot();
        q.restore(&snap);
    }

    #[test]
    fn connect_after_production_joins_at_head() {
        let mut q = mk_queue();
        q.produce(payload(1.0), SimTime::ZERO);
        let late = q.connect("late", true, true);
        assert!(q.drain_sendable(late).is_empty(), "joins at current head");
        q.produce(payload(2.0), SimTime::ZERO);
        assert_eq!(q.drain_sendable(late).len(), 1);
    }

    // ---- InputQueue ----

    fn elem(stream: u32, seq: u64) -> DataElement {
        DataElement {
            stream: StreamId(stream),
            seq,
            created_at: SimTime::ZERO,
            key: 0,
            value: seq as f64,
            size_bytes: 256,
        }
    }

    #[test]
    fn input_accepts_in_order_and_drops_duplicates() {
        let mut q = InputQueue::new();
        q.register_stream(StreamId(1));
        assert_eq!(q.offer(elem(1, 1)), Offer::Accepted(1));
        assert_eq!(q.offer(elem(1, 1)), Offer::Duplicate);
        assert_eq!(q.offer(elem(1, 2)), Offer::Accepted(1));
        assert_eq!(q.duplicates_dropped(), 1);
        assert_eq!(q.pending_len(), 2);
        assert_eq!(q.accepted_total(), 2);
    }

    #[test]
    fn input_stashes_gaps_and_drains_contiguously() {
        let mut q = InputQueue::new();
        q.register_stream(StreamId(1));
        assert_eq!(q.offer(elem(1, 3)), Offer::Stashed);
        assert_eq!(q.offer(elem(1, 2)), Offer::Stashed);
        assert_eq!(q.offer(elem(1, 1)), Offer::Accepted(3));
        let seqs: Vec<u64> = std::iter::from_fn(|| q.take_next().map(|e| e.seq)).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
    }

    #[test]
    fn mark_processed_moves_positions() {
        let mut q = InputQueue::new();
        q.register_stream(StreamId(1));
        q.offer(elem(1, 1));
        q.offer(elem(1, 2));
        let e = q.take_next().unwrap();
        q.mark_processed(e.stream, e.seq);
        assert_eq!(q.positions(), vec![(StreamId(1), 1)]);
        assert_eq!(q.processed(StreamId(1)), Some(1));
        assert_eq!(q.processed(StreamId(0)), None, "below the window");
        assert_eq!(q.processed(StreamId(2)), None, "past the window");
    }

    #[test]
    fn restore_discards_pending_and_sets_positions() {
        let mut q = InputQueue::new();
        q.register_stream(StreamId(1));
        for s in 1..=5 {
            q.offer(elem(1, s));
        }
        q.restore(&[(StreamId(1), 3)]);
        assert_eq!(q.pending_len(), 0);
        assert_eq!(q.positions(), vec![(StreamId(1), 3)]);
        // Elements at or below the restored position are duplicates now.
        assert_eq!(q.offer(elem(1, 3)), Offer::Duplicate);
        assert_eq!(q.offer(elem(1, 4)), Offer::Accepted(1));
    }

    #[test]
    fn active_standby_dedup_across_two_senders() {
        // Two replicas deliver the same logical stream; exactly one copy of
        // each element is accepted regardless of interleaving.
        let mut q = InputQueue::new();
        q.register_stream(StreamId(1));
        let interleaved = [1u64, 1, 2, 3, 2, 3, 4, 4];
        let mut accepted = 0;
        for s in interleaved {
            if matches!(q.offer(elem(1, s)), Offer::Accepted(_)) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 4);
        assert_eq!(q.duplicates_dropped(), 4);
    }

    #[test]
    fn multiple_streams_are_independent() {
        let mut q = InputQueue::new();
        q.register_stream(StreamId(1));
        q.register_stream(StreamId(2));
        q.offer(elem(1, 1));
        q.offer(elem(2, 1));
        q.offer(elem(2, 2));
        assert_eq!(q.pending_len(), 3);
        let positions = q.positions();
        assert_eq!(positions.len(), 2);
        assert_eq!(q.streams().count(), 2);
    }

    #[test]
    fn lookup_is_a_window_from_the_smallest_registered_id() {
        let mut q = InputQueue::new();
        q.register_stream(StreamId(4_000));
        assert_eq!(q.lookup.len(), 1, "one stream, one entry, whatever its id");
        q.offer(elem(4_000, 1));
        q.mark_processed(StreamId(4_000), 1);
        // A lower id arriving later moves the window and keeps the cursor.
        q.register_stream(StreamId(7));
        assert_eq!((q.base, q.lookup.len()), (7, 4_000 - 7 + 1));
        assert_eq!(q.offer(elem(7, 1)), Offer::Accepted(1));
        assert_eq!(q.offer(elem(4_000, 1)), Offer::Duplicate);
        assert_eq!(q.offer(elem(4_000, 2)), Offer::Accepted(1));
        assert_eq!(q.positions(), vec![(StreamId(7), 0), (StreamId(4_000), 1)]);
        // Unregistered ids below, inside and past the window: no position
        // moves, nothing is registered.
        for sid in [0, 6, 8, 3_999, 4_001, u32::MAX] {
            q.mark_processed(StreamId(sid), 9);
        }
        assert_eq!(q.positions(), vec![(StreamId(7), 0), (StreamId(4_000), 1)]);
    }

    #[test]
    fn offers_outside_the_window_panic_like_any_unregistered_stream() {
        for sid in [6, 8, 4_001] {
            let offered = std::panic::catch_unwind(|| {
                let mut q = InputQueue::new();
                q.register_stream(StreamId(4_000));
                q.register_stream(StreamId(7));
                q.offer(elem(sid, 1))
            });
            let msg = *offered.unwrap_err().downcast::<String>().unwrap();
            assert!(msg.contains("not registered"), "stream {sid}: {msg}");
        }
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unregistered_stream_panics() {
        let mut q = InputQueue::new();
        q.offer(elem(7, 1));
    }
}
