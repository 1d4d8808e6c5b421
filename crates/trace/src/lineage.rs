//! Causal tuple lineage: a host-side table that records, for every logical
//! element `(stream, seq)`, who produced it (parent element, PE, replica)
//! and when it crossed each pipeline stage — emitted, first sent, first
//! received, first processing start — plus whether its transmission was
//! ever rewound (retransmitted).
//!
//! The table is keyed by *logical* element identity. Active-standby runs
//! both replicas over the same input, so primary and secondary produce the
//! same `(stream, seq)`; every setter is therefore first-writer-wins,
//! which makes each recorded time the minimum over replicas and keeps the
//! per-hop decomposition telescoping and monotone even when copies race.
//!
//! Like the tracer, lineage is pure observation: the simulator consults it
//! behind a single `Option` branch, it never draws randomness, and it
//! never feeds back into scheduling — enabling it cannot perturb a run.

use std::collections::BTreeMap;

use sps_sim::SimTime;

/// Logical identity of an element: `(stream id, sequence number)`. Both
/// replicas of an AS pair produce the same key for the same input.
pub type ElementKey = (u32, u64);

/// Sentinel "PE id" for elements produced by a source rather than a PE.
pub const SOURCE_PE: u32 = u32::MAX;

/// Everything the lineage table knows about one logical element. Its root
/// and its distance from it are not stored per element: they are the first
/// hop and the length of [`LineageTable::decompose`]'s chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TupleRecord {
    /// The input element this one was computed from (`None` for source
    /// elements).
    pub parent: Option<ElementKey>,
    /// Producing PE id, or [`SOURCE_PE`] for source output.
    pub pe: u32,
    /// Replica code of the first producer observed (0 primary, 1 secondary).
    pub replica: u8,
    /// When the element was produced (source generation or operator finish).
    pub emitted_at: SimTime,
    /// First time any copy left an output queue onto the network.
    pub sent_at: Option<SimTime>,
    /// First time any copy arrived at its consumer (PE input or sink).
    pub recv_at: Option<SimTime>,
    /// First time a consumer PE started processing it.
    pub proc_start_at: Option<SimTime>,
    /// How many times a send cursor was rewound over this element (0 means
    /// the first transmission was the only one).
    pub retransmits: u32,
}

impl TupleRecord {
    /// Whether this element's transmission was ever retried.
    pub fn retransmitted(&self) -> bool {
        self.retransmits > 0
    }
}

/// One edge of a delivered element's derivation chain, with the four time
/// components of that hop. Components telescope: when every stamp is
/// present, their sum over the chain equals delivery time minus origin
/// emission time exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopTiming {
    /// The element transmitted on this hop.
    pub key: ElementKey,
    /// The PE that produced it ([`SOURCE_PE`] for the root hop).
    pub pe: u32,
    /// Replica code of the first producer observed.
    pub replica: u8,
    /// When the element was produced.
    pub emitted_at: SimTime,
    /// Output-queue wait: production → first transmission.
    pub send_wait_ms: f64,
    /// Network flight: first transmission → first arrival.
    pub network_ms: f64,
    /// Consumer input-queue wait: arrival → processing start (0 for the
    /// final hop into a sink).
    pub queue_ms: f64,
    /// Operator processing: processing start → child emission (0 for the
    /// final hop).
    pub process_ms: f64,
    /// Whether this hop's transmission was ever rewound.
    pub retransmitted: bool,
}

impl HopTiming {
    /// Total attributed time on this hop, in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.send_wait_ms + self.network_ms + self.queue_ms + self.process_ms
    }
}

fn ms_between(from: SimTime, to: SimTime) -> f64 {
    (to.as_nanos().saturating_sub(from.as_nanos())) as f64 / 1e6
}

/// Slots per chunk of a stream's column.
const CHUNK: usize = 1024;

/// "Not yet" for the three optional stamps of a [`Row`]; no simulated run
/// reaches it.
const NEVER: SimTime = SimTime::MAX;

/// Parent stream of a root row. Stream ids are dense job indices, so the
/// top id is never a real stream.
const NO_PARENT: u32 = u32::MAX;

/// [`TupleRecord`] as stored: `Option`s folded into sentinels and the two
/// keys split so their `u32` halves pack with the other narrow fields.
#[derive(Debug, Clone, Copy)]
struct Row {
    emitted_at: SimTime,
    sent_at: SimTime,
    recv_at: SimTime,
    proc_start_at: SimTime,
    parent_seq: u64,
    parent_stream: u32,
    pe: u32,
    retransmits: u32,
    replica: u8,
    /// `false` until the slot's first write.
    live: bool,
}

// The memory budget of the one unbounded observation table is this row.
const _: () = assert!(std::mem::size_of::<Row>() <= 56);

impl Row {
    const VACANT: Row = Row {
        emitted_at: SimTime::ZERO,
        sent_at: NEVER,
        recv_at: NEVER,
        proc_start_at: NEVER,
        parent_seq: 0,
        parent_stream: NO_PARENT,
        pe: 0,
        retransmits: 0,
        replica: 0,
        live: false,
    };

    /// First-writer-wins write of one optional stamp.
    fn stamp(slot: &mut SimTime, at: SimTime) {
        if *slot == NEVER {
            *slot = at;
        }
    }

    fn view(&self) -> TupleRecord {
        let seen = |t: SimTime| (t != NEVER).then_some(t);
        TupleRecord {
            parent: (self.parent_stream != NO_PARENT)
                .then_some((self.parent_stream, self.parent_seq)),
            pe: self.pe,
            replica: self.replica,
            emitted_at: self.emitted_at,
            sent_at: seen(self.sent_at),
            recv_at: seen(self.recv_at),
            proc_start_at: seen(self.proc_start_at),
            retransmits: self.retransmits,
        }
    }
}

type Chunk = [Row; CHUNK];

/// The rows of one stream. Slot `i` of `chunks[c]` is sequence
/// `base + c * CHUNK + i`; a chunk is allocated by the first write into
/// it and never moves afterwards.
#[derive(Debug, Clone, Default)]
struct Column {
    /// Sequence of the first slot of `chunks[0]`, a multiple of `CHUNK`.
    base: u64,
    chunks: Vec<Option<Box<Chunk>>>,
}

impl Column {
    fn locate(&self, seq: u64) -> Option<(usize, usize)> {
        let off = seq.checked_sub(self.base)?;
        let chunk = usize::try_from(off / CHUNK as u64).ok()?;
        Some((chunk, (off % CHUNK as u64) as usize))
    }

    fn get(&self, seq: u64) -> Option<&Row> {
        let (c, i) = self.locate(seq)?;
        let row = &self.chunks.get(c)?.as_deref()?[i];
        row.live.then_some(row)
    }

    fn get_mut(&mut self, seq: u64) -> Option<&mut Row> {
        let (c, i) = self.locate(seq)?;
        let row = &mut self.chunks.get_mut(c)?.as_deref_mut()?[i];
        row.live.then_some(row)
    }

    /// The slot of `seq`, vacant or not, allocating its chunk if needed.
    fn slot(&mut self, seq: u64) -> &mut Row {
        let aligned = seq - seq % CHUNK as u64;
        if self.chunks.is_empty() {
            self.base = aligned;
        } else if aligned < self.base {
            // A first write below the base (lineage attached mid-run, a
            // restored replica re-producing old sequences): the column
            // grows downwards by vacant chunks.
            let missing = ((self.base - aligned) / CHUNK as u64) as usize;
            self.chunks
                .splice(0..0, std::iter::repeat_with(|| None).take(missing));
            self.base = aligned;
        }
        let (c, i) = self.locate(seq).expect("base is at or below seq");
        if c >= self.chunks.len() {
            self.chunks.resize_with(c + 1, || None);
        }
        let chunk = self.chunks[c].get_or_insert_with(|| {
            vec![Row::VACANT; CHUNK]
                .into_boxed_slice()
                .try_into()
                .expect("CHUNK rows")
        });
        &mut chunk[i]
    }

    /// Calls `f` on every live row of `seq_start..=seq_end`, one slice
    /// loop per chunk present in the range.
    fn for_each_live_in(&mut self, seq_start: u64, seq_end: u64, mut f: impl FnMut(&mut Row)) {
        let slots = (self.chunks.len() * CHUNK) as u64;
        if slots == 0 {
            return;
        }
        // Clamped to the column, so the cost follows the chunks present
        // and not the width of the range asked for.
        let lo = seq_start.max(self.base);
        let hi = seq_end.min(self.base.saturating_add(slots - 1));
        if lo > hi {
            return;
        }
        let (first, from) = self.locate(lo).expect("clamped to the column");
        let (last, to) = self.locate(hi).expect("clamped to the column");
        for c in first..=last {
            let Some(chunk) = self.chunks[c].as_deref_mut() else {
                continue;
            };
            let from = if c == first { from } else { 0 };
            let to = if c == last { to } else { CHUNK - 1 };
            for row in chunk[from..=to].iter_mut().filter(|r| r.live) {
                f(row);
            }
        }
    }
}

/// The lineage table of one run. All mutation is first-writer-wins; see
/// the module docs for why that is exactly right under replication.
///
/// Storage is one [`Column`] per stream id, because the keys are dense on
/// both axes: stream ids are the job's stream indices and every output
/// queue stamps consecutive sequences. A key far from every other costs
/// pointer slots in proportion to the distance, not rows.
#[derive(Debug, Clone, Default)]
pub struct LineageTable {
    /// Indexed by stream id.
    streams: Vec<Column>,
    /// Live rows over all columns.
    len: usize,
    /// Sink-accepted elements in acceptance order: `(key, accepted_at)`.
    delivered: Vec<(ElementKey, SimTime)>,
    /// Per `(sink, stream)`: highest sequence already recorded delivered.
    sink_pos: BTreeMap<(u32, u32), u64>,
}

impl LineageTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table with a column ready for each of stream ids
    /// `0..streams`, so recording on those never grows the column vector.
    pub fn with_streams(streams: usize) -> Self {
        LineageTable {
            streams: vec![Column::default(); streams],
            ..Self::default()
        }
    }

    fn row(&self, key: ElementKey) -> Option<&Row> {
        self.streams.get(key.0 as usize)?.get(key.1)
    }

    fn row_mut(&mut self, key: ElementKey) -> Option<&mut Row> {
        self.streams.get_mut(key.0 as usize)?.get_mut(key.1)
    }

    fn insert_if_absent(&mut self, key: ElementKey, row: Row) {
        let stream = key.0 as usize;
        if stream >= self.streams.len() {
            self.streams.resize_with(stream + 1, Column::default);
        }
        let slot = self.streams[stream].slot(key.1);
        if !slot.live {
            *slot = row;
            self.len += 1;
        }
    }

    /// Registers a source-produced element (no-op if already known).
    pub fn record_root(&mut self, key: ElementKey, emitted_at: SimTime) {
        self.insert_if_absent(
            key,
            Row {
                pe: SOURCE_PE,
                emitted_at,
                live: true,
                ..Row::VACANT
            },
        );
    }

    /// Registers an operator-produced element derived from `parent`
    /// (no-op if already known — the other replica got here first).
    pub fn record_hop(
        &mut self,
        parent: ElementKey,
        key: ElementKey,
        pe: u32,
        replica: u8,
        emitted_at: SimTime,
    ) {
        self.insert_if_absent(
            key,
            Row {
                parent_stream: parent.0,
                parent_seq: parent.1,
                pe,
                replica,
                emitted_at,
                live: true,
                ..Row::VACANT
            },
        );
    }

    /// Records the first transmission time of `key` (later copies no-op).
    pub fn note_sent(&mut self, key: ElementKey, at: SimTime) {
        if let Some(r) = self.row_mut(key) {
            Row::stamp(&mut r.sent_at, at);
        }
    }

    /// Records the first arrival time of `key` (later copies no-op).
    pub fn note_recv(&mut self, key: ElementKey, at: SimTime) {
        if let Some(r) = self.row_mut(key) {
            Row::stamp(&mut r.recv_at, at);
        }
    }

    fn for_each_live_in(
        &mut self,
        stream: u32,
        seq_start: u64,
        seq_end: u64,
        f: impl FnMut(&mut Row),
    ) {
        if let Some(col) = self.streams.get_mut(stream as usize) {
            col.for_each_live_in(seq_start, seq_end, f);
        }
    }

    /// [`LineageTable::note_sent`] over the inclusive sequence range
    /// `seq_start..=seq_end` of `stream` — how a range-stamped batch
    /// expands to per-tuple stamps. The expansion stays lazy on the batch
    /// side: the batch carries one stamp, and only this table fans it out.
    pub fn note_sent_range(&mut self, stream: u32, seq_start: u64, seq_end: u64, at: SimTime) {
        self.for_each_live_in(stream, seq_start, seq_end, |r| {
            Row::stamp(&mut r.sent_at, at)
        });
    }

    /// [`LineageTable::note_recv`] over the inclusive sequence range
    /// `seq_start..=seq_end` of `stream`.
    pub fn note_recv_range(&mut self, stream: u32, seq_start: u64, seq_end: u64, at: SimTime) {
        self.for_each_live_in(stream, seq_start, seq_end, |r| {
            Row::stamp(&mut r.recv_at, at)
        });
    }

    /// Records the first processing start of `key` (later copies no-op).
    pub fn note_proc_start(&mut self, key: ElementKey, at: SimTime) {
        if let Some(r) = self.row_mut(key) {
            Row::stamp(&mut r.proc_start_at, at);
        }
    }

    /// Counts one send-cursor rewind over `key`. The decomposition exposes
    /// this as a single boolean flag per hop regardless of retry count.
    pub fn mark_retransmit(&mut self, key: ElementKey) {
        if let Some(r) = self.row_mut(key) {
            r.retransmits += 1;
        }
    }

    /// [`LineageTable::mark_retransmit`] over the inclusive sequence range
    /// `seq_start..=seq_end` of `stream` (a rewound send cursor covers a
    /// contiguous run; under batching the resend splits on the acked
    /// boundary but the rewind itself is still one range).
    pub fn mark_retransmit_range(&mut self, stream: u32, seq_start: u64, seq_end: u64) {
        self.for_each_live_in(stream, seq_start, seq_end, |r| r.retransmits += 1);
    }

    /// Records that sink `sink` has accepted stream `stream` through
    /// sequence `through` (inclusive) at time `at`. Newly covered
    /// sequences are appended to the delivery log exactly once.
    pub fn record_delivery(&mut self, sink: u32, stream: u32, through: u64, at: SimTime) {
        let pos = self.sink_pos.entry((sink, stream)).or_insert(0);
        while *pos < through {
            *pos += 1;
            self.delivered.push(((stream, *pos), at));
        }
    }

    /// The record for one element, if known.
    pub fn record(&self, key: ElementKey) -> Option<TupleRecord> {
        self.row(key).map(Row::view)
    }

    /// Number of elements tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sink-accepted elements in acceptance order.
    pub fn delivered(&self) -> &[(ElementKey, SimTime)] {
        &self.delivered
    }

    /// The derivation chain of `key` from the origin element down to `key`
    /// itself, one [`HopTiming`] per element. Returns `None` if `key` is
    /// unknown. Missing stamps (element never sent/processed) contribute
    /// zero to the affected components.
    pub fn decompose(&self, key: ElementKey) -> Option<Vec<HopTiming>> {
        let mut chain = Vec::new();
        let mut cur = Some(key);
        while let Some(k) = cur {
            let r = self.record(k)?;
            chain.push((k, r));
            cur = r.parent;
            // The parent chain is acyclic by construction (children are
            // registered after their parent, keyed by unique (stream, seq)),
            // but guard against pathological inputs anyway.
            if chain.len() > 1_000_000 {
                return None;
            }
        }
        chain.reverse();
        let mut hops = Vec::with_capacity(chain.len());
        for (i, &(k, r)) in chain.iter().enumerate() {
            let sent = r.sent_at.unwrap_or(r.emitted_at);
            let recv = r.recv_at.unwrap_or(sent);
            // Queue + process time materialize on the *consumer* side: they
            // end at this element's processing start and the next element's
            // emission. The final chain element terminates at a sink, which
            // has no processing stage.
            let (queue_ms, process_ms) = match chain.get(i + 1) {
                Some(&(_, next)) => {
                    let start = r.proc_start_at.unwrap_or(recv);
                    (ms_between(recv, start), ms_between(start, next.emitted_at))
                }
                None => (0.0, 0.0),
            };
            hops.push(HopTiming {
                key: k,
                pe: r.pe,
                replica: r.replica,
                emitted_at: r.emitted_at,
                send_wait_ms: ms_between(r.emitted_at, sent),
                network_ms: ms_between(sent, recv),
                queue_ms,
                process_ms,
                retransmitted: r.retransmits > 0,
            });
        }
        Some(hops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn setters_are_first_writer_wins() {
        let mut l = LineageTable::new();
        l.record_root((0, 1), t(10));
        l.note_sent((0, 1), t(12));
        l.note_sent((0, 1), t(99)); // secondary copy later: ignored
        l.note_recv((0, 1), t(14));
        l.note_recv((0, 1), t(13)); // still first-writer, not min-writer:
                                    // arrival order is sim order, so the
                                    // first writer IS the earliest.
        let r = l.record((0, 1)).unwrap();
        assert_eq!(r.sent_at, Some(t(12)));
        assert_eq!(r.recv_at, Some(t(14)));
        l.record_root((0, 1), t(99));
        assert_eq!(l.record((0, 1)).unwrap().emitted_at, t(10));
    }

    #[test]
    fn decompose_telescopes_across_hops() {
        let mut l = LineageTable::new();
        // source elem (0,5): emitted 0, sent 1, recv 3, proc start 4
        l.record_root((0, 5), t(0));
        l.note_sent((0, 5), t(1));
        l.note_recv((0, 5), t(3));
        l.note_proc_start((0, 5), t(4));
        // PE 7 produces (1,5) at 6; sent 6, recv 9 (arrives at sink)
        l.record_hop((0, 5), (1, 5), 7, 0, t(6));
        l.note_sent((1, 5), t(6));
        l.note_recv((1, 5), t(9));
        l.record_delivery(0, 1, 4, t(8));
        l.record_delivery(0, 1, 5, t(9));

        let hops = l.decompose((1, 5)).unwrap();
        assert_eq!(hops.len(), 2);
        assert_eq!(hops[0].key, (0, 5));
        assert_eq!(hops[0].pe, SOURCE_PE);
        assert_eq!(hops[0].send_wait_ms, 1.0);
        assert_eq!(hops[0].network_ms, 2.0);
        assert_eq!(hops[0].queue_ms, 1.0);
        assert_eq!(hops[0].process_ms, 2.0);
        assert_eq!(hops[1].key, (1, 5));
        assert_eq!(hops[1].network_ms, 3.0);
        let total: f64 = hops.iter().map(|h| h.total_ms()).sum();
        // Telescoping: totals sum to recv(last) - emitted(origin) = 9ms.
        assert_eq!(total, 9.0);
        // `through` is cumulative: the t(8) ack covers 1..=4, t(9) adds 5.
        assert_eq!(l.delivered().len(), 5);
        assert_eq!(l.delivered().last(), Some(&((1, 5), t(9))));
    }

    #[test]
    fn delivery_log_covers_each_sequence_once() {
        let mut l = LineageTable::new();
        for s in 1..=4 {
            l.record_root((2, s), t(s));
        }
        l.record_delivery(0, 2, 2, t(10));
        l.record_delivery(0, 2, 2, t(11)); // duplicate ack: no-op
        l.record_delivery(0, 2, 4, t(12)); // gap fill covers 3 and 4
        let seqs: Vec<u64> = l.delivered().iter().map(|((_, s), _)| *s).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4]);
    }

    #[test]
    fn range_stamps_expand_to_per_tuple_records() {
        let mut l = LineageTable::new();
        for s in 1..=5 {
            l.record_root((3, s), t(s));
        }
        l.note_sent_range(3, 2, 4, t(10));
        l.note_recv_range(3, 2, 4, t(12));
        l.mark_retransmit_range(3, 3, 4);
        assert_eq!(l.record((3, 1)).unwrap().sent_at, None, "outside range");
        for s in 2..=4 {
            let r = l.record((3, s)).unwrap();
            assert_eq!(r.sent_at, Some(t(10)));
            assert_eq!(r.recv_at, Some(t(12)));
            assert_eq!(r.retransmitted(), s >= 3);
        }
        // Range stamps are first-writer-wins per tuple, like the scalar API.
        l.note_sent_range(3, 1, 5, t(20));
        assert_eq!(l.record((3, 2)).unwrap().sent_at, Some(t(10)));
        assert_eq!(l.record((3, 5)).unwrap().sent_at, Some(t(20)));
    }

    #[test]
    fn retransmit_marks_accumulate_but_flag_once() {
        let mut l = LineageTable::new();
        l.record_root((0, 1), t(0));
        l.note_sent((0, 1), t(1));
        l.mark_retransmit((0, 1));
        l.mark_retransmit((0, 1));
        let r = l.record((0, 1)).unwrap();
        assert_eq!(r.retransmits, 2);
        assert!(r.retransmitted());
        let hops = l.decompose((0, 1)).unwrap();
        assert_eq!(hops.iter().filter(|h| h.retransmitted).count(), 1);
    }
}
