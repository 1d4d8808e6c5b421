//! The flight recorder: a bounded in-memory ring of the most recent trace
//! records, exportable as JSON Lines.
//!
//! The ring holds records in [`TraceRecord::encode`]'s packed form — about
//! ten bytes for the element sends and receives that make up most of a
//! trace, against 56 for the struct — and decodes them on the way out, so
//! every reader still sees `TraceRecord`s and the dump is the same bytes.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::rc::Rc;

use sps_sim::SimTime;

use crate::event::{TraceRecord, MAX_ENCODED_LEN};
use crate::sink::TraceSink;

/// Default ring capacity: enough for several seconds of a fully
/// instrumented run of the paper's evaluation job.
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// Bytes per chunk of the ring: a few hundred records.
const CHUNK_BYTES: usize = 4096;

/// One fixed-size piece of the ring: `bytes[..len]` holds `records` whole
/// records, the first of which counts its time delta from `base_at`.
#[derive(Debug)]
struct Chunk {
    bytes: Box<[u8]>,
    len: usize,
    records: usize,
    base_at: SimTime,
}

/// A bounded ring buffer of trace records. When full, the oldest record is
/// evicted (and counted), so the recorder always holds the most recent
/// window — the "flight recorder" model.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    wants_data_plane: bool,
    /// Packed records, oldest first. A record never straddles two chunks,
    /// and no chunk is without a retained record: the tail is opened by
    /// the push that writes into it, the head is removed by the eviction
    /// of its last record.
    chunks: VecDeque<Chunk>,
    /// Records at the start of the front chunk that are already evicted.
    /// Eviction only counts; the bytes go when their chunk does.
    head_evicted: usize,
    /// Time of the newest record.
    tail_at: SimTime,
    /// The chunk the head left last, kept to become the next tail: a full
    /// ring of steady record width then allocates nothing.
    spare: Option<Chunk>,
    len: usize,
    evicted: u64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` records (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            wants_data_plane: true,
            chunks: VecDeque::new(),
            head_evicted: 0,
            tail_at: SimTime::ZERO,
            spare: None,
            len: 0,
            evicted: 0,
        }
    }

    /// Restrict the recorder to control-plane events only.
    pub fn control_plane_only(mut self) -> Self {
        self.wants_data_plane = false;
        self
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum records held.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records evicted because the ring was full.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = TraceRecord> + '_ {
        let mut chunks = self.chunks.iter();
        let mut rest: &[u8] = &[];
        // Deltas run on across chunks, so only the first base is needed.
        let mut at = self.chunks.front().map_or(SimTime::ZERO, |c| c.base_at);
        std::iter::from_fn(move || {
            if rest.is_empty() {
                let next = chunks.next()?;
                rest = &next.bytes[..next.len];
            }
            let (record, used) = TraceRecord::decode(rest, at);
            rest = &rest[used..];
            at = record.at;
            Some(record)
        })
        .skip(self.head_evicted)
    }

    /// Append one record, evicting the oldest if at capacity.
    pub fn push(&mut self, record: TraceRecord) {
        if self.len == self.capacity {
            self.evict_oldest();
        }
        // Closed as soon as the widest record might not fit, so `encode`
        // can write straight into the tail.
        let tail_is_closed = |tail: &Chunk| tail.len + MAX_ENCODED_LEN > CHUNK_BYTES;
        if self.chunks.back().is_none_or(tail_is_closed) {
            let bytes = match self.spare.take() {
                Some(recycled) => recycled.bytes,
                None => vec![0; CHUNK_BYTES].into_boxed_slice(),
            };
            self.chunks.push_back(Chunk {
                bytes,
                len: 0,
                records: 0,
                base_at: self.tail_at,
            });
        }
        let tail = self.chunks.back_mut().expect("a tail with room");
        tail.len += record.encode(self.tail_at, &mut tail.bytes[tail.len..]);
        tail.records += 1;
        self.tail_at = record.at;
        self.len += 1;
    }

    /// Drops exactly one record; the chunk it was the last of is recycled.
    fn evict_oldest(&mut self) {
        let head = self.chunks.front().expect("a full ring holds a record");
        self.head_evicted += 1;
        if self.head_evicted == head.records {
            self.spare = self.chunks.pop_front();
            self.head_evicted = 0;
        }
        self.len -= 1;
        self.evicted += 1;
    }

    /// Write the retained records as JSON Lines (one object per line,
    /// oldest first).
    pub fn export_jsonl(&self, w: &mut impl Write) -> io::Result<()> {
        let mut line = String::new();
        for rec in self.records() {
            line.clear();
            rec.write_json(&mut line);
            line.push('\n');
            w.write_all(line.as_bytes())?;
        }
        Ok(())
    }

    /// The JSONL dump as a string (used by the determinism tests).
    pub fn to_jsonl_string(&self) -> String {
        let mut out = String::new();
        for rec in self.records() {
            rec.write_json(&mut out);
            out.push('\n');
        }
        out
    }
}

impl TraceSink for FlightRecorder {
    fn wants_data_plane(&self) -> bool {
        self.wants_data_plane
    }
    fn record(&mut self, record: &TraceRecord) {
        self.push(*record);
    }
}

/// A cloneable handle to a [`FlightRecorder`], so the simulation can own
/// the sink while the harness keeps a reference for export after the run.
#[derive(Debug, Clone, Default)]
pub struct SharedRecorder(Rc<RefCell<FlightRecorder>>);

impl SharedRecorder {
    /// A shared recorder with the given ring capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Self(Rc::new(RefCell::new(FlightRecorder::with_capacity(
            capacity,
        ))))
    }

    /// Drops per-element data-plane records (sends/recvs/acks/heartbeats),
    /// keeping the ring for the rarer control-plane and fault events.
    pub fn control_plane_only(self) -> Self {
        self.0.borrow_mut().wants_data_plane = false;
        self
    }

    /// Run `f` with the underlying recorder borrowed.
    pub fn with<R>(&self, f: impl FnOnce(&FlightRecorder) -> R) -> R {
        f(&self.0.borrow())
    }

    /// The JSONL dump of the underlying recorder.
    pub fn to_jsonl_string(&self) -> String {
        self.0.borrow().to_jsonl_string()
    }

    /// Write the underlying recorder's records as JSON Lines.
    pub fn export_jsonl(&self, w: &mut impl Write) -> io::Result<()> {
        self.0.borrow().export_jsonl(w)
    }
}

impl TraceSink for SharedRecorder {
    fn wants_data_plane(&self) -> bool {
        self.0.borrow().wants_data_plane
    }
    fn record(&mut self, record: &TraceRecord) {
        self.0.borrow_mut().push(*record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::samples::Draw;
    use crate::event::TraceEvent;
    use sps_sim::SimRng;

    fn ping(seq: u64) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_nanos(seq),
            event: TraceEvent::HeartbeatPing { machine: 0, seq },
        }
    }

    #[test]
    fn ring_keeps_most_recent_window() {
        let mut r = FlightRecorder::with_capacity(3);
        for seq in 0..5 {
            r.push(ping(seq));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.evicted(), 2);
        let seqs: Vec<u64> = r.records().map(|rec| rec.at.as_nanos()).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    /// What the ring replaced, kept as its oracle: the records themselves
    /// in a deque, the oldest popped when full.
    struct PlainRing {
        capacity: usize,
        buf: VecDeque<TraceRecord>,
        evicted: u64,
    }

    impl PlainRing {
        fn push(&mut self, record: TraceRecord) {
            if self.buf.len() == self.capacity {
                self.buf.pop_front();
                self.evicted += 1;
            }
            self.buf.push_back(record);
        }

        fn to_jsonl_string(&self) -> String {
            self.buf.iter().map(|r| r.to_json() + "\n").collect()
        }
    }

    #[test]
    fn packed_ring_matches_a_plain_deque_under_random_pushes() {
        let pool: Vec<TraceEvent> = (0..24)
            .flat_map(|round| TraceEvent::every_variant(&mut Draw::rotating(round)))
            .collect();
        // One more record than a chunk holds of this pool on average: head
        // and tail then sit in different chunks nearly all the time.
        let packed: usize = pool
            .iter()
            .map(|&event| {
                let at = SimTime::from_nanos(4_500);
                TraceRecord { at, event }.encode(SimTime::ZERO, &mut [0; MAX_ENCODED_LEN])
            })
            .sum();
        let above_a_chunk = CHUNK_BYTES * pool.len() / packed + 1;
        for (case, capacity) in [1, 2, 3, 1000, above_a_chunk].into_iter().enumerate() {
            let mut rng = SimRng::seed_from(0x0F11_6870 + case as u64);
            let mut ring = FlightRecorder::with_capacity(capacity);
            let mut model = PlainRing {
                capacity,
                buf: VecDeque::new(),
                evicted: 0,
            };
            let mut gaps = Draw::rotating(case);
            let mut at = 0u64;
            let mut peak_chunks = 0;
            // Long enough to wrap the ring several times, so chunks are
            // handed over from head to tail again and again.
            for step in 0..4 * capacity.max(64) {
                at += gaps.gap();
                let record = TraceRecord {
                    at: SimTime::from_nanos(at),
                    event: *rng.pick(&pool),
                };
                ring.push(record);
                model.push(record);
                assert_eq!(ring.len(), model.buf.len(), "case {case} step {step}");
                assert_eq!(ring.evicted(), model.evicted, "case {case} step {step}");
                assert!(
                    ring.records().eq(model.buf.iter().copied()),
                    "case {case} step {step}: records()"
                );
                // Rendering every step of the large rings is quadratic;
                // theirs is compared where it matters, around each wrap.
                if capacity <= 3 || step % capacity < 2 || step % 97 == 0 {
                    assert_eq!(
                        ring.to_jsonl_string(),
                        model.to_jsonl_string(),
                        "case {case} step {step}"
                    );
                }
                peak_chunks = peak_chunks.max(ring.chunks.len());
            }
            assert_eq!(ring.len(), capacity);
            // Bounded by content, not history: what `capacity` of the widest
            // records need, plus the part-used chunk at either end.
            let widest_fit = CHUNK_BYTES / MAX_ENCODED_LEN;
            assert!(
                peak_chunks <= capacity.div_ceil(widest_fit) + 2,
                "case {case}: {peak_chunks} chunks for {capacity} records"
            );
        }
    }

    #[test]
    fn jsonl_export_is_one_object_per_line() {
        let mut r = FlightRecorder::with_capacity(8);
        r.push(ping(1));
        r.push(ping(2));
        let dump = r.to_jsonl_string();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        let mut bytes = Vec::new();
        r.export_jsonl(&mut bytes).unwrap();
        assert_eq!(String::from_utf8(bytes).unwrap(), dump);
    }

    #[test]
    fn shared_recorder_sees_sink_writes() {
        let shared = SharedRecorder::with_capacity(4);
        let mut as_sink = shared.clone();
        as_sink.record(&ping(7));
        assert_eq!(shared.with(|r| r.len()), 1);
    }
}
