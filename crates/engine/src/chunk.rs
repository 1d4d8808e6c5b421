//! A chunked, copy-on-write deque of [`DataElement`]s.
//!
//! Queue contents are stored in fixed-size chunks behind [`Arc`]s. Cloning
//! the deque — which is how a [`PeCheckpoint`](crate::PeCheckpoint) captures
//! an output queue's retained elements or an input backlog — clones the
//! chunk *pointers*, not the elements: capture is `O(len / CHUNK_CAP)`
//! pointer copies instead of `O(len)` element copies, and amortized `O(1)`
//! against the pushes that filled the chunks.
//!
//! After a capture the live queue and the snapshot share chunks. Structural
//! sharing is invisible to the simulation's cost model (which reads only
//! element counts and byte sizes) and is repaired lazily: a push into a
//! shared tail chunk first clones that one chunk (a bounded
//! `<= CHUNK_CAP`-element copy), and a pop from a shared head chunk merely
//! advances a skip counter without touching the chunk at all.
//!
//! The deque recycles the most recently drained chunk (when uniquely owned)
//! as the next tail chunk, so a steady-state produce/trim cycle allocates
//! nothing once warm.
//!
//! A drained deque holds nothing. When a pop empties the deque inside its
//! last chunk, that chunk restarts in place (emptied, skip counter back to
//! 0) if uniquely owned; if a snapshot shares it, it leaves the spine and
//! the snapshot keeps it. So later pushes never land behind dead elements,
//! and never copy a dead prefix out of a shared chunk. A clone of an empty
//! deque is an empty deque: snapshotting an idle queue allocates nothing.
//!
//! Most deques of a wide job are cold: a shard's queues hold a handful of
//! elements and never fill one chunk. So a chunk's *allocation* follows its
//! content while it is the deque's only chunk — it starts empty and grows
//! in powers of two up to [`CHUNK_CAP`], and un-sharing it from a snapshot
//! allocates the same way — whereas a chunk appended behind a full one is
//! going to fill, and is allocated at `CHUNK_CAP` in one call. Recycled
//! spares keep whatever capacity they reached. None of this touches the
//! layout invariant below, which is about chunk *lengths*: every chunk but
//! the last holds exactly `CHUNK_CAP` elements.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::element::{append_run, DataElement};

/// Elements per chunk. Small enough that a copy-on-write chunk clone stays
/// cheap, large enough that a snapshot is ~64x smaller than the element
/// count.
pub const CHUNK_CAP: usize = 64;
const _: () = assert!(CHUNK_CAP.is_power_of_two(), "cold growth must land on it");

#[derive(Debug)]
struct Chunk {
    elems: Vec<DataElement>,
}

/// Capacity of a deque's only chunk when it must hold `need` elements:
/// geometric steps that land exactly on [`CHUNK_CAP`].
fn cold_capacity(need: usize) -> usize {
    debug_assert!(need <= CHUNK_CAP);
    need.next_power_of_two().max(4)
}

/// A deque of [`DataElement`]s in `Arc`-shared fixed-size chunks, with O(1)
/// clone (snapshot capture) and allocation-free steady-state push/pop.
///
/// Invariant: every chunk except the last holds exactly [`CHUNK_CAP`]
/// elements, so logical index `front_skip + i` lands in chunk
/// `(front_skip + i) / CHUNK_CAP` at offset `(front_skip + i) % CHUNK_CAP`.
#[derive(Debug, Default)]
pub struct ChunkedDeque {
    chunks: VecDeque<Arc<Chunk>>,
    /// Elements of the front chunk already consumed by `pop_front`.
    front_skip: usize,
    len: usize,
    /// A drained, uniquely-owned chunk kept for reuse by the next push that
    /// needs a fresh tail chunk.
    spare: Option<Arc<Chunk>>,
}

impl Clone for ChunkedDeque {
    fn clone(&self) -> Self {
        // An empty deque holds nothing worth sharing: its snapshot is empty
        // and allocation-free.
        if self.len == 0 {
            return ChunkedDeque::new();
        }
        // Chunk pointers only; the spare is a private allocation cache and
        // deliberately not shared (sharing it would defeat recycling on both
        // sides).
        ChunkedDeque {
            chunks: self.chunks.clone(),
            front_skip: self.front_skip,
            len: self.len,
            spare: None,
        }
    }
}

impl PartialEq for ChunkedDeque {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl ChunkedDeque {
    /// Creates an empty deque.
    pub fn new() -> Self {
        ChunkedDeque::default()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The tail chunk, uniquely owned, with room for at least one more
    /// element and capacity for `want` more (or as many as fit a chunk). A
    /// new tail comes from the recycled spare when one is available; a
    /// tail shared with a snapshot is un-shared first (a bounded copy that
    /// leaves the snapshot's view untouched).
    fn tail_mut(&mut self, want: usize) -> &mut Vec<DataElement> {
        let needs_chunk = match self.chunks.back() {
            None => true,
            Some(c) => c.elems.len() == CHUNK_CAP,
        };
        if needs_chunk {
            let recycled = self.spare.take().and_then(|mut spare| {
                Arc::get_mut(&mut spare)?.elems.clear();
                Some(spare)
            });
            // A chunk joining a non-empty spine is going to fill: one
            // full-size allocation. A deque's only chunk starts empty and
            // is sized below.
            let chunk = recycled.unwrap_or_else(|| {
                let cap = if self.chunks.is_empty() { 0 } else { CHUNK_CAP };
                Arc::new(Chunk {
                    elems: Vec::with_capacity(cap),
                })
            });
            self.chunks.push_back(chunk);
        }
        let lone = self.chunks.len() == 1;
        let back = self.chunks.back_mut().expect("tail chunk exists");
        let len = back.elems.len();
        let need = len + want.min(CHUNK_CAP - len);
        if Arc::strong_count(back) != 1 {
            let cap = if lone { cold_capacity(need) } else { CHUNK_CAP };
            let mut fresh = Vec::with_capacity(cap);
            fresh.extend_from_slice(&back.elems);
            *back = Arc::new(Chunk { elems: fresh });
        }
        let elems = &mut Arc::get_mut(back).expect("tail un-shared above").elems;
        if elems.capacity() < need {
            // Only a deque's sole, not yet full-size chunk gets here.
            elems.reserve_exact(cold_capacity(need) - len);
        }
        elems
    }

    /// Appends an element. Allocation-free once warm: a copy-on-write chunk
    /// clone only happens on the first push after a capture.
    pub fn push_back(&mut self, elem: DataElement) {
        self.tail_mut(1).push(elem);
        self.len += 1;
    }

    /// Appends a run of elements with one slice copy, and one ownership
    /// check, per chunk touched.
    pub fn extend_from_slice(&mut self, mut run: &[DataElement]) {
        while !run.is_empty() {
            let tail = self.tail_mut(run.len());
            let take = (CHUNK_CAP - tail.len()).min(run.len());
            append_run(tail, &run[..take]);
            self.len += take;
            run = &run[take..];
        }
    }

    /// Removes and returns the front element. Never copies chunk contents:
    /// consuming from a shared head chunk just advances the skip counter.
    pub fn pop_front(&mut self) -> Option<DataElement> {
        let mut front = None;
        self.pop_front_run(1, |run| front = Some(run[0]));
        front
    }

    /// Removes up to `max` front elements, handing them to `sink` in order
    /// as one slice per chunk touched. Returns how many were removed.
    pub fn pop_front_run(&mut self, max: usize, mut sink: impl FnMut(&[DataElement])) -> usize {
        let n = max.min(self.len);
        let mut left = n;
        while left > 0 {
            let front = &self.chunks.front().expect("non-empty deque").elems;
            let take = (front.len() - self.front_skip).min(left);
            sink(&front[self.front_skip..self.front_skip + take]);
            self.front_skip += take;
            self.len -= take;
            left -= take;
            if self.front_skip == CHUNK_CAP {
                let drained = self.chunks.pop_front().expect("front chunk exists");
                self.front_skip = 0;
                if self.spare.is_none() && Arc::strong_count(&drained) == 1 {
                    self.spare = Some(drained);
                }
            }
        }
        if n > 0 && self.len == 0 {
            // Only dead elements are left: restart the chunk when it is
            // ours, or leave it to the snapshot that shares it, so no push
            // appends behind them or copies them.
            debug_assert!(
                self.chunks.len() <= 1,
                "only the last chunk can be part-read"
            );
            if let Some(last) = self.chunks.front_mut() {
                match Arc::get_mut(last) {
                    Some(chunk) => chunk.elems.clear(),
                    None => self.chunks.clear(),
                }
            }
            self.front_skip = 0;
        }
        n
    }

    /// Drops up to `n` front elements without reading them (an acknowledged
    /// prefix). Returns how many were dropped.
    pub fn drop_front(&mut self, n: usize) -> usize {
        self.pop_front_run(n, |_| {})
    }

    /// Appends a copy of the elements from logical index `start` on to
    /// `out`, one slice copy per chunk.
    pub fn copy_from_into(&self, start: usize, out: &mut Vec<DataElement>) {
        let start = start.min(self.len);
        let mut pos = self.front_skip + start;
        let mut left = self.len - start;
        while left > 0 {
            let chunk = &self.chunks[pos / CHUNK_CAP].elems;
            let from = pos % CHUNK_CAP;
            let take = (chunk.len() - from).min(left);
            append_run(out, &chunk[from..from + take]);
            pos += take;
            left -= take;
        }
    }

    /// The front element, if any.
    pub fn front(&self) -> Option<&DataElement> {
        if self.len == 0 {
            None
        } else {
            self.chunks.front().map(|c| &c.elems[self.front_skip])
        }
    }

    /// Drops all elements. Keeps one drained chunk for reuse when uniquely
    /// owned.
    pub fn clear(&mut self) {
        if self.spare.is_none() {
            if let Some(c) = self.chunks.drain(..).find(|c| Arc::strong_count(c) == 1) {
                self.spare = Some(c);
            }
        } else {
            self.chunks.clear();
        }
        self.front_skip = 0;
        self.len = 0;
    }

    /// Iterates the elements in order, by value (elements are `Copy`).
    pub fn iter(&self) -> Iter<'_> {
        self.iter_from(0)
    }

    /// Iterates the elements starting at logical index `start`.
    pub fn iter_from(&self, start: usize) -> Iter<'_> {
        let start = start.min(self.len);
        let pos = self.front_skip + start;
        Iter {
            chunks: &self.chunks,
            chunk_idx: pos / CHUNK_CAP,
            elem_idx: pos % CHUNK_CAP,
            remaining: self.len - start,
        }
    }
}

impl FromIterator<DataElement> for ChunkedDeque {
    fn from_iter<I: IntoIterator<Item = DataElement>>(iter: I) -> Self {
        let mut dq = ChunkedDeque::new();
        for e in iter {
            dq.push_back(e);
        }
        dq
    }
}

impl<'a> IntoIterator for &'a ChunkedDeque {
    type Item = DataElement;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over a [`ChunkedDeque`], yielding elements by value.
#[derive(Debug)]
pub struct Iter<'a> {
    chunks: &'a VecDeque<Arc<Chunk>>,
    chunk_idx: usize,
    elem_idx: usize,
    remaining: usize,
}

impl Iterator for Iter<'_> {
    type Item = DataElement;

    fn next(&mut self) -> Option<DataElement> {
        if self.remaining == 0 {
            return None;
        }
        let elem = self.chunks[self.chunk_idx].elems[self.elem_idx];
        self.elem_idx += 1;
        if self.elem_idx == CHUNK_CAP {
            self.chunk_idx += 1;
            self.elem_idx = 0;
        }
        self.remaining -= 1;
        Some(elem)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::StreamId;
    use sps_sim::SimTime;

    fn elem(seq: u64) -> DataElement {
        DataElement {
            stream: StreamId(1),
            seq,
            created_at: SimTime::ZERO,
            key: seq % 7,
            value: seq as f64,
            size_bytes: 256,
        }
    }

    #[test]
    fn push_pop_fifo_across_chunk_boundaries() {
        let mut dq = ChunkedDeque::new();
        let n = (CHUNK_CAP * 3 + 5) as u64;
        for s in 0..n {
            dq.push_back(elem(s));
        }
        assert_eq!(dq.len(), n as usize);
        for s in 0..n {
            assert_eq!(dq.front().map(|e| e.seq), Some(s));
            assert_eq!(dq.pop_front().map(|e| e.seq), Some(s));
        }
        assert!(dq.is_empty());
        assert_eq!(dq.pop_front(), None);
    }

    #[test]
    fn clone_is_a_snapshot_isolated_from_later_mutation() {
        let mut dq = ChunkedDeque::new();
        for s in 0..10 {
            dq.push_back(elem(s));
        }
        let snap = dq.clone();
        // Mutate the live deque after the capture: push into the shared tail
        // chunk (copy-on-write) and pop from the shared head.
        dq.push_back(elem(10));
        dq.pop_front();
        dq.pop_front();
        assert_eq!(
            snap.iter().map(|e| e.seq).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>(),
            "snapshot frozen at capture time"
        );
        assert_eq!(
            dq.iter().map(|e| e.seq).collect::<Vec<_>>(),
            (2..11).collect::<Vec<_>>()
        );
    }

    #[test]
    fn iter_from_matches_skip() {
        let mut dq = ChunkedDeque::new();
        for s in 0..(CHUNK_CAP as u64 * 2 + 10) {
            dq.push_back(elem(s));
        }
        // Partially consume so front_skip is mid-chunk.
        for _ in 0..7 {
            dq.pop_front();
        }
        let all: Vec<u64> = dq.iter().map(|e| e.seq).collect();
        for start in [0, 1, CHUNK_CAP - 1, CHUNK_CAP, CHUNK_CAP + 3, dq.len()] {
            let got: Vec<u64> = dq.iter_from(start).map(|e| e.seq).collect();
            assert_eq!(got, all[start.min(all.len())..], "start {start}");
        }
    }

    #[test]
    fn steady_state_recycles_chunks() {
        let mut dq = ChunkedDeque::new();
        // Warm up one full chunk cycle so the spare exists.
        for s in 0..(CHUNK_CAP as u64 * 2) {
            dq.push_back(elem(s));
        }
        for _ in 0..CHUNK_CAP {
            dq.pop_front();
        }
        assert!(dq.spare.is_some(), "drained chunk recycled");
        // The next chunk-crossing push consumes the spare.
        for s in 0..CHUNK_CAP as u64 {
            dq.push_back(elem(s));
        }
        assert!(dq.spare.is_none(), "spare reused for the new tail");
    }

    fn tail_capacity(dq: &ChunkedDeque) -> usize {
        dq.chunks.back().expect("non-empty spine").elems.capacity()
    }

    #[test]
    fn a_lone_chunk_is_sized_to_its_content() {
        let mut dq = ChunkedDeque::new();
        for s in 0..3 {
            dq.push_back(elem(s));
        }
        assert!(
            tail_capacity(&dq) <= 4,
            "3 elements in {}",
            tail_capacity(&dq)
        );
        // Growth is geometric and lands exactly on the chunk size, by
        // pushes and by runs of an awkward length alike.
        let sized_to = |dq: &ChunkedDeque| dq.len().next_power_of_two().max(4);
        for s in 3..CHUNK_CAP as u64 {
            dq.push_back(elem(s));
            assert_eq!(tail_capacity(&dq), sized_to(&dq));
        }
        assert_eq!((dq.chunks.len(), tail_capacity(&dq)), (1, CHUNK_CAP));
        let mut by_runs = ChunkedDeque::new();
        let run: Vec<DataElement> = (0..5).map(elem).collect();
        for _ in 0..CHUNK_CAP / run.len() {
            by_runs.extend_from_slice(&run);
            assert_eq!(tail_capacity(&by_runs), sized_to(&by_runs));
        }
        by_runs.extend_from_slice(&run); // fills the chunk and spills one over
        assert_eq!(by_runs.chunks.len(), 2);
        assert_eq!(by_runs.chunks[0].elems.capacity(), CHUNK_CAP);
    }

    #[test]
    fn a_chunk_behind_a_full_one_is_allocated_whole() {
        let mut dq = ChunkedDeque::new();
        for s in 0..=CHUNK_CAP as u64 {
            dq.push_back(elem(s));
        }
        assert_eq!(dq.chunks.len(), 2);
        assert_eq!(tail_capacity(&dq), CHUNK_CAP, "one allocation, no growth");
        // Un-sharing a tail that is not the only chunk stays full-size too.
        let snap = dq.clone();
        dq.push_back(elem(99));
        assert_eq!(tail_capacity(&dq), CHUNK_CAP);
        assert_eq!(snap.len(), CHUNK_CAP + 1);
    }

    #[test]
    fn unsharing_a_lone_tail_leaves_the_snapshot_untouched_at_every_fill() {
        for fill in 1..=CHUNK_CAP as u64 {
            let mut dq: ChunkedDeque = (0..fill).map(elem).collect();
            let snap = dq.clone();
            dq.push_back(elem(fill));
            assert!(snap.iter().map(|e| e.seq).eq(0..fill), "fill {fill}");
            assert!(dq.iter().map(|e| e.seq).eq(0..=fill), "fill {fill}");
            if (fill as usize) < CHUNK_CAP {
                let expect = (fill as usize + 1).next_power_of_two().max(4);
                assert_eq!(tail_capacity(&dq), expect, "fill {fill}");
            }
        }
    }

    /// A cold queue that never holds more than one element keeps one
    /// minimal chunk: a drained deque restarts its chunk in place, so later
    /// pushes do not append behind dead elements.
    #[test]
    fn a_drained_lone_chunk_restarts_in_place() {
        let mut dq = ChunkedDeque::new();
        dq.push_back(elem(0));
        let buffer = dq.chunks[0].elems.as_ptr();
        for s in 0..1_000 {
            assert_eq!(dq.pop_front().map(|e| e.seq), Some(s));
            dq.push_back(elem(s + 1));
            assert_eq!((dq.chunks.len(), dq.front_skip), (1, 0));
            assert_eq!(tail_capacity(&dq), 4, "cycle {s}");
        }
        assert_eq!(dq.chunks[0].elems.as_ptr(), buffer, "same allocation");
    }

    #[test]
    fn a_clone_of_an_empty_deque_holds_no_chunk() {
        let mut dq: ChunkedDeque = (0..3).map(elem).collect();
        dq.drop_front(3);
        assert_eq!(dq.chunks.len(), 1, "the live deque keeps its chunk");
        let snap = dq.clone();
        assert!(snap.is_empty());
        assert!(snap.chunks.is_empty() && snap.spare.is_none());
        assert!(ChunkedDeque::new().clone().chunks.is_empty());
    }

    /// Draining a deque whose chunk a snapshot shares hands the chunk to
    /// the snapshot alone: the snapshot reads unchanged, and the next push
    /// starts a fresh chunk at index 0 instead of copying the dead prefix.
    #[test]
    fn draining_a_shared_chunk_leaves_it_to_the_snapshot() {
        let mut dq: ChunkedDeque = (0..5).map(elem).collect();
        let snap = dq.clone();
        assert_eq!(dq.drop_front(5), 5);
        assert!(
            dq.chunks.is_empty(),
            "a shared drained chunk leaves the spine"
        );
        dq.push_back(elem(5));
        assert_eq!((dq.chunks.len(), dq.front_skip), (1, 0));
        assert_eq!(dq.chunks[0].elems.len(), 1, "no dead prefix copied");
        assert_eq!(tail_capacity(&dq), 4);
        assert!(!Arc::ptr_eq(&dq.chunks[0], &snap.chunks[0]));
        assert!(snap.iter().map(|e| e.seq).eq(0..5), "snapshot unchanged");
        assert!(dq.iter().map(|e| e.seq).eq(5..6));
    }

    /// Once a chunk has drained into the spare, a produce/trim cycle moves
    /// the same allocations round: no chunk buffer is ever new.
    #[test]
    fn warm_cycle_reuses_the_same_buffers() {
        let mut dq = ChunkedDeque::new();
        for s in 0..(CHUNK_CAP as u64 * 2) {
            dq.push_back(elem(s));
        }
        dq.drop_front(CHUNK_CAP);
        let buffers = |dq: &ChunkedDeque| {
            let mut ptrs: Vec<*const DataElement> = dq
                .chunks
                .iter()
                .chain(&dq.spare)
                .map(|c| c.elems.as_ptr())
                .collect();
            ptrs.sort_unstable();
            ptrs
        };
        let warm = buffers(&dq);
        assert_eq!(warm.len(), 2);
        for s in 0..(CHUNK_CAP as u64 * 10) {
            dq.push_back(elem(s));
            dq.pop_front();
            assert_eq!(buffers(&dq), warm);
        }
    }

    #[test]
    fn clear_resets_and_equality_is_element_wise() {
        let mut a = ChunkedDeque::new();
        let mut b = ChunkedDeque::new();
        for s in 0..100 {
            a.push_back(elem(s));
        }
        // Same logical contents via a different chunk layout (offset head).
        b.push_back(elem(999));
        for s in 0..100 {
            b.push_back(elem(s));
        }
        b.pop_front();
        assert_eq!(a, b, "equality ignores chunk alignment");
        a.clear();
        assert!(a.is_empty());
        assert_ne!(a, b);
        assert_eq!(a, ChunkedDeque::new());
    }

    /// Property: a long random push/pop/clone/restore schedule matches a
    /// `VecDeque` reference model exactly, including snapshots captured
    /// mid-chunk and deques rebuilt from those snapshots.
    #[test]
    fn random_ops_match_vecdeque_reference() {
        let mut rng = sps_sim::SimRng::seed_from(0xC0FFEE);
        for round in 0..20 {
            let mut dq = ChunkedDeque::new();
            let mut model: VecDeque<DataElement> = VecDeque::new();
            let mut snaps: Vec<(ChunkedDeque, Vec<DataElement>)> = Vec::new();
            let mut seq = 0u64;
            for _ in 0..2_000 {
                match rng.next_u64() % 10 {
                    0..=4 => {
                        dq.push_back(elem(seq));
                        model.push_back(elem(seq));
                        seq += 1;
                    }
                    5..=7 => {
                        assert_eq!(dq.pop_front(), model.pop_front(), "round {round}");
                    }
                    8 => {
                        snaps.push((dq.clone(), model.iter().copied().collect()));
                    }
                    _ => {
                        if let Some((snap, expect)) = snaps.pop() {
                            // Mid-chunk checkpoint restore: the snapshot
                            // replaces the live contents wholesale.
                            assert_eq!(
                                snap.iter().collect::<Vec<_>>(),
                                expect,
                                "round {round}: snapshot drifted"
                            );
                            dq = snap.clone();
                            model = expect.iter().copied().collect();
                        }
                    }
                }
                assert_eq!(dq.len(), model.len(), "round {round}");
                assert_eq!(dq.front(), model.front(), "round {round}");
            }
            assert!(dq.iter().eq(model.iter().copied()), "round {round}");
            // Every surviving snapshot is still intact after all mutation.
            for (snap, expect) in &snaps {
                assert_eq!(&snap.iter().collect::<Vec<_>>(), expect);
            }
        }
    }
}
