//! The pending-event set: a stable min-heap ordered by firing time, with a
//! FIFO fast path for near-future events and a hierarchical timer wheel for
//! far-future ones.
//!
//! Events that share a firing time are delivered in the order they were
//! scheduled (FIFO tie-breaking via a monotone sequence number), which keeps
//! simulations deterministic regardless of heap internals.
//!
//! Data-plane hops dominate the workloads above this crate, and they are
//! scheduled with zero or tiny delays — i.e. at times at or after everything
//! already pending. Pushing those through a binary heap costs `O(log n)`
//! sift-ups for what is really an append. The queue therefore keeps a second
//! structure, `near`: a deque of entries appended whenever a push's firing
//! time is `>=` the deque's back. Because sequence numbers are handed out
//! monotonically, such appends keep `near` sorted by `(time, seq)`, so its
//! front is its minimum and push/pop on it are `O(1)`. A pop compares the
//! deque front with the heap top under the same `(time, seq)` order and takes
//! the smaller, so the observable pop order is identical to the heap-only
//! implementation for every interleaving of pushes and pops.
//!
//! The third structure is a [`Wheel`]: periodic timers (heartbeats,
//! retransmission sweeps, chaos steps) fire tens of milliseconds out, so
//! routing them through `near` would poison its monotone-append invariant and
//! routing them through the heap pays `O(log n)` twice. The wheel buckets
//! far-future events by firing *tick* (~1 ms of simulated time) across three
//! levels of 64 slots, insertion is `O(1)`, and a `u64` occupancy bitmap per
//! level finds work without scanning empty slots. The wheel is purely a
//! staging area: before the queue answers any front-of-queue question, every
//! wheel event that could fire at or before the candidate answer is flushed
//! into the heap *carrying its original sequence number*, so the observable
//! pop order is again identical to the heap-only implementation.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// A time-ordered queue of pending events.
///
/// ```
/// use sps_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_millis(20), "late");
/// q.push(SimTime::from_millis(10), "early");
/// q.push(SimTime::from_millis(10), "early-second");
///
/// assert_eq!(q.pop(), Some((SimTime::from_millis(10), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(10), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(20), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Monotone-by-`(time, seq)` appends; see the module docs.
    near: VecDeque<Entry<E>>,
    /// Far-future staging; flushed into `heap` as time approaches.
    wheel: Wheel<E>,
    next_seq: u64,
    peak_len: usize,
    /// Summed weights of pending events. Weight is the number of logical
    /// elements an event represents (1 for everything but batched data
    /// deliveries), so this — not entry count — is the queue-depth figure
    /// that stays comparable across batch sizes.
    pending_weight: u64,
    peak_weight: u64,
}

/// Log2 of the wheel tick length in nanoseconds: one tick ≈ 1.05 ms.
const TICK_SHIFT: u32 = 20;
/// Slots per wheel level; level `l` covers `64^(l+1)` ticks.
const WHEEL_SLOTS: usize = 64;
/// Log2 of `WHEEL_SLOTS`, the per-level shift applied to a tick.
const LEVEL_SHIFT: u32 = 6;
/// Tick spans covered by levels 0..2; deltas at or past `SPAN[2]` go
/// straight to the heap (they are ~4.6 simulated minutes out).
const SPAN: [u64; 3] = [64, 64 * 64, 64 * 64 * 64];
/// Minimum tick delta routed to the wheel. Anything nearer fires within
/// ~2 ms and takes the near-deque/heap path directly.
const WHEEL_MIN_DELTA: u64 = 2;

/// A three-level hierarchical timer wheel over `Entry` values.
///
/// `cur` is the watermark tick: every bucketed entry fires at a tick
/// strictly greater than `cur`, and [`Wheel::settle`] advances `cur` while
/// flushing newly due buckets into the heap (level 0) or re-filing them one
/// level down (levels 1–2, for entries whose tick is still in the future).
///
/// Buckets own no storage: every staged entry sits in one slab and a bucket
/// is a singly-linked list of slab indices, so the wheel's footprint is its
/// peak number of staged entries, not slots × the largest burst a slot ever
/// saw. List order is arbitrary (newest first): entries leave only for the
/// heap, which orders them by their unique `(time, seq)` key.
#[derive(Debug)]
struct Wheel<E> {
    slab: Vec<Slot<E>>,
    /// Head of the free-slot list, [`NIL`] when every slot is in use.
    free: u32,
    /// `3 × WHEEL_SLOTS` bucket list heads, row-major by level.
    heads: [u32; 3 * WHEEL_SLOTS],
    /// One bit per slot and level: set iff the bucket is non-empty.
    occupancy: [u64; 3],
    /// Watermark tick; all bucketed entries have `tick > cur`.
    cur: u64,
    /// Total entries across all buckets.
    len: usize,
}

/// One slab slot of the [`Wheel`]: a staged entry (`None` while the slot is
/// free) and the next slot of its bucket or of the free list.
#[derive(Debug)]
struct Slot<E> {
    entry: Option<Entry<E>>,
    next: u32,
}

/// End-of-list marker for the wheel's intrusive lists.
const NIL: u32 = u32::MAX;

/// The occupancy-bit mask for slot positions in `(from, to]`, wrapping
/// modulo [`WHEEL_SLOTS`].
fn range_mask(from: u64, to: u64) -> u64 {
    let n = to - from;
    if n >= 64 {
        !0
    } else {
        ((1u64 << n) - 1).rotate_left(((from + 1) & 63) as u32)
    }
}

impl<E> Wheel<E> {
    fn new() -> Self {
        Wheel {
            slab: Vec::new(),
            free: NIL,
            heads: [NIL; 3 * WHEEL_SLOTS],
            occupancy: [0; 3],
            cur: 0,
            len: 0,
        }
    }

    /// The slot index of `tick` at `level`.
    fn slot_of(level: usize, tick: u64) -> usize {
        ((tick >> (LEVEL_SHIFT * level as u32)) & 63) as usize
    }

    /// Links slab slot `idx` (firing at `tick`) into the bucket that fits
    /// its distance from `from`. The caller guarantees
    /// `1 <= tick - from < SPAN[2]`.
    fn file(&mut self, idx: u32, tick: u64, from: u64) {
        let delta = tick - from;
        debug_assert!((1..SPAN[2]).contains(&delta));
        let level = usize::from(delta >= SPAN[0]) + usize::from(delta >= SPAN[1]);
        let slot = Self::slot_of(level, tick);
        self.occupancy[level] |= 1u64 << slot;
        let head = &mut self.heads[level * WHEEL_SLOTS + slot];
        self.slab[idx as usize].next = *head;
        *head = idx;
    }

    /// Stages `entry` (firing at `tick`) by its distance from the
    /// watermark. The caller guarantees `1 <= tick - cur < SPAN[2]`.
    fn insert(&mut self, entry: Entry<E>, tick: u64) {
        let (entry, next) = (Some(entry), NIL);
        let idx = if self.free == NIL {
            assert!(self.slab.len() < NIL as usize, "timer wheel slab is full");
            self.slab.push(Slot { entry, next });
            (self.slab.len() - 1) as u32
        } else {
            let idx = self.free;
            self.free = std::mem::replace(&mut self.slab[idx as usize], Slot { entry, next }).next;
            idx
        };
        self.file(idx, tick, self.cur);
        self.len += 1;
    }

    /// Advances the watermark to `upto`, pushing every entry with
    /// `tick <= upto` into `heap` (original sequence numbers intact, so
    /// heap order stays exact) and re-filing higher-level entries whose
    /// tick is still in the future into the level that now fits them.
    fn settle(&mut self, upto: u64, heap: &mut BinaryHeap<Entry<E>>) {
        if upto <= self.cur {
            return;
        }
        if self.len == 0 {
            self.cur = upto;
            return;
        }
        // Level 0 first: its due buckets hold only due entries. Levels 1–2
        // then re-file their not-yet-due entries downward with deltas
        // measured from the new watermark, which by construction land in
        // slot positions the lower level is not flushing this pass.
        for level in 0..3 {
            let shift = LEVEL_SHIFT * level as u32;
            let (from, to) = (self.cur >> shift, upto >> shift);
            if to == from {
                continue;
            }
            let mask = range_mask(from, to);
            let mut due = self.occupancy[level] & mask;
            self.occupancy[level] &= !mask;
            while due != 0 {
                let slot = due.trailing_zeros() as usize;
                due &= due - 1;
                let mut idx = std::mem::replace(&mut self.heads[level * WHEEL_SLOTS + slot], NIL);
                while idx != NIL {
                    let slot = &mut self.slab[idx as usize];
                    let following = slot.next;
                    let entry = slot.entry.as_ref().expect("bucketed slot is full");
                    let tick = entry.time.as_nanos() >> TICK_SHIFT;
                    if tick <= upto {
                        heap.push(slot.entry.take().expect("bucketed slot is full"));
                        slot.next = self.free;
                        self.free = idx;
                        self.len -= 1;
                    } else {
                        self.file(idx, tick, upto);
                    }
                    idx = following;
                }
            }
        }
        self.cur = upto;
    }

    /// A tick to settle to that is guaranteed to make progress: the
    /// earliest occupied level-0 tick, or the first tick of the earliest
    /// occupied higher-level window (settling there cascades that window
    /// down). Only called when the heap and near deque are empty, so speed
    /// is irrelevant.
    fn earliest_bound(&self) -> u64 {
        debug_assert!(self.len > 0);
        let mut best = u64::MAX;
        for level in 0..3 {
            let occ = self.occupancy[level];
            if occ != 0 {
                let shift = LEVEL_SHIFT * level as u32;
                let next_pos = (self.cur >> shift) + 1;
                // Occupied positions live in the window [next_pos, next_pos + 64).
                let ahead = occ.rotate_right((next_pos & 63) as u32).trailing_zeros();
                best = best.min((next_pos + u64::from(ahead)) << shift);
            }
        }
        best
    }
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    /// Logical elements this event represents (see
    /// [`EventQueue::push_weighted`]); never consulted for ordering.
    weight: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest (time, seq) wins.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Which structure holds the next event to pop.
enum Front {
    Near,
    Heap,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            near: VecDeque::new(),
            wheel: Wheel::new(),
            next_seq: 0,
            peak_len: 0,
            pending_weight: 0,
            peak_weight: 0,
        }
    }

    /// Schedules `event` to fire at `time`, with weight 1.
    pub fn push(&mut self, time: SimTime, event: E) {
        self.push_weighted(time, event, 1);
    }

    /// Schedules `event` to fire at `time`, carrying `weight` logical
    /// elements. Weight affects only the [`EventQueue::pending_weight`] /
    /// [`EventQueue::peak_weight`] accounting, never ordering: a batched
    /// data delivery is one heap entry but `batch.len()` elements in
    /// flight, and depth statistics must count the latter to stay
    /// comparable across batch sizes.
    pub fn push_weighted(&mut self, time: SimTime, event: E, weight: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry {
            time,
            seq,
            weight,
            event,
        };
        let tick = time.as_nanos() >> TICK_SHIFT;
        let delta = tick.saturating_sub(self.wheel.cur);
        if (WHEEL_MIN_DELTA..SPAN[2]).contains(&delta) {
            // Far-future: stage in the wheel so it neither poisons the
            // near deque's monotone-append invariant nor churns the heap.
            self.wheel.insert(entry, tick);
        } else {
            // `seq` is monotone, so appending whenever `time` does not
            // regress keeps `near` sorted by `(time, seq)`.
            match self.near.back() {
                Some(back) if time < back.time => self.heap.push(entry),
                _ => self.near.push_back(entry),
            }
        }
        let len = self.len();
        if len > self.peak_len {
            self.peak_len = len;
        }
        // Wheel settles only move entries between internal structures, so
        // pending weight changes here and in `pop_front` alone.
        self.pending_weight += weight;
        if self.pending_weight > self.peak_weight {
            self.peak_weight = self.pending_weight;
        }
    }

    /// The structure holding the earliest `(time, seq)`, plus that time.
    ///
    /// Needs `&mut self` because answering may flush due wheel buckets
    /// into the heap first; the flush never changes the answer's order,
    /// only where the winning entry is stored.
    fn front(&mut self) -> Option<(Front, SimTime)> {
        loop {
            let candidate = match (self.near.front(), self.heap.peek()) {
                (Some(n), Some(h)) => {
                    if (n.time, n.seq) <= (h.time, h.seq) {
                        Some((Front::Near, n.time))
                    } else {
                        Some((Front::Heap, h.time))
                    }
                }
                (Some(n), None) => Some((Front::Near, n.time)),
                (None, Some(h)) => Some((Front::Heap, h.time)),
                (None, None) => None,
            };
            match candidate {
                Some((which, time)) => {
                    let tick = time.as_nanos() >> TICK_SHIFT;
                    if self.wheel.len == 0 || self.wheel.cur >= tick {
                        // Every wheel entry sits at a tick strictly past
                        // the watermark, hence strictly past `time`.
                        return Some((which, time));
                    }
                    // A wheel entry could fire at or before `time`; flush
                    // everything up to its tick and re-compare.
                    self.wheel.settle(tick, &mut self.heap);
                }
                None => {
                    if self.wheel.len == 0 {
                        return None;
                    }
                    // Only the wheel holds events: cascade its earliest
                    // window until something reaches the heap.
                    let bound = self.wheel.earliest_bound();
                    self.wheel.settle(bound, &mut self.heap);
                }
            }
        }
    }

    fn pop_front(&mut self, which: Front) -> Option<(SimTime, E)> {
        let entry = match which {
            Front::Near => self.near.pop_front(),
            Front::Heap => self.heap.pop(),
        }?;
        self.pending_weight -= entry.weight;
        Some((entry.time, entry.event))
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (which, _) = self.front()?;
        self.pop_front(which)
    }

    /// Removes and returns the earliest event if it fires at or before
    /// `limit`; leaves the queue untouched otherwise.
    ///
    /// This is the run-loop primitive: one ordered lookup decides both
    /// "is there an event in range" and "take it", where a `peek_time`
    /// followed by `pop` would pay for the ordering twice.
    pub fn pop_if_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let (which, time) = self.front()?;
        if time > limit {
            return None;
        }
        self.pop_front(which)
    }

    /// The firing time of the earliest pending event.
    ///
    /// Takes `&mut self` because the answer may require flushing due
    /// timer-wheel buckets into the heap (see `EventQueue::front`).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.front().map(|(_, t)| t)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.near.len() + self.wheel.len
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.near.is_empty() && self.wheel.len == 0
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// High-water mark of pending events over the queue's lifetime.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Summed weights (logical elements) of pending events.
    pub fn pending_weight(&self) -> u64 {
        self.pending_weight
    }

    /// High-water mark of [`EventQueue::pending_weight`] over the queue's
    /// lifetime. Equal to [`EventQueue::peak_len`] when every push used
    /// weight 1.
    pub fn peak_weight(&self) -> u64 {
        self.peak_weight
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), 3);
        q.push(SimTime::from_secs(1), 1);
        q.push(SimTime::from_secs(2), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_millis(7), ());
        q.push(SimTime::from_millis(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(7)));
    }

    #[test]
    fn counters_track_usage() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.peak_len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.peak_len(), 2, "peak is a high-water mark");
    }

    #[test]
    fn weighted_pushes_count_logical_elements() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 0); // weight 1
        q.push_weighted(SimTime::from_millis(1), 1, 16); // a 16-element batch
        assert_eq!(q.len(), 2, "entry count is unchanged by weight");
        assert_eq!(q.pending_weight(), 17);
        assert_eq!(q.peak_weight(), 17);
        q.pop();
        assert_eq!(q.pending_weight(), 16);
        q.pop();
        assert_eq!(q.pending_weight(), 0);
        assert_eq!(q.peak_weight(), 17, "peak weight is a high-water mark");
        assert_eq!(q.peak_len(), 2);
    }

    /// Weight accounting must survive the wheel's internal settles: a
    /// far-future weighted push moves wheel → heap without touching the
    /// pending weight.
    #[test]
    fn weighted_pushes_survive_wheel_staging() {
        let mut q = EventQueue::new();
        q.push_weighted(SimTime::from_secs(30), 'a', 64); // staged in the wheel
        q.push_weighted(SimTime::from_millis(3), 'b', 4);
        assert_eq!(q.pending_weight(), 68);
        assert_eq!(q.pop(), Some((SimTime::from_millis(3), 'b')));
        assert_eq!(q.pending_weight(), 64, "settle did not double-count");
        assert_eq!(q.pop(), Some((SimTime::from_secs(30), 'a')));
        assert_eq!(q.pending_weight(), 0);
        assert_eq!(q.peak_weight(), 68);
    }

    #[test]
    fn pop_if_at_or_before_is_inclusive() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), 1);
        q.push(SimTime::from_millis(20), 2);
        assert_eq!(q.pop_if_at_or_before(SimTime::from_millis(5)), None);
        assert_eq!(q.len(), 2, "a refused pop leaves the queue untouched");
        assert_eq!(
            q.pop_if_at_or_before(SimTime::from_millis(10)),
            Some((SimTime::from_millis(10), 1)),
            "the limit itself is in range"
        );
        assert_eq!(q.pop_if_at_or_before(SimTime::from_millis(19)), None);
        assert_eq!(
            q.pop_if_at_or_before(SimTime::from_millis(25)),
            Some((SimTime::from_millis(20), 2))
        );
        assert_eq!(q.pop_if_at_or_before(SimTime::from_millis(25)), None);
        assert!(q.is_empty());
    }

    /// Reference model: a stable sort by `(time, seq)` over everything pushed.
    fn reference_order(pushes: &[(SimTime, usize)]) -> Vec<usize> {
        let mut indexed: Vec<(SimTime, usize)> = pushes.to_vec();
        indexed.sort_by_key(|&(t, i)| (t, i)); // push index doubles as seq
        indexed.into_iter().map(|(_, i)| i).collect()
    }

    /// Property: for random push schedules (many duplicate times, so both the
    /// deque and the heap see traffic), drain order equals the stable sort.
    #[test]
    fn random_schedules_match_stable_sort() {
        let mut rng = SimRng::seed_from(0xDECADE);
        for round in 0..50 {
            let n = 1 + (rng.next_u64() % 200) as usize;
            let mut pushes = Vec::with_capacity(n);
            let mut q = EventQueue::new();
            for i in 0..n {
                // Small time range forces heavy tie-breaking; occasional
                // big jumps exercise the deque/heap split and push times
                // out to every timer-wheel level (ticks are ~1 ms, so
                // seconds-to-minutes delays cross levels 1 and 2).
                let t = match rng.next_u64() % 8 {
                    0 => SimTime::from_millis(rng.next_u64() % 100),
                    1 => SimTime::from_millis(200 + 100 * (rng.next_u64() % 40)),
                    2 => SimTime::from_secs(5 + rng.next_u64() % 400),
                    _ => SimTime::from_millis(rng.next_u64() % 8),
                };
                pushes.push((t, i));
                q.push(t, i);
            }
            let got: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(got, reference_order(&pushes), "round {round}");
        }
    }

    /// Property: interleaving pops with pushes (the run-loop pattern, where
    /// handlers schedule at-or-after `now`) preserves the same order as
    /// replaying the surviving pushes through the reference sort.
    #[test]
    fn interleaved_pop_push_matches_reference() {
        let mut rng = SimRng::seed_from(7_070_707);
        for round in 0..50 {
            let mut q = EventQueue::new();
            let mut pushes: Vec<(SimTime, usize)> = Vec::new();
            let mut drained: Vec<usize> = Vec::new();
            let mut now = SimTime::ZERO;
            for i in 0..150 {
                // Push one event at or after `now` (zero delay half the time,
                // like data-plane hops), occasionally far in the future —
                // including delays that land in every timer-wheel level and
                // past the wheel's horizon entirely.
                let delay_ms = match rng.next_u64() % 16 {
                    0..=7 => 0,
                    8..=11 => rng.next_u64() % 3,
                    12..=13 => 10 + rng.next_u64() % 50,
                    14 => 100 + 100 * (rng.next_u64() % 50),
                    _ => 10_000 + 1_000 * (rng.next_u64() % 400),
                };
                let t = now + crate::SimDuration::from_millis(delay_ms);
                pushes.push((t, i));
                q.push(t, i);
                // Pop roughly every other push, advancing the clock.
                if rng.next_u64().is_multiple_of(2) {
                    if let Some((t, e)) = q.pop() {
                        assert!(t >= now, "time went backwards in round {round}");
                        now = t;
                        drained.push(e);
                    }
                }
            }
            drained.extend(std::iter::from_fn(|| q.pop().map(|(_, e)| e)));
            assert_eq!(drained, reference_order(&pushes), "round {round}");
        }
    }

    /// Only far-future events: the heap and near deque stay empty, so every
    /// front-of-queue answer must come from cascading the wheel itself
    /// (the `earliest_bound` path), across all three levels.
    #[test]
    fn wheel_only_schedules_drain_in_order() {
        let mut rng = SimRng::seed_from(0xBEEF);
        for round in 0..20 {
            let mut q = EventQueue::new();
            let mut pushes = Vec::new();
            for i in 0..120 {
                // 5 ms to ~7 simulated minutes: levels 0, 1, 2 and beyond.
                let t = SimTime::from_millis(5 + rng.next_u64() % 400_000);
                pushes.push((t, i));
                q.push(t, i);
            }
            assert_eq!(q.len(), 120);
            let got: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(got, reference_order(&pushes), "round {round}");
        }
    }

    /// The heartbeat pattern: 2,049 timers fire at one instant and each
    /// re-arms 100 ms out, so the burst walks the level-0 and level-1
    /// slots, while every third firing also schedules something 0–3 ms out
    /// (near deque, heap and level 0). Pop order must equal the stable
    /// sort, and the slab must stay at the peak number of pending events
    /// rather than grow with the slots the burst has visited.
    #[test]
    fn heartbeat_bursts_walk_every_slot_without_growing_the_slab() {
        let period = crate::SimDuration::from_millis(100);
        let mut rng = SimRng::seed_from(0x4EA7);
        let mut q = EventQueue::new();
        let mut pushes: Vec<(SimTime, usize)> = Vec::new();
        let mut schedule = |q: &mut EventQueue<(usize, bool)>, t: SimTime, timer: bool| {
            q.push(t, (pushes.len(), timer));
            pushes.push((t, pushes.len()));
        };
        for _ in 0..2_049 {
            schedule(&mut q, SimTime::ZERO + period, true);
        }
        let mut drained: Vec<usize> = Vec::new();
        let mut slots_seen = [0u64; 2];
        for round in 1..=200u64 {
            let horizon = SimTime::ZERO + period * round;
            while let Some((t, (i, timer))) = q.pop_if_at_or_before(horizon) {
                drained.push(i);
                if timer {
                    schedule(&mut q, t + period, true);
                    if i % 3 == 0 {
                        let soon = crate::SimDuration::from_nanos(rng.next_u64() % 3_000_000);
                        schedule(&mut q, t + soon, false);
                    }
                }
            }
            let tick = horizon.as_nanos() >> TICK_SHIFT;
            slots_seen[0] |= 1 << Wheel::<()>::slot_of(0, tick);
            slots_seen[1] |= 1 << Wheel::<()>::slot_of(1, tick);
            assert!(
                q.wheel.slab.len() <= q.peak_len(),
                "round {round}: {} slab slots for at most {} pending events",
                q.wheel.slab.len(),
                q.peak_len()
            );
        }
        assert_eq!(slots_seen[0], !0, "the burst visited every level-0 slot");
        assert!(slots_seen[1].count_ones() > 48, "and most of level 1");
        drained.extend(std::iter::from_fn(|| q.pop().map(|(_, (i, _))| i)));
        assert_eq!(drained, reference_order(&pushes));
    }

    /// Ties between wheel-staged events and direct near-deque pushes at the
    /// exact same instant must still break FIFO by sequence number.
    #[test]
    fn wheel_and_direct_pushes_tie_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(500);
        q.push(t, 0); // staged in the wheel (far future from tick 0)
        q.push(SimTime::from_millis(600), 1); // wheel, fires later
                                              // Popping 0 settles the watermark to t's tick...
        assert_eq!(q.pop(), Some((t, 0)));
        // ...so same-instant pushes now take the near-deque path, yet must
        // still drain after nothing and before the later wheel entry.
        q.push(t, 2);
        q.push(t, 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    /// `peek_time` may flush wheel buckets into the heap, but the answer —
    /// and the subsequent pop — must match the heap-only semantics.
    #[test]
    fn peek_time_sees_wheel_events() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(30), 'a'); // level 1–2 territory
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(30)));
        assert_eq!(q.len(), 1);
        q.push(SimTime::from_millis(3), 'b');
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(3), 'b')));
        assert_eq!(q.pop(), Some((SimTime::from_secs(30), 'a')));
        assert!(q.is_empty());
    }

    /// The wrapped occupancy-range mask: positions `(from, to]` mod 64.
    #[test]
    fn range_mask_wraps_and_saturates() {
        assert_eq!(range_mask(0, 1), 0b10);
        assert_eq!(range_mask(0, 3), 0b1110);
        assert_eq!(range_mask(62, 64), (1 << 63) | 1, "wraps past slot 63");
        assert_eq!(range_mask(10, 10 + 64), !0, "full window");
        assert_eq!(range_mask(7, 7 + 1000), !0, "beyond a window saturates");
    }
}
