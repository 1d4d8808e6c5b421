//! `LineageTable` against a reference model. The table stores rows in
//! per-stream chunked columns; the oracle below is the obvious keyed map.
//! Seeded random op sequences drive both, and after every step each key
//! any op has touched must read back identically through `record`,
//! `decompose`, `len` and `delivered`.

use std::collections::{BTreeMap, BTreeSet};

use sps_sim::{SimRng, SimTime};
use sps_trace::{ElementKey, HopTiming, LineageTable, TupleRecord, SOURCE_PE};

/// The oracle: one map entry per element, one lookup per touched sequence.
#[derive(Default)]
struct MapLineage {
    records: BTreeMap<ElementKey, TupleRecord>,
    delivered: Vec<(ElementKey, SimTime)>,
    sink_pos: BTreeMap<(u32, u32), u64>,
}

fn ms_between(from: SimTime, to: SimTime) -> f64 {
    (to.as_nanos().saturating_sub(from.as_nanos())) as f64 / 1e6
}

impl MapLineage {
    fn insert_if_absent(&mut self, key: ElementKey, rec: TupleRecord) {
        self.records.entry(key).or_insert(rec);
    }

    fn record_root(&mut self, key: ElementKey, emitted_at: SimTime) {
        self.insert_if_absent(
            key,
            TupleRecord {
                parent: None,
                pe: SOURCE_PE,
                replica: 0,
                emitted_at,
                sent_at: None,
                recv_at: None,
                proc_start_at: None,
                retransmits: 0,
            },
        );
    }

    fn record_hop(
        &mut self,
        parent: ElementKey,
        key: ElementKey,
        pe: u32,
        replica: u8,
        at: SimTime,
    ) {
        self.insert_if_absent(
            key,
            TupleRecord {
                parent: Some(parent),
                pe,
                replica,
                emitted_at: at,
                sent_at: None,
                recv_at: None,
                proc_start_at: None,
                retransmits: 0,
            },
        );
    }

    fn for_range(
        &mut self,
        stream: u32,
        start: u64,
        end: u64,
        mut f: impl FnMut(&mut TupleRecord),
    ) {
        for seq in start..=end {
            if let Some(r) = self.records.get_mut(&(stream, seq)) {
                f(r);
            }
        }
    }

    fn record_delivery(&mut self, sink: u32, stream: u32, through: u64, at: SimTime) {
        let pos = self.sink_pos.entry((sink, stream)).or_insert(0);
        while *pos < through {
            *pos += 1;
            self.delivered.push(((stream, *pos), at));
        }
    }

    fn decompose(&self, key: ElementKey) -> Option<Vec<HopTiming>> {
        let mut chain = Vec::new();
        let mut cur = Some(key);
        while let Some(k) = cur {
            let r = self.records.get(&k)?;
            chain.push((k, *r));
            cur = r.parent;
        }
        chain.reverse();
        let mut hops = Vec::new();
        for (i, &(k, r)) in chain.iter().enumerate() {
            let sent = r.sent_at.unwrap_or(r.emitted_at);
            let recv = r.recv_at.unwrap_or(sent);
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

/// Stream ids the ops draw from, in derivation order: an element's parent
/// always sits on an earlier entry, which keeps every parent chain
/// acyclic. 2,049 leaves a run of never-written columns before it.
const STREAMS: [u32; 4] = [0, 1, 2, 2_049];

/// Sequence neighbourhoods: the first slots, both sides of the first three
/// chunk boundaries, and a far cluster. Drawn in random order, so a
/// column's first write is usually not its lowest and later writes land
/// below its base.
const SEQ_BASES: [u64; 6] = [1, 1_021, 2_045, 3_070, 5_000, 70_000];

fn draw_seq(rng: &mut SimRng) -> u64 {
    *rng.pick(&SEQ_BASES) + rng.uniform_u64(0, 7)
}

fn draw_range(rng: &mut SimRng) -> (u64, u64) {
    let start = draw_seq(rng);
    // Mostly batch-sized, sometimes wide enough to cross several chunks
    // (and the vacant ones between the neighbourhoods).
    let len = if rng.chance(0.2) {
        rng.uniform_u64(1_000, 4_200)
    } else {
        rng.uniform_u64(1, 70)
    };
    (start, start + len - 1)
}

struct Harness {
    table: LineageTable,
    model: MapLineage,
    touched: BTreeSet<ElementKey>,
}

impl Harness {
    /// Range ops create nothing, so every record inside a range is already
    /// touched by the op that made it; what a range adds is its edges.
    fn touch_range(&mut self, stream: u32, start: u64, end: u64) {
        let edges = [start.saturating_sub(1), start, end, end + 1];
        self.touched.extend(edges.map(|seq| (stream, seq)));
    }

    fn step(&mut self, rng: &mut SimRng, now: SimTime) {
        let si = rng.uniform_u64(0, STREAMS.len() as u64) as usize;
        let stream = STREAMS[si];
        let key = (stream, draw_seq(rng));
        self.touched.insert(key);
        match rng.uniform_u64(0, 11) {
            0 | 1 => {
                self.table.record_root(key, now);
                self.model.record_root(key, now);
            }
            2 | 3 if si > 0 => {
                // Any earlier stream's key as parent, recorded or not; both
                // AS replicas report the same child, the first one wins.
                let parent = (
                    STREAMS[rng.uniform_u64(0, si as u64) as usize],
                    draw_seq(rng),
                );
                self.touched.insert(parent);
                let (pe, replica) = (rng.uniform_u64(0, 8) as u32, rng.uniform_u64(0, 2) as u8);
                self.table.record_hop(parent, key, pe, replica, now);
                self.model.record_hop(parent, key, pe, replica, now);
            }
            2 | 3 => {
                self.table.note_sent(key, now);
                self.model.for_range(stream, key.1, key.1, |r| {
                    r.sent_at.get_or_insert(now);
                });
            }
            4 => {
                self.table.note_recv(key, now);
                self.model.for_range(stream, key.1, key.1, |r| {
                    r.recv_at.get_or_insert(now);
                });
            }
            5 => {
                self.table.note_proc_start(key, now);
                self.model.for_range(stream, key.1, key.1, |r| {
                    r.proc_start_at.get_or_insert(now);
                });
            }
            6 => {
                let (start, end) = draw_range(rng);
                self.touch_range(stream, start, end);
                self.table.note_sent_range(stream, start, end, now);
                self.model.for_range(stream, start, end, |r| {
                    r.sent_at.get_or_insert(now);
                });
            }
            7 => {
                let (start, end) = draw_range(rng);
                self.touch_range(stream, start, end);
                self.table.note_recv_range(stream, start, end, now);
                self.model.for_range(stream, start, end, |r| {
                    r.recv_at.get_or_insert(now);
                });
            }
            8 => {
                let (start, end) = draw_range(rng);
                self.touch_range(stream, start, end);
                self.table.mark_retransmit_range(stream, start, end);
                self.model
                    .for_range(stream, start, end, |r| r.retransmits += 1);
            }
            9 => {
                self.table.mark_retransmit(key);
                self.model
                    .for_range(stream, key.1, key.1, |r| r.retransmits += 1);
            }
            _ => {
                // Cumulative and possibly stale or gap-filling; two sinks
                // keep separate positions on the same stream.
                let (sink, through) = (rng.uniform_u64(0, 2) as u32, rng.uniform_u64(0, 40));
                self.touch_range(stream, 1, through);
                self.table.record_delivery(sink, stream, through, now);
                self.model.record_delivery(sink, stream, through, now);
            }
        }
    }

    fn assert_equal(&self, case: u64, step: u64) {
        assert_eq!(
            self.table.len(),
            self.model.records.len(),
            "case {case} step {step}: len"
        );
        assert_eq!(self.table.is_empty(), self.model.records.is_empty());
        assert_eq!(
            self.table.delivered(),
            &self.model.delivered[..],
            "case {case} step {step}: delivery log"
        );
        for &k in &self.touched {
            assert_eq!(
                self.table.record(k),
                self.model.records.get(&k).copied(),
                "case {case} step {step}: record({k:?})"
            );
            assert_eq!(
                self.table.decompose(k),
                self.model.decompose(k),
                "case {case} step {step}: decompose({k:?})"
            );
        }
    }
}

#[test]
fn chunked_columns_match_a_keyed_map_under_random_ops() {
    for case in 0..24 {
        let mut rng = SimRng::seed_from(0x11EA_6E00 + case);
        let mut h = Harness {
            // Half the cases pre-size the columns the way the world does.
            table: if case % 2 == 0 {
                LineageTable::new()
            } else {
                LineageTable::with_streams(3)
            },
            model: MapLineage::default(),
            touched: BTreeSet::new(),
        };
        for step in 0..400 {
            h.step(&mut rng, SimTime::from_micros(step * 37));
            h.assert_equal(case, step);
        }
        assert!(h.table.len() > 20, "case {case}: ops mostly missed");
    }
}

/// The straddling cases by hand, so a reader can see them: rows on both
/// sides of a chunk boundary, a range over a vacant chunk, a first write
/// far above and then below it.
#[test]
fn chunk_boundaries_and_writes_below_the_base() {
    let t = SimTime::from_millis;
    let mut l = LineageTable::new();
    l.record_root((2_049, 5_000), t(1)); // first write: base is chunk 4
    assert_eq!(l.len(), 1);
    for seq in [1_023, 1_024, 1_025] {
        l.record_root((2_049, seq), t(2)); // below the base, across a boundary
    }
    l.record_root((2_049, 1), t(3));
    assert_eq!(l.len(), 5);
    assert_eq!(l.record((2_049, 5_000)).unwrap().emitted_at, t(1));
    assert_eq!(
        l.record((2_049, 1_022)),
        None,
        "vacant slot in a live chunk"
    );
    assert_eq!(l.record((2_049, 3_000)), None, "vacant chunk");
    assert_eq!(l.record((2_048, 1)), None, "column never written");
    assert_eq!(l.record((9_999, 1)), None, "column never created");

    // 1..=5000 covers five chunks, two of them vacant.
    l.note_sent_range(2_049, 1, 5_000, t(4));
    l.mark_retransmit_range(2_049, 1_024, u64::MAX);
    for (seq, rewound) in [
        (1, false),
        (1_023, false),
        (1_024, true),
        (1_025, true),
        (5_000, true),
    ] {
        let r = l.record((2_049, seq)).unwrap();
        assert_eq!(r.sent_at, Some(t(4)), "seq {seq}");
        assert_eq!(r.retransmitted(), rewound, "seq {seq}");
    }
    assert_eq!(l.len(), 5, "range ops create nothing");
}
