//! Randomized property tests for engine invariants: queue
//! retention/trimming, duplicate elimination, and checkpoint/restore
//! equivalence. Driven by seeded [`SimRng`] loops.
//!
//! The last four tests hold every bulk (run) operation to the per-element
//! form it replaced: `ChunkedDeque` bulk ops against a `VecDeque` model,
//! `InputQueue::offer_run` against repeated `offer`, batch completion
//! against [`ElementwisePe`] (one `Operator::process` per element), and
//! `OutputSession::give_run` against repeated `give`. One more holds
//! `Job`'s precomputed topology lookups to the linear scans they replaced.

use std::sync::Arc;

use sps_engine::{
    ConnectionId, Consumer, DataElement, Dest, Emitter, InputQueue, InstanceId, Job, JobBuilder,
    Offer, Operator, OperatorFactory, OperatorSpec, OperatorState, OutputQueue, Payload, PeId,
    PeInstance, Producer, Replica, SinkId, SourceId, StreamId, WorkBatch,
};
use sps_sim::{SimRng, SimTime};

fn elem(stream: u32, seq: u64, value: f64) -> DataElement {
    DataElement {
        stream: StreamId(stream),
        seq,
        created_at: SimTime::ZERO,
        key: 0,
        value,
        size_bytes: 256,
    }
}

/// Starts and completes `inst`'s next element, the way the runtime does at
/// batch size 1: the `(output port, element)` pairs it produced, or `None`
/// if nothing can start.
fn process_next(inst: &mut PeInstance) -> Option<Vec<(usize, DataElement)>> {
    inst.start_next_batch(1)?;
    let mut produced = Vec::new();
    inst.finish_batch(
        &mut Emitter::default(),
        &mut Vec::new(),
        |_, port, child| produced.push((port, *child)),
    );
    Some(produced)
}

/// Retention: an output queue never trims an element past the minimum
/// acknowledged position of its trim-relevant consumers, and retained
/// sequence numbers are always the contiguous suffix above the trim floor.
#[test]
fn output_queue_retention_invariant() {
    let mut rng = SimRng::seed_from(0x0077);
    for _case in 0..48 {
        let ops = rng.uniform_u64(1, 120);
        let mut q: OutputQueue<u8> = OutputQueue::new(StreamId(0));
        let a = q.connect(0, true, true);
        let b = q.connect(1, true, true);
        let mut acked = [0u64, 0];
        for _ in 0..ops {
            let which = rng.uniform_u64(0, 2);
            let val = rng.uniform_u64(0, 40);
            if which == 0 {
                q.produce(Payload::new(0, 0.0), SimTime::ZERO);
            } else {
                let conn = if val.is_multiple_of(2) { a } else { b };
                let idx = (val % 2) as usize;
                let target = (acked[idx] + val / 2).min(q.next_seq() - 1);
                acked[idx] = acked[idx].max(target);
                q.register_ack(conn, target);
            }
            let floor = acked[0].min(acked[1]);
            assert_eq!(q.trimmed_through(), floor.min(q.next_seq() - 1));
            assert_eq!(
                q.retained_len() as u64,
                q.next_seq() - 1 - q.trimmed_through(),
                "retained is exactly the unacked suffix"
            );
        }
    }
}

/// Duplicate elimination: offering any multiset of sequence numbers (each
/// appearing at least once) accepts each exactly once, in order.
#[test]
fn input_queue_accepts_each_seq_once() {
    let mut rng = SimRng::seed_from(0xDEDC);
    for _case in 0..48 {
        let n = rng.uniform_u64(1, 150);
        let mut seqs: Vec<u64> = (0..n).map(|_| rng.uniform_u64(1, 30)).collect();
        // Ensure contiguity 1..=max by appending the full range, then the
        // random multiset acts as duplicates/reorderings.
        let max = *seqs.iter().max().unwrap();
        seqs.extend(1..=max);
        let mut q = InputQueue::new();
        q.register_stream(StreamId(0));
        for s in &seqs {
            let _ = q.offer(elem(0, *s, *s as f64));
        }
        let taken: Vec<u64> = std::iter::from_fn(|| q.take_next().map(|e| e.seq)).collect();
        assert_eq!(taken, (1..=max).collect::<Vec<_>>());
    }
}

/// Checkpoint/restore equivalence: processing a prefix, checkpointing,
/// restoring into a fresh instance, and replaying the suffix yields the
/// same outputs as processing everything in one instance. This is the
/// engine-level core of the paper's recovery-correctness guarantee for
/// deterministic stateful PEs.
#[test]
fn restore_then_replay_equals_straight_run() {
    let mut rng = SimRng::seed_from(0xCE9A);
    for _case in 0..32 {
        let n_values = rng.uniform_u64(2, 60);
        let values: Vec<f64> = (0..n_values).map(|_| rng.uniform(-100.0, 100.0)).collect();
        let cut_frac = rng.uniform(0.1, 0.9);
        let window = rng.uniform_u64(1, 5);
        let spec = OperatorSpec::WindowAggregate {
            window,
            agg: sps_engine::AggKind::Sum,
            demand_secs: 1e-4,
        };
        let build = || {
            let mut inst = PeInstance::new(
                InstanceId {
                    pe: PeId(0),
                    replica: Replica::Primary,
                },
                spec.clone(),
                1,
                &[StreamId(9)],
            );
            inst.register_input_stream(0, StreamId(0));
            inst
        };
        let run = |inst: &mut PeInstance, seqs: std::ops::RangeInclusive<u64>| -> Vec<(u64, f64)> {
            let mut out = Vec::new();
            for s in seqs {
                let _ = inst.offer(0, elem(0, s, values[(s - 1) as usize]));
            }
            while let Some(produced) = process_next(inst) {
                out.extend(produced.iter().map(|(_, e)| (e.seq, e.value)));
            }
            out
        };

        let n = values.len() as u64;
        let cut = ((n as f64 * cut_frac) as u64).clamp(1, n - 1);

        // Reference: straight run.
        let mut reference = build();
        let want = run(&mut reference, 1..=n);

        // Prefix, checkpoint, restore, replay (with overlapping duplicates).
        let mut primary = build();
        let mut got = run(&mut primary, 1..=cut);
        let ckpt = primary.snapshot(1, None);
        let mut recovered = build();
        recovered.restore(&ckpt);
        // Retransmission overlaps: resend from 1 (all dups below cut).
        got.extend(run(&mut recovered, 1..=n));

        assert_eq!(got, want);
    }
}

/// Gap stashing: elements offered in any permutation are processed in
/// sequence order once contiguous.
#[test]
fn permuted_arrivals_processed_in_order() {
    let mut rng = SimRng::seed_from(0x9A95);
    for _case in 0..48 {
        let n = rng.uniform_u64(1, 40);
        let mut order: Vec<u64> = (1..=n).collect();
        // Fisher-Yates over the deterministic stream.
        for i in (1..order.len()).rev() {
            let j = rng.uniform_u64(0, i as u64 + 1) as usize;
            order.swap(i, j);
        }
        let mut q = InputQueue::new();
        q.register_stream(StreamId(0));
        let mut accepted = 0usize;
        for s in order {
            match q.offer(elem(0, s, 0.0)) {
                Offer::Accepted(k) => accepted += k,
                Offer::Stashed => {}
                Offer::Duplicate => panic!("no duplicates offered"),
            }
        }
        assert_eq!(accepted as u64, n);
        let taken: Vec<u64> = std::iter::from_fn(|| q.take_next().map(|e| e.seq)).collect();
        assert_eq!(taken, (1..=n).collect::<Vec<_>>());
    }
}

/// Two replicas fed identical inputs emit byte-identical output streams —
/// the determinism assumption behind active standby, checked end-to-end
/// through the PE runtime (not just the operator).
#[test]
fn replicas_are_equivalent_through_the_runtime() {
    let spec = OperatorSpec::synthetic_default();
    let build = |replica| {
        let mut inst = PeInstance::new(
            InstanceId {
                pe: PeId(0),
                replica,
            },
            spec.clone(),
            1,
            &[StreamId(9)],
        );
        inst.register_input_stream(0, StreamId(0));
        inst
    };
    let mut a = build(Replica::Primary);
    let mut b = build(Replica::Secondary);
    let mut out_a = Vec::new();
    let mut out_b = Vec::new();
    for s in 1..=200u64 {
        let e = elem(0, s, (s as f64).cos());
        a.offer(0, e);
        b.offer(0, e);
        while let Some(produced) = process_next(&mut a) {
            out_a.extend(produced);
        }
        while let Some(produced) = process_next(&mut b) {
            out_b.extend(produced);
        }
    }
    assert_eq!(out_a, out_b);
    assert_eq!(a.snapshot(1, None), b.snapshot(1, None));
}

/// Coalescing: for random dispatch interleavings (destinations, streams,
/// and stream switches chosen at random), draining an [`OutputSession`]
/// run-by-run delivers exactly the same elements in exactly the same order
/// as a naive one-element-per-message reference, and expanding each run's
/// `(stream, seq_start..=seq_end)` range stamp reproduces the reference's
/// per-tuple lineage totals — no element is absorbed into or invented by a
/// range.
#[test]
fn output_session_coalescing_matches_naive_reference() {
    use std::collections::BTreeMap;

    use sps_engine::OutputSession;

    let mut rng = SimRng::seed_from(0xBA7C);
    for case in 0..64 {
        let batch_size = [1u32, 2, 3, 8, 64][rng.uniform_u64(0, 5) as usize];
        let mut session: OutputSession<u8> = OutputSession::new(batch_size);
        let mut naive: Vec<(u8, DataElement)> = Vec::new();
        let mut next_seq = [1u64; 2];
        for _ in 0..rng.uniform_u64(1, 200) {
            let dest = rng.uniform_u64(0, 3) as u8;
            let stream = rng.uniform_u64(0, 2) as usize;
            let e = elem(stream as u32, next_seq[stream], 0.0);
            next_seq[stream] += 1;
            session.give(dest, e);
            naive.push((dest, e));
        }
        assert_eq!(session.element_count(), naive.len(), "case {case}");

        let mut flattened: Vec<(u8, DataElement)> = Vec::new();
        let mut range_totals: BTreeMap<(u32, u64), u64> = BTreeMap::new();
        for i in 0..session.run_count() {
            let (dest, run) = session.run(i);
            assert!(!run.is_empty(), "case {case}: empty run");
            assert!(
                run.len() <= batch_size as usize,
                "case {case}: run exceeds batch size"
            );
            for (j, e) in run.iter().enumerate() {
                assert_eq!(e.stream, run[0].stream, "case {case}: mixed-stream run");
                assert_eq!(
                    e.seq,
                    run[0].seq + j as u64,
                    "case {case}: non-consecutive run"
                );
                flattened.push((dest, *e));
            }
            // The range stamp a DataBatch would carry for this run.
            let (seq_start, seq_end) = (run[0].seq, run[run.len() - 1].seq);
            for seq in seq_start..=seq_end {
                *range_totals.entry((run[0].stream.0, seq)).or_insert(0) += 1;
            }
        }
        assert_eq!(flattened, naive, "case {case}: delivered order differs");

        let mut naive_totals: BTreeMap<(u32, u64), u64> = BTreeMap::new();
        for (_, e) in &naive {
            *naive_totals.entry((e.stream.0, e.seq)).or_insert(0) += 1;
        }
        assert_eq!(
            range_totals, naive_totals,
            "case {case}: lineage decomposition differs"
        );

        session.clear();
        assert_eq!(session.run_count(), 0);
        assert_eq!(session.element_count(), 0);
    }
}

/// Sendable-port set: under random interleavings of produce, the four
/// connection transitions (resume, replay, suspend, rewind), acks, late
/// connections, restore, and
/// dispatches that skip some connections (partitioned links), draining
/// only the ports in the set yields exactly the `(port, conn, seqs)`
/// sequence a scan of every port yields — the set never hides a sendable
/// element and never reorders a send.
#[test]
fn sendable_set_drain_matches_full_port_scan() {
    const PORTS: usize = 130; // three bitset words, the last one partial
    type Sent = Vec<(usize, usize, Vec<u64>)>;

    let build = || {
        let streams: Vec<StreamId> = (0..PORTS as u32).map(|p| StreamId(100 + p)).collect();
        let mut inst = PeInstance::new(
            InstanceId {
                pe: PeId(0),
                replica: Replica::Primary,
            },
            OperatorSpec::ShardRouter {
                shards: PORTS as u32,
                demand_secs: 1e-6,
            },
            1,
            &streams,
        );
        inst.register_input_stream(0, StreamId(0));
        for port in 0..PORTS {
            // A serving consumer plus an early (inactive) standby link.
            inst.connect_output(port, Dest::Sink(SinkId(0)), true);
            inst.connect_output(port, Dest::Sink(SinkId(1)), false);
        }
        inst
    };
    // What a dispatch that leaves `skipped` connections alone sends.
    let via_set = |inst: &mut PeInstance, skipped: &dyn Fn(usize, usize) -> bool| -> Sent {
        let mut conns = Vec::new();
        inst.take_sendable_conns(&mut conns);
        let mut sent = Sent::new();
        for (port, conn, _) in conns {
            if skipped(port, conn.0) {
                if inst.output(port).has_unsent(conn) {
                    inst.mark_sendable(port);
                }
                continue;
            }
            let mut out = Vec::new();
            if inst.drain_sendable_into(port, conn, &mut out) > 0 {
                sent.push((port, conn.0, out.iter().map(|e| e.seq).collect()));
            }
        }
        sent
    };
    let via_scan = |inst: &mut PeInstance, skipped: &dyn Fn(usize, usize) -> bool| -> Sent {
        let mut sent = Sent::new();
        for port in 0..PORTS {
            for ci in 0..inst.output(port).connections().len() {
                if !inst.output(port).connection(ConnectionId(ci)).active || skipped(port, ci) {
                    continue;
                }
                let out = inst.with_output(port, |q| q.drain_sendable(ConnectionId(ci)));
                if !out.is_empty() {
                    sent.push((port, ci, out.iter().map(|e| e.seq).collect()));
                }
            }
        }
        sent
    };

    let mut rng = SimRng::seed_from(0x5E7D);
    for case in 0..24 {
        let (mut set, mut scan) = (build(), build());
        let mut next_in = 1u64;
        let mut ckpt = set.snapshot(1, None);
        let mut total_sent = 0usize;
        for step in 0..rng.uniform_u64(50, 400) {
            // The same mutation on both instances.
            let port = rng.uniform_u64(0, PORTS as u64) as usize;
            let conns = set.output(port).connections().len();
            let conn = ConnectionId(rng.uniform_u64(0, conns as u64) as usize);
            let head = set.output(port).next_seq();
            match rng.uniform_u64(0, 10) {
                0..=3 => {
                    for _ in 0..rng.uniform_u64(1, 6) {
                        let mut e = elem(0, next_in, 0.0);
                        e.key = rng.next_u64();
                        next_in += 1;
                        for inst in [&mut set, &mut scan] {
                            inst.offer(0, e);
                            process_next(inst).expect("just offered");
                        }
                    }
                }
                4 => {
                    let replay = rng.chance(0.6);
                    let [a, b] = [&mut set, &mut scan].map(|inst| {
                        inst.with_output(port, |q| {
                            if replay {
                                q.replay(conn)
                            } else {
                                q.suspend(conn);
                                0..0
                            }
                        })
                    });
                    assert_eq!(a, b, "case {case} step {step}: replay ranges");
                }
                5 => {
                    let resume_after = rng.chance(0.5).then(|| rng.uniform_u64(0, head));
                    let [a, b] = [&mut set, &mut scan].map(|inst| {
                        inst.with_output(port, |q| match resume_after {
                            Some(after) => q.resume(conn, after),
                            None => q.rewind(conn),
                        })
                    });
                    assert_eq!(a, b, "case {case} step {step}: resend ranges");
                    let trimmed = set.output(port).trimmed_through();
                    assert!(
                        a.is_empty() || a.start > trimmed,
                        "resend from a trimmed seq"
                    );
                }
                6 => {
                    // Acknowledge only what this connection has sent, so
                    // trimming never overtakes a send cursor.
                    let sent_through = set.output(port).connection(conn).next_to_send - 1;
                    let seq = rng.uniform_u64(0, sent_through + 1);
                    for inst in [&mut set, &mut scan] {
                        inst.register_ack(port, conn, seq);
                    }
                }
                7 if conns < 4 => {
                    let active = rng.chance(0.5);
                    for inst in [&mut set, &mut scan] {
                        inst.connect_output(port, Dest::Sink(SinkId(9)), active);
                    }
                }
                8 => {
                    if rng.chance(0.4) {
                        ckpt = set.snapshot(step as u32 + 2, None);
                    } else {
                        if rng.chance(0.5) {
                            // Redeploy: the checkpoint lands in fresh copies
                            // whose cursors sit at the start of every stream
                            // and whose sets a first dispatch has emptied.
                            (set, scan) = (build(), build());
                            assert_eq!(via_set(&mut set, &|_, _| false), Sent::new());
                        }
                        set.restore(&ckpt);
                        scan.restore(&ckpt);
                        // Upstream retention replays from the restored
                        // input position.
                        next_in = set.input_positions(0)[0].1 + 1;
                    }
                }
                _ => {}
            }
            assert!(
                set.sendable_set_is_complete(),
                "case {case} step {step}: a sendable port fell out of the set"
            );
            if rng.chance(0.5) {
                let modulus = rng.uniform_u64(1, 6) as usize;
                let rem = rng.uniform_u64(0, 6) as usize;
                let skipped = move |port: usize, ci: usize| (port * 4 + ci) % modulus == rem;
                let got = via_set(&mut set, &skipped);
                let want = via_scan(&mut scan, &skipped);
                assert_eq!(got, want, "case {case} step {step}: set drain != full scan");
                total_sent += got.len();
            }
        }
        // Heal every link: the skipped backlogs flow, identically.
        let got = via_set(&mut set, &|_, _| false);
        assert_eq!(got, via_scan(&mut scan, &|_, _| false), "case {case}: heal");
        assert!(
            total_sent + got.len() > 0,
            "case {case}: nothing was ever sent"
        );
        assert_eq!(via_set(&mut set, &|_, _| false), Sent::new(), "drained");
    }
}

/// A 130-port router (three bitset words, the last one partial) fed from
/// stream 0, with a serving sink and an early (inactive) standby link per
/// port.
fn router(ports: usize) -> PeInstance {
    let streams: Vec<StreamId> = (0..ports as u32).map(|p| StreamId(100 + p)).collect();
    let mut inst = PeInstance::new(
        InstanceId {
            pe: PeId(0),
            replica: Replica::Primary,
        },
        OperatorSpec::ShardRouter {
            shards: ports as u32,
            demand_secs: 1e-6,
        },
        1,
        &streams,
    );
    inst.register_input_stream(0, StreamId(0));
    for port in 0..ports {
        inst.connect_output(port, Dest::Sink(SinkId(0)), true);
        inst.connect_output(port, Dest::Sink(SinkId(1)), false);
    }
    inst
}

/// Asserts that two copies hold the same queues, cursors, unsent
/// connections, operator state and input positions, port by port.
fn assert_same_copy(a: &PeInstance, b: &PeInstance, what: &str) {
    assert_eq!(a.operator_state(), b.operator_state(), "{what}: operator");
    assert_eq!(a.input_positions(0), b.input_positions(0), "{what}: inputs");
    for port in 0..a.output_ports() {
        let (qa, qb) = (a.output(port), b.output(port));
        assert_eq!(qa.snapshot(), qb.snapshot(), "{what}: port {port} queue");
        assert_eq!(
            qa.trimmed_through(),
            qb.trimmed_through(),
            "{what}: port {port}"
        );
        let conns = |q: &OutputQueue<Dest>| -> Vec<(Dest, bool, u64, u64, bool)> {
            (0..q.connections().len())
                .map(|ci| {
                    let c = q.connection(ConnectionId(ci));
                    let unsent = q.has_unsent(ConnectionId(ci));
                    (c.dest, c.active, c.next_to_send, c.acked, unsent)
                })
                .collect()
        };
        assert_eq!(conns(qa), conns(qb), "{what}: port {port} cursors");
    }
    assert_eq!(a.output_backlog(), b.output_backlog(), "{what}: retained");
    assert!(a.sendable_set_is_complete(), "{what}: sendable set");
    assert!(b.sendable_set_is_complete(), "{what}: sendable set");
}

/// Delta checkpoints: under random interleavings of produce, acks,
/// connection moves (activate, suspend, resume, rewind), sends, late
/// connections and rollbacks on a 130-port router, every capture applied
/// to a copy restored from the previous capture leaves it, port by port,
/// where a full restore of the updated restore point leaves a copy with
/// the same history; the updated restore point equals a full capture of
/// the same state; and the running retained count equals the sum over
/// ports. Captures are also lost (the next one must be full) and
/// duplicated (applying twice is applying once).
#[test]
fn delta_checkpoints_match_full_restores() {
    const PORTS: usize = 130;
    let mut rng = SimRng::seed_from(0xDE17A);
    let (mut deltas, mut fulls) = (0, 0);
    for case in 0..24 {
        // `live` takes deltas; `mirror` sees the same operations and
        // takes full captures; `follower` and `reference` are standbys
        // fed the delta and the updated restore point.
        let (mut live, mut mirror) = (router(PORTS), router(PORTS));
        let mut stamp = 1;
        let mut point = live.snapshot(stamp, None);
        mirror.snapshot(stamp, None);
        let (mut follower, mut reference) = (router(PORTS), router(PORTS));
        follower.restore(&point);
        reference.restore(&point);
        let mut next_in = 1u64;
        for step in 0..rng.uniform_u64(50, 300) {
            let what = format!("case {case} step {step}");
            let port = rng.uniform_u64(0, PORTS as u64) as usize;
            let conns = live.output(port).connections().len();
            let conn = ConnectionId(rng.uniform_u64(0, conns as u64) as usize);
            let head = live.output(port).next_seq();
            match rng.uniform_u64(0, 13) {
                0..=3 => {
                    for _ in 0..rng.uniform_u64(1, 8) {
                        let mut e = elem(0, next_in, 0.0);
                        e.key = rng.next_u64();
                        next_in += 1;
                        for inst in [&mut live, &mut mirror] {
                            inst.offer(0, e);
                            process_next(inst).expect("just offered");
                        }
                    }
                }
                4 => {
                    let replay = rng.chance(0.6);
                    for inst in [&mut live, &mut mirror] {
                        inst.with_output(port, |q| {
                            if replay {
                                q.replay(conn);
                            } else {
                                q.suspend(conn);
                            }
                        });
                    }
                }
                5 => {
                    let after = rng.chance(0.5).then(|| rng.uniform_u64(0, head));
                    for inst in [&mut live, &mut mirror] {
                        inst.with_output(port, |q| match after {
                            Some(after) => q.resume(conn, after),
                            None => q.rewind(conn),
                        });
                    }
                }
                6 | 7 => {
                    // Send on a port that holds elements, then acknowledge
                    // up to what the connection has sent, so the ack may
                    // trim.
                    let held: Vec<usize> = (0..PORTS)
                        .filter(|&p| live.output(p).retained_len() > 0)
                        .collect();
                    let port = held.get(rng.uniform_u64(0, held.len().max(1) as u64) as usize);
                    let Some(&port) = port else { continue };
                    let conn = ConnectionId(rng.uniform_u64(0, 2) as usize);
                    for inst in [&mut live, &mut mirror] {
                        inst.with_output(port, |q| q.drain_sendable(conn));
                    }
                    let sent_through = live.output(port).connection(conn).next_to_send - 1;
                    let seq = rng.uniform_u64(0, sent_through + 1);
                    for inst in [&mut live, &mut mirror] {
                        inst.register_ack(port, conn, seq);
                    }
                }
                8 if conns < 4 => {
                    let active = rng.chance(0.5);
                    for inst in [&mut live, &mut mirror, &mut follower, &mut reference] {
                        inst.connect_output(port, Dest::Sink(SinkId(9)), active);
                    }
                }
                9 | 10 => {
                    stamp += 1;
                    let ckpt = live.snapshot(stamp, Some(point.stamp));
                    let full = mirror.snapshot(stamp, None);
                    if ckpt.is_full() {
                        fulls += 1;
                    } else {
                        deltas += 1;
                    }
                    assert!(ckpt.outputs.windows(2).all(|w| w[0].0 < w[1].0));
                    assert_eq!(ckpt.element_count(), full.element_count(), "{what}");
                    if rng.chance(0.15) {
                        continue; // lost: the next capture must be full
                    }
                    let times = if rng.chance(0.15) { 2 } else { 1 };
                    for _ in 0..times {
                        assert!(follower.follows(&ckpt), "{what}: follower out of step");
                        follower.restore(&ckpt);
                        point.apply(ckpt.clone());
                    }
                    assert_eq!(point, full, "{what}: restore point != full capture");
                    reference.restore(&point);
                    assert_same_copy(&follower, &reference, &what);
                    assert!(live.holds_outside_moved(&point), "{what}: live");
                }
                11 if rng.chance(0.5) => {
                    // Roll the live copy back to the restore point.
                    for inst in [&mut live, &mut mirror] {
                        inst.restore(&point);
                    }
                    next_in = live.input_positions(0)[0].1 + 1;
                }
                _ => {}
            }
            let counted: u64 = (0..PORTS)
                .map(|p| live.output(p).retained_len() as u64)
                .sum();
            assert_eq!(live.output_backlog(), counted, "{what}: running count");
        }
    }
    assert!(
        deltas > 5 * fulls && fulls > 0,
        "mostly deltas, and some full: {deltas} deltas, {fulls} full"
    );
}

/// Run lengths that sit on, beside and well past a chunk edge.
const RUN_LENS: [usize; 5] = [1, 63, 64, 65, 200];

fn run_len(rng: &mut SimRng) -> usize {
    RUN_LENS[rng.uniform_u64(0, RUN_LENS.len() as u64) as usize]
}

/// Bulk deque operations: under random interleavings of `extend_from_slice`,
/// `pop_front_run`, `drop_front`, `copy_from_into`, the per-element ops and
/// snapshots (`clone`) taken mid-stream — so appends cross copy-on-write
/// tails and pops cross shared heads — the deque matches a `VecDeque`
/// model, and every snapshot stays frozen.
#[test]
fn chunked_deque_bulk_ops_match_vecdeque_model() {
    use std::collections::VecDeque;

    use sps_engine::ChunkedDeque;

    let mut rng = SimRng::seed_from(0xB01C);
    for case in 0..24 {
        let mut dq = ChunkedDeque::new();
        let mut model: VecDeque<DataElement> = VecDeque::new();
        let mut snaps: Vec<(ChunkedDeque, Vec<DataElement>)> = Vec::new();
        let mut seq = 0u64;
        for step in 0..300 {
            let len = run_len(&mut rng);
            match rng.uniform_u64(0, 8) {
                0 | 1 => {
                    let run: Vec<DataElement> =
                        (0..len as u64).map(|i| elem(0, seq + i, 0.0)).collect();
                    seq += len as u64;
                    dq.extend_from_slice(&run);
                    model.extend(run);
                }
                2 => {
                    let mut got = Vec::new();
                    let n = dq.pop_front_run(len, |run| got.extend_from_slice(run));
                    let want: Vec<DataElement> = model.drain(..len.min(model.len())).collect();
                    assert_eq!(n, want.len(), "case {case} step {step}");
                    assert_eq!(got, want, "case {case} step {step}");
                }
                3 => {
                    let n = dq.drop_front(len);
                    assert_eq!(n, len.min(model.len()), "case {case} step {step}");
                    model.drain(..n);
                }
                4 => {
                    let start = rng.uniform_u64(0, model.len() as u64 + 2) as usize;
                    let mut got = vec![elem(9, 9, 9.0)];
                    dq.copy_from_into(start, &mut got);
                    let want: Vec<DataElement> = model.iter().skip(start).copied().collect();
                    assert_eq!(got[0], elem(9, 9, 9.0), "appends, never overwrites");
                    assert_eq!(got[1..], want[..], "case {case} step {step}");
                }
                5 => {
                    dq.push_back(elem(0, seq, 0.0));
                    model.push_back(elem(0, seq, 0.0));
                    seq += 1;
                }
                6 => assert_eq!(dq.pop_front(), model.pop_front(), "case {case}"),
                _ => snaps.push((dq.clone(), model.iter().copied().collect())),
            }
            assert_eq!(dq.len(), model.len(), "case {case} step {step}");
            assert_eq!(dq.front(), model.front(), "case {case} step {step}");
        }
        assert!(dq.iter().eq(model.iter().copied()), "case {case}");
        for (snap, expect) in &snaps {
            assert_eq!(&snap.iter().collect::<Vec<_>>(), expect, "case {case}");
        }
    }
}

/// `offer_run` is `offer` per element: from a random cursor state on two
/// registered streams — with and without a stash — a run wholly behind,
/// straddling, at, or ahead of the next expected sequence yields the same
/// `(accepted, stashed, duplicates)`, the same accepted offers, and leaves
/// the same queue behind.
#[test]
fn offer_run_matches_repeated_offer() {
    use sps_engine::RunOffer;

    let mut rng = SimRng::seed_from(0x0FFE);
    for case in 0..400 {
        let mut by_run = InputQueue::new();
        for stream in [3, 7] {
            by_run.register_stream(StreamId(stream));
        }
        // A random history: an accepted prefix on each stream, part of it
        // processed, and on most cases a stash behind a gap.
        let mut next = [0u64; 2];
        for (i, stream) in [3u32, 7].into_iter().enumerate() {
            next[i] = rng.uniform_u64(1, 150);
            for seq in 1..next[i] {
                by_run.offer(elem(stream, seq, 0.0));
            }
            if rng.uniform_u64(0, 3) > 0 {
                let gap = rng.uniform_u64(1, 70);
                for seq in next[i] + gap..next[i] + gap + rng.uniform_u64(1, 80) {
                    by_run.offer(elem(stream, seq, 0.0));
                }
            }
        }
        for _ in 0..rng.uniform_u64(0, 100) {
            if let Some(e) = by_run.take_next() {
                by_run.mark_processed(e.stream, e.seq);
            }
        }
        let mut by_elem = by_run.clone();

        let i = rng.uniform_u64(0, 2) as usize;
        let stream = [3u32, 7][i];
        let len = run_len(&mut rng) as u64;
        let start = match rng.uniform_u64(0, 4) {
            0 => next[i].saturating_sub(len + rng.uniform_u64(0, 5)).max(1), // behind
            1 => next[i].saturating_sub(rng.uniform_u64(1, len + 1)).max(1), // straddling
            2 => next[i],                                                    // at
            _ => next[i] + rng.uniform_u64(1, 90),                           // ahead
        };
        let run: Vec<DataElement> = (start..start + len)
            .map(|seq| elem(stream, seq, seq as f64))
            .collect();

        let mut accepted_offers = Vec::new();
        let got = by_run.offer_run(&run, |e| accepted_offers.push(e.seq));
        let mut want = RunOffer::default();
        let mut want_offers = Vec::new();
        for e in &run {
            match by_elem.offer(*e) {
                Offer::Accepted(n) => {
                    want.accepted += n;
                    want_offers.push(e.seq);
                }
                Offer::Stashed => want.stashed += 1,
                Offer::Duplicate => want.duplicates += 1,
            }
        }
        assert_eq!(got, want, "case {case}: run {start}..+{len} at {}", next[i]);
        assert_eq!(accepted_offers, want_offers, "case {case}");
        assert_eq!(
            by_run.duplicates_dropped(),
            by_elem.duplicates_dropped(),
            "case {case}"
        );
        assert_eq!(
            by_run.accepted_total(),
            by_elem.accepted_total(),
            "case {case}"
        );
        assert_eq!(by_run.high_water(), by_elem.high_water(), "case {case}");
        assert_eq!(by_run.positions(), by_elem.positions(), "case {case}");
        assert_eq!(
            by_run.pending_elements(),
            by_elem.pending_elements(),
            "case {case}"
        );
        // What is still stashed shows when the gap fills.
        let fill = elem(stream, start.max(next[i]) + len, 0.0);
        for seq in 1..fill.seq {
            assert_eq!(
                by_run.offer(elem(stream, seq, 0.0)),
                by_elem.offer(elem(stream, seq, 0.0)),
                "case {case}: stash differs at {seq}"
            );
        }
    }
}

/// The element-by-element PE that the run-level [`PeInstance`] must be
/// indistinguishable from: round-robin dequeue of one element, then one
/// `Operator::process`, one `mark_processed` and one `produce` per output.
struct ElementwisePe {
    operator: Box<dyn Operator>,
    inputs: Vec<InputQueue>,
    outputs: Vec<OutputQueue<Dest>>,
    next_input_port: usize,
    processed_total: u64,
}

impl ElementwisePe {
    /// The next element round-robin across ports, its port and its demand.
    fn start_next(&mut self) -> Option<(DataElement, usize, f64)> {
        let (ports, first) = (self.inputs.len(), self.next_input_port);
        (0..ports).map(|i| (first + i) % ports).find_map(|port| {
            let elem = self.inputs[port].take_next()?;
            self.next_input_port = (port + 1) % ports;
            Some((elem, port, self.operator.demand_secs(&elem)))
        })
    }

    /// Completes `elem` of input `port`: the `(output port, child)` pairs.
    fn finish(&mut self, elem: DataElement, port: usize) -> Vec<(usize, DataElement)> {
        let mut emitter = Emitter::default();
        self.operator.process(port, &elem, &mut emitter);
        self.inputs[port].mark_processed(elem.stream, elem.seq);
        self.processed_total += 1;
        emitter
            .take()
            .into_iter()
            .map(|(out_port, payload)| {
                (
                    out_port,
                    self.outputs[out_port].produce(payload, elem.created_at),
                )
            })
            .collect()
    }
}

/// Stateful, sensitive to the input port, charging an element-dependent
/// demand, and without a run-level override: a user's operator.
#[derive(Debug, Default)]
struct PortTagger {
    seen: u64,
}

impl Operator for PortTagger {
    fn process(&mut self, port: usize, input: &DataElement, out: &mut Emitter) {
        self.seen += 1;
        out.emit0(Payload {
            value: (self.seen * 10 + port as u64) as f64,
            ..Payload::from(input)
        });
    }
    fn demand_secs(&self, input: &DataElement) -> f64 {
        1e-6 * (1 + input.key % 7) as f64
    }
    fn state_size_elements(&self) -> u64 {
        1
    }
    fn snapshot(&self) -> OperatorState {
        OperatorState(vec![self.seen as f64])
    }
    fn restore(&mut self, state: &OperatorState) {
        self.seen = state.0[0] as u64;
    }
}

#[derive(Debug)]
struct PortTaggerFactory;

impl OperatorFactory for PortTaggerFactory {
    fn build(&self) -> Box<dyn Operator> {
        Box::new(PortTagger::default())
    }
}

/// One batch completion is the element-by-element PE repeated: on
/// instances with one and two input ports (a two-port batch mixes ports),
/// selectivity 0.5 / 1 / 2, a three-way router and a port-sensitive custom
/// operator, starting a batch charges the left-to-right sum of the
/// per-element demands, and finishing it in one call leaves the same output
/// queues, operator state, processed positions and counters as
/// [`ElementwisePe`], reports the same `(parent, port, child)` hops, and
/// puts exactly the ports it produced into in the sendable set.
#[test]
fn batch_completion_matches_the_elementwise_pe() {
    let synthetic = |selectivity| OperatorSpec::Synthetic {
        selectivity,
        demand_secs: 1e-6,
        state_elements: 20,
    };
    let specs = [
        (synthetic(0.5), 1),
        (synthetic(1.0), 1),
        (synthetic(2.0), 1),
        (
            OperatorSpec::ShardRouter {
                shards: 3,
                demand_secs: 1e-6,
            },
            3,
        ),
        (OperatorSpec::Custom(Arc::new(PortTaggerFactory)), 1),
    ];
    let mut rng = SimRng::seed_from(0xF1B5);
    for case in 0..150 {
        let (spec, out_ports) = specs[case % specs.len()].clone();
        let in_ports = 1 + (case / specs.len()) % 2;
        // Input port `p` merges streams `2p` and `2p + 1`; output port `p`
        // feeds sink `p`.
        let out_streams: Vec<StreamId> = (0..out_ports as u32).map(|p| StreamId(50 + p)).collect();
        let mut batched = PeInstance::new(
            InstanceId {
                pe: PeId(0),
                replica: Replica::Primary,
            },
            spec.clone(),
            in_ports,
            &out_streams,
        );
        let mut single = ElementwisePe {
            operator: spec.build(),
            inputs: vec![InputQueue::new(); in_ports],
            outputs: out_streams.iter().map(|&s| OutputQueue::new(s)).collect(),
            next_input_port: 0,
            processed_total: 0,
        };
        for stream in 0..2 * in_ports {
            batched.register_input_stream(stream / 2, StreamId(stream as u32));
            single.inputs[stream / 2].register_stream(StreamId(stream as u32));
        }
        for port in 0..out_ports {
            let sink = Dest::Sink(SinkId(port as u32));
            batched.connect_output(port, sink, true);
            single.outputs[port].connect(sink, true, true);
        }
        // Wiring put every port into the sendable set; start from empty.
        batched.take_sendable_conns(&mut Vec::new());

        let mut next = vec![1u64; 2 * in_ports];
        for _round in 0..4 {
            for (stream, next) in next.iter_mut().enumerate() {
                let len = run_len(&mut rng) as u64;
                let run: Vec<DataElement> = (*next..*next + len)
                    .map(|seq| DataElement {
                        key: rng.uniform_u64(0, 1_000),
                        created_at: SimTime::from_millis(seq),
                        ..elem(stream as u32, seq, seq as f64)
                    })
                    .collect();
                *next += len;
                batched.offer_run(stream / 2, &run);
                for e in &run {
                    single.inputs[stream / 2].offer(*e);
                }
            }
            let max = [1u32, 7, 64, 100][rng.uniform_u64(0, 4) as usize];
            while let Some(work) = batched.start_next_batch(max) {
                let mut parents = Vec::new();
                let mut demand_secs = 0.0;
                while parents.len() < max as usize {
                    let Some((elem, port, demand)) = single.start_next() else {
                        break;
                    };
                    demand_secs += demand;
                    parents.push((elem, port));
                }
                let want_work = WorkBatch {
                    elements: parents.len() as u32,
                    demand_secs,
                };
                assert_eq!(work, want_work, "case {case}");
                assert!(
                    batched.inflight_elems().eq(parents.iter().map(|(e, _)| e)),
                    "case {case}"
                );

                let (mut hops, mut emitter, mut staged) =
                    (Vec::new(), Emitter::default(), Vec::new());
                let n = batched.finish_batch(&mut emitter, &mut staged, |parent, port, child| {
                    hops.push((*parent, port, *child));
                });
                assert_eq!(n, parents.len(), "case {case}");
                assert!(emitter.is_empty() && staged.is_empty(), "case {case}");
                let mut want_hops = Vec::new();
                for &(parent, port) in &parents {
                    let produced = single.finish(parent, port);
                    want_hops.extend(produced.into_iter().map(|(p, child)| (parent, p, child)));
                }
                assert_eq!(hops, want_hops, "case {case}");
                assert!(!batched.has_inflight());

                let mut sendable = Vec::new();
                batched.take_sendable_conns(&mut sendable);
                let mut want_sendable: Vec<_> = want_hops
                    .iter()
                    .map(|&(_, p, _)| (p, ConnectionId(0), Dest::Sink(SinkId(p as u32))))
                    .collect();
                want_sendable.sort_by_key(|&(p, ..)| p);
                want_sendable.dedup();
                assert_eq!(sendable, want_sendable, "case {case}: sendable set");
            }
            assert!(single.start_next().is_none(), "case {case}");
            assert_eq!(batched.processed_total(), single.processed_total);
            let ckpt = batched.snapshot(1, None);
            assert_eq!(
                ckpt.operator_state,
                single.operator.snapshot(),
                "case {case}"
            );
            for port in 0..in_ports {
                assert_eq!(
                    ckpt.input_positions[port],
                    single.inputs[port].positions(),
                    "case {case}"
                );
            }
            for port in 0..out_ports {
                assert_eq!(
                    ckpt.outputs[port],
                    (port, single.outputs[port].snapshot()),
                    "case {case}"
                );
                assert_eq!(
                    batched.output(port).high_water(),
                    single.outputs[port].high_water(),
                    "case {case}"
                );
            }
        }
    }
}

/// `give_run` is `give` per element: random runs to random destinations,
/// contiguous with their predecessor or not, coalesce into the same runs.
#[test]
fn give_run_matches_repeated_give() {
    use sps_engine::OutputSession;

    let mut rng = SimRng::seed_from(0x61FE);
    for case in 0..200 {
        let batch_size = [1u32, 2, 3, 64, 100][rng.uniform_u64(0, 5) as usize];
        let mut by_run: OutputSession<u8> = OutputSession::new(batch_size);
        let mut by_elem: OutputSession<u8> = OutputSession::new(batch_size);
        let mut next_seq = [1u64; 2];
        for _ in 0..rng.uniform_u64(1, 12) {
            let dest = rng.uniform_u64(0, 2) as u8;
            let stream = rng.uniform_u64(0, 2) as usize;
            if rng.uniform_u64(0, 4) == 0 {
                next_seq[stream] += 1; // a gap: the open run must close
            }
            let len = run_len(&mut rng) as u64;
            let run: Vec<DataElement> = (next_seq[stream]..next_seq[stream] + len)
                .map(|seq| elem(stream as u32, seq, 0.0))
                .collect();
            next_seq[stream] += len;
            by_run.give_run(dest, &run);
            for e in &run {
                by_elem.give(dest, *e);
            }
        }
        assert_eq!(by_run.run_count(), by_elem.run_count(), "case {case}");
        for i in 0..by_run.run_count() {
            assert_eq!(by_run.run(i), by_elem.run(i), "case {case} run {i}");
            assert!(by_run.run(i).1.len() <= batch_size as usize, "case {case}");
        }
        assert_eq!(by_run.element_count(), by_elem.element_count());
    }
}

/// `Job::producer` as it was before the binary search: a scan over every
/// PE's stream range.
fn producer_by_scan(job: &Job, stream: StreamId) -> Producer {
    if (stream.0 as usize) < job.source_count() {
        return Producer::Source(SourceId(stream.0));
    }
    for pe in job.pe_ids() {
        let base = job.pe_stream(pe, 0).0;
        if stream.0 >= base && stream.0 < base + job.out_ports(pe) as u32 {
            return Producer::Pe(pe, (stream.0 - base) as usize);
        }
    }
    unreachable!("stream {stream} out of range")
}

/// `Job::input_streams` as it was before the per-PE table: a walk over
/// every stream's consumer list, sorted by port.
fn input_streams_by_scan(job: &Job, pe: PeId) -> Vec<(usize, StreamId)> {
    let mut found = Vec::new();
    for s in 0..job.stream_count() as u32 {
        for c in job.consumers(StreamId(s)) {
            if let Consumer::Pe(p, port) = c {
                if *p == pe {
                    found.push((*port, StreamId(s)));
                }
            }
        }
    }
    found.sort_unstable_by_key(|&(port, _)| port);
    found
}

/// Over random DAGs — several sources, multi-port PEs, ports merging two
/// streams, streams fanning out to several consumers, routers with many
/// output ports — the precomputed `producer` and `input_streams` equal the
/// linear scans they replaced, for every stream and every PE.
#[test]
fn job_lookups_match_linear_scans() {
    let mut rng = SimRng::seed_from(0x70B0);
    let op = OperatorSpec::Counter { demand_secs: 1e-5 };
    for case in 0..200 {
        let mut b = JobBuilder::new(format!("random{case}"));
        let sources: Vec<SourceId> = (0..rng.uniform_u64(1, 4))
            .map(|i| b.add_source(format!("s{i}")))
            .collect();
        let sink = b.add_sink("out");
        let n_pes = rng.uniform_u64(1, 14) as usize;
        let mut pes: Vec<PeId> = Vec::new();
        let mut out_ports: Vec<usize> = Vec::new();
        for i in 0..n_pes {
            let pe = b.add_pe(format!("pe{i}"), op.clone());
            for port in 0..rng.uniform_u64(1, 4) as usize {
                // One feeder per port, sometimes two (a merge).
                for _ in 0..rng.uniform_u64(1, 3) {
                    let from_source = pes.is_empty() || rng.uniform_u64(0, 4) == 0;
                    if from_source {
                        let src = sources[rng.uniform_u64(0, sources.len() as u64) as usize];
                        b.connect_source(src, pe, port);
                    } else {
                        // An existing output port of an earlier PE (fan-out
                        // of that stream) or its next new one (a router
                        // growing wider).
                        let up = rng.uniform_u64(0, pes.len() as u64) as usize;
                        let up_port = rng.uniform_u64(0, out_ports[up] as u64 + 1) as usize;
                        out_ports[up] = out_ports[up].max(up_port + 1);
                        b.connect(pes[up], up_port, pe, port);
                    }
                }
            }
            pes.push(pe);
            out_ports.push(0);
        }
        for (i, &pe) in pes.iter().enumerate() {
            if out_ports[i] == 0 || rng.uniform_u64(0, 3) == 0 {
                b.connect_sink(pe, 0, sink);
            }
        }
        b.subjobs(pes.chunks(3).map(<[PeId]>::to_vec).collect());
        let job = b.build().expect("generated topology is valid");

        for s in 0..job.stream_count() as u32 {
            let stream = StreamId(s);
            assert_eq!(
                job.producer(stream),
                producer_by_scan(&job, stream),
                "case {case}: {stream}"
            );
        }
        for pe in job.pe_ids() {
            assert_eq!(
                job.input_streams(pe),
                input_streams_by_scan(&job, pe),
                "case {case}: {pe}"
            );
        }
    }
}
