//! Per-layer numbers that do not come from the traced repetition: standalone
//! calls into each layer's public entry points, sized from the workloads
//! (queue depths 64 and 4 096, batches of 64, 8 concurrent tasks), and
//! differential runs of `observed_chain`'s configuration with one observer
//! attached at a time.

use std::hint::black_box;
use std::time::Instant;

use sps_audit::replay_dump;
use sps_cluster::{FaultProfile, Machine, MachineId, Network, NetworkConfig};
use sps_engine::{
    DataBatch, DataElement, Emitter, InputQueue, OperatorSpec, OutputQueue, OutputSession, Payload,
    StreamId,
};
use sps_metrics::{Registry, Scope};
use sps_observe::jsonl::parse_flat_object;
use sps_sim::{Ctx, EventQueue, SimDuration, SimRng, SimTime, Simulation, World};
use sps_trace::{LineageTable, SharedRecorder, TraceEvent, Tracer};
use sps_workloads::ZipfKeys;

use crate::ledger::Metrics;
use crate::measure::{run_rep, sigma_min, Spec};
use crate::report::Verdict;
use crate::workloads::{by_name, Observers};

/// ns per operation of the fastest of `batches` batches of `ops` operations.
fn ns_per_op(ops: u64, batches: u32, mut batch: impl FnMut()) -> f64 {
    batch();
    let mut best = f64::INFINITY;
    for _ in 0..batches {
        let t0 = Instant::now();
        batch();
        best = best.min(t0.elapsed().as_nanos() as f64 / ops as f64);
    }
    best
}

fn elem(seq: u64) -> DataElement {
    DataElement {
        stream: StreamId(0),
        seq,
        created_at: SimTime::ZERO,
        key: seq % 16,
        value: seq as f64,
        size_bytes: 256,
    }
}

/// The classic hold model: pop the earliest event, push one a random
/// increment later, at a constant queue depth.
fn queue_hold_ns(depth: u64, ops: u64) -> f64 {
    let mut rng = SimRng::seed_from(depth);
    let mut q = EventQueue::new();
    for i in 0..depth {
        q.push(SimTime::from_nanos(rng.uniform_u64(0, 1_000_000)), i);
    }
    ns_per_op(ops, 5, || {
        for _ in 0..ops {
            let (t, v) = q.pop().expect("hold model keeps the queue full");
            q.push(
                t + SimDuration::from_nanos(rng.uniform_u64(1, 1_000_000)),
                v,
            );
        }
    })
}

/// One task through the processor-sharing machine with 8 tasks in flight.
fn machine_task_ns(ops: u64) -> f64 {
    let mut finished = Vec::new();
    ns_per_op(ops, 5, || {
        let mut m = Machine::new(MachineId(0));
        let mut now = SimTime::ZERO;
        for i in 0..ops {
            m.submit(now, 15e-6 + (i % 8) as f64 * 1e-6, i);
            if m.active_tasks() >= 8 {
                now = m.next_completion().expect("tasks are active");
                m.advance(now);
                finished.clear();
                m.collect_finished_into(&mut finished);
                black_box(finished.len());
            }
        }
    })
}

fn net_send_ns(ops: u64, faults: Option<FaultProfile>) -> f64 {
    let mut net = Network::new(NetworkConfig::default());
    net.set_default_faults(faults);
    let mut now = SimTime::ZERO;
    ns_per_op(ops, 5, || {
        for i in 0..ops {
            now += SimDuration::from_micros(10);
            let (src, dst) = (MachineId((i % 16) as u32), MachineId((i % 16 + 1) as u32));
            black_box(net.send(now, src, dst, 256));
        }
    })
}

fn outq_produce_ack_ns(ops: u64) -> f64 {
    let mut scratch = Vec::new();
    ns_per_op(ops, 5, || {
        let mut q: OutputQueue<u8> = OutputQueue::new(StreamId(0));
        let conn = q.connect(0, true, true);
        for i in 0..ops {
            q.produce(Payload::new(i, i as f64), SimTime::ZERO);
            if i % 16 == 15 {
                scratch.clear();
                black_box(q.drain_sendable_into(conn, &mut scratch));
                q.register_ack(conn, i - 8);
            }
        }
        black_box(q.retained_len());
    })
}

/// Two replicas interleaved: every element offered twice, taken once.
fn inq_dedup_ns(ops: u64) -> f64 {
    ns_per_op(ops, 5, || {
        let mut q = InputQueue::new();
        q.register_stream(StreamId(0));
        for i in 1..=ops / 2 {
            black_box(q.offer(elem(i)));
            black_box(q.offer(elem(i)));
            black_box(q.take_next());
        }
        black_box(q.duplicates_dropped());
    })
}

fn op_process_ns(ops: u64) -> f64 {
    let mut op = OperatorSpec::synthetic_default().build();
    let mut out = Emitter::default();
    ns_per_op(ops, 5, || {
        for i in 0..ops {
            op.process(0, &elem(i), &mut out);
            black_box(out.drain().count());
        }
    })
}

/// Coalescing 64 consecutive elements into one run and lifting it into a
/// `DataBatch`, per element.
fn batch_ns_per_element(ops: u64) -> f64 {
    let mut session: OutputSession<u8> = OutputSession::new(64);
    ns_per_op(ops, 5, || {
        let mut seq = 0;
        for _ in 0..ops / 64 {
            for _ in 0..64 {
                seq += 1;
                session.give(0, elem(seq));
            }
            for r in 0..session.run_count() {
                black_box(DataBatch::from_run(session.run(r).1));
            }
            session.clear();
        }
    })
}

/// Checkpoint capture of an output queue holding `depth` elements, with a
/// produce between captures so the copy-on-write tail clone is included.
fn capture_ns(depth: u64, ops: u64) -> f64 {
    let mut q: OutputQueue<()> = OutputQueue::new(StreamId(0));
    for i in 0..depth {
        q.produce(Payload::new(i, 0.0), SimTime::ZERO);
    }
    ns_per_op(ops, 5, || {
        for i in 0..ops {
            black_box(q.snapshot());
            q.produce(Payload::new(i, 1.0), SimTime::ZERO);
        }
    })
}

fn zipf_draw_ns(ops: u64) -> f64 {
    let zipf = ZipfKeys::new(1_000_000, 1.05);
    let mut rng = SimRng::seed_from(7);
    ns_per_op(ops, 5, || {
        for _ in 0..ops {
            black_box(zipf.draw(&mut rng));
        }
    })
}

/// A data-plane emit with no sink installed, or into a flight recorder.
fn trace_emit_ns(ops: u64, recorder: bool) -> f64 {
    let mut tracer = Tracer::new();
    if recorder {
        tracer.add_sink(Box::new(SharedRecorder::with_capacity(1 << 16)));
    }
    ns_per_op(ops, 5, || {
        for i in 0..ops {
            // The gate is re-read per emit, as it is between two events.
            black_box(&mut tracer).emit_data(SimTime::from_nanos(i), || TraceEvent::ElementSend {
                pe: (i % 8) as u32,
                replica: 0,
                stream: 0,
                elements: 1,
                last_seq: i,
            });
        }
        black_box(tracer.is_enabled());
    })
}

/// One range-level send stamp over a 64-element batch.
fn lineage_note_range_ns(ops: u64) -> f64 {
    let mut table = LineageTable::new();
    for seq in 1..=ops * 64 {
        table.record_root((0, seq), SimTime::ZERO);
    }
    ns_per_op(ops, 3, || {
        for i in 0..ops {
            table.note_sent_range(0, i * 64 + 1, i * 64 + 64, SimTime::from_nanos(i));
        }
    })
}

fn registry_inc_ns(ops: u64) -> f64 {
    let mut reg = Registry::new();
    ns_per_op(ops, 5, || {
        for i in 0..ops {
            reg.inc(
                Scope::pe("pe", (i % 4) as u32, (i % 16) as u32),
                "processed",
                1,
            );
        }
    })
}

/// One scrape of a registry the size `observed_chain` carries: 16 PE scopes
/// with three counters, a gauge and a histogram each.
fn registry_scrape_ns(ops: u64) -> f64 {
    let mut reg = Registry::new();
    for pe in 0..16 {
        let scope = Scope::pe("pe", pe / 4, pe);
        for name in ["processed", "emitted", "acked"] {
            reg.inc(scope, name, 1);
        }
        reg.set_gauge(scope, "queue_depth", pe as f64);
        for v in 0..100 {
            reg.observe(scope, "latency_ms", v as f64 * 0.1);
        }
    }
    let mut t = 0;
    ns_per_op(ops, 3, || {
        for _ in 0..ops {
            t += 100_000_000;
            reg.scrape(t);
        }
    })
}

/// What one traced step costs over `step` around a handler that does next
/// to nothing: `step_profiled`'s clock and counter reads plus the clock pair
/// this harness puts around its phase read. The traced repetition's slice
/// self time is corrected by it.
pub fn probe_ns(ops: u64) -> f64 {
    struct Noop;
    impl World for Noop {
        type Event = ();
        fn handle(&mut self, ctx: &mut Ctx<()>, _: ()) {
            ctx.schedule_in(SimDuration::from_nanos(1), ());
        }
    }
    let mut sim = Simulation::new(Noop, 0);
    sim.schedule_in(SimDuration::ZERO, ());
    let profiled = ns_per_op(ops, 5, || {
        for _ in 0..ops {
            let t0 = Instant::now();
            black_box(t0.elapsed().as_nanos());
            black_box(sim.step_profiled(|_| 0usize));
        }
    });
    let plain = ns_per_op(ops, 5, || {
        for _ in 0..ops {
            black_box(sim.step());
        }
    });
    profiled - plain
}

/// The first `limit` records of a fully observed run, as JSONL lines.
fn observed_dump(seed: u64, limit: usize) -> Vec<String> {
    let wl = by_name("observed_chain").expect("observed_chain is declared");
    let mut unit = wl.build(seed, 0, 20, Observers::ALL);
    unit.sim.run_until(unit.warmup_end);
    let recorder = unit.recorder.expect("observed_chain carries a recorder");
    recorder.with(|r| r.records().take(limit).map(|rec| rec.to_json()).collect())
}

/// Standalone calls into each layer. `scale` divides the iteration counts.
pub fn standalone(seed: u64, scale: u64) -> Metrics {
    let n = |base: u64| (base / scale).max(64);
    let mut m = Metrics::default();
    m.put("sim.queue.hold_ns.d64", queue_hold_ns(64, n(200_000)));
    m.put("sim.queue.hold_ns.d4096", queue_hold_ns(4_096, n(200_000)));
    m.put("cluster.machine.task_ns", machine_task_ns(n(100_000)));
    m.put("cluster.net.send_ns.clear", net_send_ns(n(200_000), None));
    m.put(
        "cluster.net.send_ns.chaos",
        net_send_ns(n(200_000), Some(FaultProfile::loss(0.02))),
    );
    m.put(
        "engine.outq.produce_ack_ns",
        outq_produce_ack_ns(n(200_000)),
    );
    m.put("engine.inq.dedup_ns", inq_dedup_ns(n(200_000)));
    m.put("engine.op.process_ns", op_process_ns(n(200_000)));
    m.put(
        "engine.batch.ns_per_element.b64",
        batch_ns_per_element(n(256_000)),
    );
    m.put(
        "core.checkpoint.capture_ns.d100",
        capture_ns(100, n(20_000)),
    );
    m.put(
        "core.checkpoint.capture_ns.d10000",
        capture_ns(10_000, n(20_000)),
    );
    m.put("workloads.zipf.draw_ns", zipf_draw_ns(n(200_000)));
    m.put("trace.emit_ns.off", trace_emit_ns(n(1_000_000), false));
    m.put("trace.emit_ns.recorder", trace_emit_ns(n(200_000), true));
    m.put(
        "trace.lineage.note_range_ns",
        lineage_note_range_ns(n(4_000)),
    );
    m.put("metrics.registry.inc_ns", registry_inc_ns(n(200_000)));
    m.put("metrics.registry.scrape_ns", registry_scrape_ns(n(2_000)));

    let lines = observed_dump(seed, n(50_000) as usize);
    let records = lines.len().max(1) as u64;
    m.put(
        "observe.jsonl.parse_ns_per_record",
        ns_per_op(records, 3, || {
            for line in &lines {
                black_box(parse_flat_object(line).expect("recorder lines parse"));
            }
        }),
    );
    let dump = lines.join("\n");
    m.put(
        "audit.replay.ns_per_record",
        ns_per_op(records, 3, || {
            black_box(replay_dump(&dump).expect("recorder dump replays"));
        }),
    );
    m
}

/// `observed_chain`'s configuration with exactly one observer attached,
/// minus the bare run: host ns per event and peak live bytes each observer
/// adds. The health engine implies the registry, so its cost is taken over
/// the registry run, not the bare one.
///
/// Also returns what the checks of these runs found.
pub fn differential(seed: u64, scale: u64) -> (Metrics, Verdict) {
    let wl = by_name("observed_chain").expect("observed_chain is declared");
    let mut verdict = Verdict::default();
    let mut run = |obs: Observers| {
        let spec = Spec {
            wl,
            seed,
            scale: scale * 2,
            obs,
        };
        let reps = [run_rep(spec, None), run_rep(spec, None)];
        reps.iter().for_each(|r| verdict.count(r));
        let slices: Vec<&[f64]> = reps.iter().map(|r| r.timing.slice_s.as_slice()).collect();
        let events: u64 = reps[0].units.iter().map(|u| u.span_events).sum();
        let ns_per_event = sigma_min(&slices) * 1e9 / events.max(1) as f64;
        (ns_per_event, reps[0].peak_live_bytes() as f64)
    };
    let mut one = |f: fn(&mut Observers)| {
        let mut obs = Observers::NONE;
        f(&mut obs);
        run(obs)
    };
    let bare = one(|_| ());
    let registry = one(|o| o.registry = true);
    let runs = [
        ("trace.recorder", one(|o| o.recorder = true), bare),
        ("trace.lineage", one(|o| o.lineage = true), bare),
        ("metrics.registry", registry, bare),
        ("observe.health", one(|o| o.health = true), registry),
        ("audit.auditor", one(|o| o.auditor = true), bare),
    ];
    let mut m = Metrics::default();
    for (name, with, base) in runs {
        m.put(format!("{name}.ns_per_event"), with.0 - base.0);
        m.put(format!("{name}.live_bytes"), with.1 - base.1);
    }
    (m, verdict)
}
