//! Allocation-regression tests (run with `--features bench`).
//!
//! Registers the counting global allocator and measures heap allocations
//! across a steady-state window of the fig06 workload. The steady-state
//! inner loop (source → PE chain → sink, acks, heartbeats) is expected to
//! run allocation-free; checkpoint capture is the one intentional
//! exception (one spine allocation per captured queue), so the budget is a
//! small constant per checkpoint rather than per event.

#![cfg(feature = "bench")]

use sps_cluster::FaultTopology;
use sps_engine::{
    DataElement, Dest, Emitter, InstanceId, OperatorSpec, OutputQueue, Payload, PeId, PeInstance,
    Replica, SinkId, StreamId, SubjobId,
};
use sps_ha::{HaMode, HaSimulation, HaSimulationBuilder, RateProfile};
use sps_sim::counting_alloc::{self, CountingAllocator};
use sps_sim::{SimDuration, SimTime};
use sps_trace::{SharedRecorder, TraceRecord, TraceSink};
use sps_workloads::{chain_job_with, sharded_job, sharded_placement, ZipfKeys};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The fig06 rate-sweep configuration (§V-B): an 8-PE chain in 4 subjobs,
/// light per-element demand, at 10 K elements/s.
fn fig06_sim(mode: HaMode, ckpt_ms: u64, lineage: bool) -> HaSimulation {
    fig06_sim_batched(mode, ckpt_ms, lineage, 1)
}

/// [`fig06_sim`] at a given data-plane batch size.
fn fig06_sim_batched(mode: HaMode, ckpt_ms: u64, lineage: bool, batch: u32) -> HaSimulation {
    fig06_builder(mode, ckpt_ms, lineage, batch).build()
}

fn fig06_builder(mode: HaMode, ckpt_ms: u64, lineage: bool, batch: u32) -> HaSimulationBuilder {
    let job = chain_job_with(15e-6, 20, 8, 4);
    let n_subjobs = job.subjob_count();
    let mut builder = HaSimulation::builder(job)
        .mode(mode)
        .source_rate(10_000.0)
        .seed(2010)
        .lineage(lineage)
        .tune(|c| {
            c.checkpoint_interval = SimDuration::from_millis(ckpt_ms);
            c.batch_size = batch;
        });
    for sj in 0..n_subjobs as u32 {
        builder = builder.subjob_mode(SubjobId(sj), mode);
    }
    builder
}

/// Measures allocations across a window of at least 10 000 events after a
/// one-second warmup, returning (events, allocations).
fn measure_window(sim: &mut HaSimulation) -> (u64, u64) {
    sim.run_until(SimTime::from_secs(1)); // warmup: caches, scratch, chunks
    let e0 = sim.events_processed();
    let a0 = counting_alloc::allocations();
    let mut until = SimTime::from_secs(1);
    while sim.events_processed() - e0 < 10_000 {
        until += SimDuration::from_millis(10);
        sim.run_until(until);
    }
    (
        sim.events_processed() - e0,
        counting_alloc::allocations() - a0,
    )
}

/// The steady-state inner loop of fig06 without checkpointing must not
/// allocate at all: every hop reuses scratch buffers, chunk recycling
/// covers the queues, and the timer wheel's buckets are warm.
#[test]
fn fig06_steady_state_none_mode_is_allocation_free() {
    let mut sim = fig06_sim(HaMode::None, 500, false);
    let (events, allocs) = measure_window(&mut sim);
    assert!(events >= 10_000);
    assert_eq!(
        allocs, 0,
        "steady-state window of {events} events made {allocs} heap allocations"
    );
}

/// The same chain at `batch_size = 64`: a `DataBatch` takes its element
/// buffer from the world's free list and the receiver hands it back, so a
/// steady batched run makes no allocation per message (one `to_vec` per
/// batch — 14,065 in this window — before the free list).
#[test]
fn batch_64_steady_state_none_mode_does_not_allocate_per_message() {
    let mut sim = fig06_sim_batched(HaMode::None, 500, false, 64);
    sim.run_until(SimTime::from_secs(2));
    let (e0, a0) = (sim.events_processed(), counting_alloc::allocations());
    sim.run_until(SimTime::from_secs(12));
    let events = sim.events_processed() - e0;
    let allocs = counting_alloc::allocations() - a0;
    assert!(events >= 70_000, "window too short: {events} events");
    assert!(
        allocs <= 16,
        "batched window of {events} events made {allocs} heap allocations"
    );
}

/// With Hybrid checkpointing every 100 ms, the only allocations allowed in
/// the window are the O(1)-per-capture checkpoint costs (snapshot spines,
/// checkpoint messages), which are bounded per checkpoint — not per event.
#[test]
fn fig06_steady_state_hybrid_allocates_only_per_checkpoint() {
    let mut sim = fig06_sim(HaMode::Hybrid, 100, false);
    let (events, allocs) = measure_window(&mut sim);
    assert!(events >= 10_000);
    // The window spans at most a few 100 ms checkpoint rounds over 4
    // subjobs × 2 PEs. What matters is the scale: thousands of events,
    // tens of allocations. The budget also pins that a store-ack reuses
    // the PE's cached ack positions: 224 allocations here, 252 while each
    // store-ack cloned them.
    assert!(
        allocs <= 240,
        "hybrid window of {events} events made {allocs} heap allocations \
         (expected a small per-checkpoint constant)"
    );
}

/// Lineage is the one observation table that grows with the run, so its
/// growth is budgeted: rows arrive in 1,024-slot chunks, never through a
/// per-event allocation, and a record costs at most 64 bytes of heap (the
/// 56-byte row plus its share of the delivery log).
/// Measured as the difference between the same deterministic window with
/// lineage on and off, which cancels the per-checkpoint allocations.
#[test]
fn fig06_lineage_allocates_per_chunk_and_stays_under_64_bytes_per_record() {
    let window = |lineage: bool| {
        let mut sim = fig06_sim(HaMode::Hybrid, 100, lineage);
        sim.run_until(SimTime::from_secs(1));
        let records = |sim: &HaSimulation| sim.world().lineage().map_or(0, |l| l.len() as u64);
        let (e0, r0) = (sim.events_processed(), records(&sim));
        let (a0, b0) = (counting_alloc::allocations(), counting_alloc::live_bytes());
        sim.run_until(SimTime::from_secs(3));
        (
            sim.events_processed() - e0,
            records(&sim) - r0,
            counting_alloc::allocations() - a0,
            counting_alloc::live_bytes() as i64 - b0 as i64,
            sim.world().job().stream_count() as u64,
        )
    };
    let (events_off, _, allocs_off, bytes_off, _) = window(false);
    let (events, records, allocs_on, bytes_on, streams) = window(true);
    assert_eq!(events, events_off, "lineage must not move an event");
    assert!(records >= 150_000, "window too short: {records} records");

    // One chunk per 1,024 new records per stream (plus the one each stream
    // is part-way through), one doubling of each column's chunk-pointer
    // vector, and the doublings of the delivery log.
    let lineage_allocs = allocs_on - allocs_off;
    let budget = records / 1_024 + 2 * streams + 4;
    assert!(
        lineage_allocs <= budget,
        "{records} new records over {events} events cost {lineage_allocs} \
         allocations (budget {budget}): lineage allocates per event"
    );
    let per_record = (bytes_on - bytes_off) as f64 / records as f64;
    assert!(
        per_record <= 64.0,
        "lineage holds {per_record:.1} bytes per record"
    );
}

/// The flight recorder keeps records packed: over a fully traced window a
/// retained record costs at most 16 bytes of heap (56 as a struct), chunks
/// arrive one allocation per few hundred records, and a ring that is full
/// recycles the chunk its head leaves instead of allocating. Measured, like
/// lineage, as the difference between the same deterministic window with
/// and without the observer: a data-plane sink switches the periodic
/// snapshots on, so the baseline is a sink that keeps nothing.
#[test]
fn fig06_recorder_allocates_per_chunk_and_stays_under_16_bytes_per_record() {
    struct Discard;
    impl TraceSink for Discard {
        fn record(&mut self, _: &TraceRecord) {}
    }
    let window = |recorder: Option<&SharedRecorder>| {
        let sink: Box<dyn TraceSink> = match recorder {
            Some(r) => Box::new(r.clone()),
            None => Box::new(Discard),
        };
        let mut sim = fig06_builder(HaMode::Hybrid, 100, false, 1)
            .trace_sink(sink)
            .build();
        sim.run_until(SimTime::from_secs(1));
        let held = || recorder.map_or(0, |r| r.with(|r| r.len() as u64 + r.evicted()));
        let (e0, r0) = (sim.events_processed(), held());
        let (a0, b0) = (counting_alloc::allocations(), counting_alloc::live_bytes());
        sim.run_until(SimTime::from_secs(3));
        (
            sim.events_processed() - e0,
            held() - r0,
            counting_alloc::allocations() - a0,
            counting_alloc::live_bytes() as i64 - b0 as i64,
        )
    };
    let (events_off, _, allocs_off, bytes_off) = window(None);

    let growing = SharedRecorder::default();
    let (events, records, allocs, bytes) = window(Some(&growing));
    assert_eq!(events, events_off, "the recorder must not move an event");
    assert_eq!(growing.with(|r| r.evicted()), 0, "this ring must not wrap");
    assert!(records >= 300_000, "window too short: {records} records");
    // A chunk holds a few hundred of these records; one allocation per 128
    // leaves room for the chunk deque's doublings and is two orders of
    // magnitude away from one per record.
    assert!(
        allocs - allocs_off <= records / 128,
        "{records} records cost {} allocations: the recorder allocates per record",
        allocs - allocs_off
    );
    let per_record = (bytes - bytes_off) as f64 / records as f64;
    assert!(
        per_record <= 16.0,
        "the recorder holds {per_record:.1} bytes per retained record"
    );

    let full = SharedRecorder::with_capacity(4096);
    let (_, pushed, allocs, bytes) = window(Some(&full));
    assert_eq!(pushed, records);
    assert_eq!(full.with(|r| r.len()), 4096);
    // Sequence numbers widen by a byte now and then, so the same 4,096
    // records may come to need a chunk more; nothing else may allocate.
    assert!(
        allocs - allocs_off <= 4 && bytes - bytes_off <= 16 * 1024,
        "a full ring made {} allocations and grew {} bytes over {pushed} pushes",
        allocs - allocs_off,
        bytes - bytes_off
    );
}

/// A default (unobserved) run holds one thing in proportion to its history:
/// the sink's 4-byte latency column. Run the Hybrid chain to T and on to 4T:
/// the heap may grow by at most 8 bytes per additionally accepted element
/// (4 bytes at a `Vec`'s worst-case 2× slack; the `f64` sample log and
/// `(f64, f64)` series this replaced cost ~31), and with the column
/// subtracted the two horizons hold the same live state. The seed of the
/// long-run soak (ROADMAP 5(e)).
#[test]
fn fig06_live_heap_grows_only_by_the_sink_latency_column() {
    const T: u64 = 5;
    let mut sim = fig06_sim(HaMode::Hybrid, 100, false);
    let mut horizon = |secs: u64| {
        sim.run_until(SimTime::from_secs(secs));
        let sink = &sim.world().sinks()[0];
        (
            counting_alloc::live_bytes() as i64,
            sink.latency().sample_bytes() as i64,
            sink.accepted() as i64,
        )
    };
    let (live_t, column_t, accepted_t) = horizon(T);
    let (live_4t, column_4t, accepted_4t) = horizon(4 * T);
    let elements = accepted_4t - accepted_t;
    assert!(elements >= 100_000, "window too short: {elements} elements");

    let per_element = (live_4t - live_t) as f64 / elements as f64;
    assert!(
        per_element <= 8.0,
        "live heap grew {per_element:.1} bytes per accepted element"
    );
    let rest_growth = (live_4t - column_4t) - (live_t - column_t);
    assert!(
        rest_growth.abs() < 64 * 1024,
        "beside the latency column, live heap moved {rest_growth} bytes \
         between {T} and {} sim-s: something else grows with history",
        4 * T
    );
}

/// The same rule for a wide job: 1,024 Zipf-keyed shards on 500 machines,
/// where most shard queues are cold and hold an element or none between
/// checkpoints. A queue's heap follows what it holds, not its history, so
/// beside the sink's latency column the live heap at 10 and 40 sim-s is the
/// same (it grew by ~5 MB while a drained queue kept its dead elements).
#[test]
fn sharded_live_heap_grows_only_by_the_sink_latency_column() {
    let job = sharded_job(1_024, 2e-5, 64);
    let topology = FaultTopology::grid(500, 10, 2);
    let placement = sharded_placement(&job, 500, &topology);
    let mut sim = HaSimulation::builder(job)
        .topology(topology)
        .placement(placement)
        .source_profile(
            0,
            RateProfile::Constant { per_sec: 2_000.0 },
            ZipfKeys::new(1_000_000, 1.05).payload_gen(),
        )
        .seed(2010)
        .build();
    let mut horizon = |secs: u64| {
        sim.run_until(SimTime::from_secs(secs));
        let column: usize = sim
            .world()
            .sinks()
            .iter()
            .map(|s| s.latency().sample_bytes())
            .sum();
        (counting_alloc::live_bytes() as i64, column as i64)
    };
    let (live_10, column_10) = horizon(10);
    let (live_40, column_40) = horizon(40);
    let rest_growth = (live_40 - column_40) - (live_10 - column_10);
    assert!(
        rest_growth.abs() < 64 * 1024,
        "beside the latency column, live heap moved {rest_growth} bytes \
         between 10 and 40 sim-s: something else grows with history"
    );
}

/// The heartbeat round and its pong fan-out allocate nothing. A 64-shard
/// job on 40 machines puts about three Hybrid subjobs on each (primary,
/// standby) pair; once the sources stop and the pipeline drains, the
/// heartbeat is all that runs: one round event per interval, and per pair
/// one ping, one reply task and one pong fanned out to every member.
#[test]
fn heartbeat_rounds_on_shared_pairs_are_allocation_free() {
    let job = sharded_job(64, 2e-5, 64);
    let topology = FaultTopology::grid(40, 10, 2);
    let placement = sharded_placement(&job, 40, &topology);
    let mut sim = HaSimulation::builder(job)
        .topology(topology)
        .placement(placement)
        .source_rate(2_000.0)
        .seed(2010)
        .build();
    sim.stop_sources_at(SimTime::from_secs(2));
    sim.run_until(SimTime::from_secs(4)); // drained; pair lists warm
    let (e0, a0) = (sim.events_processed(), counting_alloc::allocations());
    sim.run_until(SimTime::from_secs(9));
    let events = sim.events_processed() - e0;
    let allocs = counting_alloc::allocations() - a0;
    // 50 rounds, each one event plus a ping, a reply task and a pong for
    // each of the 20 pairs the 65 subjobs share.
    assert_eq!(events, 50 * (1 + 3 * 20), "one ping per pair and round");
    assert_eq!(
        allocs, 0,
        "heartbeat-only window of {events} events made {allocs} heap allocations"
    );
}

/// Checkpoint capture clones chunk pointers, not elements: the allocation
/// count per capture is identical at depth 100 and depth 10 000.
#[test]
fn checkpoint_capture_allocations_are_depth_independent() {
    let count_for = |depth: usize| {
        let mut q: OutputQueue<()> = OutputQueue::new(StreamId(0));
        // Pad to a chunk boundary so both depths cross the same number of
        // chunk boundaries during the interleaved produces below; without
        // this the counts differ by the (bounded) per-chunk allocation.
        let padded = depth.next_multiple_of(sps_engine::CHUNK_CAP);
        for i in 0..padded {
            q.produce(Payload::new(i as u64, 0.0), SimTime::ZERO);
        }
        // Warm up one capture + produce so copy-on-write steady state holds.
        std::hint::black_box(q.snapshot());
        q.produce(Payload::new(0, 0.0), SimTime::ZERO);
        let a0 = counting_alloc::allocations();
        for i in 0..100u64 {
            std::hint::black_box(q.snapshot());
            q.produce(Payload::new(i, 1.0), SimTime::ZERO);
        }
        counting_alloc::allocations() - a0
    };
    let shallow = count_for(100);
    let deep = count_for(10_000);
    assert_eq!(
        shallow, deep,
        "capture allocations must not scale with queue depth"
    );
}

/// A router checkpoint follows its traffic, not its width: after a full
/// capture of a 2,048-port router whose ports hold elements, a capture
/// onto it with at most 64 moved ports allocates under 16 KiB. A capture
/// that listed every port would allocate 2,048 port states (160 KiB)
/// before it copied anything.
#[test]
fn a_router_capture_allocates_for_the_ports_that_moved() {
    const PORTS: usize = 2_048;
    let streams: Vec<StreamId> = (0..PORTS as u32).map(|p| StreamId(1 + p)).collect();
    let mut router = PeInstance::new(
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
    router.register_input_stream(0, StreamId(0));
    for port in 0..PORTS {
        router.connect_output(port, Dest::Sink(SinkId(0)), true);
    }
    let mut seq = 0u64;
    let mut feed = |router: &mut PeInstance, n: u64| {
        for _ in 0..n {
            seq += 1;
            let key = seq.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            router.offer(
                0,
                DataElement {
                    stream: StreamId(0),
                    seq,
                    created_at: SimTime::ZERO,
                    key,
                    value: 0.0,
                    size_bytes: 256,
                },
            );
            router.start_next_batch(1).expect("just offered");
            router.finish_batch(&mut Emitter::default(), &mut Vec::new(), |_, _, _| {});
        }
    };
    feed(&mut router, 4_000);
    let full = router.snapshot(1, None);
    assert_eq!(full.outputs.len(), PORTS);
    feed(&mut router, 64);
    let (a0, b0) = (
        counting_alloc::allocations(),
        counting_alloc::allocated_bytes(),
    );
    let delta = std::hint::black_box(router.snapshot(2, Some(full.stamp)));
    let bytes = counting_alloc::allocated_bytes() - b0;
    let allocs = counting_alloc::allocations() - a0;
    assert!(
        !delta.is_full() && delta.outputs.len() <= 64,
        "{}",
        delta.outputs.len()
    );
    assert_eq!(delta.element_count(), full.element_count() + 64);
    assert!(
        bytes < 16 * 1024,
        "a capture of {} moved ports allocated {bytes} bytes in {allocs} allocations",
        delta.outputs.len()
    );
}
