//! Data-plane handlers: source generation, CPU-task completion routing,
//! element delivery, and acknowledgment processing.

use sps_cluster::{LoadComponent, MachineId, SchedLatency};
use sps_engine::{
    ConnectionId, DataBatch, DataElement, Dest, InstanceId, Replica, SourceId, StreamId, SubjobId,
};
use sps_metrics::{MsgClass, Scope};
use sps_sim::{Ctx, SimTime, TimerGen};
use sps_trace::{DropReason, LineageTable, TraceEvent};

use crate::config::{
    rel_backoff, ACK_EVERY_ELEMENTS, HEARTBEAT_REPLY_DEMAND_SECS, REL_MAX_RETRIES, REL_RTO_INITIAL,
    REL_SWEEP_INTERVAL,
};
use crate::message::{Msg, ProducerAddr};
use crate::wiring::find_conn;
use crate::world::{replica_code, slot_of, unslot, Event, HaWorld, SjState, TaskTag};

/// The `pe` field of trace events emitted for a source (sources have no
/// PE id).
const TRACE_SOURCE_PE: u32 = u32::MAX;

impl HaWorld {
    // ---- sending and machine plumbing ----

    /// Sends `msg` from `src` to `dst`, scheduling its delivery. Only
    /// inter-machine traffic is counted (intra-machine hand-off is free in
    /// the paper's overhead metric). Lost sends emit a [`TraceEvent::NetDrop`]
    /// and chaos-duplicated sends schedule a second delivery.
    pub(crate) fn send_msg(
        &mut self,
        ctx: &mut Ctx<Event>,
        src: MachineId,
        dst: MachineId,
        msg: Msg,
        class: MsgClass,
        elements: u64,
    ) {
        let bytes = msg.wire_bytes();
        let delivery = self.cluster.network_mut().send(ctx.now(), src, dst, bytes);
        let Some(at) = delivery.time() else {
            // Partitioned links never reach the chaos draws, so any drop on
            // a partitioned pair is the partition's.
            let chaos = !self.cluster.network().is_partitioned(src, dst);
            self.tracer.emit(
                ctx.now(),
                TraceEvent::NetDrop {
                    src: src.0,
                    dst: dst.0,
                    bytes,
                    chaos,
                },
            );
            return;
        };
        if src != dst {
            self.counters.record(class, elements);
        }
        // Queue-depth accounting is in logical elements: a batched delivery
        // is one event carrying `batch.len()` elements in flight. Every
        // other message weighs 1, so batch size 1 matches the unweighted
        // accounting exactly.
        let weight = match &msg {
            Msg::DataBatch { batch, .. } => batch.len() as u64,
            _ => 1,
        };
        if let Some(second) = delivery.duplicate_time() {
            self.tracer.emit(
                ctx.now(),
                TraceEvent::NetDuplicate {
                    src: src.0,
                    dst: dst.0,
                    bytes,
                },
            );
            ctx.schedule_at_weighted(
                second,
                Event::Deliver {
                    to: dst,
                    msg: msg.clone(),
                },
                weight,
            );
        }
        ctx.schedule_at_weighted(at, Event::Deliver { to: dst, msg }, weight);
    }

    /// Sends a control-plane message under the reliable layer when it is
    /// enabled: assigns a transmission id, records it in flight, and arms
    /// the retransmission timer. Loopback sends (and runs without
    /// [`crate::HaConfig::reliable_control`]) bypass the envelope.
    pub(crate) fn send_reliable(
        &mut self,
        ctx: &mut Ctx<Event>,
        src: MachineId,
        dst: MachineId,
        msg: Msg,
        class: MsgClass,
        elements: u64,
    ) {
        if !self.cfg.reliable_control || src == dst {
            self.send_msg(ctx, src, dst, msg, class, elements);
            return;
        }
        let tx = self.rel_next_tx;
        self.rel_next_tx += 1;
        self.rel_inflight.insert(
            tx,
            crate::world::RelPending {
                src,
                dst,
                msg: msg.clone(),
                class,
                attempt: 0,
            },
        );
        self.send_msg(
            ctx,
            src,
            dst,
            Msg::Reliable {
                tx,
                from: src,
                inner: Box::new(msg),
            },
            class,
            elements,
        );
        ctx.schedule_in(REL_RTO_INITIAL, Event::RelRetransmit { tx });
    }

    /// A reliable message's retransmission timer fired: resend with
    /// exponential backoff unless it was acknowledged, its sender died, its
    /// payload went stale, or the retry budget ran out.
    pub(crate) fn on_rel_retransmit(&mut self, ctx: &mut Ctx<Event>, tx: u64) {
        let Some(pending) = self.rel_inflight.get(&tx) else {
            return; // acknowledged (or already cancelled)
        };
        let give_up = pending.attempt >= REL_MAX_RETRIES
            || !self.cluster.machine(pending.src).is_up()
            || self.rel_payload_is_stale(&pending.msg);
        if give_up {
            self.rel_inflight.remove(&tx);
            return;
        }
        let (src, dst, msg, class, attempt) = {
            let p = self.rel_inflight.get_mut(&tx).expect("checked above");
            p.attempt += 1;
            (p.src, p.dst, p.msg.clone(), p.class, p.attempt)
        };
        self.tracer.emit(
            ctx.now(),
            TraceEvent::Retransmit {
                src: src.0,
                dst: dst.0,
                tx,
                attempt,
            },
        );
        // Retransmissions carry no *new* elements: the overhead metric
        // counts each logical transfer once (the network byte counters
        // still see every attempt).
        self.send_msg(
            ctx,
            src,
            dst,
            Msg::Reliable {
                tx,
                from: src,
                inner: Box::new(msg),
            },
            class,
            0,
        );
        let rto = rel_backoff(REL_RTO_INITIAL, attempt);
        ctx.schedule_in(rto, Event::RelRetransmit { tx });
    }

    /// `true` when a reliable payload's epoch guard says the protocol moved
    /// on (a role change makes retransmitting it pointless).
    fn rel_payload_is_stale(&self, msg: &Msg) -> bool {
        match msg {
            Msg::Checkpoint { subjob, epoch, .. }
            | Msg::CheckpointStored { subjob, epoch, .. }
            | Msg::StateRead { subjob, epoch, .. } => {
                self.subjobs[subjob.0 as usize].is_stale(*epoch)
            }
            _ => false,
        }
    }

    /// A reliable envelope arrived: always (re-)acknowledge — the previous
    /// ack may itself have been lost — and process the payload only on its
    /// first arrival.
    fn on_reliable(
        &mut self,
        ctx: &mut Ctx<Event>,
        to: MachineId,
        from: MachineId,
        tx: u64,
        inner: Msg,
    ) {
        self.send_msg(ctx, to, from, Msg::RelAck { tx }, MsgClass::Ack, 0);
        if !self.rel_seen.insert(tx) {
            return; // retransmission or chaos duplicate of a processed tx
        }
        self.on_deliver(ctx, to, inner);
    }

    /// Re-arms a machine's completion timer after any change to its task
    /// set or load.
    pub(crate) fn rearm_machine(&mut self, ctx: &mut Ctx<Event>, machine: MachineId) {
        let idx = machine.0 as usize;
        match self.cluster.machine(machine).next_completion() {
            Some(at) => {
                let gen = self.machine_timers[idx].arm();
                ctx.schedule_at(
                    at.max(ctx.now()),
                    Event::MachineTick {
                        machine: machine.0,
                        gen,
                    },
                );
            }
            None => self.machine_timers[idx].cancel(),
        }
    }

    /// Submits CPU work to a machine and re-arms its timer.
    pub(crate) fn submit_task(
        &mut self,
        ctx: &mut Ctx<Event>,
        machine: MachineId,
        demand_secs: f64,
        tag: TaskTag,
    ) {
        let submitted = self
            .cluster
            .machine_mut(machine)
            .submit(ctx.now(), demand_secs, tag);
        if submitted.is_some() {
            self.rearm_machine(ctx, machine);
        }
    }

    /// A rolling estimate of a machine's recent utilization — an
    /// exponentially weighted load average, like the OS statistic a real
    /// scheduler's latency tracks. Smoothing matters: a half-second burst
    /// that transiently saturates the CPU must not look like a sustained
    /// load spike, or heartbeat false alarms become far more frequent than
    /// the once-per-tens-of-minutes the paper reports.
    pub(crate) fn estimate_load(&mut self, now: sps_sim::SimTime, machine: MachineId) -> f64 {
        const ALPHA: f64 = 0.5;
        self.cluster.machine_mut(machine).advance(now);
        let busy = self.cluster.machine(machine).busy_integral();
        let (last_t, last_busy, est) = self.load_est[machine.0 as usize];
        let dt = now.saturating_since(last_t).as_secs_f64();
        if dt < 0.01 {
            return est; // window too small; reuse the previous estimate
        }
        let util = ((busy - last_busy) / dt).clamp(0.0, 1.0);
        let ewma = (1.0 - ALPHA) * est + ALPHA * util;
        self.load_est[machine.0 as usize] = (now, busy, ewma);
        ewma
    }

    /// Submits a latency-sensitive task (heartbeat reply, benchmark probe)
    /// after an OS wake-up delay sampled from the machine's current load.
    ///
    /// The delay's median is scaled by the *foreign* fraction of that load
    /// (spikes, jitter, co-located apps): a machine saturated purely by its
    /// own two or three stream-processing threads has a short run queue and
    /// still schedules a tiny responder promptly, while a load-spike
    /// program's thread herd starves it — the distinction that lets the
    /// hybrid roll back while the primary is still draining backlog.
    pub(crate) fn submit_latency_sensitive(
        &mut self,
        ctx: &mut Ctx<Event>,
        machine: MachineId,
        demand_secs: f64,
        tag: TaskTag,
    ) {
        let load = self.estimate_load(ctx.now(), machine);
        let foreign = self.cluster.machine(machine).background_share();
        let foreign_frac = (foreign / load.max(foreign).max(1e-6)).clamp(0.0, 1.0);
        let sched = SchedLatency::default();
        let median = sched.median_at(load).mul_f64(foreign_frac);
        let delay = sched.sample_with_median(ctx.rng(), median);
        if delay.is_zero() {
            self.submit_task(ctx, machine, demand_secs, tag);
        } else {
            ctx.schedule_in(
                delay,
                Event::SubmitTask {
                    machine: machine.0,
                    demand_secs,
                    tag,
                },
            );
        }
    }

    /// Starts the next batch of up to `batch_size` elements on an instance
    /// if its loop can run (a single element at the default batch size 1).
    pub(crate) fn try_start(&mut self, ctx: &mut Ctx<Event>, slot: usize) {
        let machine = self.slots[slot].machine();
        if !self.cluster.machine(machine).is_up() {
            return;
        }
        let epoch = self.slots[slot].epoch();
        let batch = self.cfg.batch_size;
        let work = match self.slots[slot]
            .copy_mut()
            .and_then(|i| i.start_next_batch(batch))
        {
            Some(w) => w,
            None => return,
        };
        if let Some(lin) = self.lineage.as_deref_mut() {
            // The batch only starts on an empty in-flight set, so every
            // in-flight element was started just now.
            let now = ctx.now();
            for e in self.slots[slot].copy().expect("started").inflight_elems() {
                lin.note_proc_start((e.stream.0, e.seq), now);
            }
        }
        self.submit_task(
            ctx,
            machine,
            work.demand_secs,
            TaskTag::PeWork { slot, epoch },
        );
    }

    // ---- source generation ----

    pub(crate) fn on_source_tick(&mut self, ctx: &mut Ctx<Event>, source: u32, gen: TimerGen) {
        let s = source as usize;
        if !self.sources[s].timer.fire(gen) {
            return;
        }
        if !self.sources[s].is_running() {
            return;
        }
        // Under batching a tick produces `batch_size` elements and the next
        // tick moves out proportionally, preserving the configured rate
        // (one element per `gap` on average). At batch size 1 this is one
        // generate and one gap draw per tick — the unbatched schedule.
        for _ in 0..self.cfg.batch_size {
            self.sources[s].generate(ctx.now(), ctx.rng());
        }
        self.dispatch_source_outputs(ctx, s);
        let gap = self.sources[s].next_gap(ctx.now(), ctx.rng()) * self.cfg.batch_size as u64;
        let g = self.sources[s].timer.arm();
        ctx.schedule_in(gap, Event::SourceTick { source, gen: g });
    }

    /// Drains every active connection of a source's queue and transmits.
    pub(crate) fn dispatch_source_outputs(&mut self, ctx: &mut Ctx<Event>, s: usize) {
        let src_machine = self.placement.sources[s];
        // World-owned buffers serve every hop: one element buffer, with
        // spans remembering which slice belongs to which destination, and
        // one connection list — the steady-state loop allocates nothing.
        let mut elems = std::mem::take(&mut self.dispatch_scratch);
        let mut spans = std::mem::take(&mut self.span_scratch);
        let mut conns = std::mem::take(&mut self.conn_scratch);
        {
            {
                let q = self.sources[s].queue();
                conns.extend(
                    (0..q.connections().len())
                        .map(ConnectionId)
                        .filter(|&ci| q.connection(ci).active)
                        .map(|ci| (0, ci, q.connection(ci).dest)),
                );
            }
            for &(_, ci, dest) in &conns {
                // A partitioned link behaves like a stalled TCP connection:
                // the send cursor stays put and the backlog flows on heal.
                let dst = self.dest_machine(dest);
                if self.cluster.network().is_partitioned(src_machine, dst) {
                    continue;
                }
                let start = elems.len();
                self.sources[s]
                    .queue_mut()
                    .drain_sendable_into(ci, &mut elems);
                if elems.len() > start {
                    let last = elems[elems.len() - 1];
                    let (stream, last_seq, n) =
                        (last.stream.0, last.seq, (elems.len() - start) as u32);
                    self.tracer
                        .emit_data(ctx.now(), || TraceEvent::ElementSend {
                            pe: TRACE_SOURCE_PE,
                            replica: 0,
                            stream,
                            elements: n,
                            last_seq,
                        });
                    spans.push((dest, start, elems.len()));
                }
            }
        }
        if let Some(lin) = self.lineage.as_deref_mut() {
            // Roots enter the lineage here: a source element's emission is
            // its creation, its first drain is its first transmission.
            // Re-drains after a rewind and the AS second connection both
            // no-op (first-writer-wins).
            for e in &elems {
                lin.record_root((e.stream.0, e.seq), e.created_at);
            }
            note_spans_sent(lin, &elems, &spans, ctx.now());
        }
        self.transmit_spans(ctx, src_machine, false, &elems, &spans);
        elems.clear();
        spans.clear();
        conns.clear();
        self.dispatch_scratch = elems;
        self.span_scratch = spans;
        self.conn_scratch = conns;
    }

    /// Transmits the drained spans, each cut into runs of at most
    /// `batch_size` elements. A span is one connection's drain — one
    /// stream, consecutive sequence numbers — and no two connections of
    /// one dispatch continue each other's run, so no run spans two spans.
    /// At batch size 1 every run is a singleton: exactly the unbatched
    /// transmission sequence.
    fn transmit_spans(
        &mut self,
        ctx: &mut Ctx<Event>,
        src_machine: MachineId,
        produced_by_secondary: bool,
        elems: &[DataElement],
        spans: &[(Dest, usize, usize)],
    ) {
        debug_assert!(
            spans.windows(2).all(|w| {
                let ((d0, _, end), (d1, start, _)) = (w[0], w[1]);
                let (last, first) = (elems[end - 1], elems[start]);
                !(d0 == d1 && last.stream == first.stream && last.seq + 1 == first.seq)
            }),
            "a dispatch drained two spans that form one run"
        );
        let batch = self.cfg.batch_size as usize;
        for &(dest, start, end) in spans {
            for run in elems[start..end].chunks(batch) {
                self.send_run(ctx, src_machine, produced_by_secondary, dest, run);
            }
        }
    }

    /// Transmits one run — a singleton as [`Msg::Data`], two or
    /// more elements as one range-stamped [`Msg::DataBatch`] in a buffer
    /// from the free list — classifying redundant copies and accounting
    /// the hybrid's switch-over overhead (elements still sent to the
    /// suspected primary, Fig 10) per element.
    fn send_run(
        &mut self,
        ctx: &mut Ctx<Event>,
        src_machine: MachineId,
        produced_by_secondary: bool,
        dest: Dest,
        run: &[DataElement],
    ) {
        let dst = self.dest_machine(dest);
        let n = run.len() as u64;
        let mut class = if produced_by_secondary {
            MsgClass::DupData
        } else {
            MsgClass::Data
        };
        if let Dest::Pe { inst, .. } = dest {
            if inst.replica == Replica::Secondary {
                class = MsgClass::DupData;
            }
            let sj = &mut self.subjobs[self.job.subjob_of(inst.pe).0 as usize];
            if sj.state == SjState::SwitchedOver && dst == sj.primary_machine && src_machine != dst
            {
                sj.switch_overhead_elements += n;
            }
        }
        self.metric_inc(
            Scope::machine("data_plane", src_machine.0),
            "elements_sent",
            n,
        );
        let msg = match *run {
            [elem] => Msg::Data { to: dest, elem },
            _ => Msg::DataBatch {
                to: dest,
                batch: DataBatch::from_run_in(run, self.batch_bufs.pop().unwrap_or_default()),
            },
        };
        self.send_msg(ctx, src_machine, dst, msg, class, n);
    }

    /// Drains every active connection of the instance's sendable output
    /// ports (see [`sps_engine::PeInstance::take_sendable_conns`]) and
    /// transmits the new elements. A port outside the set has nothing to
    /// send, so the cost follows the ports written, not the ports owned.
    pub(crate) fn dispatch_outputs(&mut self, ctx: &mut Ctx<Event>, slot: usize) {
        let (pe, replica) = unslot(slot);
        let src_machine = self.slots[slot].machine();
        let Some(inst) = self.slots[slot].copy_mut() else {
            return;
        };
        debug_assert!(
            inst.sendable_set_is_complete(),
            "{pe}/{replica}: an output port outside the sendable set has unsent elements"
        );
        // Same reused-buffer pattern as `dispatch_source_outputs`.
        let mut elems = std::mem::take(&mut self.dispatch_scratch);
        let mut spans = std::mem::take(&mut self.span_scratch);
        let mut conns = std::mem::take(&mut self.conn_scratch);
        inst.take_sendable_conns(&mut conns);
        for &(port, ci, dest) in &conns {
            let dst = self.dest_machine(dest);
            let partitioned = self.cluster.network().is_partitioned(src_machine, dst);
            let inst = self.slots[slot].copy_mut().expect("checked");
            if partitioned {
                // Stalled-TCP semantics across partitions: keep the cursor,
                // and keep the port in the set so the backlog flows on heal.
                if inst.output(port).has_unsent(ci) {
                    inst.mark_sendable(port);
                }
                continue;
            }
            let start = elems.len();
            inst.drain_sendable_into(port, ci, &mut elems);
            if elems.len() > start {
                let last = elems[elems.len() - 1];
                let (stream, last_seq, n) = (last.stream.0, last.seq, (elems.len() - start) as u32);
                self.tracer
                    .emit_data(ctx.now(), || TraceEvent::ElementSend {
                        pe: pe.0,
                        replica: replica_code(replica),
                        stream,
                        elements: n,
                        last_seq,
                    });
                spans.push((dest, start, elems.len()));
            }
        }
        if let Some(lin) = self.lineage.as_deref_mut() {
            // Hop records were created when the producing element finished;
            // checkpoint-restored elements with no record no-op here.
            note_spans_sent(lin, &elems, &spans, ctx.now());
        }
        let produced_by_secondary = replica == Replica::Secondary;
        self.transmit_spans(ctx, src_machine, produced_by_secondary, &elems, &spans);
        elems.clear();
        spans.clear();
        conns.clear();
        self.dispatch_scratch = elems;
        self.span_scratch = spans;
        self.conn_scratch = conns;
    }

    // ---- machine tick: CPU task completions ----

    pub(crate) fn on_machine_tick(&mut self, ctx: &mut Ctx<Event>, machine: u32, gen: TimerGen) {
        let m = MachineId(machine);
        if !self.machine_timers[machine as usize].fire(gen) {
            return;
        }
        self.cluster.machine_mut(m).advance(ctx.now());
        // Reused world scratch: completions fire once per task — the
        // steady-state hot path — so the buffer must not allocate.
        let mut finished = std::mem::take(&mut self.task_scratch);
        self.cluster
            .machine_mut(m)
            .collect_finished_into(&mut finished);
        for task in &finished {
            match task.tag {
                TaskTag::PeWork { slot, epoch } => self.on_pe_work_done(ctx, slot, epoch),
                TaskTag::HeartbeatReply { subjob, seq, round } => {
                    self.on_heartbeat_reply_done(ctx, m, subjob, seq, round)
                }
                TaskTag::Benchmark { det } => self.on_benchmark_done(ctx, det),
            }
        }
        finished.clear();
        self.task_scratch = finished;
        self.rearm_machine(ctx, m);
    }

    fn on_pe_work_done(&mut self, ctx: &mut Ctx<Event>, slot: usize, epoch: u32) {
        let record = &self.slots[slot];
        if record.epoch() != epoch || !record.copy().is_some_and(|i| i.has_inflight()) {
            return; // stale completion from before a restore/redeploy
        }
        let (pe, replica) = unslot(slot);
        // One CPU task completes the whole in-flight batch (a single
        // element at batch size 1), oldest first. The outputs land in the
        // output queues and are dispatched by draining connections below;
        // lineage links each to the input that produced it as it is stamped.
        let now = ctx.now();
        let mut lineage = self.lineage.as_deref_mut();
        let batch_len = self.slots[slot].copy_mut().expect("checked").finish_batch(
            &mut self.emit_scratch,
            &mut self.dispatch_scratch,
            |parent, _, child| {
                if let Some(lin) = lineage.as_deref_mut() {
                    lin.record_hop(
                        (parent.stream.0, parent.seq),
                        (child.stream.0, child.seq),
                        pe.0,
                        replica_code(replica),
                        now,
                    );
                }
            },
        );
        self.dispatch_outputs(ctx, slot);

        // Copies that do not ack on checkpoints send batched acks on
        // processing. Backlog accounting is per element, so a batch
        // crosses the ack threshold exactly where singleton completions
        // would.
        if !self.acks_on_checkpoint(pe, replica) {
            for _ in 0..batch_len {
                let backlog = &mut self.slots[slot].ack_backlog;
                *backlog += 1;
                if *backlog >= ACK_EVERY_ELEMENTS {
                    *backlog = 0;
                    self.send_instance_acks(ctx, slot);
                }
            }
        }

        // Checkpoint pause handshake: the paused PE just quiesced.
        let quiesced = self.slots[slot].copy().is_some_and(|i| i.is_quiescent());
        if quiesced {
            self.on_pe_quiesced(ctx, pe, replica);
        }

        self.try_start(ctx, slot);
    }

    /// Sends cumulative acks for every input port of an instance, from its
    /// current processed positions.
    pub(crate) fn send_instance_acks(&mut self, ctx: &mut Ctx<Event>, slot: usize) {
        let (pe, replica) = unslot(slot);
        let from_machine = self.slots[slot].machine();
        let mut positions = std::mem::take(&mut self.ack_scratch);
        match self.slots[slot].copy() {
            Some(inst) => {
                for port in 0..inst.input_ports() {
                    positions.extend(
                        inst.input(port)
                            .positions_iter()
                            .map(|(stream, seq)| (port, stream, seq)),
                    );
                }
            }
            None => {
                self.ack_scratch = positions;
                return;
            }
        }
        for &(port, stream, seq) in &positions {
            let from = Dest::Pe {
                inst: sps_engine::InstanceId { pe, replica },
                port,
            };
            self.send_acks_for_stream(ctx, from_machine, from, stream, seq);
        }
        positions.clear();
        self.ack_scratch = positions;
    }

    /// Sends an ack for one stream position to every serving producer copy.
    pub(crate) fn send_acks_for_stream(
        &mut self,
        ctx: &mut Ctx<Event>,
        from_machine: MachineId,
        from: Dest,
        stream: StreamId,
        seq: u64,
    ) {
        if seq == 0 {
            return; // nothing processed yet
        }
        for (addr, machine) in self.ack_targets(stream).into_iter().flatten() {
            self.send_msg(
                ctx,
                from_machine,
                machine,
                Msg::Ack {
                    to: addr,
                    from,
                    seq,
                },
                MsgClass::Ack,
                0,
            );
        }
    }

    /// The producer copies that should receive acks for `stream` — at most
    /// two (a source, or up to both serving replicas of a PE), returned in
    /// a fixed-size array so the per-element ack path never allocates.
    pub(crate) fn ack_targets(&self, stream: StreamId) -> [Option<(ProducerAddr, MachineId)>; 2] {
        match self.job.producer(stream) {
            sps_engine::Producer::Source(src) => [
                Some((
                    ProducerAddr::Source(src),
                    self.placement.sources[src.0 as usize],
                )),
                None,
            ],
            sps_engine::Producer::Pe(pe, port) => {
                let mut out = [None, None];
                let mut n = 0;
                for r in Replica::BOTH {
                    if self.slot_is_serving(slot_of(pe, r)) {
                        out[n] = Some((
                            ProducerAddr::Instance(sps_engine::InstanceId { pe, replica: r }, port),
                            self.slots[slot_of(pe, r)].machine(),
                        ));
                        n += 1;
                    }
                }
                out
            }
        }
    }

    // ---- delivery ----

    pub(crate) fn on_deliver(&mut self, ctx: &mut Ctx<Event>, to: MachineId, msg: Msg) {
        if !self.cluster.machine(to).is_up() {
            // Fail-stopped machines receive nothing. Drops are counted in
            // elements, so a lost batch reports its full length.
            let lost = match &msg {
                Msg::Data { .. } => 1,
                Msg::DataBatch { batch, .. } => batch.len() as u32,
                _ => 0,
            };
            if lost > 0 {
                self.tracer.emit(
                    ctx.now(),
                    TraceEvent::ElementDrop {
                        machine: to.0,
                        elements: lost,
                        reason: DropReason::MachineDown,
                    },
                );
            }
            return;
        }
        match msg {
            Msg::Data { to: dest, elem } => {
                self.on_data(ctx, to, dest, std::slice::from_ref(&elem))
            }
            Msg::DataBatch { to: dest, batch } => {
                self.on_data(ctx, to, dest, batch.elems());
                // The receiver hands the element buffer back for the next
                // batch any sender builds.
                self.batch_bufs.push(batch.into_buffer());
            }
            Msg::Ack {
                to: addr,
                from,
                seq,
            } => self.on_ack(ctx, to, addr, from, seq),
            Msg::Ping { subjob, seq, round } => {
                self.submit_latency_sensitive(
                    ctx,
                    to,
                    HEARTBEAT_REPLY_DEMAND_SECS,
                    TaskTag::HeartbeatReply { subjob, seq, round },
                );
            }
            Msg::Pong { subjob, seq, round } => self.on_pong(ctx, subjob, seq, round),
            Msg::Checkpoint {
                subjob,
                epoch,
                ckpts,
            } => self.on_checkpoint_arrival(ctx, to, subjob, epoch, ckpts),
            Msg::CheckpointStored { subjob, epoch, pes } => {
                self.on_checkpoint_stored(ctx, to, subjob, epoch, pes)
            }
            Msg::StateRead {
                subjob,
                epoch,
                ckpts,
            } => self.on_state_read(ctx, to, subjob, epoch, ckpts),
            Msg::Reliable { tx, from, inner } => self.on_reliable(ctx, to, from, tx, *inner),
            Msg::RelAck { tx } => {
                self.rel_inflight.remove(&tx);
            }
        }
    }

    /// Delivers a run — a singleton message or a range-stamped batch. The
    /// input queue's deduplication and position tracking see the run as
    /// they would its elements one by one (so a partial retransmission
    /// overlapping an earlier delivery stays exactly-once), while traces,
    /// metrics, and acknowledgments aggregate over the run.
    fn on_data(&mut self, ctx: &mut Ctx<Event>, at: MachineId, dest: Dest, run: &[DataElement]) {
        let now = ctx.now();
        let (first, last) = (run[0], run[run.len() - 1]);
        let stream = first.stream;
        match dest {
            Dest::Pe { inst, port } => {
                let slot = slot_of(inst.pe, inst.replica);
                let record = &self.slots[slot];
                if record.copy().is_none() || record.machine() != at {
                    // Stale delivery to a departed instance.
                    self.tracer.emit(
                        now,
                        TraceEvent::ElementDrop {
                            machine: at.0,
                            elements: run.len() as u32,
                            reason: DropReason::StaleEpoch,
                        },
                    );
                    return;
                }
                if let Some(lin) = self.lineage.as_deref_mut() {
                    // First arrival of any copy — duplicates and stashed
                    // out-of-order arrivals no-op via first-writer-wins.
                    lin.note_recv_range(stream.0, first.seq, last.seq, now);
                }
                let offer = self.slots[slot]
                    .copy_mut()
                    .expect("checked")
                    .offer_run(port, run);
                self.tracer.emit_data(now, || TraceEvent::ElementRecv {
                    pe: inst.pe.0,
                    replica: replica_code(inst.replica),
                    stream: stream.0,
                    accepted: offer.accepted as u32,
                    stashed: offer.stashed as u32,
                    duplicates: offer.duplicates as u32,
                });
                if offer.duplicates > 0 {
                    self.metric_inc(
                        Scope::machine("data_plane", at.0),
                        "duplicates",
                        offer.duplicates as u64,
                    );
                    self.tracer.emit(
                        now,
                        TraceEvent::ElementDrop {
                            machine: at.0,
                            elements: offer.duplicates as u32,
                            reason: DropReason::Duplicate,
                        },
                    );
                    // Under the reliable layer a duplicate is usually a
                    // sweep retransmission whose original ack was lost:
                    // re-ack from the current positions so the producer
                    // trims and stops resending — once per run, cumulative
                    // acks cover every duplicate in it. Checkpoint-acked
                    // primaries must not — their acks may only follow
                    // stored checkpoints (§III-B ordering).
                    if self.cfg.reliable_control && !self.acks_on_checkpoint(inst.pe, inst.replica)
                    {
                        self.send_instance_acks(ctx, slot);
                    }
                }
                self.try_start(ctx, slot);
            }
            Dest::Sink(sink) => {
                let s = sink.0 as usize;
                if let Some(lin) = self.lineage.as_deref_mut() {
                    lin.note_recv_range(stream.0, first.seq, last.seq, now);
                }
                // The end-to-end delay is observed per element of the run
                // whose own offer the sink accepted.
                let metrics = &mut self.metrics;
                let observe = |elem: &DataElement| {
                    if let Some(registry) = metrics.as_deref_mut() {
                        let e2e_ms = now.saturating_since(elem.created_at).as_millis_f64();
                        registry.observe(Scope::global("sink"), "e2e_delay_ms", e2e_ms);
                    }
                };
                let accept = self.sinks[s].deliver_run(now, run, observe);
                let through = accept.processed_through;
                if accept.newly_accepted > 0 {
                    self.metric_inc(
                        Scope::global("sink"),
                        "accepted",
                        accept.newly_accepted as u64,
                    );
                    if let Some(lin) = self.lineage.as_deref_mut() {
                        // `processed_through` is cumulative: it covers the
                        // run plus any stashed elements the gap-fill just
                        // released, each recorded delivered exactly once.
                        lin.record_delivery(sink.0, stream.0, through, now);
                    }
                }
                self.tracer.emit(
                    now,
                    TraceEvent::SinkDeliver {
                        sink: sink.0,
                        stream: stream.0,
                        seq_start: first.seq,
                        seq_end: last.seq,
                        newly_accepted: accept.newly_accepted as u32,
                        duplicates: accept.duplicates as u32,
                        processed_through: through,
                    },
                );
                // One cumulative ack per run: acks are monotone, so the
                // final position covers every accepted element. A wholly
                // rejected run is re-acked under the reliable layer if it
                // starts behind the processed position (a retransmission
                // whose ack was lost).
                if accept.newly_accepted > 0 || (self.cfg.reliable_control && through >= first.seq)
                {
                    let from_machine = self.placement.sinks[s];
                    self.send_acks_for_stream(ctx, from_machine, Dest::Sink(sink), stream, through);
                }
            }
        }
    }

    fn on_ack(
        &mut self,
        ctx: &mut Ctx<Event>,
        at: MachineId,
        addr: ProducerAddr,
        from: Dest,
        seq: u64,
    ) {
        if self.producer_machine(addr) != Some(at) {
            return;
        }
        let (pe, replica) = match addr {
            ProducerAddr::Source(_) => (TRACE_SOURCE_PE, 0),
            ProducerAddr::Instance(iid, _) => (iid.pe.0, replica_code(iid.replica)),
        };
        self.tracer.emit_data(ctx.now(), || TraceEvent::Ack {
            pe,
            replica,
            through_seq: seq,
        });
        let Some(conn) = self.producer_queue(addr).and_then(|q| find_conn(q, from)) else {
            return;
        };
        match addr {
            ProducerAddr::Source(src) => {
                self.sources[src.0 as usize]
                    .queue_mut()
                    .register_ack(conn, seq);
            }
            ProducerAddr::Instance(iid, port) => {
                // An ack sends nothing: it leaves the sendable set alone.
                let inst = self.slots[slot_of(iid.pe, iid.replica)]
                    .copy_mut()
                    .expect("located above");
                if inst.register_ack(port, conn, seq) > 0 {
                    // "For each PE, checkpoints happen immediately after its
                    // output queue is trimmed."
                    self.maybe_sweep_checkpoint(ctx, iid.pe, iid.replica);
                }
            }
        }
    }

    /// A heartbeat reply is ready: the pong goes to the machine that is
    /// `subjob`'s standby now, which is the pinging machine unless the roles
    /// moved since the ping left.
    fn on_heartbeat_reply_done(
        &mut self,
        ctx: &mut Ctx<Event>,
        at: MachineId,
        subjob: SubjobId,
        seq: u64,
        round: u64,
    ) {
        let Some(monitor_machine) = self.subjobs[subjob.0 as usize].secondary_machine else {
            return;
        };
        self.send_msg(
            ctx,
            at,
            monitor_machine,
            Msg::Pong { subjob, seq, round },
            MsgClass::Heartbeat,
            0,
        );
    }

    pub(crate) fn on_set_background(
        &mut self,
        ctx: &mut Ctx<Event>,
        machine: u32,
        component: LoadComponent,
        share: f64,
    ) {
        let m = MachineId(machine);
        if component == LoadComponent::Spike && share > 0.0 {
            self.tracer.emit(
                ctx.now(),
                TraceEvent::FailureInject {
                    machine,
                    fail_stop: false,
                },
            );
        }
        self.cluster
            .machine_mut(m)
            .set_background(ctx.now(), component, share);
        self.rearm_machine(ctx, m);
    }

    // ---- data-plane retransmission sweep ----

    /// Walks the connections of one producer copy's output queue — if the
    /// copy is deployed and its machine up — and rewinds every connection
    /// the [`SweepLedger`](crate::sweep::SweepLedger) finds due to its first
    /// unacknowledged retained element. Returns whether a cursor moved,
    /// i.e. whether the producer has something to re-dispatch.
    fn sweep_rewind(&mut self, addr: ProducerAddr) -> bool {
        let up = |m: &MachineId| self.cluster.machine(*m).is_up();
        let Some(src) = self.producer_machine(addr).filter(up) else {
            return false;
        };
        let mut rewound = false;
        for ci in 0..self
            .producer_queue(addr)
            .expect("swept")
            .connections()
            .len()
        {
            let conn = ConnectionId(ci);
            let q = self.producer_queue(addr).expect("swept");
            let (stream, c) = (q.stream().0, q.connection(conn));
            let (dest, acked, next) = (c.dest, c.acked, c.next_to_send);
            let window = (c.active && next > acked + 1).then_some((acked, next));
            let reachable = window.is_some() && {
                let dst = self.dest_machine(dest);
                self.cluster.machine(dst).is_up()
                    && !self.cluster.network().is_partitioned(src, dst)
            };
            if !self.rel_sweep_prev.observe((addr, ci), window, reachable) {
                continue;
            }
            let resent = self.producer_queue_mut(addr).expect("swept").rewind(conn);
            if resent.is_empty() {
                continue;
            }
            rewound = true;
            let n = resent.end - resent.start;
            self.metric_inc(Scope::global("reliable"), "data_retransmits", n);
            // One contiguous range, even where a batched resend splits
            // on the acked boundary.
            self.note_replay_retransmits(stream, resent);
        }
        rewound
    }

    /// Periodic data-plane retransmission sweep (scheduled only when
    /// [`crate::HaConfig::reliable_control`] is on). Chaos losses silently
    /// advance a producer's send cursor past elements that never arrived
    /// (or whose acks were lost); a connection that made no progress over
    /// a full sweep interval rewinds to its first unacknowledged element
    /// and re-dispatches, then backs off while it stays silent (the rule
    /// is [`crate::sweep::SweepLedger::observe`]). Receivers deduplicate by
    /// sequence number, so an early rewind costs bandwidth, never
    /// correctness.
    pub(crate) fn on_retransmit_sweep(&mut self, ctx: &mut Ctx<Event>) {
        ctx.schedule_in(REL_SWEEP_INTERVAL, Event::RetransmitSweep);
        for s in 0..self.sources.len() {
            if self.sweep_rewind(ProducerAddr::Source(SourceId(s as u32))) {
                self.dispatch_source_outputs(ctx, s);
            }
        }
        for slot in 0..self.slots.len() {
            let (pe, replica) = unslot(slot);
            let mut rewound = false;
            for port in 0..self.job.out_ports(pe) {
                rewound |=
                    self.sweep_rewind(ProducerAddr::Instance(InstanceId { pe, replica }, port));
            }
            if rewound {
                self.dispatch_outputs(ctx, slot);
            }
        }
    }
}

/// Stamps the first transmission of every drained span: a span is one
/// connection's drain of one output queue, hence one stream and
/// consecutive sequences, so it is a single range in the lineage table.
fn note_spans_sent(
    lin: &mut LineageTable,
    elems: &[DataElement],
    spans: &[(Dest, usize, usize)],
    now: SimTime,
) {
    for &(_, start, end) in spans {
        let (first, last) = (elems[start], elems[end - 1]);
        debug_assert!(
            first.stream == last.stream && last.seq - first.seq == (end - start - 1) as u64,
            "a drained span is one contiguous run"
        );
        lin.note_sent_range(first.stream.0, first.seq, last.seq, now);
    }
}

/// Schedules the initial events of a freshly built world: source ticks,
/// the heartbeat round, and (for timer-driven protocols) checkpoint timers.
pub fn schedule_initial_events(world: &mut HaWorld, ctx: &mut Ctx<Event>) {
    for s in 0..world.sources.len() {
        let gap = world.sources[s].next_gap(ctx.now(), ctx.rng());
        let gen = world.sources[s].timer.arm();
        ctx.schedule_in(
            gap,
            Event::SourceTick {
                source: s as u32,
                gen,
            },
        );
    }
    // One round walks every monitored subjob; a job with none schedules
    // no round at all.
    if world.subjobs.iter().any(|sj| sj.hb.is_some()) {
        ctx.schedule_in(world.cfg.heartbeat_interval, Event::HeartbeatTick);
    }
    // The sampler runs only when something observes it — a trace sink or
    // probe, or the metrics registry — so plain runs keep an identical
    // event schedule. It is strictly read-only, so even a sampled run
    // perturbs nothing.
    if world.tracer.is_enabled() || world.metrics.is_some() {
        ctx.schedule_in(crate::world::SAMPLE_INTERVAL, Event::Sample);
    }
    // The retransmission sweep exists only under the reliable layer, so
    // default runs keep an identical event schedule.
    if world.cfg.reliable_control {
        ctx.schedule_in(REL_SWEEP_INTERVAL, Event::RetransmitSweep);
    }
    use crate::config::CheckpointProtocol;
    match world.cfg.checkpoint_protocol {
        CheckpointProtocol::Sweeping => {} // trim-driven, seeded by sink acks
        CheckpointProtocol::Synchronous => {
            for sj in 0..world.subjobs.len() {
                if world.subjobs[sj].mode.checkpoints() {
                    ctx.schedule_in(
                        world.cfg.checkpoint_interval,
                        Event::CheckpointTimer {
                            subjob: sj as u32,
                            pe: None,
                        },
                    );
                }
            }
        }
        CheckpointProtocol::Individual => {
            for sj_idx in 0..world.subjobs.len() {
                if !world.subjobs[sj_idx].mode.checkpoints() {
                    continue;
                }
                let pes: Vec<_> = world
                    .job
                    .subjob_pes(sps_engine::SubjobId(sj_idx as u32))
                    .to_vec();
                let n = pes.len().max(1) as u64;
                for (i, pe) in pes.into_iter().enumerate() {
                    // Stagger the per-PE timers across the interval.
                    let offset = world.cfg.checkpoint_interval * (i as u64) / n;
                    ctx.schedule_in(
                        world.cfg.checkpoint_interval + offset,
                        Event::CheckpointTimer {
                            subjob: sj_idx as u32,
                            pe: Some(pe),
                        },
                    );
                }
            }
        }
    }
}
