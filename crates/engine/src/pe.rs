//! The PE runtime: one deployed copy of a processing element.
//!
//! A [`PeInstance`] is a *physical* copy (primary or secondary replica) of a
//! logical PE: the operator plus its input and output queues, a suspension
//! flag ("The PE's processing loop is stopped when a flag is set to indicate
//! suspension", §IV-B), and the pause/checkpoint/resume surface the paper's
//! Checkpoint Manager drives.
//!
//! Instances are passive: the HA runtime decides when to start work (it owns
//! the machines), so the instance exposes `start_next_batch` /
//! `finish_batch` around each batch of elements, and the runtime submits
//! the CPU task in between.

use std::fmt;

use crate::chunk::ChunkedDeque;
use crate::element::{DataElement, PeId, StreamId};
use crate::operator::{Emitter, Operator, OperatorSpec, OperatorState};
use crate::queue::{ConnectionId, InputQueue, Offer, OutputQueue, OutputQueueState, RunOffer};

/// Which copy of a logical PE an instance is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Replica {
    /// The primary copy.
    Primary,
    /// The standby copy.
    Secondary,
}

impl Replica {
    /// Both replicas, primary first.
    pub const BOTH: [Replica; 2] = [Replica::Primary, Replica::Secondary];

    /// The other replica.
    pub fn other(self) -> Replica {
        match self {
            Replica::Primary => Replica::Secondary,
            Replica::Secondary => Replica::Primary,
        }
    }
}

impl fmt::Display for Replica {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Replica::Primary => write!(f, "pri"),
            Replica::Secondary => write!(f, "sec"),
        }
    }
}

/// Identifies one physical PE copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId {
    /// The logical PE.
    pub pe: PeId,
    /// Which copy.
    pub replica: Replica,
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.pe, self.replica)
    }
}

/// Identifies an external consumer of a job's final output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SinkId(pub u32);

impl fmt::Display for SinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sink{}", self.0)
    }
}

/// The destination of an output-queue connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dest {
    /// An input port of another PE instance.
    Pe {
        /// The consuming instance.
        inst: InstanceId,
        /// Its input port.
        port: usize,
    },
    /// An external sink.
    Sink(SinkId),
}

/// A checkpoint of one PE: internal state and output queues, plus the input
/// *positions* (not data) needed to resume consistently. Matches §III-B:
/// "a checkpoint message includes the internal states and output queues, but
/// not input queues, of a PE".
///
/// A checkpoint lists the output ports it carries. A *full* one
/// (`base == None`) lists every port, ascending. A *delta* lists only the
/// ports whose queue moved since the capture named by `base`, and is
/// applied onto that capture: [`PeCheckpoint::apply`] onto a restore point,
/// [`PeInstance::restore`] onto a copy that holds it. Both kinds are one
/// type with one apply path; a full checkpoint is a delta that lists every
/// port. Either kind reports the whole checkpoint in
/// [`PeCheckpoint::element_count`], so the simulated message costs what a
/// full checkpoint costs.
#[derive(Debug, Clone, PartialEq)]
pub struct PeCheckpoint {
    /// The logical PE this checkpoint belongs to.
    pub pe: PeId,
    /// Operator internal state.
    pub operator_state: OperatorState,
    /// Checkpoint cost accounting: the internal-state size in element
    /// units plus the retained output elements over *every* port of the
    /// copy at capture, listed or not.
    pub elements: u64,
    /// `(output port, queue snapshot)` for each listed port, ascending by
    /// port: every port of a full checkpoint, the moved ones of a delta.
    pub outputs: Vec<(usize, OutputQueueState)>,
    /// Processed positions per input port.
    pub input_positions: Vec<Vec<(StreamId, u64)>>,
    /// Accepted-but-unprocessed input elements per port. An empty `Vec`
    /// (no entry per port) for periodic checkpoints (§III-B excludes input
    /// queues); one deque per input port, filled only by the
    /// hybrid rollback's read-state operation, which transfers the
    /// secondary's backlog so the primary "can jump to the latest state
    /// directly" (§IV-B). Captured as chunk pointers, not element copies.
    pub input_backlog: Vec<ChunkedDeque>,
    /// Names this capture; the caller hands out a distinct stamp per
    /// capture of a PE.
    pub stamp: u32,
    /// The capture a delta was cut from; `None` for a full checkpoint.
    pub base: Option<u32>,
}

impl PeCheckpoint {
    /// Elements this checkpoint contributes to a checkpoint message:
    /// retained output-queue elements over every port, transferred input
    /// backlog, and the internal state in element units. A delta counts
    /// the same as the full checkpoint it stands for.
    pub fn element_count(&self) -> u64 {
        self.elements
            + self
                .input_backlog
                .iter()
                .map(|b| b.len() as u64)
                .sum::<u64>()
    }

    /// Approximate wire size of the checkpoint message.
    pub fn byte_size(&self, bytes_per_element: u32) -> u64 {
        self.element_count() * bytes_per_element as u64 + 64
    }

    /// `true` for a checkpoint that lists every output port.
    pub fn is_full(&self) -> bool {
        self.base.is_none()
    }

    /// Brings this full checkpoint (a restore point) up to `ckpt`: a full
    /// `ckpt` replaces it, a delta replaces the ports it lists and
    /// everything but the output queues. Costs O(listed ports); the
    /// replaced port states are dropped here. Applying the same delta twice
    /// leaves what applying it once left.
    ///
    /// # Panics
    ///
    /// Panics if this checkpoint is a delta, belongs to another PE, or is
    /// neither `ckpt`'s base nor `ckpt` itself.
    pub fn apply(&mut self, ckpt: PeCheckpoint) {
        assert!(self.is_full(), "a restore point lists every port");
        assert_eq!(
            ckpt.pe, self.pe,
            "checkpoint of {} applied to {}",
            ckpt.pe, self.pe
        );
        let Some(base) = ckpt.base else {
            *self = ckpt;
            return;
        };
        assert!(
            self.stamp == base || self.stamp == ckpt.stamp,
            "{}: delta {} cut from {} applied onto {}",
            self.pe,
            ckpt.stamp,
            base,
            self.stamp
        );
        for (port, state) in ckpt.outputs {
            let entry = &mut self.outputs[port];
            debug_assert_eq!(entry.0, port, "a full listing is indexed by port");
            entry.1 = state;
        }
        self.operator_state = ckpt.operator_state;
        self.elements = ckpt.elements;
        self.input_positions = ckpt.input_positions;
        self.input_backlog = ckpt.input_backlog;
        self.stamp = ckpt.stamp;
    }
}

/// A batch of in-flight elements submitted as one CPU task: up to
/// `batch_size` elements dequeued round-robin, with their demands summed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkBatch {
    /// Elements taken in flight by this batch.
    pub elements: u32,
    /// Summed CPU demand in seconds.
    pub demand_secs: f64,
}

/// One deployed copy of a PE.
#[derive(Debug)]
pub struct PeInstance {
    id: InstanceId,
    spec: OperatorSpec,
    operator: Box<dyn Operator>,
    inputs: Vec<InputQueue>,
    outputs: Vec<OutputQueue<Dest>>,
    suspended: bool,
    pause_requested: bool,
    /// Elements currently on the CPU, oldest first. Singleton except when
    /// the runtime starts a multi-element batch; completion walks it in
    /// dequeue order so per-element semantics (lineage parents, acks,
    /// output stamping) are preserved under batching.
    inflight: Vec<DataElement>,
    /// The maximal same-port runs of `inflight`, as `(input port, end
    /// index)`. A single-input instance leaves it empty — its whole batch
    /// is one run of port 0 — so only fan-in instances allocate it.
    port_runs: Vec<(usize, usize)>,
    next_input_port: u32,
    processed_total: u64,
    /// Two port sets, bit `p` of word `p / 64` each: the sendable set in
    /// the first half, the moved set in the second.
    ///
    /// The sendable set holds every output port with an element that some
    /// active connection has not yet sent (it may also hold a clean port —
    /// draining one is a no-op). The runtime dispatches only these ports,
    /// so a wide router pays for the ports it wrote, not the ports it has.
    ///
    /// The moved set holds every output port whose `(next_seq, trimmed)`
    /// changed since the copy last took or received a checkpoint (it may
    /// also hold a port that did not move). Outside it, every queue holds
    /// what the checkpoint named by `basis` lists for it, so a delta onto
    /// `basis` lists these ports and nothing else: a wide router's
    /// checkpoint costs the ports that moved, not the ports it has.
    sets: Box<[u64]>,
    /// The checkpoint this copy's queues match outside the moved set:
    /// the copy's last capture, or the last checkpoint restored into it.
    /// `None` for a fresh copy.
    basis: Option<u32>,
    /// Retained output elements summed over every port, kept exactly at
    /// each change so a delta can report the whole checkpoint's size.
    retained: u64,
}

impl PeInstance {
    /// Deploys a fresh copy with the given port counts.
    pub fn new(
        id: InstanceId,
        spec: OperatorSpec,
        in_ports: usize,
        out_streams: &[StreamId],
    ) -> Self {
        let operator = spec.build();
        PeInstance {
            id,
            spec,
            operator,
            inputs: (0..in_ports).map(|_| InputQueue::new()).collect(),
            outputs: out_streams.iter().map(|&s| OutputQueue::new(s)).collect(),
            suspended: false,
            pause_requested: false,
            inflight: Vec::new(),
            port_runs: Vec::new(),
            next_input_port: 0,
            processed_total: 0,
            sets: vec![0; 2 * out_streams.len().div_ceil(64)].into_boxed_slice(),
            basis: None,
            retained: 0,
        }
    }

    /// This instance's identity.
    pub fn id(&self) -> InstanceId {
        self.id
    }

    /// The operator spec this instance was deployed from.
    pub fn spec(&self) -> &OperatorSpec {
        &self.spec
    }

    // ---- wiring ----

    /// Registers an upstream stream on input `port`.
    pub fn register_input_stream(&mut self, port: usize, stream: StreamId) {
        self.inputs[port].register_stream(stream);
    }

    /// Connects output `port` to `dest`; an active connection also gates
    /// trimming.
    pub fn connect_output(&mut self, port: usize, dest: Dest, active: bool) -> ConnectionId {
        self.mark_sendable(port);
        self.outputs[port].connect(dest, active, active)
    }

    /// The output queue on `port`.
    pub fn output(&self, port: usize) -> &OutputQueue<Dest> {
        &self.outputs[port]
    }

    /// Runs `f` on the output queue on `port`, exclusively. `f` may
    /// activate a connection or rewind its cursor, so the port joins the
    /// sendable set; if it trims the queue, the port joins the moved set.
    pub fn with_output<R>(
        &mut self,
        port: usize,
        f: impl FnOnce(&mut OutputQueue<Dest>) -> R,
    ) -> R {
        self.mark_sendable(port);
        let q = &mut self.outputs[port];
        let (head, floor, len) = (q.next_seq(), q.trimmed_through(), q.retained_len());
        let r = f(q);
        if (q.next_seq(), q.trimmed_through()) != (head, floor) {
            self.retained = self.retained - len as u64 + q.retained_len() as u64;
            set_bit(halves(&mut self.sets).1, port);
        }
        r
    }

    // ---- sendable-port set ----

    /// Puts `port` into the sendable set. The runtime calls this for a port
    /// whose backlog it had to leave behind (a partitioned link keeps its
    /// send cursor); every engine-side mutation marks on its own.
    pub fn mark_sendable(&mut self, port: usize) {
        set_bit(halves(&mut self.sets).0, port);
    }

    /// Empties the sendable set, appending `(port, connection, dest)` for
    /// every active connection of every port that was in it — ascending
    /// port, then ascending connection, the order a scan of all ports
    /// visits them in.
    pub fn take_sendable_conns(&mut self, out: &mut Vec<(usize, ConnectionId, Dest)>) {
        let outputs = &self.outputs;
        take_bits(halves(&mut self.sets).0, |port| {
            let conns = outputs[port].connections();
            out.extend(
                conns
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.active)
                    .map(|(ci, c)| (port, ConnectionId(ci), c.dest)),
            );
        });
    }

    /// Drains the elements `conn` of `port` has not yet sent into `out`
    /// and returns how many, without touching the sendable set — the
    /// dispatch path's accessor.
    pub fn drain_sendable_into(
        &mut self,
        port: usize,
        conn: ConnectionId,
        out: &mut Vec<DataElement>,
    ) -> usize {
        self.outputs[port].drain_sendable_into(conn, out)
    }

    /// The sendable set's invariant: every port with an element some
    /// active connection has not yet sent is in the set.
    pub fn sendable_set_is_complete(&self) -> bool {
        self.outputs.iter().enumerate().all(|(port, q)| {
            has_bit(self.sendable(), port)
                || (0..q.connections().len()).all(|ci| !q.has_unsent(ConnectionId(ci)))
        })
    }

    fn sendable(&self) -> &[u64] {
        &self.sets[..self.sets.len() / 2]
    }

    fn moved(&self) -> &[u64] {
        &self.sets[self.sets.len() / 2..]
    }

    // ---- moved-port set ----

    /// `true` if restoring `ckpt` leaves this copy as a restore of the
    /// whole checkpoint `ckpt` stands for would: `ckpt` is full, or it is a
    /// delta cut from the checkpoint this copy holds (or `ckpt` itself,
    /// applied before) and no port of the copy moved since.
    pub fn follows(&self, ckpt: &PeCheckpoint) -> bool {
        ckpt.is_full()
            || ((ckpt.base == self.basis || Some(ckpt.stamp) == self.basis)
                && self.moved().iter().all(|&w| w == 0))
    }

    /// The moved set's invariant: the running retained count is the sum
    /// over every port, and when `ckpt` is the checkpoint this copy's
    /// queues match (its basis, see [`PeInstance::snapshot`]), `ckpt` is
    /// full and every output port outside the moved set holds the state
    /// `ckpt` lists for it. O(ports + elements), for debug assertions and
    /// tests.
    pub fn holds_outside_moved(&self, ckpt: &PeCheckpoint) -> bool {
        let counted: u64 = self.outputs.iter().map(|q| q.retained_len() as u64).sum();
        let matches =
            || {
                ckpt.is_full()
                    && ckpt.outputs.len() == self.outputs.len()
                    && self.outputs.iter().zip(&ckpt.outputs).enumerate().all(
                        |(port, (q, (p, s)))| {
                            *p == port && (has_bit(self.moved(), port) || q.snapshot() == *s)
                        },
                    )
            };
        counted == self.retained && (self.basis != Some(ckpt.stamp) || matches())
    }

    /// Number of output ports.
    pub fn output_ports(&self) -> usize {
        self.outputs.len()
    }

    /// The input queue on `port`.
    pub fn input(&self, port: usize) -> &InputQueue {
        &self.inputs[port]
    }

    /// Number of input ports.
    pub fn input_ports(&self) -> usize {
        self.inputs.len()
    }

    // ---- data plane ----

    /// Offers an arriving element to input `port`.
    pub fn offer(&mut self, port: usize, elem: DataElement) -> Offer {
        self.inputs[port].offer(elem)
    }

    /// Offers an arriving run to input `port` (see
    /// [`InputQueue::offer_run`]).
    pub fn offer_run(&mut self, port: usize, run: &[DataElement]) -> RunOffer {
        self.inputs[port].offer_run(run, |_| {})
    }

    /// `true` if the processing loop may start another element.
    pub fn can_start(&self) -> bool {
        !self.suspended
            && !self.pause_requested
            && self.inflight.is_empty()
            && self.inputs.iter().any(|q| q.pending_len() > 0)
    }

    /// Dequeues up to `max` elements round-robin across ports into one
    /// in-flight batch and returns the summed CPU work, or `None` if
    /// nothing can start. An instance with a single input port takes a
    /// prefix of its pending queue as a run.
    pub fn start_next_batch(&mut self, max: u32) -> Option<WorkBatch> {
        if !self.can_start() {
            return None;
        }
        if let [input] = &mut self.inputs[..] {
            let inflight = &mut self.inflight;
            input.take_run(max as usize, |run| inflight.extend_from_slice(run));
        } else {
            let ports = self.inputs.len();
            'fill: while self.inflight.len() < max as usize {
                for i in 0..ports {
                    let port = (self.next_input_port as usize + i) % ports;
                    if let Some(elem) = self.inputs[port].take_next() {
                        self.next_input_port = ((port + 1) % ports) as u32;
                        self.inflight.push(elem);
                        match self.port_runs.last_mut() {
                            Some((last, end)) if *last == port => *end += 1,
                            _ => self.port_runs.push((port, self.inflight.len())),
                        }
                        continue 'fill;
                    }
                }
                break;
            }
        }
        let elements = self.inflight.len() as u32;
        (elements > 0).then(|| WorkBatch {
            elements,
            demand_secs: self.operator.demand_run(&self.inflight),
        })
    }

    /// Completes the whole in-flight batch, oldest first: one
    /// [`Operator::process_run`] per same-port run into the caller's empty
    /// scratch `emitter`, processed positions advanced once per (port,
    /// stream) run, then every output stamped into the output queues with
    /// its parent's origin time — each port's outputs retained as one run,
    /// staged in the caller's empty scratch buffer `staged`. Both scratch
    /// buffers are returned empty. `hop` sees every `(parent, output port,
    /// child)` as the child is stamped (lineage records the derivation
    /// there). Returns the number of elements completed.
    ///
    /// # Panics
    ///
    /// Panics if the operator's `process_run` did not close each input of
    /// its run exactly once.
    pub fn finish_batch(
        &mut self,
        emitter: &mut Emitter,
        staged: &mut Vec<DataElement>,
        mut hop: impl FnMut(&DataElement, usize, &DataElement),
    ) -> usize {
        debug_assert!(
            emitter.closed_exactly(0) && staged.is_empty(),
            "scratch in use"
        );
        let n = self.inflight.len();
        let whole = [(0, n)];
        let port_runs = if self.port_runs.is_empty() {
            &whole[..]
        } else {
            &self.port_runs[..]
        };
        let mut start = 0;
        for &(port, end) in port_runs {
            let run = &self.inflight[start..end];
            self.operator.process_run(port, run, emitter);
            for of_stream in run.chunk_by(|a, b| a.stream == b.stream) {
                // Accepted in sequence order, so the last is the highest.
                let last = of_stream[of_stream.len() - 1];
                self.inputs[port].mark_processed(last.stream, last.seq);
            }
            assert!(
                emitter.closed_exactly(end),
                "{}: process_run must end_input once per element of its run",
                self.id
            );
            start = end;
        }
        let mut staged_port = 0;
        for (parent, outputs) in self.inflight.iter().zip(emitter.per_input()) {
            for &(out_port, payload) in outputs {
                if out_port != staged_port {
                    retain_staged(
                        &mut self.outputs,
                        halves(&mut self.sets),
                        &mut self.retained,
                        staged_port,
                        staged,
                    );
                    staged_port = out_port;
                }
                let child = self.outputs[out_port].stamp(payload, parent.created_at);
                hop(parent, out_port, &child);
                staged.push(child);
            }
        }
        retain_staged(
            &mut self.outputs,
            halves(&mut self.sets),
            &mut self.retained,
            staged_port,
            staged,
        );
        emitter.clear();
        self.processed_total += n as u64;
        self.inflight.clear();
        self.port_runs.clear();
        n
    }

    /// `true` while at least one element is being processed on the CPU.
    pub fn has_inflight(&self) -> bool {
        !self.inflight.is_empty()
    }

    /// The in-flight elements in dequeue order (lineage stamps processing
    /// start for each element of a just-started batch).
    pub fn inflight_elems(&self) -> impl Iterator<Item = &DataElement> {
        self.inflight.iter()
    }

    /// Drops all in-flight elements without applying them (machine
    /// fail-stop; the elements are still retained upstream).
    pub fn abort_inflight(&mut self) {
        self.inflight.clear();
        self.port_runs.clear();
    }

    /// Total elements fully processed by this instance.
    pub fn processed_total(&self) -> u64 {
        self.processed_total
    }

    // ---- telemetry accessors ----

    /// Pending input elements summed over all ports.
    pub fn input_depth(&self) -> u64 {
        self.inputs.iter().map(|q| q.pending_len() as u64).sum()
    }

    /// Retained (unacknowledged) output elements summed over all ports.
    pub fn output_backlog(&self) -> u64 {
        self.retained
    }

    /// Largest pending-input depth ever observed on any port.
    pub fn input_high_water(&self) -> u64 {
        self.inputs
            .iter()
            .map(|q| q.high_water() as u64)
            .max()
            .unwrap_or(0)
    }

    /// Largest retained-output backlog ever observed on any port.
    pub fn output_high_water(&self) -> u64 {
        self.outputs
            .iter()
            .map(|q| q.high_water() as u64)
            .max()
            .unwrap_or(0)
    }

    /// The operator's internal state, as a checkpoint would capture it.
    pub fn operator_state(&self) -> OperatorState {
        self.operator.snapshot()
    }

    // ---- suspension (hybrid standby) ----

    /// Sets the suspension flag; suspended instances start no work.
    pub fn set_suspended(&mut self, suspended: bool) {
        self.suspended = suspended;
    }

    /// `true` while suspended.
    pub fn is_suspended(&self) -> bool {
        self.suspended
    }

    // ---- checkpoint protocol (pause / checkpoint / resume) ----

    /// Requests a checkpoint pause. Returns `true` if the PE is already
    /// quiescent (no element mid-processing); otherwise the runtime must
    /// wait for the in-flight completion before snapshotting.
    pub fn request_pause(&mut self) -> bool {
        self.pause_requested = true;
        self.inflight.is_empty()
    }

    /// `true` once a requested pause has quiesced.
    pub fn is_quiescent(&self) -> bool {
        self.pause_requested && self.inflight.is_empty()
    }

    /// Clears the pause and resumes the processing loop.
    pub fn resume(&mut self) {
        self.pause_requested = false;
    }

    /// `true` while a pause is requested.
    pub fn is_pause_requested(&self) -> bool {
        self.pause_requested
    }

    /// Captures internal state, output queues, and input positions as the
    /// checkpoint `stamp`; the input backlog stays empty (see
    /// [`PeInstance::snapshot_with_backlog`]).
    ///
    /// The capture is a delta onto `onto` when `onto` names this copy's
    /// basis — the caller passes the restore point's stamp only when a
    /// delta will be applied onto exactly that checkpoint — and full
    /// otherwise. Either way it lists the ports of the moved set, a full
    /// capture after setting every bit, and leaves the set empty with
    /// `stamp` as the new basis. O(listed ports).
    ///
    /// # Panics
    ///
    /// Panics if an element is in flight — the pause protocol must complete
    /// first, exactly like the paper's `pause(controller)` /
    /// `ackPEPause()` handshake.
    pub fn snapshot(&mut self, stamp: u32, onto: Option<u32>) -> PeCheckpoint {
        assert!(
            self.inflight.is_empty(),
            "cannot snapshot {} mid-element; pause first",
            self.id
        );
        let base = onto.filter(|_| onto == self.basis);
        if base.is_none() {
            fill_bits(halves(&mut self.sets).1, self.outputs.len());
        }
        let listed = self.moved().iter().map(|w| w.count_ones() as usize).sum();
        let mut outputs = Vec::with_capacity(listed);
        let queues = &self.outputs;
        take_bits(halves(&mut self.sets).1, |port| {
            outputs.push((port, queues[port].snapshot()))
        });
        self.basis = Some(stamp);
        PeCheckpoint {
            pe: self.id.pe,
            operator_state: self.operator.snapshot(),
            elements: self.operator.state_size_elements() + self.retained,
            outputs,
            input_positions: self.inputs.iter().map(InputQueue::positions).collect(),
            input_backlog: Vec::new(),
            stamp,
            base,
        }
    }

    /// A full [`PeInstance::snapshot`] carrying the input backlog, for the
    /// hybrid rollback's read-state operation.
    ///
    /// # Panics
    ///
    /// Panics if an element is in flight (pause first): the backlog is only
    /// contiguous when the PE is quiescent.
    pub fn snapshot_with_backlog(&mut self, stamp: u32) -> PeCheckpoint {
        let mut ckpt = self.snapshot(stamp, None);
        ckpt.input_backlog = self
            .inputs
            .iter()
            .map(InputQueue::pending_elements)
            .collect();
        ckpt
    }

    /// Restores this instance from a checkpoint: rebuilds the operator from
    /// the spec, restores its state, restores the output queues the
    /// checkpoint lists, and resets input positions (pending input data is
    /// discarded; upstream retention will retransmit it). The checkpoint
    /// becomes the copy's basis and its ports leave the moved set, so a
    /// full checkpoint leaves the set empty.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint belongs to a different logical PE, has a
    /// different port shape, or is a delta cut from a checkpoint other than
    /// the one this copy holds.
    pub fn restore(&mut self, ckpt: &PeCheckpoint) {
        assert_eq!(
            ckpt.pe, self.id.pe,
            "checkpoint of {} restored into {}",
            ckpt.pe, self.id.pe
        );
        if ckpt.is_full() {
            assert_eq!(ckpt.outputs.len(), self.outputs.len(), "output port shape");
        } else {
            assert!(
                ckpt.base == self.basis || Some(ckpt.stamp) == self.basis,
                "{}: delta {} cut from {:?} restored onto {:?}",
                self.id,
                ckpt.stamp,
                ckpt.base,
                self.basis
            );
        }
        assert_eq!(
            ckpt.input_positions.len(),
            self.inputs.len(),
            "input port shape"
        );
        self.operator = self.spec.build();
        self.operator.restore(&ckpt.operator_state);
        for (port, state) in &ckpt.outputs {
            let q = &mut self.outputs[*port];
            self.retained -= q.retained_len() as u64;
            q.restore(state);
            self.retained += q.retained_len() as u64;
            // A restored queue holds elements no cursor has been pointed at
            // yet, and now matches the checkpoint.
            let (sendable, moved) = halves(&mut self.sets);
            set_bit(sendable, *port);
            clear_bit(moved, *port);
        }
        self.basis = Some(ckpt.stamp);
        for (q, positions) in self.inputs.iter_mut().zip(&ckpt.input_positions) {
            q.restore(positions);
        }
        for (q, backlog) in self.inputs.iter_mut().zip(&ckpt.input_backlog) {
            for elem in backlog.iter() {
                q.offer(elem);
            }
        }
        self.abort_inflight();
    }

    /// The processed positions of every input port (for acknowledgment
    /// generation).
    pub fn input_positions(&self, port: usize) -> Vec<(StreamId, u64)> {
        self.inputs[port].positions()
    }

    /// Registers a cumulative ack on an output connection; returns elements
    /// trimmed.
    pub fn register_ack(&mut self, port: usize, conn: ConnectionId, seq: u64) -> usize {
        let trimmed = self.outputs[port].register_ack(conn, seq);
        if trimmed > 0 {
            self.retained -= trimmed as u64;
            set_bit(halves(&mut self.sets).1, port);
        }
        trimmed
    }
}

/// Retains the staged outputs of `port` as one run and puts the port into
/// the sendable and moved sets.
fn retain_staged(
    outputs: &mut [OutputQueue<Dest>],
    (sendable, moved): (&mut [u64], &mut [u64]),
    retained: &mut u64,
    port: usize,
    staged: &mut Vec<DataElement>,
) {
    if !staged.is_empty() {
        outputs[port].retain_run(staged);
        *retained += staged.len() as u64;
        set_bit(sendable, port);
        set_bit(moved, port);
        staged.clear();
    }
}

/// A copy's two port sets: (sendable, moved).
fn halves(sets: &mut [u64]) -> (&mut [u64], &mut [u64]) {
    let words = sets.len() / 2;
    sets.split_at_mut(words)
}

/// Sets bit `i` of a port set.
fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

/// Clears bit `i` of a port set.
fn clear_bit(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1 << (i % 64));
}

/// `true` if bit `i` of a port set is set.
fn has_bit(words: &[u64], i: usize) -> bool {
    words[i / 64] & (1 << (i % 64)) != 0
}

/// Sets the bits of ports `0..n`.
fn fill_bits(words: &mut [u64], n: usize) {
    for (w, word) in words.iter_mut().enumerate() {
        let below = n.saturating_sub(w * 64).min(64);
        *word = if below == 64 { !0 } else { (1 << below) - 1 };
    }
}

/// Empties a port set, calling `f` for each port that was in it,
/// ascending.
fn take_bits(words: &mut [u64], mut f: impl FnMut(usize)) {
    for (w, word) in words.iter_mut().enumerate() {
        let mut bits = std::mem::take(word);
        while bits != 0 {
            f(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Payload;
    use sps_sim::SimTime;

    fn elem(stream: u32, seq: u64, value: f64) -> DataElement {
        DataElement {
            stream: StreamId(stream),
            seq,
            created_at: SimTime::from_millis(seq),
            key: 0,
            value,
            size_bytes: 256,
        }
    }

    /// Completes the in-flight batch; the `(port, element)` pairs produced.
    fn finish(inst: &mut PeInstance) -> Vec<(usize, DataElement)> {
        let mut out = Vec::new();
        inst.finish_batch(
            &mut Emitter::default(),
            &mut Vec::new(),
            |_, port, child| out.push((port, *child)),
        );
        out
    }

    fn counter_instance() -> PeInstance {
        let mut inst = PeInstance::new(
            InstanceId {
                pe: PeId(1),
                replica: Replica::Primary,
            },
            OperatorSpec::Counter { demand_secs: 1e-3 },
            1,
            &[StreamId(10)],
        );
        inst.register_input_stream(0, StreamId(1));
        inst.connect_output(0, Dest::Sink(SinkId(0)), true);
        inst
    }

    #[test]
    fn process_cycle_produces_sequenced_output() {
        let mut inst = counter_instance();
        inst.offer(0, elem(1, 1, 5.0));
        let work = inst.start_next_batch(1).expect("work available");
        assert_eq!((work.elements, work.demand_secs), (1, 1e-3));
        assert!(inst.has_inflight());
        assert!(!inst.can_start(), "one element at a time");
        let out = finish(&mut inst);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.stream, StreamId(10));
        assert_eq!(out[0].1.seq, 1);
        assert_eq!(out[0].1.value, 1.0, "counter output");
        assert_eq!(
            out[0].1.created_at,
            SimTime::from_millis(1),
            "origin timestamp kept"
        );
        assert_eq!(inst.processed_total(), 1);
    }

    #[test]
    fn suspension_stops_the_loop() {
        let mut inst = counter_instance();
        inst.offer(0, elem(1, 1, 1.0));
        inst.set_suspended(true);
        assert!(!inst.can_start());
        assert!(inst.start_next_batch(1).is_none());
        inst.set_suspended(false);
        assert!(inst.start_next_batch(1).is_some());
    }

    #[test]
    fn pause_waits_for_inflight() {
        let mut inst = counter_instance();
        inst.offer(0, elem(1, 1, 1.0));
        inst.offer(0, elem(1, 2, 1.0));
        inst.start_next_batch(1).unwrap();
        assert!(!inst.request_pause(), "in flight: not quiescent yet");
        assert!(!inst.is_quiescent());
        finish(&mut inst);
        assert!(inst.is_quiescent());
        assert!(!inst.can_start(), "paused loop starts nothing");
        inst.resume();
        assert!(inst.can_start());
    }

    #[test]
    #[should_panic(expected = "pause first")]
    fn snapshot_mid_element_panics() {
        let mut inst = counter_instance();
        inst.offer(0, elem(1, 1, 1.0));
        inst.start_next_batch(1).unwrap();
        inst.snapshot(1, None);
    }

    #[test]
    fn snapshot_restore_resumes_exactly() {
        let mut a = counter_instance();
        for s in 1..=3 {
            a.offer(0, elem(1, s, 1.0));
        }
        for _ in 0..3 {
            a.start_next_batch(1).unwrap();
            finish(&mut a);
        }
        let ckpt = a.snapshot(1, None);
        assert_eq!(ckpt.input_positions[0], vec![(StreamId(1), 3)]);
        assert_eq!(
            ckpt.element_count(),
            1 /*state*/ + 3 /*retained outputs*/
        );

        let mut b = counter_instance();
        b.restore(&ckpt);
        // Element 3 again: duplicate. Element 4: accepted and counted as #4.
        assert_eq!(b.offer(0, elem(1, 3, 1.0)), Offer::Duplicate);
        assert_eq!(b.offer(0, elem(1, 4, 1.0)), Offer::Accepted(1));
        b.start_next_batch(1).unwrap();
        let out = finish(&mut b);
        assert_eq!(out[0].1.value, 4.0, "counter state carried over");
        assert_eq!(out[0].1.seq, 4, "output seq continues");
    }

    #[test]
    fn abort_inflight_discards_without_state_change() {
        let mut inst = counter_instance();
        inst.offer(0, elem(1, 1, 1.0));
        inst.start_next_batch(1).unwrap();
        inst.abort_inflight();
        assert!(!inst.has_inflight());
        assert_eq!(inst.processed_total(), 0);
        // The element was consumed from pending; recovery would restore
        // positions and retransmit. Here we just check no output appeared.
        assert_eq!(inst.output(0).produced_total(), 0);
    }

    #[test]
    fn round_robin_across_input_ports() {
        let mut inst = PeInstance::new(
            InstanceId {
                pe: PeId(2),
                replica: Replica::Primary,
            },
            OperatorSpec::Counter { demand_secs: 1e-3 },
            2,
            &[StreamId(20)],
        );
        inst.register_input_stream(0, StreamId(1));
        inst.register_input_stream(1, StreamId(2));
        inst.offer(0, elem(1, 1, 0.0));
        inst.offer(0, elem(1, 2, 0.0));
        inst.offer(1, elem(2, 1, 0.0));
        let mut streams = Vec::new();
        while inst.start_next_batch(1).is_some() {
            streams.extend(inst.inflight_elems().map(|e| e.stream.0));
            finish(&mut inst);
        }
        assert_eq!(streams, vec![1, 2, 1], "round-robin interleaves ports");
    }

    #[test]
    #[should_panic(expected = "end_input once per element")]
    fn a_run_form_that_does_not_close_its_inputs_is_caught() {
        /// Overrides `process_run` and forgets `end_input`.
        #[derive(Debug)]
        struct Unattributed;
        impl Operator for Unattributed {
            fn process(&mut self, _port: usize, input: &DataElement, out: &mut Emitter) {
                out.emit0(Payload::from(input));
            }
            fn process_run(&mut self, port: usize, run: &[DataElement], out: &mut Emitter) {
                for input in run {
                    self.process(port, input, out);
                }
            }
            fn demand_secs(&self, _input: &DataElement) -> f64 {
                1e-3
            }
            fn state_size_elements(&self) -> u64 {
                0
            }
            fn snapshot(&self) -> OperatorState {
                OperatorState::default()
            }
            fn restore(&mut self, _state: &OperatorState) {}
        }
        #[derive(Debug)]
        struct Factory;
        impl crate::operator::OperatorFactory for Factory {
            fn build(&self) -> Box<dyn Operator> {
                Box::new(Unattributed)
            }
        }
        let mut inst = PeInstance::new(
            InstanceId {
                pe: PeId(4),
                replica: Replica::Primary,
            },
            OperatorSpec::Custom(std::sync::Arc::new(Factory)),
            1,
            &[StreamId(40)],
        );
        inst.register_input_stream(0, StreamId(1));
        inst.offer(0, elem(1, 1, 0.0));
        inst.start_next_batch(1).unwrap();
        finish(&mut inst);
    }

    #[test]
    fn replica_identity_helpers() {
        assert_eq!(Replica::Primary.other(), Replica::Secondary);
        assert_eq!(Replica::Secondary.other(), Replica::Primary);
        let id = InstanceId {
            pe: PeId(3),
            replica: Replica::Secondary,
        };
        assert_eq!(id.to_string(), "pe3/sec");
        assert_eq!(SinkId(1).to_string(), "sink1");
    }

    #[test]
    fn checkpoint_byte_size_scales_with_elements() {
        let mut inst = counter_instance();
        inst.offer(0, elem(1, 1, 1.0));
        inst.start_next_batch(1).unwrap();
        finish(&mut inst);
        let ckpt = inst.snapshot(1, None);
        assert_eq!(ckpt.byte_size(256), ckpt.element_count() * 256 + 64);
    }

    #[test]
    fn output_produce_via_payload_api() {
        // PeInstance and raw queues agree on stamping.
        let mut q: OutputQueue<Dest> = OutputQueue::new(StreamId(5));
        let e = q.produce(Payload::new(1, 2.0), SimTime::from_millis(3));
        assert_eq!(e.stream, StreamId(5));
        assert_eq!(e.seq, 1);
    }
}
