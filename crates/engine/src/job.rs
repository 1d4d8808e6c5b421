//! Job topology: logical PEs, sources, sinks, edges, and the partition into
//! subjobs.
//!
//! A *job* is a dataflow graph of logical PEs. The subset of a job's PEs
//! placed on one machine is a *subjob* — the paper's unit of checkpointing,
//! standby, and recovery. [`JobBuilder`] assembles and validates a
//! topology into an immutable [`Job`] that the HA runtime deploys.

use std::error::Error;
use std::fmt;

use crate::element::{PeId, StreamId};
use crate::operator::OperatorSpec;
use crate::pe::SinkId;

/// Identifies an external data source feeding a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceId(pub u32);

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "src{}", self.0)
    }
}

/// Identifies a subjob (the PEs of one job on one machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubjobId(pub u32);

impl fmt::Display for SubjobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sj{}", self.0)
    }
}

/// The producer side of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Producer {
    /// An external source.
    Source(SourceId),
    /// An output port of a logical PE.
    Pe(PeId, usize),
}

/// The consumer side of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Consumer {
    /// An input port of a logical PE.
    Pe(PeId, usize),
    /// An external sink.
    Sink(SinkId),
}

/// A logical PE declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct PeSpec {
    /// Human-readable name.
    pub name: String,
    /// The operator this PE runs.
    pub operator: OperatorSpec,
}

/// Errors produced by [`JobBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildJobError {
    /// The job declares no PEs.
    NoPes,
    /// The job declares no sources.
    NoSources,
    /// A PE input port is fed by no stream.
    DisconnectedInput(PeId, usize),
    /// A PE appears in zero or multiple subjobs.
    BadPartition(PeId),
    /// The subjob partition references an unknown PE.
    UnknownPeInPartition(u32),
    /// The dataflow graph contains a cycle.
    Cyclic,
    /// Port numbers on a PE are not contiguous from zero.
    NonContiguousPorts(PeId),
    /// A PE's built-in operator has the named parameter negative or not
    /// finite.
    BadOperatorParameter(PeId, &'static str),
    /// An edge names a PE the job never added.
    UnknownPe(PeId),
    /// An edge names a source the job never added.
    UnknownSource(SourceId),
    /// An edge names a sink the job never added.
    UnknownSink(SinkId),
}

impl fmt::Display for BuildJobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildJobError::NoPes => write!(f, "job has no processing elements"),
            BuildJobError::NoSources => write!(f, "job has no sources"),
            BuildJobError::DisconnectedInput(pe, port) => {
                write!(f, "input port {port} of {pe} is not fed by any stream")
            }
            BuildJobError::BadPartition(pe) => {
                write!(f, "{pe} must appear in exactly one subjob")
            }
            BuildJobError::UnknownPeInPartition(id) => {
                write!(f, "subjob partition references unknown pe{id}")
            }
            BuildJobError::Cyclic => write!(f, "dataflow graph contains a cycle"),
            BuildJobError::NonContiguousPorts(pe) => {
                write!(f, "ports of {pe} are not contiguous from zero")
            }
            BuildJobError::BadOperatorParameter(pe, parameter) => {
                write!(
                    f,
                    "operator of {pe}: {parameter} must be finite and not negative"
                )
            }
            BuildJobError::UnknownPe(pe) => write!(f, "an edge names unknown {pe}"),
            BuildJobError::UnknownSource(s) => write!(f, "an edge names unknown source {}", s.0),
            BuildJobError::UnknownSink(s) => write!(f, "an edge names unknown {s}"),
        }
    }
}

impl Error for BuildJobError {}

#[derive(Debug, Clone, Copy)]
enum RawEdge {
    SourceToPe(SourceId, PeId, usize),
    PeToPe(PeId, usize, PeId, usize),
    PeToSink(PeId, usize, SinkId),
}

/// Assembles a [`Job`].
///
/// ```
/// use sps_engine::{JobBuilder, OperatorSpec};
///
/// let mut b = JobBuilder::new("demo");
/// let src = b.add_source("feed");
/// let pe = b.add_pe("count", OperatorSpec::Counter { demand_secs: 1e-4 });
/// let sink = b.add_sink("out");
/// b.connect_source(src, pe, 0);
/// b.connect_sink(pe, 0, sink);
/// b.subjobs(vec![vec![pe]]);
/// let job = b.build().expect("valid topology");
/// assert_eq!(job.pe_count(), 1);
/// ```
#[derive(Debug)]
pub struct JobBuilder {
    name: String,
    pes: Vec<PeSpec>,
    sources: Vec<String>,
    sinks: Vec<String>,
    edges: Vec<RawEdge>,
    subjobs: Vec<Vec<PeId>>,
}

impl JobBuilder {
    /// Starts a job named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        JobBuilder {
            name: name.into(),
            pes: Vec::new(),
            sources: Vec::new(),
            sinks: Vec::new(),
            edges: Vec::new(),
            subjobs: Vec::new(),
        }
    }

    /// Declares a logical PE.
    pub fn add_pe(&mut self, name: impl Into<String>, operator: OperatorSpec) -> PeId {
        let id = PeId(self.pes.len() as u32);
        self.pes.push(PeSpec {
            name: name.into(),
            operator,
        });
        id
    }

    /// Declares an external source.
    pub fn add_source(&mut self, name: impl Into<String>) -> SourceId {
        let id = SourceId(self.sources.len() as u32);
        self.sources.push(name.into());
        id
    }

    /// Declares an external sink.
    pub fn add_sink(&mut self, name: impl Into<String>) -> SinkId {
        let id = SinkId(self.sinks.len() as u32);
        self.sinks.push(name.into());
        id
    }

    /// Connects PE output `from_port` to PE input `to_port`.
    pub fn connect(&mut self, from: PeId, from_port: usize, to: PeId, to_port: usize) {
        self.edges
            .push(RawEdge::PeToPe(from, from_port, to, to_port));
    }

    /// Connects a source to a PE input port.
    pub fn connect_source(&mut self, source: SourceId, to: PeId, to_port: usize) {
        self.edges.push(RawEdge::SourceToPe(source, to, to_port));
    }

    /// Connects a PE output port to a sink.
    pub fn connect_sink(&mut self, from: PeId, from_port: usize, sink: SinkId) {
        self.edges.push(RawEdge::PeToSink(from, from_port, sink));
    }

    /// Sets the partition of PEs into subjobs (index = subjob id).
    pub fn subjobs(&mut self, subjobs: Vec<Vec<PeId>>) {
        self.subjobs = subjobs;
    }

    /// The first PE, source or sink an edge names that the job never
    /// added.
    fn unknown_endpoint(&self) -> Option<BuildJobError> {
        let pe =
            |pe: PeId| (pe.0 as usize >= self.pes.len()).then_some(BuildJobError::UnknownPe(pe));
        self.edges.iter().find_map(|e| match *e {
            RawEdge::SourceToPe(src, to, _) => (src.0 as usize >= self.sources.len())
                .then_some(BuildJobError::UnknownSource(src))
                .or_else(|| pe(to)),
            RawEdge::PeToPe(from, _, to, _) => pe(from).or_else(|| pe(to)),
            RawEdge::PeToSink(from, _, sink) => pe(from).or_else(|| {
                (sink.0 as usize >= self.sinks.len()).then_some(BuildJobError::UnknownSink(sink))
            }),
        })
    }

    /// `(side, pe, port)` for every port an edge names; side 0 is a PE's
    /// inputs, side 1 its outputs.
    fn port_refs(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        self.edges.iter().flat_map(|e| {
            let (input, output) = match *e {
                RawEdge::SourceToPe(_, to, port) => (Some((to, port)), None),
                RawEdge::PeToPe(from, fp, to, tp) => (Some((to, tp)), Some((from, fp))),
                RawEdge::PeToSink(from, fp, _) => (None, Some((from, fp))),
            };
            let input = input.map(|(pe, port)| (0, pe.0 as usize, port));
            let output = output.map(|(pe, port)| (1, pe.0 as usize, port));
            input.into_iter().chain(output)
        })
    }

    /// Validates and freezes the topology.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildJobError`] describing the first structural problem
    /// found (missing PEs/sources, an edge naming an endpoint never added,
    /// an operator parameter no run could survive, disconnected inputs,
    /// bad partition, cycles, non-contiguous ports).
    pub fn build(self) -> Result<Job, BuildJobError> {
        let n = self.pes.len();
        if n == 0 {
            return Err(BuildJobError::NoPes);
        }
        if self.sources.is_empty() {
            return Err(BuildJobError::NoSources);
        }
        if let Some(unknown) = self.unknown_endpoint() {
            return Err(unknown);
        }
        for (pe, spec) in self.pes.iter().enumerate() {
            if let Some(parameter) = spec.operator.invalid_parameter() {
                return Err(BuildJobError::BadOperatorParameter(
                    PeId(pe as u32),
                    parameter,
                ));
            }
        }

        // Port shapes, per side (`[inputs, outputs]`) and PE. A side's ports
        // are contiguous from zero when its distinct ports number its
        // highest port + 1. A side whose highest port is not below its edge
        // count cannot be, and gets no room in the one mark buffer, so a
        // stray huge port index allocates nothing.
        let mut ports = [vec![0usize; n], vec![0usize; n]];
        let mut edges = [vec![0usize; n], vec![0usize; n]];
        for (side, pe, port) in self.port_refs() {
            // Saturating: port `usize::MAX` is a gap like any huge port.
            ports[side][pe] = ports[side][pe].max(port.saturating_add(1));
            edges[side][pe] += 1;
        }
        let fits = |side: usize, pe: usize| ports[side][pe] <= edges[side][pe];
        let mut base = [vec![0usize; n], vec![0usize; n]];
        let mut room = 0;
        for side in 0..2 {
            for pe in 0..n {
                base[side][pe] = room;
                if fits(side, pe) {
                    room += ports[side][pe];
                }
            }
        }
        let mut marked = vec![false; room];
        let mut distinct = [vec![0usize; n], vec![0usize; n]];
        for (side, pe, port) in self.port_refs() {
            if fits(side, pe) && !std::mem::replace(&mut marked[base[side][pe] + port], true) {
                distinct[side][pe] += 1;
            }
        }
        for pe in 0..n {
            if (0..2).any(|side| distinct[side][pe] != ports[side][pe]) {
                return Err(BuildJobError::NonContiguousPorts(PeId(pe as u32)));
            }
            if ports[0][pe] == 0 {
                return Err(BuildJobError::DisconnectedInput(PeId(pe as u32), 0));
            }
        }
        let [in_ports, mut out_ports] = ports;
        // Every PE needs at least one output port so its work is
        // observable; PEs feeding nothing get one.
        for count in &mut out_ports {
            *count = (*count).max(1);
        }

        // Partition check.
        let mut membership = vec![0u32; n];
        for subjob in &self.subjobs {
            for pe in subjob {
                if pe.0 as usize >= n {
                    return Err(BuildJobError::UnknownPeInPartition(pe.0));
                }
                membership[pe.0 as usize] += 1;
            }
        }
        for (pe, &count) in membership.iter().enumerate() {
            if count != 1 {
                return Err(BuildJobError::BadPartition(PeId(pe as u32)));
            }
        }

        // Cycle check: Kahn's algorithm over PE→PE edges. Successors sit in
        // one flat array, counting-sorted by producer: those of `u` are
        // `succ[first[u]..first[u + 1]]`.
        let pe_edges = || {
            self.edges.iter().filter_map(|e| match *e {
                RawEdge::PeToPe(from, _, to, _) => Some((from.0 as usize, to.0 as usize)),
                _ => None,
            })
        };
        let mut indeg = vec![0usize; n];
        let mut first = vec![0usize; n + 1];
        for (from, to) in pe_edges() {
            first[from] += 1;
            indeg[to] += 1;
        }
        for u in 1..=n {
            first[u] += first[u - 1];
        }
        let mut succ = vec![0usize; first[n]];
        for (from, to) in pe_edges() {
            first[from] -= 1;
            succ[first[from]] = to;
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut visited = 0;
        while let Some(u) = ready.pop() {
            visited += 1;
            for &v in &succ[first[u]..first[u + 1]] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    ready.push(v);
                }
            }
        }
        if visited != n {
            return Err(BuildJobError::Cyclic);
        }

        // Stream allocation: sources first, then (pe, out_port) in order.
        let n_sources = self.sources.len() as u32;
        let mut stream_base = vec![0u32; n];
        let mut next = n_sources;
        for pe in 0..n {
            stream_base[pe] = next;
            next += out_ports[pe] as u32;
        }

        // Consumers per stream.
        let mut consumers: Vec<Vec<Consumer>> = vec![Vec::new(); next as usize];
        for e in &self.edges {
            match *e {
                RawEdge::SourceToPe(src, to, port) => {
                    consumers[src.0 as usize].push(Consumer::Pe(to, port));
                }
                RawEdge::PeToPe(from, fp, to, tp) => {
                    let s = stream_base[from.0 as usize] as usize + fp;
                    consumers[s].push(Consumer::Pe(to, tp));
                }
                RawEdge::PeToSink(from, fp, sink) => {
                    let s = stream_base[from.0 as usize] as usize + fp;
                    consumers[s].push(Consumer::Sink(sink));
                }
            }
        }

        // Inputs per PE, ordered by (port, stream); `consumers` is walked
        // in stream order and the sort is stable.
        let mut inputs: Vec<Vec<(usize, StreamId)>> = vec![Vec::new(); n];
        for (s, list) in consumers.iter().enumerate() {
            for c in list {
                if let Consumer::Pe(pe, port) = *c {
                    inputs[pe.0 as usize].push((port, StreamId(s as u32)));
                }
            }
        }
        for list in &mut inputs {
            list.sort_by_key(|&(port, _)| port);
        }

        // Subjob lookup.
        let mut subjob_of = vec![SubjobId(0); n];
        for (sj, members) in self.subjobs.iter().enumerate() {
            for pe in members {
                subjob_of[pe.0 as usize] = SubjobId(sj as u32);
            }
        }

        Ok(Job {
            name: self.name,
            pes: self.pes,
            sources: self.sources,
            sinks: self.sinks,
            in_ports,
            out_ports,
            stream_base,
            consumers,
            inputs,
            subjobs: self.subjobs,
            subjob_of,
        })
    }
}

/// An immutable, validated job topology.
#[derive(Debug, Clone)]
pub struct Job {
    name: String,
    pes: Vec<PeSpec>,
    sources: Vec<String>,
    sinks: Vec<String>,
    in_ports: Vec<usize>,
    out_ports: Vec<usize>,
    stream_base: Vec<u32>,
    consumers: Vec<Vec<Consumer>>,
    /// `(port, stream)` pairs feeding each PE, ordered by port.
    inputs: Vec<Vec<(usize, StreamId)>>,
    subjobs: Vec<Vec<PeId>>,
    subjob_of: Vec<SubjobId>,
}

impl Job {
    /// The paper's evaluation job: `n_pes` PEs in a chain, split into
    /// `n_subjobs` equal subjobs, each PE running `operator`; one source
    /// feeding the head, one sink consuming the tail.
    ///
    /// # Panics
    ///
    /// Panics unless `n_pes` is a positive multiple of `n_subjobs`.
    pub fn chain(
        name: impl Into<String>,
        operator: &OperatorSpec,
        n_pes: usize,
        n_subjobs: usize,
    ) -> Job {
        assert!(
            n_pes > 0 && n_subjobs > 0 && n_pes.is_multiple_of(n_subjobs),
            "chain needs n_pes ({n_pes}) to be a positive multiple of n_subjobs ({n_subjobs})"
        );
        let mut b = JobBuilder::new(name);
        let src = b.add_source("source");
        let sink = b.add_sink("sink");
        let pes: Vec<PeId> = (0..n_pes)
            .map(|i| b.add_pe(format!("pe{i}"), operator.clone()))
            .collect();
        b.connect_source(src, pes[0], 0);
        for pair in pes.windows(2) {
            b.connect(pair[0], 0, pair[1], 0);
        }
        b.connect_sink(pes[n_pes - 1], 0, sink);
        let per = n_pes / n_subjobs;
        b.subjobs(pes.chunks(per).map(<[PeId]>::to_vec).collect());
        b.build().expect("chain topology is always valid")
    }

    /// A key-partitioned sharded operator: one stateless
    /// [`ShardRouter`](OperatorSpec::ShardRouter) PE fans the source stream
    /// out to `shards` parallel PEs running `operator`, each of which feeds
    /// the single sink. Every PE is its **own subjob** — subjob 0 is the
    /// router, subjob `1 + s` is shard `s` (see [`Job::shard_subjob`]) — so
    /// each shard gets its own checkpoints, HA mode, and standby from the
    /// existing per-subjob machinery, and recovering one shard never
    /// disturbs the others.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn sharded(
        name: impl Into<String>,
        operator: &OperatorSpec,
        shards: usize,
        router_demand_secs: f64,
    ) -> Job {
        assert!(shards > 0, "a sharded job needs at least one shard");
        let mut b = JobBuilder::new(name);
        let src = b.add_source("source");
        let sink = b.add_sink("sink");
        let router = b.add_pe(
            "router",
            OperatorSpec::ShardRouter {
                shards: shards as u32,
                demand_secs: router_demand_secs,
            },
        );
        b.connect_source(src, router, 0);
        let mut subjobs = Vec::with_capacity(shards + 1);
        subjobs.push(vec![router]);
        for s in 0..shards {
            let pe = b.add_pe(format!("shard{s}"), operator.clone());
            b.connect(router, s, pe, 0);
            b.connect_sink(pe, 0, sink);
            subjobs.push(vec![pe]);
        }
        b.subjobs(subjobs);
        b.build().expect("sharded topology is always valid")
    }

    /// The subjob running shard `s` of a [`Job::sharded`] job.
    pub fn shard_subjob(&self, s: usize) -> SubjobId {
        SubjobId(1 + s as u32)
    }

    /// The job's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of logical PEs.
    pub fn pe_count(&self) -> usize {
        self.pes.len()
    }

    /// A logical PE's declaration.
    pub fn pe(&self, pe: PeId) -> &PeSpec {
        &self.pes[pe.0 as usize]
    }

    /// All PE ids.
    pub fn pe_ids(&self) -> impl Iterator<Item = PeId> + '_ {
        (0..self.pes.len() as u32).map(PeId)
    }

    /// Number of sources.
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// Number of sinks.
    pub fn sink_count(&self) -> usize {
        self.sinks.len()
    }

    /// Input-port count of a PE.
    pub fn in_ports(&self, pe: PeId) -> usize {
        self.in_ports[pe.0 as usize]
    }

    /// Output-port count of a PE.
    pub fn out_ports(&self, pe: PeId) -> usize {
        self.out_ports[pe.0 as usize]
    }

    /// The stream produced by a source.
    pub fn source_stream(&self, source: SourceId) -> StreamId {
        StreamId(source.0)
    }

    /// The stream produced by a PE output port.
    pub fn pe_stream(&self, pe: PeId, port: usize) -> StreamId {
        debug_assert!(port < self.out_ports[pe.0 as usize]);
        StreamId(self.stream_base[pe.0 as usize] + port as u32)
    }

    /// Total number of streams (sources + PE output ports).
    pub fn stream_count(&self) -> usize {
        self.consumers.len()
    }

    /// The consumers of a stream.
    pub fn consumers(&self, stream: StreamId) -> &[Consumer] {
        &self.consumers[stream.0 as usize]
    }

    /// The producer of a stream.
    pub fn producer(&self, stream: StreamId) -> Producer {
        let s = stream.0;
        if (s as usize) < self.sources.len() {
            return Producer::Source(SourceId(s));
        }
        // `stream_base` ascends (every PE has at least one output port) and
        // starts at the source count, so the last base at or below `s` is
        // the producer's.
        let pe = self.stream_base.partition_point(|&base| base <= s) - 1;
        let port = (s - self.stream_base[pe]) as usize;
        if port >= self.out_ports[pe] {
            unreachable!("stream {stream} out of range")
        }
        Producer::Pe(PeId(pe as u32), port)
    }

    /// The streams feeding each input port of `pe`: `(port, stream)` pairs
    /// in port order.
    pub fn input_streams(&self, pe: PeId) -> &[(usize, StreamId)] {
        &self.inputs[pe.0 as usize]
    }

    /// Number of subjobs.
    pub fn subjob_count(&self) -> usize {
        self.subjobs.len()
    }

    /// The PEs of a subjob.
    pub fn subjob_pes(&self, subjob: SubjobId) -> &[PeId] {
        &self.subjobs[subjob.0 as usize]
    }

    /// The subjob a PE belongs to.
    pub fn subjob_of(&self, pe: PeId) -> SubjobId {
        self.subjob_of[pe.0 as usize]
    }

    /// All subjob ids.
    pub fn subjob_ids(&self) -> impl Iterator<Item = SubjobId> + '_ {
        (0..self.subjobs.len() as u32).map(SubjobId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter() -> OperatorSpec {
        OperatorSpec::Counter { demand_secs: 1e-4 }
    }

    #[test]
    fn chain_topology_shape() {
        let job = Job::chain("eval", &counter(), 8, 4);
        assert_eq!(job.pe_count(), 8);
        assert_eq!(job.subjob_count(), 4);
        assert_eq!(job.subjob_pes(SubjobId(0)), &[PeId(0), PeId(1)]);
        assert_eq!(job.subjob_pes(SubjobId(3)), &[PeId(6), PeId(7)]);
        assert_eq!(job.subjob_of(PeId(5)), SubjobId(2));
        assert_eq!(job.source_count(), 1);
        assert_eq!(job.sink_count(), 1);
        // 1 source stream + 8 PE output streams.
        assert_eq!(job.stream_count(), 9);
    }

    #[test]
    fn sharded_topology_shape() {
        let job = Job::sharded("shards", &counter(), 4, 1e-6);
        // Router + 4 shard PEs, each its own subjob.
        assert_eq!(job.pe_count(), 5);
        assert_eq!(job.subjob_count(), 5);
        assert_eq!(job.subjob_pes(SubjobId(0)), &[PeId(0)]);
        for s in 0..4usize {
            assert_eq!(job.shard_subjob(s), SubjobId(1 + s as u32));
            assert_eq!(job.subjob_pes(job.shard_subjob(s)), &[PeId(1 + s as u32)]);
        }
        // Router fans out over one port per shard; each port feeds exactly
        // its shard, and every shard feeds the single sink.
        let router = PeId(0);
        assert_eq!(job.out_ports(router), 4);
        for s in 0..4usize {
            let stream = job.pe_stream(router, s);
            assert_eq!(
                job.consumers(stream),
                &[Consumer::Pe(PeId(1 + s as u32), 0)]
            );
            let out = job.pe_stream(PeId(1 + s as u32), 0);
            assert_eq!(job.consumers(out), &[Consumer::Sink(SinkId(0))]);
        }
        assert_eq!(job.source_count(), 1);
        assert_eq!(job.sink_count(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn sharded_panics_on_zero_shards() {
        let _ = Job::sharded("bad", &counter(), 0, 1e-6);
    }

    #[test]
    fn chain_streams_connect_in_order() {
        let job = Job::chain("eval", &counter(), 3, 1);
        let src = job.source_stream(SourceId(0));
        assert_eq!(job.consumers(src), &[Consumer::Pe(PeId(0), 0)]);
        let s0 = job.pe_stream(PeId(0), 0);
        assert_eq!(job.consumers(s0), &[Consumer::Pe(PeId(1), 0)]);
        let s2 = job.pe_stream(PeId(2), 0);
        assert_eq!(job.consumers(s2), &[Consumer::Sink(SinkId(0))]);
        assert_eq!(job.producer(s0), Producer::Pe(PeId(0), 0));
        assert_eq!(job.producer(src), Producer::Source(SourceId(0)));
        assert_eq!(job.input_streams(PeId(1)), &[(0, s0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn producer_of_an_unallocated_stream_panics() {
        let job = Job::chain("eval", &counter(), 3, 1);
        let _ = job.producer(StreamId(job.stream_count() as u32));
    }

    #[test]
    fn tree_topology_builds() {
        // Two branches joining into one PE (a tree, §VII future work).
        let mut b = JobBuilder::new("tree");
        let s1 = b.add_source("left");
        let s2 = b.add_source("right");
        let a = b.add_pe("a", counter());
        let c = b.add_pe("b", counter());
        let join = b.add_pe("join", counter());
        let sink = b.add_sink("out");
        b.connect_source(s1, a, 0);
        b.connect_source(s2, c, 0);
        b.connect(a, 0, join, 0);
        b.connect(c, 0, join, 1);
        b.connect_sink(join, 0, sink);
        b.subjobs(vec![vec![a, c], vec![join]]);
        let job = b.build().unwrap();
        assert_eq!(job.in_ports(join), 2);
        assert_eq!(job.input_streams(join).len(), 2);
    }

    #[test]
    fn fanout_stream_has_two_consumers() {
        let mut b = JobBuilder::new("fanout");
        let s = b.add_source("src");
        let a = b.add_pe("a", counter());
        let x = b.add_pe("x", counter());
        let y = b.add_pe("y", counter());
        let sink = b.add_sink("out");
        b.connect_source(s, a, 0);
        b.connect(a, 0, x, 0);
        b.connect(a, 0, y, 0);
        b.connect_sink(x, 0, sink);
        b.connect_sink(y, 0, sink);
        b.subjobs(vec![vec![a], vec![x, y]]);
        let job = b.build().unwrap();
        assert_eq!(job.consumers(job.pe_stream(a, 0)).len(), 2);
    }

    #[test]
    fn build_rejects_empty_job() {
        assert_eq!(
            JobBuilder::new("x").build().unwrap_err(),
            BuildJobError::NoPes
        );
    }

    #[test]
    fn build_rejects_missing_source() {
        let mut b = JobBuilder::new("x");
        b.add_pe("a", counter());
        assert_eq!(b.build().unwrap_err(), BuildJobError::NoSources);
    }

    #[test]
    fn build_rejects_disconnected_input() {
        let mut b = JobBuilder::new("x");
        b.add_source("s");
        let a = b.add_pe("a", counter());
        b.subjobs(vec![vec![a]]);
        assert_eq!(
            b.build().unwrap_err(),
            BuildJobError::DisconnectedInput(a, 0)
        );
    }

    #[test]
    fn build_rejects_bad_partition() {
        let mut b = JobBuilder::new("x");
        let s = b.add_source("s");
        let a = b.add_pe("a", counter());
        b.connect_source(s, a, 0);
        // No subjobs declared.
        assert_eq!(b.build().unwrap_err(), BuildJobError::BadPartition(a));
    }

    #[test]
    fn build_rejects_cycle() {
        let mut b = JobBuilder::new("x");
        let s = b.add_source("s");
        let a = b.add_pe("a", counter());
        let c = b.add_pe("b", counter());
        b.connect_source(s, a, 0);
        b.connect(a, 0, c, 1);
        b.connect(c, 0, a, 1);
        // Make port 0 of "b" also fed so ports are contiguous.
        b.connect(a, 0, c, 0);
        b.subjobs(vec![vec![a, c]]);
        assert_eq!(b.build().unwrap_err(), BuildJobError::Cyclic);
    }

    #[test]
    fn build_rejects_unknown_pe_in_partition() {
        let mut b = JobBuilder::new("x");
        let s = b.add_source("s");
        let a = b.add_pe("a", counter());
        b.connect_source(s, a, 0);
        b.subjobs(vec![vec![a, PeId(9)]]);
        assert_eq!(
            b.build().unwrap_err(),
            BuildJobError::UnknownPeInPartition(9)
        );
    }

    #[test]
    fn build_rejects_port_gap() {
        let mut b = JobBuilder::new("x");
        let s = b.add_source("s");
        let a = b.add_pe("a", counter());
        let j = b.add_pe("j", counter());
        b.connect_source(s, a, 0);
        b.connect(a, 0, j, 1); // port 0 of j never fed
        b.subjobs(vec![vec![a, j]]);
        assert_eq!(b.build().unwrap_err(), BuildJobError::NonContiguousPorts(j));
    }

    #[test]
    fn build_rejects_huge_ports_without_allocating_for_them() {
        for port in [64, 1 << 40, usize::MAX] {
            let mut b = JobBuilder::new("x");
            let s = b.add_source("s");
            let a = b.add_pe("a", counter());
            let sink = b.add_sink("out");
            b.connect_source(s, a, 0);
            b.connect_sink(a, port, sink);
            b.subjobs(vec![vec![a]]);
            assert_eq!(b.build().unwrap_err(), BuildJobError::NonContiguousPorts(a));
        }
    }

    /// `a -> pe` with `pe` running `spec`; what `build` says.
    fn build_with(spec: OperatorSpec) -> (PeId, Result<Job, BuildJobError>) {
        let mut b = JobBuilder::new("x");
        let s = b.add_source("s");
        let a = b.add_pe("a", counter());
        let pe = b.add_pe("pe", spec);
        b.connect_source(s, a, 0);
        b.connect(a, 0, pe, 0);
        b.subjobs(vec![vec![a, pe]]);
        (pe, b.build())
    }

    #[test]
    fn build_rejects_negative_or_non_finite_operator_parameters() {
        use OperatorSpec::*;
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -1e-9] {
            let demand_secs = bad;
            let specs = [
                (
                    Synthetic {
                        selectivity: bad,
                        demand_secs: 1e-4,
                        state_elements: 20,
                    },
                    "selectivity",
                ),
                (
                    Synthetic {
                        selectivity: 1.0,
                        demand_secs,
                        state_elements: 20,
                    },
                    "demand_secs",
                ),
                (
                    Filter {
                        min_value: 0.0,
                        demand_secs,
                    },
                    "demand_secs",
                ),
                (
                    Map {
                        scale: 1.0,
                        offset: 0.0,
                        demand_secs,
                    },
                    "demand_secs",
                ),
                (
                    WindowAggregate {
                        window: 2,
                        agg: crate::operator::AggKind::Sum,
                        demand_secs,
                    },
                    "demand_secs",
                ),
                (
                    Vwap {
                        window: 2,
                        demand_secs,
                    },
                    "demand_secs",
                ),
                (Counter { demand_secs }, "demand_secs"),
                (
                    ShardRouter {
                        shards: 1,
                        demand_secs,
                    },
                    "demand_secs",
                ),
            ];
            for (spec, parameter) in specs {
                let (pe, built) = build_with(spec.clone());
                assert_eq!(
                    built.unwrap_err(),
                    BuildJobError::BadOperatorParameter(pe, parameter),
                    "{spec:?}"
                );
            }
        }
        let e = BuildJobError::BadOperatorParameter(PeId(1), "selectivity");
        assert!(e.to_string().contains("pe1") && e.to_string().contains("selectivity"));
    }

    #[test]
    fn build_accepts_zero_selectivity_and_zero_demand() {
        let (_, built) = build_with(OperatorSpec::Synthetic {
            selectivity: 0.0,
            demand_secs: 0.0,
            state_elements: 0,
        });
        assert!(built.is_ok());
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn chain_panics_on_indivisible_split() {
        Job::chain("x", &counter(), 7, 4);
    }

    /// The validation `build` ran before it went linear: ports checked
    /// with a `contains` scan per port, Kahn's algorithm rescanning every
    /// edge per popped PE. On success, the `(in_ports, out_ports)` it
    /// derived.
    fn reference_validate(b: &JobBuilder) -> Result<(Vec<usize>, Vec<usize>), BuildJobError> {
        let n = b.pes.len();
        if n == 0 {
            return Err(BuildJobError::NoPes);
        }
        if b.sources.is_empty() {
            return Err(BuildJobError::NoSources);
        }
        for e in &b.edges {
            let (pes, source, sink) = match *e {
                RawEdge::SourceToPe(src, to, _) => (vec![to], Some(src), None),
                RawEdge::PeToPe(from, _, to, _) => (vec![from, to], None, None),
                RawEdge::PeToSink(from, _, sink) => (vec![from], None, Some(sink)),
            };
            if let Some(src) = source.filter(|s| s.0 as usize >= b.sources.len()) {
                return Err(BuildJobError::UnknownSource(src));
            }
            if let Some(&pe) = pes.iter().find(|pe| pe.0 as usize >= n) {
                return Err(BuildJobError::UnknownPe(pe));
            }
            if let Some(sink) = sink.filter(|s| s.0 as usize >= b.sinks.len()) {
                return Err(BuildJobError::UnknownSink(sink));
            }
        }
        for (pe, spec) in b.pes.iter().enumerate() {
            if let Some(parameter) = spec.operator.invalid_parameter() {
                return Err(BuildJobError::BadOperatorParameter(
                    PeId(pe as u32),
                    parameter,
                ));
            }
        }
        let mut in_ports = vec![0usize; n];
        let mut out_ports = vec![0usize; n];
        let mut in_seen: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut out_seen: Vec<Vec<usize>> = vec![Vec::new(); n];
        for e in &b.edges {
            match *e {
                RawEdge::SourceToPe(_, to, port) => {
                    in_ports[to.0 as usize] = in_ports[to.0 as usize].max(port + 1);
                    in_seen[to.0 as usize].push(port);
                }
                RawEdge::PeToPe(from, fp, to, tp) => {
                    out_ports[from.0 as usize] = out_ports[from.0 as usize].max(fp + 1);
                    out_seen[from.0 as usize].push(fp);
                    in_ports[to.0 as usize] = in_ports[to.0 as usize].max(tp + 1);
                    in_seen[to.0 as usize].push(tp);
                }
                RawEdge::PeToSink(from, fp, _) => {
                    out_ports[from.0 as usize] = out_ports[from.0 as usize].max(fp + 1);
                    out_seen[from.0 as usize].push(fp);
                }
            }
        }
        for pe in 0..n {
            for (count, seen) in [(in_ports[pe], &in_seen[pe]), (out_ports[pe], &out_seen[pe])] {
                for p in 0..count {
                    if !seen.contains(&p) {
                        return Err(BuildJobError::NonContiguousPorts(PeId(pe as u32)));
                    }
                }
            }
            if in_ports[pe] == 0 {
                return Err(BuildJobError::DisconnectedInput(PeId(pe as u32), 0));
            }
            if out_ports[pe] == 0 {
                out_ports[pe] = 1;
            }
        }
        let mut membership = vec![0u32; n];
        for subjob in &b.subjobs {
            for pe in subjob {
                if pe.0 as usize >= n {
                    return Err(BuildJobError::UnknownPeInPartition(pe.0));
                }
                membership[pe.0 as usize] += 1;
            }
        }
        for (pe, &count) in membership.iter().enumerate() {
            if count != 1 {
                return Err(BuildJobError::BadPartition(PeId(pe as u32)));
            }
        }
        let mut indeg = vec![0usize; n];
        for e in &b.edges {
            if let RawEdge::PeToPe(_, _, to, _) = e {
                indeg[to.0 as usize] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut visited = 0;
        while let Some(u) = queue.pop() {
            visited += 1;
            for e in &b.edges {
                if let RawEdge::PeToPe(from, _, to, _) = e {
                    if from.0 as usize == u {
                        indeg[to.0 as usize] -= 1;
                        if indeg[to.0 as usize] == 0 {
                            queue.push(to.0 as usize);
                        }
                    }
                }
            }
        }
        if visited != n {
            return Err(BuildJobError::Cyclic);
        }
        Ok((in_ports, out_ports))
    }

    /// A random topology: a DAG with contiguous ports, then, each with a
    /// small chance, the flaws `build` must report — no PEs or sources, an
    /// invalid operator, a PE with no input, a port gap, a huge port
    /// index, a back edge or self-loop, an edge naming a PE, source or sink
    /// never added, a PE missing from, repeated in or unknown to the
    /// partition.
    fn random_builder(rng: &mut sps_sim::SimRng) -> JobBuilder {
        let flaw = |rng: &mut sps_sim::SimRng| rng.chance(0.06);
        let below = |rng: &mut sps_sim::SimRng, n: usize| rng.uniform_u64(0, n as u64) as usize;
        let mut b = JobBuilder::new("random");
        let n = if rng.chance(0.02) {
            0
        } else {
            1 + below(rng, 12)
        };
        let sources: Vec<SourceId> = (0..if flaw(rng) { 0 } else { 1 + below(rng, 3) })
            .map(|i| b.add_source(format!("src{i}")))
            .collect();
        let sinks: Vec<SinkId> = (0..1 + below(rng, 2))
            .map(|i| b.add_sink(format!("sink{i}")))
            .collect();
        let pes: Vec<PeId> = (0..n)
            .map(|i| {
                let demand_secs = if rng.chance(0.005) { f64::NAN } else { 1e-4 };
                b.add_pe(format!("pe{i}"), OperatorSpec::Counter { demand_secs })
            })
            .collect();
        let huge =
            |rng: &mut sps_sim::SimRng| *rng.pick(&[1usize << 40, u32::MAX as usize, 1 << 20, 64]);
        // Next free input and output port per PE, so ports stay contiguous
        // unless a flaw skips or inflates one.
        let mut next_in = vec![0usize; n];
        let mut next_out = vec![0usize; n];
        let out_port = |rng: &mut sps_sim::SimRng, next_out: &mut Vec<usize>, pe: usize| {
            if rng.chance(0.005) {
                return huge(rng);
            }
            if next_out[pe] > 0 && rng.chance(0.3) {
                return below(rng, next_out[pe]);
            }
            next_out[pe] += 1 + usize::from(rng.chance(0.005));
            next_out[pe] - 1
        };
        let in_port = |rng: &mut sps_sim::SimRng, next_in: &mut Vec<usize>, pe: usize| {
            if rng.chance(0.005) {
                return huge(rng);
            }
            next_in[pe] += 1 + usize::from(rng.chance(0.005));
            next_in[pe] - 1
        };
        for to in 0..n {
            if rng.chance(0.015) {
                continue;
            }
            for _ in 0..1 + below(rng, 3) {
                let port = in_port(rng, &mut next_in, to);
                if sources.is_empty() {
                    // `build` stops at `NoSources` before reading edges.
                    continue;
                }
                if to == 0 || rng.chance(0.3) {
                    b.connect_source(*rng.pick(&sources), pes[to], port);
                } else {
                    let from = below(rng, to);
                    let fp = out_port(rng, &mut next_out, from);
                    b.connect(pes[from], fp, pes[to], port);
                }
            }
        }
        if n > 0 {
            for _ in 0..below(rng, 3) {
                if rng.chance(0.1) {
                    // A back edge or self-loop: from at or after `to`.
                    let to = below(rng, n);
                    let from = to + below(rng, n - to);
                    let fp = out_port(rng, &mut next_out, from);
                    let tp = in_port(rng, &mut next_in, to);
                    b.connect(pes[from], fp, pes[to], tp);
                }
            }
        }
        for from in 0..n {
            if next_out[from] == 0 || rng.chance(0.3) {
                let fp = out_port(rng, &mut next_out, from);
                b.connect_sink(pes[from], fp, *rng.pick(&sinks));
            }
        }
        if n > 0 && flaw(rng) {
            // An edge naming an endpoint one to three past the last added.
            let past = |rng: &mut sps_sim::SimRng, len: usize| (len + below(rng, 3)) as u32;
            let pe = PeId(below(rng, n) as u32);
            match below(rng, 4) {
                0 => b.connect_source(SourceId(past(rng, sources.len())), pe, 0),
                1 => b.connect(PeId(past(rng, n)), 0, pe, 0),
                2 => b.connect(pe, 0, PeId(past(rng, n)), 0),
                _ => b.connect_sink(pe, 0, SinkId(past(rng, sinks.len()))),
            }
        }
        let mut subjobs: Vec<Vec<PeId>> = Vec::new();
        for &pe in &pes {
            if rng.chance(0.01) {
                continue;
            }
            match subjobs.last_mut() {
                Some(last) if rng.chance(0.5) => last.push(pe),
                _ => subjobs.push(vec![pe]),
            }
            if rng.chance(0.01) {
                subjobs.push(vec![pe]);
            }
        }
        if flaw(rng) {
            let unknown = PeId((n + below(rng, 3)) as u32);
            match subjobs.last_mut() {
                Some(last) => last.push(unknown),
                None => subjobs.push(vec![unknown]),
            }
        }
        b.subjobs(subjobs);
        b
    }

    #[test]
    fn build_agrees_with_the_reference_validation_on_random_graphs() {
        let mut rng = sps_sim::SimRng::seed_from(0x10B5);
        let mut outcomes = std::collections::BTreeMap::<&str, usize>::new();
        for case in 0..3_000 {
            let b = random_builder(&mut rng);
            let want = reference_validate(&b);
            let got = b.build();
            let outcome = match (&want, &got) {
                (Ok((in_ports, out_ports)), Ok(job)) => {
                    for pe in job.pe_ids() {
                        assert_eq!(job.in_ports(pe), in_ports[pe.0 as usize], "case {case}");
                        assert_eq!(job.out_ports(pe), out_ports[pe.0 as usize], "case {case}");
                    }
                    "Ok"
                }
                (Err(w), Err(g)) => {
                    assert_eq!(g, w, "case {case}");
                    match w {
                        BuildJobError::NoPes => "NoPes",
                        BuildJobError::NoSources => "NoSources",
                        BuildJobError::DisconnectedInput(..) => "DisconnectedInput",
                        BuildJobError::BadPartition(_) => "BadPartition",
                        BuildJobError::UnknownPeInPartition(_) => "UnknownPeInPartition",
                        BuildJobError::Cyclic => "Cyclic",
                        BuildJobError::NonContiguousPorts(_) => "NonContiguousPorts",
                        BuildJobError::BadOperatorParameter(..) => "BadOperatorParameter",
                        BuildJobError::UnknownPe(_) => "UnknownPe",
                        BuildJobError::UnknownSource(_) => "UnknownSource",
                        BuildJobError::UnknownSink(_) => "UnknownSink",
                    }
                }
                _ => panic!("case {case}: reference {want:?}, build {:?}", got.err()),
            };
            *outcomes.entry(outcome).or_default() += 1;
        }
        // Every outcome occurs, and valid jobs are not a rarity.
        assert_eq!(outcomes.len(), 12, "{outcomes:?}");
        assert!(outcomes["Ok"] >= 500, "{outcomes:?}");
        assert!(outcomes["Cyclic"] >= 50, "{outcomes:?}");
    }

    #[test]
    fn an_edge_to_an_endpoint_never_added_is_rejected() {
        let one = || {
            let mut b = JobBuilder::new("one");
            let src = b.add_source("src");
            let sink = b.add_sink("sink");
            let a = b.add_pe("a", counter());
            b.connect_source(src, a, 0);
            b.connect_sink(a, 0, sink);
            b.subjobs(vec![vec![a]]);
            (b, a)
        };
        let (mut b, a) = one();
        b.connect(a, 0, PeId(9), 0);
        assert_eq!(b.build().err(), Some(BuildJobError::UnknownPe(PeId(9))));
        // Stream 1 is `a`'s own output: an unknown source must not be read
        // as a stream id.
        let (mut b, a) = one();
        b.connect_source(SourceId(1), a, 1);
        assert_eq!(
            b.build().err(),
            Some(BuildJobError::UnknownSource(SourceId(1)))
        );
        let (mut b, a) = one();
        b.connect_sink(a, 0, SinkId(1));
        assert_eq!(b.build().err(), Some(BuildJobError::UnknownSink(SinkId(1))));
        assert!(BuildJobError::UnknownSink(SinkId(1))
            .to_string()
            .contains("sink1"));
    }

    #[test]
    fn errors_display_helpfully() {
        let e = BuildJobError::DisconnectedInput(PeId(2), 1);
        assert!(e.to_string().contains("pe2"));
        assert!(BuildJobError::Cyclic.to_string().contains("cycle"));
    }
}
