//! Which copies connect — decided once, here.
//!
//! A *link* is one (producer copy, consumer copy) pair the job's topology
//! connects. Sources and cross-subjob edges link every deployed copy to
//! every deployed copy: in active standby that is the 2×2 pattern behind
//! the paper's 4× traffic. Intra-subjob edges are local pipes, same replica
//! only. [`HaWorld::links`] lists them; deployment wiring, the standby's
//! on-demand connections, (de)activation and the end-of-run stream check
//! are filters over that list, and a producer copy's queue is reached
//! through its [`ProducerAddr`] alone.

use sps_cluster::MachineId;
use sps_engine::{
    ConnectionId, Consumer, Dest, InstanceId, OutputQueue, Producer, Replica, StreamId, SubjobId,
};
use sps_sim::SimTime;
use sps_trace::TraceEvent;

use crate::message::ProducerAddr;
use crate::world::{slot_of, HaWorld};

impl HaWorld {
    /// Every link of `stream` between deployed copies: consumer-major (in
    /// the job's consumer order), then consumer replica, then producer
    /// replica — the order connections are created in, and so the order
    /// dispatch visits them.
    pub(crate) fn links(&self, stream: StreamId) -> Vec<(ProducerAddr, Dest)> {
        let producer = self.job.producer(stream);
        let mut links = Vec::new();
        for &consumer in self.job.consumers(stream) {
            match consumer {
                Consumer::Sink(sink) => self.link_to(producer, Dest::Sink(sink), None, &mut links),
                Consumer::Pe(pe, port) => {
                    let pipe = match producer {
                        Producer::Pe(ppe, _) => self.job.subjob_of(ppe) == self.job.subjob_of(pe),
                        Producer::Source(_) => false,
                    };
                    for replica in Replica::BOTH {
                        if self.slots[slot_of(pe, replica)].copy().is_some() {
                            let dest = Dest::Pe {
                                inst: InstanceId { pe, replica },
                                port,
                            };
                            self.link_to(producer, dest, pipe.then_some(replica), &mut links);
                        }
                    }
                }
            }
        }
        links
    }

    /// Appends the links from the deployed copies of `producer` to `dest`;
    /// `pipe` names the one producer replica of an intra-subjob pipe.
    fn link_to(
        &self,
        producer: Producer,
        dest: Dest,
        pipe: Option<Replica>,
        links: &mut Vec<(ProducerAddr, Dest)>,
    ) {
        match producer {
            Producer::Source(src) => links.push((ProducerAddr::Source(src), dest)),
            Producer::Pe(pe, port) => {
                for replica in Replica::BOTH {
                    if pipe.is_none_or(|only| only == replica)
                        && self.slots[slot_of(pe, replica)].copy().is_some()
                    {
                        let addr = ProducerAddr::Instance(InstanceId { pe, replica }, port);
                        links.push((addr, dest));
                    }
                }
            }
        }
    }

    /// Connects every link at job start. A connection starts active (and
    /// trim-relevant) only when both ends serve; the hybrid secondary's
    /// connections are the paper's *early connections*, created here
    /// inactive — or, with [`crate::HaConfig::hybrid_early_connections`]
    /// off, made on demand at switch-over instead.
    pub(crate) fn wire_all(&mut self) {
        for s in 0..self.job.stream_count() {
            let stream = StreamId(s as u32);
            for consumer in self.job.consumers(stream) {
                if let Consumer::Sink(sink) = *consumer {
                    self.sinks[sink.0 as usize].register_stream(stream);
                }
            }
            for (addr, dest) in self.links(stream) {
                let active = self.producer_is_serving(addr) && self.dest_is_serving(dest);
                if active || self.cfg.hybrid_early_connections {
                    self.with_producer_queue(addr, |q| q.connect(dest, active, active))
                        .expect("linked copies are deployed");
                }
            }
        }
    }

    /// Creates the missing links of a subjob's `replica` copy, inactive:
    /// used by deployment and by on-demand connection establishment when
    /// the early-connection optimization is off. Every PE's input side
    /// first, then every PE's output side — the creation order, and so the
    /// dispatch order, a producer feeding both sides sees.
    pub(crate) fn ensure_standby_connections(&mut self, sj_id: SubjobId, replica: Replica) {
        let pes = self.job.subjob_pes(sj_id);
        let mut wanted = Vec::new();
        for &pe in pes {
            for &(port, stream) in self.job.input_streams(pe) {
                let dest = Dest::Pe {
                    inst: InstanceId { pe, replica },
                    port,
                };
                wanted.extend(self.links(stream).into_iter().filter(|&(_, d)| d == dest));
            }
        }
        for &pe in pes {
            for port in 0..self.job.out_ports(pe) {
                let addr = ProducerAddr::Instance(InstanceId { pe, replica }, port);
                let links = self.links(self.job.pe_stream(pe, port));
                wanted.extend(links.into_iter().filter(|&(a, _)| a == addr));
            }
        }
        for (addr, dest) in wanted {
            self.with_producer_queue(addr, |q| {
                if find_conn(q, dest).is_none() {
                    q.connect(dest, false, false);
                }
            })
            .expect("linked copies are deployed");
        }
    }

    /// The deployed producer copies linked to `dest` on `stream`.
    pub(crate) fn producer_copies(&self, stream: StreamId, dest: Dest) -> Vec<ProducerAddr> {
        self.links(stream)
            .into_iter()
            .filter(|&(_, d)| d == dest)
            .map(|(addr, _)| addr)
            .collect()
    }

    /// Emits one [`TraceEvent::StreamFinal`] per stream: the highest
    /// sequence any deployed producer copy produced on it, and the lowest
    /// position any serving consumer copy processed through. The auditor's
    /// `stream_complete` check compares the two.
    pub(crate) fn emit_stream_finals(&mut self, at: SimTime) {
        if !self.tracer.is_enabled() {
            return;
        }
        for s in 0..self.job.stream_count() {
            let stream = StreamId(s as u32);
            let links = self.links(stream);
            let last_seq = links
                .iter()
                .filter_map(|&(addr, _)| self.producer_queue(addr))
                .map(|q| q.next_seq() - 1)
                .max()
                .unwrap_or(0);
            let processed = links
                .iter()
                .filter(|&&(_, dest)| self.dest_is_serving(dest))
                .map(|&(_, dest)| self.processed_through(stream, dest))
                .min()
                .unwrap_or(last_seq);
            self.tracer.emit(
                at,
                TraceEvent::StreamFinal {
                    stream: stream.0,
                    last_seq,
                    processed,
                },
            );
        }
    }

    /// How far a consumer copy has processed `stream`.
    fn processed_through(&self, stream: StreamId, dest: Dest) -> u64 {
        match dest {
            Dest::Sink(sink) => self.sinks[sink.0 as usize].processed_through(stream),
            Dest::Pe { inst, port } => self.slots[slot_of(inst.pe, inst.replica)]
                .copy()
                .and_then(|i| i.input(port).processed(stream))
                .unwrap_or(0),
        }
    }

    /// `true` if the producer copy is deployed and not suspended (a source
    /// always serves).
    pub(crate) fn producer_is_serving(&self, addr: ProducerAddr) -> bool {
        match addr {
            ProducerAddr::Source(_) => true,
            ProducerAddr::Instance(iid, _) => self.slot_is_serving(slot_of(iid.pe, iid.replica)),
        }
    }

    /// The machine hosting a producer copy, if that copy is deployed.
    pub(crate) fn producer_machine(&self, addr: ProducerAddr) -> Option<MachineId> {
        match addr {
            ProducerAddr::Source(s) => Some(self.placement.sources[s.0 as usize]),
            ProducerAddr::Instance(iid, _) => {
                let record = &self.slots[slot_of(iid.pe, iid.replica)];
                record.copy().is_some().then(|| record.machine())
            }
        }
    }

    /// The output queue a producer handle names, if that copy is deployed.
    pub(crate) fn producer_queue(&self, addr: ProducerAddr) -> Option<&OutputQueue<Dest>> {
        match addr {
            ProducerAddr::Source(s) => Some(self.sources[s.0 as usize].queue()),
            ProducerAddr::Instance(iid, port) => self.slots[slot_of(iid.pe, iid.replica)]
                .copy()
                .map(|inst| inst.output(port)),
        }
    }

    /// Runs `f` on the output queue a producer handle names, exclusively,
    /// if that copy is deployed. An instance's port joins its sendable set,
    /// since `f` may activate or rewind a connection, and its moved set if
    /// `f` trims the queue.
    pub(crate) fn with_producer_queue<R>(
        &mut self,
        addr: ProducerAddr,
        f: impl FnOnce(&mut OutputQueue<Dest>) -> R,
    ) -> Option<R> {
        match addr {
            ProducerAddr::Source(s) => Some(f(self.sources[s.0 as usize].queue_mut())),
            ProducerAddr::Instance(iid, port) => self.slots[slot_of(iid.pe, iid.replica)]
                .copy_mut()
                .map(|inst| inst.with_output(port, f)),
        }
    }
}

/// Finds the connection of `q` whose destination is `dest`.
pub(crate) fn find_conn(q: &OutputQueue<Dest>, dest: Dest) -> Option<ConnectionId> {
    q.connections()
        .iter()
        .position(|c| c.dest == dest)
        .map(ConnectionId)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sps_engine::{Job, JobBuilder, OperatorSpec, PeId, SinkId, SourceId};

    use crate::{HaMode, HaSimulation};

    /// source → split → {remote, local}: split and local share subjob 0,
    /// remote is subjob 1, and the split's stream lists remote first.
    fn mixed_fanout() -> Job {
        let op = OperatorSpec::Counter { demand_secs: 2e-4 };
        let mut b = JobBuilder::new("mixed-fanout");
        let src = b.add_source("src");
        let (remote_out, local_out) = (b.add_sink("remote-out"), b.add_sink("local-out"));
        let split = b.add_pe("split", op.clone());
        let remote = b.add_pe("remote", op.clone());
        let local = b.add_pe("local", op);
        b.connect_source(src, split, 0);
        b.connect(split, 0, remote, 0);
        b.connect(split, 0, local, 0);
        b.connect_sink(remote, 0, remote_out);
        b.connect_sink(local, 0, local_out);
        b.subjobs(vec![vec![split, local], vec![remote]]);
        b.build().expect("valid")
    }

    fn pe(pe: u32, replica: Replica) -> InstanceId {
        InstanceId {
            pe: PeId(pe),
            replica,
        }
    }

    fn from(p: u32, replica: Replica) -> ProducerAddr {
        ProducerAddr::Instance(pe(p, replica), 0)
    }

    fn to(p: u32, replica: Replica) -> Dest {
        Dest::Pe {
            inst: pe(p, replica),
            port: 0,
        }
    }

    fn links_of(
        remote_mode: HaMode,
        stream: impl Fn(&Job) -> StreamId,
    ) -> Vec<(ProducerAddr, Dest)> {
        let sim = HaSimulation::builder(mixed_fanout())
            .mode(HaMode::Hybrid)
            .subjob_mode(SubjobId(1), remote_mode)
            .build();
        let world = sim.world();
        world.links(stream(world.job()))
    }

    #[test]
    fn cross_subjob_edges_link_every_copy_and_pipes_link_one_replica() {
        use Replica::{Primary as P, Secondary as S};
        let split_out = |job: &Job| job.pe_stream(PeId(0), 0);
        // Consumer-major (remote, then local), then consumer replica, then
        // producer replica.
        assert_eq!(
            links_of(HaMode::Hybrid, split_out),
            [
                (from(0, P), to(1, P)),
                (from(0, S), to(1, P)),
                (from(0, P), to(1, S)),
                (from(0, S), to(1, S)),
                (from(0, P), to(2, P)),
                (from(0, S), to(2, S)),
            ]
        );
        // A passive remote keeps its standby slot empty: no link reaches it.
        assert_eq!(
            links_of(HaMode::Passive, split_out),
            [
                (from(0, P), to(1, P)),
                (from(0, S), to(1, P)),
                (from(0, P), to(2, P)),
                (from(0, S), to(2, S)),
            ]
        );
        // A source feeds every deployed copy; every copy feeds a sink.
        let source = ProducerAddr::Source(SourceId(0));
        assert_eq!(
            links_of(HaMode::Passive, |job| job.source_stream(SourceId(0))),
            [(source, to(0, P)), (source, to(0, S))]
        );
        assert_eq!(
            links_of(HaMode::Hybrid, |job| job.pe_stream(PeId(1), 0)),
            [
                (from(1, P), Dest::Sink(SinkId(0))),
                (from(1, S), Dest::Sink(SinkId(0)))
            ]
        );
    }
}
