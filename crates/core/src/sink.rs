//! Sink runtimes: the external consumers of a job's final output.
//!
//! A sink deduplicates (active standby delivers two copies of everything),
//! records end-to-end latency against each element's origin timestamp, and
//! immediately acknowledges accepted elements — the continuous
//! acknowledgment stream that seeds the sweeping-checkpoint trim wave at the
//! most-downstream PE.

use sps_cluster::MachineId;
use sps_engine::{DataElement, InputQueue, SinkId, StreamId};
use sps_metrics::LatencyRecorder;
use sps_sim::SimTime;

/// A deployed sink.
#[derive(Debug)]
pub struct SinkRuntime {
    id: SinkId,
    machine: MachineId,
    input: InputQueue,
    latency: LatencyRecorder,
    accepted: u64,
    accept_log: Option<Vec<(SimTime, StreamId, u64)>>,
}

/// What a sink did with a delivered run, in elements.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SinkAccept {
    /// Newly accepted: elements of the run plus any stash drained behind
    /// them.
    pub newly_accepted: usize,
    /// Behind the processed position; dropped.
    pub duplicates: usize,
    /// Cumulative processed-through position on the run's stream after the
    /// delivery (for the ack).
    pub processed_through: u64,
}

impl SinkRuntime {
    /// Creates a sink on `machine`; `log_accepts` retains a per-element
    /// accept log (used by recovery-time experiments to find the first new
    /// output).
    pub fn new(id: SinkId, machine: MachineId, log_accepts: bool) -> Self {
        SinkRuntime {
            id,
            machine,
            input: InputQueue::new(),
            latency: LatencyRecorder::new(),
            accepted: 0,
            accept_log: log_accepts.then(Vec::new),
        }
    }

    /// This sink's id.
    pub fn id(&self) -> SinkId {
        self.id
    }

    /// The machine the sink runs on.
    pub fn machine(&self) -> MachineId {
        self.machine
    }

    /// Registers a stream this sink consumes.
    pub fn register_stream(&mut self, stream: StreamId) {
        self.input.register_stream(stream);
    }

    /// Delivers a run (one stream, consecutive sequence numbers): one
    /// offer to the input queue, then everything it made pending is drained
    /// and recorded. `on_accept` sees each element of the run whose own
    /// offer was accepted (see [`InputQueue::offer_run`]).
    pub fn deliver_run(
        &mut self,
        now: SimTime,
        run: &[DataElement],
        on_accept: impl FnMut(&DataElement),
    ) -> SinkAccept {
        let stream = run[0].stream;
        let offer = self.input.offer_run(run, on_accept);
        // Everything accepted is immediately "processed" by the external
        // consumer; drain and record. Only this run's stream is pending,
        // in sequence order, so the last element is the new position.
        let (latency, log) = (&mut self.latency, &mut self.accept_log);
        let mut last = None;
        self.input.take_run(usize::MAX, |taken| {
            for e in taken {
                // Keyed by *creation* time so delays can be attributed to
                // the failure window the element was born into (the §V-B
                // "8-fold during unavailability" metric).
                latency.record(
                    e.created_at.as_secs_f64(),
                    now.saturating_since(e.created_at).as_nanos(),
                );
                if let Some(log) = log {
                    log.push((now, e.stream, e.seq));
                }
            }
            last = taken.last().copied();
        });
        if let Some(e) = last {
            self.input.mark_processed(e.stream, e.seq);
            self.accepted += offer.accepted as u64;
        }
        SinkAccept {
            newly_accepted: offer.accepted,
            duplicates: offer.duplicates,
            processed_through: self.processed_through(stream),
        }
    }

    /// Total elements accepted (after deduplication).
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// The sink's processed-through position for one stream (0 before any
    /// element of it was accepted). Used to distinguish duplicates (behind
    /// this position, safe to re-acknowledge) from stashed out-of-order
    /// arrivals.
    pub fn processed_through(&self, stream: StreamId) -> u64 {
        self.input.processed(stream).unwrap_or(0)
    }

    /// Duplicates dropped (active-standby redundancy, retransmissions).
    pub fn duplicates_dropped(&self) -> u64 {
        self.input.duplicates_dropped()
    }

    /// End-to-end latency statistics.
    pub fn latency(&self) -> &LatencyRecorder {
        &self.latency
    }

    /// End-to-end latency statistics, exclusively (for quantile queries).
    pub fn latency_mut(&mut self) -> &mut LatencyRecorder {
        &mut self.latency
    }

    /// The first accept at or after `t`, if logging was enabled.
    pub fn first_accept_at_or_after(&self, t: SimTime) -> Option<SimTime> {
        self.accept_log
            .as_ref()?
            .iter()
            .find(|(at, _, _)| *at >= t)
            .map(|(at, _, _)| *at)
    }

    /// The full accept log, if enabled.
    pub fn accept_log(&self) -> Option<&[(SimTime, StreamId, u64)]> {
        self.accept_log.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sps_sim::SimDuration;

    /// Delivers one element; `Some` when it (and possibly stashed
    /// successors) was newly accepted.
    fn deliver(s: &mut SinkRuntime, now: SimTime, elem: DataElement) -> Option<SinkAccept> {
        let accept = s.deliver_run(now, &[elem], |_| {});
        (accept.newly_accepted > 0).then_some(accept)
    }

    fn elem(seq: u64, created_ms: u64) -> DataElement {
        DataElement {
            stream: StreamId(5),
            seq,
            created_at: SimTime::from_millis(created_ms),
            key: 0,
            value: 0.0,
            size_bytes: 256,
        }
    }

    #[test]
    fn accepts_records_latency_and_acks() {
        let mut s = SinkRuntime::new(SinkId(0), MachineId(0), false);
        s.register_stream(StreamId(5));
        let acc = deliver(&mut s, SimTime::from_millis(10), elem(1, 4)).unwrap();
        assert_eq!(acc.processed_through, 1);
        assert_eq!(acc.newly_accepted, 1);
        assert_eq!(s.accepted(), 1);
        assert!((s.latency().mean_ms() - 6.0).abs() < 1e-9);
    }

    /// The recorder takes nanoseconds and reports `ns as f64 / 1e6`; that
    /// must be the float `SimDuration::as_millis_f64` gives, on both sides
    /// of the recorder's 4-byte boundary.
    #[test]
    fn recorded_latency_is_the_durations_millisecond_float() {
        let edge = u64::from(u32::MAX);
        for ns in [0, 1, 739_664, edge - 1, edge, edge + 1, 30_000_000_000] {
            let mut s = SinkRuntime::new(SinkId(0), MachineId(0), false);
            s.register_stream(StreamId(5));
            let created = SimTime::from_millis(4);
            let latency = SimDuration::from_nanos(ns);
            deliver(&mut s, created + latency, elem(1, 4)).unwrap();
            let ms = latency.as_millis_f64();
            assert_eq!(ms, ns as f64 / 1e6);
            assert_eq!(s.latency().max_ms(), Some(ms), "{ns} ns");
            assert_eq!(s.latency_mut().quantile_ms(0.5), Some(ms), "{ns} ns");
        }
    }

    #[test]
    fn duplicates_are_silent() {
        let mut s = SinkRuntime::new(SinkId(0), MachineId(0), false);
        s.register_stream(StreamId(5));
        deliver(&mut s, SimTime::from_millis(1), elem(1, 0)).unwrap();
        assert_eq!(deliver(&mut s, SimTime::from_millis(2), elem(1, 0)), None);
        assert_eq!(s.duplicates_dropped(), 1);
        assert_eq!(s.accepted(), 1);
    }

    #[test]
    fn gap_then_fill_accepts_batch() {
        let mut s = SinkRuntime::new(SinkId(0), MachineId(0), false);
        s.register_stream(StreamId(5));
        assert_eq!(
            deliver(&mut s, SimTime::from_millis(1), elem(2, 0)),
            None,
            "stashed"
        );
        let acc = deliver(&mut s, SimTime::from_millis(2), elem(1, 0)).unwrap();
        assert_eq!(acc.newly_accepted, 2);
        assert_eq!(acc.processed_through, 2);
        assert_eq!(s.accepted(), 2);
    }

    #[test]
    fn processed_through_reads_the_cursor_of_any_stream() {
        let mut s = SinkRuntime::new(SinkId(0), MachineId(0), false);
        s.register_stream(StreamId(5));
        s.register_stream(StreamId(9));
        assert_eq!(s.processed_through(StreamId(5)), 0, "never accepted");
        assert_eq!(s.processed_through(StreamId(7)), 0, "unregistered");
        deliver(&mut s, SimTime::from_millis(1), elem(1, 0));
        deliver(&mut s, SimTime::from_millis(2), elem(3, 0)); // stashed behind 2
        assert_eq!(s.processed_through(StreamId(5)), 1);
        deliver(&mut s, SimTime::from_millis(3), elem(2, 0));
        assert_eq!(s.processed_through(StreamId(5)), 3);
        assert_eq!(s.processed_through(StreamId(9)), 0, "registered, idle");
        // The allocating form checkpoints use reads the same cursors.
        for (stream, through) in s.input.positions() {
            assert_eq!(s.processed_through(stream), through);
        }
    }

    #[test]
    fn accept_log_supports_recovery_queries() {
        let mut s = SinkRuntime::new(SinkId(0), MachineId(0), true);
        s.register_stream(StreamId(5));
        deliver(&mut s, SimTime::from_millis(10), elem(1, 0));
        deliver(&mut s, SimTime::from_millis(30), elem(2, 0));
        assert_eq!(
            s.first_accept_at_or_after(SimTime::from_millis(11)),
            Some(SimTime::from_millis(30))
        );
        assert_eq!(s.first_accept_at_or_after(SimTime::from_millis(31)), None);
        assert_eq!(s.accept_log().unwrap().len(), 2);
    }
}
