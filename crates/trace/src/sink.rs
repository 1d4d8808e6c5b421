//! The trace bus: the [`TraceSink`] consumer trait and the [`Tracer`]
//! that simulator components emit into.
//!
//! Cost model: with no sinks installed, every data-plane emission is one
//! branch on a cached `bool` — the event payload is built inside a closure
//! that never runs. Control-plane recovery phases are additionally kept in
//! an always-on in-memory log (they are rare — a handful per failure), so
//! recovery timelines can be reconstructed even when tracing is off.

use std::fmt;

use sps_sim::SimTime;

use crate::event::{RecoveryPhase, TraceEvent, TraceRecord};

/// One recovery-phase boundary from the always-on control-plane log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseRecord {
    /// When the phase boundary was crossed.
    pub at: SimTime,
    /// Which subjob the recovery cycle belongs to.
    pub subjob: u32,
    /// Which boundary was crossed.
    pub phase: RecoveryPhase,
}

/// A consumer of trace records. Implementations must be cheap: they run
/// synchronously inside the simulator's event handlers.
pub trait TraceSink {
    /// Whether this sink wants the high-rate data-plane kinds
    /// (element send/recv, acks, heartbeat ping/pong). Sinks that only
    /// care about control-plane structure return `false` and keep the
    /// simulator's hot path untouched.
    fn wants_data_plane(&self) -> bool {
        true
    }

    /// Consume one record. Called in sim-time order.
    fn record(&mut self, record: &TraceRecord);
}

/// A streaming observer on the trace bus that may *react* to records by
/// producing new (control-plane) records of its own — the subscription
/// surface the protocol auditor runs on.
///
/// Unlike a [`TraceSink`], a probe's output is fanned back out to the
/// installed sinks, so e.g. audit violations land in flight-recorder
/// dumps next to the events that caused them. Probe output is *not*
/// re-offered to probes (no feedback loops). Probes are read-only with
/// respect to the simulation: they see copies of records and cannot
/// influence scheduling, which is what keeps auditing zero-perturbation.
pub trait TraceProbe {
    /// Whether this probe wants the high-rate data-plane kinds. Defaults
    /// to `false`: the auditor works from control-plane events alone so
    /// installing it never widens the data-plane emission gate.
    fn wants_data_plane(&self) -> bool {
        false
    }

    /// Observe one record; push any derived records (violations) onto
    /// `out`. Called in sim-time order.
    fn observe(&mut self, record: &TraceRecord, out: &mut Vec<TraceRecord>);

    /// End-of-run checks (liveness invariants); push final derived records
    /// onto `out`. Called at most once, after the last `observe`.
    fn finish(&mut self, out: &mut Vec<TraceRecord>);

    /// A deterministic, human-readable report of everything observed.
    fn report(&self) -> String;

    /// Total derived violations so far.
    fn violation_total(&self) -> u64;

    /// Per-invariant violation totals, appended as `(name, count)` pairs
    /// in a stable order (the metrics scrape gauges these as `audit/*`).
    fn invariant_totals(&self, out: &mut Vec<(&'static str, u64)>);
}

/// The event bus: fans records out to sinks and keeps the bounded
/// control-plane phase log.
#[derive(Default)]
pub struct Tracer {
    sinks: Vec<Box<dyn TraceSink>>,
    probes: Vec<Box<dyn TraceProbe>>,
    /// Cached `any(sink.wants_data_plane())`: the one branch on the
    /// disabled hot path.
    any_data: bool,
    phases: Vec<PhaseRecord>,
    /// Reused scratch for probe-derived records.
    probe_out: Vec<TraceRecord>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("sinks", &self.sinks.len())
            .field("probes", &self.probes.len())
            .field("any_data", &self.any_data)
            .field("phases", &self.phases.len())
            .finish()
    }
}

impl Tracer {
    /// A tracer with no sinks: phases are still logged, everything else is
    /// a no-op.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a sink. All subsequent emissions fan out to it.
    pub fn add_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.any_data |= sink.wants_data_plane();
        self.sinks.push(sink);
    }

    /// Install a probe. All subsequent emissions are offered to it after
    /// the sinks, and anything it derives is fanned out to the sinks.
    pub fn add_probe(&mut self, probe: Box<dyn TraceProbe>) {
        self.any_data |= probe.wants_data_plane();
        self.probes.push(probe);
    }

    /// Whether any sink or probe is installed.
    pub fn is_enabled(&self) -> bool {
        !self.sinks.is_empty() || !self.probes.is_empty()
    }

    /// Emit a control-plane event to all interested sinks and probes.
    pub fn emit(&mut self, at: SimTime, event: TraceEvent) {
        if self.sinks.is_empty() && self.probes.is_empty() {
            return;
        }
        let record = TraceRecord { at, event };
        let data = event.is_data_plane();
        for sink in &mut self.sinks {
            if !data || sink.wants_data_plane() {
                sink.record(&record);
            }
        }
        if self.probes.is_empty() {
            return;
        }
        let mut out = std::mem::take(&mut self.probe_out);
        for probe in &mut self.probes {
            if !data || probe.wants_data_plane() {
                probe.observe(&record, &mut out);
            }
        }
        self.deliver_derived(&mut out);
    }

    /// Fan probe-derived records (violations) out to the sinks. Derived
    /// records are control-plane by construction and never re-enter the
    /// probes.
    fn deliver_derived(&mut self, out: &mut Vec<TraceRecord>) {
        for derived in out.iter() {
            for sink in &mut self.sinks {
                sink.record(derived);
            }
        }
        out.clear();
        self.probe_out = std::mem::take(out);
    }

    /// Run every probe's end-of-run checks, fanning final derived records
    /// (liveness violations) out to the sinks.
    pub fn finish_probes(&mut self) {
        let mut out = std::mem::take(&mut self.probe_out);
        for probe in &mut self.probes {
            probe.finish(&mut out);
        }
        self.deliver_derived(&mut out);
    }

    /// The concatenated reports of every installed probe, or `None` when
    /// no probe is installed.
    pub fn probe_report(&self) -> Option<String> {
        if self.probes.is_empty() {
            return None;
        }
        Some(
            self.probes
                .iter()
                .map(|p| p.report())
                .collect::<Vec<_>>()
                .join("\n"),
        )
    }

    /// Total violations across all probes.
    pub fn probe_violations(&self) -> u64 {
        self.probes.iter().map(|p| p.violation_total()).sum()
    }

    /// Per-invariant violation totals across all probes, appended to `out`.
    pub fn probe_totals(&self, out: &mut Vec<(&'static str, u64)>) {
        for probe in &self.probes {
            probe.invariant_totals(out);
        }
    }

    /// Whether any probe is installed.
    pub fn has_probes(&self) -> bool {
        !self.probes.is_empty()
    }

    /// Emit a data-plane event, building the payload lazily. With tracing
    /// disabled this is a single branch and the closure never runs.
    #[inline]
    pub fn emit_data(&mut self, at: SimTime, build: impl FnOnce() -> TraceEvent) {
        if self.any_data {
            self.emit(at, build());
        }
    }

    /// Record a recovery-phase boundary. Always logged (this feeds the
    /// recovery-time decomposition), and mirrored to sinks as a
    /// [`TraceEvent::Recovery`] record.
    pub fn emit_phase(&mut self, at: SimTime, subjob: u32, phase: RecoveryPhase) {
        self.phases.push(PhaseRecord { at, subjob, phase });
        self.emit(at, TraceEvent::Recovery { subjob, phase });
    }

    /// The control-plane phase log, in emission (= sim-time) order.
    pub fn phases(&self) -> &[PhaseRecord] {
        &self.phases
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counting {
        data: bool,
        seen: Vec<&'static str>,
    }

    impl TraceSink for Counting {
        fn wants_data_plane(&self) -> bool {
            self.data
        }
        fn record(&mut self, record: &TraceRecord) {
            self.seen.push(record.event.kind());
        }
    }

    #[test]
    fn phases_are_logged_even_without_sinks() {
        let mut t = Tracer::new();
        t.emit_phase(SimTime::from_millis(10), 1, RecoveryPhase::Detected);
        assert!(!t.is_enabled());
        assert_eq!(t.phases().len(), 1);
        assert_eq!(t.phases()[0].phase, RecoveryPhase::Detected);
    }

    #[test]
    fn data_plane_closure_is_skipped_when_disabled() {
        let mut t = Tracer::new();
        let mut built = false;
        t.emit_data(SimTime::ZERO, || {
            built = true;
            TraceEvent::Ack {
                pe: 0,
                replica: 0,
                through_seq: 1,
            }
        });
        assert!(!built, "payload must not be built with tracing off");

        // A control-only sink still doesn't enable the data plane.
        t.add_sink(Box::new(Counting {
            data: false,
            seen: Vec::new(),
        }));
        assert!(t.is_enabled());
        t.emit_data(SimTime::ZERO, || {
            built = true;
            TraceEvent::Ack {
                pe: 0,
                replica: 0,
                through_seq: 1,
            }
        });
        assert!(!built, "payload must not be built for control-only sinks");
    }

    struct Deriving {
        seen: u64,
        derived: u64,
    }

    impl TraceProbe for Deriving {
        fn observe(&mut self, record: &TraceRecord, out: &mut Vec<TraceRecord>) {
            self.seen += 1;
            if matches!(record.event, TraceEvent::FailureInject { .. }) {
                self.derived += 1;
                out.push(TraceRecord {
                    at: record.at,
                    event: TraceEvent::AuditViolation {
                        invariant: crate::AuditInvariant::SplitBrain,
                        subjob: 0,
                        entity: 0,
                        seq: 0,
                        detail: 0,
                    },
                });
            }
        }
        fn finish(&mut self, _out: &mut Vec<TraceRecord>) {}
        fn report(&self) -> String {
            format!("seen={} derived={}", self.seen, self.derived)
        }
        fn violation_total(&self) -> u64 {
            self.derived
        }
        fn invariant_totals(&self, out: &mut Vec<(&'static str, u64)>) {
            out.push(("split_brain", self.derived));
        }
    }

    #[test]
    fn probes_observe_and_derive_records_to_sinks() {
        let mut t = Tracer::new();
        assert!(!t.is_enabled());
        t.add_probe(Box::new(Deriving {
            seen: 0,
            derived: 0,
        }));
        // A probe alone enables the tracer (control-plane taps fire) but
        // not the data plane (default wants_data_plane = false).
        assert!(t.is_enabled());
        assert!(t.has_probes());
        t.emit_data(SimTime::ZERO, || TraceEvent::Ack {
            pe: 0,
            replica: 0,
            through_seq: 1,
        });
        t.emit(
            SimTime::from_millis(1),
            TraceEvent::FailureInject {
                machine: 0,
                fail_stop: true,
            },
        );
        t.emit(
            SimTime::from_millis(2),
            TraceEvent::HeartbeatMiss {
                machine: 0,
                streak: 1,
            },
        );
        t.finish_probes();
        assert_eq!(t.probe_violations(), 1);
        assert_eq!(t.probe_report().as_deref(), Some("seen=2 derived=1"));
        let mut totals = Vec::new();
        t.probe_totals(&mut totals);
        assert_eq!(totals, vec![("split_brain", 1)]);
    }

    #[test]
    fn data_plane_events_skip_control_only_sinks() {
        let mut t = Tracer::new();
        t.add_sink(Box::new(Counting {
            data: false,
            seen: Vec::new(),
        }));
        t.add_sink(Box::new(Counting {
            data: true,
            seen: Vec::new(),
        }));
        t.emit_data(SimTime::ZERO, || TraceEvent::HeartbeatPing {
            machine: 0,
            seq: 1,
        });
        t.emit(
            SimTime::ZERO,
            TraceEvent::FailureInject {
                machine: 0,
                fail_stop: false,
            },
        );
        // Can't easily read back through Box<dyn>; this test mainly pins
        // that mixed sinks don't panic and flags stay correct.
    }
}
