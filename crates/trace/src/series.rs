//! Turning raw trace records into analysable material: per-machine and
//! per-PE telemetry time-series, and recovery-cycle span decomposition.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use sps_metrics::{Cdf, Registry, Scope};
use sps_sim::SimTime;

use crate::event::{RecoveryPhase, TraceEvent, TraceRecord};
use crate::sink::PhaseRecord;

/// One labelled interval of a recovery cycle, with sim-time bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoverySpan {
    /// Which subjob the cycle belongs to.
    pub subjob: u32,
    /// Which recovery cycle of that subjob (0-based; a new cycle starts at
    /// each `Detected` after the first phase of the previous cycle).
    pub cycle: u32,
    /// Span start (exclusive boundary of the previous span).
    pub start: SimTime,
    /// Span end — the phase event that closes the span.
    pub end: SimTime,
    /// The phase boundary that closes the span.
    pub phase: RecoveryPhase,
}

impl RecoverySpan {
    /// Span length in milliseconds.
    pub fn millis(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Decompose a phase log into per-subjob recovery spans.
///
/// Each phase event closes one span that starts at the previous phase
/// event of the same subjob (or at `origin` — typically the failure
/// injection time — for the first). By construction the spans of one
/// subjob are monotone and non-overlapping.
///
/// Spans are folded by identity `(subjob, cycle, phase)`: a `Detected`
/// after any earlier phase opens a new cycle, and a phase that fires twice
/// within one cycle — e.g. a Hybrid rollback aborting mid-switch-over and
/// re-closing `SwitchoverComplete` when the chaos window re-fails the
/// primary — extends the existing span instead of double-counting it as a
/// second one.
pub fn recovery_spans(phases: &[PhaseRecord], origin: SimTime) -> Vec<RecoverySpan> {
    /// Per-subjob fold state: current cycle, last boundary time, and a
    /// bitmask of phases already closed within the current cycle.
    struct SubjobFold {
        cycle: u32,
        last: SimTime,
        seen: u16,
    }
    let mut state: BTreeMap<u32, SubjobFold> = BTreeMap::new();
    let mut spans: Vec<RecoverySpan> = Vec::with_capacity(phases.len());
    for p in phases {
        let e = state.entry(p.subjob).or_insert(SubjobFold {
            cycle: 0,
            last: origin,
            seen: 0,
        });
        if p.phase == RecoveryPhase::Detected && e.seen != 0 {
            e.cycle += 1;
            e.seen = 0;
        }
        let bit = 1u16 << (p.phase as u16);
        if e.seen & bit != 0 {
            // Duplicate close within this cycle: fold into the existing
            // span (extend its end) rather than emitting a second one.
            if let Some(s) = spans
                .iter_mut()
                .rev()
                .find(|s| s.subjob == p.subjob && s.cycle == e.cycle && s.phase == p.phase)
            {
                s.end = p.at;
            }
            e.last = p.at;
            continue;
        }
        e.seen |= bit;
        spans.push(RecoverySpan {
            subjob: p.subjob,
            cycle: e.cycle,
            start: e.last,
            end: p.at,
            phase: p.phase,
        });
        e.last = p.at;
    }
    spans
}

/// One `(secs, input_depth, output_backlog)` queue-depth sample.
type QueueSample = (f64, u64, u64);

/// Aggregated telemetry distilled from a stream of trace records: machine
/// load and PE queue-depth time-series, plus failure/recovery landmarks.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Per-machine `(secs, cpu_load)` samples, in arrival order.
    machine_load: BTreeMap<u32, Vec<(f64, f64)>>,
    /// Per-(pe, replica) queue-depth samples.
    pe_queues: BTreeMap<(u32, u8), Vec<QueueSample>>,
    /// Failure injections `(at, machine, fail_stop)`.
    injects: Vec<(SimTime, u32, bool)>,
    /// Recovery phase boundaries, reconstructed from `recovery` records.
    phases: Vec<PhaseRecord>,
    /// Scalar counters (drops by reason, network faults, retransmissions),
    /// folded into a scoped registry instead of ad-hoc fields.
    registry: Registry,
    /// Chaos-plan steps applied, `(at, action-kind)`.
    chaos_steps: Vec<(SimTime, &'static str)>,
}

impl Telemetry {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one record into the telemetry.
    pub fn ingest(&mut self, record: &TraceRecord) {
        let secs = record.at.as_secs_f64();
        match record.event {
            TraceEvent::MachineSnapshot {
                machine, cpu_load, ..
            } => {
                self.machine_load
                    .entry(machine)
                    .or_default()
                    .push((secs, cpu_load));
            }
            TraceEvent::PeSnapshot {
                pe,
                replica,
                input_depth,
                output_backlog,
                ..
            } => {
                self.pe_queues.entry((pe, replica)).or_default().push((
                    secs,
                    input_depth,
                    output_backlog,
                ));
            }
            TraceEvent::FailureInject { machine, fail_stop } => {
                self.injects.push((record.at, machine, fail_stop));
            }
            TraceEvent::Recovery { subjob, phase } => {
                self.phases.push(PhaseRecord {
                    at: record.at,
                    subjob,
                    phase,
                });
            }
            TraceEvent::ElementDrop {
                machine,
                reason,
                elements,
            } => {
                self.registry.inc(
                    Scope::machine("data_plane", machine),
                    reason.as_str(),
                    elements as u64,
                );
            }
            TraceEvent::NetDrop { chaos, .. } => {
                let name = if chaos {
                    "chaos_drops"
                } else {
                    "partition_drops"
                };
                self.registry.inc(Scope::global("network"), name, 1);
            }
            TraceEvent::NetDuplicate { .. } => {
                self.registry.inc(Scope::global("network"), "duplicates", 1);
            }
            TraceEvent::Retransmit { .. } => {
                self.registry
                    .inc(Scope::global("network"), "retransmits", 1);
            }
            TraceEvent::ChaosPhase { action, .. } => {
                self.chaos_steps.push((record.at, action.as_str()));
            }
            _ => {}
        }
    }

    /// Fold every record of an iterator.
    pub fn ingest_all(&mut self, records: impl IntoIterator<Item = impl Borrow<TraceRecord>>) {
        for r in records {
            self.ingest(r.borrow());
        }
    }

    /// The `(secs, cpu_load)` series for one machine.
    pub fn machine_load_series(&self, machine: u32) -> &[(f64, f64)] {
        self.machine_load
            .get(&machine)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The `(secs, input_depth, output_backlog)` series for one instance.
    pub fn pe_queue_series(&self, pe: u32, replica: u8) -> &[(f64, u64, u64)] {
        self.pe_queues
            .get(&(pe, replica))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Machines that produced at least one snapshot.
    pub fn machines(&self) -> impl Iterator<Item = u32> + '_ {
        self.machine_load.keys().copied()
    }

    /// The load distribution of one machine as an empirical CDF.
    pub fn machine_load_cdf(&self, machine: u32) -> Cdf {
        let mut cdf = Cdf::new();
        for &(_, load) in self.machine_load_series(machine) {
            cdf.record(load);
        }
        cdf
    }

    /// Failure injections seen, `(at, machine, fail_stop)`.
    pub fn injects(&self) -> &[(SimTime, u32, bool)] {
        &self.injects
    }

    /// Recovery phase boundaries seen.
    pub fn phases(&self) -> &[PhaseRecord] {
        &self.phases
    }

    /// Total elements dropped for a given reason string, summed over
    /// machines.
    pub fn dropped(&self, reason: &str) -> u64 {
        self.registry.counter_total("data_plane", reason)
    }

    /// Network messages dropped (partition + chaos losses).
    pub fn net_drops(&self) -> u64 {
        self.registry.counter_total("network", "partition_drops")
            + self.registry.counter_total("network", "chaos_drops")
    }

    /// Network messages lost to chaos faults alone.
    pub fn chaos_net_drops(&self) -> u64 {
        self.registry.counter_total("network", "chaos_drops")
    }

    /// Chaos-duplicated network deliveries observed.
    pub fn net_duplicates(&self) -> u64 {
        self.registry.counter_total("network", "duplicates")
    }

    /// Reliable-control-plane retransmissions observed.
    pub fn retransmits(&self) -> u64 {
        self.registry.counter_total("network", "retransmits")
    }

    /// The scoped counter registry backing the scalar accessors above.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Chaos-plan steps applied, as `(at, action-kind)` pairs.
    pub fn chaos_steps(&self) -> &[(SimTime, &'static str)] {
        &self.chaos_steps
    }

    /// Recovery spans anchored at the first failure injection (or time
    /// zero when none was recorded).
    pub fn recovery_spans(&self) -> Vec<RecoverySpan> {
        let origin = self
            .injects
            .first()
            .map(|&(at, _, _)| at)
            .unwrap_or(SimTime::ZERO);
        recovery_spans(&self.phases, origin)
    }

    /// Per-cycle recovery critical paths (see
    /// [`recovery_critical_paths`](crate::recovery_critical_paths)); each
    /// cycle anchors at the failure injection that triggered it.
    pub fn recovery_critical_paths(&self) -> Vec<crate::RecoveryCriticalPath> {
        let injects: Vec<SimTime> = self.injects.iter().map(|&(at, _, _)| at).collect();
        crate::critical_path::recovery_critical_paths(&self.phases, &injects)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DropReason;

    fn phase(at_ms: u64, subjob: u32, phase: RecoveryPhase) -> PhaseRecord {
        PhaseRecord {
            at: SimTime::from_millis(at_ms),
            subjob,
            phase,
        }
    }

    #[test]
    fn spans_chain_per_subjob_and_are_monotone() {
        let phases = [
            phase(100, 1, RecoveryPhase::Detected),
            phase(150, 1, RecoveryPhase::SwitchoverComplete),
            phase(400, 1, RecoveryPhase::RollbackStarted),
            phase(460, 1, RecoveryPhase::RollbackComplete),
        ];
        let spans = recovery_spans(&phases, SimTime::from_millis(40));
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].start, SimTime::from_millis(40));
        for w in spans.windows(2) {
            assert_eq!(w[0].end, w[1].start, "spans chain without gaps");
            assert!(w[0].start <= w[0].end);
        }
        assert!((spans[0].millis() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn spans_of_different_subjobs_are_independent() {
        let phases = [
            phase(100, 1, RecoveryPhase::Detected),
            phase(120, 2, RecoveryPhase::Detected),
            phase(300, 2, RecoveryPhase::PsDeployed),
            phase(150, 1, RecoveryPhase::SwitchoverComplete),
        ];
        let spans = recovery_spans(&phases, SimTime::ZERO);
        let sj1: Vec<_> = spans.iter().filter(|s| s.subjob == 1).collect();
        assert_eq!(sj1[1].start, SimTime::from_millis(100));
        let sj2: Vec<_> = spans.iter().filter(|s| s.subjob == 2).collect();
        assert_eq!(sj2[1].start, SimTime::from_millis(120));
    }

    /// Regression for the Hybrid abort double-count: when the chaos window
    /// re-fails the primary mid-switch-over, the cycle re-detects and the
    /// `SwitchoverComplete` span used to be closed twice, inflating the
    /// switch-over total. Folding by `(subjob, cycle, phase)` keeps one
    /// span per identity and extends its end instead.
    #[test]
    fn aborted_switchover_folds_duplicate_spans_by_id() {
        let phases = [
            phase(100, 1, RecoveryPhase::Detected),
            // Silent abort (fresh pong mid-switch-over), then re-detection:
            phase(150, 1, RecoveryPhase::Detected),
            phase(200, 1, RecoveryPhase::SwitchoverComplete),
            // Overlapping chaos window closes the same phase again:
            phase(210, 1, RecoveryPhase::SwitchoverComplete),
            phase(400, 1, RecoveryPhase::RollbackStarted),
        ];
        let spans = recovery_spans(&phases, SimTime::from_millis(40));
        assert_eq!(spans.len(), 4, "duplicate close folds, it does not add");
        assert_eq!(spans[0].cycle, 0);
        assert!(spans[1..].iter().all(|s| s.cycle == 1));
        let switchovers: Vec<_> = spans
            .iter()
            .filter(|s| s.phase == RecoveryPhase::SwitchoverComplete)
            .collect();
        assert_eq!(switchovers.len(), 1, "one switch-over span per cycle");
        assert_eq!(switchovers[0].start, SimTime::from_millis(150));
        assert_eq!(
            switchovers[0].end,
            SimTime::from_millis(210),
            "folded span extends to the last duplicate close"
        );
        // The next span still chains from the folded end.
        assert_eq!(spans[3].start, SimTime::from_millis(210));
        assert_eq!(spans[3].phase, RecoveryPhase::RollbackStarted);
    }

    #[test]
    fn telemetry_collects_series_and_drops() {
        let mut t = Telemetry::new();
        t.ingest(&TraceRecord {
            at: SimTime::from_secs(1),
            event: TraceEvent::MachineSnapshot {
                machine: 2,
                cpu_load: 0.75,
                background: 0.5,
                run_queue: 3,
            },
        });
        t.ingest(&TraceRecord {
            at: SimTime::from_secs(2),
            event: TraceEvent::ElementDrop {
                machine: 2,
                elements: 5,
                reason: DropReason::MachineDown,
            },
        });
        assert_eq!(t.machine_load_series(2), &[(1.0, 0.75)]);
        assert_eq!(t.dropped("machine_down"), 5);
        assert_eq!(t.machine_load_cdf(2).len(), 1);
    }

    #[test]
    fn telemetry_counts_net_faults_and_chaos_steps() {
        use crate::event::ChaosKind;
        let mut t = Telemetry::new();
        let at = SimTime::from_secs(1);
        for (chaos, n) in [(false, 2u64), (true, 3u64)] {
            for _ in 0..n {
                t.ingest(&TraceRecord {
                    at,
                    event: TraceEvent::NetDrop {
                        src: 0,
                        dst: 1,
                        bytes: 64,
                        chaos,
                    },
                });
            }
        }
        t.ingest(&TraceRecord {
            at,
            event: TraceEvent::NetDuplicate {
                src: 0,
                dst: 1,
                bytes: 64,
            },
        });
        for attempt in 1..=4 {
            t.ingest(&TraceRecord {
                at,
                event: TraceEvent::Retransmit {
                    src: 0,
                    dst: 1,
                    tx: 9,
                    attempt,
                },
            });
        }
        t.ingest(&TraceRecord {
            at,
            event: TraceEvent::ChaosPhase {
                step: 0,
                action: ChaosKind::Partition,
                a: 0,
                b: 1,
            },
        });
        assert_eq!(t.net_drops(), 5);
        assert_eq!(t.chaos_net_drops(), 3);
        assert_eq!(t.net_duplicates(), 1);
        assert_eq!(t.retransmits(), 4);
        assert_eq!(t.chaos_steps(), &[(at, "partition")]);
    }
}
