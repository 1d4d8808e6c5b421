//! The online health engine: one strictly-observational state machine
//! stepped at every metrics scrape.
//!
//! Determinism argument: the engine reads the registry, the always-on
//! phase log, and the harness's injection ground truth — all of which are
//! themselves deterministic — and writes only to its own state and the
//! trace bus (a no-op without sinks). It never draws randomness, never
//! schedules events, and never touches a machine, so enabling it cannot
//! perturb the simulated schedule; the figure goldens stay byte-identical
//! with the engine on.

use std::collections::BTreeMap;

use sps_metrics::Registry;
use sps_sim::SimDuration;
use sps_trace::{AnomalyKind, PhaseRecord, RecoveryPhase, TraceEvent};

use crate::anomaly::{
    AnomalySpan, AnomalyTransition, AuditViolationsDetector, BackpressureDetector,
    CheckpointStallDetector, HeartbeatFlakyDetector, RedundancyLossDetector,
};
use crate::report::HealthReport;
use crate::slo::{BreachSpan, SloCmp, SloMonitor, SloSpec, SloStat};
use crate::window::TumblingCounter;

/// Name of the built-in recovery-cycle monitor (phase-log driven; always
/// the last monitor).
pub const RECOVERY_MONITOR: &str = "recovery_cycle_total";

/// Budget for one full recovery cycle (failure inject → terminal phase),
/// in milliseconds; a cycle exceeding it records a breach span on
/// [`RECOVERY_MONITOR`] and a `recovery_budget_burn` anomaly.
const RECOVERY_BUDGET_MS: f64 = 200.0;

/// Tumbling-window width of the per-scope counter rate series.
const SERIES_WINDOW_NS: u64 = 1_000_000_000;

/// Checkpoint intervals without a stored checkpoint before the stall
/// detector fires: one sweep is due every interval, so four missed
/// intervals is a stall under any scheduling jitter the model produces.
const STALL_INTERVALS: u64 = 4;

/// The monitor set: end-to-end tail latency, throughput drop vs. its
/// trailing baseline, duplicate-delivery rate, and — last — the built-in
/// recovery monitor, whose spans are measured from the phase log (anchor →
/// terminal phase), not from windowed samples.
const MONITORS: [SloSpec; 4] = [
    SloSpec {
        name: "e2e_p99",
        component: "sink",
        metric: "e2e_delay_ms",
        stat: SloStat::P99,
        cmp: SloCmp::Lt,
        threshold: 250.0,
        window_ns: 5_000_000_000,
    },
    SloSpec {
        name: "throughput_drop",
        component: "sink",
        metric: "accepted",
        stat: SloStat::RateDropPct,
        cmp: SloCmp::Lt,
        threshold: 50.0,
        window_ns: 2_000_000_000,
    },
    SloSpec {
        name: "dup_rate",
        component: "data_plane",
        metric: "duplicates",
        stat: SloStat::Rate,
        cmp: SloCmp::Le,
        threshold: 500.0,
        window_ns: 5_000_000_000,
    },
    SloSpec {
        name: RECOVERY_MONITOR,
        component: "recovery",
        metric: "cycle_total_ms",
        stat: SloStat::Value,
        cmp: SloCmp::Lt,
        threshold: RECOVERY_BUDGET_MS,
        window_ns: 1,
    },
];

/// Index of the recovery monitor in [`MONITORS`].
const RECOVERY: usize = MONITORS.len() - 1;

/// Switches the health engine on (`HaSimulationBuilder::health`). It
/// carries no settings: the monitor set and every detector threshold are
/// constants of this crate, and the checkpoint-stall budget follows the
/// run's checkpoint interval.
#[derive(Debug, Clone, Copy, Default)]
pub struct HealthConfig;

/// Key of one per-scope tumbling series: `(component, machine, pe, name)`.
pub(crate) type SeriesKey = (String, Option<u32>, Option<u32>, &'static str);

/// The `(machine, pe)` scope of a cluster-wide anomaly.
const GLOBAL: (Option<u32>, Option<u32>) = (None, None);

/// An open recovery cycle being tracked from the phase log.
#[derive(Debug, Clone, Copy)]
struct OpenCycle {
    anchor_ns: u64,
    /// Whether the budget-burn anomaly has fired for this cycle.
    burn_onset: bool,
}

/// The recorded anomaly spans, in onset order, and the one path by which
/// every detector opens or closes a span and reports it on the trace bus.
#[derive(Debug, Default)]
struct AnomalyLog {
    spans: Vec<AnomalySpan>,
}

impl AnomalyLog {
    /// Opens (onset) or closes the span of `detector` at `(machine, pe)` at
    /// `at_ns`, and pushes the matching trace event; an absent scope is
    /// `u32::MAX` on the bus.
    fn record(
        &mut self,
        events: &mut Vec<TraceEvent>,
        detector: AnomalyKind,
        (machine, pe): (Option<u32>, Option<u32>),
        at_ns: u64,
        t: AnomalyTransition,
    ) {
        if t.onset {
            self.spans.push(AnomalySpan {
                detector,
                machine,
                pe,
                start_ns: at_ns,
                end_ns: None,
                peak: t.value,
            });
        } else if let Some(span) = self.open_span(detector, machine, pe) {
            span.end_ns = Some(at_ns);
            span.peak = span.peak.max(t.value);
        }
        events.push(TraceEvent::Anomaly {
            detector,
            machine: machine.unwrap_or(u32::MAX),
            pe: pe.unwrap_or(u32::MAX),
            onset: t.onset,
            value: t.value,
        });
    }

    /// Raises the peak of the open span of `detector` at `machine` (a
    /// detector without a PE scope).
    fn raise_peak(&mut self, detector: AnomalyKind, machine: Option<u32>, value: f64) {
        if let Some(span) = self.open_span(detector, machine, None) {
            span.peak = span.peak.max(value);
        }
    }

    fn open_span(
        &mut self,
        detector: AnomalyKind,
        machine: Option<u32>,
        pe: Option<u32>,
    ) -> Option<&mut AnomalySpan> {
        self.spans.iter_mut().rev().find(|s| {
            s.detector == detector && s.machine == machine && s.pe == pe && s.end_ns.is_none()
        })
    }
}

/// The engine: monitors, detectors, series, and their recorded verdicts.
#[derive(Debug)]
pub struct HealthEngine {
    /// One monitor per [`MONITORS`] row, in the same order.
    monitors: Vec<SloMonitor>,
    backpressure: BackpressureDetector,
    ckpt_stall: CheckpointStallDetector,
    redundancy: RedundancyLossDetector,
    flaky: HeartbeatFlakyDetector,
    audit: AuditViolationsDetector,
    /// Per-subjob open recovery cycle.
    cycles: BTreeMap<u32, OpenCycle>,
    phases_consumed: usize,
    anomalies: AnomalyLog,
    series: BTreeMap<SeriesKey, TumblingCounter>,
    scrapes: u64,
    last_scrape_ns: u64,
}

impl HealthEngine {
    /// Builds an engine for a run that checkpoints every
    /// `checkpoint_interval`; the stall budget is four intervals.
    pub fn new(checkpoint_interval: SimDuration) -> Self {
        HealthEngine {
            monitors: MONITORS.into_iter().map(SloMonitor::new).collect(),
            backpressure: BackpressureDetector::default(),
            ckpt_stall: CheckpointStallDetector::new(
                checkpoint_interval.as_nanos() * STALL_INTERVALS,
            ),
            redundancy: RedundancyLossDetector::default(),
            flaky: HeartbeatFlakyDetector::default(),
            audit: AuditViolationsDetector::default(),
            cycles: BTreeMap::new(),
            phases_consumed: 0,
            anomalies: AnomalyLog::default(),
            series: BTreeMap::new(),
            scrapes: 0,
            last_scrape_ns: 0,
        }
    }

    /// Steps the engine at one metrics scrape. Inputs are read-only views
    /// of deterministic state; the returned events are the caller's to put
    /// on the trace bus. `injects` is the harness ground truth — `(machine,
    /// t_ns)` of spike starts and fail-stops — used to anchor recovery
    /// cycles at the fault, not at detection.
    pub fn on_scrape(
        &mut self,
        now_ns: u64,
        registry: &Registry,
        phases: &[PhaseRecord],
        injects: &[(u32, u64)],
    ) -> Vec<TraceEvent> {
        self.scrapes += 1;
        self.last_scrape_ns = now_ns;
        let mut events = Vec::new();

        // Layer 2: the windowed SLO monitors (all but the recovery one).
        for (i, m) in self.monitors[..RECOVERY].iter_mut().enumerate() {
            if let Some(t) = m.evaluate(now_ns, registry) {
                events.push(TraceEvent::SloBreach {
                    monitor: i as u32,
                    entered: t.entered,
                    observed: t.observed,
                    threshold: m.spec.threshold,
                    duration_ns: t.duration_ns,
                });
            }
        }

        // Recovery cycles: consume new phase records, open cycles at
        // detection (anchored to the latest inject at or before it, the
        // same convention as the recovery critical paths), close at the
        // terminal phase. Span times are phase-accurate; the breach events
        // fire at this scrape. The budget-burn span's machine scope holds
        // the subjob index.
        for &p in &phases[self.phases_consumed..] {
            let t = p.at.as_nanos();
            match p.phase {
                RecoveryPhase::Detected => {
                    self.cycles.entry(p.subjob).or_insert_with(|| {
                        let anchor = injects
                            .iter()
                            .filter(|&&(_, it)| it <= t)
                            .map(|&(_, it)| it)
                            .max()
                            .unwrap_or(t);
                        OpenCycle {
                            anchor_ns: anchor,
                            burn_onset: false,
                        }
                    });
                }
                RecoveryPhase::RollbackComplete
                | RecoveryPhase::PsConnected
                | RecoveryPhase::SecondaryReady => {
                    if let Some(cycle) = self.cycles.remove(&p.subjob) {
                        let total_ms = (t.saturating_sub(cycle.anchor_ns)) as f64 / 1e6;
                        if cycle.burn_onset {
                            let clear = AnomalyTransition {
                                onset: false,
                                value: total_ms,
                            };
                            let scope = (Some(p.subjob), None);
                            let kind = AnomalyKind::RecoveryBudgetBurn;
                            self.anomalies.record(&mut events, kind, scope, t, clear);
                        }
                        if total_ms >= RECOVERY_BUDGET_MS {
                            self.monitors[RECOVERY].push_span(BreachSpan {
                                start_ns: cycle.anchor_ns,
                                end_ns: Some(t),
                                worst: total_ms,
                            });
                            for (entered, duration_ns) in
                                [(true, 0), (false, t.saturating_sub(cycle.anchor_ns))]
                            {
                                events.push(TraceEvent::SloBreach {
                                    monitor: RECOVERY as u32,
                                    entered,
                                    observed: total_ms,
                                    threshold: RECOVERY_BUDGET_MS,
                                    duration_ns,
                                });
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        self.phases_consumed = phases.len();

        // Layer 3a: recovery-budget burn — live while a cycle is in flight.
        let budget_ns = (RECOVERY_BUDGET_MS * 1e6) as u64;
        for (&subjob, cycle) in self.cycles.iter_mut() {
            let burn = now_ns.saturating_sub(cycle.anchor_ns);
            let burn_ms = burn as f64 / 1e6;
            let kind = AnomalyKind::RecoveryBudgetBurn;
            if cycle.burn_onset {
                self.anomalies.raise_peak(kind, Some(subjob), burn_ms);
            } else if burn > budget_ns {
                cycle.burn_onset = true;
                let onset = AnomalyTransition {
                    onset: true,
                    value: burn_ms,
                };
                let scope = (Some(subjob), None);
                self.anomalies
                    .record(&mut events, kind, scope, cycle.anchor_ns, onset);
            }
        }

        // Layer 3b: the windowed-signal detectors.
        let log = &mut self.anomalies;
        for ((machine, pe), t) in self.backpressure.step(registry) {
            let scope = (Some(machine), Some(pe));
            log.record(&mut events, AnomalyKind::Backpressure, scope, now_ns, t);
        }
        if let Some(t) = self.ckpt_stall.step(now_ns, registry) {
            log.record(&mut events, AnomalyKind::CheckpointStall, GLOBAL, now_ns, t);
        }
        if let Some(t) = self.redundancy.step(registry) {
            log.record(&mut events, AnomalyKind::RedundancyLoss, GLOBAL, now_ns, t);
        }
        for (machine, t) in self.flaky.step(now_ns, registry) {
            let scope = (Some(machine), None);
            log.record(&mut events, AnomalyKind::HeartbeatFlaky, scope, now_ns, t);
        }

        // Layer 3c: protocol-audit verdict. The auditor's gauge is
        // monotone, so this span opens once and never closes; later
        // violations only raise the open span's peak.
        if let Some(t) = self.audit.step(registry) {
            log.record(&mut events, AnomalyKind::AuditViolations, GLOBAL, now_ns, t);
        } else if self.audit.total() > 0.0 {
            log.raise_peak(AnomalyKind::AuditViolations, None, self.audit.total());
        }

        // Layer 1: tumbling per-scope counter rate series.
        for (scope, name, v) in registry.counters() {
            let key = (scope.component.to_string(), scope.machine, scope.pe, name);
            self.series
                .entry(key)
                .or_insert_with(|| TumblingCounter::new(SERIES_WINDOW_NS))
                .push(now_ns, v);
        }

        events
    }

    /// The monitors (windowed first, built-in recovery monitor last), with
    /// their breach spans.
    pub fn monitors(&self) -> &[SloMonitor] {
        &self.monitors
    }

    /// Recorded anomaly spans, in onset order.
    pub(crate) fn anomaly_spans(&self) -> &[AnomalySpan] {
        &self.anomalies.spans
    }

    /// Scrapes consumed so far.
    pub(crate) fn scrape_count(&self) -> u64 {
        self.scrapes
    }

    /// Assembles the deterministic end-of-run health report.
    pub fn report(&self) -> HealthReport {
        HealthReport::from_engine(self, self.last_scrape_ns)
    }

    /// The tumbling series, in deterministic key order:
    /// `(component, machine, pe, name)` → series.
    pub(crate) fn series(&self) -> impl Iterator<Item = (&SeriesKey, &TumblingCounter)> {
        self.series.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sps_metrics::Scope;
    use sps_sim::SimTime;

    /// An engine whose stall budget is 2 s (4 x 500 ms).
    fn engine() -> HealthEngine {
        HealthEngine::new(SimDuration::from_millis(500))
    }

    #[test]
    fn monitor_names_are_unique_and_recovery_is_last() {
        let engine = engine();
        let mut names: Vec<&str> = engine.monitors().iter().map(|m| m.spec.name).collect();
        assert_eq!(names.last(), Some(&RECOVERY_MONITOR));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), MONITORS.len());
    }
    #[test]
    fn recovery_cycle_breach_telescopes_to_phase_log() {
        let mut engine = engine();
        let registry = Registry::new();
        let ms = SimTime::from_millis;
        let phases = vec![
            PhaseRecord {
                at: ms(3_100),
                subjob: 1,
                phase: RecoveryPhase::Detected,
            },
            PhaseRecord {
                at: ms(3_150),
                subjob: 1,
                phase: RecoveryPhase::SwitchoverComplete,
            },
            PhaseRecord {
                at: ms(4_200),
                subjob: 1,
                phase: RecoveryPhase::RollbackStarted,
            },
            PhaseRecord {
                at: ms(4_400),
                subjob: 1,
                phase: RecoveryPhase::RollbackComplete,
            },
        ];
        let injects = vec![(1u32, ms(3_000).as_nanos())];
        // Scrape mid-cycle: the burn anomaly fires once the budget is gone.
        let ev = engine.on_scrape(ms(3_500).as_nanos(), &registry, &phases[..3], &injects);
        assert!(
            ev.iter().any(|e| matches!(
                e,
                TraceEvent::Anomaly {
                    detector: AnomalyKind::RecoveryBudgetBurn,
                    onset: true,
                    ..
                }
            )),
            "burn onset expected: {ev:?}"
        );
        // Scrape after the terminal phase: breach span enter+exit.
        let ev = engine.on_scrape(ms(4_500).as_nanos(), &registry, &phases, &injects);
        let breaches: Vec<_> = ev
            .iter()
            .filter(|e| matches!(e, TraceEvent::SloBreach { .. }))
            .collect();
        assert_eq!(breaches.len(), 2, "enter+exit: {ev:?}");
        let spans = engine.monitors()[RECOVERY].spans();
        assert_eq!(spans.len(), 1);
        let span = spans[0];
        assert_eq!(span.start_ns, ms(3_000).as_nanos(), "anchored at inject");
        assert_eq!(span.end_ns, Some(ms(4_400).as_nanos()));
        // Telescoping: the span duration equals the phase-log cycle total.
        assert_eq!(span.duration_ns(0), 1_400_000_000);
        assert!((span.worst - 1_400.0).abs() < 1e-9);
    }

    #[test]
    fn fast_recovery_records_no_breach() {
        let mut engine = engine();
        let registry = Registry::new();
        let ms = SimTime::from_millis;
        let phases = vec![
            PhaseRecord {
                at: ms(1_000),
                subjob: 0,
                phase: RecoveryPhase::Detected,
            },
            PhaseRecord {
                at: ms(1_050),
                subjob: 0,
                phase: RecoveryPhase::SwitchoverComplete,
            },
            PhaseRecord {
                at: ms(1_080),
                subjob: 0,
                phase: RecoveryPhase::RollbackComplete,
            },
        ];
        let injects = vec![(0u32, ms(990).as_nanos())];
        let ev = engine.on_scrape(ms(1_100).as_nanos(), &registry, &phases, &injects);
        assert!(ev.is_empty(), "90ms cycle under a 200ms budget: {ev:?}");
        assert!(engine.monitors()[RECOVERY].spans().is_empty());
    }

    #[test]
    fn scrape_emits_monitor_indices_that_map_to_names() {
        let mut engine = engine();
        let mut r = Registry::new();
        // Blow the e2e p99 monitor (threshold 250ms).
        for _ in 0..100 {
            r.observe(Scope::global("sink"), "e2e_delay_ms", 5_000.0);
        }
        let ev = engine.on_scrape(100_000_000, &r, &[], &[]);
        let TraceEvent::SloBreach {
            monitor, entered, ..
        } = ev[0]
        else {
            panic!("expected breach: {ev:?}");
        };
        assert!(entered);
        assert_eq!(engine.monitors()[monitor as usize].spec.name, "e2e_p99");
    }

    #[test]
    fn series_accumulate_per_scope_windows() {
        let mut engine = engine();
        let mut r = Registry::new();
        let s = Scope::global("sink");
        for i in 1..=5u64 {
            r.inc(s, "accepted", 1_000);
            engine.on_scrape(i * 1_000_000_000, &r, &[], &[]);
        }
        let series: Vec<_> = engine.series().collect();
        assert_eq!(series.len(), 1);
        let (key, tc) = series[0];
        assert_eq!(key.0, "sink");
        assert_eq!(key.3, "accepted");
        assert!(tc.window_count() > 0);
        assert!(tc.mean_rate() > 0.0);
    }
}
