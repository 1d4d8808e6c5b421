//! Anomaly detectors: small hysteresis state machines over the windowed
//! signals, so verdicts stay stable under Gilbert–Elliott burst noise.
//!
//! Each detector follows the same shape: a signal is computed from the
//! registry (or the phase log) each scrape, an onset fires only after the
//! enter condition holds for `enter_count` consecutive scrapes, and the
//! verdict clears only after the exit condition holds for `exit_count`
//! consecutive scrapes. Enter and exit thresholds are separated (the
//! hysteresis band), so a signal dithering around one level cannot flap
//! the verdict. Every threshold is a named constant of this module.

use std::collections::BTreeMap;

use sps_metrics::Registry;

use crate::window::SlidingCounter;

/// Backpressure onset: summed input-queue depth (elements) of one PE that
/// must be reached *and* non-decreasing to arm the detector.
const BACKPRESSURE_ENTER_DEPTH: f64 = 64.0;
/// Backpressure clear: a depth at or below this is a quiet scrape.
const BACKPRESSURE_EXIT_DEPTH: f64 = 16.0;
/// Consecutive qualifying scrapes before backpressure fires, and
/// consecutive quiet scrapes before it clears.
const BACKPRESSURE_STREAK: u32 = 3;
/// Window of the heartbeat suspect/refute churn signal.
const FLAKY_WINDOW_NS: u64 = 1_000_000_000;
/// Churn events (misses + cleared suspicions) per window at which a
/// machine's heartbeat is declared flaky.
const FLAKY_ENTER_CHURN: f64 = 4.0;
/// Consecutive churn-free scrapes before flakiness clears.
const FLAKY_EXIT_COUNT: u32 = 3;

/// A verdict transition reported by a detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct AnomalyTransition {
    /// `true` at onset, `false` at clear.
    pub onset: bool,
    /// The signal value at the transition.
    pub value: f64,
}

/// Generic two-threshold hysteresis over a scalar signal.
#[derive(Debug, Clone)]
pub(crate) struct Hysteresis {
    /// Signal at or above this arms/advances the onset counter.
    enter: f64,
    /// Signal at or below this advances the clear counter (at most
    /// `enter`; the gap is the hysteresis band).
    exit: f64,
    /// Consecutive qualifying scrapes before onset fires.
    enter_count: u32,
    /// Consecutive qualifying scrapes before the verdict clears.
    exit_count: u32,
    active: bool,
    streak: u32,
}

impl Hysteresis {
    /// A new inactive state machine.
    pub fn new(enter: f64, exit: f64, enter_count: u32, exit_count: u32) -> Self {
        Hysteresis {
            enter,
            exit,
            enter_count,
            exit_count,
            active: false,
            streak: 0,
        }
    }

    /// Whether the verdict is currently active.
    pub fn active(&self) -> bool {
        self.active
    }

    /// Feeds one sample; returns a transition when the verdict flips.
    pub fn step(&mut self, value: f64) -> Option<AnomalyTransition> {
        if self.active {
            if value <= self.exit {
                self.streak += 1;
                if self.streak >= self.exit_count {
                    self.active = false;
                    self.streak = 0;
                    return Some(AnomalyTransition {
                        onset: false,
                        value,
                    });
                }
            } else {
                self.streak = 0;
            }
        } else if value >= self.enter {
            self.streak += 1;
            if self.streak >= self.enter_count {
                self.active = true;
                self.streak = 0;
                return Some(AnomalyTransition { onset: true, value });
            }
        } else {
            self.streak = 0;
        }
        None
    }
}

/// One open or closed anomaly interval, as recorded by the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalySpan {
    /// Which detector family (JSONL name via `AnomalyKind::as_str`).
    pub detector: sps_trace::AnomalyKind,
    /// Machine scope (`None` for global detectors).
    pub machine: Option<u32>,
    /// PE scope (`None` when not PE-scoped).
    pub pe: Option<u32>,
    /// Onset sim-time (nanoseconds).
    pub start_ns: u64,
    /// Clear sim-time; `None` while still active.
    pub end_ns: Option<u64>,
    /// Peak signal value observed while active.
    pub peak: f64,
}

/// Backpressure onset: per `(machine, pe)`, input-queue depth that is both
/// above the enter threshold and non-decreasing for `enter_count`
/// consecutive scrapes. Clears when the depth falls to the exit threshold.
#[derive(Debug, Clone, Default)]
pub(crate) struct BackpressureDetector {
    /// Per-(machine, pe): (state machine, previous depth).
    states: BTreeMap<(u32, u32), (Hysteresis, f64)>,
}

impl BackpressureDetector {
    /// Scans the per-PE input-depth gauges; returns per-key transitions in
    /// deterministic (machine, pe) order.
    pub fn step(&mut self, registry: &Registry) -> Vec<((u32, u32), AnomalyTransition)> {
        // Sum primary+secondary depth per (machine, pe) key.
        let mut depths: BTreeMap<(u32, u32), f64> = BTreeMap::new();
        for (scope, name, v) in registry.gauges() {
            if scope.component == "data_plane"
                && (name == "input_depth_primary" || name == "input_depth_secondary")
            {
                if let (Some(m), Some(pe)) = (scope.machine, scope.pe) {
                    *depths.entry((m, pe)).or_insert(0.0) += v;
                }
            }
        }
        let mut out = Vec::new();
        for (key, depth) in depths {
            let (hyst, prev) = self.states.entry(key).or_insert_with(|| {
                (
                    Hysteresis::new(
                        BACKPRESSURE_ENTER_DEPTH,
                        BACKPRESSURE_EXIT_DEPTH,
                        BACKPRESSURE_STREAK,
                        BACKPRESSURE_STREAK,
                    ),
                    0.0,
                )
            });
            // The trend gate: a deep-but-draining queue is not backpressure
            // onset, so a shrinking depth feeds the state machine as a
            // below-band sample while inactive.
            let effective = if !hyst.active() && depth < *prev {
                BACKPRESSURE_EXIT_DEPTH.min(depth)
            } else {
                depth
            };
            *prev = depth;
            if let Some(t) = hyst.step(effective) {
                out.push((
                    key,
                    AnomalyTransition {
                        onset: t.onset,
                        value: depth,
                    },
                ));
            }
        }
        out
    }
}

/// Checkpoint stall: fires when the global stored-checkpoint counter stops
/// growing for longer than the sweep budget while checkpointing had
/// already begun; clears on the next stored checkpoint.
#[derive(Debug, Clone)]
pub(crate) struct CheckpointStallDetector {
    budget_ns: u64,
    last_value: u64,
    last_progress_ns: u64,
    active: bool,
}

impl CheckpointStallDetector {
    /// A detector with the given stall budget (nanoseconds).
    pub fn new(budget_ns: u64) -> Self {
        CheckpointStallDetector {
            budget_ns,
            last_value: 0,
            last_progress_ns: 0,
            active: false,
        }
    }

    /// Feeds one scrape; the signal value on transitions is the stall age
    /// in milliseconds.
    pub fn step(&mut self, now_ns: u64, registry: &Registry) -> Option<AnomalyTransition> {
        let stored = registry.counter_total("checkpoint", "stored");
        if stored > self.last_value {
            self.last_value = stored;
            self.last_progress_ns = now_ns;
            if self.active {
                self.active = false;
                return Some(AnomalyTransition {
                    onset: false,
                    value: 0.0,
                });
            }
            return None;
        }
        if stored == 0 {
            // Checkpointing never started (AS/NONE modes): nothing to stall.
            self.last_progress_ns = now_ns;
            return None;
        }
        let age = now_ns.saturating_sub(self.last_progress_ns);
        if !self.active && age > self.budget_ns {
            self.active = true;
            return Some(AnomalyTransition {
                onset: true,
                value: age as f64 / 1e6,
            });
        }
        None
    }
}

/// Redundancy loss: fires while any HA-protected subjob lacks a live
/// standby (the `recovery/standbys_missing` gauge exported by the HA
/// layer) and clears when re-provisioning restores full coverage.
///
/// Deliberately binary — no hysteresis band. Losing the only standby is an
/// immediate availability hazard (one more fault is unrecoverable), so the
/// verdict flips on the first degraded scrape and clears on the first
/// fully-covered one.
#[derive(Debug, Clone, Default)]
pub(crate) struct RedundancyLossDetector {
    active: bool,
}

impl RedundancyLossDetector {
    /// Feeds one scrape; the signal value is the number of subjobs without
    /// a live standby.
    pub fn step(&mut self, registry: &Registry) -> Option<AnomalyTransition> {
        let mut missing = 0.0;
        for (scope, name, v) in registry.gauges() {
            if scope.component == "recovery" && name == "standbys_missing" {
                missing += v;
            }
        }
        if !self.active && missing > 0.0 {
            self.active = true;
            return Some(AnomalyTransition {
                onset: true,
                value: missing,
            });
        }
        if self.active && missing == 0.0 {
            self.active = false;
            return Some(AnomalyTransition {
                onset: false,
                value: 0.0,
            });
        }
        None
    }
}

/// Audit violations: fires the first time the protocol auditor's
/// `audit/violations_total` gauge (exported when an audit probe is
/// installed) goes above zero. Violations are facts about the run, not a
/// transient signal, so the verdict never clears; later increases only
/// raise the reported total.
#[derive(Debug, Clone, Default)]
pub(crate) struct AuditViolationsDetector {
    seen: f64,
}

impl AuditViolationsDetector {
    /// The violation total at the last scrape.
    pub fn total(&self) -> f64 {
        self.seen
    }

    /// Feeds one scrape; returns the onset transition the first time the
    /// total becomes nonzero.
    pub fn step(&mut self, registry: &Registry) -> Option<AnomalyTransition> {
        let mut total = 0.0;
        for (scope, name, v) in registry.gauges() {
            if scope.component == "audit" && name == "violations_total" {
                total += v;
            }
        }
        let first = self.seen == 0.0 && total > 0.0;
        self.seen = self.seen.max(total);
        if first {
            return Some(AnomalyTransition {
                onset: true,
                value: total,
            });
        }
        None
    }
}

/// Heartbeat flakiness: per machine, suspect/refute churn (misses plus
/// cleared suspicions per window) above the enter rate. Hysteresis keeps
/// a single isolated miss from flagging the machine.
#[derive(Debug, Clone, Default)]
pub(crate) struct HeartbeatFlakyDetector {
    /// Per machine: (state machine, miss window, cleared window).
    states: BTreeMap<u32, (Hysteresis, SlidingCounter, SlidingCounter)>,
}

impl HeartbeatFlakyDetector {
    /// Scans the heartbeat miss/cleared counters; transitions in machine
    /// order.
    pub fn step(&mut self, now_ns: u64, registry: &Registry) -> Vec<(u32, AnomalyTransition)> {
        let mut machines: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for (scope, name, v) in registry.counters() {
            if scope.component != "heartbeat" {
                continue;
            }
            let Some(m) = scope.machine else { continue };
            let e = machines.entry(m).or_insert((0, 0));
            match name {
                "misses" => e.0 += v,
                "suspicion_cleared" => e.1 += v,
                _ => {}
            }
        }
        let mut out = Vec::new();
        for (m, (misses, cleared)) in machines {
            let (hyst, miss_w, clear_w) = self.states.entry(m).or_insert_with(|| {
                (
                    // Enter at the churn threshold after one scrape; clear
                    // only at fully-quiet windows, several in a row.
                    Hysteresis::new(FLAKY_ENTER_CHURN, 0.0, 1, FLAKY_EXIT_COUNT),
                    SlidingCounter::new(FLAKY_WINDOW_NS),
                    SlidingCounter::new(FLAKY_WINDOW_NS),
                )
            });
            miss_w.push(now_ns, misses);
            clear_w.push(now_ns, cleared);
            let churn = (miss_w.delta() + clear_w.delta()) as f64;
            if let Some(t) = hyst.step(churn) {
                out.push((m, t));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sps_metrics::Scope;

    #[test]
    fn hysteresis_requires_streaks_and_band() {
        let mut h = Hysteresis::new(10.0, 4.0, 3, 2);
        assert!(h.step(12.0).is_none());
        assert!(h.step(3.0).is_none(), "streak broken");
        assert!(h.step(12.0).is_none());
        assert!(h.step(12.0).is_none());
        let t = h.step(15.0).expect("third consecutive high fires");
        assert!(t.onset && h.active());
        // Mid-band values neither clear nor re-fire.
        assert!(h.step(7.0).is_none());
        assert!(h.step(3.0).is_none(), "first quiet scrape");
        let t = h.step(2.0).expect("second quiet scrape clears");
        assert!(!t.onset && !h.active());
    }

    #[test]
    fn backpressure_needs_growth_and_depth() {
        let mut d = BackpressureDetector::default();
        let scope = Scope::pe("data_plane", 1, 4);
        let feed = |d: &mut BackpressureDetector, depth: f64| {
            let mut r = Registry::new();
            r.set_gauge(scope, "input_depth_primary", depth);
            d.step(&r)
        };
        assert!(feed(&mut d, 70.0).is_empty(), "one high scrape only");
        assert!(feed(&mut d, 80.0).is_empty(), "two high scrapes only");
        let t = feed(&mut d, 90.0);
        assert_eq!(t.len(), 1, "three growing high scrapes fire");
        assert!(t[0].1.onset);
        assert_eq!(t[0].0, (1, 4));
        assert_eq!(t[0].1.value, 90.0);
        // Drains back down: clears after three low scrapes.
        assert!(feed(&mut d, 9.0).is_empty());
        assert!(feed(&mut d, 5.0).is_empty());
        let t = feed(&mut d, 3.0);
        assert_eq!(t.len(), 1);
        assert!(!t[0].1.onset);
        // High but *shrinking* depth never fires.
        assert!(feed(&mut d, 500.0).is_empty());
        assert!(feed(&mut d, 400.0).is_empty());
        assert!(feed(&mut d, 300.0).is_empty());
    }

    #[test]
    fn checkpoint_stall_fires_on_overrun_and_clears_on_progress() {
        let mut d = CheckpointStallDetector::new(1_000_000_000);
        let mut r = Registry::new();
        let g = Scope::global("checkpoint");
        assert!(d.step(100, &r).is_none(), "no checkpoints yet: quiet");
        r.inc(g, "stored", 1);
        assert!(d.step(500_000_000, &r).is_none());
        assert!(d.step(1_000_000_000, &r).is_none(), "within budget");
        let t = d.step(1_600_000_000, &r).expect("budget overrun");
        assert!(t.onset && t.value > 1_000.0);
        r.inc(g, "stored", 1);
        let t = d.step(1_700_000_000, &r).expect("progress clears");
        assert!(!t.onset);
    }

    #[test]
    fn redundancy_loss_flips_on_first_degraded_scrape() {
        let mut d = RedundancyLossDetector::default();
        let scope = Scope::global("recovery");
        let mut r = Registry::new();
        assert!(d.step(&r).is_none(), "gauge absent: covered");
        r.set_gauge(scope, "standbys_missing", 0.0);
        assert!(d.step(&r).is_none(), "zero missing: covered");
        r.set_gauge(scope, "standbys_missing", 2.0);
        let t = d.step(&r).expect("onset on first degraded scrape");
        assert!(t.onset);
        assert!((t.value - 2.0).abs() < 1e-12);
        assert!(d.step(&r).is_none(), "still degraded: no re-fire");
        r.set_gauge(scope, "standbys_missing", 0.0);
        let t = d.step(&r).expect("clear on first covered scrape");
        assert!(!t.onset);
    }

    #[test]
    fn heartbeat_flakiness_tracks_churn_per_machine() {
        let mut d = HeartbeatFlakyDetector::default();
        let m1 = Scope::machine("heartbeat", 1);
        let mut r = Registry::new();
        r.inc(m1, "misses", 1);
        assert!(d.step(100_000_000, &r).is_empty(), "one miss: below band");
        r.inc(m1, "misses", 1);
        r.inc(m1, "suspicion_cleared", 1);
        assert!(d.step(200_000_000, &r).is_empty(), "churn of 3: below band");
        r.inc(m1, "misses", 1);
        let t = d.step(300_000_000, &r);
        assert_eq!(t.len(), 1, "churn of 4 in window fires");
        assert!(t[0].1.onset);
        assert_eq!(t[0].0, 1);
        // Quiet for three scrapes past the window: clears.
        assert!(d.step(1_400_000_000, &r).is_empty());
        assert!(d.step(1_500_000_000, &r).is_empty());
        let t = d.step(1_600_000_000, &r);
        assert_eq!(t.len(), 1);
        assert!(!t[0].1.onset);
    }
}
