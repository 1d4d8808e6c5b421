//! SLO monitors: deterministic per-scrape evaluation of a fixed spec
//! against the metrics registry, and breach span bookkeeping.
//!
//! A spec names a registry metric (`component/metric`; all scopes of the
//! component recording it are aggregated — counters sum, gauges take the
//! max, histograms merge bucket-wise), the statistic to evaluate, the
//! *healthy* relation to a threshold, and a trailing window. A breach is
//! the relation failing. The engine's monitor set is a constant table; a
//! spec renders as `e2e_p99: sink/e2e_delay_ms{p99} < 250 over 5s` in the
//! health report.

use sps_metrics::Registry;

use crate::window::{SlidingCounter, SlidingHistogram};

/// Baseline span multiplier for `rate_drop_pct` (baseline = 4x window).
const BASELINE_WINDOWS: u64 = 4;

/// Which statistic of the aggregated metric a spec evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloStat {
    /// The aggregated instantaneous value (gauge max, or counter sum).
    Value,
    /// Counter growth rate over the window, per second.
    Rate,
    /// Windowed histogram 99th percentile.
    P99,
    /// Percent drop of the windowed rate vs. the trailing baseline rate
    /// (0 when the baseline is still empty or the rate did not drop).
    RateDropPct,
}

impl SloStat {
    fn as_str(self) -> &'static str {
        match self {
            SloStat::Value => "value",
            SloStat::Rate => "rate",
            SloStat::P99 => "p99",
            SloStat::RateDropPct => "rate_drop_pct",
        }
    }
}

/// The healthy comparison of observed statistic against threshold; larger
/// observed values are always the worse ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloCmp {
    /// Healthy while `observed < threshold`.
    Lt,
    /// Healthy while `observed <= threshold`.
    Le,
}

impl SloCmp {
    fn as_str(self) -> &'static str {
        match self {
            SloCmp::Lt => "<",
            SloCmp::Le => "<=",
        }
    }

    /// Whether `observed` satisfies the healthy relation.
    pub(crate) fn healthy(self, observed: f64, threshold: f64) -> bool {
        match self {
            SloCmp::Lt => observed < threshold,
            SloCmp::Le => observed <= threshold,
        }
    }
}

/// One SLO spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// Monitor name (unique within one engine; reports key on it).
    pub name: &'static str,
    /// Registry component the metric belongs to.
    pub component: &'static str,
    /// Metric name within the component.
    pub metric: &'static str,
    /// Statistic to evaluate.
    pub stat: SloStat,
    /// Healthy relation.
    pub cmp: SloCmp,
    /// Threshold the relation compares against.
    pub threshold: f64,
    /// Trailing window span in nanoseconds.
    pub window_ns: u64,
}

impl SloSpec {
    /// Renders the spec as the `spec` field of the health report.
    pub fn display(&self) -> String {
        format!(
            "{}: {}/{}{{{}}} {} {} over {}",
            self.name,
            self.component,
            self.metric,
            self.stat.as_str(),
            self.cmp.as_str(),
            fmt_threshold(self.threshold),
            fmt_duration_ns(self.window_ns),
        )
    }
}

fn fmt_duration_ns(ns: u64) -> String {
    if ns.is_multiple_of(1_000_000_000) {
        format!("{}s", ns / 1_000_000_000)
    } else if ns.is_multiple_of(1_000_000) {
        format!("{}ms", ns / 1_000_000)
    } else if ns.is_multiple_of(1_000) {
        format!("{}us", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

fn fmt_threshold(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

/// One recorded breach interval of a monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreachSpan {
    /// When the breach was entered (sim nanoseconds).
    pub start_ns: u64,
    /// When it cleared; `None` while still open.
    pub end_ns: Option<u64>,
    /// Largest observed value while breaching.
    pub worst: f64,
}

impl BreachSpan {
    /// Breach duration against an explicit end (for open spans, "now").
    pub fn duration_ns(&self, now_ns: u64) -> u64 {
        self.end_ns.unwrap_or(now_ns).saturating_sub(self.start_ns)
    }
}

/// A breach-boundary crossing reported by [`SloMonitor::evaluate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SloTransition {
    /// `true` on breach enter, `false` on exit.
    pub entered: bool,
    /// Observed statistic at the crossing.
    pub observed: f64,
    /// Breach duration (0 on enter).
    pub duration_ns: u64,
}

/// One monitor: a spec plus its sliding windows and breach state machine.
#[derive(Debug, Clone)]
pub struct SloMonitor {
    /// The spec this monitor evaluates.
    pub spec: SloSpec,
    counter: SlidingCounter,
    baseline: SlidingCounter,
    histogram: SlidingHistogram,
    spans: Vec<BreachSpan>,
}

impl SloMonitor {
    /// A monitor with empty windows.
    pub(crate) fn new(spec: SloSpec) -> Self {
        let w = spec.window_ns;
        SloMonitor {
            counter: SlidingCounter::new(w),
            baseline: SlidingCounter::new(w * BASELINE_WINDOWS),
            histogram: SlidingHistogram::new(w),
            spec,
            spans: Vec::new(),
        }
    }

    /// Evaluates the spec against the registry at one scrape instant.
    /// Returns a transition when the breach boundary was crossed.
    pub(crate) fn evaluate(&mut self, now_ns: u64, registry: &Registry) -> Option<SloTransition> {
        let observed = self.observe(now_ns, registry)?;
        let healthy = self.spec.cmp.healthy(observed, self.spec.threshold);
        let breaching = self.spans.last().is_some_and(|s| s.end_ns.is_none());
        if breaching {
            let span = self.spans.last_mut().expect("open span");
            span.worst = span.worst.max(observed);
            if healthy {
                span.end_ns = Some(now_ns);
                return Some(SloTransition {
                    entered: false,
                    observed,
                    duration_ns: now_ns.saturating_sub(span.start_ns),
                });
            }
        } else if !healthy {
            self.spans.push(BreachSpan {
                start_ns: now_ns,
                end_ns: None,
                worst: observed,
            });
            return Some(SloTransition {
                entered: true,
                observed,
                duration_ns: 0,
            });
        }
        None
    }

    /// Computes the observed statistic, feeding the windows. `None` when
    /// the metric has produced no data yet (no breach can be declared on
    /// silence).
    fn observe(&mut self, now_ns: u64, registry: &Registry) -> Option<f64> {
        let spec = &self.spec;
        match spec.stat {
            SloStat::Value => {
                if let Some(g) = registry.gauge_max(spec.component, spec.metric) {
                    return Some(g);
                }
                let sum: u64 = counter_sum(registry, spec.component, spec.metric)?;
                Some(sum as f64)
            }
            SloStat::Rate | SloStat::RateDropPct => {
                let sum = counter_sum(registry, spec.component, spec.metric)?;
                self.counter.push(now_ns, sum);
                self.baseline.push(now_ns, sum);
                if spec.stat == SloStat::Rate {
                    return Some(self.counter.rate_per_sec());
                }
                let base = self.baseline.rate_per_sec();
                if base <= 0.0 {
                    return Some(0.0);
                }
                let drop = (base - self.counter.rate_per_sec()) / base * 100.0;
                Some(drop.max(0.0))
            }
            SloStat::P99 => {
                let merged = registry.merged_histogram(spec.component, spec.metric)?;
                self.histogram.push(now_ns, merged);
                self.histogram.quantile(0.99)
            }
        }
    }

    /// Recorded breach spans, oldest first.
    pub fn spans(&self) -> &[BreachSpan] {
        &self.spans
    }

    /// Appends an externally-computed breach span (the engine's recovery-
    /// cycle monitor measures spans from the phase log, not from windows).
    pub(crate) fn push_span(&mut self, span: BreachSpan) {
        self.spans.push(span);
    }
}

fn counter_sum(registry: &Registry, component: &str, metric: &str) -> Option<u64> {
    let mut any = false;
    let mut sum = 0u64;
    for (s, n, v) in registry.counters() {
        if s.component == component && n == metric {
            any = true;
            sum += v;
        }
    }
    any.then_some(sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sps_metrics::Scope;

    fn spec(name: &'static str, metric: &'static str, stat: SloStat, threshold: f64) -> SloSpec {
        SloSpec {
            name,
            component: "sink",
            metric,
            stat,
            cmp: SloCmp::Lt,
            threshold,
            window_ns: 1_000_000_000,
        }
    }

    #[test]
    fn display_renders_the_report_spec() {
        let mut s = spec("e2e_p99", "e2e_delay_ms", SloStat::P99, 250.0);
        s.window_ns = 5_000_000_000;
        assert_eq!(s.display(), "e2e_p99: sink/e2e_delay_ms{p99} < 250 over 5s");
        s.cmp = SloCmp::Le;
        s.threshold = 0.5;
        s.window_ns = 1;
        assert_eq!(
            s.display(),
            "e2e_p99: sink/e2e_delay_ms{p99} <= 0.5 over 1ns"
        );
    }

    #[test]
    fn monitor_tracks_breach_enter_exit_and_worst() {
        let mut m = SloMonitor::new(spec("lat", "e2e_delay_ms", SloStat::P99, 100.0));
        let mut r = Registry::new();
        let sink = Scope::global("sink");
        r.observe(sink, "e2e_delay_ms", 10.0);
        assert!(m.evaluate(100_000_000, &r).is_none(), "healthy");
        // Latency explodes.
        for _ in 0..20 {
            r.observe(sink, "e2e_delay_ms", 400.0);
        }
        let t = m.evaluate(200_000_000, &r).expect("breach enter");
        assert!(t.entered && t.observed >= 100.0);
        for _ in 0..5 {
            r.observe(sink, "e2e_delay_ms", 900.0);
        }
        assert!(m.evaluate(300_000_000, &r).is_none(), "still breaching");
        // Recovery: push the window past the spike (only new small values).
        for _ in 0..400 {
            r.observe(sink, "e2e_delay_ms", 1.0);
        }
        let t = (4..20)
            .find_map(|i| m.evaluate(i * 1_000_000_000, &r))
            .expect("breach exit");
        assert!(!t.entered && t.duration_ns > 0);
        let spans = m.spans();
        assert_eq!(spans.len(), 1);
        assert!(spans[0].worst >= 512.0, "worst: {}", spans[0].worst);
        assert!(spans[0].end_ns.is_some());
    }

    #[test]
    fn rate_drop_breaches_when_throughput_collapses() {
        let mut m = SloMonitor::new(spec("tp", "accepted", SloStat::RateDropPct, 50.0));
        let mut r = Registry::new();
        let sink = Scope::global("sink");
        // 1000/s for 4 seconds.
        for i in 1..=4u64 {
            r.inc(sink, "accepted", 1_000);
            assert!(m.evaluate(i * 1_000_000_000, &r).is_none());
        }
        // Throughput collapses to zero for the next two scrapes.
        let t5 = m.evaluate(5_000_000_000, &r);
        let t6 = m.evaluate(6_000_000_000, &r);
        assert!(
            t5.map(|t| t.entered).unwrap_or(false) || t6.map(|t| t.entered).unwrap_or(false),
            "drop monitor should breach: {t5:?} {t6:?}"
        );
    }

    #[test]
    fn silence_is_not_a_breach() {
        let mut m = SloMonitor::new(spec("lat", "e2e_delay_ms", SloStat::P99, 1.0));
        let r = Registry::new();
        assert!(m.evaluate(1_000_000_000, &r).is_none());
        assert!(m.spans().is_empty());
    }
}
