//! A sim-time metrics registry: counters, gauges, and log-linear
//! histograms keyed by `(component, machine, pe)` scopes, with
//! deterministic scrape snapshots exportable as JSONL or CSV.
//!
//! The registry is pure bookkeeping: it never draws randomness, never
//! schedules anything, and iterates in a fixed `BTreeMap` order, so two
//! identical runs scrape byte-identical time-series. The simulator owns a
//! registry only when metrics collection was requested; the disabled path
//! costs one branch per would-be update.
//!
//! Times are plain nanosecond integers so this crate stays dependency-free
//! (the simulator passes `SimTime::as_nanos()`).

use std::collections::BTreeMap;
use std::io::{self, Write};

/// The identity of a metric family: which component reported it, and the
/// machine/PE it is about (either may be absent for cluster-wide metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Scope {
    /// Reporting component, e.g. `"data_plane"`, `"recovery"`, `"network"`.
    pub component: &'static str,
    /// Machine index the metric is about, if machine-scoped.
    pub machine: Option<u32>,
    /// PE id the metric is about, if PE-scoped.
    pub pe: Option<u32>,
}

impl Scope {
    /// A cluster-wide scope.
    pub fn global(component: &'static str) -> Scope {
        Scope {
            component,
            machine: None,
            pe: None,
        }
    }

    /// A machine-scoped metric.
    pub fn machine(component: &'static str, machine: u32) -> Scope {
        Scope {
            component,
            machine: Some(machine),
            pe: None,
        }
    }

    /// A PE-scoped metric (the hosting machine is part of the identity).
    pub fn pe(component: &'static str, machine: u32, pe: u32) -> Scope {
        Scope {
            component,
            machine: Some(machine),
            pe: Some(pe),
        }
    }
}

/// Linear sub-buckets per power of two in [`LogLinearHistogram`]: bucket
/// widths grow with magnitude while keeping ~9% relative resolution.
pub const HISTOGRAM_SUBBUCKETS: usize = 8;

/// A log-linear histogram of non-negative values: one underflow bucket for
/// values below 1, then [`HISTOGRAM_SUBBUCKETS`] linear buckets per power
/// of two. Recording is integer-only bookkeeping and allocation-free after
/// the bucket vector reaches its high-water length.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LogLinearHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    max: f64,
}

impl LogLinearHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_index(value: f64) -> usize {
        if value < 1.0 {
            return 0;
        }
        let exp = value.log2().floor();
        let base = 2f64.powf(exp);
        let sub = (((value / base) - 1.0) * HISTOGRAM_SUBBUCKETS as f64) as usize;
        1 + (exp as usize) * HISTOGRAM_SUBBUCKETS + sub.min(HISTOGRAM_SUBBUCKETS - 1)
    }

    /// The lower bound of the bucket at `index` (inverse of the indexing).
    fn bucket_floor(index: usize) -> f64 {
        if index == 0 {
            return 0.0;
        }
        let i = index - 1;
        let exp = i / HISTOGRAM_SUBBUCKETS;
        let sub = i % HISTOGRAM_SUBBUCKETS;
        2f64.powi(exp as i32) * (1.0 + sub as f64 / HISTOGRAM_SUBBUCKETS as f64)
    }

    /// Records one observation (negative values clamp to zero).
    pub fn observe(&mut self, value: f64) {
        let v = if value.is_finite() {
            value.max(0.0)
        } else {
            0.0
        };
        let idx = Self::bucket_index(v);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Largest observation seen.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The lower bound of the bucket containing quantile `q` (0..=1).
    /// Resolution is the bucket width (~12.5% relative); exact enough for
    /// tail summaries without retaining samples.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_floor(i);
            }
        }
        Self::bucket_floor(self.buckets.len().saturating_sub(1))
    }

    /// Folds another histogram into this one (bucket-wise sum). Used to
    /// aggregate the same metric across scopes before windowed queries.
    pub fn merge(&mut self, other: &LogLinearHistogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, &n) in other.buckets.iter().enumerate() {
            self.buckets[i] += n;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The observations recorded since `earlier` (an older cumulative
    /// snapshot of the *same* histogram), as a standalone histogram.
    /// Bucket counts and sums subtract saturating, so a mismatched pair
    /// degrades to an empty window instead of panicking. The returned
    /// `max` is the cumulative high-water mark (per-window maxima are not
    /// recoverable from cumulative snapshots).
    pub fn delta_since(&self, earlier: &LogLinearHistogram) -> LogLinearHistogram {
        let mut buckets = self.buckets.clone();
        for (i, b) in buckets.iter_mut().enumerate() {
            let prev = earlier.buckets.get(i).copied().unwrap_or(0);
            *b = b.saturating_sub(prev);
        }
        LogLinearHistogram {
            buckets,
            count: self.count.saturating_sub(earlier.count),
            sum: (self.sum - earlier.sum).max(0.0),
            max: self.max,
        }
    }

    /// Quantile of the observations recorded since `earlier` — the
    /// windowed tail statistic the SLO monitors evaluate each scrape.
    pub fn quantile_between(&self, earlier: &LogLinearHistogram, q: f64) -> f64 {
        self.delta_since(earlier).quantile(q)
    }
}

/// One metric value captured by a scrape.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ScrapedValue {
    Counter(u64),
    Gauge(f64),
    /// `(count, sum, p50, p99, max)` summary of a histogram.
    Histogram(u64, f64, f64, f64, f64),
}

impl ScrapedValue {
    fn kind(&self) -> &'static str {
        match self {
            ScrapedValue::Counter(_) => "counter",
            ScrapedValue::Gauge(_) => "gauge",
            ScrapedValue::Histogram(..) => "histogram",
        }
    }
}

/// One scrape: every registered metric's value at one sim-time instant.
#[derive(Debug, Clone, PartialEq)]
pub struct Scrape {
    /// Sim-time of the scrape, in nanoseconds.
    pub t_nanos: u64,
    rows: Vec<(Scope, &'static str, ScrapedValue)>,
}

/// The registry: every counter, gauge, and histogram of one run, plus the
/// scrape history. Iteration order is the `BTreeMap` key order, so exports
/// are deterministic.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<(Scope, &'static str), u64>,
    gauges: BTreeMap<(Scope, &'static str), f64>,
    histograms: BTreeMap<(Scope, &'static str), LogLinearHistogram>,
    scrapes: Vec<Scrape>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to a counter (creating it at zero).
    pub fn inc(&mut self, scope: Scope, name: &'static str, by: u64) {
        *self.counters.entry((scope, name)).or_insert(0) += by;
    }

    /// Sets a gauge to `value`.
    pub fn set_gauge(&mut self, scope: Scope, name: &'static str, value: f64) {
        self.gauges.insert((scope, name), value);
    }

    /// Records one observation into a histogram.
    pub fn observe(&mut self, scope: Scope, name: &'static str, value: f64) {
        self.histograms
            .entry((scope, name))
            .or_default()
            .observe(value);
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, scope: Scope, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|((s, n), _)| *s == scope && *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Sum of one counter name across all scopes of a component.
    pub fn counter_total(&self, component: &str, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|((s, n), _)| s.component == component && *n == name)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Current value of a gauge, if set.
    pub fn gauge(&self, scope: Scope, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|((s, n), _)| *s == scope && *n == name)
            .map(|(_, v)| *v)
    }

    /// One histogram, if any observation was recorded.
    pub fn histogram(&self, scope: Scope, name: &str) -> Option<&LogLinearHistogram> {
        self.histograms
            .iter()
            .find(|((s, n), _)| *s == scope && *n == name)
            .map(|(_, h)| h)
    }

    /// Counters iterated in deterministic order.
    pub fn counters(&self) -> impl Iterator<Item = (Scope, &'static str, u64)> + '_ {
        self.counters.iter().map(|(&(s, n), &v)| (s, n, v))
    }

    /// Gauges iterated in deterministic order.
    pub fn gauges(&self) -> impl Iterator<Item = (Scope, &'static str, f64)> + '_ {
        self.gauges.iter().map(|(&(s, n), &v)| (s, n, v))
    }

    /// Histograms iterated in deterministic order.
    pub fn histograms(
        &self,
    ) -> impl Iterator<Item = (Scope, &'static str, &LogLinearHistogram)> + '_ {
        self.histograms.iter().map(|(&(s, n), h)| (s, n, h))
    }

    /// One histogram aggregated (bucket-wise merged) across every scope of
    /// `component` that records `name`. `None` when no scope does.
    pub fn merged_histogram(&self, component: &str, name: &str) -> Option<LogLinearHistogram> {
        let mut merged: Option<LogLinearHistogram> = None;
        for ((s, n), h) in &self.histograms {
            if s.component == component && *n == name {
                merged.get_or_insert_with(LogLinearHistogram::new).merge(h);
            }
        }
        merged
    }

    /// Maximum of one gauge name across all scopes of a component.
    pub fn gauge_max(&self, component: &str, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .filter(|((s, n), _)| s.component == component && *n == name)
            .map(|(_, v)| *v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Snapshots every metric at sim-time `t_nanos` and appends the scrape
    /// to the history. Scraping mutates only the registry itself.
    pub fn scrape(&mut self, t_nanos: u64) {
        let mut rows =
            Vec::with_capacity(self.counters.len() + self.gauges.len() + self.histograms.len());
        for (&(scope, name), &v) in &self.counters {
            rows.push((scope, name, ScrapedValue::Counter(v)));
        }
        for (&(scope, name), &v) in &self.gauges {
            rows.push((scope, name, ScrapedValue::Gauge(v)));
        }
        for (&(scope, name), h) in &self.histograms {
            rows.push((
                scope,
                name,
                ScrapedValue::Histogram(
                    h.count(),
                    h.sum(),
                    h.quantile(0.50),
                    h.quantile(0.99),
                    h.max(),
                ),
            ));
        }
        self.scrapes.push(Scrape { t_nanos, rows });
    }

    /// Number of scrapes recorded.
    pub fn scrape_count(&self) -> usize {
        self.scrapes.len()
    }

    /// Writes the scrape history as JSON Lines: one object per metric per
    /// scrape, keys in fixed order, floats at fixed precision — identical
    /// runs export byte-identical dumps.
    pub fn export_jsonl(&self, w: &mut impl Write) -> io::Result<()> {
        for s in &self.scrapes {
            for (scope, name, v) in &s.rows {
                write!(
                    w,
                    "{{\"t\":{},\"component\":\"{}\",\"machine\":{},\"pe\":{},\"name\":\"{}\",\"kind\":\"{}\"",
                    s.t_nanos,
                    scope.component,
                    opt_u32(scope.machine),
                    opt_u32(scope.pe),
                    name,
                    v.kind(),
                )?;
                match v {
                    ScrapedValue::Counter(c) => write!(w, ",\"value\":{c}")?,
                    ScrapedValue::Gauge(g) => write!(w, ",\"value\":{}", fmt_f64(*g))?,
                    ScrapedValue::Histogram(count, sum, p50, p99, max) => write!(
                        w,
                        ",\"count\":{count},\"sum\":{},\"p50\":{},\"p99\":{},\"max\":{}",
                        fmt_f64(*sum),
                        fmt_f64(*p50),
                        fmt_f64(*p99),
                        fmt_f64(*max),
                    )?,
                }
                writeln!(w, "}}")?;
            }
        }
        Ok(())
    }

    /// Writes the scrape history as CSV (`t_nanos,component,machine,pe,
    /// name,kind,value,count,sum,p50,p99,max`), same determinism guarantees
    /// as [`export_jsonl`](Self::export_jsonl).
    pub fn export_csv(&self, w: &mut impl Write) -> io::Result<()> {
        writeln!(
            w,
            "t_nanos,component,machine,pe,name,kind,value,count,sum,p50,p99,max"
        )?;
        for s in &self.scrapes {
            for (scope, name, v) in &s.rows {
                let m = scope.machine.map(|m| m.to_string()).unwrap_or_default();
                let p = scope.pe.map(|p| p.to_string()).unwrap_or_default();
                match v {
                    ScrapedValue::Counter(c) => writeln!(
                        w,
                        "{},{},{m},{p},{name},counter,{c},,,,,",
                        s.t_nanos, scope.component
                    )?,
                    ScrapedValue::Gauge(g) => writeln!(
                        w,
                        "{},{},{m},{p},{name},gauge,{},,,,,",
                        s.t_nanos,
                        scope.component,
                        fmt_f64(*g)
                    )?,
                    ScrapedValue::Histogram(count, sum, p50, p99, max) => writeln!(
                        w,
                        "{},{},{m},{p},{name},histogram,,{count},{},{},{},{}",
                        s.t_nanos,
                        scope.component,
                        fmt_f64(*sum),
                        fmt_f64(*p50),
                        fmt_f64(*p99),
                        fmt_f64(*max),
                    )?,
                }
            }
        }
        Ok(())
    }

    /// The JSONL dump as a string (used by determinism tests).
    pub fn to_jsonl_string(&self) -> String {
        let mut out = Vec::new();
        self.export_jsonl(&mut out).expect("write to Vec");
        String::from_utf8(out).expect("JSONL is ASCII")
    }
}

fn opt_u32(v: Option<u32>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    }
}

/// Deterministic fixed-precision float formatting (mirrors the trace
/// layer's JSONL encoding; never exponent notation, never locale-shaped).
fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        String::from("null")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_scope() {
        let mut r = Registry::new();
        let a = Scope::machine("data_plane", 1);
        let b = Scope::machine("data_plane", 2);
        r.inc(a, "elements_sent", 3);
        r.inc(a, "elements_sent", 2);
        r.inc(b, "elements_sent", 7);
        assert_eq!(r.counter(a, "elements_sent"), 5);
        assert_eq!(r.counter(b, "elements_sent"), 7);
        assert_eq!(r.counter_total("data_plane", "elements_sent"), 12);
        assert_eq!(r.counter(Scope::global("x"), "elements_sent"), 0);
    }

    #[test]
    fn histogram_buckets_are_log_linear_and_quantiles_bounded() {
        let mut h = LogLinearHistogram::new();
        for v in [0.2, 1.0, 1.5, 3.0, 9.0, 100.0, 100.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 8);
        assert!((h.sum() - 314.7).abs() < 1e-9);
        assert_eq!(h.max(), 100.0);
        let p99 = h.quantile(0.99);
        assert!(p99 <= 100.0 && p99 > 50.0, "p99 bucket floor: {p99}");
        let p25 = h.quantile(0.25);
        assert!(p25 <= 1.5, "p25 bucket floor: {p25}");
        // A value's bucket floor is never above the value itself.
        for v in [1.0, 1.9, 2.0, 7.3, 1e6] {
            let floor = LogLinearHistogram::bucket_floor(LogLinearHistogram::bucket_index(v));
            assert!(floor <= v && v < floor * (1.0 + 2.0 / HISTOGRAM_SUBBUCKETS as f64));
        }
    }

    #[test]
    fn histogram_windows_diff_cumulative_snapshots() {
        let mut h = LogLinearHistogram::new();
        for v in [2.0, 2.0, 3.0] {
            h.observe(v);
        }
        let snapshot = h.clone();
        for v in [100.0, 100.0, 120.0, 150.0] {
            h.observe(v);
        }
        let w = h.delta_since(&snapshot);
        assert_eq!(w.count(), 4);
        assert!((w.sum() - 470.0).abs() < 1e-9);
        // The window contains only the large values: its median sits in the
        // 100s, not at the cumulative median (which would be ~3).
        assert!(w.quantile(0.5) > 50.0, "windowed p50: {}", w.quantile(0.5));
        assert!(h.quantile_between(&snapshot, 0.5) > 50.0);
        // Degenerate pair (newer snapshot as "earlier") stays empty.
        assert_eq!(h.delta_since(&h).count(), 0);
    }

    #[test]
    fn merged_histogram_sums_scopes() {
        let mut r = Registry::new();
        r.observe(Scope::pe("data_plane", 0, 1), "proc_ms", 1.0);
        r.observe(Scope::pe("data_plane", 1, 2), "proc_ms", 8.0);
        let m = r.merged_histogram("data_plane", "proc_ms").unwrap();
        assert_eq!(m.count(), 2);
        assert!((m.sum() - 9.0).abs() < 1e-9);
        assert!(r.merged_histogram("data_plane", "missing").is_none());
        assert_eq!(r.histograms().count(), 2);
    }

    #[test]
    fn gauge_max_spans_scopes() {
        let mut r = Registry::new();
        r.set_gauge(Scope::machine("cluster", 0), "run_queue", 2.0);
        r.set_gauge(Scope::machine("cluster", 1), "run_queue", 7.0);
        assert_eq!(r.gauge_max("cluster", "run_queue"), Some(7.0));
        assert_eq!(r.gauge_max("cluster", "absent"), None);
        assert_eq!(r.gauges().count(), 2);
    }

    #[test]
    fn scrapes_export_deterministically() {
        let build = || {
            let mut r = Registry::new();
            r.inc(Scope::global("recovery"), "detected", 1);
            r.set_gauge(Scope::machine("cluster", 0), "cpu_load", 1.0 / 3.0);
            r.observe(Scope::pe("data_plane", 1, 4), "e2e_delay_ms", 12.5);
            r.scrape(1_000_000);
            r.inc(Scope::global("recovery"), "detected", 1);
            r.scrape(2_000_000);
            r
        };
        let a = build().to_jsonl_string();
        let b = build().to_jsonl_string();
        assert_eq!(a, b, "identical runs export byte-identical dumps");
        assert_eq!(a.lines().count(), 6, "3 metrics x 2 scrapes");
        assert!(a.contains("\"kind\":\"gauge\""));
        assert!(a.contains("\"value\":0.333333"));
        let first = a.lines().next().unwrap();
        assert!(first.starts_with("{\"t\":1000000,"), "{first}");
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let mut r = Registry::new();
        r.inc(Scope::global("recovery"), "detected", 2);
        r.scrape(5);
        let mut out = Vec::new();
        r.export_csv(&mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        let mut lines = s.lines();
        assert!(lines.next().unwrap().starts_with("t_nanos,component"));
        assert_eq!(
            lines.next().unwrap(),
            "5,recovery,,,detected,counter,2,,,,,"
        );
    }
}
