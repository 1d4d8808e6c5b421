//! The end-of-run health report: a deterministic JSONL document
//! summarizing monitors, breach spans, anomaly spans, and rate series.
//!
//! Encoding rules match the trace and metrics layers: fixed key order,
//! fixed six-decimal float formatting, `null` for absent scopes — so two
//! identical runs (any `--jobs` value) export byte-identical reports.

use std::fmt::Write as _;

use crate::anomaly::AnomalySpan;
use crate::engine::HealthEngine;
use crate::slo::BreachSpan;

/// One monitor's summary row.
#[derive(Debug, Clone)]
pub struct MonitorSummary {
    /// Monitor index (matches `TraceEvent::SloBreach::monitor`).
    pub monitor: u32,
    /// Monitor name.
    pub name: &'static str,
    /// The spec as [`SloSpec::display`](crate::SloSpec::display) renders it.
    pub spec: String,
    /// Recorded breach spans.
    pub spans: Vec<BreachSpan>,
}

/// The assembled report (see module docs for the line vocabulary).
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Sim-time of the last scrape (nanoseconds).
    pub end_ns: u64,
    /// Scrapes consumed.
    pub scrapes: u64,
    /// Per-monitor summaries, in monitor-index order.
    pub monitors: Vec<MonitorSummary>,
    /// Anomaly spans in onset order.
    pub anomalies: Vec<AnomalySpan>,
    /// Per-scope series rows `(component, machine, pe, name, windows,
    /// mean_rate, max_rate)`, in deterministic key order.
    pub series: Vec<SeriesRow>,
}

/// One per-scope series row: `(component, machine, pe, name, windows,
/// mean_rate, max_rate)`.
pub type SeriesRow = (String, Option<u32>, Option<u32>, String, usize, f64, f64);

impl HealthReport {
    /// Snapshots an engine into a report.
    pub(crate) fn from_engine(engine: &HealthEngine, end_ns: u64) -> HealthReport {
        let monitors = engine
            .monitors()
            .iter()
            .enumerate()
            .map(|(i, m)| MonitorSummary {
                monitor: i as u32,
                name: m.spec.name,
                spec: m.spec.display(),
                spans: m.spans().to_vec(),
            })
            .collect();
        let series = engine
            .series()
            .map(|((component, machine, pe, name), tc)| {
                (
                    component.clone(),
                    *machine,
                    *pe,
                    name.to_string(),
                    tc.window_count(),
                    tc.mean_rate(),
                    tc.max_rate(),
                )
            })
            .collect();
        HealthReport {
            end_ns,
            scrapes: engine.scrape_count(),
            monitors,
            anomalies: engine.anomaly_spans().to_vec(),
            series,
        }
    }

    /// Total breach spans across all monitors.
    pub fn breach_count(&self) -> usize {
        self.monitors.iter().map(|m| m.spans.len()).sum()
    }

    /// Encodes the report as JSON Lines.
    pub fn to_jsonl_string(&self) -> String {
        let mut s = String::with_capacity(4096);
        let _ = writeln!(
            s,
            "{{\"kind\":\"meta\",\"end_ns\":{},\"scrapes\":{},\"monitors\":{},\"slo_breaches\":{},\"anomalies\":{}}}",
            self.end_ns,
            self.scrapes,
            self.monitors.len(),
            self.breach_count(),
            self.anomalies.len(),
        );
        for m in &self.monitors {
            let breach_ns: u64 = m.spans.iter().map(|sp| sp.duration_ns(self.end_ns)).sum();
            let worst = m.spans.iter().map(|sp| sp.worst).reduce(f64::max);
            let _ = writeln!(
                s,
                "{{\"kind\":\"slo\",\"monitor\":{},\"name\":\"{}\",\"spec\":\"{}\",\"breaches\":{},\"breach_ns\":{},\"worst\":{}}}",
                m.monitor,
                m.name,
                m.spec,
                m.spans.len(),
                breach_ns,
                worst.map(fmt_f64).unwrap_or_else(|| "null".into()),
            );
        }
        for m in &self.monitors {
            for sp in &m.spans {
                let _ = writeln!(
                    s,
                    "{{\"kind\":\"slo_span\",\"monitor\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"duration_ns\":{},\"worst\":{},\"open\":{}}}",
                    m.monitor,
                    m.name,
                    sp.start_ns,
                    opt_u64(sp.end_ns),
                    sp.duration_ns(self.end_ns),
                    fmt_f64(sp.worst),
                    sp.end_ns.is_none(),
                );
            }
        }
        for a in &self.anomalies {
            let duration = a.end_ns.unwrap_or(self.end_ns).saturating_sub(a.start_ns);
            let _ = writeln!(
                s,
                "{{\"kind\":\"anomaly_span\",\"detector\":\"{}\",\"machine\":{},\"pe\":{},\"start_ns\":{},\"end_ns\":{},\"duration_ns\":{},\"peak\":{},\"open\":{}}}",
                a.detector.as_str(),
                opt_u32(a.machine),
                opt_u32(a.pe),
                a.start_ns,
                opt_u64(a.end_ns),
                duration,
                fmt_f64(a.peak),
                a.end_ns.is_none(),
            );
        }
        for (component, machine, pe, name, windows, mean_rate, max_rate) in &self.series {
            let _ = writeln!(
                s,
                "{{\"kind\":\"series\",\"component\":\"{component}\",\"machine\":{},\"pe\":{},\"name\":\"{name}\",\"windows\":{windows},\"mean_rate\":{},\"max_rate\":{}}}",
                opt_u32(*machine),
                opt_u32(*pe),
                fmt_f64(*mean_rate),
                fmt_f64(*max_rate),
            );
        }
        s
    }
}

fn opt_u32(v: Option<u32>) -> String {
    v.map(|v| v.to_string()).unwrap_or_else(|| "null".into())
}

fn opt_u64(v: Option<u64>) -> String {
    v.map(|v| v.to_string()).unwrap_or_else(|| "null".into())
}

/// Fixed six-decimal float formatting (mirrors the trace layer).
fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        String::from("null")
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::HealthEngine;
    use sps_metrics::{Registry, Scope};
    use sps_sim::{SimDuration, SimTime};
    use sps_trace::{PhaseRecord, RecoveryPhase};

    fn engine_with_breach() -> HealthEngine {
        let mut engine = HealthEngine::new(SimDuration::from_millis(500));
        let mut r = Registry::new();
        r.inc(Scope::global("sink"), "accepted", 10);
        let ms = SimTime::from_millis;
        let phases = vec![
            PhaseRecord {
                at: ms(1_100),
                subjob: 0,
                phase: RecoveryPhase::Detected,
            },
            PhaseRecord {
                at: ms(2_000),
                subjob: 0,
                phase: RecoveryPhase::RollbackComplete,
            },
        ];
        let injects = vec![(0u32, ms(1_000).as_nanos())];
        engine.on_scrape(ms(2_100).as_nanos(), &r, &phases, &injects);
        engine
    }

    #[test]
    fn report_is_deterministic_and_wellformed() {
        let a = engine_with_breach().report().to_jsonl_string();
        let b = engine_with_breach().report().to_jsonl_string();
        assert_eq!(a, b, "identical engines export identical reports");
        let first = a.lines().next().unwrap();
        assert!(first.starts_with("{\"kind\":\"meta\""), "{first}");
        assert!(a.contains("\"kind\":\"slo_span\""), "{a}");
        assert!(a.contains("\"name\":\"recovery_cycle_total\""));
        // 1000ms cycle (inject 1.0s -> rollback complete 2.0s).
        assert!(a.contains("\"duration_ns\":1000000000"), "{a}");
        assert!(a.contains("\"kind\":\"series\""));
        // Every line is a flat JSON object our own parser accepts.
        for line in a.lines() {
            crate::jsonl::parse_flat_object(line).expect("report lines parse");
        }
    }

    #[test]
    fn breach_count_sums_monitors() {
        let r = engine_with_breach().report();
        assert_eq!(r.breach_count(), 1);
        assert_eq!(r.scrapes, 1);
    }
}
