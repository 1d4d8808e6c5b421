//! Offline run analysis over the simulator's JSONL artifacts — the
//! library behind the `sps-inspect` CLI.
//!
//! Input files are the dumps the bench binaries write under
//! `--observe-out DIR`: `trace.jsonl` (flight-recorder records),
//! `metrics.jsonl` (registry scrape series), `health.jsonl` (health
//! report), and lineage exports. Everything here
//! is pure string-in/string-out so the CLI stays a thin shell and the
//! analyses are unit-testable.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use sps_sim::SimTime;
use sps_trace::{recovery_critical_paths, recovery_spans, PhaseRecord, TraceEvent, TraceRecord};

use crate::jsonl::{get, parse_flat_object, FlatObject, JsonValue};

/// One parsed JSONL artifact.
#[derive(Debug, Clone)]
pub struct Dump {
    /// Source path (for messages).
    pub path: String,
    /// Raw lines, in file order.
    pub raw: Vec<String>,
    /// Parsed lines, in file order.
    pub lines: Vec<FlatObject>,
}

impl Dump {
    /// Loads and parses a JSONL file. Empty lines are rejected (our
    /// exporters never write them); parse errors carry the 1-based line
    /// number.
    pub fn load(path: &Path) -> Result<Dump, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_str(&path.display().to_string(), &text)
    }

    /// Parses JSONL text (the file-free path for tests).
    pub fn from_str(name: &str, text: &str) -> Result<Dump, String> {
        let mut raw = Vec::new();
        let mut lines = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let obj = parse_flat_object(line).map_err(|e| format!("{name}:{}: {e}", i + 1))?;
            raw.push(line.to_string());
            lines.push(obj);
        }
        Ok(Dump {
            path: name.to_string(),
            raw,
            lines,
        })
    }

    /// Line `i` (0-based) of a trace dump as the typed record it encodes.
    /// A line the schema cannot read is an error naming file, line and
    /// key, not a record quietly missing from the analysis.
    fn record(&self, i: usize) -> Result<TraceRecord, String> {
        TraceRecord::from_json(&self.lines[i]).map_err(|e| format!("{}:{}: {e}", self.path, i + 1))
    }

    /// The typed records of the lines of one `kind`, in file order.
    fn records<'a>(
        &'a self,
        kind: &'a str,
    ) -> impl Iterator<Item = Result<TraceRecord, String>> + 'a {
        (0..self.lines.len())
            .filter(move |&i| kind_of(&self.lines[i]) == Some(kind))
            .map(|i| self.record(i))
    }

    /// Reconstructs the control-plane phase log from a trace dump.
    pub fn phases(&self) -> Result<Vec<PhaseRecord>, String> {
        let mut out = Vec::new();
        for record in self.records("recovery") {
            let TraceRecord { at, event } = record?;
            if let TraceEvent::Recovery { subjob, phase } = event {
                out.push(PhaseRecord { at, subjob, phase });
            }
        }
        Ok(out)
    }

    /// Failure-injection instants from a trace dump, ascending.
    pub fn injects(&self) -> Result<Vec<SimTime>, String> {
        let mut out = self
            .records("failure_inject")
            .map(|record| Ok(record?.at))
            .collect::<Result<Vec<SimTime>, String>>()?;
        out.sort();
        Ok(out)
    }
}

fn kind_of(obj: &FlatObject) -> Option<&str> {
    get(obj, "kind")?.as_str()
}

fn fmt_t(ns: u64) -> String {
    format!("{:.3}s", ns as f64 / 1e9)
}

/// Summarizes one artifact: per-kind counts, the covered sim-time range,
/// recovery-cycle decomposition (trace dumps), and SLO/anomaly totals
/// (health reports).
pub fn summary(dump: &Dump) -> Result<String, String> {
    let mut s = String::new();
    let _ = writeln!(s, "# {} — {} lines", dump.path, dump.lines.len());
    let mut kinds: BTreeMap<&str, usize> = BTreeMap::new();
    let mut t_min = u64::MAX;
    let mut t_max = 0u64;
    for l in &dump.lines {
        *kinds.entry(kind_of(l).unwrap_or("?")).or_insert(0) += 1;
        if let Some(t) = get(l, "t")
            .or_else(|| get(l, "start_ns"))
            .and_then(JsonValue::as_u64)
        {
            t_min = t_min.min(t);
            t_max = t_max.max(t);
        }
        if let Some(t) = get(l, "end_ns").and_then(JsonValue::as_u64) {
            t_max = t_max.max(t);
        }
    }
    if t_min != u64::MAX {
        let _ = writeln!(s, "time range: {} .. {}", fmt_t(t_min), fmt_t(t_max));
    }
    for (k, n) in &kinds {
        let _ = writeln!(s, "  {k:<22} {n}");
    }
    // Trace dumps: recovery decomposition.
    let phases = dump.phases()?;
    if !phases.is_empty() {
        let injects = dump.injects()?;
        let origin = injects.first().copied().unwrap_or(phases[0].at);
        let _ = writeln!(s, "recovery cycles:");
        for p in recovery_critical_paths(&phases, &injects) {
            let _ = writeln!(
                s,
                "  subjob {} cycle {}: {:.1}ms ({} .. {})",
                p.subjob,
                p.cycle,
                p.duration_ms(),
                fmt_t(p.start.as_nanos()),
                fmt_t(p.end.as_nanos()),
            );
            for e in &p.edges {
                let _ = writeln!(
                    s,
                    "    {:<16} {:.1}ms",
                    e.label,
                    e.to.saturating_since(e.from).as_millis_f64()
                );
            }
        }
        let total: f64 = recovery_spans(&phases, origin)
            .iter()
            .map(|sp| sp.millis())
            .sum();
        let _ = writeln!(s, "  total recovery span time: {total:.1}ms");
    }
    // Trace dumps: audit-violation roll-up (present when the run was
    // recorded with the protocol auditor installed).
    let violations: Vec<&FlatObject> = dump
        .lines
        .iter()
        .filter(|l| kind_of(l) == Some("audit_violation"))
        .collect();
    if !violations.is_empty() {
        let _ = writeln!(s, "audit violations: {}", violations.len());
        let mut by_invariant: BTreeMap<&str, usize> = BTreeMap::new();
        for v in &violations {
            let inv = get(v, "invariant")
                .and_then(JsonValue::as_str)
                .unwrap_or("?");
            *by_invariant.entry(inv).or_insert(0) += 1;
        }
        for (inv, n) in &by_invariant {
            let _ = writeln!(s, "  {inv:<22} {n}");
        }
        for v in violations.iter().take(8) {
            let _ = writeln!(
                s,
                "  {} {} subjob={} entity={} seq={} detail={}",
                fmt_t(get(v, "t").and_then(JsonValue::as_u64).unwrap_or(0)),
                get(v, "invariant")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?"),
                get(v, "subjob").map(fmt_opt).unwrap_or_else(|| "-".into()),
                get(v, "entity").map(fmt_opt).unwrap_or_else(|| "-".into()),
                get(v, "seq").map(fmt_opt).unwrap_or_else(|| "-".into()),
                get(v, "detail").map(fmt_opt).unwrap_or_else(|| "-".into()),
            );
        }
    }
    // Health reports: breach/anomaly roll-up.
    for l in &dump.lines {
        match kind_of(l) {
            Some("slo") => {
                let breaches = get(l, "breaches").and_then(JsonValue::as_u64).unwrap_or(0);
                if breaches > 0 {
                    let _ = writeln!(
                        s,
                        "SLO breach: {} x{breaches}, {} breached, worst {}",
                        get(l, "name").and_then(JsonValue::as_str).unwrap_or("?"),
                        fmt_t(get(l, "breach_ns").and_then(JsonValue::as_u64).unwrap_or(0)),
                        get(l, "worst").and_then(JsonValue::as_f64).unwrap_or(0.0),
                    );
                }
            }
            Some("anomaly_span") => {
                let _ = writeln!(
                    s,
                    "anomaly: {} machine={} pe={} {} .. {} peak {}",
                    get(l, "detector")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("?"),
                    get(l, "machine").map(fmt_opt).unwrap_or_else(|| "-".into()),
                    get(l, "pe").map(fmt_opt).unwrap_or_else(|| "-".into()),
                    fmt_t(get(l, "start_ns").and_then(JsonValue::as_u64).unwrap_or(0)),
                    get(l, "end_ns")
                        .and_then(JsonValue::as_u64)
                        .map(fmt_t)
                        .unwrap_or_else(|| "open".into()),
                    get(l, "peak").and_then(JsonValue::as_f64).unwrap_or(0.0),
                );
            }
            _ => {}
        }
    }
    Ok(s)
}

fn fmt_opt(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "-".into(),
        JsonValue::Int(n) => n.to_string(),
        JsonValue::Num(n) => n.to_string(),
        JsonValue::Str(s) => s.clone(),
        JsonValue::Bool(b) => b.to_string(),
    }
}

/// Reconstructs a per-machine / per-PE control-plane timeline from a
/// trace dump: one sim-time-ordered line per event, grouped under the
/// entity it is about. Data-plane kinds are skipped (too high-rate to read).
pub fn timeline(dump: &Dump) -> String {
    // Entity key: machine-scoped events and PE-scoped events each group
    // under their own heading; global events under "cluster".
    let mut groups: BTreeMap<String, Vec<(u64, String)>> = BTreeMap::new();
    for l in &dump.lines {
        let Some(kind) = kind_of(l) else { continue };
        if TraceEvent::KINDS.contains(&(kind, true)) {
            continue;
        }
        let Some(t) = get(l, "t").and_then(JsonValue::as_u64) else {
            continue;
        };
        let entity = if let Some(pe) = get(l, "pe").and_then(JsonValue::as_u64) {
            format!("pe {pe}")
        } else if let Some(m) = get(l, "machine").and_then(JsonValue::as_u64) {
            if m == u32::MAX as u64 {
                "cluster".to_string()
            } else {
                format!("machine {m}")
            }
        } else if let Some(sj) = get(l, "subjob").and_then(JsonValue::as_u64) {
            format!("subjob {sj}")
        } else {
            "cluster".to_string()
        };
        let detail: Vec<String> = l
            .iter()
            .filter(|(k, _)| !matches!(k.as_str(), "t" | "kind" | "pe" | "machine" | "subjob"))
            .map(|(k, v)| format!("{k}={}", fmt_opt(v)))
            .collect();
        groups
            .entry(entity)
            .or_default()
            .push((t, format!("{kind} {}", detail.join(" "))));
    }
    let mut s = String::new();
    for (entity, mut events) in groups {
        events.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        let _ = writeln!(s, "== {entity} ==");
        for (t, line) in events {
            let _ = writeln!(s, "  {:>10} {line}", fmt_t(t));
        }
    }
    s
}

/// Compares two artifacts line-by-line and reports the first divergent
/// signal. Returns `(report, identical)`.
pub fn diff(a: &Dump, b: &Dump) -> (String, bool) {
    diff_with_context(a, b, 0)
}

/// [`diff`] with `context` lines of surrounding agreement shown around the
/// first divergence (the `--context N` CLI flag), so the divergent record
/// can be read against the events leading into and out of it.
pub fn diff_with_context(a: &Dump, b: &Dump, context: usize) -> (String, bool) {
    let mut s = String::new();
    let n = a.raw.len().min(b.raw.len());
    for i in 0..n {
        if a.raw[i] != b.raw[i] {
            let _ = writeln!(s, "first divergence at line {}:", i + 1);
            for j in i.saturating_sub(context)..i {
                let _ = writeln!(s, "    [{}] {}", j + 1, a.raw[j]);
            }
            let _ = writeln!(s, "  - [{}] {}", a.path, a.raw[i]);
            let _ = writeln!(s, "  + [{}] {}", b.path, b.raw[i]);
            for j in (i + 1)..n.min(i + 1 + context) {
                if a.raw[j] == b.raw[j] {
                    let _ = writeln!(s, "    [{}] {}", j + 1, a.raw[j]);
                } else {
                    let _ = writeln!(s, "    [{}] (also diverges)", j + 1);
                }
            }
            // Name the first differing field for signal-level diagnosis.
            for (k, va) in &a.lines[i] {
                match get(&b.lines[i], k) {
                    Some(vb) if vb == va => {}
                    Some(vb) => {
                        let _ = writeln!(s, "  field `{k}`: {} vs {}", fmt_opt(va), fmt_opt(vb));
                        break;
                    }
                    None => {
                        let _ = writeln!(s, "  field `{k}` missing on the right");
                        break;
                    }
                }
            }
            return (s, false);
        }
    }
    if a.raw.len() != b.raw.len() {
        let _ = writeln!(
            s,
            "files agree for {n} lines, then lengths diverge: {} vs {} lines",
            a.raw.len(),
            b.raw.len()
        );
        return (s, false);
    }
    let _ = writeln!(s, "identical: {} lines", a.raw.len());
    (s, true)
}

/// Exports the recovery critical paths of a trace dump as folded-stack
/// flamegraph lines (`stack;frames count`), one per edge, weighted in
/// microseconds — feed to any flamegraph renderer.
pub fn flame(dump: &Dump) -> Result<String, String> {
    let phases = dump.phases()?;
    let injects = dump.injects()?;
    let mut s = String::new();
    for p in recovery_critical_paths(&phases, &injects) {
        for e in &p.edges {
            let micros = e.to.saturating_since(e.from).as_nanos() / 1_000;
            let _ = writeln!(
                s,
                "recovery;subjob{};cycle{};{} {micros}",
                p.subjob, p.cycle, e.label
            );
        }
    }
    Ok(s)
}

/// Parses every file and reports per-file line counts; the first parse
/// error aborts with the offending file/line. A trace dump (it opens with
/// `audit_meta`) must also read back as typed records line by line, so an
/// unknown kind, a misspelt enum name or a missing field is format drift
/// caught here, with the key named. This is the CI self-check.
pub fn check(paths: &[&Path]) -> Result<String, String> {
    let mut s = String::new();
    for p in paths {
        let dump = Dump::load(p)?;
        if dump.lines.first().and_then(kind_of) == Some("audit_meta") {
            (0..dump.lines.len()).try_for_each(|i| dump.record(i).map(drop))?;
        }
        let mut kinds: BTreeMap<&str, usize> = BTreeMap::new();
        for l in &dump.lines {
            *kinds.entry(kind_of(l).unwrap_or("?")).or_insert(0) += 1;
        }
        let _ = writeln!(
            s,
            "ok: {} ({} lines, {} kinds)",
            dump.path,
            dump.lines.len(),
            kinds.len()
        );
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = "\
{\"t\":3000000000,\"kind\":\"failure_inject\",\"machine\":1,\"fail_stop\":false}\n\
{\"t\":3100000000,\"kind\":\"failure_detect\",\"machine\":1,\"subjob\":1,\"miss_streak\":1}\n\
{\"t\":3100000000,\"kind\":\"recovery\",\"subjob\":1,\"phase\":\"detected\"}\n\
{\"t\":3150000000,\"kind\":\"recovery\",\"subjob\":1,\"phase\":\"switchover_complete\"}\n\
{\"t\":4200000000,\"kind\":\"recovery\",\"subjob\":1,\"phase\":\"rollback_started\"}\n\
{\"t\":4400000000,\"kind\":\"recovery\",\"subjob\":1,\"phase\":\"rollback_complete\"}\n";

    #[test]
    fn phases_and_injects_reconstruct() {
        let d = Dump::from_str("t.jsonl", TRACE).unwrap();
        assert_eq!(d.phases().unwrap().len(), 4);
        assert_eq!(d.injects().unwrap(), vec![SimTime::from_millis(3_000)]);
    }

    #[test]
    fn an_unreadable_recovery_line_is_an_error_not_a_shorter_phase_log() {
        let text = TRACE.replace(
            "\"phase\":\"rollback_started\"",
            "\"phase\":\"rolback_started\"",
        );
        let d = Dump::from_str("t.jsonl", &text).unwrap();
        for err in [
            d.phases().unwrap_err(),
            summary(&d).unwrap_err(),
            flame(&d).unwrap_err(),
        ] {
            assert!(
                err.contains("t.jsonl:5") && err.contains("\"phase\""),
                "{err}"
            );
        }
    }

    #[test]
    fn check_reads_a_trace_dump_as_typed_records() {
        let dir = std::env::temp_dir().join(format!("sps-inspect-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let meta = "{\"t\":0,\"kind\":\"audit_meta\",\"subjobs\":2,\"flat\":true,\"lossless\":true,\"quiescent\":true}\n";
        let check_text = |text: &str| {
            let path = dir.join("trace.jsonl");
            std::fs::write(&path, text).unwrap();
            check(&[&path])
        };
        let good = format!("{meta}{TRACE}");
        assert!(check_text(&good).unwrap().contains("(7 lines, 4 kinds)"));
        for (drift, key) in [
            (
                good.replace("\"phase\":\"detected\"", "\"phase\":\"detcted\""),
                "\"phase\"",
            ),
            (
                good.replace("\"kind\":\"recovery\"", "\"kind\":\"recovry\""),
                "\"kind\"",
            ),
            (good.replace(",\"miss_streak\":1", ""), "\"miss_streak\""),
        ] {
            let err = check_text(&drift).unwrap_err();
            assert!(err.contains("trace.jsonl:") && err.contains(key), "{err}");
        }
        // Anything else (health, metrics, a headless trace) keeps the
        // flat-object check only.
        let headless = TRACE.replace("\"kind\":\"recovery\"", "\"kind\":\"recovry\"");
        assert!(check_text(&headless).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn summary_decomposes_recovery() {
        let d = Dump::from_str("t.jsonl", TRACE).unwrap();
        let s = summary(&d).unwrap();
        assert!(s.contains("recovery cycles:"), "{s}");
        assert!(s.contains("subjob 1 cycle 0: 1400.0ms"), "{s}");
        assert!(s.contains("detection"), "{s}");
        assert!(s.contains("state_read"), "{s}");
        assert!(s.contains("total recovery span time: 1400.0ms"), "{s}");
    }

    #[test]
    fn flame_exports_folded_stacks() {
        let d = Dump::from_str("t.jsonl", TRACE).unwrap();
        let f = flame(&d).unwrap();
        // The detection edge: inject 3.0s -> detected 3.1s = 100000us.
        assert!(
            f.contains("recovery;subjob1;cycle0;detection 100000"),
            "{f}"
        );
        assert!(
            f.contains("recovery;subjob1;cycle0;switch_over 50000"),
            "{f}"
        );
        assert!(
            f.contains("recovery;subjob1;cycle0;state_read 200000"),
            "{f}"
        );
        for line in f.lines() {
            let (stack, weight) = line.rsplit_once(' ').unwrap();
            assert!(stack.starts_with("recovery;"));
            let _: u64 = weight.parse().expect("integer weight");
        }
    }

    #[test]
    fn timeline_groups_by_entity() {
        let d = Dump::from_str("t.jsonl", TRACE).unwrap();
        let t = timeline(&d);
        assert!(t.contains("== machine 1 =="), "{t}");
        assert!(t.contains("== subjob 1 =="), "{t}");
        assert!(t.contains("phase=detected"), "{t}");
    }

    #[test]
    fn diff_finds_first_divergent_signal() {
        let a = Dump::from_str("a", TRACE).unwrap();
        let b_text = TRACE.replace("\"miss_streak\":1", "\"miss_streak\":3");
        let b = Dump::from_str("b", &b_text).unwrap();
        let (report, same) = diff(&a, &b);
        assert!(!same);
        assert!(report.contains("first divergence at line 2"), "{report}");
        assert!(report.contains("field `miss_streak`: 1 vs 3"), "{report}");
        let (report, same) = diff(&a, &a);
        assert!(same, "{report}");
        // Length divergence after a common prefix.
        let c = Dump::from_str("c", &format!("{TRACE}{}", a.raw[0].clone() + "\n")).unwrap();
        let (report, same) = diff(&a, &c);
        assert!(!same);
        assert!(report.contains("lengths diverge"), "{report}");
    }

    #[test]
    fn diff_context_shows_surrounding_agreement() {
        let a = Dump::from_str("a", TRACE).unwrap();
        let b_text = TRACE.replace("\"miss_streak\":1", "\"miss_streak\":3");
        let b = Dump::from_str("b", &b_text).unwrap();
        let (report, same) = diff_with_context(&a, &b, 1);
        assert!(!same);
        assert!(report.contains("first divergence at line 2"), "{report}");
        assert!(report.contains("[1] {"), "{report}");
        assert!(report.contains("[3] {"), "{report}");
        // Zero context matches the plain diff exactly.
        assert_eq!(diff_with_context(&a, &b, 0), diff(&a, &b));
    }

    #[test]
    fn summary_rolls_up_audit_violations() {
        let text = format!(
            "{TRACE}{}\n{}\n",
            "{\"t\":4500000000,\"kind\":\"audit_violation\",\"invariant\":\"sink_exactly_once\",\"subjob\":4294967295,\"entity\":0,\"seq\":9,\"detail\":9}",
            "{\"t\":4600000000,\"kind\":\"audit_violation\",\"invariant\":\"split_brain\",\"subjob\":1,\"entity\":6,\"seq\":2,\"detail\":2}"
        );
        let d = Dump::from_str("t.jsonl", &text).unwrap();
        let s = summary(&d).unwrap();
        assert!(s.contains("audit violations: 2"), "{s}");
        assert!(s.contains("sink_exactly_once"), "{s}");
        assert!(s.contains("split_brain"), "{s}");
        assert!(s.contains("4.600s split_brain subjob=1 entity=6"), "{s}");
        // Clean dumps have no audit section at all.
        let clean = Dump::from_str("t.jsonl", TRACE).unwrap();
        assert!(!summary(&clean).unwrap().contains("audit violations"));
    }

    #[test]
    fn malformed_dump_is_an_error_with_line_number() {
        let err = Dump::from_str("bad.jsonl", "{\"ok\":1}\nnot json\n").unwrap_err();
        assert!(err.contains("bad.jsonl:2"), "{err}");
    }
}
