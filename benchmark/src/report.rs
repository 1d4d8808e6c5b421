//! From repetitions to named metrics: the end-to-end set of a timed run, the
//! per-layer ledger of a traced run, and the checks both must pass.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use sps_ha::HaEventKind;
use sps_metrics::MsgClass;

use crate::json::Json;
use crate::layers;
use crate::ledger::Metrics;
use crate::measure::{
    digest, kind_layer, median, ms_from_failure, quantile, run_rep, sigma_min, Bin, Rep, Spec,
    Trace, UnitStats, KINDS, PHASES,
};

/// Fewest repetitions a timed run makes whatever its time budget: the digest
/// check needs two to compare.
const MIN_REPS: usize = 2;

/// What the checks of a run found.
#[derive(Debug, Default, Clone)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Verdict {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Folds another pass's findings into this one.
    pub fn merge(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }

    /// Counts one repetition's operations and checks its units.
    pub fn count(&mut self, rep: &Rep) {
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        if rep.panicked_units > 0 {
            self.problems
                .push(format!("{} unit(s) panicked", rep.panicked_units));
        }
        for (i, u) in rep.units.iter().enumerate() {
            if !u.all_normal {
                self.problems.push(format!(
                    "unit {i} ended with a subjob outside SjState::Normal"
                ));
            }
            // p99 is reported only with at least ten samples beyond it.
            if u.latency_samples < 1_000 {
                self.problems.push(format!(
                    "unit {i} has {} latency samples; p99 needs 1000",
                    u.latency_samples
                ));
            }
            if let Some(v) = u.audit_violations.filter(|&v| v > 0) {
                self.problems
                    .push(format!("unit {i}: auditor reported {v} violation(s)"));
            }
        }
    }

    /// The simulated statistics of `rep` must equal `reference`'s: the run is
    /// deterministic, and neither profiling nor auditing may perturb it. An
    /// attached observer schedules its own sampler events, so with
    /// `observed` the event counts and queue depth are left out and every
    /// simulated outcome is still compared.
    fn same_digest(&mut self, what: &str, reference: &Rep, rep: &Rep, observed: bool) {
        let strip = |units: &[UnitStats]| -> Vec<UnitStats> {
            units
                .iter()
                .cloned()
                .map(|mut u| {
                    u.audit_violations = None;
                    if observed {
                        (u.events, u.span_events, u.peak_queue_weight) = (0, 0, 0);
                    }
                    u
                })
                .collect()
        };
        if strip(&reference.units) != strip(&rep.units) {
            self.problems.push(format!(
                "{what}: simulated statistics differ from the first repetition \
                 (digest {} vs {})",
                digest(&rep.units),
                digest(&reference.units)
            ));
        }
    }
}

/// The timed repetitions of one workload.
#[derive(Debug)]
pub struct Measured {
    pub spec: Spec,
    pub reps: Vec<Rep>,
    pub spent_s: f64,
}

/// Repeats every spec until its own `seconds` are spent, one repetition of
/// each in turn, so a slow minute on the host hits all of them alike.
pub fn measure(specs: &[Spec], seconds: f64) -> Vec<Measured> {
    let mut out: Vec<Measured> = specs
        .iter()
        .map(|&spec| Measured {
            spec,
            reps: Vec::new(),
            spent_s: 0.0,
        })
        .collect();
    loop {
        let mut ran = false;
        for m in &mut out {
            let mean = m.spent_s / m.reps.len().max(1) as f64;
            if m.reps.len() < MIN_REPS || m.spent_s + mean <= seconds {
                let t0 = Instant::now();
                m.reps.push(run_rep(m.spec, None));
                m.spent_s += t0.elapsed().as_secs_f64();
                ran = true;
            }
        }
        if !ran {
            return out;
        }
    }
}

/// End-to-end metrics of a timed run, with the per-repetition readings of
/// the host-time ones (their count is the sample count, their spread the
/// run's own noise).
#[derive(Debug)]
pub struct EndToEnd {
    pub metrics: Metrics,
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub verdict: Verdict,
    pub digest: String,
}

pub fn end_to_end(m: &Measured) -> EndToEnd {
    let first = &m.reps[0];
    let mut verdict = Verdict::default();
    for (r, rep) in m.reps.iter().enumerate() {
        verdict.count(rep);
        verdict.same_digest(&format!("repetition {r}"), first, rep, false);
        if rep.peak_live_bytes() != first.peak_live_bytes() {
            verdict.problems.push(format!(
                "repetition {r}: peak live bytes {} differ from the first repetition's {}",
                rep.peak_live_bytes(),
                first.peak_live_bytes()
            ));
        }
    }

    let span_sim_s = m.spec.wl.span(m.spec.scale).as_secs_f64() * first.units.len() as f64;
    let elements: u64 = first.units.iter().map(|u| u.span_elements).sum();
    let slices: Vec<&[f64]> = m.reps.iter().map(|r| r.timing.slice_s.as_slice()).collect();
    let host_s = sigma_min(&slices);
    let setups: Vec<f64> = m
        .reps
        .iter()
        .flat_map(|r| r.timing.setup_s.iter().copied())
        .collect();
    let p50s: Vec<f64> = first.units.iter().map(|u| u.latency_p50_ms).collect();
    let p99s: Vec<f64> = first.units.iter().map(|u| u.latency_p99_ms).collect();

    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(&setups));
    metrics.put("sim_s_per_wall_s", span_sim_s / host_s);
    metrics.put("elements_per_s", elements as f64 / host_s);
    metrics.put("peak_live_bytes", first.peak_live_bytes() as f64);
    // Over cells, the median of each cell's quantile.
    metrics.put("sim_latency_p50_ms", median(&p50s));
    metrics.put("sim_latency_p99_ms", median(&p99s));

    let totals: Vec<f64> = slices.iter().map(|s| s.iter().sum()).collect();
    let mut samples = BTreeMap::new();
    samples.insert("setup_s", setups);
    samples.insert(
        "sim_s_per_wall_s",
        totals.iter().map(|t| span_sim_s / t).collect(),
    );
    samples.insert(
        "elements_per_s",
        totals.iter().map(|t| elements as f64 / t).collect(),
    );
    EndToEnd {
        metrics,
        samples,
        verdict,
        digest: digest(&first.units),
    }
}

fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Metrics read off the traced repetition's spans.
fn trace_metrics(trace: &Trace, untraced_host_s: f64, probe_ns: f64, m: &mut Metrics) -> Bin {
    let mut kinds = [Bin::default(); KINDS.len()];
    let (mut wall_ns, mut other_children_ns) = (0u64, 0u64);
    for s in &trace.slices {
        wall_ns += s.wall_ns;
        // Both are children of the slice that are not event handlers.
        other_children_ns += s.build_ns + s.classify_ns;
        for (total, bin) in kinds.iter_mut().zip(&s.kinds) {
            total.merge(bin);
        }
    }
    let mut total = Bin::default();
    for k in &kinds {
        total.merge(k);
    }
    m.put("sim.events", total.events as f64);
    m.put(
        "sim.events_per_element",
        per(total.events as f64, trace.elements),
    );
    // A slice's self time is its wall minus its children: queue pop and the
    // stepping loop, once the profiler's own cost is taken off.
    m.put(
        "sim.pop_ns_per_event",
        per(
            wall_ns.saturating_sub(other_children_ns + total.wall_ns) as f64,
            total.events,
        ) - probe_ns,
    );
    m.put(
        "sim.allocs_per_event",
        per(total.allocs as f64, total.events),
    );
    m.put(
        "sim.alloc_bytes_per_event",
        per(total.alloc_bytes as f64, total.events),
    );
    m.put("sim.probe_ns", probe_ns);
    m.put(
        "sim.trace_overhead_ratio",
        wall_ns as f64 / 1e9 / untraced_host_s,
    );
    for (name, bin) in KINDS.iter().zip(&kinds) {
        let prefix = format!("{}.{name}", kind_layer(name));
        m.put(format!("{prefix}.events"), bin.events as f64);
        m.put(
            format!("{prefix}.ns_per_event"),
            per(bin.wall_ns as f64, bin.events),
        );
        m.put(
            format!("{prefix}.wall_share"),
            bin.wall_ns as f64 / total.wall_ns.max(1) as f64,
        );
    }
    m.put("cluster.machine_tick.allocs", kinds[0].allocs as f64);
    m.put("core.deliver.allocs", kinds[1].allocs as f64);
    for (name, bin) in PHASES.iter().zip(&trace.phases) {
        m.put(format!("core.phase.{name}.events"), bin.events as f64);
        m.put(
            format!("core.phase.{name}.ns_per_event"),
            per(bin.wall_ns as f64, bin.events),
        );
    }
    total
}

/// Exact counters read from the public accessors after the run.
fn counter_metrics(units: &[UnitStats], m: &mut Metrics) {
    use HaEventKind::*;
    let recoveries: Vec<f64> = units
        .iter()
        .flat_map(|u| ms_from_failure(u, &[Detected], &[SwitchoverComplete, PsConnected, Promoted]))
        .collect();
    let detections: Vec<f64> = units
        .iter()
        .flat_map(|u| ms_from_failure(u, &[Detected], &[Detected]))
        .collect();
    let max = |f: fn(&UnitStats) -> u64| units.iter().map(f).max().unwrap_or(0) as f64;
    let sum = |f: &dyn Fn(&UnitStats) -> u64| units.iter().map(f).sum::<u64>() as f64;
    let events =
        |kind: HaEventKind| sum(&|u| u.ha_events.iter().filter(|e| e.kind == kind).count() as u64);
    m.put(
        "core.msg.data_elements",
        sum(&|u| u.counters.elements(MsgClass::Data)),
    );
    // The paper's overhead unit: element units on the wire, all classes.
    m.put(
        "core.msg.overhead_elements",
        sum(&|u| u.counters.total_elements()),
    );
    m.put(
        "core.msg.checkpoint_elements",
        sum(&|u| u.counters.elements(MsgClass::Checkpoint)),
    );
    m.put(
        "core.msg.heartbeat_msgs",
        sum(&|u| u.counters.messages(MsgClass::Heartbeat)),
    );
    m.put("core.detections", events(Detected));
    m.put("core.switchovers", events(SwitchoverComplete));
    m.put("core.rollbacks", events(RollbackComplete));
    m.put("core.promotions", events(Promoted));
    m.put("core.recovery_p50_ms", quantile(&recoveries, 0.5));
    m.put("core.recovery_p90_ms", quantile(&recoveries, 0.9));
    m.put("core.detect_p50_ms", quantile(&detections, 0.5));
    m.put(
        "core.sink_duplicates_dropped",
        sum(&|u| u.duplicates_dropped),
    );
    m.put("cluster.net.msgs_sent", sum(&|u| u.net_msgs_sent));
    m.put("cluster.net.chaos_dropped", sum(&|u| u.net_chaos_dropped));
    m.put("cluster.net.active_links", max(|u| u.net_active_links));
    m.put("cluster.net.sparse_bytes", max(|u| u.net_sparse_bytes));
    m.put("sim.peak_queue_weight", max(|u| u.peak_queue_weight));
}

/// The trace file: a run span, one child span per slice, and under each
/// slice one aggregated child per event kind. Host times are ns since the
/// traced repetition began; aggregated children have a duration only.
fn trace_json(spec: Spec, trace: &Trace, total: &Bin) -> String {
    let mut lines = Vec::new();
    let end_ns = trace
        .slices
        .last()
        .map_or(0, |s| s.host_start_ns + s.wall_ns);
    lines.push(
        Json::obj(vec![
            ("id", Json::Num(0.0)),
            ("parent", Json::Null),
            ("name", Json::str("run")),
            ("workload", Json::str(spec.wl.name)),
            ("seed", Json::Num(spec.seed as f64)),
            ("start_ns", Json::Num(0.0)),
            ("end_ns", Json::Num(end_ns as f64)),
            ("events", Json::Num(total.events as f64)),
        ])
        .to_string(),
    );
    let mut id = 0u64;
    for s in &trace.slices {
        id += 1;
        let slice_id = id;
        let children: u64 =
            s.kinds.iter().map(|b| b.wall_ns).sum::<u64>() + s.build_ns + s.classify_ns;
        lines.push(
            Json::obj(vec![
                ("id", Json::Num(slice_id as f64)),
                ("parent", Json::Num(0.0)),
                ("name", Json::str("slice")),
                ("unit", Json::Num(s.unit as f64)),
                ("sim_start_ms", Json::Num(s.sim_start.as_millis_f64())),
                ("sim_end_ms", Json::Num(s.sim_end.as_millis_f64())),
                ("start_ns", Json::Num(s.host_start_ns as f64)),
                ("end_ns", Json::Num((s.host_start_ns + s.wall_ns) as f64)),
                (
                    "self_ns",
                    Json::Num(s.wall_ns.saturating_sub(children) as f64),
                ),
            ])
            .to_string(),
        );
        if s.build_ns > 0 {
            id += 1;
            lines.push(
                Json::obj(vec![
                    ("id", Json::Num(id as f64)),
                    ("parent", Json::Num(slice_id as f64)),
                    ("name", Json::str("build")),
                    ("layer", Json::str("workloads")),
                    ("wall_ns", Json::Num(s.build_ns as f64)),
                ])
                .to_string(),
            );
        }
        id += 1;
        lines.push(
            Json::obj(vec![
                ("id", Json::Num(id as f64)),
                ("parent", Json::Num(slice_id as f64)),
                ("name", Json::str("classify")),
                ("layer", Json::str("benchmark")),
                ("wall_ns", Json::Num(s.classify_ns as f64)),
            ])
            .to_string(),
        );
        for (name, bin) in KINDS.iter().zip(&s.kinds).filter(|(_, b)| b.events > 0) {
            id += 1;
            lines.push(
                Json::obj(vec![
                    ("id", Json::Num(id as f64)),
                    ("parent", Json::Num(slice_id as f64)),
                    ("name", Json::str(name)),
                    ("layer", Json::str(kind_layer(name))),
                    ("events", Json::Num(bin.events as f64)),
                    ("wall_ns", Json::Num(bin.wall_ns as f64)),
                    ("allocs", Json::Num(bin.allocs as f64)),
                    ("alloc_bytes", Json::Num(bin.alloc_bytes as f64)),
                ])
                .to_string(),
            );
        }
    }
    format!("{{\"spans\": [\n{}\n]}}\n", lines.join(",\n"))
}

/// The per-layer ledger of one workload: two timed repetitions as the base,
/// one repetition stepped through the profiler, one audited repetition, the
/// standalone layer calls and the differential observer runs. Writes the
/// spans to `<out_dir>/<workload>.trace.json`.
pub fn per_layer(spec: Spec, out_dir: &Path) -> Result<(Metrics, Verdict), String> {
    let mut verdict = Verdict::default();
    let base = [run_rep(spec, None), run_rep(spec, None)];
    for rep in &base {
        verdict.count(rep);
    }
    verdict.same_digest("second base repetition", &base[0], &base[1], false);

    let mut trace = Trace::new();
    let traced = run_rep(spec, Some(&mut trace));
    verdict.count(&traced);
    verdict.same_digest("traced repetition", &base[0], &traced, false);

    let audited = run_rep(
        Spec {
            obs: spec.obs.with_auditor(),
            ..spec
        },
        None,
    );
    verdict.count(&audited);
    verdict.same_digest("audited repetition", &base[0], &audited, true);

    let mut m = Metrics::default();
    // The traced repetition stops one slice short of the horizon; compare
    // it with the same slices of the timed repetitions.
    let n = traced.timing.slice_s.len();
    let head = |r: usize| &base[r].timing.slice_s[..n.min(base[r].timing.slice_s.len())];
    let base_host_s = sigma_min(&[head(0), head(1)]);
    let probe_ns = layers::probe_ns((200_000 / spec.scale).max(64));
    let total = trace_metrics(&trace, base_host_s, probe_ns, &mut m);
    m.put("sim.ns_per_event", per(base_host_s * 1e9, total.events));
    let phase_events: u64 = trace.phases.iter().map(|b| b.events).sum();
    if phase_events != total.events {
        verdict.problems.push(format!(
            "per-phase events sum to {phase_events}, per-kind events to {}",
            total.events
        ));
    }
    counter_metrics(&traced.units, &mut m);
    m.put("workloads.build_s", median(&traced.timing.build_s));
    m.extend(layers::standalone(spec.seed, spec.scale));
    let (diff, diff_verdict) = layers::differential(spec.seed, spec.scale);
    m.extend(diff);
    verdict.merge(diff_verdict);

    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("{}.trace.json", spec.wl.name));
    std::fs::write(&path, trace_json(spec, &trace, &total))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((m, verdict))
}
