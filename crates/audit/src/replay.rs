//! Offline frontend: replay a recorded flight-recorder dump through the
//! same [`Auditor`] the online probe runs, re-deriving an identical report.
//!
//! The dump is the JSONL dialect `TraceRecord::to_json` writes; every line
//! is read back with its inverse, `TraceRecord::from_json`, and handed to
//! the auditor, which skips the kinds it does not audit exactly as it does
//! online, so the two frontends agree on the audited event count and thus
//! on the report bytes. Previously recorded `audit_violation` lines (they
//! came from the online probe of the recorded run) are among the skipped
//! kinds and are counted separately: re-feeding them would double-count.

use sps_trace::jsonl::{get, parse_flat_object};
use sps_trace::{AuditInvariant, TraceEvent, TraceProbe, TraceRecord};

use crate::{Auditor, Violation};

/// How many causally related prior records the first-violation backtrace
/// shows.
const BACKTRACE_CAP: usize = 12;

/// The first violation the replay derived, with causal context.
#[derive(Debug, Clone)]
pub struct FirstViolation {
    /// The rendered violation line (same format as the report).
    pub rendered: String,
    /// 1-based dump line after which the violation was derived (the last
    /// dump line for end-of-run liveness violations).
    pub line: usize,
    /// Up to 12 (`BACKTRACE_CAP`) prior dump lines that share an identity
    /// (subjob / pe / sink / stream / machine / transfer id) with the violation,
    /// oldest first — the lineage the checker walked to the verdict.
    pub backtrace: Vec<String>,
}

/// Result of replaying a dump offline.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The checker report — byte-identical to the online probe's report
    /// for the same (fully retained) event stream.
    pub report: String,
    /// Violations derived by this replay.
    pub violations: u64,
    /// `audit_violation` lines already present in the dump (derived online
    /// while the run was recorded).
    pub recorded_violations: u64,
    /// Context for the first derived violation, if any.
    pub first: Option<FirstViolation>,
}

/// The `(key, value)` identities a violation shares with its causes, used
/// to filter the backtrace.
fn identity_keys(v: &Violation) -> Vec<(&'static str, u64)> {
    let mut keys = Vec::new();
    match v.invariant {
        AuditInvariant::SinkExactlyOnce | AuditInvariant::SinkSeqGap => {
            keys.push(("sink", v.entity as u64));
        }
        AuditInvariant::CkptAckOrder => keys.push(("pe", v.entity as u64)),
        AuditInvariant::StreamComplete => keys.push(("stream", v.entity as u64)),
        AuditInvariant::RetransmitReflag => keys.push(("tx", v.seq)),
        AuditInvariant::DomainDisjoint => {
            keys.push(("subjob", v.subjob as u64));
            keys.push(("machine", v.entity as u64));
        }
        AuditInvariant::EpochRegression
        | AuditInvariant::SplitBrain
        | AuditInvariant::IllegalPhase
        | AuditInvariant::StandbyCoverage => keys.push(("subjob", v.subjob as u64)),
    }
    keys
}

/// Walk backwards from the violation site collecting prior dump lines that
/// share an identity with the violation (oldest first).
fn backtrace_for(v: &Violation, lines: &[(usize, String)], upto: usize) -> Vec<String> {
    let keys = identity_keys(v);
    let mut picked = Vec::new();
    for (no, text) in lines[..upto].iter().rev() {
        if picked.len() >= BACKTRACE_CAP {
            break;
        }
        let Ok(obj) = parse_flat_object(text) else {
            continue;
        };
        let matches = keys
            .iter()
            .any(|&(key, want)| get(&obj, key).and_then(|val| val.as_u64()) == Some(want));
        if matches {
            picked.push(format!("line {no}: {text}"));
        }
    }
    picked.reverse();
    picked
}

/// Replay a recorded JSONL dump through the shared checker core.
///
/// Blank lines are skipped; a malformed line is an error (a dump that
/// cannot be parsed cannot be audited), and so is a dump that does not
/// open with the `audit_meta` preamble every trace leads with: a flight
/// recorder that wrapped has evicted it, and without it the end-of-run
/// checks are off and the epochs start mid-run, so a `PASS` would say
/// nothing. Returns the deterministic report, the violation totals, and
/// first-violation context for the CLI.
pub fn replay_dump(text: &str) -> Result<ReplayOutcome, String> {
    let mut auditor = Auditor::new();
    let mut seen_preamble = false;
    let mut derived = Vec::new();
    let mut recorded_violations = 0u64;
    // (1-based line number, raw text) of audited lines, for backtraces.
    let mut audited_lines: Vec<(usize, String)> = Vec::new();
    let mut first: Option<(Violation, usize)> = None;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let record = parse_flat_object(raw)
            .and_then(|obj| TraceRecord::from_json(&obj))
            .map_err(|e| format!("line {line_no}: {e}"))?;
        let kind = record.event.kind();
        if !seen_preamble && kind != "audit_meta" {
            return Err(format!(
                "line {line_no}: the dump opens with \"{kind}\", not the \"audit_meta\" \
                 preamble: the head of the trace is missing (a flight recorder that \
                 wrapped evicts its oldest records first), so it cannot be audited"
            ));
        }
        seen_preamble = true;
        if matches!(record.event, TraceEvent::AuditViolation { .. }) {
            recorded_violations += 1;
        }
        let (audited, before) = (auditor.events_audited, auditor.violations().len());
        auditor.observe(&record, &mut derived);
        derived.clear();
        if auditor.events_audited == audited {
            // Not an audited kind: no part of any backtrace.
            continue;
        }
        if first.is_none() && auditor.violations().len() > before {
            first = Some((auditor.violations()[before], audited_lines.len() + 1));
        }
        audited_lines.push((line_no, raw.to_string()));
    }

    auditor.finish(&mut derived);
    if first.is_none() {
        if let Some(v) = auditor.violations().first() {
            first = Some((*v, audited_lines.len()));
        }
    }
    derived.clear();

    let first = first.map(|(v, upto)| FirstViolation {
        rendered: v.render(),
        line: audited_lines
            .get(upto.saturating_sub(1))
            .map(|&(no, _)| no)
            .unwrap_or(0),
        backtrace: backtrace_for(&v, &audited_lines, upto),
    });

    Ok(ReplayOutcome {
        report: auditor.report(),
        violations: auditor.violation_total(),
        recorded_violations,
        first,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sps_sim::SimTime;
    use sps_trace::{EpochCause, HaModeTag};

    fn jsonl(records: &[TraceRecord]) -> String {
        let mut s = String::new();
        for r in records {
            s.push_str(&r.to_json());
            s.push('\n');
        }
        s
    }

    fn rec(ms: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_millis(ms),
            event,
        }
    }

    fn online_report(records: &[TraceRecord]) -> (String, u64) {
        let mut a = Auditor::new();
        let mut out = Vec::new();
        for r in records {
            a.observe(r, &mut out);
        }
        a.finish(&mut out);
        (a.report(), a.violation_total())
    }

    fn sample_records(break_dedup: bool) -> Vec<TraceRecord> {
        let mut records = vec![
            rec(
                0,
                TraceEvent::AuditMeta {
                    subjobs: 1,
                    flat: true,
                    lossless: true,
                    quiescent: true,
                },
            ),
            rec(
                0,
                TraceEvent::SubjobMeta {
                    subjob: 0,
                    mode: HaModeTag::Hybrid,
                },
            ),
            rec(
                0,
                TraceEvent::EpochChange {
                    subjob: 0,
                    epoch: 0,
                    cause: EpochCause::Init,
                    primary_machine: 1,
                    primary_replica: 0,
                },
            ),
        ];
        for seq in 1..=4u64 {
            records.push(rec(
                seq,
                TraceEvent::SinkDeliver {
                    sink: 0,
                    stream: 3,
                    seq_start: seq,
                    seq_end: seq,
                    newly_accepted: 1,
                    duplicates: 0,
                    processed_through: seq,
                },
            ));
        }
        if break_dedup {
            records.push(rec(
                5,
                TraceEvent::SinkDeliver {
                    sink: 0,
                    stream: 3,
                    seq_start: 4,
                    seq_end: 4,
                    newly_accepted: 1,
                    duplicates: 0,
                    processed_through: 4,
                },
            ));
        }
        records
    }

    #[test]
    fn clean_dump_replays_to_identical_pass_report() {
        let records = sample_records(false);
        let (want, total) = online_report(&records);
        assert_eq!(total, 0);
        let outcome = replay_dump(&jsonl(&records)).unwrap();
        assert_eq!(outcome.report, want);
        assert_eq!(outcome.violations, 0);
        assert_eq!(outcome.recorded_violations, 0);
        assert!(outcome.first.is_none());
    }

    #[test]
    fn broken_dump_replays_to_identical_fail_report_with_backtrace() {
        let records = sample_records(true);
        let (want, total) = online_report(&records);
        assert_eq!(total, 1);
        let outcome = replay_dump(&jsonl(&records)).unwrap();
        assert_eq!(outcome.report, want);
        assert_eq!(outcome.violations, 1);
        let first = outcome.first.expect("first violation context");
        assert!(first.rendered.contains("sink_exactly_once"));
        assert_eq!(first.line, 8, "the duplicate-accepting line");
        assert!(!first.backtrace.is_empty());
        assert!(first.backtrace.iter().all(|l| l.contains("\"sink\":0")));
    }

    #[test]
    fn recorded_violations_are_counted_not_refed() {
        let mut records = sample_records(true);
        // Simulate an online probe having already derived the violation
        // into the recorded stream.
        records.push(rec(
            5,
            TraceEvent::AuditViolation {
                invariant: AuditInvariant::SinkExactlyOnce,
                subjob: u32::MAX,
                entity: 0,
                seq: 4,
                detail: 4,
            },
        ));
        let outcome = replay_dump(&jsonl(&records)).unwrap();
        assert_eq!(outcome.violations, 1, "not double-counted");
        assert_eq!(outcome.recorded_violations, 1);
    }

    #[test]
    fn unaudited_kinds_are_skipped_and_do_not_disturb_counts() {
        let mut records = sample_records(false);
        records.push(rec(
            6,
            TraceEvent::HeartbeatPing {
                machine: 0,
                seq: 12,
            },
        ));
        let (want, _) = online_report(&records);
        let outcome = replay_dump(&jsonl(&records)).unwrap();
        assert_eq!(outcome.report, want);
        assert!(outcome.report.contains("events audited: 7"));
    }

    #[test]
    fn malformed_lines_error_with_position() {
        let err = replay_dump("{\"t\":1,\"kind\":\"sink_deliver\"\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let preamble = jsonl(&sample_records(false)[..1]);
        let headed = format!("{preamble}{{\"t\":1,\"kind\":\"sink_deliver\",\"sink\":0}}\n");
        let err = replay_dump(&headed).unwrap_err();
        assert!(err.contains("line 2") && err.contains("stream"), "{err}");
        // Drift in a kind the auditor does not consume is refused too, and
        // so is an integer its field cannot hold (it used to be truncated).
        let err =
            replay_dump(&format!("{preamble}{{\"t\":1,\"kind\":\"recovry\"}}\n")).unwrap_err();
        assert!(err.contains("line 2") && err.contains("recovry"), "{err}");
        let wide = "{\"t\":1,\"kind\":\"bench_probe\",\"machine\":4294967296}\n";
        let err = replay_dump(&format!("{preamble}{wide}")).unwrap_err();
        assert!(err.contains("line 2") && err.contains("machine"), "{err}");
    }

    #[test]
    fn a_dump_without_its_preamble_is_an_error_not_a_pass() {
        let records = sample_records(false);
        // What a wrapped ring exports: the oldest records are gone. Before
        // this was refused it replayed with every expectation off and
        // printed `verdict: PASS`.
        let err = replay_dump(&jsonl(&records[3..])).unwrap_err();
        assert!(
            err.contains("line 1") && err.contains("audit_meta"),
            "{err}"
        );
        // Also when what is left holds nothing the auditor consumes: "0
        // events audited, PASS" is the same empty claim.
        let quiet_tail = [rec(
            9,
            TraceEvent::HeartbeatPing {
                machine: 0,
                seq: 12,
            },
        )];
        let err = replay_dump(&jsonl(&quiet_tail)).unwrap_err();
        assert!(err.contains("heartbeat_ping"), "{err}");
        assert!(replay_dump("\n").is_ok(), "no record, nothing claimed");
    }

    #[test]
    fn end_of_run_violation_backtraces_from_dump_tail() {
        let records = vec![
            rec(
                0,
                TraceEvent::AuditMeta {
                    subjobs: 1,
                    flat: true,
                    lossless: true,
                    quiescent: true,
                },
            ),
            rec(
                1,
                TraceEvent::EpochChange {
                    subjob: 2,
                    epoch: 1,
                    cause: EpochCause::Promote,
                    primary_machine: 6,
                    primary_replica: 1,
                },
            ),
        ];
        let outcome = replay_dump(&jsonl(&records)).unwrap();
        assert_eq!(outcome.violations, 1);
        let first = outcome.first.unwrap();
        assert!(first.rendered.contains("standby_coverage"));
        assert_eq!(first.line, 2, "stamped at the last audited line");
        assert!(first.backtrace[0].contains("epoch_change"));
    }
}
