//! `sps-inspect` — offline analysis of the simulator's JSONL artifacts
//! (the files of an `--observe-out` directory, lineage exports).
//!
//! ```text
//! sps-inspect summary  <dump.jsonl>...       per-kind counts, time range,
//!                                            recovery cycles, audit-violation
//!                                            and SLO/anomaly roll-up
//! sps-inspect timeline <trace.jsonl>         per-machine / per-PE event timeline
//! sps-inspect diff     [--context N] <a.jsonl> <b.jsonl>
//!                                            first divergent line + field, with
//!                                            N lines of surrounding agreement
//!                                            (exit 1 when the files differ)
//! sps-inspect flame    <trace.jsonl>         recovery critical paths as
//!                                            folded-stack flamegraph lines
//! sps-inspect audit    <trace.jsonl>         replay the dump through the
//!                                            protocol auditor; print the report
//!                                            and first-violation backtrace
//!                                            (exit 1 on any violation)
//! sps-inspect check    <dump.jsonl>...       parse every line, a trace dump's
//!                                            as typed records; exit nonzero
//!                                            on the first malformed one
//! ```
//!
//! All analysis lives in `sps_observe::inspect` and `sps_audit`; this
//! binary is argument handling and exit codes only. Parse errors and usage
//! problems exit nonzero with a message on stderr.

use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

use sps_observe::inspect::{self, Dump};

/// Writes a report to stdout, tolerating a closed pipe (`| head`): a
/// consumer that stops reading is not an error worth panicking over.
fn emit(report: &str) {
    let _ = std::io::stdout().write_all(report.as_bytes());
}

const USAGE: &str = "usage: sps-inspect <summary|timeline|diff|flame|audit|check> <file.jsonl>...
  summary  <dump>...   per-kind counts, time range, recovery cycles, audit/SLO/anomaly roll-up
  timeline <trace>     per-machine / per-PE event timeline
  diff     [--context N] <a> <b>
                       first divergent line and field, with N surrounding lines;
                       exit 1 when files differ
  flame    <trace>     recovery critical paths as folded-stack flamegraph lines
  audit    <trace>     replay through the protocol auditor; exit 1 on any violation
  check    <dump>...   parse every line (a trace dump's as typed records); exit nonzero
                       on the first malformed one";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("sps-inspect: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let (cmd, files) = args.split_first().ok_or(USAGE)?;
    let need = |n: usize| -> Result<(), String> {
        if files.len() == n {
            Ok(())
        } else {
            Err(format!("`{cmd}` takes exactly {n} file(s)\n{USAGE}"))
        }
    };
    match cmd.as_str() {
        "summary" => {
            if files.is_empty() {
                return Err(format!("`summary` needs at least one file\n{USAGE}"));
            }
            for f in files {
                let dump = Dump::load(Path::new(f))?;
                emit(&inspect::summary(&dump)?);
            }
            Ok(ExitCode::SUCCESS)
        }
        "timeline" => {
            need(1)?;
            let dump = Dump::load(Path::new(&files[0]))?;
            emit(&inspect::timeline(&dump));
            Ok(ExitCode::SUCCESS)
        }
        "diff" => {
            // `--context N` (or `--context=N`) before the two files.
            let mut context = 0usize;
            let mut rest: Vec<&String> = Vec::new();
            let mut it = files.iter();
            while let Some(a) = it.next() {
                if a == "--context" {
                    let v = it
                        .next()
                        .ok_or_else(|| format!("`--context` needs a value\n{USAGE}"))?;
                    context = v
                        .parse()
                        .map_err(|_| format!("bad --context value `{v}`\n{USAGE}"))?;
                } else if let Some(v) = a.strip_prefix("--context=") {
                    context = v
                        .parse()
                        .map_err(|_| format!("bad --context value `{v}`\n{USAGE}"))?;
                } else {
                    rest.push(a);
                }
            }
            if rest.len() != 2 {
                return Err(format!("`diff` takes exactly 2 file(s)\n{USAGE}"));
            }
            let a = Dump::load(Path::new(rest[0]))?;
            let b = Dump::load(Path::new(rest[1]))?;
            let (report, identical) = inspect::diff_with_context(&a, &b, context);
            emit(&report);
            Ok(if identical {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        "flame" => {
            need(1)?;
            let dump = Dump::load(Path::new(&files[0]))?;
            emit(&inspect::flame(&dump)?);
            Ok(ExitCode::SUCCESS)
        }
        "audit" => {
            need(1)?;
            let path = Path::new(&files[0]);
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            let outcome =
                sps_audit::replay_dump(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            let mut report = outcome.report;
            if outcome.recorded_violations > 0 {
                report.push_str(&format!(
                    "recorded audit_violation lines in dump: {}\n",
                    outcome.recorded_violations
                ));
            }
            if let Some(first) = &outcome.first {
                report.push_str(&format!(
                    "first violation (after dump line {}): {}\n",
                    first.line, first.rendered
                ));
                if !first.backtrace.is_empty() {
                    report.push_str("causal backtrace (same entities, oldest first):\n");
                    for l in &first.backtrace {
                        report.push_str(&format!("  {l}\n"));
                    }
                }
            }
            emit(&report);
            Ok(if outcome.violations == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        "check" => {
            if files.is_empty() {
                return Err(format!("`check` needs at least one file\n{USAGE}"));
            }
            let paths: Vec<&Path> = files.iter().map(Path::new).collect();
            let report = inspect::check(&paths)?;
            emit(&report);
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(format!("unknown command `{cmd}`\n{USAGE}")),
    }
}
