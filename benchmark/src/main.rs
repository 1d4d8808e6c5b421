//! Command line of the benchmark.
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` — one
//!   workload, as the benchmark driver calls it. The last line of stdout is
//!   the result object; `--trace 0` carries the end-to-end metrics,
//!   `--trace 1` the per-layer ones.
//! * `run --seed <n> [--seconds <s>]` — every workload, both passes, printed
//!   by name and written to `benchmark/out/results.json`.
//! * `compare <base.json> <change.json>` — the regression gate over two
//!   result files.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use sps_benchmark::compare::compare;
use sps_benchmark::json::Json;
use sps_benchmark::ledger::{ledger, Decl, Ledger};
use sps_benchmark::measure::Spec;
use sps_benchmark::report::{end_to_end, measure, per_layer, EndToEnd, Verdict};
use sps_benchmark::workloads::{by_name, WORKLOADS};

const USAGE: &str = "usage: sps-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
       sps-benchmark run --seed <n> [--seconds <s>]
       sps-benchmark compare <base.json> <change.json>";

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)
        .map(|v| v.parse().map_err(|_| format!("bad value for {name}: {v}")))
        .transpose()
}

fn spec_for(name: &str, seed: u64) -> Result<Spec, String> {
    let wl = by_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
    Ok(Spec {
        wl,
        seed,
        scale: 1,
        obs: wl.observers,
    })
}

fn print_metrics(rows: &[(Decl, f64)]) {
    for (d, v) in rows {
        println!("  {:<44} {v:>20.6} {}", d.name, d.unit);
    }
}

fn print_verdict(v: &Verdict) {
    println!(
        "  ops_attempted {}  ops_failed {}  failed_share {}",
        v.attempted,
        v.failed,
        v.failed_share()
    );
    for p in &v.problems {
        println!("  CHECK FAILED: {p}");
    }
}

fn metrics_json(rows: &[(Decl, f64)], e2e: Option<&EndToEnd>) -> Json {
    Json::Obj(
        rows.iter()
            .map(|(d, v)| {
                let mut fields = vec![("value", Json::Num(*v)), ("unit", Json::str(&d.unit))];
                if let Some(s) = e2e.and_then(|e| e.samples.get(d.name.as_str())) {
                    fields.push(("samples", Json::nums(s)));
                }
                (d.name.clone(), Json::obj(fields))
            })
            .collect(),
    )
}

/// One workload, one pass, as the driver calls it.
fn drive(args: &[String], ledger: &Ledger) -> Result<bool, String> {
    let name = flag(args, "--workload").ok_or(USAGE)?;
    let seed: u64 = parsed(args, "--seed")?.ok_or(USAGE)?;
    let seconds: f64 = parsed(args, "--seconds")?.unwrap_or(ledger.run_seconds);
    let trace: u8 = parsed(args, "--trace")?.unwrap_or(0);
    let spec = spec_for(name, seed)?;
    let (rows, verdict) = if trace == 0 {
        let measured = measure(&[spec], seconds).remove(0);
        let e2e = end_to_end(&measured);
        println!(
            "{name} seed {seed}: {} repetitions in {:.1} s",
            measured.reps.len(),
            measured.spent_s
        );
        (e2e.metrics.against(&ledger.end_to_end)?, e2e.verdict)
    } else {
        let (metrics, verdict) = per_layer(spec, &out_dir())?;
        println!("{name} seed {seed}: traced pass");
        (metrics.against(&ledger.per_layer)?, verdict)
    };
    print_metrics(&rows);
    print_verdict(&verdict);
    let result = Json::obj(vec![
        ("correct", Json::Bool(verdict.correct())),
        ("attempted", Json::Num(verdict.attempted as f64)),
        ("failed", Json::Num(verdict.failed as f64)),
        ("metrics", metrics_json(&rows, None)),
    ]);
    println!("{result}");
    Ok(verdict.correct())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where the numbers were taken: host-time metrics mean nothing without it.
fn fingerprint() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|k| k.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::Str(cpu)),
        ("kernel", Json::Str(kernel)),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        (
            "git_head",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// Every workload, both passes.
fn run_all(args: &[String], ledger: &Ledger) -> Result<bool, String> {
    let seed: u64 = parsed(args, "--seed")?.ok_or(USAGE)?;
    let seconds: f64 = parsed(args, "--seconds")?.unwrap_or(ledger.run_seconds);
    let specs = WORKLOADS
        .iter()
        .map(|w| spec_for(w.name, seed))
        .collect::<Result<Vec<_>, _>>()?;
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for measured in measure(&specs, seconds) {
        let name = measured.spec.wl.name;
        let e2e = end_to_end(&measured);
        let rows = e2e.metrics.against(&ledger.end_to_end)?;
        println!(
            "== {name} (seed {seed}, {} repetitions) ==",
            measured.reps.len()
        );
        print_metrics(&rows);
        for (metric, s) in &e2e.samples {
            let (lo, hi) = s
                .iter()
                .fold((f64::INFINITY, 0f64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            println!(
                "  {metric:<24} per repetition: n={} min={lo:.6} median={:.6} max={hi:.6}",
                s.len(),
                sps_benchmark::measure::median(s)
            );
        }
        let (layer_metrics, layer_verdict) = per_layer(measured.spec, &out_dir())?;
        let layer_rows = layer_metrics.against(&ledger.per_layer)?;
        print_metrics(&layer_rows);
        let mut verdict = e2e.verdict.clone();
        verdict.merge(layer_verdict);
        print_verdict(&verdict);
        all_correct &= verdict.correct();
        workloads.push((
            name.to_string(),
            Json::obj(vec![
                ("correct", Json::Bool(verdict.correct())),
                ("attempted", Json::Num(verdict.attempted as f64)),
                ("failed", Json::Num(verdict.failed as f64)),
                ("failed_share", Json::Num(verdict.failed_share())),
                (
                    "problems",
                    Json::Arr(verdict.problems.iter().map(|p| Json::str(p)).collect()),
                ),
                ("repetitions", Json::Num(measured.reps.len() as f64)),
                ("digest", Json::Str(e2e.digest.clone())),
                ("end_to_end", metrics_json(&rows, Some(&e2e))),
                ("per_layer", metrics_json(&layer_rows, None)),
            ]),
        ));
    }
    let results = Json::obj(vec![
        ("schema", Json::str("sps-benchmark-v1")),
        ("fingerprint", fingerprint()),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("workloads", Json::Obj(workloads)),
        ("claim", Json::Null),
    ]);
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("results.json");
    std::fs::write(&path, format!("{results}\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results and traces written under {}", dir.display());
    Ok(all_correct)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn real_main() -> Result<bool, String> {
    // `HaSimulationBuilder::build` honours SPS_BATCH_SIZE and SPS_LINEAGE
    // process-wide; a stray one silently turns a workload into another.
    if let Some((name, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("SPS_"))
    {
        return Err(format!(
            "{} is set; the benchmark refuses to run with any SPS_* variable in its environment",
            name.to_string_lossy()
        ));
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ledger = ledger();
    match args.first().map(String::as_str) {
        Some("run") => run_all(&args, &ledger),
        Some("compare") => match &args[1..] {
            [base, change] => Ok(compare(&read_json(base)?, &read_json(change)?)? == 0),
            _ => Err(USAGE.to_string()),
        },
        _ if flag(&args, "--workload").is_some() => drive(&args, &ledger),
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
