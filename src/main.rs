//! `hybrid-ha` — a command-line scenario runner for the stream-processing
//! HA simulator.
//!
//! ```text
//! hybrid-ha run     [--job chain|financial|traffic|tree] [--mode none|as|ps|hybrid]
//!                   [--rate N] [--secs N] [--seed N] [--fail START:LEN ...]
//! hybrid-ha compare [--job ...] [--rate N] [--secs N] [--seed N] [--fail START:LEN ...]
//! hybrid-ha study   [--hours N] [--seed N]
//! ```

use hybrid_ha::prelude::*;
use hybrid_ha::workloads::ClusterStudy;

/// A parsed failure window (`start:len`, seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
struct FailSpec {
    start_s: f64,
    len_s: f64,
}

#[derive(Debug, Clone)]
struct RunArgs {
    job: String,
    mode: HaMode,
    rate: f64,
    secs: u64,
    seed: u64,
    failures: Vec<FailSpec>,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            job: "chain".into(),
            mode: HaMode::Hybrid,
            rate: 1_000.0,
            secs: 10,
            seed: 42,
            failures: vec![FailSpec {
                start_s: 2.0,
                len_s: 3.0,
            }],
        }
    }
}

fn parse_mode(s: &str) -> Result<HaMode, String> {
    match s.to_ascii_lowercase().as_str() {
        "none" => Ok(HaMode::None),
        "as" | "active" => Ok(HaMode::Active),
        "ps" | "passive" => Ok(HaMode::Passive),
        "hybrid" => Ok(HaMode::Hybrid),
        other => Err(format!("unknown mode '{other}' (none|as|ps|hybrid)")),
    }
}

fn parse_fail(s: &str) -> Result<FailSpec, String> {
    let (a, b) = s
        .split_once(':')
        .ok_or_else(|| format!("failure spec '{s}' must be START:LEN (seconds)"))?;
    let start_s: f64 = a.parse().map_err(|_| format!("bad start '{a}'"))?;
    let len_s: f64 = b.parse().map_err(|_| format!("bad length '{b}'"))?;
    if start_s < 0.0 || len_s <= 0.0 {
        return Err(format!(
            "failure spec '{s}' must be non-negative with positive length"
        ));
    }
    Ok(FailSpec { start_s, len_s })
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs::default();
    out.failures.clear();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--job" => out.job = value("--job")?,
            "--mode" => out.mode = parse_mode(&value("--mode")?)?,
            "--rate" => {
                out.rate = value("--rate")?
                    .parse()
                    .map_err(|_| "bad --rate".to_string())?
            }
            "--secs" => {
                out.secs = value("--secs")?
                    .parse()
                    .map_err(|_| "bad --secs".to_string())?
            }
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "bad --seed".to_string())?
            }
            "--fail" => out.failures.push(parse_fail(&value("--fail")?)?),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if out.failures.is_empty() {
        out.failures = RunArgs::default().failures;
    }
    Ok(out)
}

fn build_job(name: &str) -> Result<Job, String> {
    match name {
        "chain" => Ok(eval_chain_job()),
        "financial" => Ok(financial_job(16)),
        "traffic" => Ok(traffic_job(8)),
        "tree" => Ok(tree_job()),
        other => Err(format!(
            "unknown job '{other}' (chain|financial|traffic|tree)"
        )),
    }
}

fn run_one(args: &RunArgs) -> Result<(RunReport, Vec<String>, u64), String> {
    let job = build_job(&args.job)?;
    let protected = SubjobId(if job.subjob_count() > 1 { 1 } else { 0 });
    let mut sim = HaSimulation::builder(job)
        .mode(HaMode::None)
        .subjob_mode(protected, args.mode)
        .source_rate(args.rate)
        .seed(args.seed)
        .build();
    let machine = MachineId(protected.0);
    for f in &args.failures {
        sim.inject_spike_windows(
            machine,
            &[SpikeWindow {
                start: SimTime::from_nanos((f.start_s * 1e9) as u64),
                end: SimTime::from_nanos(((f.start_s + f.len_s) * 1e9) as u64),
                share: 1.0,
            }],
        );
    }
    sim.stop_sources_at(SimTime::from_secs(args.secs));
    sim.run_for(SimDuration::from_secs(args.secs + 4));
    let events = sim
        .world()
        .ha_events()
        .iter()
        .map(|e| format!("{:>8.3}s  {:?}  ({})", e.at.as_secs_f64(), e.kind, e.subjob))
        .collect();
    let produced = sim.world().sources().iter().map(|s| s.produced()).sum();
    Ok((sim.report(), events, produced))
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let args = parse_run_args(args)?;
    println!(
        "job={} mode={} rate={} el/s failures={:?} seed={}",
        args.job, args.mode, args.rate, args.failures, args.seed
    );
    let (report, events, produced) = run_one(&args)?;
    if events.is_empty() {
        println!("no HA events");
    } else {
        for e in &events {
            println!("{e}");
        }
    }
    println!();
    println!("produced           : {produced}");
    println!("delivered          : {}", report.sink_accepted);
    println!("duplicates dropped : {}", report.sink_duplicates);
    println!("mean E2E delay     : {:.2} ms", report.sink_mean_delay_ms);
    println!("p99 E2E delay      : {:.2} ms", report.sink_p99_delay_ms);
    println!("traffic (elements) : {}", report.total_overhead_elements());
    if report.sink_accepted == produced {
        println!("delivery           : exactly-once ✓");
    } else {
        println!(
            "delivery           : {} of {} (in-flight at horizon)",
            report.sink_accepted, produced
        );
    }
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let base = parse_run_args(args)?;
    let mut table = Table::new(vec![
        "mode",
        "mean_ms",
        "p99_ms",
        "delivered",
        "traffic_elements",
    ]);
    for mode in HaMode::ALL {
        let (report, _, _) = run_one(&RunArgs {
            mode,
            ..base.clone()
        })?;
        table.row(vec![
            mode.to_string(),
            format!("{:.2}", report.sink_mean_delay_ms),
            format!("{:.2}", report.sink_p99_delay_ms),
            report.sink_accepted.to_string(),
            report.total_overhead_elements().to_string(),
        ]);
    }
    print!("{table}");
    Ok(())
}

fn cmd_study(args: &[String]) -> Result<(), String> {
    let mut hours = 1u64;
    let mut seed = 2010u64;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--hours" => hours = value.parse().map_err(|_| "bad --hours".to_string())?,
            "--seed" => seed = value.parse().map_err(|_| "bad --seed".to_string())?,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let mut rng = SimRng::seed_from(seed);
    let study = ClusterStudy::run(SimDuration::from_secs(hours * 3600), &mut rng);
    let mut inter = study.inter_failure_cdf();
    let mut dur = study.duration_cdf();
    println!(
        "{} machines, {} h: {} exhibited transient unavailability",
        study.machines.len(),
        hours,
        study.machines_with_spikes()
    );
    println!(
        "spiking ≥ once/60 s: {:.0}%   spike < 10 s: {:.0}%   spike > 20 s: {:.0}%",
        inter.fraction_at_most(60.0) * 100.0,
        dur.fraction_at_most(10.0) * 100.0,
        (1.0 - dur.fraction_at_most(20.0)) * 100.0
    );
    Ok(())
}

const USAGE: &str = "\
hybrid-ha — stream-processing HA simulator (Zhang et al., ICDCS 2010)

USAGE:
  hybrid-ha run     [--job chain|financial|traffic|tree] [--mode none|as|ps|hybrid]
                    [--rate N] [--secs N] [--seed N] [--fail START:LEN]...
  hybrid-ha compare [same flags; runs all four modes]
  hybrid-ha study   [--hours N] [--seed N]

EXAMPLES:
  hybrid-ha run --mode hybrid --fail 2:3 --secs 10
  hybrid-ha compare --job financial --rate 2000 --fail 3:4
  hybrid-ha study --hours 2
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "run" => cmd_run(rest),
            "compare" => cmd_compare(rest),
            "study" => cmd_study(rest),
            "help" | "--help" | "-h" => {
                print!("{USAGE}");
                Ok(())
            }
            other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
        },
        None => {
            print!("{USAGE}");
            Ok(())
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_modes() {
        assert_eq!(parse_mode("hybrid").unwrap(), HaMode::Hybrid);
        assert_eq!(parse_mode("AS").unwrap(), HaMode::Active);
        assert_eq!(parse_mode("ps").unwrap(), HaMode::Passive);
        assert!(parse_mode("bogus").is_err());
    }

    #[test]
    fn parses_fail_spec() {
        assert_eq!(
            parse_fail("2.5:3").unwrap(),
            FailSpec {
                start_s: 2.5,
                len_s: 3.0
            }
        );
        assert!(parse_fail("nope").is_err());
        assert!(parse_fail("2:-1").is_err());
    }

    #[test]
    fn parses_full_run_args() {
        let a = parse_run_args(&s(&[
            "--job", "tree", "--mode", "ps", "--rate", "500", "--secs", "7", "--seed", "9",
            "--fail", "1:2", "--fail", "4:1",
        ]))
        .unwrap();
        assert_eq!(a.job, "tree");
        assert_eq!(a.mode, HaMode::Passive);
        assert_eq!(a.rate, 500.0);
        assert_eq!(a.secs, 7);
        assert_eq!(a.seed, 9);
        assert_eq!(a.failures.len(), 2);
    }

    #[test]
    fn default_failure_applies_when_none_given() {
        let a = parse_run_args(&s(&["--mode", "hybrid"])).unwrap();
        assert_eq!(a.failures.len(), 1);
    }

    #[test]
    fn rejects_unknown_flags_and_jobs() {
        assert!(parse_run_args(&s(&["--bogus", "1"])).is_err());
        assert!(build_job("nope").is_err());
        for j in ["chain", "financial", "traffic", "tree"] {
            assert!(build_job(j).is_ok());
        }
    }

    #[test]
    fn end_to_end_run_is_lossless() {
        let (report, events, produced) = run_one(&RunArgs {
            rate: 500.0,
            secs: 6,
            ..RunArgs::default()
        })
        .unwrap();
        assert_eq!(report.sink_accepted, produced);
        assert!(!events.is_empty(), "the default failure produced HA events");
    }
}
