//! Shared scaffolding for the figure-reproduction harnesses.

use std::path::PathBuf;

use sps_metrics::Table;

use crate::runner::Runner;

/// Experiment scale: `quick` shrinks runs for CI/smoke use; `full` matches
/// the parameters recorded in EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Short runs, fewer seeds.
    Quick,
    /// Paper-scale runs.
    Full,
}

impl Scale {
    /// Picks between a full-scale and quick value.
    pub fn pick<T>(self, full: T, quick: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }
}

/// Command-line options shared by every binary, parsed exactly once in
/// `main` and passed down explicitly — library code never scans argv.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// `--quick`: shrink runs for CI/smoke use.
    pub scale: Scale,
    /// `--jobs N`: worker-thread budget for the cell runner. Defaults to
    /// the machine's available parallelism.
    pub jobs: usize,
    /// `--seed N`: base RNG seed for every simulation cell.
    pub seed: u64,
    /// `--observe-out DIR`: directory for the observation artifacts —
    /// the five files of [`crate::observe_capture`], and each campaign's
    /// [`CampaignDump`] under `DIR/<name>/`. Status goes to stderr so
    /// stdout stays byte-identical with and without it.
    pub observe_out: Option<PathBuf>,
}

impl RunOpts {
    /// Parses an argument list: the four shared options and positional
    /// arguments drawn from `names` (none accepted when empty). A binary
    /// with no observed run names its own output flag as `extra` (`--out`
    /// on `bench_scale`), which then replaces `--observe-out`. Returns the
    /// options, the positionals in order, and the extra flag's value.
    /// Anything else — an unknown flag, a missing or unparsable value, a
    /// name not in `names` — is an error.
    pub fn from_args(
        args: impl IntoIterator<Item = String>,
        names: &[&str],
        extra: Option<&str>,
    ) -> Result<(RunOpts, Vec<String>, Option<String>), String> {
        let mut opts = RunOpts {
            scale: Scale::Full,
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
            seed: 2010,
            observe_out: None,
        };
        let mut picked = Vec::new();
        let mut extra_value = None;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) if f.starts_with("--") => (f.to_string(), Some(v.to_string())),
                _ => (arg, None),
            };
            let mut value = || {
                inline
                    .clone()
                    .or_else(|| args.next())
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            let number = |v: String| {
                v.parse::<u64>()
                    .map_err(|_| format!("{flag} takes a number, got `{v}`"))
            };
            match flag.as_str() {
                "--quick" if inline.is_none() => opts.scale = Scale::Quick,
                "--jobs" => opts.jobs = number(value()?)?.max(1) as usize,
                "--seed" => opts.seed = number(value()?)?,
                "--observe-out" if extra.is_none() => {
                    opts.observe_out = Some(PathBuf::from(value()?))
                }
                f if Some(f) == extra => extra_value = Some(value()?),
                f if f.starts_with('-') => return Err(format!("unknown flag `{f}`")),
                name if names.contains(&name) => picked.push(flag),
                arg if names.is_empty() => return Err(format!("unexpected argument `{arg}`")),
                name => return Err(format!("unknown name `{name}`")),
            }
        }
        Ok((opts, picked, extra_value))
    }

    /// Parses the process arguments for binary `bin`; on error prints the
    /// message, the usage line and the valid names to stderr and exits 2.
    pub fn parse_or_exit(
        bin: &str,
        names: &[&str],
        extra: Option<&str>,
    ) -> (RunOpts, Vec<String>, Option<String>) {
        Self::from_args(std::env::args().skip(1), names, extra).unwrap_or_else(|msg| {
            eprintln!("{bin}: {msg}");
            eprintln!(
                "usage: {bin}{} [--quick] [--jobs N] [--seed N] [{}]",
                if names.is_empty() { "" } else { " [NAME...]" },
                extra.map_or_else(|| "--observe-out DIR".to_string(), |f| format!("{f} PATH")),
            );
            if !names.is_empty() {
                eprintln!("names: {}", names.join(" "));
            }
            std::process::exit(2);
        })
    }

    /// Builds the cell runner for this invocation.
    pub fn runner(&self) -> Runner {
        Runner::new(self.jobs)
    }
}

/// The uniform output of one experiment harness.
#[derive(Debug)]
pub struct Experiment {
    /// Which figure this reproduces (e.g. "Figure 7").
    pub figure: &'static str,
    /// One-line title.
    pub title: &'static str,
    /// The regenerated series.
    pub table: Table,
    /// What the paper reports, for eyeball comparison.
    pub paper_notes: Vec<String>,
    /// What this run shows (computed summary claims).
    pub measured_notes: Vec<String>,
    /// A closing line printed after the notes (fig04's §V-B
    /// during-failure inflation observation).
    pub postscript: Option<String>,
    /// What a campaign leaves for `--observe-out` (`None` for a figure).
    pub dump: Option<CampaignDump>,
}

/// What a campaign writes under `DIR/<name>/` with `--observe-out DIR`:
/// the flight-recorder dump of its last cell and the protocol auditor's
/// report of every cell.
#[derive(Debug)]
pub struct CampaignDump {
    /// `trace.jsonl`: the last cell's control-plane trace.
    pub trace_jsonl: Vec<u8>,
    /// `audit.txt`: every cell's audit report, in sweep order.
    pub audit: String,
    /// Audit violations summed over the cells.
    pub violations: u64,
    /// How many cells ran.
    pub cells: usize,
}

impl Experiment {
    /// Prints the experiment in the standard layout. If the `SPS_CSV_DIR`
    /// environment variable is set, the table is also written there as
    /// `<figure>.csv` (for plotting).
    pub fn print(&self) {
        if let Some(dir) = std::env::var_os("SPS_CSV_DIR") {
            let name: String = self
                .figure
                .chars()
                .map(|c| {
                    if c.is_alphanumeric() {
                        c.to_ascii_lowercase()
                    } else {
                        '_'
                    }
                })
                .collect();
            let path = std::path::Path::new(&dir).join(format!("{name}.csv"));
            if let Err(e) = std::fs::write(&path, self.table.to_csv()) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
        println!("== {} — {} ==", self.figure, self.title);
        println!();
        print!("{}", self.table);
        println!();
        if !self.paper_notes.is_empty() {
            println!("paper:");
            for n in &self.paper_notes {
                println!("  - {n}");
            }
        }
        if !self.measured_notes.is_empty() {
            println!("measured:");
            for n in &self.measured_notes {
                println!("  - {n}");
            }
        }
        println!();
        if let Some(line) = &self.postscript {
            println!("{line}");
        }
    }
}

/// The process's peak resident set size in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable (non-Linux
/// hosts). This is an OS-level high-water mark for the whole process —
/// cumulative across cells, so per-figure attribution needs the
/// `bench`-feature live-bytes counters; the RSS reading contextualizes
/// them against real memory pressure.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Full.pick(10, 2), 10);
        assert_eq!(Scale::Quick.pick(10, 2), 2);
    }

    fn parse(
        line: &str,
        names: &[&str],
        extra: Option<&str>,
    ) -> Result<(RunOpts, Vec<String>, Option<String>), String> {
        RunOpts::from_args(line.split_whitespace().map(str::to_string), names, extra)
    }

    #[test]
    fn run_opts_parse_flags_and_names() {
        let (o, picked, extra) = parse(
            "fig06 --quick --jobs 3 fig04 --seed 77 --observe-out obs",
            &["fig04", "fig06"],
            None,
        )
        .unwrap();
        assert_eq!(o.scale, Scale::Quick);
        assert_eq!(o.jobs, 3);
        assert_eq!(o.seed, 77);
        assert_eq!(o.observe_out.as_deref(), Some(std::path::Path::new("obs")));
        assert_eq!(picked, ["fig06", "fig04"]);
        assert_eq!(extra, None);

        let (o, picked, extra) =
            parse("--jobs=8 --seed=5 --out=r.json", &[], Some("--out")).unwrap();
        assert_eq!(o.scale, Scale::Full);
        assert_eq!(o.jobs, 8);
        assert_eq!(o.seed, 5);
        assert!(picked.is_empty());
        assert_eq!(extra.as_deref(), Some("r.json"));

        let (o, _, _) = parse("", &[], None).unwrap();
        assert_eq!((o.scale, o.seed), (Scale::Full, 2010));
        assert!(o.jobs >= 1);
    }

    #[test]
    fn run_opts_reject_what_they_do_not_understand() {
        let names = ["fig04", "fig06"];
        for (line, extra, want) in [
            ("--quik", None, "unknown flag `--quik`"),
            ("--quick=1", None, "unknown flag `--quick`"),
            ("--jobs x", None, "--jobs takes a number, got `x`"),
            ("--jobs", None, "--jobs needs a value"),
            ("--seed=-1", None, "--seed takes a number, got `-1`"),
            ("--observe-out", None, "--observe-out needs a value"),
            ("--out r.json", None, "unknown flag `--out`"),
            (
                "--observe-out d",
                Some("--out"),
                "unknown flag `--observe-out`",
            ),
            ("fig99", None, "unknown name `fig99`"),
        ] {
            assert_eq!(parse(line, &names, extra).unwrap_err(), want, "{line}");
        }
        // A binary that takes no names rejects every positional.
        assert_eq!(
            parse("fig04", &[], None).unwrap_err(),
            "unexpected argument `fig04`"
        );
    }

    #[test]
    fn csv_export_writes_a_file() {
        let dir = std::env::temp_dir().join(format!("sps_csv_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("SPS_CSV_DIR", &dir);
        let mut table = Table::new(vec!["x"]);
        table.row(vec!["1".into()]);
        let e = Experiment {
            figure: "Figure 99",
            title: "csv smoke",
            table,
            paper_notes: vec![],
            measured_notes: vec![],
            postscript: None,
            dump: None,
        };
        e.print();
        std::env::remove_var("SPS_CSV_DIR");
        let written = std::fs::read_to_string(dir.join("figure_99.csv")).unwrap();
        assert_eq!(written, "x\n1\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if let Some(rss) = peak_rss_bytes() {
            assert!(rss > 0);
        }
    }

    #[test]
    fn mean_handles_empty() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }
}
