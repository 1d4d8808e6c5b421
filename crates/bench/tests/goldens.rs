//! Every binary's stdout against its committed golden render, from one
//! table. Each row spawns the real binary at `--quick --jobs 2` (seed
//! 2010, the default) and byte-compares stdout with the concatenation of
//! the row's golden files in `crates/bench/golden/`:
//!
//! * the eighteen figures (fig01–fig13, the three ablations and the two
//!   campaigns), one by one, and all at once (`figures --quick` prints
//!   exactly the eighteen files in registry order);
//! * fig04/06/11 at `SPS_BATCH_SIZE=1` (byte-identical to the unbatched
//!   runtime, so the plain goldens) and `=16`, fig06 at `=64`
//!   (`CHUNK_CAP`, the size the benchmark's `batched_chain` runs);
//! * fig04/06/11 with lineage on and `--observe-out`: observation perturbs
//!   nothing, the five files appear, their `health.jsonl` equals
//!   `observed_health.jsonl`, the line count and FNV-1a digest of their
//!   `trace.jsonl` and `metrics.jsonl` equal `observed_digests.txt`, and
//!   the observed run audits clean;
//! * the two campaigns with `--observe-out` too: the auditor rides every
//!   real cell either way, and each leaves its dump under `DIR/<name>/`
//!   next to the observed run's five files;
//! * `bench_scale --quick`.
//!
//! A host-side change that perturbs any simulated result fails here; see
//! `crates/bench/golden/README.md` for when regeneration is legitimate.

use std::path::{Path, PathBuf};
use std::process::Command;

const FIGURES: &str = env!("CARGO_BIN_EXE_figures");
const SCALE: &str = env!("CARGO_BIN_EXE_bench_scale");

const FIVE_FILES: &[&str] = &[
    "trace.jsonl",
    "metrics.jsonl",
    "metrics.csv",
    "health.jsonl",
    "audit.txt",
];
/// A campaign's `--observe-out` files: the five, and its own dump.
const CHAOS_FILES: &[&str] = &[
    "trace.jsonl",
    "metrics.jsonl",
    "metrics.csv",
    "health.jsonl",
    "audit.txt",
    "chaos_campaign/trace.jsonl",
    "chaos_campaign/audit.txt",
];
const DOMAIN_FILES: &[&str] = &[
    "trace.jsonl",
    "metrics.jsonl",
    "metrics.csv",
    "health.jsonl",
    "audit.txt",
    "domain_campaign/trace.jsonl",
    "domain_campaign/audit.txt",
];

struct Row {
    bin: &'static str,
    /// Arguments before the `--quick --jobs 2` every row gets.
    args: Vec<&'static str>,
    env: Option<(&'static str, &'static str)>,
    /// Golden file stems whose concatenation stdout must equal.
    golden: Vec<&'static str>,
    /// Files `--observe-out` must leave behind (empty: flag not passed).
    observe: &'static [&'static str],
}

fn row(bin: &'static str, args: &[&'static str], golden: &[&'static str]) -> Row {
    Row {
        bin,
        args: args.to_vec(),
        env: None,
        golden: golden.to_vec(),
        observe: &[],
    }
}

fn table() -> Vec<Row> {
    let names = sps_bench::figures::names();
    let mut rows: Vec<Row> = names.iter().map(|&n| row(FIGURES, &[n], &[n])).collect();
    rows.push(row(FIGURES, &[], &names));
    for (fig, b16) in [
        ("fig04", "fig04_b16"),
        ("fig06", "fig06_b16"),
        ("fig11", "fig11_b16"),
    ] {
        rows.push(Row {
            env: Some(("SPS_BATCH_SIZE", "1")),
            ..row(FIGURES, &[fig], &[fig])
        });
        rows.push(Row {
            env: Some(("SPS_BATCH_SIZE", "16")),
            ..row(FIGURES, &[fig], &[b16])
        });
        rows.push(Row {
            env: Some(("SPS_LINEAGE", "1")),
            observe: FIVE_FILES,
            ..row(FIGURES, &[fig], &[fig])
        });
    }
    rows.push(Row {
        env: Some(("SPS_BATCH_SIZE", "64")),
        ..row(FIGURES, &["fig06"], &["fig06_b64"])
    });
    for (campaign, files) in [
        ("chaos_campaign", CHAOS_FILES),
        ("domain_campaign", DOMAIN_FILES),
    ] {
        rows.push(Row {
            observe: files,
            ..row(FIGURES, &[campaign], &[campaign])
        });
    }
    rows.push(row(SCALE, &[], &["bench_scale_quick"]));
    rows
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// Checks one row; returns what is wrong with it, if anything.
fn check(i: usize, r: &Row) -> Result<(), String> {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("goldens-row-{i}"));
    let _ = std::fs::remove_dir_all(&tmp);
    let mut cmd = Command::new(r.bin);
    cmd.args(&r.args).args(["--quick", "--jobs", "2"]);
    if let Some((k, v)) = r.env {
        cmd.env(k, v);
    }
    if !r.observe.is_empty() {
        cmd.arg("--observe-out").arg(&tmp);
    }
    if r.bin == SCALE {
        std::fs::create_dir_all(&tmp).expect("tmp dir");
        cmd.arg("--out").arg(tmp.join("report.json"));
    }
    let what = format!("row {i}: {cmd:?}");
    let run = cmd.output().map_err(|e| format!("{what}: {e}"))?;
    if !run.status.success() {
        return Err(format!("{what}: {run:?}"));
    }
    let want: String = r
        .golden
        .iter()
        .map(|g| {
            let path = golden_dir().join(format!("{g}.txt"));
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        })
        .collect();
    if String::from_utf8_lossy(&run.stdout) != want {
        return Err(format!("{what}: stdout diverged from {:?}", r.golden));
    }
    for f in r.observe {
        match std::fs::metadata(tmp.join(f)) {
            Ok(m) if m.len() > 0 => {}
            other => return Err(format!("{what}: {f} missing or empty ({other:?})")),
        }
    }
    if r.observe.contains(&"health.jsonl") {
        let want = std::fs::read(golden_dir().join("observed_health.jsonl"))
            .expect("observed_health.jsonl");
        if std::fs::read(tmp.join("health.jsonl")).ok() != Some(want) {
            return Err(format!(
                "{what}: health.jsonl diverged from observed_health.jsonl"
            ));
        }
        let want = std::fs::read_to_string(golden_dir().join("observed_digests.txt"))
            .expect("observed_digests.txt");
        let got: String = ["trace.jsonl", "metrics.jsonl"]
            .iter()
            .map(|f| {
                let bytes = std::fs::read(tmp.join(f)).expect("checked above");
                format!("{f} {}\n", digest(&bytes))
            })
            .collect();
        if got != want {
            return Err(format!(
                "{what}: observed digests diverged from observed_digests.txt:\n{got}"
            ));
        }
    }
    // One report for the observed run, one per real cell in a campaign's
    // dump: every one of them clean.
    for f in r.observe.iter().filter(|f| f.ends_with("audit.txt")) {
        let audit = std::fs::read_to_string(tmp.join(f)).expect("checked above");
        let clean = audit
            .lines()
            .filter(|l| l.starts_with("violations:"))
            .all(|l| l == "violations: 0");
        if !clean || !audit.contains("verdict: PASS") || audit.contains("verdict: FAIL") {
            return Err(format!("{what}: {f} is not clean:\n{audit}"));
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);
    Ok(())
}

/// `lines=<n> fnv1a=<hex>` of a file's bytes.
fn digest(bytes: &[u8]) -> String {
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let lines = bytes.iter().filter(|&&b| b == b'\n').count();
    format!("lines={lines} fnv1a={hash:016x}")
}

#[test]
fn every_row_matches_its_golden() {
    let failures: Vec<String> = table()
        .iter()
        .enumerate()
        .filter_map(|(i, r)| check(i, r).err())
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn misspelt_arguments_exit_2_with_a_message() {
    for (args, message) in [
        (&["--quik"][..], "unknown flag `--quik`"),
        (&["--jobs", "x"], "--jobs takes a number, got `x`"),
        (&["--quick", "--observe-out"], "--observe-out needs a value"),
        (&["fig99", "--quick"], "unknown name `fig99`"),
    ] {
        let run = Command::new(FIGURES)
            .args(args)
            .output()
            .expect("figures starts");
        assert_eq!(run.status.code(), Some(2), "{args:?}: {run:?}");
        assert!(run.stdout.is_empty(), "{args:?} printed a figure");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: figures [NAME...]"), "{stderr}");
        assert!(stderr.contains("fig13 ablation_checkpointing"), "{stderr}");
    }
}
