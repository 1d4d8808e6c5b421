//! The parallel runner's contract: for any `--jobs N`, a figure's merged
//! table, CSV export, and measured notes are byte-identical to the serial
//! run. Exercised here on two cheap quick-scale figures whose cells stress
//! both homogeneous (`fig11`: one cell per PE count) and grouped (`fig06`:
//! rate × config) fan-out.
//!
//! `bench_scale --quick` is pinned harder: its stdout (the 83×8 and
//! 500×256 sharded cells plus the hot/cold shard recovery) must equal the
//! committed golden, so a host-side change that perturbs wide-topology
//! send order fails here and not only in the serial-vs-parallel diff.
//!
//! `fig06 --quick` at `SPS_BATCH_SIZE=64` is pinned the same way: 64 is
//! `CHUNK_CAP`, the batch size the benchmark runs and the one size at which
//! a delivered run spans exactly one queue chunk.

use sps_bench::common::{Experiment, Scale};
use sps_bench::experiments::{fig06, fig09_11};
use sps_bench::runner::Runner;

/// Everything `Experiment::print` derives from the run: the rendered
/// table, the CSV export, and the computed notes.
fn rendered(e: &Experiment) -> String {
    format!(
        "{}\n--csv--\n{}\n--notes--\n{}",
        e.table,
        e.table.to_csv(),
        e.measured_notes.join("\n")
    )
}

#[test]
fn fig06_is_byte_identical_across_job_counts() {
    let serial = rendered(&fig06::fig06(&Runner::serial(), Scale::Quick, 2010));
    for jobs in [2, 8] {
        let parallel = rendered(&fig06::fig06(&Runner::new(jobs), Scale::Quick, 2010));
        assert_eq!(serial, parallel, "fig06 diverged at --jobs {jobs}");
    }
}

#[test]
fn fig11_is_byte_identical_across_job_counts() {
    let serial = rendered(&fig09_11::fig11(&Runner::serial(), Scale::Quick, 2010));
    for jobs in [2, 8] {
        let parallel = rendered(&fig09_11::fig11(&Runner::new(jobs), Scale::Quick, 2010));
        assert_eq!(serial, parallel, "fig11 diverged at --jobs {jobs}");
    }
}

#[test]
fn bench_scale_quick_matches_the_committed_golden() {
    let report = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("bench_scale_quick.json");
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_bench_scale"))
        .args(["--quick", "--jobs", "2", "--out"])
        .arg(&report)
        .output()
        .expect("bench_scale starts");
    assert!(run.status.success(), "bench_scale failed: {run:?}");
    assert_eq!(
        String::from_utf8_lossy(&run.stdout),
        include_str!("../golden/bench_scale_quick.txt"),
        "bench_scale --quick stdout diverged from crates/bench/golden/bench_scale_quick.txt"
    );
}

#[test]
fn fig06_at_batch_64_matches_the_committed_golden() {
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_fig06"))
        .env("SPS_BATCH_SIZE", "64")
        .args(["--quick", "--jobs", "2"])
        .output()
        .expect("fig06 starts");
    assert!(run.status.success(), "fig06 failed: {run:?}");
    assert_eq!(
        String::from_utf8_lossy(&run.stdout),
        include_str!("../golden/fig06_b64.txt"),
        "fig06 --quick at batch 64 diverged from crates/bench/golden/fig06_b64.txt"
    );
}
