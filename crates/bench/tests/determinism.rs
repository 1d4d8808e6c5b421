//! The parallel runner's contract: for any `--jobs N`, a figure's merged
//! table, CSV export, and measured notes are byte-identical to the serial
//! run. Exercised here on two cheap quick-scale figures whose cells stress
//! both homogeneous (`fig11`: one cell per PE count) and grouped (`fig06`:
//! rate × config) fan-out. The binaries' stdout is pinned against the
//! committed goldens by `goldens.rs`.

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
