//! Regenerates the paper's figures: `figures [NAME...] [--quick]
//! [--jobs N] [--seed N] [--observe-out DIR]`. No names runs all eighteen
//! (fig01–fig13, the three ablations and the two campaigns). Figures run
//! as cells of the runner and are printed only after every cell finished,
//! so stdout is byte-identical for every `--jobs` and `figures --quick`
//! prints exactly the concatenation of the eighteen per-figure outputs.
//! `--observe-out DIR` additionally writes the five files of the observed
//! run ([`sps_bench::observe_capture`]) into `DIR`, and each campaign's
//! dump under `DIR/<name>/`.

use sps_bench::common::RunOpts;
use sps_bench::{figures, observe_capture};

fn main() {
    let (opts, picked, _) = RunOpts::parse_or_exit("figures", &figures::names(), None);
    let ran = figures::run(&picked, &opts);
    for (_, e) in &ran {
        e.print();
    }
    if let Some(dir) = &opts.observe_out {
        observe_capture::capture(dir, opts.seed, &ran);
    }
}
