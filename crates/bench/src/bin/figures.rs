//! Regenerates the paper's figures: `figures [NAME...] [--quick]
//! [--jobs N] [--seed N] [--observe-out DIR]`. No names runs all sixteen
//! (fig01–fig13 and the three ablations). Figures run as cells of the
//! runner and are printed only after every cell finished, so stdout is
//! byte-identical for every `--jobs` and `figures --quick` prints exactly
//! the concatenation of the sixteen per-figure outputs. `--observe-out
//! DIR` additionally writes the five files of the observed run
//! ([`sps_bench::observe_capture`]) into `DIR`.

use sps_bench::common::RunOpts;
use sps_bench::{figures, observe_capture};

fn main() {
    let (opts, picked, _) = RunOpts::parse_or_exit("figures", &figures::names(), None);
    for e in figures::run(&picked, &opts) {
        e.print();
    }
    observe_capture::maybe_capture(opts.observe_out.as_deref(), opts.seed);
}
