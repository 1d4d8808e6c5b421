//! The figure registry: every paper figure, ablation and campaign, by
//! name, in printing order. The `figures` binary is the only way to run
//! them.

use crate::common::{Experiment, RunOpts, Scale};
use crate::experiments::*;
use crate::runner::Runner;

/// One figure harness: `(runner, scale, seed)` to the regenerated series.
pub type FigureFn = fn(&Runner, Scale, u64) -> Experiment;

/// Every figure, ablation and campaign, in printing order.
pub const FIGURES: &[(&str, FigureFn)] = &[
    ("fig01", fig01_03::fig01),
    ("fig02", fig01_03::fig02),
    ("fig03", fig01_03::fig03),
    ("fig04", fig04_05::fig04),
    ("fig05", fig04_05::fig05),
    ("fig06", fig06::fig06),
    ("fig07", fig07_08::fig07),
    ("fig08", fig07_08::fig08),
    ("fig09", fig09_11::fig09),
    ("fig10", fig09_11::fig10),
    ("fig11", fig09_11::fig11),
    ("fig12", fig12_13::fig12),
    ("fig13", fig12_13::fig13),
    ("ablation_checkpointing", ablation::ablation_checkpointing),
    ("ablation_detectors", detectors::ablation_detectors),
    (
        "ablation_hybrid_optimizations",
        hybrid_opts::ablation_hybrid_optimizations,
    ),
    ("chaos_campaign", campaigns::chaos_campaign),
    ("domain_campaign", campaigns::domain_campaign),
];

/// The registry's names, in printing order.
pub fn names() -> Vec<&'static str> {
    FIGURES.iter().map(|(name, _)| *name).collect()
}

/// Runs the figures called `picked` (all of them when empty), each as one
/// cell of the runner, and returns them by name in the order asked for. A
/// cell fans its own sub-cells out over whatever helper budget is left, so
/// one figure gets every worker and eighteen share them; either way the
/// output is byte-identical for every `--jobs`.
///
/// # Panics
///
/// On a name that is not in [`FIGURES`] (`main` validates them first).
pub fn run(picked: &[String], opts: &RunOpts) -> Vec<(&'static str, Experiment)> {
    let cells: Vec<(&str, FigureFn)> = if picked.is_empty() {
        FIGURES.to_vec()
    } else {
        picked
            .iter()
            .map(|want| {
                *FIGURES
                    .iter()
                    .find(|(name, _)| name == want)
                    .unwrap_or_else(|| panic!("no figure called {want}"))
            })
            .collect()
    };
    let runner = opts.runner();
    runner.map(cells, |(name, f)| (name, f(&runner, opts.scale, opts.seed)))
}
