//! # sps-bench — the figure-reproduction harnesses
//!
//! One experiment per figure of Zhang et al. (ICDCS 2010), each a library
//! function returning an [`Experiment`](common::Experiment) with the
//! regenerated series, registered by name in [`figures::FIGURES`] and run
//! through one binary: `cargo run --release -p sps-bench --bin figures --
//! [NAME...] [--quick] [--jobs N] [--seed N] [--observe-out DIR]`.

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod common;
pub mod figures;
pub mod observe_capture;
pub mod runner;

/// The per-figure experiment modules.
pub mod experiments {
    pub mod ablation;
    pub mod detectors;
    pub mod fig01_03;
    pub mod fig04_05;
    pub mod fig06;
    pub mod fig07_08;
    pub mod fig09_11;
    pub mod fig12_13;
    pub mod hybrid_opts;
}
