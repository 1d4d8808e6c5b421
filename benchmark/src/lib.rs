//! The repository's one benchmark: six named workloads over the simulator's
//! public API, end-to-end metrics from timed repetitions, and a per-layer
//! ledger from a traced repetition. See README.md.

pub mod compare;
pub mod json;
pub mod layers;
pub mod ledger;
pub mod measure;
pub mod report;
pub mod workloads;

use sps_sim::counting_alloc::CountingAllocator;

/// Every binary and test of this package counts its heap: `peak_live_bytes`
/// and the per-event allocation columns read these counters.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;
