//! The §II-B measurement study: how often do shared machines become
//! transiently unavailable, and for how long?
//!
//! Synthesizes the paper's 83-machine, 24-hour CPU-sampling study (see the
//! substitution notes in DESIGN.md) and prints the Figure 1–3 data: the
//! weather app's per-machine slowdown, and the CDFs of inter-failure time
//! and spike duration.
//!
//! ```sh
//! cargo run --release --example cluster_study
//! ```

use hybrid_ha::prelude::*;
use hybrid_ha::workloads::{run_weather_app, ClusterStudy};

fn main() {
    let mut rng = SimRng::seed_from(2010);

    // Figure 1: the weather-forecast app on shared machines.
    let weather = run_weather_app(50, &mut rng);
    println!("weather app, mean processing time per machine (machines 55+ are shared):");
    for (machine, secs) in &weather.rows {
        let bar = "#".repeat((secs * 40.0) as usize);
        println!("  m{machine:>2}  {secs:.3}s  {bar}");
    }

    // Figures 2-3: one simulated hour across 83 machines (pass a longer
    // duration for the full 24 h study).
    let study = ClusterStudy::run(SimDuration::from_secs(3_600), &mut rng);
    println!();
    println!(
        "{} of {} machines exhibited transient unavailability in one hour",
        study.machines_with_spikes(),
        study.machines.len()
    );

    let mut inter = study.inter_failure_cdf();
    let mut duration = study.duration_cdf();
    println!();
    println!(
        "machines spiking more often than once/60s : {:.0}%  (paper: >75%)",
        inter.fraction_at_most(60.0) * 100.0
    );
    println!(
        "machines with mean spike duration < 10s   : {:.0}%  (paper: ~70%)",
        duration.fraction_at_most(10.0) * 100.0
    );
    println!(
        "machines with mean spike duration > 20s   : {:.0}%  (paper: ~20%)",
        (1.0 - duration.fraction_at_most(20.0)) * 100.0
    );

    println!();
    println!("CDF of mean inter-failure time (s):");
    for (x, f) in inter.curve(11) {
        println!("  {x:>8.1}s  {}", "*".repeat((f * 50.0) as usize));
    }
    println!("CDF of mean spike duration (s):");
    for (x, f) in duration.curve(11) {
        println!("  {x:>8.1}s  {}", "*".repeat((f * 50.0) as usize));
    }
}
