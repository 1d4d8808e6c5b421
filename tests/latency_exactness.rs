//! The sink's latency figures, pinned to the bit.
//!
//! The recorder stores latencies as integer nanoseconds and converts to
//! milliseconds on the way out (DESIGN.md §11a); these three short runs pin
//! the `f64::to_bits` of mean / p50 / p99 / max as recorded *before* that
//! representation change, so a drift in the nearest-rank rule, the
//! narrow/wide ordering or the ns → ms conversion fails tier-1 instead of
//! silently moving a figure. Batch 1 and batch 64 cover both delivery
//! paths; the unprotected run under a 6 s full-CPU spike pushes latencies
//! past 4.29 s (`u32::MAX` ns), so the wide side list is on the quantile
//! path end to end.

use hybrid_ha::prelude::*;

/// `[mean, p50, p99, max]` of the first sink, as bits.
fn figures(mut sim: HaSimulation) -> [u64; 4] {
    let report = sim.report();
    let latency = sim.world_mut().sinks_mut()[0].latency_mut();
    assert_eq!(
        latency.count(),
        report.sink_accepted,
        "one sample per accept"
    );
    [
        report.sink_mean_delay_ms,
        latency.quantile_ms(0.5).expect("samples"),
        report.sink_p99_delay_ms,
        latency.max_ms().expect("samples"),
    ]
    .map(f64::to_bits)
}

fn hybrid_chain(batch_size: u32) -> HaSimulation {
    let mut sim = HaSimulation::builder(eval_chain_job())
        .mode(HaMode::Hybrid)
        .source_rate(1_000.0)
        .seed(2010)
        .tune(|c| c.batch_size = batch_size)
        .build();
    sim.inject_spike_windows(
        MachineId(1),
        &single_failure(SimTime::from_secs(1), SimDuration::from_secs(2)),
    );
    sim.run_until(SimTime::from_secs(5));
    sim
}

#[test]
fn hybrid_chain_batch_1() {
    assert_eq!(
        figures(hybrid_chain(1)),
        [
            4639271485008614394, // 144.02611567373953 ms
            4613981088826292928, // 3.019216
            4649634676323601871, // 730.262912
            4649805355712604795, // 749.666912
        ],
        "mean / p50 / p99 / max bits"
    );
}

#[test]
fn hybrid_chain_batch_64() {
    assert_eq!(
        figures(hybrid_chain(64)),
        [
            4641013025188632204, // 193.5236646315792 ms
            4639683465729018727, // 155.735312
            4647763233645945732, // 517.504512
            4647763233645945732, // 517.504512
        ],
        "mean / p50 / p99 / max bits"
    );
}

#[test]
fn unprotected_chain_under_a_six_second_spike_has_wide_samples() {
    let mut sim = HaSimulation::builder(eval_chain_job())
        .mode(HaMode::None)
        .source_rate(1_000.0)
        .seed(2010)
        .build();
    sim.inject_spike_windows(
        MachineId(1),
        &single_failure(SimTime::from_secs(1), SimDuration::from_secs(6)),
    );
    sim.run_until(SimTime::from_secs(12));
    let bits = figures(sim);
    assert!(
        f64::from_bits(bits[3]) > u32::MAX as f64 / 1e6,
        "the spike must push some latency past u32::MAX ns"
    );
    assert_eq!(
        bits,
        [
            4660718948299513196, // 3865.5949655507484 ms
            4661261804988987095, // 4128.915214 (narrow column)
            4663271683666055394, // 5956.889222 (wide list)
            4663312176480283129, // 5993.717222
        ],
        "mean / p50 / p99 / max bits"
    );
}
