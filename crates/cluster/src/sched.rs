//! OS scheduling (wake-up) latency under load.
//!
//! A small, latency-sensitive task — a heartbeat responder, a benchmark
//! probe — does not only run slower on a loaded machine; it *starts* later,
//! because the scheduler's run queue is long and timeslices are exhausted by
//! other work. This wake-up latency is what actually starves heartbeat
//! replies during a 95–100 % load spike ("when unavailability happens, a
//! machine will be too busy to respond to heartbeat messages", §IV-A), and
//! its heavy tail at moderate load is the other contributor (besides OS
//! jitter) to rare false alarms.
//!
//! The model: wake-up delay is Pareto-distributed with a load-dependent
//! median `base · (load / (1 − load))^exponent` — negligible below ~50 %
//! load, tens of milliseconds around 90 %, and effectively unbounded as the
//! load approaches 100 %.
//!
//! The constants are calibrated to the paper's detector behaviour with a
//! ~110 ms heartbeat: medians ≈ 2 ms at 60 % load, ≈ 16 ms at 80 %, ≈ 80 ms
//! at 90 %, and multi-second at ≥ 99 %; the shape-2.5 tail makes a >110 ms
//! delay at 60 % load a once-in-tens-of-minutes event.

use sps_sim::{SimDuration, SimRng};

/// Median wake-up delay at 50 % load.
const BASE: SimDuration = SimDuration::from_millis(1);
/// Growth exponent of the median in `load / (1 − load)`.
const EXPONENT: f64 = 2.0;
/// Pareto tail index of the delay around its median (smaller = heavier).
const PARETO_SHAPE: f64 = 2.5;
/// Load is clamped below this to keep delays finite.
const MAX_LOAD: f64 = 0.995;
/// Upper bound on the median (a saturated run queue still schedules the
/// task within a few seconds, as a real CFS-style scheduler would).
const MAX_MEDIAN: SimDuration = SimDuration::from_secs(3);

/// The median wake-up delay at the given machine load.
pub fn median_at(load: f64) -> SimDuration {
    let l = load.clamp(0.0, MAX_LOAD);
    if l <= 0.0 {
        return SimDuration::ZERO;
    }
    let odds = l / (1.0 - l);
    BASE.mul_f64(odds.powf(EXPONENT)).min(MAX_MEDIAN)
}

/// Samples a wake-up delay around a median (the caller may have scaled
/// [`median_at`], e.g. by the foreign-load fraction).
pub fn sample_with_median(rng: &mut SimRng, median: SimDuration) -> SimDuration {
    if median.is_zero() {
        return SimDuration::ZERO;
    }
    // Pareto with the requested median: scale = median / 2^(1/shape).
    let scale = median.as_secs_f64() / 2f64.powf(1.0 / PARETO_SHAPE);
    SimDuration::from_secs_f64(rng.pareto(scale, PARETO_SHAPE).min(30.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rng: &mut SimRng, load: f64) -> SimDuration {
        sample_with_median(rng, median_at(load))
    }

    #[test]
    fn median_grows_steeply_with_load() {
        let m60 = median_at(0.6).as_millis_f64();
        let m80 = median_at(0.8).as_millis_f64();
        let m90 = median_at(0.9).as_millis_f64();
        assert!((1.5..4.0).contains(&m60), "median@60% = {m60}ms");
        assert!((10.0..25.0).contains(&m80), "median@80% = {m80}ms");
        assert!((50.0..120.0).contains(&m90), "median@90% = {m90}ms");
        assert!(m60 < m80 && m80 < m90);
        assert!(
            median_at(0.999).as_secs_f64() >= 2.9,
            "saturated load hits the cap"
        );
    }

    #[test]
    fn zero_load_is_free() {
        assert_eq!(median_at(0.0), SimDuration::ZERO);
        let mut rng = SimRng::seed_from(1);
        assert_eq!(sample(&mut rng, 0.0), SimDuration::ZERO);
    }

    #[test]
    fn sample_median_matches_model() {
        let mut rng = SimRng::seed_from(7);
        let n = 20_000;
        let mut samples: Vec<f64> = (0..n)
            .map(|_| sample(&mut rng, 0.9).as_millis_f64())
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let emp_median = samples[n / 2];
        let want = median_at(0.9).as_millis_f64();
        assert!(
            (emp_median - want).abs() / want < 0.1,
            "empirical median {emp_median} vs {want}"
        );
    }

    #[test]
    fn tail_probability_calibration() {
        // P(delay > 110 ms) at 60 % load should be tiny (rare false alarms),
        // but substantial at 90 % (reliable detection).
        let mut rng = SimRng::seed_from(8);
        let p_over = |load: f64, rng: &mut SimRng| {
            let n = 50_000;
            (0..n)
                .filter(|_| sample(rng, load).as_millis_f64() > 110.0)
                .count() as f64
                / n as f64
        };
        let p60 = p_over(0.6, &mut rng);
        let p90 = p_over(0.9, &mut rng);
        assert!(p60 < 0.002, "P(>110ms | 60%) = {p60}");
        assert!(p90 > 0.1, "P(>110ms | 90%) = {p90}");
    }
}
