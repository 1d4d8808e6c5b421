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

use sps_sim::{SimDuration, SimRng};

/// A load-dependent scheduling-latency model.
#[derive(Debug, Clone)]
pub struct SchedLatency {
    /// Median wake-up delay at 50 % load.
    pub base: SimDuration,
    /// Growth exponent of the median in `load / (1 − load)`.
    pub exponent: f64,
    /// Pareto tail index of the delay around its median (smaller = heavier).
    pub pareto_shape: f64,
    /// Load is clamped below this to keep delays finite.
    pub max_load: f64,
    /// Upper bound on the median (a saturated run queue still schedules
    /// the task within a few seconds, as a real CFS-style scheduler would).
    pub max_median: SimDuration,
}

impl Default for SchedLatency {
    /// Calibrated to the paper's detector behaviour with a ~110 ms
    /// heartbeat: medians ≈ 2 ms at 60 % load, ≈ 16 ms at 80 %, ≈ 80 ms at
    /// 90 %, and multi-second at ≥ 99 %; the shape-2.5 tail makes a
    /// >110 ms delay at 60 % load a once-in-tens-of-minutes event.
    fn default() -> Self {
        SchedLatency {
            base: SimDuration::from_millis(1),
            exponent: 2.0,
            pareto_shape: 2.5,
            max_load: 0.995,
            max_median: SimDuration::from_secs(3),
        }
    }
}

impl SchedLatency {
    /// The median wake-up delay at the given machine load.
    pub fn median_at(&self, load: f64) -> SimDuration {
        let l = load.clamp(0.0, self.max_load);
        if l <= 0.0 || self.base.is_zero() {
            return SimDuration::ZERO;
        }
        let odds = l / (1.0 - l);
        self.base
            .mul_f64(odds.powf(self.exponent))
            .min(self.max_median)
    }

    /// Samples a wake-up delay at the given load.
    pub fn sample(&self, rng: &mut SimRng, load: f64) -> SimDuration {
        self.sample_with_median(rng, self.median_at(load))
    }

    /// Samples a wake-up delay around an explicit median (used when the
    /// caller has already scaled the median, e.g. by the foreign-load
    /// fraction).
    pub fn sample_with_median(&self, rng: &mut SimRng, median: SimDuration) -> SimDuration {
        if median.is_zero() {
            return SimDuration::ZERO;
        }
        // Pareto with the requested median: scale = median / 2^(1/shape).
        let scale = median.as_secs_f64() / 2f64.powf(1.0 / self.pareto_shape);
        SimDuration::from_secs_f64(rng.pareto(scale, self.pareto_shape).min(30.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_grows_steeply_with_load() {
        let s = SchedLatency::default();
        let m60 = s.median_at(0.6).as_millis_f64();
        let m80 = s.median_at(0.8).as_millis_f64();
        let m90 = s.median_at(0.9).as_millis_f64();
        assert!((1.5..4.0).contains(&m60), "median@60% = {m60}ms");
        assert!((10.0..25.0).contains(&m80), "median@80% = {m80}ms");
        assert!((50.0..120.0).contains(&m90), "median@90% = {m90}ms");
        assert!(m60 < m80 && m80 < m90);
        assert!(
            s.median_at(0.999).as_secs_f64() >= 2.9,
            "saturated load hits the cap"
        );
    }

    #[test]
    fn zero_load_is_free() {
        let s = SchedLatency::default();
        assert_eq!(s.median_at(0.0), SimDuration::ZERO);
        let mut rng = SimRng::seed_from(1);
        assert_eq!(s.sample(&mut rng, 0.0), SimDuration::ZERO);
    }

    #[test]
    fn sample_median_matches_model() {
        let s = SchedLatency::default();
        let mut rng = SimRng::seed_from(7);
        let n = 20_000;
        let mut samples: Vec<f64> = (0..n)
            .map(|_| s.sample(&mut rng, 0.9).as_millis_f64())
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let emp_median = samples[n / 2];
        let want = s.median_at(0.9).as_millis_f64();
        assert!(
            (emp_median - want).abs() / want < 0.1,
            "empirical median {emp_median} vs {want}"
        );
    }

    #[test]
    fn tail_probability_calibration() {
        // P(delay > 110 ms) at 60 % load should be tiny (rare false alarms),
        // but substantial at 90 % (reliable detection).
        let s = SchedLatency::default();
        let mut rng = SimRng::seed_from(8);
        let p_over = |load: f64, rng: &mut SimRng| {
            let n = 50_000;
            (0..n)
                .filter(|_| s.sample(rng, load).as_millis_f64() > 110.0)
                .count() as f64
                / n as f64
        };
        let p60 = p_over(0.6, &mut rng);
        let p90 = p_over(0.9, &mut rng);
        assert!(p60 < 0.002, "P(>110ms | 60%) = {p60}");
        assert!(p90 > 0.1, "P(>110ms | 90%) = {p90}");
    }
}
