//! Transient-failure load injection.
//!
//! The paper generates transient failures with "a computation-intensive
//! program that can be parameterized to take approximately a required share
//! of CPU", started and stopped to impose regular or Poisson arrivals
//! (§V-A). [`SpikeProfile`] is that program's simulated twin: it draws
//! (off-time, duration, share) triples from configurable distributions and
//! can be parameterized directly by the *fraction of time under failure*
//! used in Figs 4 and 5.

use sps_sim::{SimDuration, SimRng, SimTime};

/// A distribution over non-negative reals, used for spike timing and shares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    /// Always the same value (regular arrivals / fixed durations).
    Fixed(f64),
    /// Exponential with the given mean (Poisson arrivals).
    Exp {
        /// Mean of the distribution.
        mean: f64,
    },
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
}

impl Dist {
    /// Draws one sample.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match *self {
            Dist::Fixed(v) => v,
            Dist::Exp { mean } => rng.exp(mean),
            Dist::Uniform { lo, hi } => rng.uniform(lo, hi),
        }
    }
}

/// One background-load spike in a schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpikeWindow {
    /// When the spike begins.
    pub start: SimTime,
    /// When the spike ends.
    pub end: SimTime,
    /// CPU share the spike consumes, in `[0, 1]`.
    pub share: f64,
}

impl SpikeWindow {
    /// The spike's duration.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }

    /// `true` if `t` falls inside the spike (half-open interval).
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }
}

/// A generator of transient-failure load spikes.
#[derive(Debug, Clone)]
pub struct SpikeProfile {
    /// Off-time between the end of one spike and the start of the next.
    pub off_time: Dist,
    /// Spike duration.
    pub duration: Dist,
    /// CPU share consumed during the spike.
    pub share: Dist,
    /// Delay before the first spike (defaults to one off-time draw).
    pub initial_delay: Option<Dist>,
}

impl SpikeProfile {
    /// A profile that keeps the machine under failure for `fraction` of the
    /// time on average, with exponentially distributed spike durations of
    /// the given mean (Poisson arrivals). This is the §V-B parameterization:
    /// "we vary the fraction of time when transient failures are present".
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction < 1` and `mean_duration` is positive.
    pub fn duty_cycle(fraction: f64, mean_duration: SimDuration) -> Self {
        assert!(
            fraction > 0.0 && fraction < 1.0,
            "failure-time fraction must be in (0, 1), got {fraction}"
        );
        let d = mean_duration.as_secs_f64();
        assert!(d > 0.0, "mean duration must be positive");
        let off_mean = d * (1.0 - fraction) / fraction;
        SpikeProfile {
            off_time: Dist::Exp { mean: off_mean },
            duration: Dist::Exp { mean: d },
            // The paper's spikes push machines to 95–100 % CPU.
            share: Dist::Uniform { lo: 0.95, hi: 1.0 },
            initial_delay: None,
        }
    }

    /// A regular (deterministic-interval) profile: spikes of `duration`
    /// starting every `period`, consuming `share` of the CPU.
    ///
    /// # Panics
    ///
    /// Panics if `duration >= period`.
    pub fn regular(period: SimDuration, duration: SimDuration, share: f64) -> Self {
        assert!(
            duration < period,
            "spike duration {duration} must be shorter than the period {period}"
        );
        SpikeProfile {
            off_time: Dist::Fixed((period - duration).as_secs_f64()),
            duration: Dist::Fixed(duration.as_secs_f64()),
            share: Dist::Fixed(share),
            initial_delay: None,
        }
    }

    /// Generates the spike schedule for `[0, horizon)`.
    ///
    /// Spikes never overlap; a spike crossing the horizon is truncated.
    pub fn generate(&self, rng: &mut SimRng, horizon: SimTime) -> Vec<SpikeWindow> {
        let mut windows = Vec::new();
        let first_gap = self
            .initial_delay
            .as_ref()
            .unwrap_or(&self.off_time)
            .sample(rng);
        let mut cursor = SimTime::ZERO + SimDuration::from_secs_f64(first_gap.max(0.0));
        while cursor < horizon {
            let dur = SimDuration::from_secs_f64(self.duration.sample(rng).max(0.0));
            if dur.is_zero() {
                // Avoid degenerate zero-length spikes stalling the loop.
                cursor += SimDuration::from_millis(1);
                continue;
            }
            let end = (cursor + dur).min(horizon);
            windows.push(SpikeWindow {
                start: cursor,
                end,
                share: self.share.sample(rng).clamp(0.0, 1.0),
            });
            let off = SimDuration::from_secs_f64(self.off_time.sample(rng).max(0.0));
            cursor = end + off.max(SimDuration::from_nanos(1));
        }
        windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from(1234)
    }

    #[test]
    fn dist_samples_average_to_the_mean() {
        let mut r = rng();
        for dist in [
            Dist::Fixed(3.0),
            Dist::Exp { mean: 3.0 },
            Dist::Uniform { lo: 2.0, hi: 4.0 },
        ] {
            let n = 30_000;
            let emp: f64 = (0..n).map(|_| dist.sample(&mut r)).sum::<f64>() / n as f64;
            assert!((emp - 3.0).abs() / 3.0 < 0.1, "{dist:?}: empirical {emp}");
        }
    }

    #[test]
    fn regular_profile_is_periodic() {
        let profile =
            SpikeProfile::regular(SimDuration::from_secs(60), SimDuration::from_secs(10), 0.97);
        let windows = profile.generate(&mut rng(), SimTime::from_secs(600));
        assert_eq!(windows.len(), 10);
        for (i, w) in windows.iter().enumerate() {
            assert_eq!(w.start, SimTime::from_secs(50 + 60 * i as u64));
            assert_eq!(w.duration(), SimDuration::from_secs(10));
            assert!((w.share - 0.97).abs() < 1e-12);
        }
    }

    #[test]
    fn duty_cycle_hits_target_fraction() {
        let profile = SpikeProfile::duty_cycle(0.3, SimDuration::from_secs(5));
        let horizon = SimTime::from_secs(20_000);
        let windows = profile.generate(&mut rng(), horizon);
        let on: f64 = windows.iter().map(|w| w.duration().as_secs_f64()).sum();
        let frac = on / horizon.as_secs_f64();
        assert!((frac - 0.3).abs() < 0.03, "observed fraction {frac}");
    }

    #[test]
    fn windows_never_overlap_and_stay_in_horizon() {
        let profile = SpikeProfile::duty_cycle(0.5, SimDuration::from_secs(2));
        let horizon = SimTime::from_secs(1_000);
        let windows = profile.generate(&mut rng(), horizon);
        assert!(!windows.is_empty());
        for pair in windows.windows(2) {
            assert!(pair[0].end <= pair[1].start, "windows overlap");
        }
        for w in &windows {
            assert!(w.end <= horizon);
            assert!(w.start < w.end);
            assert!((0.0..=1.0).contains(&w.share));
        }
    }

    #[test]
    fn contains_is_half_open() {
        let w = SpikeWindow {
            start: SimTime::from_secs(1),
            end: SimTime::from_secs(2),
            share: 1.0,
        };
        assert!(w.contains(SimTime::from_secs(1)));
        assert!(!w.contains(SimTime::from_secs(2)));
        assert!(!w.contains(SimTime::ZERO));
    }

    #[test]
    fn initial_delay_overrides_first_gap() {
        let mut profile =
            SpikeProfile::regular(SimDuration::from_secs(10), SimDuration::from_secs(1), 1.0);
        profile.initial_delay = Some(Dist::Fixed(2.0));
        let windows = profile.generate(&mut rng(), SimTime::from_secs(30));
        assert_eq!(windows[0].start, SimTime::from_secs(2));
    }
}
