//! OS-level scheduling jitter.
//!
//! Real machines occasionally stall runnable processes for tens of
//! milliseconds (daemon wake-ups, page faults, scheduler artifacts) even
//! without an application-level load spike. These rare stalls are what give
//! heartbeat detection its small-but-nonzero false-alarm rate in the paper
//! (§IV-B reports roughly one false alarm per 11 minutes at ~60 % CPU with a
//! 110 ms heartbeat). [`jitter_stalls`] models them as a Poisson process
//! whose rate grows with machine load and whose stall durations are
//! heavy-tailed (Pareto), so that single-interval misses are rare and
//! three-interval misses are vanishingly rare.
//!
//! The constants are calibrated so that a 110 ms-heartbeat monitor sees
//! roughly one single-miss false alarm per 10–12 minutes at 60 % machine
//! load: rate(0.6) ≈ 0.09 · 0.36 ≈ 0.033 stalls/s, and
//! P(stall > 110 ms) = (20/110)^1.8 ≈ 0.046.

use sps_sim::{SimDuration, SimRng, SimTime};

use crate::load::SpikeWindow;

/// Stall rate per second at 100 % machine load.
const BASE_RATE_PER_SEC: f64 = 0.09;
/// The rate scales as `load^LOAD_EXPONENT`.
const LOAD_EXPONENT: f64 = 2.0;
/// Minimum stall duration in seconds (the Pareto scale).
const STALL_SCALE_SECS: f64 = 0.020;
/// Pareto tail index of the stall duration; smaller is heavier.
const STALL_SHAPE: f64 = 1.8;

/// The stall arrival rate (per second) at the given machine load.
fn stall_rate_at(load: f64) -> f64 {
    BASE_RATE_PER_SEC * load.clamp(0.0, 1.0).powf(LOAD_EXPONENT)
}

/// Generates the stall schedule for `[0, horizon)` assuming a constant
/// ambient `load`. Stalls consume the whole CPU while active.
pub fn jitter_stalls(rng: &mut SimRng, horizon: SimTime, load: f64) -> Vec<SpikeWindow> {
    let rate = stall_rate_at(load);
    if rate <= 0.0 {
        return Vec::new();
    }
    let mean_gap = 1.0 / rate;
    let mut windows = Vec::new();
    let mut cursor = SimTime::ZERO + SimDuration::from_secs_f64(rng.exp(mean_gap));
    while cursor < horizon {
        let dur = SimDuration::from_secs_f64(rng.pareto(STALL_SCALE_SECS, STALL_SHAPE));
        let end = (cursor + dur).min(horizon);
        if end > cursor {
            windows.push(SpikeWindow {
                start: cursor,
                end,
                share: 1.0,
            });
        }
        cursor = end + SimDuration::from_secs_f64(rng.exp(mean_gap));
    }
    windows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_grows_with_load() {
        assert!(stall_rate_at(0.9) > stall_rate_at(0.6));
        assert!(stall_rate_at(0.6) > stall_rate_at(0.3));
        assert_eq!(stall_rate_at(0.0), 0.0);
    }

    #[test]
    fn empirical_rate_matches_profile() {
        let mut rng = SimRng::seed_from(9);
        let horizon = SimTime::from_secs(200_000);
        let stalls = jitter_stalls(&mut rng, horizon, 0.6);
        let rate = stalls.len() as f64 / horizon.as_secs_f64();
        let want = stall_rate_at(0.6);
        assert!(
            (rate - want).abs() / want < 0.1,
            "empirical {rate} vs wanted {want}"
        );
    }

    #[test]
    fn long_stall_tail_is_rare_but_present() {
        // The calibration story: ~4–5 % of stalls exceed 110 ms, well under
        // 1 % exceed 330 ms (three heartbeat intervals).
        let mut rng = SimRng::seed_from(10);
        let horizon = SimTime::from_secs(2_000_000);
        let stalls = jitter_stalls(&mut rng, horizon, 1.0);
        let over_1 = stalls
            .iter()
            .filter(|s| s.duration() > SimDuration::from_millis(110))
            .count() as f64
            / stalls.len() as f64;
        let over_3 = stalls
            .iter()
            .filter(|s| s.duration() > SimDuration::from_millis(330))
            .count() as f64
            / stalls.len() as f64;
        assert!((0.02..0.08).contains(&over_1), "P(>110ms) = {over_1}");
        assert!(over_3 < 0.012, "P(>330ms) = {over_3}");
        assert!(over_3 < over_1 / 3.0);
    }

    /// Pins the default stall schedule: seed 7, one hour at 60 % load. No
    /// golden run draws jitter, so this is what holds the calibration.
    #[test]
    fn default_stall_schedule_digest() {
        let mut rng = SimRng::seed_from(7);
        let stalls = jitter_stalls(&mut rng, SimTime::from_secs(3_600), 0.6);
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for s in &stalls {
            for ns in [s.start.as_nanos(), s.end.as_nanos()] {
                for b in ns.to_le_bytes() {
                    hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        assert_eq!((stalls.len(), hash), (138, 0x0b84_9b79_06cd_4e4a));
    }

    #[test]
    fn stalls_are_ordered_and_bounded() {
        let mut rng = SimRng::seed_from(11);
        let horizon = SimTime::from_secs(50_000);
        let stalls = jitter_stalls(&mut rng, horizon, 0.8);
        for pair in stalls.windows(2) {
            assert!(pair[0].end <= pair[1].start);
        }
        for s in &stalls {
            assert!(s.end <= horizon);
            assert_eq!(s.share, 1.0);
        }
    }
}
