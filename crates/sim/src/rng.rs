//! Seeded randomness for simulations.
//!
//! [`SimRng`] is a self-contained deterministic PRNG (xoshiro256++) plus the
//! distributions the cluster and workload models need (exponential, Pareto,
//! log-normal, truncated normal) without pulling in external crates.
//! Substreams created via [`SimRng::fork`] are independent of the order in
//! which the parent stream is consumed, so adding a new consumer does not
//! perturb existing runs.

/// SplitMix64 step: expands a 64-bit seed into well-mixed state words.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic random-number generator for simulation components.
///
/// ```
/// use sps_sim::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { state, seed }
    }

    /// The seed this generator was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent substream identified by `stream`.
    ///
    /// Forking depends only on `(seed, stream)`, never on how much of the
    /// parent stream has been consumed.
    pub fn fork(&self, stream: u64) -> SimRng {
        // SplitMix64-style mix of (seed, stream).
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        SimRng::seed_from(z)
    }

    /// The next raw 64-bit value (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.state[0]
            .wrapping_add(self.state[3])
            .rotate_left(23)
            .wrapping_add(self.state[0]);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 high bits scaled into [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid uniform bounds [{lo}, {hi})"
        );
        if lo == hi {
            lo
        } else {
            lo + (hi - lo) * self.unit()
        }
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "invalid uniform_u64 bounds [{lo}, {hi})");
        let span = hi - lo;
        // Debiased multiply-shift (Lemire): rejection keeps the draw exact.
        let threshold = span.wrapping_neg() % span;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (span as u128);
            if (m as u64) >= threshold {
                return lo + (m >> 64) as u64;
            }
        }
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// An exponential variate with the given mean (rate `1 / mean`).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn exp(&mut self, mean: f64) -> f64 {
        assert!(
            mean > 0.0 && mean.is_finite(),
            "exponential mean must be positive, got {mean}"
        );
        // Inverse CDF; 1 - unit() is in (0, 1] so ln() is finite.
        -mean * (1.0 - self.unit()).ln()
    }

    /// A Pareto variate with minimum `scale` and tail index `shape`.
    ///
    /// Heavier tails for smaller `shape`; mean is finite only for
    /// `shape > 1`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` or `shape` is not positive and finite.
    pub fn pareto(&mut self, scale: f64, shape: f64) -> f64 {
        assert!(
            scale > 0.0 && scale.is_finite() && shape > 0.0 && shape.is_finite(),
            "invalid pareto parameters scale={scale} shape={shape}"
        );
        scale / (1.0 - self.unit()).powf(1.0 / shape)
    }

    /// A standard-normal variate (Box–Muller).
    fn standard_normal(&mut self) -> f64 {
        let u1: f64 = 1.0 - self.unit(); // (0, 1]
        let u2: f64 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// A normal variate with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or NaN.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(
            std_dev >= 0.0 && std_dev.is_finite(),
            "normal std_dev must be non-negative, got {std_dev}"
        );
        mean + std_dev * self.standard_normal()
    }

    /// A normal variate truncated below at `floor`.
    pub fn normal_at_least(&mut self, mean: f64, std_dev: f64, floor: f64) -> f64 {
        self.normal(mean, std_dev).max(floor)
    }

    /// A log-normal variate parameterized by the mean and standard deviation
    /// of the underlying normal.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// A uniformly chosen element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot pick from an empty slice");
        &items[self.uniform_u64(0, items.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fork_is_consumption_independent() {
        let mut parent = SimRng::seed_from(99);
        let fork_before = parent.fork(5);
        let _ = parent.next_u64(); // consume some of the parent stream
        let fork_after = parent.fork(5);
        assert_eq!(fork_before.seed(), fork_after.seed());
    }

    #[test]
    fn fork_streams_are_distinct() {
        let parent = SimRng::seed_from(99);
        assert_ne!(parent.fork(1).seed(), parent.fork(2).seed());
    }

    #[test]
    fn exp_mean_is_approximately_right() {
        let mut rng = SimRng::seed_from(3);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.exp(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.15, "empirical mean {mean}");
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SimRng::seed_from(11);
        for _ in 0..1_000 {
            let x = rng.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
        }
        assert_eq!(rng.uniform(5.0, 5.0), 5.0);
    }

    #[test]
    fn uniform_u64_covers_range_without_bias_artifacts() {
        let mut rng = SimRng::seed_from(29);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let x = rng.uniform_u64(3, 10);
            assert!((3..10).contains(&x));
            seen[(x - 3) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "every bucket hit: {seen:?}");
    }

    #[test]
    fn unit_stays_in_half_open_interval() {
        let mut rng = SimRng::seed_from(31);
        for _ in 0..10_000 {
            let x = rng.unit();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn pareto_respects_scale() {
        let mut rng = SimRng::seed_from(13);
        for _ in 0..1_000 {
            assert!(rng.pareto(1.5, 2.0) >= 1.5);
        }
    }

    #[test]
    fn normal_is_centered() {
        let mut rng = SimRng::seed_from(17);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.normal(10.0, 2.0)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "empirical mean {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(19);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn normal_at_least_clamps() {
        let mut rng = SimRng::seed_from(23);
        for _ in 0..1_000 {
            assert!(rng.normal_at_least(0.0, 10.0, 0.5) >= 0.5);
        }
    }
}
