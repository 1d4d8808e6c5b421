//! Empirical distributions: quantiles, CDF evaluation, and CDF curves for
//! the paper's Figure 2/3-style plots.

/// An empirical distribution built from raw samples.
///
/// Samples are kept and sorted lazily; suitable for the experiment sizes in
/// this workspace (up to a few million points).
///
/// ```
/// use sps_metrics::Cdf;
///
/// let mut cdf: Cdf = (1..=100).map(|i| i as f64).collect();
/// assert_eq!(cdf.quantile(0.5), Some(50.0));
/// assert_eq!(cdf.fraction_at_most(25.0), 0.25);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Cdf {
    samples: Vec<f64>,
    sorted: bool,
}

impl Cdf {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        Cdf::default()
    }

    /// Adds one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "cannot record NaN");
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("no NaN recorded"));
            self.sorted = true;
        }
    }

    /// The `q`-quantile (nearest-rank), or `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= q <= 1`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0,1], got {q}"
        );
        self.ensure_sorted();
        if self.samples.is_empty() {
            return None;
        }
        let n = self.samples.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.samples[rank - 1])
    }

    /// The median, or `None` when empty.
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// The fraction of samples `<= x` (0 when empty).
    pub fn fraction_at_most(&mut self, x: f64) -> f64 {
        self.ensure_sorted();
        if self.samples.is_empty() {
            return 0.0;
        }
        let idx = self.samples.partition_point(|&s| s <= x);
        idx as f64 / self.samples.len() as f64
    }

    /// The sample mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// `points` evenly spaced `(x, F(x))` pairs spanning the sample range —
    /// the series a CDF figure plots.
    ///
    /// Returns an empty vector when there are no samples or `points < 2`.
    pub fn curve(&mut self, points: usize) -> Vec<(f64, f64)> {
        self.ensure_sorted();
        if self.samples.is_empty() || points < 2 {
            return Vec::new();
        }
        let lo = self.samples[0];
        let hi = self.samples[self.samples.len() - 1];
        (0..points)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (points - 1) as f64;
                let f =
                    self.samples.partition_point(|&s| s <= x) as f64 / self.samples.len() as f64;
                (x, f)
            })
            .collect()
    }
}

impl FromIterator<f64> for Cdf {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut c = Cdf::new();
        for x in iter {
            c.record(x);
        }
        c
    }
}

impl Extend<f64> for Cdf {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.record(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_nearest_rank() {
        let mut c: Cdf = [10.0, 20.0, 30.0, 40.0].into_iter().collect();
        assert_eq!(c.quantile(0.0), Some(10.0));
        assert_eq!(c.quantile(0.25), Some(10.0));
        assert_eq!(c.quantile(0.26), Some(20.0));
        assert_eq!(c.quantile(0.5), Some(20.0));
        assert_eq!(c.quantile(1.0), Some(40.0));
    }

    #[test]
    fn fraction_at_most_counts_inclusive() {
        let mut c: Cdf = [1.0, 2.0, 2.0, 3.0].into_iter().collect();
        assert_eq!(c.fraction_at_most(0.5), 0.0);
        assert_eq!(c.fraction_at_most(2.0), 0.75);
        assert_eq!(c.fraction_at_most(10.0), 1.0);
    }

    #[test]
    fn empty_cdf_is_sane() {
        let mut c = Cdf::new();
        assert!(c.is_empty());
        assert_eq!(c.quantile(0.5), None);
        assert_eq!(c.fraction_at_most(1.0), 0.0);
        assert_eq!(c.mean(), 0.0);
        assert!(c.curve(10).is_empty());
    }

    #[test]
    fn curve_spans_range_and_is_monotone() {
        let mut c: Cdf = (0..1000).map(|i| i as f64 / 10.0).collect();
        let curve = c.curve(21);
        assert_eq!(curve.len(), 21);
        assert_eq!(curve[0].0, 0.0);
        assert!((curve[20].0 - 99.9).abs() < 1e-9);
        assert!((curve.last().unwrap().1 - 1.0).abs() < 1e-12);
        for pair in curve.windows(2) {
            assert!(pair[1].1 >= pair[0].1, "CDF must be monotone");
        }
    }

    #[test]
    fn recording_after_query_resorts() {
        let mut c: Cdf = [5.0].into_iter().collect();
        assert_eq!(c.median(), Some(5.0));
        c.record(1.0);
        c.record(9.0);
        assert_eq!(c.median(), Some(5.0));
    }

    #[test]
    fn mean_matches_sum() {
        let c: Cdf = [1.0, 2.0, 3.0].into_iter().collect();
        assert!((c.mean() - 2.0).abs() < 1e-12);
    }
}
