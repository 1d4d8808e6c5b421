//! `LatencyRecorder` against the implementation it replaced.
//!
//! The recorder used to keep every sample twice as `f64` milliseconds (a
//! sorted-on-demand vector for quantiles, an `(arrival, latency)` series for
//! windowed means). It now keeps integer nanoseconds in a narrow/wide column
//! pair and folds the window means online; every figure it reports must
//! still be the same float, bit for bit. The old implementation lives on
//! here as the model.

use sps_metrics::{LatencyRecorder, OnlineStats};
use sps_sim::SimRng;

const QUANTILES: [f64; 6] = [0.0, 0.5, 0.9, 0.99, 0.999, 1.0];
const NARROW_MAX: u64 = u32::MAX as u64;

/// The parent implementation: `f64` samples, stable float sort, post-hoc
/// partition of the kept series.
#[derive(Default)]
struct Model {
    stats: OnlineStats,
    samples: Vec<f64>,
    kept: Vec<(f64, f64)>,
}

impl Model {
    fn record(&mut self, created_s: f64, latency_ms: f64) {
        self.stats.record(latency_ms);
        self.samples.push(latency_ms);
        self.kept.push((created_s, latency_ms));
    }

    fn quantile_ms(&mut self, q: f64) -> Option<f64> {
        self.samples
            .sort_by(|a, b| a.partial_cmp(b).expect("no NaN recorded"));
        if self.samples.is_empty() {
            return None;
        }
        let n = self.samples.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.samples[rank - 1])
    }

    fn window_means(&self, windows: &[(f64, f64)]) -> (f64, f64) {
        let mut inside = OnlineStats::new();
        let mut outside = OnlineStats::new();
        for &(t, lat) in &self.kept {
            if windows.iter().any(|&(s, e)| s <= t && t < e) {
                inside.record(lat);
            } else {
                outside.record(lat);
            }
        }
        (inside.mean(), outside.mean())
    }
}

fn bits(x: Option<f64>) -> Option<u64> {
    x.map(f64::to_bits)
}

/// Every figure both report, compared as bits.
fn assert_same_figures(r: &mut LatencyRecorder, m: &mut Model, windows: &[(f64, f64)], what: &str) {
    assert_eq!(r.count(), m.stats.count(), "{what}: count");
    assert_eq!(
        r.mean_ms().to_bits(),
        m.stats.mean().to_bits(),
        "{what}: mean"
    );
    assert_eq!(bits(r.max_ms()), bits(m.stats.max()), "{what}: max");
    for q in QUANTILES {
        assert_eq!(
            bits(r.quantile_ms(q)),
            bits(m.quantile_ms(q)),
            "{what}: q{q}"
        );
    }
    if !windows.is_empty() {
        let (ri, ro) = r.window_means();
        let (mi, mo) = m.window_means(windows);
        assert_eq!(
            (ri.to_bits(), ro.to_bits()),
            (mi.to_bits(), mo.to_bits()),
            "{what}: window means"
        );
    }
}

fn feed(r: &mut LatencyRecorder, m: &mut Model, samples: &[(f64, u64)]) {
    for &(created_s, ns) in samples {
        r.record(created_s, ns);
        m.record(created_s, ns as f64 / 1e6);
    }
}

fn check(samples: &[(f64, u64)], windows: &[(f64, f64)], what: &str) {
    let (mut r, mut m) = (LatencyRecorder::new(), Model::default());
    r.declare_windows(windows);
    feed(&mut r, &mut m, samples);
    assert_same_figures(&mut r, &mut m, windows, what);
}

/// Mostly sub-second latencies with a tail, and `wide_share` of them past
/// the narrow column's 4.29 s.
fn random_samples(rng: &mut SimRng, n: usize, wide_share: f64) -> Vec<(f64, u64)> {
    (0..n)
        .map(|_| {
            let ns = if rng.chance(wide_share) {
                rng.uniform_u64(NARROW_MAX - 2, 30_000_000_000)
            } else {
                rng.exp(20e6) as u64
            };
            (rng.uniform(0.0, 60.0), ns)
        })
        .collect()
}

#[test]
fn seeded_random_inputs_match_the_model() {
    let mut rng = SimRng::seed_from(2010);
    for round in 0..40 {
        let n = rng.uniform_u64(1, 5_000) as usize;
        let wide_share = *rng.pick(&[0.0, 0.0, 0.001, 0.05, 0.6, 1.0]);
        let samples = random_samples(&mut rng, n, wide_share);
        let windows: Vec<(f64, f64)> = (0..rng.uniform_u64(1, 5))
            .map(|_| {
                let start = rng.uniform(0.0, 60.0);
                (start, start + rng.uniform(0.0, 10.0))
            })
            .collect();
        check(&samples, &windows, &format!("round {round}"));
    }
}

#[test]
fn empty_and_single_sample() {
    check(&[], &[(0.0, 1.0)], "empty");
    let mut r = LatencyRecorder::new();
    assert_eq!(r.quantile_ms(0.5), None);
    assert_eq!(r.max_ms(), None);
    assert_eq!(r.mean_ms(), 0.0);
    for ns in [0, 1, 739_664, NARROW_MAX, NARROW_MAX + 1] {
        check(&[(0.5, ns)], &[(0.0, 1.0)], &format!("n = 1, {ns} ns"));
    }
}

/// The rank is `ceil(q * n)` in floating point, taken verbatim: `0.99 *
/// 100.0` is exactly `99.0` (rank 99), but `0.07 * 100.0` is
/// `7.000000000000001`, so its nearest rank is 8, not 7. Pinned behaviour,
/// not an accident to fix.
#[test]
fn a_hundred_samples_pin_the_float_rank_rule() {
    let samples: Vec<(f64, u64)> = (1..=100).map(|i| (i as f64, i * 1_000_000)).collect();
    check(&samples, &[(10.0, 20.0)], "n = 100");
    let (mut r, mut m) = (LatencyRecorder::new(), Model::default());
    feed(&mut r, &mut m, &samples);
    assert_eq!(r.quantile_ms(0.99), Some(99.0));
    assert_eq!(r.quantile_ms(0.07), Some(8.0));
    for percent in 0..=100 {
        let q = percent as f64 / 100.0;
        assert_eq!(bits(r.quantile_ms(q)), bits(m.quantile_ms(q)), "q{q}");
    }
}

#[test]
fn all_equal_samples() {
    check(&[(1.0, 3_019_216); 257], &[(0.0, 2.0)], "narrow");
    check(&[(1.0, 5_993_717_222); 257], &[(0.0, 2.0)], "wide");
}

#[test]
fn the_narrow_wide_boundary() {
    let edge = [NARROW_MAX - 1, NARROW_MAX, NARROW_MAX + 1];
    for rotate in 0..3 {
        let samples: Vec<(f64, u64)> = (0..9).map(|i| (i as f64, edge[(i + rotate) % 3])).collect();
        check(&samples, &[(2.0, 5.0)], &format!("rotation {rotate}"));
    }
}

#[test]
fn mostly_narrow_with_long_recovery_outliers() {
    let mut rng = SimRng::seed_from(424_242);
    let mut samples = random_samples(&mut rng, 2_000, 0.0);
    for (i, ns) in [
        4_300_000_000u64,
        6_000_000_000,
        29_999_999_999,
        u64::MAX >> 11,
    ]
    .into_iter()
    .enumerate()
    {
        samples.insert(i * 500 + 3, (i as f64, ns));
    }
    check(&samples, &[(0.0, 2.5), (30.0, 31.0)], "outliers");
}

#[test]
fn records_after_a_query_are_resorted() {
    let mut rng = SimRng::seed_from(7);
    let windows = [(5.0, 25.0)];
    let (mut r, mut m) = (LatencyRecorder::new(), Model::default());
    r.declare_windows(&windows);
    for round in 0..4 {
        feed(&mut r, &mut m, &random_samples(&mut rng, 300, 0.1));
        assert_same_figures(&mut r, &mut m, &windows, &format!("after batch {round}"));
    }
}

#[test]
fn overlapping_and_zero_width_windows() {
    let mut rng = SimRng::seed_from(99);
    let mut samples = random_samples(&mut rng, 1_000, 0.02);
    // Elements born exactly on window edges.
    samples.extend([(10.0, 1), (20.0, 2), (15.0, 3), (30.0, 4)]);
    check(
        &samples,
        &[(10.0, 20.0), (15.0, 30.0), (12.0, 13.0)],
        "overlap",
    );
    // A zero-width window is half-open and so contains nothing.
    check(&samples, &[(15.0, 15.0)], "zero width");
    check(
        &samples,
        &[(15.0, 15.0), (10.0, 20.0)],
        "zero width beside a real one",
    );
}
