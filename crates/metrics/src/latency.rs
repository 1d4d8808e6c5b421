//! End-to-end latency of data elements from source to sink, the paper's
//! headline metric (Figs 4–5; the §V-B "8-fold increase" during failures is
//! the inside/outside window means). Design and exactness: DESIGN.md §11a.

use crate::stats::OnlineStats;
use std::ops::Range;

/// Records per-element end-to-end latencies: integer nanoseconds in,
/// milliseconds (`ns as f64 / 1e6`) out. The map is monotone, so
/// nearest-rank quantiles over the integers are the quantiles over the
/// floats. Samples up to `u32::MAX` ns (4.29 s) go to the narrow column,
/// longer ones to the wide list; every narrow sample ranks before every
/// wide one.
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    stats: OnlineStats,
    narrow: Vec<u32>,
    wide: Vec<u64>,
    windows: Vec<Range<f64>>,
    /// Outside, inside: folded in arrival order as samples are recorded.
    window_stats: [OnlineStats; 2],
}

impl LatencyRecorder {
    /// Creates an empty recorder with no windows.
    pub fn new() -> Self {
        LatencyRecorder::default()
    }

    /// Declares the half-open `(start_s, end_s)` windows, in element
    /// *creation* time, that [`window_means`](Self::window_means) partitions
    /// by. Panics once a sample is recorded (it was partitioned without
    /// them) and on a reversed window or a NaN bound.
    pub fn declare_windows(&mut self, windows: &[(f64, f64)]) {
        assert!(self.count() == 0, "LatencyRecorder: windows declared late");
        for &(s, e) in windows {
            assert!(s <= e, "LatencyRecorder: window ({s}, {e}) reversed or NaN");
        }
        self.windows = windows.iter().map(|&(s, e)| s..e).collect();
    }

    /// Records one element's latency in nanoseconds, keyed by the element's
    /// creation time in seconds.
    pub fn record(&mut self, created_s: f64, latency_ns: u64) {
        let ms = latency_ns as f64 / 1e6;
        self.stats.record(ms);
        match u32::try_from(latency_ns) {
            Ok(ns) => self.narrow.push(ns),
            Err(_) => self.wide.push(latency_ns),
        }
        if !self.windows.is_empty() {
            let inside = self.windows.iter().any(|w| w.contains(&created_s));
            self.window_stats[usize::from(inside)].record(ms);
        }
    }

    /// Number of elements recorded.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Mean latency in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.stats.mean()
    }

    /// Latency quantile in milliseconds (nearest rank), or `None` if empty.
    /// Panics unless `0 <= q <= 1`.
    pub fn quantile_ms(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} is not in [0,1]");
        // On every query: re-sorting sorted integers is one linear pass.
        self.narrow.sort_unstable();
        self.wide.sort_unstable();
        let n = self.narrow.len() + self.wide.len();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        let ns = match self.narrow.get(rank - 1) {
            Some(&ns) => u64::from(ns),
            None => self.wide[rank - 1 - self.narrow.len()],
        };
        Some(ns as f64 / 1e6)
    }

    /// Maximum latency in milliseconds, or `None` if empty.
    pub fn max_ms(&self) -> Option<f64> {
        self.stats.max()
    }

    /// Mean latency of elements created inside any declared window versus
    /// outside all of them, `(inside_ms, outside_ms)`; zero for an empty
    /// partition, and for both when no window was declared.
    pub fn window_means(&self) -> (f64, f64) {
        (self.window_stats[1].mean(), self.window_stats[0].mean())
    }

    /// Heap bytes of the sample columns, the only state that grows per sample.
    pub fn sample_bytes(&self) -> usize {
        4 * self.narrow.capacity() + 8 * self.wide.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn aggregates_track_records() {
        let mut r = LatencyRecorder::new();
        r.record(0.0, 10 * MS);
        r.record(1.0, 20 * MS);
        r.record(2.0, 30 * MS);
        assert_eq!(r.count(), 3);
        assert_eq!(r.mean_ms(), 20.0);
        assert_eq!(r.max_ms(), Some(30.0));
        assert_eq!(r.quantile_ms(1.0), Some(30.0));
        assert_eq!(r.window_means(), (0.0, 0.0), "no window declared");
        assert_eq!(r.sample_bytes(), 4 * 4, "three u32 in a Vec grown to 4");
    }

    #[test]
    fn inside_outside_partition() {
        let mut r = LatencyRecorder::new();
        // Failure window [10, 20): slow elements inside.
        r.declare_windows(&[(10.0, 20.0)]);
        r.record(5.0, 10 * MS);
        r.record(12.0, 80 * MS);
        r.record(15.0, 120 * MS);
        r.record(25.0, 10 * MS);
        assert_eq!(r.window_means(), (100.0, 10.0));
    }

    #[test]
    fn window_boundaries_are_half_open_and_empty_partitions_are_zero() {
        let mut r = LatencyRecorder::new();
        r.declare_windows(&[(10.0, 20.0)]);
        r.record(20.0, 2 * MS);
        assert_eq!(r.window_means(), (0.0, 2.0));
        r.record(10.0, MS);
        assert_eq!(r.window_means(), (1.0, 2.0));
    }

    #[test]
    fn wide_samples_rank_after_narrow_ones() {
        let mut r = LatencyRecorder::new();
        for ns in [u32::MAX as u64 + 1, 7, 30_000 * MS, u32::MAX as u64] {
            r.record(0.0, ns);
        }
        assert_eq!(r.sample_bytes(), 4 * 4 + 4 * 8, "two narrow, two wide");
        assert_eq!(r.quantile_ms(0.25), Some(7e-6));
        assert_eq!(r.quantile_ms(0.5), Some(u32::MAX as f64 / 1e6));
        assert_eq!(
            r.quantile_ms(0.75),
            Some((u32::MAX as u64 + 1) as f64 / 1e6)
        );
        assert_eq!(r.quantile_ms(1.0), Some(30_000.0));
    }

    #[test]
    #[should_panic(expected = "LatencyRecorder: windows declared late")]
    fn late_window_declaration_is_rejected() {
        let mut r = LatencyRecorder::new();
        r.record(0.0, MS);
        r.declare_windows(&[(0.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "LatencyRecorder: window (2, 1) reversed or NaN")]
    fn reversed_window_is_rejected() {
        LatencyRecorder::new().declare_windows(&[(0.0, 1.0), (2.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "LatencyRecorder: window (NaN, 1) reversed or NaN")]
    fn nan_window_bound_is_rejected() {
        LatencyRecorder::new().declare_windows(&[(f64::NAN, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "quantile 1.5 is not in [0,1]")]
    fn out_of_range_quantile_is_rejected() {
        LatencyRecorder::new().quantile_ms(1.5);
    }
}
