//! Streaming windowed aggregators over the registry's scrape cadence.
//!
//! The metrics registry is cumulative: counters and histograms only grow.
//! The window types here turn a stream of cumulative snapshots — one per
//! scrape — into trailing-window deltas, rates, and quantiles (sliding),
//! and into fixed-boundary per-window series (tumbling). Everything is
//! plain deque bookkeeping over values the caller pushes: no clocks, no
//! randomness, no interaction with the simulation.

use std::collections::VecDeque;

use sps_metrics::LogLinearHistogram;

/// A sliding window over a cumulative counter: retains `(t, value)`
/// samples spanning the trailing `window_ns` and answers delta/rate
/// queries against the oldest retained sample.
#[derive(Debug, Clone)]
pub(crate) struct SlidingCounter {
    window_ns: u64,
    samples: VecDeque<(u64, u64)>,
}

impl SlidingCounter {
    /// An empty window of the given span (nanoseconds).
    pub fn new(window_ns: u64) -> Self {
        SlidingCounter {
            window_ns,
            samples: VecDeque::new(),
        }
    }

    /// Pushes one scrape sample. Keeps the newest sample at or before the
    /// window start so deltas span the full window, not a truncated one.
    /// The very first push seeds a zero baseline at the window start:
    /// registry counters start at zero at sim start, so growth recorded
    /// before the first scrape still counts.
    pub fn push(&mut self, t_ns: u64, value: u64) {
        if self.samples.is_empty() {
            self.samples
                .push_back((t_ns.saturating_sub(self.window_ns), 0));
        }
        self.samples.push_back((t_ns, value));
        let start = t_ns.saturating_sub(self.window_ns);
        while self.samples.len() >= 2 && self.samples[1].0 <= start {
            self.samples.pop_front();
        }
    }

    /// Counter growth across the retained window.
    pub fn delta(&self) -> u64 {
        match (self.samples.front(), self.samples.back()) {
            (Some(&(_, first)), Some(&(_, last))) => last.saturating_sub(first),
            _ => 0,
        }
    }

    /// Growth rate in units per second over the retained window (0 until
    /// two samples exist).
    pub fn rate_per_sec(&self) -> f64 {
        match (self.samples.front(), self.samples.back()) {
            (Some(&(t0, _)), Some(&(t1, _))) if t1 > t0 => {
                self.delta() as f64 / ((t1 - t0) as f64 / 1e9)
            }
            _ => 0.0,
        }
    }
}

/// A sliding window over a cumulative histogram: retains full snapshots
/// and answers windowed quantiles by bucket-diffing newest against oldest.
#[derive(Debug, Clone)]
pub(crate) struct SlidingHistogram {
    window_ns: u64,
    samples: VecDeque<(u64, LogLinearHistogram)>,
}

impl SlidingHistogram {
    /// An empty window of the given span (nanoseconds).
    pub fn new(window_ns: u64) -> Self {
        SlidingHistogram {
            window_ns,
            samples: VecDeque::new(),
        }
    }

    /// Pushes one cumulative snapshot (same retention and zero-baseline
    /// seeding rules as [`SlidingCounter::push`]).
    pub fn push(&mut self, t_ns: u64, snapshot: LogLinearHistogram) {
        if self.samples.is_empty() {
            self.samples.push_back((
                t_ns.saturating_sub(self.window_ns),
                LogLinearHistogram::new(),
            ));
        }
        self.samples.push_back((t_ns, snapshot));
        let start = t_ns.saturating_sub(self.window_ns);
        while self.samples.len() >= 2 && self.samples[1].0 <= start {
            self.samples.pop_front();
        }
    }

    /// Quantile of the observations recorded within the window (bucket
    /// floor, same ~12.5% resolution as the underlying histogram). `None`
    /// when the window recorded nothing.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let (first, last) = match (self.samples.front(), self.samples.back()) {
            (Some((_, f)), Some((_, l))) => (f, l),
            _ => return None,
        };
        if last.count() == first.count() {
            return None;
        }
        Some(last.quantile_between(first, q))
    }
}

/// A tumbling (fixed-boundary, non-overlapping) window series over a
/// cumulative counter: windows close at multiples of the width, and each
/// closed window records its growth rate.
#[derive(Debug, Clone)]
pub(crate) struct TumblingCounter {
    width_ns: u64,
    /// Cumulative value at the last closed boundary.
    boundary_value: u64,
    /// The next boundary to close (0 until the first push).
    next_boundary_ns: u64,
    /// Growth rate (units per second) of each closed window, oldest first.
    rates: Vec<f64>,
}

impl TumblingCounter {
    /// An empty series with the given window width (nanoseconds).
    pub fn new(width_ns: u64) -> Self {
        TumblingCounter {
            width_ns,
            boundary_value: 0,
            next_boundary_ns: 0,
            rates: Vec::new(),
        }
    }

    /// Pushes one scrape sample, closing every boundary at or before
    /// `t_ns`. Scrapes are assumed no coarser than the window width (the
    /// value at a skipped boundary is approximated by the pushed value).
    pub fn push(&mut self, t_ns: u64, value: u64) {
        if self.next_boundary_ns == 0 {
            // First sample: align the first boundary to the next multiple
            // of the width after (or at) this sample.
            self.next_boundary_ns = (t_ns / self.width_ns + 1) * self.width_ns;
            self.boundary_value = value;
            return;
        }
        while t_ns >= self.next_boundary_ns {
            let delta = value.saturating_sub(self.boundary_value);
            self.rates.push(delta as f64 / (self.width_ns as f64 / 1e9));
            self.boundary_value = value;
            self.next_boundary_ns += self.width_ns;
        }
    }

    /// Number of closed windows.
    pub fn window_count(&self) -> usize {
        self.rates.len()
    }

    /// Mean per-window rate across all closed windows (0 when none).
    pub fn mean_rate(&self) -> f64 {
        if self.rates.is_empty() {
            return 0.0;
        }
        self.rates.iter().sum::<f64>() / self.rates.len() as f64
    }

    /// Peak per-window rate across all closed windows (0 when none).
    pub fn max_rate(&self) -> f64 {
        self.rates.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sliding_counter_spans_full_window() {
        let mut w = SlidingCounter::new(1_000);
        w.push(0, 0);
        w.push(500, 5);
        w.push(1_000, 10);
        w.push(1_500, 15);
        // Window start is 500; the sample at t=500 is the newest at-or-
        // before the start and must be retained.
        assert_eq!(w.delta(), 10);
        assert!(w.rate_per_sec() > 0.0);
    }

    #[test]
    fn sliding_counter_rate_is_delta_over_span() {
        let mut w = SlidingCounter::new(1_000_000_000);
        w.push(0, 0);
        w.push(1_000_000_000, 250);
        assert_eq!(w.delta(), 250);
        assert!((w.rate_per_sec() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn sliding_histogram_windows_quantiles() {
        let mut cumulative = LogLinearHistogram::new();
        let mut w = SlidingHistogram::new(1_000);
        for v in [2.0, 2.0, 2.0] {
            cumulative.observe(v);
        }
        w.push(0, cumulative.clone());
        for v in [200.0, 220.0, 260.0] {
            cumulative.observe(v);
        }
        w.push(900, cumulative.clone());
        // Only the recent large values are in the window.
        assert!(w.quantile(0.01).unwrap() > 100.0);
        // New small observations land in a later window; the old large
        // ones slide out once a newer at-or-before-start sample exists.
        for v in [1.0, 1.0] {
            cumulative.observe(v);
        }
        w.push(2_500, cumulative.clone());
        w.push(2_600, cumulative.clone());
        assert!(w.quantile(0.99).unwrap() < 2.0);
        // A quiet stretch leaves the window empty: no quantile.
        w.push(5_000, cumulative);
        assert!(w.quantile(0.5).is_none(), "empty window has no quantile");
    }

    #[test]
    fn tumbling_counter_closes_fixed_boundaries() {
        let mut t = TumblingCounter::new(1_000);
        t.push(100, 0);
        t.push(1_100, 10); // closes the [_, 1000] window
        t.push(2_050, 30); // closes [1000, 2000]
        t.push(3_001, 30); // closes [2000, 3000]
                           // Deltas 10, 20, 0 over 1 µs windows.
        assert_eq!(t.rates, [1e7, 2e7, 0.0]);
        assert_eq!(t.window_count(), 3);
        assert_eq!(t.max_rate(), 2e7);
        assert_eq!(t.mean_rate(), 1e7);
    }
}
