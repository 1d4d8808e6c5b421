//! Transient-failure detection.
//!
//! Two detectors from §IV-A / §V-C:
//!
//! * [`HeartbeatMonitor`] — "the convention wisdom stands out": a monitoring
//!   machine pings the monitored (primary) machine every interval; the
//!   monitored machine's reply competes for CPU with everything else, so a
//!   load spike starves replies and misses accumulate. Passive standby
//!   declares after 3 consecutive misses; the hybrid acts on the first.
//! * [`BenchmarkDetector`] — the sophisticated alternative: sample CPU load
//!   at fine granularity, and when it crosses `load_threshold`, time a
//!   standard set of elements and compare with an idle-machine benchmark.
//!   The paper finds it over-sensitive and false-alarm-prone, which Figs
//!   12–13 reproduce.
//!
//! Both are pure state machines; the world feeds them events and acts on
//! their verdicts.

use sps_sim::{SimDuration, SimTime};

/// A heartbeat verdict produced when a ping is (about to be) sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HbVerdict {
    /// Nothing notable.
    Ok,
    /// The miss streak just reached `streak`.
    Missed {
        /// Current consecutive-miss count.
        streak: u32,
    },
}

/// The monitor side of heartbeat failure detection.
#[derive(Debug, Clone)]
pub struct HeartbeatMonitor {
    next_seq: u64,
    last_pong_seq: u64,
    miss_streak: u32,
    /// Pings sent before this sequence number cannot clear a suspicion
    /// (stale pongs delayed by the failure itself must not trigger
    /// rollback).
    suspicion_floor_seq: u64,
    suspected: bool,
}

impl HeartbeatMonitor {
    /// Creates a monitor that has not pinged yet.
    pub fn new() -> Self {
        HeartbeatMonitor {
            next_seq: 1,
            last_pong_seq: 0,
            miss_streak: 0,
            suspicion_floor_seq: 0,
            suspected: false,
        }
    }

    /// Called at each heartbeat tick *before* sending the next ping:
    /// evaluates whether the previous ping was answered, then returns the
    /// sequence number to send.
    pub fn tick(&mut self) -> (u64, HbVerdict) {
        let verdict = if self.next_seq == 1 {
            HbVerdict::Ok // nothing outstanding before the first ping
        } else if self.last_pong_seq >= self.next_seq - 1 {
            self.miss_streak = 0;
            HbVerdict::Ok
        } else {
            self.miss_streak += 1;
            HbVerdict::Missed {
                streak: self.miss_streak,
            }
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        (seq, verdict)
    }

    /// Registers a reply. Returns `true` if this pong is *fresh evidence of
    /// responsiveness* while the machine was suspected — the hybrid's
    /// rollback trigger. Fresh means it answers a ping sent after suspicion
    /// began AND within the last two intervals: a reply that spent seconds
    /// starved on the failing machine proves nothing about the present.
    pub fn pong(&mut self, seq: u64) -> bool {
        if seq >= self.next_seq {
            // A reply to a ping this monitor never sent: a stray from a
            // previous monitor incarnation (promotion resets the monitor,
            // but the tick that triggered it already handed out a
            // high-sequence ping). Crediting it would blind the fresh
            // monitor for `seq` intervals.
            return false;
        }
        self.last_pong_seq = self.last_pong_seq.max(seq);
        let answered_recent_ping = seq + 2 >= self.next_seq;
        if self.suspected && seq >= self.suspicion_floor_seq && answered_recent_ping {
            self.suspected = false;
            self.miss_streak = 0;
            true
        } else {
            false
        }
    }

    /// Marks the machine as suspected; subsequent pongs only count as
    /// recovery if they answer pings sent from now on.
    pub fn mark_suspected(&mut self) {
        self.suspected = true;
        self.suspicion_floor_seq = self.next_seq;
    }

    /// `true` while a suspicion is open.
    pub fn is_suspected(&self) -> bool {
        self.suspected
    }

    /// Current consecutive-miss count.
    pub fn miss_streak(&self) -> u32 {
        self.miss_streak
    }
}

impl Default for HeartbeatMonitor {
    fn default() -> Self {
        Self::new()
    }
}

/// The benchmark detector's CPU-sample period ("fine granularities (e.g.,
/// 50 ms)").
pub(crate) const BENCH_SAMPLE_INTERVAL: SimDuration = SimDuration::from_millis(50);
/// Load threshold `L_th` that triggers a benchmark run.
const BENCH_LOAD_THRESHOLD: f64 = 0.4;
/// CPU seconds the standard element set takes on an idle machine (the
/// benchmark; the paper embeds "a standard set (e.g., 20 or so) of data
/// elements" — 20 × 0.3 ms).
const BENCH_BASELINE_SECS: f64 = 0.006;
/// Declare when the measured run exceeds `baseline × P_th`.
const BENCH_SLOWDOWN_THRESHOLD: f64 = 1.5;
/// Minimum spacing between benchmark runs.
const BENCH_COOLDOWN: SimDuration = SimDuration::from_millis(500);

/// What the benchmark detector wants done next.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BenchAction {
    /// Nothing.
    Idle,
    /// Submit the standard element set as a CPU task of `demand_secs`.
    RunBenchmark {
        /// The benchmark workload's CPU demand.
        demand_secs: f64,
    },
}

/// The benchmarking detector's state machine.
#[derive(Debug, Clone, Default)]
pub struct BenchmarkDetector {
    run_started_at: Option<SimTime>,
    last_run_at: Option<SimTime>,
    detections: u64,
}

impl BenchmarkDetector {
    /// Feeds one CPU-load sample; may request a benchmark run.
    pub fn on_sample(&mut self, now: SimTime, load: f64) -> BenchAction {
        if load < BENCH_LOAD_THRESHOLD || self.run_started_at.is_some() {
            return BenchAction::Idle;
        }
        if let Some(last) = self.last_run_at {
            if now.saturating_since(last) < BENCH_COOLDOWN {
                return BenchAction::Idle;
            }
        }
        self.run_started_at = Some(now);
        self.last_run_at = Some(now);
        BenchAction::RunBenchmark {
            demand_secs: BENCH_BASELINE_SECS,
        }
    }

    /// The benchmark task finished; returns `true` if a transient failure
    /// is declared (run took more than `baseline × P_th`).
    pub fn on_benchmark_done(&mut self, now: SimTime) -> bool {
        let started = self
            .run_started_at
            .take()
            .expect("benchmark completion without a run in flight");
        let elapsed = now.saturating_since(started).as_secs_f64();
        let declared = elapsed > BENCH_BASELINE_SECS * BENCH_SLOWDOWN_THRESHOLD;
        if declared {
            self.detections += 1;
        }
        declared
    }

    /// `true` while a benchmark run is in flight.
    pub fn run_in_flight(&self) -> bool {
        self.run_started_at.is_some()
    }

    /// Total declarations made.
    pub fn detections(&self) -> u64 {
        self.detections
    }
}

/// Number of recent load samples in the predictor's regression window.
const PREDICTOR_WINDOW: usize = 8;
/// How far ahead the predictor extrapolates the load trend.
const PREDICTOR_HORIZON: SimDuration = SimDuration::from_millis(400);
/// The predictor declares when the projected load reaches this level.
const PREDICTOR_THRESHOLD: f64 = 0.95;
/// The predictor ignores projections unless the current load already
/// exceeds this.
const PREDICTOR_FLOOR: f64 = 0.5;
/// Minimum spacing between predictor declarations.
const PREDICTOR_COOLDOWN: SimDuration = SimDuration::from_secs(2);

/// A failure *predictor* in the spirit of Gu et al. \[10\] (§IV-A: the hybrid
/// "can readily take advantage" of prediction-based detection): it fits a
/// linear trend to recent CPU-load samples and declares when the
/// extrapolated load crosses the unavailability threshold — potentially
/// *before* the machine is fully saturated.
#[derive(Debug, Clone, Default)]
pub struct TrendPredictor {
    samples: std::collections::VecDeque<(f64, f64)>,
    last_declared: Option<SimTime>,
    declarations: u64,
}

impl TrendPredictor {
    /// Feeds one load sample; returns `true` when a failure is declared.
    pub fn on_sample(&mut self, now: SimTime, load: f64) -> bool {
        let t = now.as_secs_f64();
        self.samples.push_back((t, load));
        while self.samples.len() > PREDICTOR_WINDOW {
            self.samples.pop_front();
        }
        if self.samples.len() < PREDICTOR_WINDOW || load < PREDICTOR_FLOOR {
            return false;
        }
        if let Some(last) = self.last_declared {
            if now.saturating_since(last) < PREDICTOR_COOLDOWN {
                return false;
            }
        }
        let projected = self.project(t + PREDICTOR_HORIZON.as_secs_f64());
        if projected >= PREDICTOR_THRESHOLD {
            self.last_declared = Some(now);
            self.declarations += 1;
            true
        } else {
            false
        }
    }

    /// Least-squares extrapolation of the windowed samples to time `t`.
    fn project(&self, t: f64) -> f64 {
        let n = self.samples.len() as f64;
        let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
        for &(x, y) in &self.samples {
            sx += x;
            sy += y;
            sxx += x * x;
            sxy += x * y;
        }
        let denom = n * sxx - sx * sx;
        if denom.abs() < 1e-12 {
            return sy / n;
        }
        let slope = (n * sxy - sx * sy) / denom;
        let intercept = (sy - slope * sx) / n;
        (intercept + slope * t).clamp(0.0, 1.5)
    }

    /// Total declarations made.
    pub fn declarations(&self) -> u64 {
        self.declarations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_counts_consecutive_misses() {
        let mut m = HeartbeatMonitor::new();
        let (s1, v1) = m.tick();
        assert_eq!((s1, v1), (1, HbVerdict::Ok));
        // No pong for ping 1.
        assert_eq!(m.tick().1, HbVerdict::Missed { streak: 1 });
        assert_eq!(m.tick().1, HbVerdict::Missed { streak: 2 });
        m.pong(3);
        assert_eq!(m.tick().1, HbVerdict::Ok, "reply clears the streak");
        assert_eq!(m.miss_streak(), 0);
    }

    #[test]
    fn stale_pong_does_not_clear_suspicion() {
        let mut m = HeartbeatMonitor::new();
        let (s1, _) = m.tick(); // ping 1
        m.tick(); // ping 2; ping 1 missed
        m.mark_suspected();
        assert!(m.is_suspected());
        // A delayed reply to ping 1 (sent before suspicion) arrives.
        assert!(!m.pong(s1), "stale pong must not trigger rollback");
        assert!(m.is_suspected());
        // A reply to a post-suspicion ping does.
        let (s3, _) = m.tick();
        assert!(m.pong(s3));
        assert!(!m.is_suspected());
    }

    #[test]
    fn cross_incarnation_pong_does_not_blind_fresh_monitor() {
        // An old monitor incarnation hands out ping 50 in the same tick
        // that triggers promotion; the reset monitor must not credit the
        // late reply, or it would see no miss for the next 50 intervals.
        let mut m = HeartbeatMonitor::new();
        assert!(!m.pong(50), "stray pong must not count as recovery");
        m.tick(); // ping 1
        assert_eq!(
            m.tick().1,
            HbVerdict::Missed { streak: 1 },
            "unanswered ping 1 must be a miss despite the stray pong"
        );
    }

    #[test]
    fn out_of_order_pongs_take_max() {
        let mut m = HeartbeatMonitor::new();
        m.tick();
        m.tick();
        m.tick();
        m.pong(3);
        m.pong(1); // late, lower
        assert_eq!(m.tick().1, HbVerdict::Ok);
    }

    #[test]
    fn benchmark_triggers_above_threshold_only() {
        let mut d = BenchmarkDetector::default();
        assert_eq!(d.on_sample(SimTime::ZERO, 0.3), BenchAction::Idle);
        match d.on_sample(SimTime::ZERO, 0.7) {
            BenchAction::RunBenchmark { demand_secs } => {
                assert!((demand_secs - 0.006).abs() < 1e-12)
            }
            other => panic!("expected a run, got {other:?}"),
        }
        assert!(d.run_in_flight());
        // While in flight, further samples do nothing.
        assert_eq!(
            d.on_sample(SimTime::from_millis(10), 0.9),
            BenchAction::Idle
        );
    }

    #[test]
    fn benchmark_declares_on_slowdown() {
        let mut d = BenchmarkDetector::default();
        d.on_sample(SimTime::ZERO, 0.8);
        // Finished in 6 ms: exactly baseline — no declaration.
        assert!(!d.on_benchmark_done(SimTime::from_millis(6)));
        assert_eq!(d.detections(), 0);
        // Next run (after cooldown) takes 100 ms > 2 × 6 ms — declared.
        d.on_sample(SimTime::from_millis(600), 0.8);
        assert!(d.on_benchmark_done(SimTime::from_millis(700)));
        assert_eq!(d.detections(), 1);
    }

    #[test]
    fn predictor_declares_on_rising_trend() {
        let mut p = TrendPredictor::default();
        let mut declared_at = None;
        // Load ramps 0.5 -> 1.0 over 800 ms, sampled every 50 ms.
        for k in 0..16u64 {
            let t = SimTime::from_millis(k * 50);
            let load = 0.5 + 0.5 * k as f64 / 15.0;
            if p.on_sample(t, load) && declared_at.is_none() {
                declared_at = Some(t);
            }
        }
        let at = declared_at.expect("rising trend declared");
        assert!(
            at < SimTime::from_millis(800),
            "prediction fires before saturation, got {at}"
        );
    }

    #[test]
    fn predictor_is_quiet_on_flat_and_low_loads() {
        let mut p = TrendPredictor::default();
        for k in 0..100u64 {
            let t = SimTime::from_millis(k * 50);
            assert!(!p.on_sample(t, 0.6), "flat 60% load must not declare");
        }
        let mut p = TrendPredictor::default();
        for k in 0..100u64 {
            // Rising but below the floor.
            let t = SimTime::from_millis(k * 50);
            assert!(!p.on_sample(t, 0.1 + 0.003 * k as f64));
        }
    }

    #[test]
    fn predictor_respects_cooldown() {
        let mut p = TrendPredictor::default();
        let mut count = 0;
        for k in 0..60u64 {
            let t = SimTime::from_millis(k * 50);
            if p.on_sample(t, 0.99) {
                count += 1;
            }
        }
        // 3 s of saturated samples with a 2 s cooldown: at most 2.
        assert!(count <= 2, "cooldown limits repeats, got {count}");
        assert_eq!(p.declarations(), count);
    }

    #[test]
    fn benchmark_respects_cooldown() {
        let mut d = BenchmarkDetector::default();
        d.on_sample(SimTime::ZERO, 0.8);
        d.on_benchmark_done(SimTime::from_millis(6));
        assert_eq!(
            d.on_sample(SimTime::from_millis(100), 0.9),
            BenchAction::Idle,
            "within cooldown"
        );
        assert_ne!(
            d.on_sample(SimTime::from_millis(600), 0.9),
            BenchAction::Idle,
            "after cooldown"
        );
    }
}
