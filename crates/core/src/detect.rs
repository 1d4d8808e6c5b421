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
//!
//! The heartbeat probes a *machine*, so the world runs one heartbeat round
//! per interval for all monitored subjobs (DESIGN §14). [`PairRounds`]
//! groups a round's subjobs by their (monitor, primary) machine pair: the
//! first subjob of a pair sends the one ping, and the one pong is fanned out
//! to every member of the pair as that member's own sequence number. Each
//! member keeps its own [`HeartbeatMonitor`], which knows the round of its
//! first ping since its last reset, so a member reset after a ping left is
//! never credited with that ping's pong.

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
    /// The heartbeat round of this incarnation's first ping; `None` until
    /// it pings. Pongs for earlier rounds answer a previous incarnation.
    first_round: Option<u64>,
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
            first_round: None,
        }
    }

    /// Called at heartbeat round `round` *before* sending the next ping:
    /// evaluates whether the previous ping was answered, then returns the
    /// sequence number to send.
    pub fn tick(&mut self, round: u64) -> (u64, HbVerdict) {
        self.first_round.get_or_insert(round);
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

    /// Registers the reply to the ping of `round`, which this monitor sent
    /// as `seq`. Returns `true` if this pong is *fresh evidence of
    /// responsiveness* while the machine was suspected — the hybrid's
    /// rollback trigger. Fresh means it answers a ping sent after suspicion
    /// began AND within the last two intervals: a reply that spent seconds
    /// starved on the failing machine proves nothing about the present.
    pub fn pong(&mut self, round: u64, seq: u64) -> bool {
        if self.first_round.is_none_or(|first| round < first) {
            // A reply to a ping this incarnation never sent: a stray from
            // before the last reset (promotion resets the monitor, but the
            // round that triggered it already handed out a high-sequence
            // ping). Crediting it would blind the fresh monitor for `seq`
            // intervals.
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

/// Ends a member list or a same-target pair chain in [`PairRounds`].
const END: u32 = u32::MAX;

/// The (monitor, target) machine pairs of one heartbeat round, and who
/// shares each pair's ping in the two latest rounds.
///
/// After the first round it allocates nothing: pairs are found through a
/// per-target-machine index stamped with the round, and member lists are
/// links between subjobs, one set per round parity.
#[derive(Debug)]
pub(crate) struct PairRounds {
    /// The round in progress; rounds count from 1.
    round: u64,
    /// Per target machine: the round it was last seen in, and the index in
    /// `pairs` of its newest pair that round.
    by_target: Vec<(u64, u32)>,
    /// This round's pairs.
    pairs: Vec<Pair>,
    /// Per subjob and round parity: the next member of its pair in that
    /// round, and the subjob's own sequence number for the pair's ping.
    links: Vec<[(u32, u64); 2]>,
}

/// One (monitor, target) pair of the round in progress.
#[derive(Debug)]
struct Pair {
    monitor: u32,
    /// The pair's last member so far.
    tail: u32,
    /// The previous pair with the same target this round, or `END`.
    next_same_target: u32,
}

impl PairRounds {
    /// Pair bookkeeping for `subjobs` subjobs on `machines` machines.
    pub(crate) fn new(subjobs: usize, machines: usize) -> Self {
        PairRounds {
            round: 0,
            by_target: vec![(0, END); machines],
            pairs: Vec::new(),
            links: vec![[(END, 0); 2]; subjobs],
        }
    }

    /// Starts the next round and returns its number.
    pub(crate) fn begin_round(&mut self) -> u64 {
        self.round += 1;
        self.pairs.clear();
        self.round
    }

    /// Adds `subjob`, whose monitor on machine `monitor` pings machine
    /// `target` as `seq` this round, to that pair. Returns `true` when it is
    /// the pair's first member, which sends the pair's one ping.
    pub(crate) fn join(&mut self, subjob: u32, monitor: u32, target: u32, seq: u64) -> bool {
        let parity = (self.round & 1) as usize;
        self.links[subjob as usize][parity] = (END, seq);
        let (stamp, head) = self.by_target[target as usize];
        let head = if stamp == self.round { head } else { END };
        let mut at = head;
        while at != END {
            let pair = &mut self.pairs[at as usize];
            if pair.monitor == monitor {
                self.links[pair.tail as usize][parity].0 = subjob;
                pair.tail = subjob;
                return false;
            }
            at = pair.next_same_target;
        }
        self.by_target[target as usize] = (self.round, self.pairs.len() as u32);
        self.pairs.push(Pair {
            monitor,
            tail: subjob,
            next_same_target: head,
        });
        true
    }

    /// The member after `subjob` in its pair of `round`, with that member's
    /// sequence number for the pair's ping; `None` at the end of the list.
    /// Lists older than the previous round are gone, and a pong that late
    /// is news to no member: only replies to a monitor's two latest pings
    /// can clear a miss or a suspicion, and from its first ping after a
    /// reset a member pings every round, until its monitor machine fails or
    /// it loses its standby, which resets it.
    pub(crate) fn next_member(&self, subjob: u32, round: u64) -> Option<(u32, u64)> {
        if round + 1 < self.round {
            return None;
        }
        let parity = (round & 1) as usize;
        let next = self.links[subjob as usize][parity].0;
        (next != END).then(|| (next, self.links[next as usize][parity].1))
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

    // A monitor that pings every round from round 1 sends round `r` as
    // sequence number `r`, so these tests pass one number for both.

    #[test]
    fn heartbeat_counts_consecutive_misses() {
        let mut m = HeartbeatMonitor::new();
        let (s1, v1) = m.tick(1);
        assert_eq!((s1, v1), (1, HbVerdict::Ok));
        // No pong for ping 1.
        assert_eq!(m.tick(2).1, HbVerdict::Missed { streak: 1 });
        assert_eq!(m.tick(3).1, HbVerdict::Missed { streak: 2 });
        m.pong(3, 3);
        assert_eq!(m.tick(4).1, HbVerdict::Ok, "reply clears the streak");
        assert_eq!(m.miss_streak(), 0);
    }

    #[test]
    fn stale_pong_does_not_clear_suspicion() {
        let mut m = HeartbeatMonitor::new();
        let (s1, _) = m.tick(1); // ping 1
        m.tick(2); // ping 2; ping 1 missed
        m.mark_suspected();
        assert!(m.is_suspected());
        // A delayed reply to ping 1 (sent before suspicion) arrives.
        assert!(!m.pong(1, s1), "stale pong must not trigger rollback");
        assert!(m.is_suspected());
        // A reply to a post-suspicion ping does.
        let (s3, _) = m.tick(3);
        assert!(m.pong(3, s3));
        assert!(!m.is_suspected());
    }

    #[test]
    fn cross_incarnation_pong_does_not_blind_fresh_monitor() {
        // An old monitor incarnation hands out ping 50 in the same round
        // that triggers promotion; the reset monitor must not credit the
        // late reply, or it would see no miss for the next 50 intervals.
        let mut m = HeartbeatMonitor::new();
        assert!(!m.pong(50, 50), "stray pong must not count as recovery");
        m.tick(51); // this incarnation's ping 1
        assert!(!m.pong(50, 50), "still a ping this incarnation never sent");
        assert_eq!(
            m.tick(52).1,
            HbVerdict::Missed { streak: 1 },
            "unanswered ping 1 must be a miss despite the stray pong"
        );
    }

    #[test]
    fn out_of_order_pongs_take_max() {
        let mut m = HeartbeatMonitor::new();
        m.tick(1);
        m.tick(2);
        m.tick(3);
        m.pong(3, 3);
        m.pong(1, 1); // late, lower
        assert_eq!(m.tick(4).1, HbVerdict::Ok);
    }

    /// Collects the members `rounds` fans the pong of `leader`'s ping in
    /// `round` out to, the leader first with `leader_seq`.
    fn fan_out(rounds: &PairRounds, leader: u32, leader_seq: u64, round: u64) -> Vec<(u32, u64)> {
        let mut members = vec![(leader, leader_seq)];
        while let Some(next) = rounds.next_member(members.last().unwrap().0, round) {
            members.push(next);
        }
        members
    }

    #[test]
    fn one_ping_per_machine_pair_fans_out_in_subjob_order() {
        let mut rounds = PairRounds::new(4, 10);
        let r1 = rounds.begin_round();
        // Subjobs 0, 2 and 3 share (monitor 7, target 4); subjob 1 shares
        // the target under another monitor.
        assert!(rounds.join(0, 7, 4, 10));
        assert!(rounds.join(1, 8, 4, 20));
        assert!(!rounds.join(2, 7, 4, 30));
        assert!(!rounds.join(3, 7, 4, 40));
        assert_eq!(fan_out(&rounds, 0, 10, r1), [(0, 10), (2, 30), (3, 40)]);
        assert_eq!(fan_out(&rounds, 1, 20, r1), [(1, 20)]);
        // Next round subjob 0 moved away: subjob 2 leads its old pair, and
        // the previous round's lists still answer late pongs.
        let r2 = rounds.begin_round();
        assert!(rounds.join(0, 9, 5, 11));
        assert!(rounds.join(2, 7, 4, 31));
        assert!(!rounds.join(3, 7, 4, 41));
        assert_eq!(fan_out(&rounds, 2, 31, r2), [(2, 31), (3, 41)]);
        assert_eq!(fan_out(&rounds, 0, 10, r1), [(0, 10), (2, 30), (3, 40)]);
        // Two rounds on, round 1's lists are gone: its pong reaches only
        // the leader, whose sequence number it carries.
        rounds.begin_round();
        assert_eq!(fan_out(&rounds, 0, 10, r1), [(0, 10)]);
    }

    #[test]
    fn a_member_reset_after_the_ping_left_is_not_credited_with_its_pong() {
        let mut rounds = PairRounds::new(4, 10);
        let (mut a, mut b) = (HeartbeatMonitor::new(), HeartbeatMonitor::new());
        // Rounds 1 and 2 go unanswered; both members suspect the primary.
        for _ in 0..2 {
            let round = rounds.begin_round();
            let (sa, _) = a.tick(round);
            let (sb, _) = b.tick(round);
            assert!(rounds.join(0, 1, 2, sa));
            assert!(!rounds.join(1, 1, 2, sb));
        }
        a.mark_suspected();
        b.mark_suspected();
        let round = rounds.begin_round();
        let (sa, _) = a.tick(round);
        let (sb, _) = b.tick(round);
        rounds.join(0, 1, 2, sa);
        rounds.join(1, 1, 2, sb);
        // The ping of round 3 is out when member 1's monitor is reset.
        b = HeartbeatMonitor::new();
        let fanned = fan_out(&rounds, 0, sa, round);
        assert_eq!(fanned, [(0, 3), (1, 3)]);
        assert!(a.pong(round, fanned[0].1), "a ping it sent clears it");
        assert!(!a.is_suspected());
        assert!(!b.pong(round, fanned[1].1), "reset after the ping left");
        // The reset monitor's own pings are credited again.
        let round = rounds.begin_round();
        let (sa, _) = a.tick(round);
        let (sb, verdict) = b.tick(round);
        assert_eq!((sb, verdict), (1, HbVerdict::Ok), "a fresh incarnation");
        b.mark_suspected();
        rounds.join(0, 1, 2, sa);
        rounds.join(1, 1, 2, sb);
        let round = rounds.begin_round();
        let (sa, _) = a.tick(round);
        let (sb, verdict) = b.tick(round);
        assert_eq!(verdict, HbVerdict::Missed { streak: 1 });
        rounds.join(0, 1, 2, sa);
        rounds.join(1, 1, 2, sb);
        let fanned = fan_out(&rounds, 0, sa, round);
        assert_eq!(fanned, [(0, 5), (1, 2)]);
        assert!(!a.pong(round, fanned[0].1), "a was not suspected");
        assert!(b.pong(round, fanned[1].1), "b's own ping clears it");
        assert!(!b.is_suspected());
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
