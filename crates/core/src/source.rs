//! Source runtimes: rate-controlled element generation with retention.
//!
//! A source owns a retaining [`OutputQueue`] just like a PE: its elements
//! stay buffered until the first subjob acknowledges them, so recovery of
//! the first subjob can always retransmit from the source ("data
//! retransmission" in §V-B's recovery decomposition).

use sps_engine::{Dest, OutputQueue, Payload, SourceId, StreamId};
use sps_sim::{SimDuration, SimRng, SimTime, TimerSlot};

use crate::config::ELEMENT_BYTES;

/// How a source paces element generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateProfile {
    /// Evenly spaced elements at a fixed rate.
    Constant {
        /// Elements per second.
        per_sec: f64,
    },
    /// On/off-modulated traffic: exponential-duration bursts at `burst`
    /// elements/s separated by quiet phases at `base` elements/s. This is
    /// the "bursty traffic, which is common in stream processing" that
    /// defeats the benchmarking detector (§IV-A).
    Bursty {
        /// Quiet-phase rate (elements per second).
        base_per_sec: f64,
        /// Burst-phase rate (elements per second).
        burst_per_sec: f64,
        /// Mean burst length.
        mean_on: SimDuration,
        /// Mean quiet length.
        mean_off: SimDuration,
    },
}

impl RateProfile {
    /// The long-run average rate.
    pub fn mean_rate(&self) -> f64 {
        match *self {
            RateProfile::Constant { per_sec } => per_sec,
            RateProfile::Bursty {
                base_per_sec,
                burst_per_sec,
                mean_on,
                mean_off,
            } => {
                let on = mean_on.as_secs_f64();
                let off = mean_off.as_secs_f64();
                (burst_per_sec * on + base_per_sec * off) / (on + off)
            }
        }
    }
}

/// How element payloads are synthesized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PayloadGen {
    /// Deterministic values derived from the sequence number (default; keeps
    /// whole runs bit-reproducible and replica-comparable).
    Synthetic,
    /// Market-data-like ticks: `value` is a random-walk price around
    /// `base_price`, `key` a volume in `1..=max_volume`.
    Market {
        /// Starting price.
        base_price: f64,
        /// Largest per-tick volume.
        max_volume: u64,
    },
    /// Zipf-skewed keys drawn from `1..=keys` via [`zipf_rank`]: rank 1 is
    /// the hottest key. With a sharded job this concentrates load on the
    /// shard owning rank 1 — the "hot shard" in scaling experiments —
    /// while `exponent` tunes how cold the tail gets.
    Zipf {
        /// Number of distinct keys.
        keys: u64,
        /// Skew exponent `s` (`1.0` is classic Zipf; larger is hotter).
        exponent: f64,
    },
}

/// Draws a Zipf(`s`)-distributed rank in `1..=n` (rank 1 most likely).
///
/// Uses the analytic inverse of the continuous Zipf CDF — for `s ≠ 1`,
/// `F(x) = (x^(1-s) - 1) / (n^(1-s) - 1)`, and `F(x) = ln x / ln n` at
/// `s = 1` — so each draw costs exactly one uniform variate and no
/// per-rank tables, which keeps sources O(1) in memory no matter how many
/// distinct keys a scaled-out job spreads over its shards.
pub fn zipf_rank(rng: &mut SimRng, n: u64, s: f64) -> u64 {
    assert!(n >= 1, "zipf_rank needs at least one rank");
    assert!(s >= 0.0 && s.is_finite(), "zipf exponent must be ≥ 0");
    let u = rng.unit();
    let n_f = n as f64;
    let rank = if (s - 1.0).abs() < 1e-9 {
        n_f.powf(u)
    } else {
        ((n_f.powf(1.0 - s) - 1.0) * u + 1.0).powf(1.0 / (1.0 - s))
    };
    (rank as u64).clamp(1, n)
}

/// A deployed source.
#[derive(Debug)]
pub struct SourceRuntime {
    id: SourceId,
    queue: OutputQueue<Dest>,
    profile: RateProfile,
    payload_gen: PayloadGen,
    produced: u64,
    running: bool,
    /// Bursty phase: `true` while in a burst.
    in_burst: bool,
    phase_ends_at: SimTime,
    /// Market state for [`PayloadGen::Market`].
    price: f64,
    /// The tick timer: only the latest armed [`crate::Event::SourceTick`]
    /// fires.
    pub(crate) timer: TimerSlot,
}

impl SourceRuntime {
    /// Creates a source producing into `stream`.
    pub fn new(
        id: SourceId,
        stream: StreamId,
        profile: RateProfile,
        payload_gen: PayloadGen,
    ) -> Self {
        let price = match payload_gen {
            PayloadGen::Market { base_price, .. } => base_price,
            PayloadGen::Synthetic | PayloadGen::Zipf { .. } => 0.0,
        };
        SourceRuntime {
            id,
            queue: OutputQueue::new(stream),
            profile,
            payload_gen,
            produced: 0,
            running: true,
            in_burst: false,
            phase_ends_at: SimTime::ZERO,
            price,
            timer: TimerSlot::new(),
        }
    }

    /// This source's id.
    pub fn id(&self) -> SourceId {
        self.id
    }

    /// The output queue (for wiring, trimming, retransmission).
    pub fn queue(&self) -> &OutputQueue<Dest> {
        &self.queue
    }

    /// The output queue, exclusively.
    pub fn queue_mut(&mut self) -> &mut OutputQueue<Dest> {
        &mut self.queue
    }

    /// Total elements generated.
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// Stops generation (end of experiment warm-down).
    pub fn stop(&mut self) {
        self.running = false;
    }

    /// `true` while generating.
    pub fn is_running(&self) -> bool {
        self.running
    }

    /// Generates the next element at `now` and returns it, or `None` if the
    /// source is stopped.
    pub fn generate(&mut self, now: SimTime, rng: &mut SimRng) -> Option<sps_engine::DataElement> {
        if !self.running {
            return None;
        }
        self.produced += 1;
        let seq_hint = self.produced;
        let payload = match self.payload_gen {
            PayloadGen::Synthetic => Payload {
                key: seq_hint % 64,
                value: (seq_hint as f64 * 0.001).sin() * 100.0,
                size_bytes: ELEMENT_BYTES,
            },
            PayloadGen::Market {
                base_price,
                max_volume,
            } => {
                self.price =
                    (self.price + rng.normal(0.0, base_price * 0.0005)).max(base_price * 0.2);
                Payload {
                    key: rng.uniform_u64(1, max_volume + 1),
                    value: self.price,
                    size_bytes: ELEMENT_BYTES,
                }
            }
            PayloadGen::Zipf { keys, exponent } => Payload {
                key: zipf_rank(rng, keys, exponent),
                value: (seq_hint as f64 * 0.001).sin() * 100.0,
                size_bytes: ELEMENT_BYTES,
            },
        };
        Some(self.queue.produce(payload, now))
    }

    /// The delay until the next element should be generated.
    ///
    /// Advances the burst phase machine as needed.
    pub fn next_gap(&mut self, now: SimTime, rng: &mut SimRng) -> SimDuration {
        let rate = match self.profile {
            RateProfile::Constant { per_sec } => per_sec,
            RateProfile::Bursty {
                base_per_sec,
                burst_per_sec,
                mean_on,
                mean_off,
            } => {
                while now >= self.phase_ends_at {
                    self.in_burst = !self.in_burst;
                    let mean = if self.in_burst { mean_on } else { mean_off };
                    self.phase_ends_at = self.phase_ends_at.max(now)
                        + SimDuration::from_secs_f64(rng.exp(mean.as_secs_f64()).max(1e-6));
                }
                if self.in_burst {
                    burst_per_sec
                } else {
                    base_per_sec
                }
            }
        };
        assert!(rate > 0.0, "source rate must be positive, got {rate}");
        SimDuration::from_secs_f64(1.0 / rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(profile: RateProfile) -> SourceRuntime {
        SourceRuntime::new(SourceId(0), StreamId(0), profile, PayloadGen::Synthetic)
    }

    #[test]
    fn constant_rate_spacing() {
        let mut s = src(RateProfile::Constant { per_sec: 1_000.0 });
        let mut rng = SimRng::seed_from(1);
        assert_eq!(
            s.next_gap(SimTime::ZERO, &mut rng),
            SimDuration::from_millis(1)
        );
    }

    #[test]
    fn generation_is_sequenced_and_retained() {
        let mut s = src(RateProfile::Constant { per_sec: 100.0 });
        let mut rng = SimRng::seed_from(1);
        let a = s.generate(SimTime::from_millis(0), &mut rng).unwrap();
        let b = s.generate(SimTime::from_millis(10), &mut rng).unwrap();
        assert_eq!(a.seq, 1);
        assert_eq!(b.seq, 2);
        assert_eq!(b.created_at, SimTime::from_millis(10));
        assert_eq!(s.queue().retained_len(), 2, "retained until acked");
        assert_eq!(s.produced(), 2);
    }

    #[test]
    fn stop_halts_generation() {
        let mut s = src(RateProfile::Constant { per_sec: 100.0 });
        let mut rng = SimRng::seed_from(1);
        s.stop();
        assert!(!s.is_running());
        assert!(s.generate(SimTime::ZERO, &mut rng).is_none());
    }

    #[test]
    fn synthetic_payloads_are_deterministic() {
        let mut rng1 = SimRng::seed_from(1);
        let mut rng2 = SimRng::seed_from(99); // payload must not depend on rng
        let mut a = src(RateProfile::Constant { per_sec: 1.0 });
        let mut b = src(RateProfile::Constant { per_sec: 1.0 });
        for _ in 0..10 {
            let x = a.generate(SimTime::ZERO, &mut rng1).unwrap();
            let y = b.generate(SimTime::ZERO, &mut rng2).unwrap();
            assert_eq!(x.value, y.value);
            assert_eq!(x.key, y.key);
        }
    }

    #[test]
    fn bursty_mean_rate() {
        let p = RateProfile::Bursty {
            base_per_sec: 100.0,
            burst_per_sec: 900.0,
            mean_on: SimDuration::from_secs(1),
            mean_off: SimDuration::from_secs(3),
        };
        assert!((p.mean_rate() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn bursty_switches_phases() {
        let mut s = src(RateProfile::Bursty {
            base_per_sec: 10.0,
            burst_per_sec: 10_000.0,
            mean_on: SimDuration::from_millis(100),
            mean_off: SimDuration::from_millis(100),
        });
        let mut rng = SimRng::seed_from(7);
        let mut gaps = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..500 {
            let g = s.next_gap(now, &mut rng);
            gaps.push(g.as_secs_f64());
            now += g;
        }
        let has_fast = gaps.iter().any(|&g| g < 0.001);
        let has_slow = gaps.iter().any(|&g| g > 0.05);
        assert!(has_fast && has_slow, "both phases observed");
    }

    #[test]
    fn zipf_ranks_stay_in_range_and_skew_to_the_head() {
        let mut rng = SimRng::seed_from(11);
        let n = 10_000;
        let mut head = 0u64; // draws landing in the top 1% of ranks
        for _ in 0..20_000 {
            let r = zipf_rank(&mut rng, n, 1.1);
            assert!((1..=n).contains(&r));
            if r <= n / 100 {
                head += 1;
            }
        }
        // Under uniform keys the top 1% of ranks would see ~1% of draws;
        // Zipf(1.1) concentrates well over half of them there.
        assert!(head > 10_000, "got {head} head draws out of 20000");
    }

    #[test]
    fn zipf_handles_the_s_equals_one_branch_and_tiny_n() {
        let mut rng = SimRng::seed_from(5);
        for _ in 0..1_000 {
            assert!((1..=100).contains(&zipf_rank(&mut rng, 100, 1.0)));
            assert_eq!(zipf_rank(&mut rng, 1, 1.3), 1);
        }
    }

    #[test]
    fn zipf_payloads_are_seed_deterministic() {
        let make = || {
            SourceRuntime::new(
                SourceId(0),
                StreamId(0),
                RateProfile::Constant { per_sec: 1.0 },
                PayloadGen::Zipf {
                    keys: 1_000_000,
                    exponent: 1.05,
                },
            )
        };
        let (mut a, mut b) = (make(), make());
        let mut rng1 = SimRng::seed_from(42);
        let mut rng2 = SimRng::seed_from(42);
        for _ in 0..100 {
            let x = a.generate(SimTime::ZERO, &mut rng1).unwrap();
            let y = b.generate(SimTime::ZERO, &mut rng2).unwrap();
            assert_eq!(x.key, y.key);
            assert!((1..=1_000_000).contains(&x.key));
        }
    }

    #[test]
    fn market_prices_walk_but_stay_positive() {
        let mut s = SourceRuntime::new(
            SourceId(0),
            StreamId(0),
            RateProfile::Constant { per_sec: 1.0 },
            PayloadGen::Market {
                base_price: 50.0,
                max_volume: 10,
            },
        );
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1_000 {
            let e = s.generate(SimTime::ZERO, &mut rng).unwrap();
            assert!(e.value >= 10.0, "price floored at 20% of base");
            assert!((1..=10).contains(&e.key));
        }
    }
}
