//! CPU-load observation: periodic utilization sampling and threshold-based
//! spike segmentation.
//!
//! The paper's measurement study samples CPU load every 0.25 s for 24 hours
//! and delineates transient unavailability with a 95 % utilization threshold
//! (§II-B). [`CpuMonitor`] produces those samples from a machine's busy
//! integral; [`SpikeTracker`] turns a sample stream into spike episodes with
//! start/end times, from which inter-failure times and durations (Figs 2–3)
//! are computed.

use sps_sim::{SimDuration, SimTime};

use crate::machine::Machine;

/// Computes utilization between consecutive samples of one machine.
#[derive(Debug, Clone, Default)]
pub struct CpuMonitor {
    last_busy: f64,
    last_time: Option<SimTime>,
}

impl CpuMonitor {
    /// Creates a monitor that has not sampled yet.
    pub fn new() -> Self {
        CpuMonitor::default()
    }

    /// Samples the machine's mean utilization since the previous sample (or
    /// since time zero for the first sample). The machine must already be
    /// advanced to `now`.
    ///
    /// Returns a value in `[0, 1]`; an empty interval yields 0.
    pub fn sample<T: Copy>(&mut self, machine: &Machine<T>, now: SimTime) -> f64 {
        let busy = machine.busy_integral();
        let prev_time = self.last_time.unwrap_or(SimTime::ZERO);
        let dt = now.saturating_since(prev_time).as_secs_f64();
        let util = if dt > 0.0 {
            ((busy - self.last_busy) / dt).clamp(0.0, 1.0)
        } else {
            0.0
        };
        self.last_busy = busy;
        self.last_time = Some(now);
        util
    }
}

/// One detected spike episode in a utilization sample stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpikeEpisode {
    /// First sample time at or above the threshold.
    pub start: SimTime,
    /// First sample time back below the threshold.
    pub end: SimTime,
}

impl SpikeEpisode {
    /// The episode's duration.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// Segments a utilization sample stream into spike episodes using the
/// paper's 95 % threshold rule.
#[derive(Debug, Clone, Default)]
pub struct SpikeTracker {
    in_spike_since: Option<SimTime>,
    episodes: Vec<SpikeEpisode>,
}

impl SpikeTracker {
    /// The paper's delineation threshold (95 % CPU).
    pub const THRESHOLD: f64 = 0.95;

    /// Creates a tracker with no episode observed.
    pub fn new() -> Self {
        SpikeTracker::default()
    }

    /// Feeds one sample; returns the episode if this sample closed one.
    pub fn feed(&mut self, at: SimTime, utilization: f64) -> Option<SpikeEpisode> {
        match (self.in_spike_since, utilization >= Self::THRESHOLD) {
            (None, true) => {
                self.in_spike_since = Some(at);
                None
            }
            (Some(start), false) => {
                let episode = SpikeEpisode { start, end: at };
                self.in_spike_since = None;
                self.episodes.push(episode);
                Some(episode)
            }
            _ => None,
        }
    }

    /// Closes any open episode at `at` and returns all episodes observed.
    pub fn finish(mut self, at: SimTime) -> Vec<SpikeEpisode> {
        if let Some(start) = self.in_spike_since.take() {
            self.episodes.push(SpikeEpisode { start, end: at });
        }
        self.episodes
    }
}

/// The mean time between spike starts, or `None` with fewer than 2 episodes.
pub fn mean_inter_failure_time(episodes: &[SpikeEpisode]) -> Option<SimDuration> {
    if episodes.len() < 2 {
        return None;
    }
    let first = episodes.first().expect("len >= 2").start;
    let last = episodes.last().expect("len >= 2").start;
    Some(last.saturating_since(first) / (episodes.len() as u64 - 1))
}

/// The mean episode duration, or `None` if there are no episodes.
pub fn mean_duration(episodes: &[SpikeEpisode]) -> Option<SimDuration> {
    if episodes.is_empty() {
        return None;
    }
    let total = episodes
        .iter()
        .fold(SimDuration::ZERO, |acc, e| acc + e.duration());
    Some(total / episodes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{LoadComponent, Machine, MachineId};

    fn s(v: u64) -> SimTime {
        SimTime::from_secs(v)
    }

    #[test]
    fn monitor_reports_interval_utilization() {
        let mut m: Machine = Machine::new(MachineId(0));
        let mut mon = CpuMonitor::new();
        m.set_background(SimTime::ZERO, LoadComponent::CoLocated, 0.6);
        m.advance(s(1));
        assert!((mon.sample(&m, s(1)) - 0.6).abs() < 1e-9);
        m.set_background(s(1), LoadComponent::CoLocated, 0.2);
        m.advance(s(2));
        assert!((mon.sample(&m, s(2)) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn monitor_handles_zero_dt() {
        let m: Machine = Machine::new(MachineId(0));
        let mut mon = CpuMonitor::new();
        assert_eq!(mon.sample(&m, SimTime::ZERO), 0.0);
        assert_eq!(mon.sample(&m, SimTime::ZERO), 0.0);
    }

    #[test]
    fn tracker_segments_episodes() {
        let mut t = SpikeTracker::new();
        assert_eq!(t.feed(s(0), 0.5), None);
        assert_eq!(t.feed(s(1), 0.97), None);
        assert_eq!(t.feed(s(2), 0.99), None);
        let ep = t.feed(s(3), 0.4).expect("episode closes");
        assert_eq!(ep.start, s(1));
        assert_eq!(ep.end, s(3));
        assert_eq!(ep.duration(), SimDuration::from_secs(2));
        // Closed: a quiet sample closes nothing, and finish adds nothing.
        assert_eq!(t.feed(s(4), 0.1), None);
        assert_eq!(t.finish(s(9)), vec![ep]);
    }

    #[test]
    fn finish_closes_open_episode() {
        let mut t = SpikeTracker::new();
        assert_eq!(t.feed(s(5), 1.0), None);
        let eps = t.finish(s(9));
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].duration(), SimDuration::from_secs(4));
    }

    #[test]
    fn boundary_sample_counts_as_spike() {
        let mut t = SpikeTracker::new();
        assert_eq!(t.feed(s(0), 0.95), None);
        assert_eq!(
            t.feed(s(1), 0.949),
            Some(SpikeEpisode {
                start: s(0),
                end: s(1)
            })
        );
    }

    #[test]
    fn inter_failure_and_duration_stats() {
        let eps = vec![
            SpikeEpisode {
                start: s(0),
                end: s(2),
            },
            SpikeEpisode {
                start: s(60),
                end: s(65),
            },
            SpikeEpisode {
                start: s(120),
                end: s(121),
            },
        ];
        assert_eq!(
            mean_inter_failure_time(&eps),
            Some(SimDuration::from_secs(60))
        );
        let d = mean_duration(&eps).unwrap();
        assert!((d.as_secs_f64() - 8.0 / 3.0).abs() < 1e-9);
        assert_eq!(mean_inter_failure_time(&eps[..1]), None);
        assert_eq!(mean_duration(&[]), None);
    }
}
