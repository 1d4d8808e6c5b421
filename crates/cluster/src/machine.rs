//! The machine model: a processor-sharing CPU with time-varying background
//! load and fail-stop faults.
//!
//! A machine executes *CPU tasks* — units of work measured in seconds of
//! full-capacity CPU. All active tasks share the capacity left over by the
//! *background load* equally (processor sharing), which is how the paper's
//! transient unavailability manifests: a background spike near 100 % CPU
//! slows every application task on the machine to a crawl, including the
//! heartbeat responder.
//!
//! The machine is a passive state machine: the owner advances it to the
//! current simulated time before reading or mutating it, and schedules its
//! own wake-up event where [`Machine::arm_completion`] says, under the
//! token that call hands out. Background load is the
//! sum of named *components* (spikes, OS jitter, co-located apps) so that
//! experiments can track ground truth per source.

use std::fmt;

use sps_sim::{SimDuration, SimTime, TimerGen, TimerSlot};

/// Identifies a machine within a [`Cluster`](crate::Cluster).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MachineId(pub u32);

impl fmt::Display for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Identifies a CPU task on a particular machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId(pub u64);

/// A named source of background load on a machine.
///
/// Components add up (saturating at 100 % CPU); keeping them separate lets
/// harnesses distinguish injected transient failures (ground truth) from OS
/// jitter or co-located applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadComponent {
    /// An injected transient-failure load spike (the experiments' ground truth).
    Spike,
    /// Short OS-level stalls (scheduling jitter, page faults, daemons).
    Jitter,
    /// Co-located applications sharing the machine.
    CoLocated,
}

impl LoadComponent {
    const COUNT: usize = 3;
    fn index(self) -> usize {
        match self {
            LoadComponent::Spike => 0,
            LoadComponent::Jitter => 1,
            LoadComponent::CoLocated => 2,
        }
    }
}

/// A finished CPU task, as returned by [`Machine::collect_finished`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FinishedTask<T = u64> {
    /// The task's identifier.
    pub id: TaskId,
    /// The owner-supplied routing tag given at submission.
    pub tag: T,
}

#[derive(Debug, Clone)]
struct ActiveTask<T> {
    id: TaskId,
    tag: T,
    /// Remaining work in seconds of full-capacity CPU.
    remaining: f64,
}

/// A simulated machine with a processor-sharing CPU. `T` is the tag an
/// owner attaches to each task to tell, when it finishes, what it was.
///
/// ```
/// use sps_cluster::{LoadComponent, Machine, MachineId};
/// use sps_sim::SimTime;
///
/// let mut m = Machine::new(MachineId(0));
/// let t0 = SimTime::ZERO;
/// m.submit(t0, 0.010, 7); // 10 ms of CPU work, tag 7
///
/// // Alone on an idle machine the task finishes after exactly 10 ms.
/// let done_at = m.next_completion().unwrap();
/// assert_eq!(done_at, SimTime::from_millis(10));
/// m.advance(done_at);
/// let finished = m.collect_finished();
/// assert_eq!(finished.len(), 1);
/// assert_eq!(finished[0].tag, 7);
/// ```
#[derive(Debug, Clone)]
pub struct Machine<T = u64> {
    id: MachineId,
    background: [f64; LoadComponent::COUNT],
    tasks: Vec<ActiveTask<T>>,
    last_advance: SimTime,
    next_task_id: u64,
    up: bool,
    busy_integral: f64,
    work_done: f64,
    run_queue_hw: usize,
    /// Only the latest armed completion tick fires.
    completion: TimerSlot,
    /// The utilization estimate: `(when, busy integral then, estimate)`.
    load_est: (SimTime, f64, f64),
}

/// Floor on the application's CPU share, so work always makes *some*
/// progress even under a 100 % background spike (matching a real OS
/// scheduler, which never fully starves a runnable process).
const MIN_APP_SHARE: f64 = 1e-3;

impl<T: Copy> Machine<T> {
    /// Creates an idle, healthy machine.
    pub fn new(id: MachineId) -> Self {
        Machine {
            id,
            background: [0.0; LoadComponent::COUNT],
            tasks: Vec::new(),
            last_advance: SimTime::ZERO,
            next_task_id: 0,
            up: true,
            busy_integral: 0.0,
            work_done: 0.0,
            run_queue_hw: 0,
            completion: TimerSlot::new(),
            load_est: (SimTime::ZERO, 0.0, 0.0),
        }
    }

    /// This machine's identifier.
    pub fn id(&self) -> MachineId {
        self.id
    }

    /// `true` while the machine has not fail-stopped.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Total background share across all components, capped at 1.0.
    pub fn background_share(&self) -> f64 {
        self.background.iter().sum::<f64>().min(1.0)
    }

    /// Number of currently active CPU tasks.
    pub fn active_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// High-water mark of the run queue (peak concurrent active tasks
    /// since the machine started, surviving restarts). Backpressure
    /// detection reads this next to the instantaneous depth.
    pub fn run_queue_high_water(&self) -> usize {
        self.run_queue_hw
    }

    /// Total CPU-seconds of application work completed so far.
    pub fn work_done(&self) -> f64 {
        self.work_done
    }

    /// The integral over time of CPU busyness (background + application),
    /// in busy-seconds. Utilization over a window is the difference of two
    /// readings divided by the window length; see
    /// [`CpuMonitor`](crate::CpuMonitor).
    pub fn busy_integral(&self) -> f64 {
        self.busy_integral
    }

    /// The effective full-machine rate available to application tasks.
    fn app_rate(&self) -> f64 {
        (1.0 - self.background_share()).max(MIN_APP_SHARE)
    }

    /// Advances internal state to `now`, progressing all active tasks.
    ///
    /// Idempotent when called repeatedly at the same instant. The owner must
    /// call this (directly or via a mutating method, which all advance
    /// internally) before reading time-dependent state.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `now` is earlier than the last advance.
    pub fn advance(&mut self, now: SimTime) {
        debug_assert!(
            now >= self.last_advance,
            "machine {} advanced backwards: {now} < {}",
            self.id,
            self.last_advance
        );
        let dt = now.saturating_since(self.last_advance).as_secs_f64();
        self.last_advance = now;
        if dt <= 0.0 {
            return;
        }
        if !self.up {
            return;
        }
        let bg = self.background_share();
        if self.tasks.is_empty() {
            self.busy_integral += bg * dt;
            return;
        }
        let rate_per_task = self.app_rate() / self.tasks.len() as f64;
        let mut progressed = 0.0;
        for task in &mut self.tasks {
            let step = (rate_per_task * dt).min(task.remaining);
            task.remaining -= step;
            progressed += step;
        }
        self.work_done += progressed;
        self.busy_integral += (bg + self.app_rate()).min(1.0) * dt;
    }

    /// Submits `work_secs` seconds of CPU work with an owner-defined `tag`.
    ///
    /// Returns `None` if the machine is down. The owner should re-read
    /// [`Machine::next_completion`] afterwards: adding a task slows every
    /// other task on the machine.
    ///
    /// # Panics
    ///
    /// Panics if `work_secs` is negative or NaN.
    pub fn submit(&mut self, now: SimTime, work_secs: f64, tag: T) -> Option<TaskId> {
        assert!(
            work_secs >= 0.0 && work_secs.is_finite(),
            "task work must be finite and non-negative, got {work_secs}"
        );
        self.advance(now);
        if !self.up {
            return None;
        }
        let id = TaskId(self.next_task_id);
        self.next_task_id += 1;
        self.tasks.push(ActiveTask {
            id,
            tag,
            remaining: work_secs,
        });
        self.run_queue_hw = self.run_queue_hw.max(self.tasks.len());
        Some(id)
    }

    /// Sets one background-load component's share (clamped to `[0, 1]`).
    ///
    /// The owner should re-read [`Machine::next_completion`] afterwards.
    pub fn set_background(&mut self, now: SimTime, component: LoadComponent, share: f64) {
        self.advance(now);
        self.background[component.index()] = share.clamp(0.0, 1.0);
    }

    /// The instant the earliest-finishing active task completes at current
    /// load, or `None` when no task is active (or the machine is down).
    ///
    /// The owner schedules its machine-tick event here and must call
    /// [`Machine::advance`] + [`Machine::collect_finished`] when it fires.
    pub fn next_completion(&self) -> Option<SimTime> {
        if !self.up || self.tasks.is_empty() {
            return None;
        }
        let rate_per_task = self.app_rate() / self.tasks.len() as f64;
        let min_remaining = self
            .tasks
            .iter()
            .map(|t| t.remaining)
            .fold(f64::INFINITY, f64::min);
        let secs = min_remaining / rate_per_task;
        Some(self.last_advance + SimDuration::from_secs_f64(secs.max(0.0)))
    }

    /// Re-arms the completion timer after any change to the task set or
    /// load: the instant of the earliest completion and the token its tick
    /// carries, or `None` (the timer cancelled) when nothing runs.
    pub fn arm_completion(&mut self) -> Option<(SimTime, TimerGen)> {
        match self.next_completion() {
            Some(at) => Some((at, self.completion.arm())),
            None => {
                self.completion.cancel();
                None
            }
        }
    }

    /// Consumes a completion tick: `false` when `token` went stale because
    /// the timer was re-armed or cancelled since.
    pub fn fire_completion(&mut self, token: TimerGen) -> bool {
        self.completion.fire(token)
    }

    /// A rolling estimate of recent utilization at `now`: an exponentially
    /// weighted load average (α = 0.5), like the OS statistic a real
    /// scheduler's latency tracks, so a half-second burst that saturates
    /// the CPU does not read as a sustained spike. A window under 10 ms
    /// reuses the previous estimate.
    pub fn estimate_load(&mut self, now: SimTime) -> f64 {
        const ALPHA: f64 = 0.5;
        self.advance(now);
        let (last_t, last_busy, est) = self.load_est;
        let dt = now.saturating_since(last_t).as_secs_f64();
        if dt < 0.01 {
            return est;
        }
        let util = ((self.busy_integral - last_busy) / dt).clamp(0.0, 1.0);
        let ewma = (1.0 - ALPHA) * est + ALPHA * util;
        self.load_est = (now, self.busy_integral, ewma);
        ewma
    }

    /// Removes and returns all tasks whose work has reached zero.
    ///
    /// Call after [`Machine::advance`] at a completion instant. Completion
    /// order among simultaneous finishers follows submission order.
    pub fn collect_finished(&mut self) -> Vec<FinishedTask<T>> {
        let mut finished = Vec::new();
        self.collect_finished_into(&mut finished);
        finished
    }

    /// Like [`Machine::collect_finished`], appending into a caller-owned
    /// buffer so the per-completion hot path can reuse one allocation.
    pub fn collect_finished_into(&mut self, finished: &mut Vec<FinishedTask<T>>) {
        // One nanosecond of full-speed CPU: absorbs the rounding of
        // completion instants to integer nanoseconds.
        const EPS: f64 = 1e-9;
        self.tasks.retain(|t| {
            if t.remaining <= EPS {
                finished.push(FinishedTask {
                    id: t.id,
                    tag: t.tag,
                });
                false
            } else {
                true
            }
        });
    }

    /// Fail-stops the machine: all active tasks are lost and no new work is
    /// accepted until [`Machine::restart`].
    pub fn fail(&mut self, now: SimTime) {
        self.advance(now);
        self.up = false;
        self.tasks.clear();
    }

    /// Restarts a fail-stopped machine with an empty task set.
    pub fn restart(&mut self, now: SimTime) {
        self.advance(now);
        self.up = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn single_task_on_idle_machine() {
        let mut m = Machine::new(MachineId(1));
        m.submit(ms(0), 0.050, 1).unwrap();
        assert_eq!(m.next_completion(), Some(ms(50)));
        m.advance(ms(50));
        let done = m.collect_finished();
        assert_eq!(done.len(), 1);
        assert_eq!(m.active_tasks(), 0);
        assert!((m.work_done() - 0.050).abs() < 1e-9);
    }

    #[test]
    fn two_tasks_share_the_processor() {
        let mut m = Machine::new(MachineId(1));
        m.submit(ms(0), 0.010, 1).unwrap();
        m.submit(ms(0), 0.010, 2).unwrap();
        // Each gets half the CPU: both finish at 20 ms.
        assert_eq!(m.next_completion(), Some(ms(20)));
        m.advance(ms(20));
        assert_eq!(m.collect_finished().len(), 2);
    }

    #[test]
    fn run_queue_high_water_tracks_peak_depth() {
        let mut m = Machine::new(MachineId(1));
        assert_eq!(m.run_queue_high_water(), 0);
        m.submit(ms(0), 0.010, 1).unwrap();
        m.submit(ms(0), 0.010, 2).unwrap();
        assert_eq!(m.run_queue_high_water(), 2);
        m.advance(ms(20));
        m.collect_finished();
        assert_eq!(m.active_tasks(), 0);
        // The mark is a high-water: draining does not lower it.
        m.submit(ms(30), 0.010, 3).unwrap();
        assert_eq!(m.run_queue_high_water(), 2);
    }

    #[test]
    fn background_load_slows_tasks() {
        let mut m = Machine::new(MachineId(1));
        m.set_background(ms(0), LoadComponent::Spike, 0.5);
        m.submit(ms(0), 0.010, 1).unwrap();
        assert_eq!(m.next_completion(), Some(ms(20)));
    }

    #[test]
    fn full_spike_stalls_but_does_not_starve() {
        let mut m = Machine::new(MachineId(1));
        m.set_background(ms(0), LoadComponent::Spike, 1.0);
        m.submit(ms(0), 0.001, 1).unwrap();
        // Floor share 1e-3: 1 ms of work takes 1 s.
        assert_eq!(m.next_completion(), Some(SimTime::from_secs(1)));
    }

    #[test]
    fn load_change_midway_rescales_remaining_work() {
        let mut m = Machine::new(MachineId(1));
        m.submit(ms(0), 0.010, 1).unwrap();
        // Run half the work, then a 50 % spike starts.
        m.set_background(ms(5), LoadComponent::Spike, 0.5);
        // 5 ms of work remains at half speed -> 10 more ms.
        assert_eq!(m.next_completion(), Some(ms(15)));
        // Spike ends at 10 ms: 2.5 ms of work remain at full speed.
        m.set_background(ms(10), LoadComponent::Spike, 0.0);
        assert_eq!(m.next_completion(), Some(SimTime::from_micros(12_500)));
    }

    #[test]
    fn components_accumulate_and_saturate() {
        let mut m: Machine = Machine::new(MachineId(1));
        m.set_background(ms(0), LoadComponent::Spike, 0.7);
        m.set_background(ms(0), LoadComponent::CoLocated, 0.6);
        assert!((m.background_share() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fail_stop_drops_tasks_and_rejects_work() {
        let mut m = Machine::new(MachineId(1));
        m.submit(ms(0), 1.0, 1).unwrap();
        m.fail(ms(10));
        assert!(!m.is_up());
        assert_eq!(m.active_tasks(), 0);
        assert_eq!(m.next_completion(), None);
        assert_eq!(m.submit(ms(11), 0.001, 2), None);
        m.restart(ms(20));
        assert!(m.submit(ms(20), 0.001, 3).is_some());
    }

    #[test]
    fn a_stale_completion_token_does_not_fire() {
        let mut m = Machine::new(MachineId(1));
        m.submit(ms(0), 0.010, 1).unwrap();
        let (at, first) = m.arm_completion().unwrap();
        assert_eq!(at, ms(10));
        m.submit(ms(5), 0.010, 2).unwrap();
        let (later, second) = m.arm_completion().unwrap();
        assert_eq!(later, ms(15), "two tasks share the CPU from 5 ms");
        assert!(
            !m.fire_completion(first),
            "re-armed: the first tick is stale"
        );
        assert!(m.fire_completion(second));
        assert!(!m.fire_completion(second), "a tick fires once");
        m.fail(ms(6));
        let third = m.arm_completion();
        assert!(third.is_none(), "nothing runs on a failed machine");
    }

    #[test]
    fn the_load_estimate_is_reused_below_ten_ms() {
        let mut m: Machine = Machine::new(MachineId(1));
        m.set_background(ms(0), LoadComponent::Spike, 1.0);
        // 100 ms fully busy: the estimate moves halfway to 1.0.
        assert_eq!(m.estimate_load(ms(100)), 0.5);
        // Under 10 ms later the window is too short: the estimate stands.
        m.set_background(ms(100), LoadComponent::Spike, 0.0);
        assert_eq!(m.estimate_load(ms(109)), 0.5);
        // At 10 ms the idle window since the last update counts: halfway
        // back toward 0.
        assert_eq!(m.estimate_load(ms(110)), 0.25);
    }

    #[test]
    fn busy_integral_tracks_utilization() {
        let mut m = Machine::new(MachineId(1));
        // 100 ms fully idle.
        m.advance(ms(100));
        assert!(m.busy_integral().abs() < 1e-12);
        // 100 ms at 40 % background, no tasks.
        m.set_background(ms(100), LoadComponent::Spike, 0.4);
        m.advance(ms(200));
        assert!((m.busy_integral() - 0.04).abs() < 1e-9);
        // 100 ms with an (unfinished) task: machine is 100 % busy.
        m.submit(ms(200), 10.0, 1).unwrap();
        m.advance(ms(300));
        assert!((m.busy_integral() - 0.14).abs() < 1e-9);
    }

    #[test]
    fn completion_order_is_submission_order_for_ties() {
        let mut m = Machine::new(MachineId(1));
        m.submit(ms(0), 0.010, 10).unwrap();
        m.submit(ms(0), 0.010, 20).unwrap();
        m.advance(m.next_completion().unwrap());
        let tags: Vec<u64> = m.collect_finished().iter().map(|t| t.tag).collect();
        assert_eq!(tags, vec![10, 20]);
    }

    #[test]
    fn zero_work_task_completes_immediately() {
        let mut m = Machine::new(MachineId(1));
        m.submit(ms(5), 0.0, 1).unwrap();
        assert_eq!(m.next_completion(), Some(ms(5)));
        m.advance(ms(5));
        assert_eq!(m.collect_finished().len(), 1);
    }

    #[test]
    fn work_conservation_under_load_changes() {
        // Total work done can never exceed capacity × elapsed time.
        let mut m = Machine::new(MachineId(1));
        for i in 0..10 {
            m.submit(ms(i * 10), 0.005, i).unwrap();
            m.set_background(ms(i * 10 + 5), LoadComponent::Spike, (i as f64 % 3.0) / 3.0);
        }
        m.advance(SimTime::from_secs(10));
        m.collect_finished();
        assert!(m.work_done() <= 10.0 + 1e-9);
        assert!(
            (m.work_done() - 0.05).abs() < 1e-9,
            "all submitted work done"
        );
    }
}
