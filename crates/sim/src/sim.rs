//! The simulation driver: a virtual clock, an event queue, and a [`World`]
//! that interprets events.
//!
//! A simulation is a loop that pops the earliest pending event, advances the
//! clock to its firing time, and hands it to the world together with a
//! [`Ctx`] through which the world schedules follow-up events and draws
//! randomness. Runs are fully deterministic for a given `(world, seed,
//! schedule)` triple.
//!
//! ```
//! use sps_sim::{Ctx, SimDuration, Simulation, World};
//!
//! /// Counts ticks, rescheduling itself until five have fired.
//! struct Ticker {
//!     ticks: u32,
//! }
//!
//! impl World for Ticker {
//!     type Event = ();
//!     fn handle(&mut self, ctx: &mut Ctx<()>, _event: ()) {
//!         self.ticks += 1;
//!         if self.ticks < 5 {
//!             ctx.schedule_in(SimDuration::from_millis(10), ());
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Ticker { ticks: 0 }, 42);
//! sim.schedule_in(SimDuration::ZERO, ());
//! sim.run_to_completion();
//! assert_eq!(sim.world().ticks, 5);
//! assert_eq!(sim.now().as_millis_f64(), 40.0);
//! ```

use crate::queue::EventQueue;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// The behaviour under simulation: state plus an event interpreter.
pub trait World {
    /// The event alphabet of this world.
    type Event;

    /// Handles one event at the context's current time.
    fn handle(&mut self, ctx: &mut Ctx<Self::Event>, event: Self::Event);
}

/// The world's handle onto the simulation: clock, scheduler, and RNG.
#[derive(Debug)]
pub struct Ctx<E> {
    now: SimTime,
    queue: EventQueue<E>,
    rng: SimRng,
    stopped: bool,
    processed: u64,
}

impl<E> Ctx<E> {
    fn new(seed: u64) -> Self {
        Ctx {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            rng: SimRng::seed_from(seed),
            stopped: false,
            processed: 0,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire after `delay`.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Schedules `event` to fire at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` is in the past; in release builds the
    /// event fires immediately (at the current time).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        self.queue.push(at.max(self.now), event);
    }

    /// Like [`Ctx::schedule_at`], but the event carries `weight` logical
    /// elements for queue-depth accounting (a batched data delivery is one
    /// event but `batch.len()` elements in flight).
    pub fn schedule_at_weighted(&mut self, at: SimTime, event: E, weight: u64) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        self.queue.push_weighted(at.max(self.now), event, weight);
    }

    /// The simulation RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Requests that the run loop stop after the current event.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Number of events handled so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events currently pending.
    pub fn events_pending(&self) -> usize {
        self.queue.len()
    }

    /// High-water mark of the pending queue's logical weight (elements,
    /// not heap entries: a batched delivery counts its batch length), so
    /// the figure is comparable across batch sizes.
    pub fn peak_queue_weight(&self) -> u64 {
        self.queue.peak_weight()
    }
}

/// Host-side cost of handling one event, as measured by
/// [`Simulation::step_profiled`]: wall-clock nanoseconds plus allocation
/// deltas from the counting allocator.
#[cfg(feature = "bench")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepProbe {
    /// Sim-time of the handled event.
    pub at: SimTime,
    /// Host wall-clock spent inside the handler, in nanoseconds.
    pub wall_ns: u64,
    /// Heap allocation calls made by the handler.
    pub allocations: u64,
    /// Bytes requested by those allocation calls.
    pub alloc_bytes: u64,
}

/// A complete simulation: a [`World`] plus its [`Ctx`].
#[derive(Debug)]
pub struct Simulation<W: World> {
    world: W,
    ctx: Ctx<W::Event>,
}

impl<W: World> Simulation<W> {
    /// Creates a simulation over `world` with the RNG seeded from `seed`.
    pub fn new(world: W, seed: u64) -> Self {
        Simulation {
            world,
            ctx: Ctx::new(seed),
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.ctx.now
    }

    /// A shared view of the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// An exclusive view of the world.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// The world together with its context, for setup code that needs both.
    pub fn parts_mut(&mut self) -> (&mut W, &mut Ctx<W::Event>) {
        (&mut self.world, &mut self.ctx)
    }

    /// This run's peak logical event-queue weight (see
    /// [`Ctx::peak_queue_weight`]).
    pub fn peak_queue_weight(&self) -> u64 {
        self.ctx.peak_queue_weight()
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: W::Event) {
        self.ctx.schedule_in(delay, event);
    }

    /// Schedules an event at absolute time `at`.
    pub fn schedule_at(&mut self, at: SimTime, event: W::Event) {
        self.ctx.schedule_at(at, event);
    }

    /// Handles a single pending event, if any; returns whether one fired.
    pub fn step(&mut self) -> bool {
        if self.ctx.stopped {
            return false;
        }
        match self.ctx.queue.pop() {
            Some((time, event)) => {
                debug_assert!(time >= self.ctx.now, "event queue went backwards");
                self.ctx.now = time;
                self.ctx.processed += 1;
                self.world.handle(&mut self.ctx, event);
                true
            }
            None => false,
        }
    }

    /// Like [`step`](Self::step), but measures host-side wall-clock and
    /// heap-allocation cost of handling the event. `classify` sees the
    /// event *before* it is handled and its label is returned with the
    /// probe, letting the caller bin costs per event kind.
    ///
    /// Profiling is pure host-side observation: the event popped, the
    /// times advanced, and the handler executed are byte-for-byte the same
    /// as under [`step`](Self::step) — `Instant` and allocator counters
    /// never feed back into simulated state. Allocation deltas are only
    /// meaningful when the binary registers
    /// [`CountingAllocator`](crate::counting_alloc::CountingAllocator) as
    /// its global allocator; they read zero otherwise.
    #[cfg(feature = "bench")]
    pub fn step_profiled<L>(
        &mut self,
        classify: impl FnOnce(&W::Event) -> L,
    ) -> Option<(L, StepProbe)> {
        if self.ctx.stopped {
            return None;
        }
        let (time, event) = self.ctx.queue.pop()?;
        debug_assert!(time >= self.ctx.now, "event queue went backwards");
        self.ctx.now = time;
        self.ctx.processed += 1;
        let label = classify(&event);
        let a0 = crate::counting_alloc::allocations();
        let b0 = crate::counting_alloc::allocated_bytes();
        let t0 = std::time::Instant::now();
        self.world.handle(&mut self.ctx, event);
        let wall_ns = t0.elapsed().as_nanos() as u64;
        Some((
            label,
            StepProbe {
                at: time,
                wall_ns,
                allocations: crate::counting_alloc::allocations() - a0,
                alloc_bytes: crate::counting_alloc::allocated_bytes() - b0,
            },
        ))
    }

    /// Runs until the queue is empty, `limit` is reached, or the world calls
    /// [`Ctx::stop`]. Events scheduled exactly at `limit` do fire; the clock
    /// finishes at `limit` even if the queue drains early.
    pub fn run_until(&mut self, limit: SimTime) {
        // `pop_if_at_or_before` makes the in-range check and the removal one
        // ordered lookup, where peek-then-pop paid for the ordering twice.
        while !self.ctx.stopped {
            match self.ctx.queue.pop_if_at_or_before(limit) {
                Some((time, event)) => {
                    debug_assert!(time >= self.ctx.now, "event queue went backwards");
                    self.ctx.now = time;
                    self.ctx.processed += 1;
                    self.world.handle(&mut self.ctx, event);
                }
                None => break,
            }
        }
        if !self.ctx.stopped && self.ctx.now < limit {
            self.ctx.now = limit;
        }
    }

    /// Runs for `span` of simulated time past the current instant.
    pub fn run_for(&mut self, span: SimDuration) {
        let limit = self.ctx.now + span;
        self.run_until(limit);
    }

    /// Runs until the event queue drains or the world stops the run.
    pub fn run_to_completion(&mut self) {
        while self.step() {}
    }

    /// Number of events handled so far.
    pub fn events_processed(&self) -> u64 {
        self.ctx.processed
    }

    /// `true` once the world has called [`Ctx::stop`].
    pub fn is_stopped(&self) -> bool {
        self.ctx.stopped
    }

    /// Consumes the simulation and returns the final world state.
    pub fn into_world(self) -> W {
        self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default)]
    struct Recorder {
        seen: Vec<(SimTime, u32)>,
        stop_at: Option<u32>,
    }

    impl World for Recorder {
        type Event = u32;
        fn handle(&mut self, ctx: &mut Ctx<u32>, event: u32) {
            self.seen.push((ctx.now(), event));
            if self.stop_at == Some(event) {
                ctx.stop();
            }
        }
    }

    #[test]
    fn events_fire_in_order_and_advance_clock() {
        let mut sim = Simulation::new(Recorder::default(), 0);
        sim.schedule_at(SimTime::from_millis(30), 3);
        sim.schedule_at(SimTime::from_millis(10), 1);
        sim.schedule_at(SimTime::from_millis(20), 2);
        sim.run_to_completion();
        assert_eq!(
            sim.world().seen,
            vec![
                (SimTime::from_millis(10), 1),
                (SimTime::from_millis(20), 2),
                (SimTime::from_millis(30), 3)
            ]
        );
    }

    #[test]
    fn run_until_is_inclusive_and_advances_to_limit() {
        let mut sim = Simulation::new(Recorder::default(), 0);
        sim.schedule_at(SimTime::from_millis(10), 1);
        sim.schedule_at(SimTime::from_millis(20), 2);
        sim.schedule_at(SimTime::from_millis(21), 3);
        sim.run_until(SimTime::from_millis(20));
        assert_eq!(sim.world().seen.len(), 2, "event at the limit must fire");
        assert_eq!(sim.now(), SimTime::from_millis(20));
        sim.run_until(SimTime::from_millis(50));
        assert_eq!(sim.world().seen.len(), 3);
        assert_eq!(
            sim.now(),
            SimTime::from_millis(50),
            "clock reaches the limit"
        );
    }

    #[test]
    fn stop_halts_immediately() {
        let mut sim = Simulation::new(
            Recorder {
                stop_at: Some(2),
                ..Default::default()
            },
            0,
        );
        for i in 1..=5 {
            sim.schedule_at(SimTime::from_millis(i * 10), i as u32);
        }
        sim.run_to_completion();
        assert_eq!(sim.world().seen.len(), 2);
        assert!(sim.is_stopped());
        assert!(!sim.step(), "stopped simulations do not step");
    }

    #[test]
    fn handlers_can_reschedule() {
        struct Chain {
            hops: u32,
        }
        impl World for Chain {
            type Event = ();
            fn handle(&mut self, ctx: &mut Ctx<()>, _: ()) {
                self.hops += 1;
                if self.hops < 10 {
                    ctx.schedule_in(SimDuration::from_micros(5), ());
                }
            }
        }
        let mut sim = Simulation::new(Chain { hops: 0 }, 0);
        sim.schedule_in(SimDuration::ZERO, ());
        sim.run_to_completion();
        assert_eq!(sim.world().hops, 10);
        assert_eq!(sim.now(), SimTime::from_micros(45));
        assert_eq!(sim.events_processed(), 10);
    }

    #[test]
    fn same_seed_same_draws() {
        struct Draws(Vec<u64>);
        impl World for Draws {
            type Event = ();
            fn handle(&mut self, ctx: &mut Ctx<()>, _: ()) {
                let v = ctx.rng().next_u64();
                self.0.push(v);
                if self.0.len() < 20 {
                    ctx.schedule_in(SimDuration::from_nanos(1), ());
                }
            }
        }
        let run = |seed| {
            let mut sim = Simulation::new(Draws(Vec::new()), seed);
            sim.schedule_in(SimDuration::ZERO, ());
            sim.run_to_completion();
            sim.into_world().0
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
