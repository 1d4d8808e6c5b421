//! # sps-sim — deterministic discrete-event simulation kernel
//!
//! The substrate every other `sps-*` crate runs on. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — an exact, nanosecond-resolution virtual
//!   clock (no floating-point drift, no wall-clock nondeterminism);
//! * [`EventQueue`] — a stable min-heap of pending events with FIFO
//!   tie-breaking, so runs are reproducible;
//! * [`Simulation`] / [`World`] / [`Ctx`] — the run loop: pop the earliest
//!   event, advance the clock, let the world react and schedule more;
//! * [`TimerSlot`] — O(1) cancellable/re-armable timers via generation
//!   tokens;
//! * [`SimRng`] — a seeded PRNG with the distributions the cluster models
//!   need (exponential, Pareto, normal, log-normal) and order-independent
//!   substream forking.
//!
//! The paper this workspace reproduces (Zhang et al., ICDCS 2010) was
//! evaluated on a physical cluster; this kernel is the laptop-scale stand-in
//! that makes those experiments deterministic and fast while leaving every
//! protocol above it unchanged.
//!
//! ## Example
//!
//! ```
//! use sps_sim::{Ctx, SimDuration, Simulation, World};
//!
//! /// A one-shot echo world: fires once, records the time.
//! struct Echo {
//!     fired_at_ms: f64,
//! }
//!
//! impl World for Echo {
//!     type Event = &'static str;
//!     fn handle(&mut self, ctx: &mut Ctx<&'static str>, msg: &'static str) {
//!         assert_eq!(msg, "ping");
//!         self.fired_at_ms = ctx.now().as_millis_f64();
//!     }
//! }
//!
//! let mut sim = Simulation::new(Echo { fired_at_ms: 0.0 }, 1);
//! sim.schedule_in(SimDuration::from_millis(3), "ping");
//! sim.run_to_completion();
//! assert_eq!(sim.world().fired_at_ms, 3.0);
//! ```

// The `bench` feature swaps `forbid` for `deny` so the counting allocator —
// the one place this workspace touches `unsafe` — can opt out explicitly.
#![cfg_attr(not(feature = "bench"), forbid(unsafe_code))]
#![cfg_attr(feature = "bench", deny(unsafe_code))]
#![warn(missing_docs, missing_debug_implementations)]

#[cfg(feature = "bench")]
pub mod counting_alloc;
mod queue;
mod rng;
mod sim;
mod time;
mod timer;

pub use queue::EventQueue;
pub use rng::SimRng;
#[cfg(feature = "bench")]
pub use sim::StepProbe;
pub use sim::{Ctx, Simulation, World};
pub use time::{SimDuration, SimTime};
pub use timer::{TimerGen, TimerSlot};
