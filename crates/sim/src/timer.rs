//! Cancellable timers on top of the event queue.
//!
//! The event queue has no random-access removal, so cancellation uses
//! *generation tokens*: a [`TimerSlot`] hands out a fresh [`TimerGen`] each
//! time it is armed, and a firing event is honoured only if it still carries
//! the current generation. Re-arming or cancelling the slot invalidates every
//! outstanding event at O(1) cost.
//!
//! ```
//! use sps_sim::TimerSlot;
//!
//! let mut slot = TimerSlot::new();
//! let first = slot.arm();
//! let second = slot.arm();      // re-arm: the first event is now stale
//! assert!(!slot.is_current(first));
//! assert!(slot.is_current(second));
//! slot.cancel();
//! assert!(!slot.is_current(second));
//! ```

/// An opaque generation token carried inside a scheduled timer event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerGen(u64);

/// The owner-side state of one logical (re-armable, cancellable) timer.
#[derive(Debug, Clone, Default)]
pub struct TimerSlot {
    gen: u64,
    armed: bool,
}

impl TimerSlot {
    /// Creates a slot with no timer armed.
    pub fn new() -> Self {
        TimerSlot::default()
    }

    /// Arms the timer, invalidating any previously scheduled firing, and
    /// returns the token to embed in the event.
    pub fn arm(&mut self) -> TimerGen {
        self.gen += 1;
        self.armed = true;
        TimerGen(self.gen)
    }

    /// Cancels the timer; every outstanding token becomes stale.
    pub fn cancel(&mut self) {
        self.gen += 1;
        self.armed = false;
    }

    /// `true` if `token` belongs to the currently armed timer.
    ///
    /// The typical firing handler is:
    /// `if !slot.fire(token) { return; }`.
    pub fn is_current(&self, token: TimerGen) -> bool {
        self.armed && token.0 == self.gen
    }

    /// Consumes a firing: returns `true` and disarms the slot when `token`
    /// is current, returns `false` for stale tokens.
    pub fn fire(&mut self, token: TimerGen) -> bool {
        if self.is_current(token) {
            self.armed = false;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_then_fire_consumes() {
        let mut slot = TimerSlot::new();
        let tok = slot.arm();
        assert!(slot.is_current(tok));
        assert!(slot.fire(tok));
        assert!(!slot.is_current(tok));
        assert!(!slot.fire(tok), "double fire must be rejected");
    }

    #[test]
    fn rearm_invalidates_previous() {
        let mut slot = TimerSlot::new();
        let old = slot.arm();
        let new = slot.arm();
        assert!(!slot.fire(old));
        assert!(slot.fire(new));
    }

    #[test]
    fn cancel_invalidates() {
        let mut slot = TimerSlot::new();
        let tok = slot.arm();
        slot.cancel();
        assert!(!slot.fire(tok));
    }

    #[test]
    fn tokens_from_different_arms_are_distinct() {
        let mut slot = TimerSlot::new();
        let a = slot.arm();
        let b = slot.arm();
        assert_ne!(a, b);
    }
}
