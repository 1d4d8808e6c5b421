//! Virtual time for the discrete-event simulation.
//!
//! [`SimTime`] is an instant measured in nanoseconds since the start of the
//! simulation; [`SimDuration`] is a span between two instants. Both are thin
//! `u64` newtypes ([C-NEWTYPE]) so that instants and spans cannot be mixed up
//! and so arithmetic stays exact (no floating-point clock drift).
//!
//! ```
//! use sps_sim::{SimDuration, SimTime};
//!
//! let start = SimTime::ZERO;
//! let later = start + SimDuration::from_millis(250);
//! assert_eq!(later - start, SimDuration::from_millis(250));
//! assert_eq!(later.as_secs_f64(), 0.25);
//! ```

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time, in nanoseconds since the simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from whole nanoseconds since the epoch.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant from whole microseconds since the epoch.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * 1_000)
    }

    /// Creates an instant from whole milliseconds since the epoch.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000_000)
    }

    /// Creates an instant from whole seconds since the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float (lossy beyond ~2^53 ns).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds since the epoch, as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span from `earlier` to `self`, or [`SimDuration::ZERO`] if
    /// `earlier` is later than `self`.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

/// `x.round() as u64` for `0 <= x < 2^64`, without the out-of-line libm
/// call the baseline x86-64 target makes for `round`. Exact: below 2^52 the
/// truncation and the fractional part are both representable, and from
/// there up `x` is an integer.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    let whole = x as u64;
    whole + u64::from(x - whole as f64 >= 0.5)
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span; useful as an "infinite" sentinel.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span from whole nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a span from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a span from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a span from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a span from fractional seconds, rounding to the nearest
    /// nanosecond and saturating at [`SimDuration::MAX`].
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or NaN.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs >= 0.0 && secs.is_finite(),
            "duration seconds must be finite and non-negative, got {secs}"
        );
        let nanos = secs * 1e9;
        if nanos >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(round_to_u64(nanos))
        }
    }

    /// Whole nanoseconds in the span.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in seconds, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span in milliseconds, as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// `true` if the span is empty.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scales the span by `factor`, rounding to the nearest nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or NaN.
    pub fn mul_f64(self, factor: f64) -> Self {
        assert!(
            factor >= 0.0 && factor.is_finite(),
            "duration scale factor must be finite and non-negative, got {factor}"
        );
        SimDuration::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// Saturating subtraction of spans.
    pub fn saturating_sub(self, other: SimDuration) -> Self {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The larger of the two spans.
    pub fn max(self, other: SimDuration) -> Self {
        SimDuration(self.0.max(other.0))
    }

    /// The smaller of the two spans.
    pub fn min(self, other: SimDuration) -> Self {
        SimDuration(self.0.min(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// The span from `rhs` to `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; saturates to
    /// zero in release builds.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(
            self.0 >= rhs.0,
            "SimTime subtraction underflow: {self} - {rhs}"
        );
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(
            self.0 >= rhs.0,
            "SimDuration subtraction underflow: {self} - {rhs}"
        );
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;
    /// The ratio of two spans.
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1_000));
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2_000));
    }

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_millis(100);
        let d = SimDuration::from_millis(40);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(1));
    }

    #[test]
    fn duration_float_round_trip() {
        let d = SimDuration::from_secs_f64(0.123_456_789);
        assert_eq!(d.as_nanos(), 123_456_789);
        assert!((d.as_secs_f64() - 0.123_456_789).abs() < 1e-12);
    }

    /// The inlined rounding against the `f64::round` it replaced: halfway
    /// cases, the floats either side of them, the integer-only range, then
    /// seeded random values of every magnitude below 2^64.
    #[test]
    fn round_to_u64_equals_f64_round() {
        let check = |x: f64| assert_eq!(round_to_u64(x), x.round() as u64, "x = {x:e}");
        let two53 = (1u64 << 53) as f64;
        let mut edges = vec![0.0, 1.0, 0.499_999_999_999_999_94, two53, two53 * 4.0];
        // Up to 2^52 - 0.5, the largest half-integer an f64 holds.
        for k in [0u64, 1, 2, 7, 1_000, 123_456_789, (1 << 52) - 1] {
            edges.push(k as f64 + 0.5);
        }
        for x in edges {
            check(x);
            check(f64::from_bits(x.to_bits() + 1));
            if x > 0.0 {
                check(f64::from_bits(x.to_bits() - 1));
            }
        }
        // The largest f64 below 2^64, where `from_secs_f64` saturates.
        check(f64::from_bits((u64::MAX as f64).to_bits() - 1));
        let mut rng = crate::rng::SimRng::seed_from(0x5EC5);
        for _ in 0..1_000_000 {
            // A random mantissa at a random binary magnitude, 2^-10 up to
            // just under 2^64.
            let mantissa = 1.0 + (rng.next_u64() >> 11) as f64 / two53;
            check(mantissa * 2f64.powi((rng.next_u64() % 74) as i32 - 10));
        }
    }

    #[test]
    fn from_secs_f64_saturates_at_max() {
        assert_eq!(SimDuration::from_secs_f64(1.9e10), SimDuration::MAX);
        assert_eq!(SimDuration::from_secs_f64(f64::MAX), SimDuration::MAX);
        assert_eq!(
            SimDuration::from_secs_f64(1.8e10).as_nanos(),
            18_000_000_000_000_000_000
        );
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(100);
        assert_eq!(d.mul_f64(2.5), SimDuration::from_millis(250));
        assert_eq!(d * 3, SimDuration::from_millis(300));
        assert_eq!(d / 4, SimDuration::from_millis(25));
        assert!((SimDuration::from_secs(1) / SimDuration::from_millis(250) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn duration_min_max_saturating() {
        let a = SimDuration::from_millis(10);
        let b = SimDuration::from_millis(20);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.saturating_sub(b), SimDuration::ZERO);
        assert_eq!(b.saturating_sub(a), SimDuration::from_millis(10));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_seconds_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn display_chooses_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimTime::from_millis(1500).to_string(), "t=1.500000s");
    }
}
