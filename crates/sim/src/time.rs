//! Virtual time: simulation instants and durations with nanosecond precision.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A point in simulated time, measured in nanoseconds since the start of the
/// simulation.
///
/// `SimTime` is a newtype over `u64`; arithmetic with [`SimDuration`] is
/// checked in debug builds and saturating in release builds, so a simulation
/// never silently wraps around.
///
/// # Example
///
/// ```rust
/// use xcc_sim::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(200);
/// assert_eq!(t.as_secs_f64(), 0.2);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, measured in nanoseconds.
///
/// # Example
///
/// ```rust
/// use xcc_sim::SimDuration;
///
/// let block_interval = SimDuration::from_secs(5);
/// assert_eq!(block_interval.as_millis(), 5_000);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from whole nanoseconds since simulation start.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant from whole seconds since simulation start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a floating point value.
    // xcc-lint: allow(float-determinism, reason = "reporting view of the clock; the scheduler orders events by the u64 nanosecond count, never by this float")
    pub fn as_secs_f64(self) -> f64 {
        // xcc-lint: allow(float-determinism, reason = "one rounding of an integer count; nothing converts the result back into simulated time")
        self.0 as f64 / 1e9
    }

    /// Milliseconds since simulation start (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from whole nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Whole nanoseconds in this duration.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole milliseconds in this duration (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds as a floating point value.
    // xcc-lint: allow(float-determinism, reason = "reporting view of the clock; the scheduler orders events by the u64 nanosecond count, never by this float")
    pub fn as_secs_f64(self) -> f64 {
        // xcc-lint: allow(float-determinism, reason = "one rounding of an integer count; nothing converts the result back into simulated time")
        self.0 as f64 / 1e9
    }

    /// `true` if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction of two durations.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self <= other {
            self
        } else {
            other
        }
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

    fn sub(self, rhs: SimTime) -> SimDuration {
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

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{}ms", self.as_millis())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

// xcc-lint: allow(float-determinism, reason = "the reporting conversion as_secs_f64, spelt as a From impl")
impl From<SimDuration> for f64 {
    // xcc-lint: allow(float-determinism, reason = "see the impl line: a reporting conversion")
    fn from(d: SimDuration) -> f64 {
        d.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_plus_duration() {
        let t = SimTime::from_secs(10) + SimDuration::from_millis(500);
        assert_eq!(t.as_nanos(), 10_500_000_000);
    }

    #[test]
    fn time_difference_is_duration() {
        let a = SimTime::from_secs(3);
        let b = SimTime::from_secs(8);
        assert_eq!(b - a, SimDuration::from_secs(5));
        // Saturating in the other direction.
        assert_eq!(a - b, SimDuration::ZERO);
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::from_millis(200) * 3;
        assert_eq!(d.as_millis(), 600);
        assert_eq!((d / 2).as_millis(), 300);
        assert_eq!(
            d.saturating_sub(SimDuration::from_secs(10)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_secs(5).to_string(), "5.000s");
        assert_eq!(SimDuration::from_millis(20).to_string(), "20ms");
        assert_eq!(SimDuration::from_nanos(17).to_string(), "17ns");
        assert_eq!(SimTime::from_secs(1).to_string(), "1.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = [1u64, 2, 3]
            .iter()
            .map(|s| SimDuration::from_secs(*s))
            .sum();
        assert_eq!(total, SimDuration::from_secs(6));
    }

    #[test]
    fn min_max_helpers() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let da = SimDuration::from_secs(1);
        let db = SimDuration::from_secs(2);
        assert_eq!(da.max(db), db);
        assert_eq!(da.min(db), da);
    }
}
