//! Simulated time.
//!
//! Time is measured in whole milliseconds from the start of the run. The
//! paper's scenarios span 5 simulated hours (Table 1), far inside `u64`
//! range, and millisecond resolution comfortably resolves per-hop MAC
//! delays (hundreds of microseconds round to 1 ms granularity events; the
//! network layer accumulates sub-millisecond parts before scheduling).

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// An instant in simulated time, in milliseconds since the run started.
///
/// `SimTime` is totally ordered and only produced by advancing the clock;
/// subtracting two instants yields a [`SimDuration`].
///
/// # Example
///
/// ```
/// use mp2p_sim::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_secs(90);
/// assert_eq!(t.as_millis(), 90_000);
/// assert_eq!(t - SimTime::ZERO, SimDuration::from_mins(1) + SimDuration::from_secs(30));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in milliseconds.
///
/// # Example
///
/// ```
/// use mp2p_sim::SimDuration;
///
/// assert_eq!(SimDuration::from_mins(2).as_millis(), 120_000);
/// assert_eq!(SimDuration::from_secs(1) * 3, SimDuration::from_secs(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds an instant from raw milliseconds since the start of the run.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Milliseconds since the start of the run.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds since the start of the run, as floating point.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The later of two instants.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The duration since `earlier`, or [`SimDuration::ZERO`] if `earlier`
    /// is in the future.
    #[must_use]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Builds a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000)
    }

    /// Builds a duration from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60_000)
    }

    /// Builds a duration from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600_000)
    }

    /// Builds a duration from fractional seconds, rounding to milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration seconds must be finite and non-negative, got {secs}"
        );
        SimDuration((secs * 1_000.0).round() as u64)
    }

    /// [`Self::from_secs_f64`] for seconds that come from outside the
    /// program: `None` when `secs` is negative, not finite, or too long
    /// for 64-bit milliseconds (where the cast would saturate silently).
    pub fn try_from_secs_f64(secs: f64) -> Option<Self> {
        let ms = (secs * 1_000.0).round();
        // 2^64 is exact in f64; everything below it fits (NaN is in no range).
        (0.0..18_446_744_073_709_551_616.0)
            .contains(&ms)
            .then_some(SimDuration(ms as u64))
    }

    /// Length in whole milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Length in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// True if this is the empty duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies by a non-negative floating factor, rounding to
    /// milliseconds (used for jitter and backoff scaling).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[must_use]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "duration factor must be finite and non-negative, got {factor}"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
    }

    /// The larger of two durations.
    #[must_use]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The smaller of two durations.
    #[must_use]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(rhs <= self, "time went backwards: {self} - {rhs}");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0 % 1_000;
        let secs = self.0 / 1_000;
        let (h, m, s) = (secs / 3_600, (secs % 3_600) / 60, secs % 60);
        write!(f, "{h:02}:{m:02}:{s:02}.{ms:03}")
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ms", self.0)
        } else if self.0.is_multiple_of(60_000) {
            write!(f, "{}min", self.0 / 60_000)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_are_consistent() {
        assert_eq!(SimDuration::from_secs(1).as_millis(), 1_000);
        assert_eq!(SimDuration::from_mins(2), SimDuration::from_secs(120));
        assert_eq!(SimDuration::from_hours(5), SimDuration::from_mins(300));
        assert_eq!(SimDuration::from_secs_f64(1.5).as_millis(), 1_500);
    }

    #[test]
    fn checked_conversion_refuses_what_does_not_fit() {
        let ok = SimDuration::try_from_secs_f64;
        assert_eq!(ok(1.5), Some(SimDuration::from_millis(1_500)));
        assert_eq!(ok(0.0001), Some(SimDuration::ZERO));
        assert_eq!(
            ok(1.8e16).map(SimDuration::as_millis),
            Some(18_000_000_000_000_000_000)
        );
        for bad in [-0.001, f64::NAN, f64::INFINITY, 1.9e16, 1e300] {
            assert_eq!(ok(bad), None, "{bad}");
        }
    }

    #[test]
    fn time_arithmetic_round_trips() {
        let start = SimTime::from_millis(42);
        let d = SimDuration::from_secs(3);
        assert_eq!((start + d) - start, d);
        assert_eq!((start + d).as_millis(), 3_042);
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let early = SimTime::from_millis(10);
        let late = SimTime::from_millis(50);
        assert_eq!(late.saturating_since(early).as_millis(), 40);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn mul_f64_rounds_to_millis() {
        assert_eq!(SimDuration::from_millis(10).mul_f64(0.25).as_millis(), 3);
        assert_eq!(
            SimDuration::from_secs(2).mul_f64(1.5),
            SimDuration::from_secs(3)
        );
        assert_eq!(SimDuration::from_secs(1).mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn mul_f64_rejects_negative() {
        let _ = SimDuration::from_secs(1).mul_f64(-1.0);
    }

    #[test]
    fn display_formats() {
        let t = SimTime::ZERO + SimDuration::from_hours(1) + SimDuration::from_secs(90);
        assert_eq!(t.to_string(), "01:01:30.000");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5ms");
        assert_eq!(SimDuration::from_mins(3).to_string(), "3min");
        assert_eq!(SimDuration::from_millis(1_500).to_string(), "1.500s");
    }

    #[test]
    fn duration_min_max() {
        let a = SimDuration::from_secs(1);
        let b = SimDuration::from_secs(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn duration_sub_saturates() {
        let a = SimDuration::from_secs(1);
        let b = SimDuration::from_secs(2);
        assert_eq!(a - b, SimDuration::ZERO);
        assert_eq!(b - a, SimDuration::from_secs(1));
    }
}
