//! Virtual time.
//!
//! All timing in the simulator is expressed as [`SimTime`], a nanosecond
//! count since the start of a run. The same type is used for instants and
//! durations; the arithmetic impls below are saturating so that cost-model
//! rounding can never wrap.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A virtual instant or duration, in nanoseconds.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of virtual time (also the zero duration).
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from a nanosecond count.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from a microsecond count.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from a millisecond count.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// The raw nanosecond count.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// The value in (fractional) microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The value in (fractional) milliseconds.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The value in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `self - other`, clamping at zero instead of wrapping.
    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// Scale a duration by a dimensionless factor, rounding to nearest ns.
    #[inline]
    pub fn scaled(self, factor: f64) -> SimTime {
        debug_assert!(factor >= 0.0, "negative time scale");
        SimTime((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl From<u64> for SimTime {
    #[inline]
    fn from(ns: u64) -> Self {
        SimTime(ns)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_ns(1500).as_ns(), 1500);
        assert_eq!(SimTime::from_us(2).as_ns(), 2000);
        assert_eq!(SimTime::from_ms(3).as_ns(), 3_000_000);
        assert_eq!(SimTime::from(7u64).as_ns(), 7);
    }

    #[test]
    fn arithmetic_saturates() {
        let a = SimTime::from_ns(u64::MAX);
        assert_eq!((a + SimTime::from_ns(10)).as_ns(), u64::MAX);
        assert_eq!(SimTime::from_ns(5).saturating_sub(SimTime::from_ns(9)), SimTime::ZERO);
    }

    #[test]
    fn max_min_and_scaled() {
        let a = SimTime::from_ns(10);
        let b = SimTime::from_ns(20);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(SimTime::from_ns(100).scaled(2.5).as_ns(), 250);
        assert_eq!(SimTime::from_ns(3).scaled(0.5).as_ns(), 2); // round-to-nearest
    }

    #[test]
    fn sums_and_ordering() {
        let total: SimTime = [1u64, 2, 3].iter().map(|&n| SimTime::from_ns(n)).sum();
        assert_eq!(total.as_ns(), 6);
        assert!(SimTime::from_ns(1) < SimTime::from_ns(2));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimTime::from_ns(12).to_string(), "12ns");
        assert_eq!(SimTime::from_us(12).to_string(), "12.000us");
        assert_eq!(SimTime::from_ms(12).to_string(), "12.000ms");
        assert_eq!(SimTime::from_ms(1200).to_string(), "1.200s");
    }

    #[test]
    fn unit_conversions() {
        let t = SimTime::from_ns(1_500_000);
        assert!((t.as_ms_f64() - 1.5).abs() < 1e-12);
        assert!((t.as_us_f64() - 1500.0).abs() < 1e-9);
        assert!((t.as_secs_f64() - 0.0015).abs() < 1e-12);
    }
}
