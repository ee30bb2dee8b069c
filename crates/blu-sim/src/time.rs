//! Simulation time.
//!
//! Two clocks coexist in the BLU world:
//!
//! * LTE is slotted: the scheduler thinks in **sub-frames** of 1 ms
//!   ([`SubframeIndex`]).
//! * WiFi interference is asynchronous: DCF timing (DIFS, slot times,
//!   frame airtime) is expressed in **microseconds** ([`Micros`]).
//!
//! The conversion is fixed (`1 sub-frame == 1000 µs`) and captured by
//! [`SubframeIndex::start`] / [`SubframeIndex::end`].

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Duration of one LTE sub-frame in microseconds (LTE numerology: 1 ms).
pub const SUBFRAME_US: u64 = 1_000;

/// Number of sub-frames per second.
pub const SUBFRAMES_PER_SECOND: u64 = 1_000;

/// A point in simulation time, in microseconds since simulation start.
///
/// `Micros` is also used for durations; the arithmetic operators treat
/// it as a plain unsigned microsecond count.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Micros(pub u64);

impl Micros {
    /// Zero time (simulation start).
    pub const ZERO: Micros = Micros(0);

    /// Construct from a millisecond count.
    pub fn from_millis(ms: u64) -> Self {
        Micros(ms * 1_000)
    }

    /// Construct from a second count.
    pub fn from_secs(s: u64) -> Self {
        Micros(s * 1_000_000)
    }

    /// [`Micros::from_secs`] for untrusted counts: `None` when the
    /// microsecond count would overflow `u64`.
    pub fn checked_from_secs(s: u64) -> Option<Self> {
        s.checked_mul(1_000_000).map(Micros)
    }

    /// The raw microsecond count.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// This instant expressed in (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The sub-frame this instant falls into.
    pub fn subframe(self) -> SubframeIndex {
        SubframeIndex(self.0 / SUBFRAME_US)
    }

    /// Saturating subtraction, useful for backing off timers.
    pub fn saturating_sub(self, rhs: Micros) -> Micros {
        Micros(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Micros {
    type Output = Micros;
    fn add(self, rhs: Micros) -> Micros {
        Micros(self.0 + rhs.0)
    }
}

impl AddAssign for Micros {
    fn add_assign(&mut self, rhs: Micros) {
        self.0 += rhs.0;
    }
}

impl Sub for Micros {
    type Output = Micros;
    fn sub(self, rhs: Micros) -> Micros {
        Micros(self.0 - rhs.0)
    }
}

impl fmt::Display for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}µs", self.0)
    }
}

/// Index of an LTE sub-frame (1 ms granularity) since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SubframeIndex(pub u64);

impl SubframeIndex {
    /// First microsecond of this sub-frame.
    pub fn start(self) -> Micros {
        Micros(self.0 * SUBFRAME_US)
    }

    /// One-past-the-end microsecond of this sub-frame.
    pub fn end(self) -> Micros {
        Micros((self.0 + 1) * SUBFRAME_US)
    }

    /// The next sub-frame.
    pub fn next(self) -> SubframeIndex {
        SubframeIndex(self.0 + 1)
    }

    /// Advance by `n` sub-frames.
    pub fn advance(self, n: u64) -> SubframeIndex {
        SubframeIndex(self.0 + n)
    }
}

impl fmt::Display for SubframeIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SF#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micros_constructors_agree() {
        assert_eq!(Micros::from_millis(3), Micros(3_000));
        assert_eq!(Micros::from_secs(2), Micros(2_000_000));
        assert_eq!(Micros::from_secs(1), Micros::from_millis(1_000));
        assert_eq!(Micros::checked_from_secs(2), Some(Micros::from_secs(2)));
        assert_eq!(
            Micros::checked_from_secs(u64::MAX / 1_000_000),
            Some(Micros(u64::MAX / 1_000_000 * 1_000_000))
        );
        assert_eq!(Micros::checked_from_secs(u64::MAX / 1_000_000 + 1), None);
        assert_eq!(Micros::checked_from_secs(u64::MAX), None);
    }

    #[test]
    fn micros_arithmetic() {
        let a = Micros(1_500);
        let b = Micros(500);
        assert_eq!(a + b, Micros(2_000));
        assert_eq!(a - b, Micros(1_000));
        assert_eq!(b.saturating_sub(a), Micros::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c, Micros(2_000));
    }

    #[test]
    fn subframe_boundaries() {
        let sf = SubframeIndex(7);
        assert_eq!(sf.start(), Micros(7_000));
        assert_eq!(sf.end(), Micros(8_000));
        assert_eq!(sf.next(), SubframeIndex(8));
        assert_eq!(sf.advance(3), SubframeIndex(10));
    }

    #[test]
    fn micros_to_subframe_mapping() {
        assert_eq!(Micros(0).subframe(), SubframeIndex(0));
        assert_eq!(Micros(999).subframe(), SubframeIndex(0));
        assert_eq!(Micros(1_000).subframe(), SubframeIndex(1));
        assert_eq!(Micros(123_456).subframe(), SubframeIndex(123));
    }

    #[test]
    fn float_conversions() {
        assert!((Micros(2_500_000).as_secs_f64() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Micros(42).to_string(), "42µs");
        assert_eq!(SubframeIndex(3).to_string(), "SF#3");
    }
}
