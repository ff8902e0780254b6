//! The simulated clock.
//!
//! All timing in the simulator is expressed in CPU cycles of the paper's
//! 3 GHz in-order core (Table 2). Device latencies given in nanoseconds are
//! converted with [`Cycle::from_ns`].

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

use serde::{Deserialize, Serialize};

use crate::config::CPU_FREQ_GHZ;

/// A point in (or duration of) simulated time, measured in CPU cycles.
///
/// `Cycle` is used both as an absolute timestamp and as a duration; the
/// arithmetic operators treat it as a plain unsigned quantity.
///
/// # Example
///
/// ```
/// use thynvm_types::Cycle;
/// let t = Cycle::ZERO + Cycle::from_ns(40); // a DRAM row hit
/// assert_eq!(t.raw(), 120);                 // 40 ns @ 3 GHz
/// assert_eq!(t.as_ns(), 40.0);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Cycle(u64);

impl Cycle {
    /// Time zero / the empty duration.
    pub const ZERO: Cycle = Cycle(0);

    /// Creates a cycle count from a raw number of cycles.
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// Returns the raw cycle count.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Converts a nanosecond latency to cycles at the 3 GHz core clock,
    /// rounding to the nearest cycle.
    pub fn from_ns(ns: u64) -> Self {
        Self(ns * CPU_FREQ_GHZ)
    }

    /// Converts a microsecond duration to cycles, saturating at
    /// `u64::MAX` cycles (about 195 years) instead of wrapping.
    pub fn from_us(us: u64) -> Self {
        Self(us.saturating_mul(1_000 * CPU_FREQ_GHZ))
    }

    /// Converts a millisecond duration to cycles, saturating at
    /// `u64::MAX` cycles (about 195 years) instead of wrapping, so an
    /// epoch longer than the clock can count never ends rather than
    /// becoming a short one.
    pub fn from_ms(ms: u64) -> Self {
        Self(ms.saturating_mul(1_000_000 * CPU_FREQ_GHZ))
    }

    /// This duration expressed in nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / CPU_FREQ_GHZ as f64
    }

    /// This duration expressed in seconds.
    pub fn as_secs(self) -> f64 {
        self.as_ns() * 1e-9
    }

    /// Saturating subtraction; clamps at zero instead of underflowing.
    #[must_use]
    pub fn saturating_sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }

    /// The later of two instants.
    #[must_use]
    pub fn max(self, rhs: Self) -> Self {
        Self(self.0.max(rhs.0))
    }

    /// The earlier of two instants.
    #[must_use]
    pub fn min(self, rhs: Self) -> Self {
        Self(self.0.min(rhs.0))
    }
}

impl Add for Cycle {
    type Output = Cycle;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for Cycle {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycle {
    type Output = Cycle;
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl SubAssign for Cycle {
    fn sub_assign(&mut self, rhs: Self) {
        self.0 -= rhs.0;
    }
}

impl Sum for Cycle {
    fn sum<I: Iterator<Item = Cycle>>(iter: I) -> Self {
        iter.fold(Cycle::ZERO, Add::add)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

impl From<u64> for Cycle {
    fn from(raw: u64) -> Self {
        Self::new(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_conversion_at_3ghz() {
        assert_eq!(Cycle::from_ns(40).raw(), 120);
        assert_eq!(Cycle::from_ns(80).raw(), 240);
        assert_eq!(Cycle::from_ns(128).raw(), 384);
        assert_eq!(Cycle::from_ns(368).raw(), 1104);
        assert_eq!(Cycle::from_ns(3).raw(), 9);
    }

    #[test]
    fn larger_units() {
        assert_eq!(Cycle::from_us(1), Cycle::from_ns(1_000));
        assert_eq!(Cycle::from_ms(10).raw(), 30_000_000);
    }

    #[test]
    fn larger_units_saturate_instead_of_wrapping() {
        // The last millisecond count that fits, and the first that wrapped.
        let last_ms = u64::MAX / 3_000_000;
        assert_eq!(last_ms, 6_148_914_691_236);
        assert_eq!(Cycle::from_ms(last_ms).raw(), last_ms * 3_000_000);
        assert_eq!(Cycle::from_ms(last_ms + 1).raw(), u64::MAX);
        assert_eq!(Cycle::from_ms(u64::MAX).raw(), u64::MAX);
        assert!(Cycle::from_ms(last_ms + 1) > Cycle::from_ms(last_ms));
        let last_us = u64::MAX / 3_000;
        assert_eq!(Cycle::from_us(last_us).raw(), last_us * 3_000);
        assert_eq!(Cycle::from_us(last_us + 1).raw(), u64::MAX);
        assert_eq!(Cycle::from_us(u64::MAX).raw(), u64::MAX);
    }

    #[test]
    fn roundtrip_to_ns() {
        let c = Cycle::from_ns(368);
        assert!((c.as_ns() - 368.0).abs() < 1e-9);
        assert!((Cycle::from_ms(1).as_secs() - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let mut t = Cycle::new(10);
        t += Cycle::new(5);
        assert_eq!(t, Cycle::new(15));
        t -= Cycle::new(3);
        assert_eq!(t, Cycle::new(12));
        assert_eq!(t + Cycle::new(1), Cycle::new(13));
        assert_eq!(t - Cycle::new(2), Cycle::new(10));
    }

    #[test]
    fn saturating_sub_clamps() {
        assert_eq!(Cycle::new(3).saturating_sub(Cycle::new(10)), Cycle::ZERO);
        assert_eq!(Cycle::new(10).saturating_sub(Cycle::new(3)), Cycle::new(7));
    }

    #[test]
    fn min_max() {
        let (a, b) = (Cycle::new(3), Cycle::new(9));
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn sum_of_cycles() {
        let total: Cycle = [1u64, 2, 3].into_iter().map(Cycle::new).sum();
        assert_eq!(total, Cycle::new(6));
    }

    #[test]
    fn display_nonempty() {
        assert_eq!(Cycle::new(42).to_string(), "42cy");
        assert_eq!(Cycle::ZERO.to_string(), "0cy");
    }
}
