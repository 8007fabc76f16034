//! Cycle-granular simulated time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// An absolute point in simulated time, measured in core clock cycles.
///
/// `Cycle` is an absolute timestamp; [`Duration`] is a span. The two are
/// kept distinct so that `Cycle + Cycle` (a meaningless operation) does
/// not type-check, mirroring `std::time::{Instant, Duration}`.
///
/// # Examples
///
/// ```
/// use fam_sim::{Cycle, Duration};
///
/// let t = Cycle(100) + Duration(20);
/// assert_eq!(t, Cycle(120));
/// assert_eq!(t - Cycle(100), Duration(20));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

/// A span of simulated time, measured in core clock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Cycle {
    /// The beginning of simulated time.
    pub const ZERO: Cycle = Cycle(0);

    /// Returns the later of two timestamps.
    #[must_use]
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }

    /// Returns the earlier of two timestamps.
    #[must_use]
    pub fn min(self, other: Cycle) -> Cycle {
        Cycle(self.0.min(other.0))
    }

    /// The span from `earlier` to `self`, saturating to zero if
    /// `earlier` is actually later.
    #[must_use]
    pub fn saturating_since(self, earlier: Cycle) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// A zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Multiplies the span by an integer factor.
    #[must_use]
    pub fn times(self, n: u64) -> Duration {
        Duration(self.0 * n)
    }
}

impl Add<Duration> for Cycle {
    type Output = Cycle;
    fn add(self, rhs: Duration) -> Cycle {
        Cycle(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Cycle {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = Duration;
    fn sub(self, rhs: Cycle) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        Duration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

/// A clock frequency, used to convert wall-clock latencies (the paper
/// specifies memory and fabric latencies in nanoseconds) into cycles.
///
/// # Examples
///
/// ```
/// use fam_sim::{Duration, Frequency};
///
/// let f = Frequency::ghz(2);
/// assert_eq!(f.ns_to_cycles(500), Duration(1000)); // 500 ns at 2 GHz
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Frequency {
    mhz: u64,
}

impl Frequency {
    /// Creates a frequency from a megahertz value.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is zero.
    pub fn mhz(mhz: u64) -> Frequency {
        assert!(mhz > 0, "frequency must be non-zero");
        Frequency { mhz }
    }

    /// Creates a frequency from a gigahertz value.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is zero.
    pub fn ghz(ghz: u64) -> Frequency {
        Frequency::mhz(ghz * 1000)
    }

    /// Converts a nanosecond latency to cycles, rounding up so that a
    /// non-zero latency is never lost to truncation.
    pub fn ns_to_cycles(self, ns: u64) -> Duration {
        Duration((ns * self.mhz).div_ceil(1000))
    }

    /// Converts a picosecond latency to cycles, rounding up.
    pub fn ps_to_cycles(self, ps: u64) -> Duration {
        Duration((ps * self.mhz).div_ceil(1_000_000))
    }

    /// Converts a cycle count back to nanoseconds (rounded down).
    pub fn cycles_to_ns(self, d: Duration) -> u64 {
        d.0 * 1000 / self.mhz
    }
}

impl Default for Frequency {
    /// The paper's core frequency: 2 GHz (Table II).
    fn default() -> Frequency {
        Frequency::ghz(2)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.mhz.is_multiple_of(1000) {
            write!(f, "{} GHz", self.mhz / 1000)
        } else {
            write!(f, "{} MHz", self.mhz)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_duration_arithmetic() {
        let t = Cycle(10) + Duration(5);
        assert_eq!(t, Cycle(15));
        assert_eq!(t - Cycle(10), Duration(5));
        let mut u = Cycle(0);
        u += Duration(3);
        assert_eq!(u, Cycle(3));
    }

    #[test]
    fn cycle_max_min() {
        assert_eq!(Cycle(3).max(Cycle(7)), Cycle(7));
        assert_eq!(Cycle(3).min(Cycle(7)), Cycle(3));
    }

    #[test]
    fn saturating_since_clamps() {
        assert_eq!(Cycle(5).saturating_since(Cycle(9)), Duration::ZERO);
        assert_eq!(Cycle(9).saturating_since(Cycle(5)), Duration(4));
    }

    #[test]
    fn duration_sum_and_times() {
        let total: Duration = [Duration(1), Duration(2), Duration(3)].into_iter().sum();
        assert_eq!(total, Duration(6));
        assert_eq!(Duration(6).times(2), Duration(12));
    }

    #[test]
    fn frequency_conversions_round_up() {
        let f = Frequency::ghz(2);
        assert_eq!(f.ns_to_cycles(500), Duration(1000));
        assert_eq!(f.ns_to_cycles(1), Duration(2));
        assert_eq!(f.cycles_to_ns(Duration(1000)), 500);
        // A 0.3 ns event at 1 GHz still costs one cycle.
        let g = Frequency::ghz(1);
        assert_eq!(g.ps_to_cycles(300), Duration(1));
        assert_eq!(g.ps_to_cycles(0), Duration(0));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_frequency_rejected() {
        let _ = Frequency::mhz(0);
    }

    #[test]
    fn default_frequency_is_paper_config() {
        assert_eq!(Frequency::default(), Frequency::ghz(2));
        assert_eq!(Frequency::default().to_string(), "2 GHz");
    }

    #[test]
    fn display_impls_are_nonempty() {
        assert_eq!(Cycle(7).to_string(), "cycle 7");
        assert_eq!(Duration(7).to_string(), "7 cycles");
        assert_eq!(Frequency::mhz(1500).to_string(), "1500 MHz");
    }
}
