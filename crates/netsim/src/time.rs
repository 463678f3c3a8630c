//! Simulation time.
//!
//! All simulator clocks are integer nanoseconds ([`Ns`]) so that event
//! ordering is exact and runs are bit-for-bit reproducible across platforms.
//! Floating-point seconds/milliseconds are converted at the edges only
//! (configuration and reporting).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, or a duration, in nanoseconds.
///
/// The simulator does not distinguish instants from durations at the type
/// level; both are monotonic counts of nanoseconds since the start of the
/// simulation. This mirrors how ns-2 treats its scalar clock and keeps
/// arithmetic in hot paths trivial.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ns(pub u64);

impl Ns {
    /// Zero time — the start of every simulation.
    pub const ZERO: Ns = Ns(0);
    /// The maximum representable time (used as an "infinitely far" sentinel).
    pub const MAX: Ns = Ns(u64::MAX);

    /// One second.
    pub const SECOND: Ns = Ns(1_000_000_000);

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Ns {
        Ns(s * 1_000_000_000)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Ns {
        Ns(ms * 1_000_000)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Ns {
        Ns(us * 1_000)
    }

    /// Construct from fractional seconds. Negative or non-finite values
    /// saturate to zero; values beyond `u64::MAX` ns saturate to [`Ns::MAX`].
    #[inline]
    pub fn from_secs_f64(s: f64) -> Ns {
        if s.is_nan() || s <= 0.0 {
            return Ns::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            Ns::MAX
        } else {
            Ns(ns.round() as u64)
        }
    }

    /// Construct from fractional milliseconds (same saturation rules as
    /// [`Ns::from_secs_f64`]).
    #[inline]
    pub fn from_millis_f64(ms: f64) -> Ns {
        Ns::from_secs_f64(ms * 1e-3)
    }

    /// This time as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// This time as fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 * 1e-6
    }

    /// Subtraction clamped at zero, for "how much later is `self` than
    /// `earlier`" when the ordering is not guaranteed.
    #[inline]
    pub fn saturating_sub(self, earlier: Ns) -> Ns {
        Ns(self.0.saturating_sub(earlier.0))
    }

    /// Addition clamped at [`Ns::MAX`].
    #[inline]
    pub fn saturating_add(self, d: Ns) -> Ns {
        Ns(self.0.saturating_add(d.0))
    }

    /// Scale a duration by a non-negative float (used for RTO backoff and
    /// rate computations). Saturates at the representable range.
    #[inline]
    pub fn mul_f64(self, k: f64) -> Ns {
        Ns::from_secs_f64(self.as_secs_f64() * k)
    }

    /// True if this is the zero time.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, other: Ns) -> Ns {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, other: Ns) -> Ns {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for Ns {
    type Output = Ns;
    #[inline]
    fn add(self, rhs: Ns) -> Ns {
        Ns(self.0 + rhs.0)
    }
}

impl AddAssign for Ns {
    #[inline]
    fn add_assign(&mut self, rhs: Ns) {
        self.0 += rhs.0;
    }
}

impl Sub for Ns {
    type Output = Ns;
    #[inline]
    fn sub(self, rhs: Ns) -> Ns {
        Ns(self.0 - rhs.0)
    }
}

impl SubAssign for Ns {
    #[inline]
    fn sub_assign(&mut self, rhs: Ns) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Ns {
    type Output = Ns;
    #[inline]
    fn mul(self, rhs: u64) -> Ns {
        Ns(self.0 * rhs)
    }
}

impl Div<u64> for Ns {
    type Output = Ns;
    #[inline]
    fn div(self, rhs: u64) -> Ns {
        Ns(self.0 / rhs)
    }
}

impl fmt::Debug for Ns {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Ns {
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

/// Convert a rate in megabits/second to the service time of `bytes` bytes.
///
/// Returns [`Ns::MAX`] for non-positive rates (a stalled link).
#[inline]
pub fn service_time(bytes: u32, rate_mbps: f64) -> Ns {
    if rate_mbps <= 0.0 {
        return Ns::MAX;
    }
    Ns::from_secs_f64((bytes as f64 * 8.0) / (rate_mbps * 1e6))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Ns::from_secs(3), Ns(3_000_000_000));
        assert_eq!(Ns::from_millis(150), Ns(150_000_000));
        assert_eq!(Ns::from_micros(7), Ns(7_000));
        assert!((Ns::from_secs_f64(1.5).as_secs_f64() - 1.5).abs() < 1e-12);
        assert!((Ns::from_millis_f64(0.25).as_millis_f64() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn from_secs_f64_saturates() {
        assert_eq!(Ns::from_secs_f64(-1.0), Ns::ZERO);
        assert_eq!(Ns::from_secs_f64(f64::NAN), Ns::ZERO);
        assert_eq!(Ns::from_secs_f64(f64::INFINITY), Ns::MAX);
        assert_eq!(Ns::from_secs_f64(1e30), Ns::MAX);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(Ns(5).saturating_sub(Ns(10)), Ns::ZERO);
        assert_eq!(Ns(10).saturating_sub(Ns(4)), Ns(6));
        assert_eq!(Ns::MAX.saturating_add(Ns(1)), Ns::MAX);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(Ns(2) + Ns(3), Ns(5));
        assert_eq!(Ns(5) - Ns(3), Ns(2));
        assert_eq!(Ns(5) * 3, Ns(15));
        assert_eq!(Ns(15) / 3, Ns(5));
        let mut t = Ns(1);
        t += Ns(2);
        assert_eq!(t, Ns(3));
        t -= Ns(1);
        assert_eq!(t, Ns(2));
    }

    #[test]
    fn min_max() {
        assert_eq!(Ns(3).min(Ns(5)), Ns(3));
        assert_eq!(Ns(3).max(Ns(5)), Ns(5));
    }

    #[test]
    fn mul_f64_backoff() {
        let rto = Ns::from_millis(200);
        assert_eq!(rto.mul_f64(2.0), Ns::from_millis(400));
        assert_eq!(rto.mul_f64(0.0), Ns::ZERO);
    }

    #[test]
    fn service_time_math() {
        // 1500 bytes at 12 Mbps = 1500*8/12e6 s = 1 ms.
        assert_eq!(service_time(1500, 12.0), Ns::from_millis(1));
        assert_eq!(service_time(1500, 0.0), Ns::MAX);
        assert_eq!(service_time(1500, -5.0), Ns::MAX);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Ns::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", Ns::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", Ns(120)), "120ns");
    }
}
