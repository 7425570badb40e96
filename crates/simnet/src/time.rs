//! Virtual time for the discrete-event simulator.
//!
//! All simulation time is measured in integer **milliseconds** from the start
//! of the run. Using a dedicated newtype (instead of bare `u64` or
//! `std::time::Duration`) keeps event timestamps, link latencies and protocol
//! periods from being mixed up silently.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in virtual time, in milliseconds since the simulation began.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

impl Time {
    /// The simulation origin (t = 0).
    pub const ZERO: Time = Time(0);

    /// Construct a time from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Time {
        Time(ms)
    }

    /// Construct a time from whole seconds.
    pub const fn from_secs(s: u64) -> Time {
        Time(s * 1_000)
    }

    /// Construct a time from whole minutes.
    pub const fn from_mins(m: u64) -> Time {
        Time(m * 60_000)
    }

    /// Construct a time from whole hours.
    pub const fn from_hours(h: u64) -> Time {
        Time(h * 3_600_000)
    }

    /// This instant expressed in milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// This instant expressed in (truncated) whole seconds.
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000
    }

    /// Saturating difference `self - earlier`, as a duration in milliseconds.
    pub fn since(self, earlier: Time) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for Time {
    type Output = Time;
    fn add(self, ms: u64) -> Time {
        Time(self.0 + ms)
    }
}

impl AddAssign<u64> for Time {
    fn add_assign(&mut self, ms: u64) {
        self.0 += ms;
    }
}

impl Sub<Time> for Time {
    type Output = u64;
    fn sub(self, rhs: Time) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0 % 1_000;
        let s = (self.0 / 1_000) % 60;
        let m = (self.0 / 60_000) % 60;
        let h = self.0 / 3_600_000;
        write!(f, "{h:02}:{m:02}:{s:02}.{ms:03}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Time::from_secs(2), Time::from_millis(2_000));
        assert_eq!(Time::from_mins(3), Time::from_secs(180));
        assert_eq!(Time::from_hours(1), Time::from_mins(60));
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_secs(10);
        assert_eq!(t + 500, Time::from_millis(10_500));
        assert_eq!((t + 500) - t, 500);
        assert_eq!(t.since(t + 500), 0, "since() saturates");
        let mut u = t;
        u += 1_000;
        assert_eq!(u, Time::from_secs(11));
    }

    #[test]
    fn accessors() {
        assert_eq!(Time::from_millis(2_500).as_secs(), 2);
    }

    #[test]
    fn display_is_hms() {
        let t = Time::from_hours(1) + Time::from_mins(2).as_millis() + 3_004;
        assert_eq!(t.to_string(), "01:02:03.004");
    }

    #[test]
    fn ordering() {
        assert!(Time::from_secs(1) < Time::from_secs(2));
        assert_eq!(Time::ZERO, Time::from_millis(0));
    }
}
