//! Discrete time model.
//!
//! MIRABEL operates on the 15-minute metering grid used by European balance
//! settlement. A [`TimeSlot`] is an index into that grid (slot 0 is an
//! arbitrary epoch; negative indices are valid history). All durations are
//! expressed as a whole number of slots ([`SlotSpan`]).

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Length of one metering slot in minutes.
pub const SLOT_MINUTES: u32 = 15;
/// Number of slots per hour (4 at 15-minute granularity).
pub const SLOTS_PER_HOUR: u32 = 60 / SLOT_MINUTES;
/// Number of slots per day (96 at 15-minute granularity).
pub const SLOTS_PER_DAY: u32 = 24 * SLOTS_PER_HOUR;
/// Number of slots per week (672 at 15-minute granularity).
pub const SLOTS_PER_WEEK: u32 = 7 * SLOTS_PER_DAY;

/// A duration measured in metering slots.
pub type SlotSpan = u32;

/// One 15-minute metering interval, identified by its index since the epoch.
///
/// `TimeSlot(t)` covers the half-open wall-clock interval
/// `[t * 15 min, (t + 1) * 15 min)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeSlot(pub i64);

impl TimeSlot {
    /// The epoch slot (index 0).
    pub const EPOCH: TimeSlot = TimeSlot(0);

    /// Raw slot index.
    #[inline]
    pub fn index(self) -> i64 {
        self.0
    }

    /// Slot-of-day in `0..SLOTS_PER_DAY` (Euclidean, so correct for
    /// negative indices too).
    #[inline]
    pub fn slot_of_day(self) -> u32 {
        self.0.rem_euclid(SLOTS_PER_DAY as i64) as u32
    }

    /// Day index since the epoch (floor division, negative for history).
    #[inline]
    pub fn day(self) -> i64 {
        self.0.div_euclid(SLOTS_PER_DAY as i64)
    }

    /// Day of week in `0..7` where 0 is Monday (epoch convention).
    #[inline]
    pub fn day_of_week(self) -> u32 {
        (self.day().rem_euclid(7)) as u32
    }

    /// Distance in slots to `later`; `None` when `later` precedes `self`
    /// or lies too far ahead to fit a [`SlotSpan`].
    #[inline]
    pub fn span_to(self, later: TimeSlot) -> Option<SlotSpan> {
        let d = later.0.checked_sub(self.0)?;
        u32::try_from(d).ok()
    }
}

impl Add<SlotSpan> for TimeSlot {
    type Output = TimeSlot;
    #[inline]
    fn add(self, rhs: SlotSpan) -> TimeSlot {
        TimeSlot(self.0 + rhs as i64)
    }
}

impl AddAssign<SlotSpan> for TimeSlot {
    #[inline]
    fn add_assign(&mut self, rhs: SlotSpan) {
        self.0 += rhs as i64;
    }
}

impl Sub<SlotSpan> for TimeSlot {
    type Output = TimeSlot;
    #[inline]
    fn sub(self, rhs: SlotSpan) -> TimeSlot {
        TimeSlot(self.0 - rhs as i64)
    }
}

impl SubAssign<SlotSpan> for TimeSlot {
    #[inline]
    fn sub_assign(&mut self, rhs: SlotSpan) {
        self.0 -= rhs as i64;
    }
}

impl Sub<TimeSlot> for TimeSlot {
    type Output = i64;
    /// Signed slot distance `self - rhs`.
    #[inline]
    fn sub(self, rhs: TimeSlot) -> i64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for TimeSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sod = self.slot_of_day();
        let h = sod / SLOTS_PER_HOUR;
        let m = (sod % SLOTS_PER_HOUR) * SLOT_MINUTES;
        write!(f, "d{}+{:02}:{:02}", self.day(), h, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_of_day_wraps() {
        assert_eq!(TimeSlot(0).slot_of_day(), 0);
        assert_eq!(TimeSlot(95).slot_of_day(), 95);
        assert_eq!(TimeSlot(96).slot_of_day(), 0);
        assert_eq!(TimeSlot(97).slot_of_day(), 1);
    }

    #[test]
    fn slot_of_day_negative_history() {
        assert_eq!(TimeSlot(-1).slot_of_day(), 95);
        assert_eq!(TimeSlot(-96).slot_of_day(), 0);
        assert_eq!(TimeSlot(-97).slot_of_day(), 95);
    }

    #[test]
    fn day_and_weekday() {
        assert_eq!(TimeSlot(0).day(), 0);
        assert_eq!(TimeSlot(95).day(), 0);
        assert_eq!(TimeSlot(96).day(), 1);
        assert_eq!(TimeSlot(-1).day(), -1);
        assert_eq!(TimeSlot(0).day_of_week(), 0); // epoch Monday
        assert_eq!(TimeSlot(6 * 96).day_of_week(), 6);
        assert_eq!(TimeSlot(7 * 96).day_of_week(), 0);
        assert_eq!(TimeSlot(-96).day_of_week(), 6); // Sunday before epoch
    }

    #[test]
    fn arithmetic() {
        let t = TimeSlot(10);
        assert_eq!(t + 5, TimeSlot(15));
        assert_eq!(t - 5, TimeSlot(5));
        assert_eq!(TimeSlot(15) - TimeSlot(10), 5);
        assert_eq!(TimeSlot(10) - TimeSlot(15), -5);
        let mut u = t;
        u += 2;
        u -= 1;
        assert_eq!(u, TimeSlot(11));
    }

    #[test]
    fn span_to() {
        assert_eq!(TimeSlot(3).span_to(TimeSlot(7)), Some(4));
        assert_eq!(TimeSlot(3).span_to(TimeSlot(3)), Some(0));
        assert_eq!(TimeSlot(7).span_to(TimeSlot(3)), None);
    }

    #[test]
    fn display_format() {
        assert_eq!(TimeSlot(0).to_string(), "d0+00:00");
        assert_eq!(TimeSlot(88).to_string(), "d0+22:00");
        assert_eq!(TimeSlot(97).to_string(), "d1+00:15");
    }
}
