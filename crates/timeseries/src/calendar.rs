//! Calendar context for forecasting.
//!
//! Forecast contexts (paper §5) include "calendar events (e.g.,
//! holidays)". This module supplies them: day-of-week comes from the
//! epoch convention in `mirabel-core` (day 0 is a Monday); holidays are an
//! explicit, queryable set of day indices.

use mirabel_core::TimeSlot;
use std::collections::BTreeSet;

/// A calendar: weekday structure plus a set of holiday days.
#[derive(Debug, Clone, Default)]
pub struct Calendar {
    holidays: BTreeSet<i64>,
}

impl Calendar {
    /// Calendar without holidays.
    pub fn new() -> Calendar {
        Calendar::default()
    }

    /// A repeating synthetic holiday pattern: every `period`-th day starting
    /// at `first`, for `count` occurrences. Used by the demand generator.
    pub fn periodic_holidays(first: i64, period: i64, count: usize) -> Calendar {
        assert!(period >= 1);
        Calendar {
            holidays: (0..count as i64).map(|k| first + k * period).collect(),
        }
    }

    /// Whether the slot falls on a holiday.
    pub fn is_holiday(&self, t: TimeSlot) -> bool {
        self.holidays.contains(&t.day())
    }

    /// Whether the slot falls on a Saturday or Sunday.
    pub fn is_weekend(&self, t: TimeSlot) -> bool {
        t.day_of_week() >= 5
    }

    /// Whether the slot is a working day (neither weekend nor holiday).
    pub fn is_working_day(&self, t: TimeSlot) -> bool {
        !self.is_weekend(t) && !self.is_holiday(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirabel_core::SLOTS_PER_DAY;

    #[test]
    fn weekends() {
        let c = Calendar::new();
        // epoch day 0 = Monday
        assert!(!c.is_weekend(TimeSlot(0)));
        assert!(c.is_weekend(TimeSlot(5 * SLOTS_PER_DAY as i64))); // Saturday
        assert!(c.is_weekend(TimeSlot(6 * SLOTS_PER_DAY as i64))); // Sunday
        assert!(!c.is_weekend(TimeSlot(7 * SLOTS_PER_DAY as i64))); // next Monday
    }

    #[test]
    fn holidays() {
        let c = Calendar {
            holidays: [2].into(),
        };
        assert!(c.is_holiday(TimeSlot(2 * SLOTS_PER_DAY as i64)));
        assert!(c.is_holiday(TimeSlot(2 * SLOTS_PER_DAY as i64 + 95)));
        assert!(!c.is_holiday(TimeSlot(3 * SLOTS_PER_DAY as i64)));
    }

    #[test]
    fn working_day_combines_both() {
        let c = Calendar {
            holidays: [1].into(),
        };
        assert!(c.is_working_day(TimeSlot(0))); // Monday, not holiday
        assert!(!c.is_working_day(TimeSlot(SLOTS_PER_DAY as i64))); // Tuesday holiday
        assert!(!c.is_working_day(TimeSlot(5 * SLOTS_PER_DAY as i64))); // Saturday
    }

    #[test]
    fn periodic() {
        let c = Calendar::periodic_holidays(10, 30, 3);
        assert_eq!(c.holidays.len(), 3);
        assert!(c.is_holiday(TimeSlot(10 * SLOTS_PER_DAY as i64)));
        assert!(c.is_holiday(TimeSlot(40 * SLOTS_PER_DAY as i64)));
        assert!(c.is_holiday(TimeSlot(70 * SLOTS_PER_DAY as i64)));
        assert!(!c.is_holiday(TimeSlot(100 * SLOTS_PER_DAY as i64)));
    }
}
