//! Dense, slot-aligned time series.

use mirabel_core::TimeSlot;
use std::fmt;

/// A dense series of f64 observations, one per metering slot, starting at
/// [`TimeSeries::start`]. Units are whatever the producer says they are
/// (kWh per slot for energy series, MW for the demand experiments — the
/// accuracy metrics are scale-free).
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    start: TimeSlot,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Build a series starting at `start`.
    pub fn new(start: TimeSlot, values: Vec<f64>) -> TimeSeries {
        TimeSeries { start, values }
    }

    /// Empty series positioned at `start`.
    pub fn empty(start: TimeSlot) -> TimeSeries {
        TimeSeries {
            start,
            values: Vec::new(),
        }
    }

    /// First slot of the series.
    pub fn start(&self) -> TimeSlot {
        self.start
    }

    /// First slot *after* the series.
    pub fn end(&self) -> TimeSlot {
        self.start + self.values.len() as u32
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Raw values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Observation at absolute slot `t`, if covered.
    pub fn at(&self, t: TimeSlot) -> Option<f64> {
        let d = t - self.start;
        if d < 0 {
            return None;
        }
        self.values.get(d as usize).copied()
    }

    /// Append one observation at the end of the series.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Append many observations.
    pub fn extend(&mut self, vs: impl IntoIterator<Item = f64>) {
        self.values.extend(vs);
    }

    /// The last `n` observations (fewer if the series is shorter).
    pub fn tail(&self, n: usize) -> TimeSeries {
        let k = self.values.len().saturating_sub(n);
        TimeSeries {
            start: self.start + k as u32,
            values: self.values[k..].to_vec(),
        }
    }

    /// Split at absolute slot `t`: `(values before t, values from t on)`.
    pub fn split_at_slot(&self, t: TimeSlot) -> (TimeSeries, TimeSeries) {
        let d = (t - self.start).clamp(0, self.values.len() as i64) as usize;
        (
            TimeSeries {
                start: self.start,
                values: self.values[..d].to_vec(),
            },
            TimeSeries {
                start: self.start + d as u32,
                values: self.values[d..].to_vec(),
            },
        )
    }

    /// Iterate `(slot, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TimeSlot, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(move |(i, &v)| (self.start + i as u32, v))
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> TimeSeries {
        TimeSeries {
            start: self.start,
            values: self.values.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Arithmetic mean; 0 for an empty series.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Population standard deviation; 0 for an empty series.
    pub fn std_dev(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let m = self.mean();
        let var =
            self.values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / self.values.len() as f64;
        var.sqrt()
    }

    /// Minimum value (NaN-free input assumed); `None` if empty.
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::min)
    }

    /// Maximum value; `None` if empty.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::max)
    }
}

impl fmt::Display for TimeSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "series[{}..{}, n={}]",
            self.start,
            self.end(),
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(start: i64, vals: &[f64]) -> TimeSeries {
        TimeSeries::new(TimeSlot(start), vals.to_vec())
    }

    #[test]
    fn indexing() {
        let s = ts(10, &[1.0, 2.0, 3.0]);
        assert_eq!(s.start(), TimeSlot(10));
        assert_eq!(s.end(), TimeSlot(13));
        assert_eq!(s.at(TimeSlot(10)), Some(1.0));
        assert_eq!(s.at(TimeSlot(12)), Some(3.0));
        assert_eq!(s.at(TimeSlot(13)), None);
        assert_eq!(s.at(TimeSlot(9)), None);
    }

    #[test]
    fn tail_and_split() {
        let s = ts(0, &[1.0, 2.0, 3.0, 4.0]);
        let t = s.tail(2);
        assert_eq!(t.values(), &[3.0, 4.0]);
        assert_eq!(t.start(), TimeSlot(2));
        let (a, b) = s.split_at_slot(TimeSlot(1));
        assert_eq!(a.values(), &[1.0]);
        assert_eq!(b.values(), &[2.0, 3.0, 4.0]);
        assert_eq!(b.start(), TimeSlot(1));
        // split outside bounds clamps
        let (a2, b2) = s.split_at_slot(TimeSlot(-5));
        assert!(a2.is_empty());
        assert_eq!(b2.len(), 4);
    }

    #[test]
    fn statistics() {
        let s = ts(0, &[1.0, 2.0, 3.0, 4.0]);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.std_dev() - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(4.0));
        assert_eq!(TimeSeries::empty(TimeSlot(0)).mean(), 0.0);
        assert_eq!(TimeSeries::empty(TimeSlot(0)).min(), None);
    }

    #[test]
    fn push_extend_iter() {
        let mut s = TimeSeries::empty(TimeSlot(5));
        s.push(1.0);
        s.extend([2.0, 3.0]);
        let pairs: Vec<_> = s.iter().collect();
        assert_eq!(
            pairs,
            vec![(TimeSlot(5), 1.0), (TimeSlot(6), 2.0), (TimeSlot(7), 3.0)]
        );
    }

    #[test]
    fn map_preserves_alignment() {
        let s = ts(3, &[1.0, -2.0]);
        let m = s.map(f64::abs);
        assert_eq!(m.start(), TimeSlot(3));
        assert_eq!(m.values(), &[1.0, 2.0]);
    }
}
