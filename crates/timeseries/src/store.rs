//! Measurement storage — the time-series side of MIRABEL's Data Management
//! component (paper §3: "all historical and current time demand/supply …
//! are stored and managed by the Data Management component").
//!
//! The store keeps one dense series per (actor, metric) key, supports
//! out-of-order but gap-free appends, windows for model training, and the
//! "current time" read the control component uses.

use crate::series::TimeSeries;
use mirabel_core::{ActorId, TimeSlot};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// What a stored series measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Metric {
    /// Metered consumption (kWh per slot).
    Consumption,
    /// Metered production (kWh per slot).
    Production,
    /// Forecast consumption.
    ForecastConsumption,
    /// Forecast production.
    ForecastProduction,
}

/// Error from the measurement store.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// An append would leave a gap between the series end and the new slot.
    Gap {
        /// Where the stored series currently ends.
        series_end: TimeSlot,
        /// Where the rejected append started.
        attempted: TimeSlot,
    },
    /// An append would overwrite existing observations.
    Overlap {
        /// Where the stored series currently ends.
        series_end: TimeSlot,
        /// Where the rejected append started.
        attempted: TimeSlot,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Gap {
                series_end,
                attempted,
            } => write!(f, "gap: series ends at {series_end}, append at {attempted}"),
            StoreError::Overlap {
                series_end,
                attempted,
            } => write!(
                f,
                "overlap: series ends at {series_end}, append at {attempted}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// Thread-safe in-memory measurement store.
///
/// Series are keyed in an ordered map so every whole-store walk (e.g.
/// [`aggregate_window`](Self::aggregate_window)) visits keys in the
/// same order on every run — the workspace-wide determinism convention.
#[derive(Debug, Default)]
pub struct MeasurementStore {
    inner: RwLock<BTreeMap<(ActorId, Metric), TimeSeries>>,
}

impl MeasurementStore {
    /// Empty store.
    pub fn new() -> MeasurementStore {
        MeasurementStore::default()
    }

    /// Append observations for `(actor, metric)` starting at `start`.
    /// The first append establishes the series origin; subsequent appends
    /// must be exactly contiguous (`start == series end`).
    pub fn append(
        &self,
        actor: ActorId,
        metric: Metric,
        start: TimeSlot,
        values: &[f64],
    ) -> Result<(), StoreError> {
        let mut map = self.inner.write();
        match map.get_mut(&(actor, metric)) {
            None => {
                map.insert((actor, metric), TimeSeries::new(start, values.to_vec()));
                Ok(())
            }
            Some(series) => {
                let end = series.end();
                if start > end {
                    return Err(StoreError::Gap {
                        series_end: end,
                        attempted: start,
                    });
                }
                if start < end {
                    return Err(StoreError::Overlap {
                        series_end: end,
                        attempted: start,
                    });
                }
                series.extend(values.iter().copied());
                Ok(())
            }
        }
    }

    /// Full series for a key, if present.
    pub fn series(&self, actor: ActorId, metric: Metric) -> Option<TimeSeries> {
        self.inner.read().get(&(actor, metric)).cloned()
    }

    /// Window `[from, to)` of a series (empty if the key is missing).
    pub fn window(
        &self,
        actor: ActorId,
        metric: Metric,
        from: TimeSlot,
        to: TimeSlot,
    ) -> TimeSeries {
        self.inner
            .read()
            .get(&(actor, metric))
            .map(|s| s.window(from, to))
            .unwrap_or_else(|| TimeSeries::empty(from))
    }

    /// Most recent observation for a key.
    pub fn latest(&self, actor: ActorId, metric: Metric) -> Option<(TimeSlot, f64)> {
        self.inner.read().get(&(actor, metric)).and_then(|s| {
            if s.is_empty() {
                None
            } else {
                let t = s.end() - 1u32;
                Some((t, s.at(t).unwrap()))
            }
        })
    }

    /// Sum of all actors' series for `metric` over `[from, to)` — the
    /// BRP-level aggregate view.
    pub fn aggregate_window(&self, metric: Metric, from: TimeSlot, to: TimeSlot) -> TimeSeries {
        let map = self.inner.read();
        let len = (to - from).max(0) as usize;
        let mut acc = vec![0.0; len];
        for ((_, m), series) in map.iter() {
            if *m != metric {
                continue;
            }
            for (i, slot) in (0..len).map(|i| (i, from + i as u32)) {
                if let Some(v) = series.at(slot) {
                    acc[i] += v;
                }
            }
        }
        TimeSeries::new(from, acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ActorId = ActorId(1);
    const B: ActorId = ActorId(2);

    #[test]
    fn append_and_read() {
        let store = MeasurementStore::new();
        store
            .append(A, Metric::Consumption, TimeSlot(0), &[1.0, 2.0])
            .unwrap();
        store
            .append(A, Metric::Consumption, TimeSlot(2), &[3.0])
            .unwrap();
        let s = store.series(A, Metric::Consumption).unwrap();
        assert_eq!(s.values(), &[1.0, 2.0, 3.0]);
        assert_eq!(
            store.latest(A, Metric::Consumption),
            Some((TimeSlot(2), 3.0))
        );
    }

    #[test]
    fn gap_rejected() {
        let store = MeasurementStore::new();
        store
            .append(A, Metric::Consumption, TimeSlot(0), &[1.0])
            .unwrap();
        let err = store
            .append(A, Metric::Consumption, TimeSlot(5), &[2.0])
            .unwrap_err();
        assert!(matches!(err, StoreError::Gap { .. }));
    }

    #[test]
    fn overlap_rejected() {
        let store = MeasurementStore::new();
        store
            .append(A, Metric::Consumption, TimeSlot(0), &[1.0, 2.0])
            .unwrap();
        let err = store
            .append(A, Metric::Consumption, TimeSlot(1), &[9.0])
            .unwrap_err();
        assert!(matches!(err, StoreError::Overlap { .. }));
    }

    #[test]
    fn keys_are_independent() {
        let store = MeasurementStore::new();
        store
            .append(A, Metric::Consumption, TimeSlot(0), &[1.0])
            .unwrap();
        store
            .append(A, Metric::Production, TimeSlot(10), &[5.0])
            .unwrap();
        store
            .append(B, Metric::Consumption, TimeSlot(0), &[2.0])
            .unwrap();
        assert_eq!(store.inner.read().len(), 3);
        assert_eq!(
            store.series(A, Metric::Production).unwrap().start(),
            TimeSlot(10)
        );
    }

    #[test]
    fn aggregate_window_sums_actors() {
        let store = MeasurementStore::new();
        store
            .append(A, Metric::Consumption, TimeSlot(0), &[1.0, 2.0, 3.0])
            .unwrap();
        store
            .append(B, Metric::Consumption, TimeSlot(1), &[10.0, 10.0])
            .unwrap();
        store
            .append(A, Metric::Production, TimeSlot(0), &[99.0, 99.0, 99.0])
            .unwrap();
        let agg = store.aggregate_window(Metric::Consumption, TimeSlot(0), TimeSlot(3));
        assert_eq!(agg.values(), &[1.0, 12.0, 13.0]);
    }

    #[test]
    fn missing_key_is_empty() {
        let store = MeasurementStore::new();
        assert!(store.series(A, Metric::Consumption).is_none());
        assert!(store
            .window(A, Metric::Consumption, TimeSlot(0), TimeSlot(5))
            .is_empty());
        assert_eq!(store.latest(A, Metric::Consumption), None);
    }
}
