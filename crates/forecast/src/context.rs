//! Context-aware model adaptation (paper §5, \[2\]).
//!
//! "Observing these context information offers the possibility of storing
//! previous models in conjunction to their corresponding context
//! information within a repository to reuse them whenever a similar
//! context reoccurs. This kind of case-based reasoning approach achieves a
//! higher forecast accuracy in less time."
//!
//! A [`ContextDescriptor`] summarizes a training window (level, spread,
//! seasonal amplitudes, calendar mix); the [`ContextRepository`] stores
//! `(descriptor, parameters, error)` cases and answers nearest-neighbour
//! queries under a normalized Euclidean distance.

use mirabel_core::{SLOTS_PER_DAY, SLOTS_PER_WEEK};
use mirabel_timeseries::{Calendar, TimeSeries};

/// Numeric summary of a time-series context.
#[derive(Debug, Clone, PartialEq)]
pub struct ContextDescriptor {
    features: Vec<f64>,
}

impl ContextDescriptor {
    /// Build from raw features (for tests / custom contexts).
    pub fn from_features(features: Vec<f64>) -> ContextDescriptor {
        ContextDescriptor { features }
    }

    /// The raw feature vector.
    pub fn features(&self) -> &[f64] {
        &self.features
    }

    /// Normalized Euclidean distance: each dimension is scaled by the
    /// larger magnitude of the pair so level-like and ratio-like features
    /// are comparable.
    pub fn distance(&self, other: &ContextDescriptor) -> f64 {
        assert_eq!(self.features.len(), other.features.len());
        self.features
            .iter()
            .zip(&other.features)
            .map(|(&a, &b)| {
                let scale = a.abs().max(b.abs()).max(1e-9);
                let d = (a - b) / scale;
                d * d
            })
            .sum::<f64>()
            .sqrt()
    }
}

/// Derive a descriptor from a training window and its calendar.
///
/// Features: mean level, coefficient of variation, daily seasonal
/// amplitude (relative), weekly seasonal amplitude (relative), fraction of
/// non-working days in the window.
pub fn describe(series: &TimeSeries, calendar: &Calendar) -> ContextDescriptor {
    let mean = series.mean();
    let cv = if mean.abs() > 1e-12 {
        series.std_dev() / mean.abs()
    } else {
        0.0
    };

    let amplitude = |period: usize| -> f64 {
        if series.len() < 2 * period || mean.abs() < 1e-12 {
            return 0.0;
        }
        let mut sums = vec![0.0; period];
        let mut counts = vec![0usize; period];
        for (i, &v) in series.values().iter().enumerate() {
            sums[i % period] += v;
            counts[i % period] += 1;
        }
        let means: Vec<f64> = sums
            .iter()
            .zip(&counts)
            .map(|(s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
            .collect();
        let lo = means.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = means.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (hi - lo) / mean.abs()
    };

    let mut holiday_slots = 0usize;
    for (slot, _) in series.iter() {
        if !calendar.is_working_day(slot) {
            holiday_slots += 1;
        }
    }
    let offday_fraction = if series.is_empty() {
        0.0
    } else {
        holiday_slots as f64 / series.len() as f64
    };

    ContextDescriptor {
        features: vec![
            mean,
            cv,
            amplitude(SLOTS_PER_DAY as usize),
            amplitude(SLOTS_PER_WEEK as usize),
            offday_fraction,
        ],
    }
}

/// A remembered estimation outcome.
#[derive(Debug, Clone)]
pub struct Case {
    /// Context the parameters were estimated under.
    pub descriptor: ContextDescriptor,
    /// The estimated model parameters.
    pub params: Vec<f64>,
    /// In-sample error the parameters achieved.
    pub error: f64,
}

/// Case base for context-aware parameter reuse.
#[derive(Debug, Clone, Default)]
pub struct ContextRepository {
    cases: Vec<Case>,
    max_distance: f64,
}

impl ContextRepository {
    /// Repository that answers queries only within `max_distance` of a
    /// stored case.
    pub fn new(max_distance: f64) -> ContextRepository {
        ContextRepository {
            cases: Vec::new(),
            max_distance,
        }
    }

    /// Store a case.
    pub fn store(&mut self, descriptor: ContextDescriptor, params: Vec<f64>, error: f64) {
        self.cases.push(Case {
            descriptor,
            params,
            error,
        });
    }

    /// Nearest stored case within the distance threshold.
    pub fn nearest(&self, query: &ContextDescriptor) -> Option<&Case> {
        self.cases
            .iter()
            .map(|c| (c.descriptor.distance(query), c))
            .filter(|(d, _)| *d <= self.max_distance)
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .map(|(_, c)| c)
    }

    /// Number of stored cases.
    pub fn len(&self) -> usize {
        self.cases.len()
    }

    /// Whether the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.cases.is_empty()
    }

    /// Drop the worst cases, keeping at most `keep` best-by-error.
    pub fn prune(&mut self, keep: usize) {
        self.cases.sort_by(|a, b| a.error.total_cmp(&b.error));
        self.cases.truncate(keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirabel_core::TimeSlot;
    use mirabel_timeseries::DemandGenerator;

    #[test]
    fn descriptor_distance_zero_to_self() {
        let d = ContextDescriptor::from_features(vec![1.0, 2.0]);
        assert_eq!(d.distance(&d), 0.0);
    }

    #[test]
    fn descriptor_scale_invariant_comparison() {
        // 35000 vs 36000 (3% apart) should be closer than 0.1 vs 0.5.
        let a = ContextDescriptor::from_features(vec![35_000.0]);
        let b = ContextDescriptor::from_features(vec![36_000.0]);
        let c = ContextDescriptor::from_features(vec![0.1]);
        let e = ContextDescriptor::from_features(vec![0.5]);
        assert!(a.distance(&b) < c.distance(&e));
    }

    #[test]
    fn describe_captures_seasonality() {
        let s = DemandGenerator::default().generate(TimeSlot(0), 14 * 96, 1);
        let d = describe(&s, &Calendar::new());
        assert_eq!(d.features().len(), 5);
        assert!(d.features()[0] > 10_000.0); // mean level
        assert!(d.features()[2] > 0.1); // daily amplitude is pronounced

        // Weekend fraction of a 14-day window is 4/14.
        assert!((d.features()[4] - 4.0 / 14.0).abs() < 0.05);
    }

    #[test]
    fn describe_flat_series() {
        let s = TimeSeries::new(TimeSlot(0), vec![5.0; 96]);
        let d = describe(&s, &Calendar::new());
        assert_eq!(d.features()[1], 0.0); // no variation
        assert_eq!(d.features()[2], 0.0); // too short / flat for amplitude
    }

    #[test]
    fn repository_nearest_within_threshold() {
        let mut repo = ContextRepository::new(0.5);
        let d1 = ContextDescriptor::from_features(vec![1.0, 0.2]);
        let d2 = ContextDescriptor::from_features(vec![5.0, 0.9]);
        repo.store(d1.clone(), vec![0.1], 0.01);
        repo.store(d2, vec![0.9], 0.02);
        let q = ContextDescriptor::from_features(vec![1.05, 0.21]);
        let hit = repo.nearest(&q).unwrap();
        assert_eq!(hit.params, vec![0.1]);
        // far query misses entirely
        let far = ContextDescriptor::from_features(vec![100.0, 100.0]);
        assert!(repo.nearest(&far).is_none());
    }

    #[test]
    fn repository_prune_keeps_best() {
        let mut repo = ContextRepository::new(10.0);
        for i in 0..10 {
            repo.store(
                ContextDescriptor::from_features(vec![i as f64]),
                vec![i as f64],
                i as f64 * 0.01,
            );
        }
        repo.prune(3);
        assert_eq!(repo.len(), 3);
        let q = ContextDescriptor::from_features(vec![0.0]);
        assert!(repo.nearest(&q).unwrap().error <= 0.02);
    }

    #[test]
    fn empty_repository() {
        let repo = ContextRepository::new(1.0);
        assert!(repo.is_empty());
        assert!(repo
            .nearest(&ContextDescriptor::from_features(vec![1.0]))
            .is_none());
    }
}
