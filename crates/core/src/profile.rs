//! Flex-offer energy profiles.
//!
//! A profile is a run-length-encoded sequence of [`Slice`]s. Each slice
//! spans `duration` consecutive metering slots, every one of which may be
//! scheduled with any energy amount inside the slice's [`EnergyRange`]
//! (paper §2, Figure 3: the gray/shaded profile with min/max energy).

use crate::energy::{Energy, EnergyRange};
use crate::error::DomainError;
use crate::time::SlotSpan;
use std::fmt;

/// A run of consecutive slots sharing the same per-slot energy bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    /// Number of consecutive metering slots covered by this slice (≥ 1).
    pub duration: SlotSpan,
    /// Per-slot energy bounds within the slice.
    pub energy: EnergyRange,
}

impl Slice {
    /// Construct a slice; `duration` must be at least 1.
    pub fn new(duration: SlotSpan, energy: EnergyRange) -> Result<Slice, DomainError> {
        if duration == 0 {
            return Err(DomainError::InvalidProfile(
                "slice duration must be >= 1".into(),
            ));
        }
        Ok(Slice { duration, energy })
    }

    /// Minimum total energy over the whole slice.
    pub fn min_energy(&self) -> Energy {
        self.energy.min() * self.duration as f64
    }

    /// Maximum total energy over the whole slice.
    pub fn max_energy(&self) -> Energy {
        self.energy.max() * self.duration as f64
    }
}

/// A flex-offer energy profile: a non-empty sequence of slices.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    slices: Vec<Slice>,
}

impl Profile {
    /// Build a profile from slices; must be non-empty and every slice valid.
    pub fn new(slices: Vec<Slice>) -> Result<Profile, DomainError> {
        if slices.is_empty() {
            return Err(DomainError::InvalidProfile("profile has no slices".into()));
        }
        if slices.iter().any(|s| s.duration == 0) {
            return Err(DomainError::InvalidProfile(
                "profile contains zero-duration slice".into(),
            ));
        }
        let total = slices
            .iter()
            .try_fold(0 as SlotSpan, |acc, s| acc.checked_add(s.duration));
        if total.is_none() {
            return Err(DomainError::InvalidProfile(
                "total duration overflows SlotSpan".into(),
            ));
        }
        Ok(Profile { slices })
    }

    /// A profile of `duration` slots, all sharing `energy` bounds.
    pub fn uniform(duration: SlotSpan, energy: EnergyRange) -> Profile {
        Profile {
            slices: vec![Slice { duration, energy }],
        }
    }

    /// Build a profile directly from per-slot ranges (one slice per slot,
    /// no run-length merging).
    pub fn from_slot_ranges(ranges: Vec<EnergyRange>) -> Result<Profile, DomainError> {
        if ranges.is_empty() {
            return Err(DomainError::InvalidProfile("profile has no slots".into()));
        }
        Ok(Profile {
            slices: ranges
                .into_iter()
                .map(|energy| Slice {
                    duration: 1,
                    energy,
                })
                .collect(),
        })
    }

    /// The slices of the profile.
    pub fn slices(&self) -> &[Slice] {
        &self.slices
    }

    /// Number of slices (run-length-encoded intervals).
    pub fn slice_count(&self) -> usize {
        self.slices.len()
    }

    /// Total duration in metering slots.
    pub fn total_duration(&self) -> SlotSpan {
        self.slices.iter().map(|s| s.duration).sum()
    }

    /// Iterator over the per-slot energy bounds, flattening run-length
    /// encoding. Yields exactly [`Profile::total_duration`] items.
    pub fn slot_ranges(&self) -> impl Iterator<Item = EnergyRange> + '_ {
        self.slices
            .iter()
            .flat_map(|s| std::iter::repeat_n(s.energy, s.duration as usize))
    }

    /// Minimum total energy if every slot runs at its lower bound.
    pub fn min_total_energy(&self) -> Energy {
        self.slices.iter().map(|s| s.min_energy()).sum()
    }

    /// Maximum total energy if every slot runs at its upper bound.
    pub fn max_total_energy(&self) -> Energy {
        self.slices.iter().map(|s| s.max_energy()).sum()
    }

    /// Total energy flexibility: sum over slots of the range width
    /// (paper §7 "energy flexibility — the amount of energy which is
    /// dispatchable by the BRP").
    pub fn energy_flexibility(&self) -> Energy {
        self.slices
            .iter()
            .map(|s| s.energy.width() * s.duration as f64)
            .sum()
    }

    /// Merge adjacent slices with identical bounds (canonical form).
    pub fn normalize(&self) -> Profile {
        let mut out: Vec<Slice> = Vec::with_capacity(self.slices.len());
        for s in &self.slices {
            match out.last_mut() {
                Some(last) if last.energy == s.energy => last.duration += s.duration,
                _ => out.push(*s),
            }
        }
        Profile { slices: out }
    }

    /// The per-slot schedule that runs every slot at its lower bound.
    pub fn min_schedule(&self) -> Vec<Energy> {
        self.slot_ranges().map(|r| r.min()).collect()
    }

    /// The per-slot schedule that runs every slot at its upper bound.
    pub fn max_schedule(&self) -> Vec<Energy> {
        self.slot_ranges().map(|r| r.max()).collect()
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "profile[")?;
        for (i, s) in self.slices.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}x{}", s.duration, s.energy)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(min: f64, max: f64) -> EnergyRange {
        EnergyRange::new(min, max).unwrap()
    }

    #[test]
    fn rejects_empty_profile() {
        assert!(Profile::new(vec![]).is_err());
        assert!(Profile::from_slot_ranges(vec![]).is_err());
    }

    #[test]
    fn rejects_zero_duration_slice() {
        assert!(Slice::new(0, r(0.0, 1.0)).is_err());
        let bogus = Slice {
            duration: 0,
            energy: r(0.0, 1.0),
        };
        assert!(Profile::new(vec![bogus]).is_err());
    }

    #[test]
    fn totals() {
        let p = Profile::new(vec![
            Slice::new(2, r(1.0, 2.0)).unwrap(),
            Slice::new(1, r(0.0, 4.0)).unwrap(),
        ])
        .unwrap();
        assert_eq!(p.total_duration(), 3);
        assert!(p.min_total_energy().approx_eq(Energy::from_kwh(2.0), 1e-12));
        assert!(p.max_total_energy().approx_eq(Energy::from_kwh(8.0), 1e-12));
        assert!(p
            .energy_flexibility()
            .approx_eq(Energy::from_kwh(6.0), 1e-12));
    }

    #[test]
    fn slot_ranges_flatten() {
        let p = Profile::new(vec![
            Slice::new(2, r(1.0, 2.0)).unwrap(),
            Slice::new(1, r(0.0, 4.0)).unwrap(),
        ])
        .unwrap();
        let flat: Vec<_> = p.slot_ranges().collect();
        assert_eq!(flat.len(), 3);
        assert_eq!(flat[0], r(1.0, 2.0));
        assert_eq!(flat[1], r(1.0, 2.0));
        assert_eq!(flat[2], r(0.0, 4.0));
    }

    #[test]
    fn normalize_merges_adjacent_equal_slices() {
        let p = Profile::new(vec![
            Slice::new(1, r(1.0, 2.0)).unwrap(),
            Slice::new(2, r(1.0, 2.0)).unwrap(),
            Slice::new(1, r(0.0, 0.0)).unwrap(),
        ])
        .unwrap();
        let n = p.normalize();
        assert_eq!(n.slice_count(), 2);
        assert_eq!(n.slices()[0].duration, 3);
        assert_eq!(n.total_duration(), p.total_duration());
        assert_eq!(n.min_total_energy(), p.min_total_energy());
    }

    #[test]
    fn min_max_schedules() {
        let p = Profile::uniform(3, r(1.0, 2.0));
        assert_eq!(p.min_schedule(), vec![Energy::from_kwh(1.0); 3]);
        assert_eq!(p.max_schedule(), vec![Energy::from_kwh(2.0); 3]);
    }

    #[test]
    fn display_compact() {
        let p = Profile::uniform(3, r(1.0, 2.0));
        assert!(p.to_string().starts_with("profile[3x"));
    }
}
