//! Energy quantities and per-slot flexibility bounds.

use crate::error::DomainError;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// An amount of electric energy in kilowatt-hours.
///
/// Positive values denote energy in the direction implied by the surrounding
/// context (a consumption offer consumes positive energy; a production offer
/// produces positive energy). Signed arithmetic is supported because
/// imbalance computations subtract supply from demand.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy(f64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// Construct from kilowatt-hours. `NaN` is rejected at construction so
    /// downstream ordering is total in practice.
    #[inline]
    pub fn kwh_checked(v: f64) -> Result<Energy, DomainError> {
        if v.is_nan() {
            Err(DomainError::NotANumber("energy"))
        } else {
            Ok(Energy(v))
        }
    }

    /// Construct from kilowatt-hours; panics on NaN (programmer error).
    #[inline]
    pub fn from_kwh(v: f64) -> Energy {
        Energy::kwh_checked(v).expect("energy must not be NaN")
    }

    /// Value in kilowatt-hours.
    #[inline]
    pub fn kwh(self) -> f64 {
        self.0
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> Energy {
        Energy(self.0.abs())
    }

    /// Element-wise minimum.
    #[inline]
    pub fn min(self, other: Energy) -> Energy {
        Energy(self.0.min(other.0))
    }

    /// Element-wise maximum.
    #[inline]
    pub fn max(self, other: Energy) -> Energy {
        Energy(self.0.max(other.0))
    }

    /// Clamp into `[lo, hi]`.
    #[inline]
    pub fn clamp(self, lo: Energy, hi: Energy) -> Energy {
        Energy(self.0.clamp(lo.0, hi.0))
    }

    /// Approximate equality within `eps` kWh (for tests and float-tolerant
    /// invariant checks).
    #[inline]
    pub fn approx_eq(self, other: Energy, eps: f64) -> bool {
        (self.0 - other.0).abs() <= eps
    }
}

impl From<f64> for Energy {
    fn from(v: f64) -> Energy {
        Energy::from_kwh(v)
    }
}

impl Add for Energy {
    type Output = Energy;
    #[inline]
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    #[inline]
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    #[inline]
    fn sub(self, rhs: Energy) -> Energy {
        Energy(self.0 - rhs.0)
    }
}

impl SubAssign for Energy {
    #[inline]
    fn sub_assign(&mut self, rhs: Energy) {
        self.0 -= rhs.0;
    }
}

impl Neg for Energy {
    type Output = Energy;
    #[inline]
    fn neg(self) -> Energy {
        Energy(-self.0)
    }
}

impl Mul<f64> for Energy {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: f64) -> Energy {
        Energy(self.0 * rhs)
    }
}

impl Div<f64> for Energy {
    type Output = Energy;
    #[inline]
    fn div(self, rhs: f64) -> Energy {
        Energy(self.0 / rhs)
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        Energy(iter.map(|e| e.0).sum())
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} kWh", self.0)
    }
}

/// An inclusive energy interval `[min, max]`.
///
/// This is the *energy flexibility* of one profile slot: the scheduler may
/// fix any amount inside the range (paper §4, "energy flexibility — the
/// ability to scale energy up or down at a given time").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyRange {
    min: Energy,
    max: Energy,
}

impl EnergyRange {
    /// Build a range; fails when `min > max` or either bound is NaN.
    pub fn new(min_kwh: f64, max_kwh: f64) -> Result<EnergyRange, DomainError> {
        let min = Energy::kwh_checked(min_kwh)?;
        let max = Energy::kwh_checked(max_kwh)?;
        if min > max {
            return Err(DomainError::InvertedRange {
                min: min_kwh,
                max: max_kwh,
            });
        }
        Ok(EnergyRange { min, max })
    }

    /// Degenerate range containing exactly `kwh`.
    pub fn fixed(kwh: f64) -> EnergyRange {
        let e = Energy::from_kwh(kwh);
        EnergyRange { min: e, max: e }
    }

    /// Zero-width range at zero energy.
    pub const ZERO: EnergyRange = EnergyRange {
        min: Energy::ZERO,
        max: Energy::ZERO,
    };

    /// Lower bound.
    #[inline]
    pub fn min(&self) -> Energy {
        self.min
    }

    /// Upper bound.
    #[inline]
    pub fn max(&self) -> Energy {
        self.max
    }

    /// Width of the range (`max - min`), the slot's energy flexibility.
    #[inline]
    pub fn width(&self) -> Energy {
        self.max - self.min
    }

    /// Whether `e` lies inside the range, with a small tolerance so that
    /// round-tripped floating-point schedules still validate.
    #[inline]
    pub fn contains(&self, e: Energy, eps: f64) -> bool {
        e.kwh() >= self.min.kwh() - eps && e.kwh() <= self.max.kwh() + eps
    }

    /// Clamp `e` into the range.
    #[inline]
    pub fn clamp(&self, e: Energy) -> Energy {
        e.clamp(self.min, self.max)
    }

    /// Minkowski sum: the range of the sum of two independent quantities.
    /// This is how aggregated flex-offer profiles accumulate member slots.
    #[inline]
    pub fn sum(&self, other: &EnergyRange) -> EnergyRange {
        EnergyRange {
            min: self.min + other.min,
            max: self.max + other.max,
        }
    }

    /// Scale both bounds by a non-negative factor.
    pub fn scale(&self, factor: f64) -> EnergyRange {
        debug_assert!(factor >= 0.0);
        EnergyRange {
            min: self.min * factor,
            max: self.max * factor,
        }
    }

    /// Point inside the range at `frac` ∈ `[0,1]` between min and max.
    #[inline]
    pub fn lerp(&self, frac: f64) -> Energy {
        self.min + (self.max - self.min) * frac.clamp(0.0, 1.0)
    }

    /// The fraction at which `e` sits inside the range; 0 when the range is
    /// degenerate.
    pub fn fraction_of(&self, e: Energy) -> f64 {
        let w = self.width().kwh();
        if w <= 0.0 {
            0.0
        } else {
            ((e - self.min).kwh() / w).clamp(0.0, 1.0)
        }
    }
}

impl fmt::Display for EnergyRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:.3}, {:.3}] kWh", self.min.kwh(), self.max.kwh())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_arithmetic() {
        let a = Energy::from_kwh(3.0);
        let b = Energy::from_kwh(1.5);
        assert_eq!((a + b).kwh(), 4.5);
        assert_eq!((a - b).kwh(), 1.5);
        assert_eq!((-a).kwh(), -3.0);
        assert_eq!((a * 2.0).kwh(), 6.0);
        assert_eq!((a / 2.0).kwh(), 1.5);
        let s: Energy = vec![a, b, b].into_iter().sum();
        assert!(s.approx_eq(Energy::from_kwh(6.0), 1e-12));
    }

    #[test]
    fn energy_rejects_nan() {
        assert!(Energy::kwh_checked(f64::NAN).is_err());
        assert!(Energy::kwh_checked(f64::INFINITY).is_ok());
    }

    #[test]
    fn energy_min_max_clamp() {
        let a = Energy::from_kwh(3.0);
        let b = Energy::from_kwh(5.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(Energy::from_kwh(9.0).clamp(a, b), b);
        assert_eq!(Energy::from_kwh(1.0).clamp(a, b), a);
        assert_eq!(Energy::from_kwh(-2.0).abs().kwh(), 2.0);
    }

    #[test]
    fn range_construction() {
        assert!(EnergyRange::new(1.0, 2.0).is_ok());
        assert!(EnergyRange::new(2.0, 1.0).is_err());
        assert!(EnergyRange::new(f64::NAN, 1.0).is_err());
        let f = EnergyRange::fixed(4.0);
        assert_eq!(f.width(), Energy::ZERO);
    }

    #[test]
    fn range_contains_with_tolerance() {
        let r = EnergyRange::new(1.0, 2.0).unwrap();
        assert!(r.contains(Energy::from_kwh(1.0), 0.0));
        assert!(r.contains(Energy::from_kwh(2.0), 0.0));
        assert!(!r.contains(Energy::from_kwh(2.1), 0.0));
        assert!(r.contains(Energy::from_kwh(2.0000001), 1e-6));
    }

    #[test]
    fn range_minkowski_sum() {
        let a = EnergyRange::new(1.0, 2.0).unwrap();
        let b = EnergyRange::new(0.5, 3.0).unwrap();
        let s = a.sum(&b);
        assert_eq!(s.min().kwh(), 1.5);
        assert_eq!(s.max().kwh(), 5.0);
    }

    #[test]
    fn range_lerp_and_fraction_roundtrip() {
        let r = EnergyRange::new(2.0, 6.0).unwrap();
        let e = r.lerp(0.25);
        assert!(e.approx_eq(Energy::from_kwh(3.0), 1e-12));
        assert!((r.fraction_of(e) - 0.25).abs() < 1e-12);
        // degenerate range
        let d = EnergyRange::fixed(1.0);
        assert_eq!(d.fraction_of(Energy::from_kwh(1.0)), 0.0);
        assert_eq!(d.lerp(0.7).kwh(), 1.0);
    }

    #[test]
    fn range_scale() {
        let r = EnergyRange::new(1.0, 2.0).unwrap().scale(2.0);
        assert_eq!(r.min().kwh(), 2.0);
        assert_eq!(r.max().kwh(), 4.0);
    }
}
