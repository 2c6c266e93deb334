//! Monetary amounts.
//!
//! Kept deliberately small: a price is EUR per kWh (for tariffs and offer
//! activation costs) or plain EUR (for schedule cost totals). Both use f64;
//! money precision is not the subject of the paper's evaluation.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A price in EUR per kWh, or a plain EUR amount when used as a total.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Price(pub f64);

impl Price {
    /// Zero price.
    pub const ZERO: Price = Price(0.0);

    /// EUR value.
    #[inline]
    pub fn eur(self) -> f64 {
        self.0
    }

    /// Approximate equality for tests.
    pub fn approx_eq(self, other: Price, eps: f64) -> bool {
        (self.0 - other.0).abs() <= eps
    }
}

impl Add for Price {
    type Output = Price;
    fn add(self, rhs: Price) -> Price {
        Price(self.0 + rhs.0)
    }
}

impl AddAssign for Price {
    fn add_assign(&mut self, rhs: Price) {
        self.0 += rhs.0;
    }
}

impl Sub for Price {
    type Output = Price;
    fn sub(self, rhs: Price) -> Price {
        Price(self.0 - rhs.0)
    }
}

impl Neg for Price {
    type Output = Price;
    fn neg(self) -> Price {
        Price(-self.0)
    }
}

impl Mul<f64> for Price {
    type Output = Price;
    fn mul(self, rhs: f64) -> Price {
        Price(self.0 * rhs)
    }
}

impl Sum for Price {
    fn sum<I: Iterator<Item = Price>>(iter: I) -> Price {
        Price(iter.map(|p| p.0).sum())
    }
}

impl fmt::Display for Price {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} EUR", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Price(2.0);
        let b = Price(0.5);
        assert_eq!((a + b).eur(), 2.5);
        assert_eq!((a - b).eur(), 1.5);
        assert_eq!((-a).eur(), -2.0);
        assert_eq!((a * 3.0).eur(), 6.0);
        let s: Price = vec![a, b].into_iter().sum();
        assert!(s.approx_eq(Price(2.5), 1e-12));
    }

    #[test]
    fn display() {
        assert_eq!(Price(1.5).to_string(), "1.5000 EUR");
    }
}
