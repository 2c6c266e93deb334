//! Price setting (paper §7).
//!
//! [`PreExecutionPricing`] values the offer *before* execution from its
//! flexibility potentials, so it is usable as an acceptance criterion;
//! "any price setting after execution time can not be used as an
//! acceptance criteria".

use crate::potential::{FlexibilityPotentials, PotentialConfig};
use mirabel_core::{FlexOffer, Price, TimeSlot};

/// Monetize-flexibility pricing: value = weighted potential sum scaled to
/// a per-kWh discount.
#[derive(Debug, Clone, Copy)]
pub struct PreExecutionPricing {
    /// Potential configuration (sigmoids + weights).
    pub potentials: PotentialConfig,
    /// EUR/kWh discount granted at total value 1.0 — the maximum discount
    /// a maximally flexible offer can earn.
    pub max_discount_per_kwh: f64,
}

impl Default for PreExecutionPricing {
    fn default() -> PreExecutionPricing {
        PreExecutionPricing {
            potentials: PotentialConfig::default(),
            max_discount_per_kwh: 0.05,
        }
    }
}

impl PreExecutionPricing {
    /// The offer's total flexibility value in `[0, 1]` at time `now`.
    pub fn value(&self, offer: &FlexOffer, now: TimeSlot) -> f64 {
        FlexibilityPotentials::compute(offer, now, &self.potentials).total_value(&self.potentials)
    }

    /// The per-kWh discount offered to the prosumer ("a consumer is given
    /// a discount for energy if she provides flexibilities", paper §2).
    pub fn discount_per_kwh(&self, offer: &FlexOffer, now: TimeSlot) -> Price {
        Price(self.value(offer, now) * self.max_discount_per_kwh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirabel_core::{EnergyRange, Profile};

    fn offer(tf: u32, width: f64) -> FlexOffer {
        FlexOffer::builder(1, 1)
            .earliest_start(TimeSlot(100))
            .time_flexibility(tf)
            .assignment_before(TimeSlot(80))
            .profile(Profile::uniform(
                4,
                EnergyRange::new(1.0, 1.0 + width).unwrap(),
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn flexible_offer_earns_discount() {
        let pricing = PreExecutionPricing::default();
        let d = pricing.discount_per_kwh(&offer(24, 1.5), TimeSlot(40));
        assert!(d.eur() > 0.0);
        assert!(d.eur() <= pricing.max_discount_per_kwh);
    }

    #[test]
    fn inflexible_offer_earns_almost_nothing() {
        let pricing = PreExecutionPricing::default();
        let rigid = pricing.value(&offer(0, 0.0), TimeSlot(99));
        let flexible = pricing.value(&offer(24, 1.5), TimeSlot(40));
        assert!(rigid < 0.15 * flexible, "rigid {rigid} flexible {flexible}");
    }
}
