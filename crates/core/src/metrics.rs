//! Flexibility metrics (paper §4 "flexibility requirement", §7 pricing).

use crate::energy::Energy;
use crate::flexoffer::FlexOffer;
use crate::time::SlotSpan;

/// Time flexibility of an offer in slots.
pub fn time_flexibility(offer: &FlexOffer) -> SlotSpan {
    offer.time_flexibility()
}

/// Energy flexibility: summed per-slot range width in kWh.
pub fn energy_flexibility(offer: &FlexOffer) -> Energy {
    offer.profile().energy_flexibility()
}

/// A combined scalar flexibility measure used when comparing aggregation
/// configurations: time flexibility (slots) weighted by `time_weight` plus
/// energy flexibility (kWh) weighted by `energy_weight`.
pub fn total_flexibility(offer: &FlexOffer, time_weight: f64, energy_weight: f64) -> f64 {
    time_flexibility(offer) as f64 * time_weight + energy_flexibility(offer).kwh() * energy_weight
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::EnergyRange;
    use crate::profile::Profile;
    use crate::time::TimeSlot;

    fn offer(tf: SlotSpan, width: f64) -> FlexOffer {
        FlexOffer::builder(1, 1)
            .earliest_start(TimeSlot(0))
            .time_flexibility(tf)
            .profile(Profile::uniform(
                4,
                EnergyRange::new(1.0, 1.0 + width).unwrap(),
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn time_flex() {
        assert_eq!(time_flexibility(&offer(12, 0.0)), 12);
    }

    #[test]
    fn energy_flex() {
        let e = energy_flexibility(&offer(0, 0.5));
        assert!(e.approx_eq(Energy::from_kwh(2.0), 1e-12));
    }

    #[test]
    fn combined() {
        let f = total_flexibility(&offer(10, 0.5), 1.0, 2.0);
        assert!((f - (10.0 + 4.0)).abs() < 1e-12);
    }
}
