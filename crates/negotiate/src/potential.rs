//! Flexibility potentials (paper §7 "Monetize Flexibility").
//!
//! "Each of the described flexibility parameters can be normalized to
//! flexibility potentials by applying a function, e.g. the sigmoid
//! function, that maps the flexibility parameter to \[a\] value between 0
//! and 1. The total value of each flex-offer is the weighted sum of its
//! flexibility potentials and can be computed before execution time."

use mirabel_core::{FlexOffer, SlotSpan, TimeSlot};

/// Logistic squashing: `1 / (1 + exp(-steepness · (x − midpoint)))`.
pub fn sigmoid(x: f64, midpoint: f64, steepness: f64) -> f64 {
    1.0 / (1.0 + (-steepness * (x - midpoint)).exp())
}

/// Sigmoid shape per flexibility dimension plus combination weights.
#[derive(Debug, Clone, Copy)]
pub struct PotentialConfig {
    /// Midpoint (slots) of the assignment-flexibility sigmoid.
    pub assignment_mid: f64,
    /// Steepness of the assignment-flexibility sigmoid.
    pub assignment_steep: f64,
    /// Slots until the next day-ahead trading period: assignment
    /// flexibility beyond this "is marginalized by the option for the BRP
    /// to trade on the day-ahead market".
    pub day_ahead_horizon: SlotSpan,
    /// Midpoint (slots) of the scheduling-flexibility sigmoid.
    pub scheduling_mid: f64,
    /// Steepness of the scheduling-flexibility sigmoid.
    pub scheduling_steep: f64,
    /// Midpoint (kWh) of the energy-flexibility sigmoid.
    pub energy_mid: f64,
    /// Steepness of the energy-flexibility sigmoid.
    pub energy_steep: f64,
    /// Weight of the assignment potential in the total value.
    pub w_assignment: f64,
    /// Weight of the scheduling potential.
    pub w_scheduling: f64,
    /// Weight of the energy potential.
    pub w_energy: f64,
}

impl Default for PotentialConfig {
    fn default() -> PotentialConfig {
        PotentialConfig {
            assignment_mid: 16.0, // 4 h of re-scheduling room
            assignment_steep: 0.3,
            day_ahead_horizon: 96,
            scheduling_mid: 8.0, // 2 h of start flexibility
            scheduling_steep: 0.4,
            energy_mid: 5.0, // 5 kWh dispatchable
            energy_steep: 0.5,
            w_assignment: 0.2,
            w_scheduling: 0.5,
            w_energy: 0.3,
        }
    }
}

/// The three normalized potentials of one offer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlexibilityPotentials {
    /// Potential of the time left for re-scheduling before the assignment
    /// deadline (capped at the day-ahead horizon).
    pub assignment: f64,
    /// Potential of the start-time window width.
    pub scheduling: f64,
    /// Potential of the dispatchable energy amount.
    pub energy: f64,
}

impl FlexibilityPotentials {
    /// Compute the potentials of `offer` as seen at `now`.
    pub fn compute(offer: &FlexOffer, now: TimeSlot, cfg: &PotentialConfig) -> Self {
        // Assignment flexibility beyond the day-ahead horizon adds no
        // value: the BRP could simply trade the energy day-ahead.
        let af = offer.assignment_flexibility(now).min(cfg.day_ahead_horizon);
        let assignment = sigmoid(af as f64, cfg.assignment_mid, cfg.assignment_steep);

        // "If the earliest start time and latest start time … are equal
        // there is no Scheduling flexibility": map zero width to zero.
        let sf = offer.time_flexibility();
        let scheduling = if sf == 0 {
            0.0
        } else {
            sigmoid(sf as f64, cfg.scheduling_mid, cfg.scheduling_steep)
        };

        let ef = offer.profile().energy_flexibility().kwh();
        let energy = if ef <= 0.0 {
            0.0
        } else {
            sigmoid(ef, cfg.energy_mid, cfg.energy_steep)
        };

        FlexibilityPotentials {
            assignment,
            scheduling,
            energy,
        }
    }

    /// Weighted-sum total value in `[0, w_total]`.
    ///
    /// An offer with neither scheduling nor energy flexibility gives the
    /// BRP nothing to dispatch — assignment flexibility alone ("time left
    /// for re-scheduling") is then worthless, so the total value is zero.
    pub fn total_value(&self, cfg: &PotentialConfig) -> f64 {
        if self.scheduling == 0.0 && self.energy == 0.0 {
            return 0.0;
        }
        cfg.w_assignment * self.assignment
            + cfg.w_scheduling * self.scheduling
            + cfg.w_energy * self.energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirabel_core::{EnergyRange, Profile};

    fn offer(tf: u32, width: f64, lead: u32) -> FlexOffer {
        FlexOffer::builder(1, 1)
            .earliest_start(TimeSlot(100))
            .time_flexibility(tf)
            .assignment_before(TimeSlot(100 - lead as i64))
            .profile(Profile::uniform(
                4,
                EnergyRange::new(1.0, 1.0 + width).unwrap(),
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn sigmoid_shape() {
        assert!((sigmoid(0.0, 0.0, 1.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(10.0, 0.0, 1.0) > 0.99);
        assert!(sigmoid(-10.0, 0.0, 1.0) < 0.01);
        // monotone
        assert!(sigmoid(1.0, 0.0, 2.0) > sigmoid(0.5, 0.0, 2.0));
    }

    #[test]
    fn potentials_in_unit_interval() {
        let cfg = PotentialConfig::default();
        let p = FlexibilityPotentials::compute(&offer(8, 0.5, 20), TimeSlot(50), &cfg);
        for v in [p.assignment, p.scheduling, p.energy] {
            assert!((0.0..=1.0).contains(&v), "potential {v}");
        }
    }

    #[test]
    fn zero_scheduling_flexibility_is_worthless() {
        let cfg = PotentialConfig::default();
        let p = FlexibilityPotentials::compute(&offer(0, 0.5, 20), TimeSlot(50), &cfg);
        assert_eq!(p.scheduling, 0.0);
        // but the offer "may still provide a benefit … if it offers Energy
        // flexibility"
        assert!(p.energy > 0.0);
    }

    #[test]
    fn zero_energy_flexibility_is_worthless() {
        let cfg = PotentialConfig::default();
        let p = FlexibilityPotentials::compute(&offer(8, 0.0, 20), TimeSlot(50), &cfg);
        assert_eq!(p.energy, 0.0);
        assert!(p.scheduling > 0.0);
    }

    #[test]
    fn more_flexibility_more_value() {
        let cfg = PotentialConfig::default();
        let lo = FlexibilityPotentials::compute(&offer(2, 0.1, 4), TimeSlot(90), &cfg);
        let hi = FlexibilityPotentials::compute(&offer(24, 2.0, 50), TimeSlot(40), &cfg);
        assert!(hi.total_value(&cfg) > lo.total_value(&cfg));
    }

    #[test]
    fn day_ahead_horizon_caps_assignment_value() {
        let cfg = PotentialConfig::default();
        // deadline is slot -100; both observation times leave more than
        // the 96-slot day-ahead horizon of assignment flexibility
        let a = FlexibilityPotentials::compute(&offer(8, 0.5, 200), TimeSlot(-250), &cfg);
        let b = FlexibilityPotentials::compute(&offer(8, 0.5, 200), TimeSlot(-350), &cfg);
        assert!((a.assignment - b.assignment).abs() < 1e-12);
    }

    #[test]
    fn expired_offer_has_zero_assignment_potential_tail() {
        let cfg = PotentialConfig::default();
        let o = offer(8, 0.5, 4);
        let p = FlexibilityPotentials::compute(&o, TimeSlot(100), &cfg);
        // assignment flexibility is 0 ⇒ sigmoid far below midpoint
        assert!(p.assignment < 0.01);
    }

    #[test]
    fn weighted_sum_uses_weights() {
        let cfg = PotentialConfig {
            w_assignment: 0.0,
            w_scheduling: 1.0,
            w_energy: 0.0,
            ..PotentialConfig::default()
        };
        let p = FlexibilityPotentials {
            assignment: 0.9,
            scheduling: 0.5,
            energy: 0.9,
        };
        assert!((p.total_value(&cfg) - 0.5).abs() < 1e-12);
    }
}
