//! The MIRABEL scheduling problem definition.

use mirabel_core::{FlexOffer, TimeSlot};

/// Per-slot market conditions for buying and selling energy
/// ("the possibility of selling energy to (and buying energy from) the
/// market (other BRPs)", paper §6).
#[derive(Debug, Clone, PartialEq)]
pub struct MarketPrices {
    /// Price (EUR/kWh) to buy energy, one entry per horizon slot.
    pub buy: Vec<f64>,
    /// Price (EUR/kWh) obtained when selling, one entry per horizon slot.
    pub sell: Vec<f64>,
    /// Maximum tradable energy per slot (kWh) in either direction.
    pub max_trade_per_slot: f64,
}

impl MarketPrices {
    /// Flat prices over `len` slots.
    pub fn flat(len: usize, buy: f64, sell: f64, cap: f64) -> MarketPrices {
        MarketPrices {
            buy: vec![buy; len],
            sell: vec![sell; len],
            max_trade_per_slot: cap,
        }
    }
}

/// One BRP-level scheduling instance.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulingProblem {
    /// First slot of the planning horizon.
    pub start: TimeSlot,
    /// Forecast imbalance per horizon slot (kWh): non-flexible demand
    /// minus forecast RES production. Positive = deficit.
    pub baseline_imbalance: Vec<f64>,
    /// The aggregated flex-offers to place.
    pub offers: Vec<FlexOffer>,
    /// Market conditions.
    pub prices: MarketPrices,
    /// Mismatch penalty (EUR/kWh of residual imbalance) per slot —
    /// "mismatches at peak periods cost the BRP more than at other
    /// periods".
    pub imbalance_penalty: Vec<f64>,
}

/// Problem construction errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ProblemError {
    /// Vector lengths disagree with the horizon.
    LengthMismatch(&'static str),
    /// An offer cannot be fully placed inside the horizon.
    OfferOutsideHorizon(u64),
}

impl std::fmt::Display for ProblemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProblemError::LengthMismatch(what) => write!(f, "{what} length mismatch"),
            ProblemError::OfferOutsideHorizon(id) => {
                write!(f, "offer fo{id} does not fit the horizon")
            }
        }
    }
}

impl std::error::Error for ProblemError {}

impl SchedulingProblem {
    /// Build and validate a problem instance.
    pub fn new(
        start: TimeSlot,
        baseline_imbalance: Vec<f64>,
        offers: Vec<FlexOffer>,
        prices: MarketPrices,
        imbalance_penalty: Vec<f64>,
    ) -> Result<SchedulingProblem, ProblemError> {
        let h = baseline_imbalance.len();
        if prices.buy.len() != h || prices.sell.len() != h {
            return Err(ProblemError::LengthMismatch("market prices"));
        }
        if imbalance_penalty.len() != h {
            return Err(ProblemError::LengthMismatch("imbalance penalty"));
        }
        let end = start + h as u32;
        for o in &offers {
            if o.earliest_start() < start || o.latest_start() + o.duration() > end {
                return Err(ProblemError::OfferOutsideHorizon(o.id().value()));
            }
        }
        Ok(SchedulingProblem {
            start,
            baseline_imbalance,
            offers,
            prices,
            imbalance_penalty,
        })
    }

    /// Horizon length in slots.
    pub fn horizon(&self) -> usize {
        self.baseline_imbalance.len()
    }

    /// First slot after the horizon.
    pub fn end(&self) -> TimeSlot {
        self.start + self.horizon() as u32
    }

    /// Index of absolute slot `t` within the horizon.
    pub fn slot_index(&self, t: TimeSlot) -> usize {
        debug_assert!(t >= self.start && t < self.end());
        (t - self.start) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirabel_core::{EnergyRange, Profile};

    fn offer(id: u64, start: i64, tf: u32, dur: u32) -> FlexOffer {
        FlexOffer::builder(id, 1)
            .earliest_start(TimeSlot(start))
            .time_flexibility(tf)
            .profile(Profile::uniform(dur, EnergyRange::new(1.0, 2.0).unwrap()))
            .build()
            .unwrap()
    }

    #[test]
    fn valid_problem() {
        let p = SchedulingProblem::new(
            TimeSlot(0),
            vec![0.0; 96],
            vec![offer(1, 10, 4, 2)],
            MarketPrices::flat(96, 0.08, 0.03, 100.0),
            vec![0.2; 96],
        )
        .unwrap();
        assert_eq!(p.horizon(), 96);
        assert_eq!(p.end(), TimeSlot(96));
        assert_eq!(p.slot_index(TimeSlot(10)), 10);
    }

    #[test]
    fn rejects_length_mismatch() {
        let e = SchedulingProblem::new(
            TimeSlot(0),
            vec![0.0; 96],
            vec![],
            MarketPrices::flat(95, 0.08, 0.03, 100.0),
            vec![0.2; 96],
        );
        assert_eq!(e, Err(ProblemError::LengthMismatch("market prices")));
        let e2 = SchedulingProblem::new(
            TimeSlot(0),
            vec![0.0; 96],
            vec![],
            MarketPrices::flat(96, 0.08, 0.03, 100.0),
            vec![0.2; 10],
        );
        assert_eq!(e2, Err(ProblemError::LengthMismatch("imbalance penalty")));
    }

    #[test]
    fn rejects_offer_outside_horizon() {
        // latest_start 94 + dur 4 = 98 > 96
        let e = SchedulingProblem::new(
            TimeSlot(0),
            vec![0.0; 96],
            vec![offer(7, 90, 4, 4)],
            MarketPrices::flat(96, 0.08, 0.03, 100.0),
            vec![0.2; 96],
        );
        assert_eq!(e, Err(ProblemError::OfferOutsideHorizon(7)));
        // offer starting before the horizon
        let e2 = SchedulingProblem::new(
            TimeSlot(10),
            vec![0.0; 86],
            vec![offer(8, 5, 0, 2)],
            MarketPrices::flat(86, 0.08, 0.03, 100.0),
            vec![0.2; 86],
        );
        assert_eq!(e2, Err(ProblemError::OfferOutsideHorizon(8)));
    }
}
