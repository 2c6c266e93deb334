//! The composed schedule cost function (paper §6).
//!
//! `total = mismatch + offers + market`, where the market transactions are
//! set per-slot in closed form: given the post-placement residual, buying
//! is profitable exactly when the buy price is below the slot's imbalance
//! penalty, and selling surplus is profitable whenever it earns more than
//! the (negative-residual) penalty it avoids — which, with non-negative
//! prices and penalties, is always.

use crate::problem::SchedulingProblem;
use crate::solution::Solution;
use mirabel_core::FlexOffer;

/// Cost components of one evaluated schedule (EUR).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBreakdown {
    /// Penalized residual imbalance after market transactions.
    pub mismatch_cost: f64,
    /// Flex-offer activation cost (energy × unit price).
    pub offer_cost: f64,
    /// Net market cost: buys minus sell revenue (may be negative).
    pub market_cost: f64,
    /// Energy bought per the closed-form market policy (kWh).
    pub energy_bought: f64,
    /// Energy sold (kWh).
    pub energy_sold: f64,
}

impl CostBreakdown {
    /// Total schedule cost (EUR); "the lower the cost, the better".
    pub fn total(&self) -> f64 {
        self.mismatch_cost + self.offer_cost + self.market_cost
    }
}

/// Effective cost of one slot's residual `r` under the closed-form market
/// policy: buy when cheaper than the penalty, always sell surplus, both
/// capped at `cap`. Shared by [`evaluate`] and the greedy scheduler's
/// incremental scoring.
pub(crate) fn slot_cost(r: f64, pen: f64, buy: f64, sell: f64, cap: f64) -> f64 {
    if r > 0.0 {
        if buy < pen {
            let bought = r.min(cap);
            bought * buy + (r - bought) * pen
        } else {
            r * pen
        }
    } else if r < 0.0 {
        let sold = (-r).min(cap);
        -sold * sell + (-r - sold) * pen
    } else {
        0.0
    }
}

/// Residual imbalance per slot after applying a solution's placements
/// (before market transactions). Positive = deficit.
pub fn residual_imbalance(problem: &SchedulingProblem, solution: &Solution) -> Vec<f64> {
    let mut residual = Vec::new();
    residual_imbalance_into(problem, solution, &mut residual);
    residual
}

/// Buffer-reusing variant of [`residual_imbalance`]: clears and fills
/// `residual` in place so hot-path callers (the delta evaluator, greedy
/// restarts) avoid one heap allocation per evaluation.
pub fn residual_imbalance_into(
    problem: &SchedulingProblem,
    solution: &Solution,
    residual: &mut Vec<f64>,
) {
    residual.clear();
    residual.extend_from_slice(&problem.baseline_imbalance);
    for (placement, offer) in solution.placements.iter().zip(&problem.offers) {
        let sign = offer.demand_sign();
        let base = problem.slot_index(placement.start);
        for (k, (range, &frac)) in offer
            .profile()
            .slot_ranges()
            .zip(&placement.fractions)
            .enumerate()
        {
            residual[base + k] += sign * range.lerp(frac).kwh();
        }
    }
}

/// Per-slot `(min, width)` energy bounds (kWh) of every offer, flattened
/// in offer order: slot `k` of offer `j` sits at `Σ duration(offers[..j]) + k`.
///
/// The profile's run-length encoding is unrolled once here so that
/// [`evaluate_into`] reads a slice per evaluation. Build it once per
/// scheduler run from `problem.offers` and drop it with the run: it is
/// stale as soon as the offer list changes, which a live
/// [`DeltaEvaluator`](crate::DeltaEvaluator) does in place.
pub fn slot_table(offers: &[FlexOffer]) -> Vec<(f64, f64)> {
    let mut slots = Vec::with_capacity(offers.iter().map(|o| o.duration() as usize).sum());
    for slice in offers.iter().flat_map(|o| o.profile().slices()) {
        let bounds = (slice.energy.min().kwh(), slice.energy.width().kwh());
        slots.extend(std::iter::repeat_n(bounds, slice.duration as usize));
    }
    slots
}

/// The cost kernel — the reference semantics of the cost model: place
/// offers, trade optimally, price the residual, in one pass per offer
/// slot and one per horizon slot.
///
/// `slots` is [`slot_table`] of `problem.offers`. `residual` is scratch
/// owned by the caller: whatever it held is discarded, and on return it
/// holds the solution's residual imbalance (what [`residual_imbalance`]
/// computes). A caller that keeps both across calls evaluates without
/// allocating.
pub fn evaluate_into(
    problem: &SchedulingProblem,
    slots: &[(f64, f64)],
    solution: &Solution,
    residual: &mut Vec<f64>,
) -> CostBreakdown {
    debug_assert_eq!(solution.placements.len(), problem.offers.len());
    residual.clear();
    residual.extend_from_slice(&problem.baseline_imbalance);

    // Deposit every placement's energy and sum its activation cost.
    let mut offer_cost = 0.0;
    let mut at = 0;
    for (placement, offer) in solution.placements.iter().zip(&problem.offers) {
        let sign = offer.demand_sign();
        let base = problem.slot_index(placement.start);
        let duration = offer.duration() as usize;
        let mut energy = 0.0;
        for ((&(min, width), &frac), r) in slots[at..at + duration]
            .iter()
            .zip(&placement.fractions)
            .zip(&mut residual[base..base + duration])
        {
            // `EnergyRange::lerp`, on the unrolled bounds.
            let e = min + width * frac.clamp(0.0, 1.0);
            *r += sign * e;
            energy += e;
        }
        at += duration;
        offer_cost += energy * offer.unit_price().eur();
    }
    debug_assert_eq!(at, slots.len(), "slot table built for other offers");

    // Closed-form per-slot market transactions + residual pricing.
    let cap = problem.prices.max_trade_per_slot;
    let mut mismatch_cost = 0.0;
    let mut market_cost = 0.0;
    let mut energy_bought = 0.0;
    let mut energy_sold = 0.0;
    for (i, &r) in residual.iter().enumerate() {
        let pen = problem.imbalance_penalty[i];
        if r > 0.0 {
            // Deficit: buy if cheaper than the penalty.
            let buy_price = problem.prices.buy[i];
            let bought = if buy_price < pen { r.min(cap) } else { 0.0 };
            energy_bought += bought;
            market_cost += bought * buy_price;
            mismatch_cost += (r - bought) * pen;
        } else if r < 0.0 {
            // Surplus: selling earns revenue and avoids the penalty.
            let sell_price = problem.prices.sell[i];
            let sold = (-r).min(cap);
            energy_sold += sold;
            market_cost -= sold * sell_price;
            mismatch_cost += (-r - sold) * pen;
        }
    }

    CostBreakdown {
        mismatch_cost,
        offer_cost,
        market_cost,
        energy_bought,
        energy_sold,
    }
}

/// Evaluate a solution: the allocating convenience form of
/// [`evaluate_into`], for callers that price a solution once.
pub fn evaluate(problem: &SchedulingProblem, solution: &Solution) -> CostBreakdown {
    evaluate_into(
        problem,
        &slot_table(&problem.offers),
        solution,
        &mut Vec::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::MarketPrices;
    use crate::solution::Placement;
    use mirabel_core::{EnergyRange, FlexOffer, Profile, TimeSlot};

    fn consumption(id: u64, start: i64, tf: u32, dur: u32, lo: f64, hi: f64) -> FlexOffer {
        FlexOffer::builder(id, 1)
            .earliest_start(TimeSlot(start))
            .time_flexibility(tf)
            .profile(Profile::uniform(dur, EnergyRange::new(lo, hi).unwrap()))
            .unit_price(mirabel_core::Price(0.05))
            .build()
            .unwrap()
    }

    fn production(id: u64, start: i64, dur: u32, kwh: f64) -> FlexOffer {
        FlexOffer::builder(id, 1)
            .kind(mirabel_core::OfferKind::Production)
            .earliest_start(TimeSlot(start))
            .profile(Profile::uniform(dur, EnergyRange::fixed(kwh)))
            .build()
            .unwrap()
    }

    fn empty_problem(h: usize, imbalance: Vec<f64>) -> SchedulingProblem {
        SchedulingProblem::new(
            TimeSlot(0),
            imbalance,
            vec![],
            MarketPrices::flat(h, 0.08, 0.03, 1000.0),
            vec![0.2; h],
        )
        .unwrap()
    }

    #[test]
    fn zero_imbalance_zero_cost() {
        let p = empty_problem(10, vec![0.0; 10]);
        let c = evaluate(&p, &Solution::baseline(&p));
        assert_eq!(c.total(), 0.0);
    }

    #[test]
    fn deficit_bought_when_cheaper_than_penalty() {
        let p = empty_problem(2, vec![10.0, 0.0]); // 10 kWh deficit in slot 0
        let c = evaluate(&p, &Solution::baseline(&p));
        // buy 10 at 0.08 (< 0.2 penalty)
        assert!((c.market_cost - 0.8).abs() < 1e-12);
        assert_eq!(c.mismatch_cost, 0.0);
        assert_eq!(c.energy_bought, 10.0);
        assert!((c.total() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn deficit_penalized_when_buying_expensive() {
        let mut p = empty_problem(1, vec![10.0]);
        p.prices.buy = vec![0.5]; // more than the 0.2 penalty
        let c = evaluate(&p, &Solution::baseline(&p));
        assert_eq!(c.energy_bought, 0.0);
        assert!((c.mismatch_cost - 2.0).abs() < 1e-12);
    }

    #[test]
    fn surplus_sold_for_negative_cost() {
        let p = empty_problem(1, vec![-10.0]);
        let c = evaluate(&p, &Solution::baseline(&p));
        assert_eq!(c.energy_sold, 10.0);
        assert!((c.market_cost + 0.3).abs() < 1e-12); // revenue 10*0.03
        assert_eq!(c.mismatch_cost, 0.0);
        assert!(c.total() < 0.0);
    }

    #[test]
    fn trade_cap_limits_market() {
        let mut p = empty_problem(1, vec![10.0]);
        p.prices.max_trade_per_slot = 4.0;
        let c = evaluate(&p, &Solution::baseline(&p));
        assert_eq!(c.energy_bought, 4.0);
        assert!((c.mismatch_cost - 6.0 * 0.2).abs() < 1e-12);
    }

    #[test]
    fn consumption_soaks_surplus() {
        // Surplus of 2 kWh in slots 0..2; a flexible consumer of exactly
        // 2 kWh/slot placed there wipes the imbalance.
        let offer = consumption(0, 0, 0, 2, 2.0, 2.0);
        let p = SchedulingProblem::new(
            TimeSlot(0),
            vec![-2.0, -2.0, 0.0],
            vec![offer],
            MarketPrices::flat(3, 0.08, 0.0, 1000.0),
            vec![0.2; 3],
        )
        .unwrap();
        let s = Solution::baseline(&p);
        let r = residual_imbalance(&p, &s);
        assert_eq!(r, vec![0.0, 0.0, 0.0]);
        let c = evaluate(&p, &s);
        // only the activation cost remains: 4 kWh * 0.05
        assert!((c.total() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn production_offer_reduces_deficit() {
        let offer = production(0, 0, 1, 5.0);
        let p = SchedulingProblem::new(
            TimeSlot(0),
            vec![5.0],
            vec![offer],
            MarketPrices::flat(1, 10.0, 0.0, 1000.0), // buying prohibitive
            vec![0.2; 1],
        )
        .unwrap();
        let c = evaluate(&p, &Solution::baseline(&p));
        assert_eq!(c.mismatch_cost, 0.0);
    }

    #[test]
    fn shifting_start_moves_load() {
        let offer = consumption(0, 0, 2, 1, 3.0, 3.0);
        let p = SchedulingProblem::new(
            TimeSlot(0),
            vec![0.0, 0.0, -3.0],
            vec![offer],
            MarketPrices::flat(3, 1.0, 0.0, 0.0), // no market
            vec![0.2; 3],
        )
        .unwrap();
        // at earliest start: creates deficit at slot 0, surplus stays at 2
        let bad = Solution::baseline(&p);
        let bad_cost = evaluate(&p, &bad).total();
        // shifted to slot 2: consumption meets surplus exactly
        let good = Solution {
            placements: vec![Placement {
                start: TimeSlot(2),
                fractions: vec![0.0],
            }],
        };
        let good_cost = evaluate(&p, &good).total();
        assert!(good_cost < bad_cost, "good {good_cost} bad {bad_cost}");
        // only the activation cost remains: 3 kWh × 0.05 EUR/kWh
        assert!((good_cost - 0.15).abs() < 1e-12);
    }

    #[test]
    fn slot_cost_matches_evaluate() {
        // slot_cost (greedy's incremental scorer) must agree with the full
        // evaluation for single-slot problems.
        for &r in &[-20.0, -3.0, 0.0, 2.5, 50.0] {
            for &(pen, buy, sell, cap) in &[
                (0.2, 0.08, 0.03, 1000.0),
                (0.2, 0.5, 0.03, 1000.0),
                (0.2, 0.08, 0.03, 4.0),
            ] {
                let mut p = empty_problem(1, vec![r]);
                p.prices = MarketPrices {
                    buy: vec![buy],
                    sell: vec![sell],
                    max_trade_per_slot: cap,
                };
                p.imbalance_penalty = vec![pen];
                let c = evaluate(&p, &Solution::baseline(&p));
                let sc = slot_cost(r, pen, buy, sell, cap);
                assert!(
                    (c.total() - sc).abs() < 1e-9,
                    "r={r} pen={pen} buy={buy}: evaluate {} vs slot_cost {sc}",
                    c.total()
                );
            }
        }
    }

    #[test]
    fn fraction_scales_energy_and_offer_cost() {
        let offer = consumption(0, 0, 0, 1, 0.0, 10.0);
        let p = SchedulingProblem::new(
            TimeSlot(0),
            vec![0.0],
            vec![offer],
            MarketPrices::flat(1, 0.08, 0.03, 1000.0),
            vec![0.2; 1],
        )
        .unwrap();
        let half = Solution {
            placements: vec![Placement {
                start: TimeSlot(0),
                fractions: vec![0.5],
            }],
        };
        let c = evaluate(&p, &half);
        // 5 kWh consumed: deficit 5 bought at 0.08 = 0.4; activation 5*0.05
        assert!((c.offer_cost - 0.25).abs() < 1e-12);
        assert!((c.market_cost - 0.4).abs() < 1e-12);
    }
}
