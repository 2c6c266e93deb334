//! Exhaustive optimality probe (paper §6).
//!
//! "Only if a few flex-offers need to be scheduled or if there are no
//! flex-offer energy constraints, it is possible to find the true optimum.
//! In a preliminary experiment with 10 flex-offers without energy
//! constraints it took almost three hours to explore all (almost 850
//! million) sensible solutions."
//!
//! [`search_space_size`] reports the start-combination count
//! `Π (tf_j + 1)`; [`ExhaustiveScheduler`] enumerates it when it is small
//! enough, choosing per-slot energies by joint water-filling (exact when
//! offers carry no energy flexibility, as in the paper's probe).

use crate::cost::{evaluate_into, slot_table};
use crate::problem::SchedulingProblem;
use crate::solution::{Budget, Placement, Recorder, ScheduleResult, Solution};
use mirabel_core::OfferKind;

/// Number of start-time combinations, as f64 (overflows u64 quickly).
pub fn search_space_size(problem: &SchedulingProblem) -> f64 {
    problem
        .offers
        .iter()
        .map(|o| o.time_flexibility() as f64 + 1.0)
        .product()
}

/// Exact enumerator for tiny instances.
#[derive(Debug, Clone, Copy)]
pub struct ExhaustiveScheduler {
    /// Refuse to enumerate more than this many combinations.
    pub max_combinations: f64,
}

impl Default for ExhaustiveScheduler {
    fn default() -> ExhaustiveScheduler {
        ExhaustiveScheduler {
            max_combinations: 5e6,
        }
    }
}

impl ExhaustiveScheduler {
    /// Given fixed start shifts, choose per-slot energies by joint
    /// water-filling: per horizon slot, the total adjustable energy is
    /// moved toward zero residual and distributed over the covering
    /// offers proportionally to their range widths. Exact when no offer
    /// has energy flexibility.
    fn fill_energies(problem: &SchedulingProblem, shifts: &[u32]) -> Solution {
        let h = problem.horizon();
        // Residual with every offer at minimum energy.
        let mut residual = problem.baseline_imbalance.clone();
        for (j, offer) in problem.offers.iter().enumerate() {
            let sign = offer.demand_sign();
            let base = problem.slot_index(offer.earliest_start() + shifts[j]);
            for (k, r) in offer.profile().slot_ranges().enumerate() {
                residual[base + k] += sign * r.min().kwh();
            }
        }
        // Adjustable width per slot, split by kind.
        let mut cons_width = vec![0.0f64; h];
        let mut prod_width = vec![0.0f64; h];
        for (j, offer) in problem.offers.iter().enumerate() {
            let base = problem.slot_index(offer.earliest_start() + shifts[j]);
            for (k, r) in offer.profile().slot_ranges().enumerate() {
                let w = (r.max() - r.min()).kwh();
                match offer.kind() {
                    OfferKind::Consumption => cons_width[base + k] += w,
                    OfferKind::Production => prod_width[base + k] += w,
                }
            }
        }
        // Per-slot need: positive -> consume more, negative -> produce more.
        let need: Vec<f64> = residual
            .iter()
            .enumerate()
            .map(|(t, &r)| (-r).clamp(-prod_width[t], cons_width[t]))
            .collect();

        let placements = problem
            .offers
            .iter()
            .enumerate()
            .map(|(j, offer)| {
                let base = problem.slot_index(offer.earliest_start() + shifts[j]);
                let fractions = offer
                    .profile()
                    .slot_ranges()
                    .enumerate()
                    .map(|(k, r)| {
                        let t = base + k;
                        let w = (r.max() - r.min()).kwh();
                        if w <= 0.0 {
                            return 0.0;
                        }
                        match offer.kind() {
                            OfferKind::Consumption if need[t] > 0.0 => {
                                (need[t] / cons_width[t]).clamp(0.0, 1.0)
                            }
                            OfferKind::Production if need[t] < 0.0 => {
                                (-need[t] / prod_width[t]).clamp(0.0, 1.0)
                            }
                            _ => 0.0,
                        }
                    })
                    .collect();
                Placement {
                    start: offer.earliest_start() + shifts[j],
                    fractions,
                }
            })
            .collect();
        Solution { placements }
    }

    /// Enumerate every start combination. Returns `None` when the space
    /// exceeds [`ExhaustiveScheduler::max_combinations`].
    pub fn run(&self, problem: &SchedulingProblem) -> Option<ScheduleResult> {
        let size = search_space_size(problem);
        if size > self.max_combinations {
            return None;
        }
        let mut recorder = Recorder::new(Budget::evaluations(usize::MAX));
        let n = problem.offers.len();
        let mut shifts = vec![0u32; n];
        let mut best: Option<(Solution, f64)> = None;
        let slots = slot_table(&problem.offers);
        let mut residual = Vec::new();
        loop {
            let candidate = Self::fill_energies(problem, &shifts);
            let cost = evaluate_into(problem, &slots, &candidate, &mut residual).total();
            recorder.record(cost);
            if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                best = Some((candidate, cost));
            }
            // odometer increment
            let mut i = 0;
            loop {
                if i == n {
                    let (solution, _) = best.expect("non-empty enumeration");
                    let cost = evaluate_into(problem, &slots, &solution, &mut residual);
                    return Some(recorder.finish(solution, cost));
                }
                if shifts[i] < problem.offers[i].time_flexibility() {
                    shifts[i] += 1;
                    break;
                }
                shifts[i] = 0;
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::GreedyScheduler;
    use crate::problem::MarketPrices;
    use mirabel_core::{EnergyRange, FlexOffer, Profile, TimeSlot};

    fn fixed_offer(id: u64, start: i64, tf: u32, dur: u32, kwh: f64) -> FlexOffer {
        FlexOffer::builder(id, 1)
            .earliest_start(TimeSlot(start))
            .time_flexibility(tf)
            .profile(Profile::uniform(dur, EnergyRange::fixed(kwh)))
            .build()
            .unwrap()
    }

    fn tiny_problem() -> SchedulingProblem {
        let mut imbalance = vec![0.0; 16];
        imbalance[3] = -2.0;
        imbalance[4] = -2.0;
        imbalance[10] = -1.0;
        SchedulingProblem::new(
            TimeSlot(0),
            imbalance,
            vec![
                fixed_offer(0, 0, 10, 2, 2.0),
                fixed_offer(1, 0, 12, 1, 1.0),
                fixed_offer(2, 0, 8, 1, 0.5),
            ],
            MarketPrices::flat(16, 1.0, 0.0, 0.0),
            vec![0.2; 16],
        )
        .unwrap()
    }

    #[test]
    fn space_size_is_product() {
        let p = tiny_problem();
        assert_eq!(search_space_size(&p), 11.0 * 13.0 * 9.0);
    }

    #[test]
    fn refuses_oversized_spaces() {
        let p = tiny_problem();
        let s = ExhaustiveScheduler {
            max_combinations: 10.0,
        };
        assert!(s.run(&p).is_none());
    }

    #[test]
    fn finds_true_optimum_on_fixed_energy_instance() {
        let p = tiny_problem();
        let exact = ExhaustiveScheduler::default().run(&p).unwrap();
        // The two big offers fit the surplus exactly: optimum places the
        // 2-kWh consumer at slots 3-4 and the 1-kWh at slot 10.
        assert_eq!(exact.solution.placements[0].start, TimeSlot(3));
        assert_eq!(exact.solution.placements[1].start, TimeSlot(10));
        assert!(exact.solution.is_feasible(&p));
        assert_eq!(exact.evaluations, 11 * 13 * 9);
    }

    #[test]
    fn heuristics_bounded_below_by_optimum() {
        let p = tiny_problem();
        let exact = ExhaustiveScheduler::default().run(&p).unwrap();
        let greedy = GreedyScheduler.run(&p, Budget::evaluations(10_000), 1);
        assert!(greedy.cost.total() >= exact.cost.total() - 1e-9);
        // On this easy instance greedy should actually reach the optimum.
        assert!((greedy.cost.total() - exact.cost.total()).abs() < 1e-6);
    }

    #[test]
    fn water_filling_exact_without_energy_flexibility() {
        // With degenerate ranges, fill_energies leaves all fractions 0.
        let p = tiny_problem();
        let s = ExhaustiveScheduler::fill_energies(&p, &[0, 0, 0]);
        for pl in &s.placements {
            assert!(pl.fractions.iter().all(|&f| f == 0.0));
        }
    }

    #[test]
    fn paper_scale_space_reported_not_enumerated() {
        // Ten offers with ~7.7 slots of average flexibility ≈ 8.5e8
        // combinations — the paper's three-hour probe. We only verify the
        // count and that the enumerator declines it.
        let offers: Vec<FlexOffer> = (0..10).map(|i| fixed_offer(i, 0, 7, 1, 1.0)).collect();
        let p = SchedulingProblem::new(
            TimeSlot(0),
            vec![0.0; 16],
            offers,
            MarketPrices::flat(16, 1.0, 0.0, 0.0),
            vec![0.2; 16],
        )
        .unwrap();
        let size = search_space_size(&p);
        assert_eq!(size, 8f64.powi(10)); // (tf+1)^10 ≈ 1.07e9
        assert!(ExhaustiveScheduler::default().run(&p).is_none());
    }
}
