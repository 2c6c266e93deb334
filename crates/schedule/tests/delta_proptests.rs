//! Property tests for the delta evaluator: after an arbitrary sequence of
//! random single-offer moves (with arbitrary interleaved reverts), the
//! running total must equal the reference `cost::evaluate()` recomputed
//! from scratch, within 1e-6 — and a `rebase()` onto a perturbed
//! baseline must be indistinguishable from a fresh `resync()` against
//! the updated problem.
//!
//! The full-evaluation kernel is pinned the same way: `evaluate_into` on
//! caller-owned, reused buffers must return the `CostBreakdown` of the
//! two-pass reference kept below, equal bit for bit in every field.

use mirabel_schedule::cost::{
    evaluate, evaluate_into, residual_imbalance, slot_table, CostBreakdown,
};
use mirabel_schedule::problem::SchedulingProblem;
use mirabel_schedule::solution::Placement;
use mirabel_schedule::{scenario, DeltaEvaluator, ScenarioConfig, Solution};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `cost::evaluate` as it stood before the fused kernel, kept verbatim as
/// the reference: the residual vector first (through `EnergyRange::lerp`
/// on the run-length-encoded profile), activation cost in a second walk
/// over the offers, then the closed-form market pricing.
fn reference_evaluate(problem: &SchedulingProblem, solution: &Solution) -> CostBreakdown {
    let residual = residual_imbalance(problem, solution);

    let mut offer_cost = 0.0;
    for (placement, offer) in solution.placements.iter().zip(&problem.offers) {
        let energy: f64 = offer
            .profile()
            .slot_ranges()
            .zip(&placement.fractions)
            .map(|(r, &f)| r.lerp(f).kwh())
            .sum();
        offer_cost += energy * offer.unit_price().eur();
    }

    let cap = problem.prices.max_trade_per_slot;
    let mut mismatch_cost = 0.0;
    let mut market_cost = 0.0;
    let mut energy_bought = 0.0;
    let mut energy_sold = 0.0;
    for (i, &r) in residual.iter().enumerate() {
        let pen = problem.imbalance_penalty[i];
        if r > 0.0 {
            let buy_price = problem.prices.buy[i];
            let bought = if buy_price < pen { r.min(cap) } else { 0.0 };
            energy_bought += bought;
            market_cost += bought * buy_price;
            mismatch_cost += (r - bought) * pen;
        } else if r < 0.0 {
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

fn bits(c: &CostBreakdown) -> [u64; 5] {
    [
        c.mismatch_cost.to_bits(),
        c.offer_cost.to_bits(),
        c.market_cost.to_bits(),
        c.energy_bought.to_bits(),
        c.energy_sold.to_bits(),
    ]
}

/// Price `solution` through the kernel on the caller's `residual` buffer
/// and require the reference's breakdown and residual, bit for bit.
fn assert_kernel_matches_reference(
    problem: &SchedulingProblem,
    solution: &Solution,
    residual: &mut Vec<f64>,
) {
    let slots = slot_table(&problem.offers);
    let kernel = evaluate_into(problem, &slots, solution, residual);
    let reference = reference_evaluate(problem, solution);
    assert_eq!(
        bits(&kernel),
        bits(&reference),
        "{kernel:?} vs {reference:?}"
    );
    assert_eq!(bits(&evaluate(problem, solution)), bits(&reference));
    let expected: Vec<u64> = residual_imbalance(problem, solution)
        .iter()
        .map(|r| r.to_bits())
        .collect();
    let left: Vec<u64> = residual.iter().map(|r| r.to_bits()).collect();
    assert_eq!(left, expected, "residual left in the caller's buffer");
}

#[test]
fn kernel_matches_reference_on_an_empty_problem() {
    let problem = scenario(ScenarioConfig {
        offer_count: 0,
        seed: 3,
        ..ScenarioConfig::default()
    });
    assert!(slot_table(&problem.offers).is_empty());
    assert_kernel_matches_reference(&problem, &Solution::baseline(&problem), &mut Vec::new());
}

#[test]
fn kernel_matches_reference_on_a_production_only_instance() {
    let problem = scenario(ScenarioConfig {
        offer_count: 30,
        seed: 9,
        production_fraction: 1.0,
        ..ScenarioConfig::default()
    });
    assert!(problem.offers.iter().all(|o| o.demand_sign() < 0.0));
    let mut rng = StdRng::seed_from_u64(4);
    let mut residual = Vec::new();
    assert_kernel_matches_reference(&problem, &Solution::baseline(&problem), &mut residual);
    for _ in 0..20 {
        let solution = Solution::random(&problem, &mut rng);
        assert_kernel_matches_reference(&problem, &solution, &mut residual);
    }
}

#[test]
fn kernel_ignores_what_the_residual_buffer_held() {
    // One buffer passed from horizon to horizon: left dirty by a longer
    // one, by a shorter one, and pre-filled with garbage.
    let mut rng = StdRng::seed_from_u64(6);
    let mut residual = vec![f64::NAN; 500];
    for (horizon, offer_count) in [(192, 40), (48, 12), (96, 25), (24, 0), (192, 7)] {
        let problem = scenario(ScenarioConfig {
            offer_count,
            horizon,
            seed: horizon as u64,
            ..ScenarioConfig::default()
        });
        let solution = Solution::random(&problem, &mut rng);
        assert_kernel_matches_reference(&problem, &solution, &mut residual);
        assert_eq!(residual.len(), horizon);
    }
}

proptest! {
    #[test]
    fn kernel_breakdown_equals_reference_bit_for_bit(
        scenario_seed in 0u64..500,
        offer_count in 0usize..40,
        production_tenths in 0u32..=10,
        solution_seed in 0u64..500,
        solutions in 1usize..8,
    ) {
        let problem = scenario(ScenarioConfig {
            offer_count,
            seed: scenario_seed,
            production_fraction: f64::from(production_tenths) / 10.0,
            ..ScenarioConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(solution_seed);
        // One buffer across all solutions, as a scheduler run holds it.
        let mut residual = Vec::new();
        for _ in 0..solutions {
            let mut solution = Solution::random(&problem, &mut rng);
            // An unrepaired gene: both sides clamp the fraction.
            if let Some(f) = solution.placements.first_mut().and_then(|p| p.fractions.first_mut()) {
                *f += rng.gen_range(-2.0..2.0);
            }
            assert_kernel_matches_reference(&problem, &solution, &mut residual);
        }
    }

    #[test]
    fn running_total_matches_full_reevaluation(
        scenario_seed in 0u64..500,
        offer_count in 1usize..14,
        move_seed in 0u64..500,
        moves in 1usize..80,
        revert_bits in proptest::collection::vec(any::<bool>(), 80),
    ) {
        let problem = scenario(ScenarioConfig {
            offer_count,
            seed: scenario_seed,
            ..ScenarioConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(move_seed);
        let start = Solution::random(&problem, &mut rng);
        let mut eval = DeltaEvaluator::new(&problem, start);

        for (m, &revert) in revert_bits.iter().enumerate().take(moves) {
            let j = rng.gen_range(0..problem.offers.len());
            let placement = Placement::random(&problem.offers[j], &mut rng);
            eval.apply_move(j, placement);
            if revert {
                eval.revert();
            }
            let reference = evaluate(&problem, eval.solution()).total();
            prop_assert!(
                (eval.total() - reference).abs() < 1e-6,
                "after move {m}: delta total {} vs full {reference}",
                eval.total()
            );
        }
    }

    #[test]
    fn propose_repair_path_matches_full_reevaluation(
        scenario_seed in 0u64..500,
        offer_count in 1usize..10,
        move_seed in 0u64..500,
        moves in 1usize..60,
    ) {
        let problem = scenario(ScenarioConfig {
            offer_count,
            seed: scenario_seed,
            ..ScenarioConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(move_seed);
        let mut eval = DeltaEvaluator::new(&problem, Solution::baseline(&problem));

        for m in 0..moves {
            let j = rng.gen_range(0..problem.offers.len());
            let f_cand = eval.propose(j, |g, offer| {
                if offer.time_flexibility() > 0 && rng.gen_bool(0.5) {
                    let span = (offer.time_flexibility() / 2).max(1) as i64;
                    g.start = mirabel_core::TimeSlot(g.start.index() + rng.gen_range(-span..=span));
                }
                for f in &mut g.fractions {
                    *f += rng.gen_range(-0.4..0.4);
                }
                g.repair(offer);
            });
            let reference = evaluate(&problem, eval.solution()).total();
            prop_assert!(
                (f_cand - reference).abs() < 1e-6,
                "after propose {m}: delta total {f_cand} vs full {reference}"
            );
        }
    }

    /// Rebase correctness: for random slot subsets and random move
    /// sequences, `rebase(changed_slots)` followed by evaluation equals
    /// a fresh `resync()` (i.e. a freshly built evaluator) on the
    /// updated baseline — and subsequent moves stay in sync too.
    #[test]
    fn rebase_equals_fresh_resync_on_updated_baseline(
        scenario_seed in 0u64..500,
        offer_count in 1usize..12,
        move_seed in 0u64..500,
        pre_moves in 0usize..30,
        post_moves in 0usize..30,
        slot_bits in proptest::collection::vec(any::<bool>(), 96),
    ) {
        let problem = scenario(ScenarioConfig {
            offer_count,
            seed: scenario_seed,
            ..ScenarioConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(move_seed);
        let mut eval =
            DeltaEvaluator::new_owned(problem.clone(), Solution::random(&problem, &mut rng));

        // Arbitrary optimization history before the forecast update.
        for _ in 0..pre_moves {
            let j = rng.gen_range(0..problem.offers.len());
            eval.apply_move(j, Placement::random(&problem.offers[j], &mut rng));
        }

        // Random changed-slot subset, random perturbation on each.
        let changed: Vec<usize> = slot_bits
            .iter()
            .take(problem.horizon())
            .enumerate()
            .filter(|(_, &bit)| bit)
            .map(|(i, _)| i)
            .collect();
        let mut new_baseline = problem.baseline_imbalance.clone();
        for &t in &changed {
            new_baseline[t] += rng.gen_range(-3.0..3.0);
        }

        let rebased_total = eval.rebase(&new_baseline, &changed);

        // Reference: a brand-new evaluator (one full resync) over the
        // updated problem and the same solution.
        let mut updated = problem.clone();
        updated.baseline_imbalance = new_baseline;
        let fresh = DeltaEvaluator::new(&updated, eval.solution().clone());
        prop_assert!(
            (rebased_total - fresh.total()).abs() < 1e-6,
            "rebase {rebased_total} vs fresh resync {}",
            fresh.total()
        );

        // Moves after the rebase must track the full evaluation of the
        // updated problem.
        for m in 0..post_moves {
            let j = rng.gen_range(0..updated.offers.len());
            let total = eval.apply_move(j, Placement::random(&updated.offers[j], &mut rng));
            let reference = evaluate(&updated, eval.solution()).total();
            prop_assert!(
                (total - reference).abs() < 1e-6,
                "after post-rebase move {m}: delta {total} vs full {reference}"
            );
        }
    }
}
