//! Incremental rescheduling (paper §5/§8 interplay).
//!
//! "Based on forecasts, schedules for RES supply and demand are initially
//! computed and afterwards incrementally maintained if forecast values
//! change over time." When a publish-subscribe forecast notification
//! arrives, the BRP does not re-run the full scheduler; it repairs the
//! previous solution with a budgeted hill climb over single-offer moves.
//!
//! One repair path implements the event-driven replanning pipeline
//! (forecast event → rebase → scoped repair): the caller holds a *live*
//! [`DeltaEvaluator`], calls [`DeltaEvaluator::rebase`] with the slots a
//! typed forecast event reported changed, restricts moves to the offers
//! that can reach those slots ([`repair_scope`]), and runs K independent
//! hill-climb chains ([`repair_parallel`]), keeping the best chain. Work
//! is proportional to the *change*, not the problem.
//!
//! The chains run on a persistent [`mirabel_core::exec::Pool`] instead
//! of scoped threads spawned per call: replanning is the steady-state
//! hot path, and `Pool::run` returns chain results in chain-index order,
//! so the best-of-K tie-break — and therefore the chosen schedule — is
//! identical for any pool width.

use crate::delta::{hill_climb, DeltaEvaluator};
use crate::problem::SchedulingProblem;
use crate::solution::{Budget, Placement, Recorder, Solution};
use mirabel_core::exec::Pool;
use mirabel_core::FlexOffer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The single-offer repair move of every repair chain: shift the
/// start, re-draw one fraction, or jitter all fractions — always
/// clamped back into the offer's constraints.
fn repair_move(g: &mut Placement, offer: &FlexOffer, rng: &mut StdRng) {
    match rng.gen_range(0..3) {
        0 if offer.time_flexibility() > 0 => {
            let span = (offer.time_flexibility() / 3).max(1) as i64;
            g.start = mirabel_core::TimeSlot(g.start.index() + rng.gen_range(-span..=span));
        }
        1 => {
            let k = rng.gen_range(0..g.fractions.len());
            g.fractions[k] = rng.gen_range(0.0..=1.0);
        }
        _ => {
            for f in &mut g.fractions {
                *f += rng.gen_range(-0.15..0.15);
            }
        }
    }
    g.repair(offer);
}

/// The horizon-index range an offer's placement can reach:
/// `[earliest_start, latest_start + duration)` as indices into the
/// problem's horizon. Slots outside this range can never be touched by
/// any move of the offer — the unit both [`repair_scope`] and the node
/// runtimes' offer-delta folding reason in.
pub fn offer_reach(problem: &SchedulingProblem, offer: &FlexOffer) -> std::ops::Range<usize> {
    let lo = problem.slot_index(offer.earliest_start());
    lo..lo + (offer.time_flexibility() + offer.duration()) as usize
}

/// The offers a forecast delta can involve: indices of offers whose
/// *reachable* window ([`offer_reach`]) overlaps at least one changed
/// slot. Moving any other offer cannot touch a changed slot, so a
/// repair after a small forecast update restricts its moves to this
/// scope. `changed_slots` are horizon indices; order and duplicates are
/// irrelevant.
pub fn repair_scope(problem: &SchedulingProblem, changed_slots: &[usize]) -> Vec<usize> {
    let mut changed: Vec<usize> = changed_slots.to_vec();
    changed.sort_unstable();
    changed.dedup();
    problem
        .offers
        .iter()
        .enumerate()
        .filter(|(_, o)| {
            let reach = offer_reach(problem, o);
            let k = changed.partition_point(|&t| t < reach.start);
            changed.get(k).is_some_and(|&t| t < reach.end)
        })
        .map(|(j, _)| j)
        .collect()
}

/// Configuration for [`repair_parallel`].
#[derive(Debug, Clone, Copy)]
pub struct RepairConfig {
    /// Number of independent hill-climb chains (K). Chain `i` is seeded
    /// with `seed + i`, so chain 0 reproduces the single-chain result and
    /// the best-of-K cost is never worse than it.
    pub chains: usize,
    /// Proposed moves per chain. Chains run concurrently, so the
    /// wall-clock budget of the whole repair is one chain's worth.
    pub moves_per_chain: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for RepairConfig {
    fn default() -> RepairConfig {
        RepairConfig {
            chains: 4,
            moves_per_chain: 1_500,
            seed: 0,
        }
    }
}

/// Parallel multi-start repair on a live evaluator: fork K chains, run a
/// scoped first-improvement hill climb in each (different seeds, same
/// starting solution), and adopt the best chain's placements back into
/// `eval` if it improves on the current cost. Returns the final total.
///
/// `scope` lists the offer indices chains may move (usually
/// [`repair_scope`] of the changed slots); an empty scope is a no-op.
/// Each chain owns a [`DeltaEvaluator::fork`] — per-move state is
/// thread-local, so the chains are embarrassingly parallel and the whole
/// repair costs one chain of wall-clock time on idle cores. Chains run
/// on `pool`; chain `i` is a pure function of its index, so the result
/// is identical for any pool width.
pub fn repair_parallel(
    eval: &mut DeltaEvaluator<'_>,
    scope: &[usize],
    cfg: RepairConfig,
    pool: &Pool,
) -> f64 {
    if scope.is_empty() || cfg.chains == 0 || cfg.moves_per_chain == 0 {
        return eval.total();
    }
    let shared = &*eval;
    let chains: Vec<(f64, Solution)> = pool.run(cfg.chains, |i| {
        let mut chain = shared.fork();
        let seed = cfg.seed.wrapping_add(i as u64);
        let total = run_chain(&mut chain, scope, cfg.moves_per_chain, seed);
        (total, chain.into_solution())
    });
    let (best_total, best) = chains
        .into_iter()
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("at least one chain");
    if best_total < eval.total() {
        eval.adopt_scoped(&best, scope);
    }
    eval.total()
}

/// One repair chain: a budgeted scoped hill climb (shared mutation
/// kernel) on a forked evaluator.
fn run_chain(chain: &mut DeltaEvaluator<'_>, scope: &[usize], moves: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut recorder = Recorder::new(Budget::evaluations(moves));
    hill_climb(
        chain,
        &mut recorder,
        &mut rng,
        moves,
        Some(scope),
        repair_move,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::evaluate;
    use crate::greedy::GreedyScheduler;
    use crate::scenario::{scenario, ScenarioConfig};

    #[test]
    fn repair_scope_finds_overlapping_offers() {
        let p = scenario(ScenarioConfig {
            offer_count: 80,
            seed: 11,
            ..ScenarioConfig::default()
        });
        let changed: Vec<usize> = (40..48).collect();
        let scope = repair_scope(&p, &changed);
        assert!(!scope.is_empty(), "some offer should reach slots 40..48");
        assert!(scope.len() < p.offers.len(), "scope must actually restrict");
        for (j, o) in p.offers.iter().enumerate() {
            let lo = p.slot_index(o.earliest_start());
            let hi = lo + (o.time_flexibility() + o.duration()) as usize;
            let overlaps = changed.iter().any(|&t| (lo..hi).contains(&t));
            assert_eq!(scope.contains(&j), overlaps, "offer {j} [{lo},{hi})");
        }
        // No changed slots → empty scope.
        assert!(repair_scope(&p, &[]).is_empty());
    }

    #[test]
    fn parallel_repair_never_worse_than_single_chain() {
        let p = scenario(ScenarioConfig {
            offer_count: 100,
            seed: 13,
            ..ScenarioConfig::default()
        });
        let initial = GreedyScheduler.run(&p, Budget::evaluations(10_000), 5);

        // Forecast delta on ~10% of the horizon.
        let changed: Vec<usize> = (20..30).collect();
        let mut new_baseline = p.baseline_imbalance.clone();
        for &t in &changed {
            new_baseline[t] += 1.5;
        }
        let scope = repair_scope(&p, &changed);
        assert!(!scope.is_empty());

        let single_cfg = RepairConfig {
            chains: 1,
            moves_per_chain: 800,
            seed: 7,
        };
        let multi_cfg = RepairConfig {
            chains: 4,
            ..single_cfg
        };

        let pool = Pool::new(4);
        let mut single = DeltaEvaluator::new_owned(p.clone(), initial.solution.clone());
        single.rebase(&new_baseline, &changed);
        let single_total = repair_parallel(&mut single, &scope, single_cfg, &pool);

        let mut multi = DeltaEvaluator::new_owned(p.clone(), initial.solution.clone());
        multi.rebase(&new_baseline, &changed);
        let rebased_total = multi.total();
        let multi_total = repair_parallel(&mut multi, &scope, multi_cfg, &pool);

        // Chain 0 of the multi-start shares the single chain's seed, so
        // best-of-4 can never lose to the single chain.
        assert!(
            multi_total <= single_total + 1e-9,
            "multi {multi_total} vs single {single_total}"
        );
        assert!(multi_total <= rebased_total, "repair must not worsen cost");

        // The adopted result matches the reference evaluation.
        let reference = evaluate(multi.problem(), multi.solution()).total();
        assert!((multi_total - reference).abs() < 1e-6);
        assert!(multi.solution().is_feasible(multi.problem()));
    }

    #[test]
    fn pool_width_does_not_change_results() {
        // The determinism contract of the shared pool: repair chains
        // produce bit-identical schedules whether they run serially
        // (width 1) or across 2/8 lanes.
        let p = scenario(ScenarioConfig {
            offer_count: 60,
            seed: 23,
            ..ScenarioConfig::default()
        });
        let initial = GreedyScheduler.run(&p, Budget::evaluations(6_000), 3);
        let changed: Vec<usize> = (30..40).collect();
        let mut new_baseline = p.baseline_imbalance.clone();
        for &t in &changed {
            new_baseline[t] -= 1.0;
        }
        let scope = repair_scope(&p, &changed);
        assert!(!scope.is_empty());
        let cfg = RepairConfig {
            chains: 3,
            moves_per_chain: 500,
            seed: 11,
        };

        let repair_with = |width: usize| {
            let pool = Pool::new(width);
            let mut eval = DeltaEvaluator::new_owned(p.clone(), initial.solution.clone());
            eval.rebase(&new_baseline, &changed);
            let total = repair_parallel(&mut eval, &scope, cfg, &pool);
            (total, eval.solution().clone())
        };

        let (ref_total, ref_solution) = repair_with(1);
        for width in [2, 8] {
            let (total, solution) = repair_with(width);
            assert_eq!(total, ref_total, "repair total at width {width}");
            assert_eq!(solution, ref_solution, "repair solution at width {width}");
        }
    }

    #[test]
    fn empty_scope_is_noop() {
        let p = scenario(ScenarioConfig {
            offer_count: 10,
            seed: 3,
            ..ScenarioConfig::default()
        });
        let mut eval = DeltaEvaluator::new(&p, Solution::baseline(&p));
        let before = eval.total();
        let after = repair_parallel(&mut eval, &[], RepairConfig::default(), Pool::global());
        assert_eq!(before, after);
    }
}
