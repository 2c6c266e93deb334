//! The evolutionary algorithm (paper §6, \[3\]).
//!
//! "We also developed an evolutionary algorithm that starts with a
//! population of randomly created solutions and uses evolutionary
//! principles of selection, crossover and mutation to find progressively
//! better solutions."
//!
//! Representation: one gene per flex-offer, a gene being the offer's
//! [`Placement`] (start shift + per-slot energy fractions). Uniform
//! per-gene crossover and repair-after-mutation keep every individual
//! feasible by construction.
//!
//! The EA is *memetic*: after each generation the best individual is
//! refined by a short burst of single-gene hill-climb moves scored
//! through the [`DeltaEvaluator`] — the local-mutation path costs
//! O(offer duration) per move instead of a full re-evaluation, so the
//! refinement is nearly free relative to the crossover evaluations.
//!
//! ## Who owns which buffer across a generation
//!
//! A generation allocates nothing once the first one has run; every
//! buffer below lives as long as [`EvolutionaryScheduler::run_seeded`]:
//!
//! * `population` and `next` — the two generations. Elites and children
//!   are written into `next`, then the two `Vec`s are swapped; neither is
//!   ever dropped.
//! * `spare` — the individuals of the generation that was just replaced.
//!   An elite or a child starts as a spare overwritten by
//!   [`Solution::clone_from`] (and a crossover gene by
//!   [`Placement::clone_from`]), which reuse the spare's `Vec`s. Only
//!   the first generation finds `spare` empty and allocates.
//! * the slot table and the residual buffer — the
//!   [`cost::evaluate_into`](crate::cost::evaluate_into) kernel's inputs,
//!   built once from `problem.offers` and shared by every child. The
//!   kernel is the reference semantics of the cost model and
//!   [`evaluate`] is a wrapper that allocates both per call, so a child's
//!   cost is bit-identical either way (debug builds assert it).
//! * one [`DeltaEvaluator`] for the memetic step. Each generation swaps
//!   the best individual in, resyncs the cached cost state to it, climbs,
//!   and swaps the refined individual back out; between generations the
//!   evaluator holds a placeholder solution and is not read.
//!
//! None of this changes what is computed: the RNG draw sequence and the
//! order of every floating-point operation are those of the plain
//! clone-per-child formulation, so plans are identical to it bit for bit.

use crate::cost::{evaluate, evaluate_into, slot_table};
use crate::delta::{hill_climb, DeltaEvaluator};
use crate::problem::SchedulingProblem;
use crate::solution::{Budget, Placement, Recorder, ScheduleResult, Solution};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Evolutionary algorithm configuration.
#[derive(Debug, Clone, Copy)]
pub struct EaConfig {
    /// Population size.
    pub population: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Probability of taking a gene from the second parent.
    pub crossover_rate: f64,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// Individuals copied unchanged into the next generation.
    pub elitism: usize,
    /// Delta-scored hill-climb moves applied to the generation's best
    /// individual (memetic refinement); `0` disables the local search.
    pub local_search_moves: usize,
}

impl Default for EaConfig {
    fn default() -> EaConfig {
        EaConfig {
            population: 32,
            tournament: 3,
            crossover_rate: 0.5,
            mutation_rate: 0.15,
            elitism: 2,
            local_search_moves: 16,
        }
    }
}

/// The evolutionary scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvolutionaryScheduler {
    /// EA parameters.
    pub config: EaConfig,
}

impl EvolutionaryScheduler {
    /// Mutate one gene: shift the start and/or jitter energy fractions.
    fn mutate_gene(placement: &mut Placement, offer: &mirabel_core::FlexOffer, rng: &mut StdRng) {
        let tf = offer.time_flexibility();
        if tf > 0 && rng.gen_bool(0.7) {
            let span = (tf / 4).max(1) as i64;
            let delta = rng.gen_range(-span..=span);
            let shifted = placement.start.index() + delta;
            placement.start = mirabel_core::TimeSlot(shifted);
        }
        if rng.gen_bool(0.7) {
            for f in &mut placement.fractions {
                if rng.gen_bool(0.4) {
                    *f += rng.gen_range(-0.25..0.25);
                }
            }
        }
        placement.repair(offer);
    }

    /// `source` copied into a recycled individual: a buffer-reusing
    /// `clone_from` onto one of last generation's `spare` solutions, so
    /// only the first generation allocates.
    fn recycled(spare: &mut Vec<Solution>, source: &Solution) -> Solution {
        let mut s = spare.pop().unwrap_or(Solution {
            placements: Vec::new(),
        });
        s.clone_from(source);
        s
    }

    /// Run the EA until the budget is exhausted; the population is seeded
    /// with random individuals plus extras passed in `seeds` (used by the
    /// hybrid scheduler).
    pub fn run_seeded(
        &self,
        problem: &SchedulingProblem,
        budget: Budget,
        seed: u64,
        seeds: Vec<Solution>,
    ) -> ScheduleResult {
        let cfg = self.config;
        assert!(cfg.population >= 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut recorder = Recorder::new(budget);

        // Per-run evaluation state: every individual is priced through
        // the cost kernel on this one slot table and residual buffer.
        let slots = slot_table(&problem.offers);
        let mut residual = Vec::new();
        let mut price = |s: &Solution| {
            let c = evaluate_into(problem, &slots, s, &mut residual).total();
            debug_assert_eq!(
                c.to_bits(),
                evaluate(problem, s).total().to_bits(),
                "kernel on reused buffers diverged from evaluate()"
            );
            c
        };

        let mut population: Vec<(Solution, f64)> = Vec::with_capacity(cfg.population);
        for s in seeds.into_iter().take(cfg.population) {
            let c = price(&s);
            recorder.record(c);
            population.push((s, c));
        }
        while population.len() < cfg.population {
            let s = Solution::random(problem, &mut rng);
            let c = price(&s);
            recorder.record(c);
            population.push((s, c));
        }

        // Generation-to-generation buffers (see the module docs): the
        // generation being built, the dead individuals it is built from,
        // and the memetic step's evaluator.
        let mut next: Vec<(Solution, f64)> = Vec::with_capacity(cfg.population);
        let mut spare: Vec<Solution> = Vec::with_capacity(cfg.population);
        let mut refiner = DeltaEvaluator::new(problem, Solution::baseline(problem));

        let tournament = |rng: &mut StdRng, pop: &[(Solution, f64)]| -> usize {
            let mut best = rng.gen_range(0..pop.len());
            for _ in 1..cfg.tournament {
                let c = rng.gen_range(0..pop.len());
                if pop[c].1 < pop[best].1 {
                    best = c;
                }
            }
            best
        };

        while !recorder.exhausted() {
            population.sort_by(|a, b| a.1.total_cmp(&b.1));
            for (elite, c) in population.iter().take(cfg.elitism) {
                next.push((Self::recycled(&mut spare, elite), *c));
            }

            while next.len() < cfg.population && !recorder.exhausted() {
                let a = tournament(&mut rng, &population);
                let b = tournament(&mut rng, &population);
                let (pa, pb) = (&population[a].0, &population[b].0);
                // uniform per-gene crossover
                let mut child = Self::recycled(&mut spare, pa);
                for (g, gene_b) in child.placements.iter_mut().zip(&pb.placements) {
                    if rng.gen_bool(cfg.crossover_rate) {
                        g.clone_from(gene_b);
                    }
                }
                // mutation + repair
                for (g, offer) in child.placements.iter_mut().zip(&problem.offers) {
                    if rng.gen_bool(cfg.mutation_rate) {
                        Self::mutate_gene(g, offer, &mut rng);
                    }
                }
                let c = price(&child);
                recorder.record(c);
                next.push((child, c));
            }
            std::mem::swap(&mut population, &mut next);
            spare.extend(next.drain(..).map(|(s, _)| s));

            // Memetic refinement: first-improvement hill climb on the
            // generation's best individual, scored via the delta
            // evaluator (O(offer duration) per move).
            if cfg.local_search_moves > 0 && !problem.offers.is_empty() && !recorder.exhausted() {
                let best_idx = population
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
                    .map(|(i, _)| i)
                    .expect("population is non-empty");
                // The refined individual goes last and the former last
                // takes its place: tournaments index this order.
                let last = population.len() - 1;
                population.swap(best_idx, last);
                let (sol, cost) = &mut population[last];
                refiner.swap_solution(sol);
                refiner.resync();
                // Re-arming the evaluator is one full-cost evaluation's
                // worth of work; charge it to the budget like any other.
                recorder.tick();
                *cost = hill_climb(
                    &mut refiner,
                    &mut recorder,
                    &mut rng,
                    cfg.local_search_moves,
                    None,
                    Self::mutate_gene,
                );
                refiner.swap_solution(sol);
            }
        }

        population.sort_by(|a, b| a.1.total_cmp(&b.1));
        let best = population.swap_remove(0).0;
        let cost = evaluate_into(problem, &slots, &best, &mut residual);
        recorder.finish(best, cost)
    }

    /// Run the EA from a fully random population (the paper's setup).
    pub fn run(&self, problem: &SchedulingProblem, budget: Budget, seed: u64) -> ScheduleResult {
        self.run_seeded(problem, budget, seed, Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{scenario, ScenarioConfig};

    fn small() -> SchedulingProblem {
        scenario(ScenarioConfig {
            offer_count: 10,
            seed: 4,
            ..ScenarioConfig::default()
        })
    }

    #[test]
    fn improves_over_random_baseline() {
        let p = small();
        let mut rng = StdRng::seed_from_u64(0);
        let random_cost = evaluate(&p, &Solution::random(&p, &mut rng)).total();
        let r = EvolutionaryScheduler::default().run(&p, Budget::evaluations(3_000), 1);
        assert!(
            r.cost.total() < random_cost,
            "EA {} vs random {}",
            r.cost.total(),
            random_cost
        );
        assert!(r.solution.is_feasible(&p));
    }

    #[test]
    fn trajectory_monotone() {
        let p = small();
        let r = EvolutionaryScheduler::default().run(&p, Budget::evaluations(2_000), 3);
        assert!(!r.trajectory.is_empty());
        for w in r.trajectory.windows(2) {
            assert!(w[1].best_cost <= w[0].best_cost);
            assert!(w[1].evaluations >= w[0].evaluations);
        }
        assert!(r.evaluations <= 2_100);
    }

    #[test]
    fn longer_budget_no_worse() {
        let p = small();
        let short = EvolutionaryScheduler::default().run(&p, Budget::evaluations(500), 5);
        let long = EvolutionaryScheduler::default().run(&p, Budget::evaluations(5_000), 5);
        assert!(long.cost.total() <= short.cost.total() + 1e-9);
    }

    #[test]
    fn deterministic_per_seed() {
        let p = small();
        let a = EvolutionaryScheduler::default().run(&p, Budget::evaluations(1_000), 8);
        let b = EvolutionaryScheduler::default().run(&p, Budget::evaluations(1_000), 8);
        assert_eq!(a.cost.total(), b.cost.total());
    }

    #[test]
    fn seeded_population_starts_from_seeds() {
        let p = small();
        // Seed with the baseline solution: the EA must never be worse.
        let baseline = Solution::baseline(&p);
        let baseline_cost = evaluate(&p, &baseline).total();
        let r = EvolutionaryScheduler::default().run_seeded(
            &p,
            Budget::evaluations(300),
            2,
            vec![baseline],
        );
        assert!(r.cost.total() <= baseline_cost + 1e-9);
    }

    #[test]
    fn zero_offers_instance() {
        let p = scenario(ScenarioConfig {
            offer_count: 0,
            seed: 1,
            ..ScenarioConfig::default()
        });
        let r = EvolutionaryScheduler::default().run(&p, Budget::evaluations(100), 1);
        assert!(r.solution.placements.is_empty());
        assert!(r.cost.total().is_finite());
    }
}
