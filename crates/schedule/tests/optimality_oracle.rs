//! The exhaustive enumeration as an optimality oracle for the heuristics.
//!
//! On fixed-energy instances (`energy_flex: 0`) a schedule's cost depends
//! on the start shifts alone, so [`ExhaustiveScheduler`] — which tries
//! every start combination — returns the true optimum (the paper's §6
//! probe, at a size that takes milliseconds, not hours). Every heuristic
//! must then (a) never report a cost below it and (b) land within a
//! stated gap of it at a 5 000-evaluation budget. The gaps are canaries,
//! not invariants: they are two to three times what this test measured when it
//! was written (run with `--nocapture` for the current numbers), so a
//! scheduler that stops converging on instances this small trips them,
//! while a changed RNG stream should not.

use mirabel_schedule::{
    scenario, search_space_size, Budget, EvolutionaryScheduler, ExhaustiveScheduler,
    GreedyScheduler, HybridScheduler, ScenarioConfig, SchedulingProblem,
};

const BUDGET: usize = 5_000;
const SCHEDULER_SEEDS: [u64; 2] = [1, 2];

type Run = fn(&SchedulingProblem, u64) -> f64;

/// Scheduler, worst allowed gap on any instance, allowed mean gap — both
/// relative to `max(|optimum|, 1)`. Measured worst / mean when written
/// (58 instances x 2 seeds): greedy 15.9 % / 0.52 %, EA 6.2 % / 0.31 %,
/// hybrid 1.0 % / 0.05 %.
const HEURISTICS: [(&str, Run, f64, f64); 3] = [
    (
        "greedy",
        |p, s| cost(GreedyScheduler.run(p, Budget::evaluations(BUDGET), s)),
        0.30,
        0.012,
    ),
    (
        "evolutionary",
        |p, s| cost(EvolutionaryScheduler::default().run(p, Budget::evaluations(BUDGET), s)),
        0.15,
        0.008,
    ),
    (
        "hybrid",
        |p, s| cost(HybridScheduler::default().run(p, Budget::evaluations(BUDGET), s)),
        0.03,
        0.002,
    ),
];

fn cost(result: mirabel_schedule::ScheduleResult) -> f64 {
    result.cost.total()
}

/// Fixed-energy instances small enough to enumerate but large enough that
/// a heuristic cannot cover the space by accident, with their optimum.
fn instances() -> Vec<(SchedulingProblem, f64)> {
    let mut found = Vec::new();
    for offer_count in 2..=4 {
        for seed in 0..40 {
            let problem = scenario(ScenarioConfig {
                offer_count,
                seed,
                energy_flex: 0.0,
                ..ScenarioConfig::default()
            });
            if !(500.0..=2e4).contains(&search_space_size(&problem)) {
                continue;
            }
            let optimum = ExhaustiveScheduler::default()
                .run(&problem)
                .expect("space is below the enumeration cap");
            found.push((problem, optimum.cost.total()));
        }
    }
    found
}

#[test]
fn no_heuristic_beats_the_optimum_and_each_lands_near_it() {
    let instances = instances();
    assert!(
        instances.len() >= 20,
        "only {} instances with 500 <= search space <= 2e4",
        instances.len()
    );
    println!(
        "{} instances, {} scheduler seeds, budget {BUDGET}",
        instances.len(),
        SCHEDULER_SEEDS.len()
    );

    for (name, run, worst_allowed, mean_allowed) in HEURISTICS {
        let mut worst: f64 = 0.0;
        let mut sum = 0.0;
        let mut optimal = 0;
        for (problem, optimum) in &instances {
            for seed in SCHEDULER_SEEDS {
                let found = run(problem, seed);
                assert!(
                    found >= optimum - 1e-9,
                    "{name} (seed {seed}) reports {found}, below the enumerated optimum {optimum}"
                );
                let gap = (found - optimum) / optimum.abs().max(1.0);
                worst = worst.max(gap);
                sum += gap;
                optimal += usize::from(gap <= 1e-9);
            }
        }
        let runs = instances.len() * SCHEDULER_SEEDS.len();
        let mean = sum / runs as f64;
        println!(
            "{name:>12}: worst gap {:.2} %, mean gap {:.3} %, optimal in {optimal}/{runs} runs",
            100.0 * worst,
            100.0 * mean
        );
        assert!(
            worst <= worst_allowed,
            "{name}: worst gap {worst} above {worst_allowed}"
        );
        assert!(
            mean <= mean_allowed,
            "{name}: mean gap {mean} above {mean_allowed}"
        );
    }
}
