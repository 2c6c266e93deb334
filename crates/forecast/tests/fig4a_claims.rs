//! Figure 4(a)'s claim, asserted on the `fig4a` binary's setup (HWT
//! `daily_weekly` on 21 days of synthetic UK-style demand, 14 warm-up
//! days, estimator seed 7), with evaluation budgets in place of the
//! binary's wall-clock ones so the run is deterministic: every estimator's
//! error falls as its budget grows, and "all converge to similar
//! accuracy".

use mirabel_core::{TimeSlot, SLOTS_PER_DAY};
use mirabel_forecast::{
    Budget, Estimator, ForecastModel, HwtModel, Objective, RandomRestartNelderMead, RandomSearch,
    SimulatedAnnealing,
};
use mirabel_timeseries::DemandGenerator;

const BUDGETS: [usize; 4] = [10, 50, 200, 800];

#[test]
fn every_estimator_improves_with_budget_and_all_converge() {
    let series =
        DemandGenerator::default().generate(TimeSlot(0), 21 * SLOTS_PER_DAY as usize, 2010);
    let warmup = 14 * SLOTS_PER_DAY as usize;
    let template = HwtModel::daily_weekly();
    let objective = Objective::new(template.param_bounds(), move |p: &[f64]| {
        let mut m = template.clone();
        m.set_params(p);
        m.evaluate(&series, warmup)
    });
    let estimators: [(&str, Box<dyn Estimator>); 3] = [
        (
            "random-restart Nelder-Mead",
            Box::new(RandomRestartNelderMead::default()),
        ),
        (
            "simulated annealing",
            Box::new(SimulatedAnnealing::default()),
        ),
        ("random search", Box::new(RandomSearch)),
    ];

    let mut finals = Vec::new();
    for (name, estimator) in &estimators {
        let errors: Vec<f64> = BUDGETS
            .iter()
            .map(|&n| {
                estimator
                    .estimate(&objective, Budget::evaluations(n), 7)
                    .best_error
            })
            .collect();
        for (pair, budgets) in errors.windows(2).zip(BUDGETS.windows(2)) {
            assert!(
                pair[1] <= pair[0],
                "{name}: SMAPE rose from {} at {} evaluations to {} at {}",
                pair[0],
                budgets[0],
                pair[1],
                budgets[1]
            );
        }
        assert!(
            errors[3] < errors[0],
            "{name}: no gain from 10 to 800 evaluations ({errors:?})"
        );
        finals.push((name, errors[3]));
    }

    let best = finals.iter().map(|&(_, e)| e).fold(f64::INFINITY, f64::min);
    for (name, error) in finals {
        assert!(
            error <= best * 1.05,
            "{name} ends at SMAPE {error}, more than 5 % above the best {best}"
        );
    }
}
