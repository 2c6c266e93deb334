//! Integration: forecasting feeding scheduling (paper §8, second
//! interplay), including publish-subscribe-triggered rescheduling.

use mirabel::core::exec::Pool;
use mirabel::core::{TimeSlot, SLOTS_PER_DAY};
use mirabel::forecast::{ForecastHub, ForecastModel, HwtModel};
use mirabel::schedule::{
    evaluate, repair_parallel, repair_scope, scenario, Budget, DeltaEvaluator, GreedyScheduler,
    RepairConfig, ScenarioConfig,
};
use mirabel::timeseries::{smape, DemandGenerator};

#[test]
fn forecast_driven_scheduling_beats_no_flexibility() {
    let day = SLOTS_PER_DAY as usize;
    // Train on 3 weeks, forecast the next day.
    let gen = DemandGenerator {
        base: 100.0,
        ..DemandGenerator::default()
    };
    let hist = gen.generate(TimeSlot(0), 21 * day, 1);
    let mut model = HwtModel::daily_weekly();
    model.fit(&hist);
    let forecast = model.forecast(day);
    let truth = gen.generate(TimeSlot((21 * day) as i64), day, 2);
    let err = smape(truth.values(), &forecast);
    assert!(err < 0.1, "forecast quality degraded: {err}");

    // A scheduling problem whose baseline is the *forecast* (recentred);
    // solving it must reduce the cost measured against the *truth*.
    let mut problem = scenario(ScenarioConfig {
        offer_count: 60,
        seed: 4,
        ..ScenarioConfig::default()
    });
    let mean: f64 = forecast.iter().sum::<f64>() / day as f64;
    problem.baseline_imbalance = forecast.iter().map(|v| (v - mean) * 0.3).collect();
    let planned = GreedyScheduler.run(&problem, Budget::evaluations(40_000), 7);

    let mut truth_problem = problem.clone();
    truth_problem.baseline_imbalance = truth.values().iter().map(|v| (v - mean) * 0.3).collect();
    let baseline_cost = evaluate(
        &truth_problem,
        &mirabel::schedule::Solution::baseline(&truth_problem),
    )
    .total();
    let planned_cost = evaluate(&truth_problem, &planned.solution).total();
    assert!(
        planned_cost < baseline_cost,
        "forecast-driven plan {planned_cost} vs do-nothing {baseline_cost}"
    );
}

#[test]
fn pubsub_triggers_rescheduling_only_on_significant_change() {
    let problem = scenario(ScenarioConfig {
        offer_count: 30,
        seed: 9,
        ..ScenarioConfig::default()
    });
    let initial = GreedyScheduler.run(&problem, Budget::evaluations(30_000), 1);

    // The scheduler subscribes with a 5% significance threshold.
    let hub = ForecastHub::new();
    let sub = hub.subscribe(problem.horizon(), 0.05);

    // First forecast publication: always notifies; scheduler plans.
    let f0: Vec<f64> = problem.baseline_imbalance.clone();
    assert_eq!(hub.publish(&f0), vec![sub]);
    hub.poll(sub).unwrap();

    // Tiny forecast wobble (<5%): suppressed, no rescheduling cost paid.
    let f1: Vec<f64> = f0.iter().map(|v| v * 1.01).collect();
    assert!(hub.publish(&f1).is_empty());

    // Significant change: notification arrives, scheduler repairs the
    // previous solution incrementally, as a planning node does: rebase
    // the live evaluator onto the event's changed slots, then run the
    // scoped multi-chain repair on a pool.
    let f2: Vec<f64> = f0.iter().map(|v| v * 1.5 + 1.0).collect();
    assert_eq!(hub.publish(&f2), vec![sub]);
    let notification = hub.poll(sub).unwrap();
    let mut updated = problem.clone();
    updated.baseline_imbalance = notification.forecast.clone();
    let stale_cost = evaluate(&updated, &initial.solution).total();
    let mut live = DeltaEvaluator::new_owned(problem, initial.solution);
    let changed = notification.changed_slots();
    live.rebase(&notification.forecast, &changed);
    let scope = repair_scope(live.problem(), &changed);
    let repair = RepairConfig {
        seed: 2,
        ..RepairConfig::default()
    };
    repair_parallel(&mut live, &scope, repair, &Pool::new(2));
    assert!(evaluate(&updated, live.solution()).total() <= stale_cost);
    assert!(live.solution().is_feasible(&updated));

    let (publishes, notifications) = hub.stats();
    assert_eq!(publishes, 3);
    assert_eq!(notifications, 2); // one suppressed
}
