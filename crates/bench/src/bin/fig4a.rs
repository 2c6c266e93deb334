//! Figure 4(a): estimator error development over time.
//!
//! "We compared the error development of three important global search
//! algorithms … using the Holt-Winters Triple Seasonal Exponential
//! Smoothing (HWT) … on the publicly available UK energy demand dataset."
//! The UK data set is replaced by the synthetic UK-style demand generator
//! (`mirabel_timeseries::generator::DemandGenerator`).
//!
//! ```sh
//! cargo run --release -p mirabel-bench --bin fig4a
//! ```

use mirabel_bench::{quick_mode, resample_trajectory};
use mirabel_core::{TimeSlot, SLOTS_PER_DAY};
use mirabel_forecast::{
    Budget, Estimator, ForecastModel, HwtModel, Objective, RandomRestartNelderMead, RandomSearch,
    SimulatedAnnealing,
};
use mirabel_timeseries::DemandGenerator;
use std::time::Duration;

fn main() {
    let seconds = if quick_mode() { 3.0 } else { 20.0 };
    let train_days = 21;
    let series =
        DemandGenerator::default().generate(TimeSlot(0), train_days * SLOTS_PER_DAY as usize, 2010);
    let warmup = 14 * SLOTS_PER_DAY as usize;

    let template = HwtModel::daily_weekly();
    let bounds = template.param_bounds();
    let objective = Objective::new(bounds, move |p: &[f64]| {
        let mut m = template.clone();
        m.set_params(p);
        m.evaluate(&series, warmup)
    });

    let estimators: Vec<(&str, Box<dyn Estimator>)> = vec![
        (
            "Random Restart Nelder Mead",
            Box::new(RandomRestartNelderMead::default()),
        ),
        (
            "Simulated Annealing",
            Box::new(SimulatedAnnealing::default()),
        ),
        ("Random Search", Box::new(RandomSearch)),
    ];

    println!(
        "# Figure 4(a) — accuracy (SMAPE) vs estimation time, HWT on synthetic UK-style demand"
    );
    println!("budget: {seconds:.0} s per estimator\n");

    let grid: Vec<f64> = (1..=20).map(|i| seconds * i as f64 / 20.0).collect();
    let mut table: Vec<(String, Vec<f64>, f64, usize)> = Vec::new();
    for (name, est) in estimators {
        let result = est.estimate(
            &objective,
            Budget::time(Duration::from_secs_f64(seconds)),
            7,
        );
        let points: Vec<(f64, f64)> = result
            .trajectory
            .iter()
            .map(|p| (p.elapsed.as_secs_f64(), p.best_error))
            .collect();
        table.push((
            name.to_string(),
            resample_trajectory(&points, &grid),
            result.best_error,
            result.evaluations,
        ));
    }

    print!("| {:>7} |", "time s");
    for (name, _, _, _) in &table {
        print!(" {name:>28} |");
    }
    println!();
    print!("|--------:|");
    for _ in &table {
        print!("-----------------------------:|");
    }
    println!();
    for (i, t) in grid.iter().enumerate() {
        print!("| {t:>7.1} |");
        for (_, series, _, _) in &table {
            if series[i].is_nan() {
                print!(" {:>28} |", "-");
            } else {
                print!(" {:>28.6} |", series[i]);
            }
        }
        println!();
    }

    println!("\n## Final results");
    for (name, _, best, evals) in &table {
        println!("{name:<28} best SMAPE {best:.6}  ({evals} objective evaluations)");
    }
    let best = table
        .iter()
        .min_by(|a, b| a.2.total_cmp(&b.2))
        .expect("non-empty");
    println!(
        "\nwinner: {} (paper: Random Restart Nelder Mead has a slight advantage; all converge to similar accuracy)",
        best.0
    );
}
