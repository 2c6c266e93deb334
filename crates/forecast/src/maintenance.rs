//! Model update and maintenance (paper §5).
//!
//! "A continuous stream of new measurements require a continuous
//! maintenance of forecast models. … Due to changing time series
//! characteristics, the accuracy of the forecast models might be reduced
//! over time, which poses the necessity of adapting the model parameters.
//! To evaluate the need for a model adaptation, we offer different model
//! evaluation strategies (e.g., time- or threshold-based)."
//!
//! [`ModelMaintainer`] wraps any [`ForecastModel`]: every observation is a
//! cheap incremental [`ForecastModel::update`]; a configurable
//! [`EvaluationStrategy`] decides when the expensive parameter
//! re-estimation runs; an optional [`crate::context::ContextRepository`]
//! supplies warm starts (context-aware adaptation).

use crate::context::{describe, ContextRepository};
use crate::estimator::{Budget, Estimator, NelderMead, Objective, RandomRestartNelderMead};
use crate::model::ForecastModel;
use mirabel_timeseries::{smape, Calendar, TimeSeries};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// When to trigger the expensive parameter re-estimation.
#[derive(Debug, Clone, Copy)]
pub enum EvaluationStrategy {
    /// Re-estimate every `every_updates` observations.
    TimeBased {
        /// Observations between re-estimations.
        every_updates: usize,
    },
    /// Re-estimate when the rolling one-step SMAPE over the last `window`
    /// observations exceeds `smape_threshold`.
    ThresholdBased {
        /// SMAPE level that triggers adaptation.
        smape_threshold: f64,
        /// Rolling window length.
        window: usize,
    },
    /// Never re-estimate (update-only baseline for the ablation bench).
    Never,
}

/// What happened when an observation was consumed.
#[derive(Debug, Clone, PartialEq)]
pub enum MaintenanceAction {
    /// Cheap incremental update only.
    Updated,
    /// Parameters were re-estimated.
    Reestimated {
        /// Rolling error before adaptation.
        old_error: f64,
        /// In-sample error of the re-estimated parameters.
        new_error: f64,
        /// Whether the warm start came from the context repository.
        warm_started: bool,
    },
}

/// Continuously-maintained forecast model.
pub struct ModelMaintainer<M: ForecastModel + Clone> {
    model: M,
    strategy: EvaluationStrategy,
    history: TimeSeries,
    max_history: usize,
    recent: VecDeque<(f64, f64)>,
    recent_cap: usize,
    updates_since_estimation: usize,
    estimation_budget: Budget,
    repository: Option<Arc<Mutex<ContextRepository>>>,
    calendar: Calendar,
    seed: u64,
    reestimations: usize,
}

impl<M: ForecastModel + Clone> ModelMaintainer<M> {
    /// Wrap a fitted model. `history` is the series the model was fitted
    /// on (kept, bounded by `max_history`, as re-estimation training data).
    pub fn new(model: M, history: TimeSeries, strategy: EvaluationStrategy) -> Self {
        ModelMaintainer {
            model,
            strategy,
            history,
            max_history: 16_384,
            recent: VecDeque::new(),
            recent_cap: 512,
            updates_since_estimation: 0,
            estimation_budget: Budget::evaluations(400),
            repository: None,
            calendar: Calendar::new(),
            seed: 1,
            reestimations: 0,
        }
    }

    /// Attach a context repository for warm-started re-estimation.
    pub fn with_repository(mut self, repo: Arc<Mutex<ContextRepository>>) -> Self {
        self.repository = Some(repo);
        self
    }

    /// Set the calendar used for context descriptors.
    pub fn with_calendar(mut self, calendar: Calendar) -> Self {
        self.calendar = calendar;
        self
    }

    /// Override the per-re-estimation budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.estimation_budget = budget;
        self
    }

    /// Access the wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Number of re-estimations performed so far.
    pub fn reestimation_count(&self) -> usize {
        self.reestimations
    }

    /// Rolling one-step SMAPE over the whole retained window.
    pub fn rolling_error(&self) -> f64 {
        self.rolling_error_over(self.recent.len())
    }

    /// Rolling one-step SMAPE over the last `n` observations only — the
    /// quantity the threshold strategy monitors (a long buffer would
    /// dilute fresh drift).
    pub fn rolling_error_over(&self, n: usize) -> f64 {
        if self.recent.is_empty() || n == 0 {
            return 0.0;
        }
        let skip = self.recent.len().saturating_sub(n);
        let (actual, pred): (Vec<f64>, Vec<f64>) = self.recent.iter().skip(skip).copied().unzip();
        smape(&actual, &pred)
    }

    /// Forecast through the wrapped model.
    pub fn forecast(&self, horizon: usize) -> Vec<f64> {
        self.model.forecast(horizon)
    }

    fn should_reestimate(&self) -> bool {
        match self.strategy {
            EvaluationStrategy::TimeBased { every_updates } => {
                self.updates_since_estimation >= every_updates
            }
            EvaluationStrategy::ThresholdBased {
                smape_threshold,
                window,
            } => self.recent.len() >= window && self.rolling_error_over(window) > smape_threshold,
            EvaluationStrategy::Never => false,
        }
    }

    /// Consume one new measurement.
    pub fn observe(&mut self, y: f64) -> MaintenanceAction {
        let pred = self.model.forecast(1).first().copied().unwrap_or(0.0);
        self.recent.push_back((y, pred));
        while self.recent.len() > self.recent_cap {
            self.recent.pop_front();
        }
        self.model.update(y);
        self.history.push(y);
        if self.history.len() > self.max_history {
            self.history = self.history.tail(self.max_history);
        }
        self.updates_since_estimation += 1;

        if !self.should_reestimate() {
            return MaintenanceAction::Updated;
        }
        let old_error = match self.strategy {
            EvaluationStrategy::ThresholdBased { window, .. } => self.rolling_error_over(window),
            _ => self.rolling_error(),
        };
        let (new_error, warm_started) = self.reestimate();
        self.updates_since_estimation = 0;
        self.recent.clear();
        self.reestimations += 1;
        MaintenanceAction::Reestimated {
            old_error,
            new_error,
            warm_started,
        }
    }

    /// Re-estimate parameters on the retained history; returns the new
    /// in-sample error and whether the context repository supplied the
    /// starting point.
    fn reestimate(&mut self) -> (f64, bool) {
        let bounds = self.model.param_bounds();
        let warmup = (self.history.len() / 2).max(1);
        if bounds.is_empty() {
            // Closed-form model (no tunable parameters): re-fit is the
            // re-estimation.
            self.model.fit(&self.history);
            let mut probe = self.model.clone();
            let err = probe.evaluate(&self.history, warmup);
            return (err, false);
        }

        let base = self.model.clone();
        let history = self.history.clone();
        let objective = Objective::new(bounds, move |p: &[f64]| {
            let mut m = base.clone();
            m.set_params(p);
            m.evaluate(&history, warmup)
        });

        let descriptor = describe(&self.history, &self.calendar);
        let warm = self
            .repository
            .as_ref()
            .and_then(|r| r.lock().nearest(&descriptor).map(|c| c.params.clone()));

        let result = match &warm {
            Some(start) => {
                // Context-aware adaptation: a single simplex descent from
                // the remembered parameters ("achieves a higher forecast
                // accuracy in less time, especially for complex models").
                NelderMead::default().estimate_from(&objective, self.estimation_budget, start)
            }
            None => RandomRestartNelderMead::default().estimate(
                &objective,
                self.estimation_budget,
                self.seed,
            ),
        };
        self.seed = self.seed.wrapping_add(1);

        self.model.set_params(&result.best_params);
        self.model.fit(&self.history);
        if let Some(repo) = &self.repository {
            repo.lock()
                .store(descriptor, result.best_params.clone(), result.best_error);
        }
        (result.best_error, warm.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hwt::HwtModel;
    use mirabel_core::{TimeSlot, SLOTS_PER_DAY};
    use mirabel_timeseries::DemandGenerator;

    fn fitted_maintainer(strategy: EvaluationStrategy) -> (ModelMaintainer<HwtModel>, TimeSeries) {
        let s = DemandGenerator::default().generate(TimeSlot(0), 14 * 96, 2);
        let mut m = HwtModel::daily_weekly();
        m.fit(&s);
        let future =
            DemandGenerator::default().generate(TimeSlot(14 * 96), 7 * SLOTS_PER_DAY as usize, 3);
        (
            ModelMaintainer::new(m, s, strategy).with_budget(Budget::evaluations(60)),
            future,
        )
    }

    #[test]
    fn updates_are_cheap_by_default() {
        let (mut mm, future) = fitted_maintainer(EvaluationStrategy::Never);
        for &y in future.values().iter().take(200) {
            assert_eq!(mm.observe(y), MaintenanceAction::Updated);
        }
        assert_eq!(mm.reestimation_count(), 0);
        assert!(mm.rolling_error() < 0.2);
    }

    #[test]
    fn time_based_triggers_periodically() {
        let (mut mm, future) =
            fitted_maintainer(EvaluationStrategy::TimeBased { every_updates: 96 });
        let mut reest = 0;
        for &y in future.values().iter().take(200) {
            if matches!(mm.observe(y), MaintenanceAction::Reestimated { .. }) {
                reest += 1;
            }
        }
        assert_eq!(reest, 2);
        assert_eq!(mm.reestimation_count(), 2);
    }

    #[test]
    fn threshold_based_fires_on_drift() {
        let (mut mm, _) = fitted_maintainer(EvaluationStrategy::ThresholdBased {
            smape_threshold: 0.10,
            window: 32,
        });
        // Feed a level-shifted series (structural break) to push the error up.
        let mut fired = false;
        for i in 0..200 {
            let y = 70_000.0 + (i % 7) as f64 * 100.0;
            if matches!(mm.observe(y), MaintenanceAction::Reestimated { .. }) {
                fired = true;
                break;
            }
        }
        assert!(fired, "threshold strategy never fired on a level shift");
    }

    #[test]
    fn threshold_not_fired_when_accurate() {
        let (mut mm, future) = fitted_maintainer(EvaluationStrategy::ThresholdBased {
            smape_threshold: 0.50,
            window: 32,
        });
        for &y in future.values().iter().take(150) {
            mm.observe(y);
        }
        assert_eq!(mm.reestimation_count(), 0);
    }

    #[test]
    fn context_repository_provides_warm_start() {
        let repo = Arc::new(Mutex::new(ContextRepository::new(2.0)));
        let (mm0, future) = fitted_maintainer(EvaluationStrategy::TimeBased { every_updates: 96 });
        let mut mm = ModelMaintainer::new(
            mm0.model().clone(),
            mm0.history.clone(),
            EvaluationStrategy::TimeBased { every_updates: 96 },
        )
        .with_budget(Budget::evaluations(60))
        .with_repository(Arc::clone(&repo));

        let mut warm_count = 0;
        let mut cold_count = 0;
        for &y in future.values().iter().take(300) {
            if let MaintenanceAction::Reestimated { warm_started, .. } = mm.observe(y) {
                if warm_started {
                    warm_count += 1;
                } else {
                    cold_count += 1;
                }
            }
        }
        // First re-estimation is cold (empty repo), later ones warm.
        assert_eq!(cold_count, 1);
        assert!(warm_count >= 1);
        assert!(repo.lock().len() >= 2);
    }

    #[test]
    fn history_is_bounded() {
        let (mut mm, _) = fitted_maintainer(EvaluationStrategy::Never);
        mm.max_history = 100;
        for i in 0..500 {
            mm.observe(35_000.0 + i as f64);
        }
        assert!(mm.history.len() <= 100);
    }
}
