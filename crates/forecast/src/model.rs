//! The common forecast-model interface.

use mirabel_timeseries::{smape, TimeSeries};

/// A trainable, incrementally-maintainable forecast model.
///
/// The lifecycle mirrors the paper's two main components (§5): *model
/// creation* ([`ForecastModel::fit`], driven by an estimator that tunes
/// [`ForecastModel::set_params`]) and *model update and maintenance*
/// ([`ForecastModel::update`] for each new measurement, re-fitting on
/// demand).
pub trait ForecastModel: Send {
    /// Human-readable model name ("HWT", ...).
    fn name(&self) -> &'static str;

    /// Current tunable parameter vector.
    fn params(&self) -> Vec<f64>;

    /// Replace the tunable parameters (length must match [`ForecastModel::params`]).
    fn set_params(&mut self, params: &[f64]);

    /// Box bounds for each tunable parameter, used by the estimators.
    fn param_bounds(&self) -> Vec<(f64, f64)>;

    /// (Re-)initialize internal state from a training series using the
    /// current parameters.
    fn fit(&mut self, history: &TimeSeries);

    /// Consume one new measurement at the slot following the last seen one
    /// — the paper's "simple update of smoothing constants or the shift of
    /// lagged input values … low additional costs".
    fn update(&mut self, value: f64);

    /// Forecast the next `horizon` slots after the last seen measurement.
    fn forecast(&self, horizon: usize) -> Vec<f64>;

    /// One-step-ahead in-sample SMAPE over `history` with the current
    /// parameters: the estimation objective. The default re-fits on a
    /// training prefix and scores rolling one-step forecasts on the rest.
    fn evaluate(&mut self, history: &TimeSeries, warmup: usize) -> f64 {
        let n = history.len();
        if n <= warmup + 1 {
            return f64::MAX;
        }
        let (train, test) = history.split_at_slot(history.start() + warmup as u32);
        self.fit(&train);
        let mut preds = Vec::with_capacity(test.len());
        for &y in test.values() {
            preds.push(self.forecast(1)[0]);
            self.update(y);
        }
        smape(test.values(), &preds)
    }
}
