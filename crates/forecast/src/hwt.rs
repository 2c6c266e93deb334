//! Holt-Winters-Taylor exponential smoothing (paper §5, \[12\]).
//!
//! Taylor's "triple seasonal methods for short-term electricity demand
//! forecasting" extend Holt-Winters with up to three additive seasonal
//! cycles (intra-day, intra-week, intra-year) and a first-order
//! autoregressive adjustment of the residual. The additive
//! error-correction form implemented here is:
//!
//! ```text
//! base_t = l + d[t mod s1] + w[t mod s2] (+ a[t mod s3])
//! ŷ_t    = base_t + φ · e_{t-1}
//! e_t    = y_t − base_t
//! l      += α  · (y_t − ŷ_t)
//! d[…]   += γd · (y_t − ŷ_t)
//! w[…]   += γw · (y_t − ŷ_t)
//! a[…]   += γa · (y_t − ŷ_t)
//! ```
//!
//! A `k`-step forecast adds `φᵏ · e_last` to the seasonal base, so the AR
//! correction fades with the horizon.

use crate::model::ForecastModel;
use mirabel_core::{SLOTS_PER_DAY, SLOTS_PER_WEEK};
use mirabel_timeseries::TimeSeries;

/// Which seasonal cycles the model carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seasonality {
    /// Intra-day cycle only.
    Daily,
    /// Intra-day + intra-week cycles (the default for energy demand).
    DailyWeekly,
    /// Intra-day + intra-week + intra-year cycles (Taylor's triple).
    DailyWeeklyAnnual,
}

impl Seasonality {
    /// The cycle lengths in slots, shortest first.
    pub fn periods(self) -> Vec<usize> {
        match self {
            Seasonality::Daily => vec![SLOTS_PER_DAY as usize],
            Seasonality::DailyWeekly => {
                vec![SLOTS_PER_DAY as usize, SLOTS_PER_WEEK as usize]
            }
            Seasonality::DailyWeeklyAnnual => vec![
                SLOTS_PER_DAY as usize,
                SLOTS_PER_WEEK as usize,
                365 * SLOTS_PER_DAY as usize,
            ],
        }
    }
}

/// HWT configuration: seasonal structure (not tuned by the estimator).
#[derive(Debug, Clone, Copy)]
pub struct HwtConfig {
    /// Seasonal cycles to model.
    pub seasonality: Seasonality,
}

impl Default for HwtConfig {
    fn default() -> HwtConfig {
        HwtConfig {
            seasonality: Seasonality::DailyWeekly,
        }
    }
}

/// Holt-Winters-Taylor model state.
#[derive(Debug, Clone)]
pub struct HwtModel {
    periods: Vec<usize>,
    /// Smoothing parameters: alpha, one gamma per cycle, then phi.
    params: Vec<f64>,
    level: f64,
    seasons: Vec<Vec<f64>>,
    /// Raw residual `y - base` of the last observation (AR input).
    last_err: f64,
    /// Index of the next expected observation relative to the fit origin.
    t: usize,
}

impl HwtModel {
    /// Create an unfitted model with default parameters
    /// (α=0.1, γ=0.2 each, φ=0.5).
    pub fn new(config: HwtConfig) -> HwtModel {
        let periods = config.seasonality.periods();
        let mut params = vec![0.1];
        params.extend(std::iter::repeat_n(0.2, periods.len()));
        params.push(0.5);
        HwtModel {
            seasons: periods.iter().map(|&p| vec![0.0; p]).collect(),
            periods,
            params,
            level: 0.0,
            last_err: 0.0,
            t: 0,
        }
    }

    /// Model with daily+weekly seasonality (the Figure 4 configuration).
    pub fn daily_weekly() -> HwtModel {
        HwtModel::new(HwtConfig::default())
    }

    fn alpha(&self) -> f64 {
        self.params[0]
    }

    fn gamma(&self, cycle: usize) -> f64 {
        self.params[1 + cycle]
    }

    fn phi(&self) -> f64 {
        self.params[self.params.len() - 1]
    }

    fn base_at(&self, t: usize) -> f64 {
        let mut v = self.level;
        for (cycle, period) in self.periods.iter().enumerate() {
            v += self.seasons[cycle][t % period];
        }
        v
    }

    fn initialize(&mut self, values: &[f64]) {
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n.max(1) as f64;
        self.level = mean;
        // Initialize each cycle's indices as the average deviation of the
        // slots mapping to that index, shorter cycles first; longer cycles
        // absorb what the shorter ones left over.
        let mut residual: Vec<f64> = values.iter().map(|v| v - mean).collect();
        for (cycle, &period) in self.periods.iter().enumerate() {
            let mut sums = vec![0.0; period];
            let mut counts = vec![0usize; period];
            for (i, r) in residual.iter().enumerate() {
                sums[i % period] += r;
                counts[i % period] += 1;
            }
            for i in 0..period {
                self.seasons[cycle][i] = if counts[i] > 0 {
                    sums[i] / counts[i] as f64
                } else {
                    0.0
                };
            }
            for (i, r) in residual.iter_mut().enumerate() {
                *r -= self.seasons[cycle][i % period];
            }
        }
        self.last_err = 0.0;
        self.t = 0;
    }
}

impl ForecastModel for HwtModel {
    fn name(&self) -> &'static str {
        "HWT"
    }

    fn params(&self) -> Vec<f64> {
        self.params.clone()
    }

    fn set_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.params.len(), "HWT parameter count");
        self.params.copy_from_slice(params);
    }

    fn param_bounds(&self) -> Vec<(f64, f64)> {
        let mut b = vec![(0.0, 1.0)]; // alpha
        b.extend(std::iter::repeat_n((0.0, 1.0), self.periods.len())); // gammas
        b.push((-0.95, 0.95)); // phi
        b
    }

    fn fit(&mut self, history: &TimeSeries) {
        self.initialize(history.values());
        // Run the smoothing recursions over the history so the state ends
        // positioned at the end of the series.
        for &y in history.values() {
            self.update(y);
        }
    }

    fn update(&mut self, y: f64) {
        let base = self.base_at(self.t);
        let pred = base + self.phi() * self.last_err;
        let err = y - pred;
        self.level += self.alpha() * err;
        let t = self.t;
        for (cycle, period) in self.periods.iter().enumerate() {
            let g = self.gamma(cycle);
            self.seasons[cycle][t % period] += g * err;
        }
        self.last_err = y - base;
        self.t += 1;
    }

    fn forecast(&self, horizon: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(horizon);
        let mut ar = self.last_err;
        for k in 0..horizon {
            ar *= self.phi();
            out.push(self.base_at(self.t + k) + ar);
        }
        out
    }
}

/// Seasonal-naive baseline: repeat the value one `period` ago.
pub fn seasonal_naive(history: &TimeSeries, horizon: usize, period: usize) -> Vec<f64> {
    let v = history.values();
    (0..horizon)
        .map(|k| {
            if v.len() >= period {
                v[v.len() - period + (k % period)]
            } else if let Some(&last) = v.last() {
                last
            } else {
                0.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirabel_core::TimeSlot;
    use mirabel_timeseries::{smape, DemandGenerator};

    fn demand(days: usize, seed: u64) -> TimeSeries {
        DemandGenerator::default().generate(TimeSlot(0), days * SLOTS_PER_DAY as usize, seed)
    }

    #[test]
    fn seasonality_periods() {
        assert_eq!(Seasonality::Daily.periods(), vec![96]);
        assert_eq!(Seasonality::DailyWeekly.periods(), vec![96, 672]);
        assert_eq!(Seasonality::DailyWeeklyAnnual.periods().len(), 3);
    }

    #[test]
    fn constant_series_forecasts_constant() {
        let s = TimeSeries::new(TimeSlot(0), vec![5.0; 96 * 15]);
        let mut m = HwtModel::daily_weekly();
        m.fit(&s);
        for f in m.forecast(96) {
            assert!((f - 5.0).abs() < 1e-6, "forecast {f}");
        }
    }

    #[test]
    fn pure_daily_cycle_learned() {
        // y_t = 10 + sin(2π t/96): perfectly daily-periodic.
        let vals: Vec<f64> = (0..96 * 20)
            .map(|t| 10.0 + (2.0 * std::f64::consts::PI * t as f64 / 96.0).sin())
            .collect();
        let s = TimeSeries::new(TimeSlot(0), vals.clone());
        let mut m = HwtModel::new(HwtConfig {
            seasonality: Seasonality::Daily,
        });
        m.fit(&s);
        let f = m.forecast(96);
        let actual: Vec<f64> = (0..96)
            .map(|k| 10.0 + (2.0 * std::f64::consts::PI * ((96 * 20 + k) as f64) / 96.0).sin())
            .collect();
        let err = smape(&actual, &f);
        assert!(err < 0.01, "SMAPE {err}");
    }

    #[test]
    fn beats_seasonal_naive_on_synthetic_demand() {
        let s = demand(28, 3);
        let (train, test) = s.split_at_slot(TimeSlot(21 * SLOTS_PER_DAY as i64));
        let mut m = HwtModel::daily_weekly();
        m.fit(&train);
        let f = m.forecast(96);
        let naive = seasonal_naive(&train, 96, SLOTS_PER_WEEK as usize);
        let actual = &test.values()[..96];
        let e_model = smape(actual, &f);
        let e_naive = smape(actual, &naive);
        assert!(
            e_model <= e_naive * 1.2,
            "model {e_model} vs naive {e_naive}"
        );
        assert!(e_model < 0.10, "model error too high: {e_model}");
    }

    #[test]
    fn update_shifts_state_forward() {
        let s = demand(14, 1);
        let mut a = HwtModel::daily_weekly();
        a.fit(&s);
        // feeding the model its own forecast keeps the next forecast coherent
        let f1 = a.forecast(2);
        a.update(f1[0]);
        let f2 = a.forecast(1);
        assert!((f2[0] - f1[1]).abs() / f1[1].abs() < 0.05);
    }

    #[test]
    fn error_grows_with_horizon_on_noisy_series() {
        let s = demand(28, 9);
        let (train, test) = s.split_at_slot(TimeSlot(21 * SLOTS_PER_DAY as i64));
        let mut m = HwtModel::daily_weekly();
        m.fit(&train);
        let f = m.forecast(4 * SLOTS_PER_DAY as usize);
        let day_err = |d: usize| {
            let lo = d * SLOTS_PER_DAY as usize;
            let hi = lo + SLOTS_PER_DAY as usize;
            smape(&test.values()[lo..hi], &f[lo..hi])
        };
        // horizon day 4 should not be more accurate than day 1
        assert!(day_err(3) >= day_err(0) * 0.8);
    }

    #[test]
    fn params_roundtrip_and_bounds() {
        let mut m = HwtModel::daily_weekly();
        let p = m.params();
        assert_eq!(p.len(), 4); // alpha, 2 gammas, phi
        let bounds = m.param_bounds();
        assert_eq!(bounds.len(), 4);
        m.set_params(&[0.3, 0.1, 0.05, 0.2]);
        assert_eq!(m.params(), vec![0.3, 0.1, 0.05, 0.2]);
    }

    #[test]
    #[should_panic(expected = "HWT parameter count")]
    fn wrong_param_count_panics() {
        HwtModel::daily_weekly().set_params(&[0.1]);
    }

    #[test]
    fn seasonal_naive_baseline() {
        let s = TimeSeries::new(TimeSlot(0), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(seasonal_naive(&s, 3, 2), vec![3.0, 4.0, 3.0]);
        assert_eq!(seasonal_naive(&s, 2, 10), vec![4.0, 4.0]);
        let empty = TimeSeries::empty(TimeSlot(0));
        assert_eq!(seasonal_naive(&empty, 1, 2), vec![0.0]);
    }

    #[test]
    fn triple_seasonality_tracks_annual_cycle() {
        // Two years of noise-free demand with a strong annual component:
        // the triple-seasonal model should forecast mid-summer correctly
        // from end-of-year state, while daily+weekly misses the annual
        // swing it has never modelled.
        let gen = DemandGenerator {
            noise: 0.0,
            annual_amplitude: 0.25,
            ..DemandGenerator::default()
        };
        let n = 2 * 365 * SLOTS_PER_DAY as usize;
        let s = gen.generate(TimeSlot(0), n, 1);
        let mut triple = HwtModel::new(HwtConfig {
            seasonality: Seasonality::DailyWeeklyAnnual,
        });
        triple.fit(&s);
        // forecast ~half a year ahead, one day's worth
        let horizon = 183 * SLOTS_PER_DAY as usize;
        let f = triple.forecast(horizon);
        let actual: Vec<f64> = (0..SLOTS_PER_DAY as usize)
            .map(|k| gen.expected(TimeSlot((n + horizon - SLOTS_PER_DAY as usize + k) as i64)))
            .collect();
        let err_triple = smape(&actual, &f[horizon - SLOTS_PER_DAY as usize..]);

        let mut double = HwtModel::daily_weekly();
        double.fit(&s);
        let g = double.forecast(horizon);
        let err_double = smape(&actual, &g[horizon - SLOTS_PER_DAY as usize..]);
        assert!(
            err_triple < err_double,
            "triple {err_triple} vs double {err_double}"
        );
    }

    #[test]
    fn evaluate_gives_small_error_on_smooth_series() {
        let s = demand(21, 5);
        let mut m = HwtModel::daily_weekly();
        let err = m.evaluate(&s, 14 * SLOTS_PER_DAY as usize);
        assert!(err < 0.05, "in-sample one-step SMAPE {err}");
    }
}
