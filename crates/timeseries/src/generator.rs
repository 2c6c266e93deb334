//! Synthetic energy time series.
//!
//! Substitutes for the paper's evaluation data:
//!
//! * [`DemandGenerator`] stands in for the UK NationalGrid half-hourly
//!   national demand series: strong daily and weekly seasonality, a smooth
//!   annual component, holiday attenuation and autocorrelated noise.
//! * [`WindGenerator`] stands in for the NREL wind integration data sets:
//!   a mean-reverting wind-speed process pushed through a turbine power
//!   curve — much weaker seasonality, so forecast error grows quickly with
//!   the horizon, which is exactly the contrast Figure 4(b) shows.
//! * [`SolarGenerator`] produces PV-like supply for the end-to-end
//!   balancing examples (clear-sky bell curve with weather dips).

use crate::calendar::Calendar;
use crate::series::TimeSeries;
use mirabel_core::{TimeSlot, SLOTS_PER_DAY};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;

/// UK-style national electricity demand, in MW.
#[derive(Debug, Clone)]
pub struct DemandGenerator {
    /// Mean demand level (MW).
    pub base: f64,
    /// Amplitude of the daily cycle as a fraction of `base`.
    pub daily_amplitude: f64,
    /// Weekend demand reduction as a fraction of `base`.
    pub weekend_dip: f64,
    /// Amplitude of the annual cycle (winter peak) as a fraction of `base`.
    pub annual_amplitude: f64,
    /// Holiday demand reduction as a fraction of `base`.
    pub holiday_dip: f64,
    /// Standard deviation of the AR(1) noise as a fraction of `base`.
    pub noise: f64,
    /// AR(1) coefficient of the noise process.
    pub noise_ar: f64,
    /// Calendar supplying holidays.
    pub calendar: Calendar,
}

impl Default for DemandGenerator {
    fn default() -> DemandGenerator {
        DemandGenerator {
            base: 35_000.0,
            daily_amplitude: 0.22,
            weekend_dip: 0.10,
            annual_amplitude: 0.12,
            holiday_dip: 0.12,
            noise: 0.008,
            noise_ar: 0.8,
            calendar: Calendar::periodic_holidays(25, 61, 8),
        }
    }
}

impl DemandGenerator {
    /// Deterministic daily shape: overnight trough, morning ramp, evening
    /// peak. `x` is the slot-of-day in `[0, 1)`.
    fn daily_shape(x: f64) -> f64 {
        // Sum of two von-Mises-like bumps (morning 08:00, evening 18:00)
        // minus a night trough; normalized roughly to [-1, 1].
        let bump = |center: f64, width: f64| {
            let d = (x - center).abs().min(1.0 - (x - center).abs());
            (-0.5 * (d / width) * (d / width)).exp()
        };
        let morning = bump(8.0 / 24.0, 0.09);
        let evening = bump(18.0 / 24.0, 0.10);
        let night = bump(3.5 / 24.0, 0.12);
        0.8 * morning + 1.0 * evening - 0.9 * night
    }

    /// The deterministic (noise-free) demand at slot `t`.
    pub fn expected(&self, t: TimeSlot) -> f64 {
        let x = t.slot_of_day() as f64 / SLOTS_PER_DAY as f64;
        let day = t.day() as f64;
        let mut v = self.base * (1.0 + self.daily_amplitude * Self::daily_shape(x));
        // Winter peak: cosine over a 365-day year, maximum at day 0.
        v += self.base * self.annual_amplitude * (2.0 * PI * day / 365.0).cos();
        if self.calendar.is_weekend(t) {
            v -= self.base * self.weekend_dip;
        }
        if self.calendar.is_holiday(t) {
            v -= self.base * self.holiday_dip;
        }
        v
    }

    /// Generate `len` slots starting at `start`, with seeded AR(1) noise.
    pub fn generate(&self, start: TimeSlot, len: usize, seed: u64) -> TimeSeries {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut values = Vec::with_capacity(len);
        let mut ar = 0.0f64;
        let sigma = self.base * self.noise;
        for i in 0..len {
            let t = start + i as u32;
            let eps: f64 =
                rng.gen_range(-1.0..1.0) * sigma * (1.0 - self.noise_ar * self.noise_ar).sqrt();
            ar = self.noise_ar * ar + eps;
            values.push((self.expected(t) + ar).max(0.0));
        }
        TimeSeries::new(start, values)
    }
}

/// Wind farm supply, in MW, via a mean-reverting wind-speed process and a
/// cubic turbine power curve.
#[derive(Debug, Clone)]
pub struct WindGenerator {
    /// Rated (maximum) farm output in MW.
    pub rated_power: f64,
    /// Long-run mean wind speed (m/s).
    pub mean_speed: f64,
    /// Mean-reversion rate per slot (0..1, higher = snappier).
    pub reversion: f64,
    /// Per-slot wind-speed innovation standard deviation (m/s).
    pub speed_sigma: f64,
    /// Cut-in wind speed (m/s) below which output is zero.
    pub cut_in: f64,
    /// Rated wind speed (m/s) at which output saturates.
    pub rated_speed: f64,
    /// Cut-out speed (m/s) above which turbines stop.
    pub cut_out: f64,
    /// Mild diurnal modulation amplitude on the mean speed (fraction).
    pub diurnal: f64,
}

impl Default for WindGenerator {
    fn default() -> WindGenerator {
        WindGenerator {
            rated_power: 1_000.0,
            mean_speed: 8.0,
            // Slow mean reversion + modest innovations: wind has hours of
            // persistence (good short-horizon forecasts) but no usable
            // seasonality (poor long-horizon forecasts) — the contrast
            // Figure 4(b) shows. The stationary spread (σ/√2r ≈ 0.75 m/s)
            // keeps the farm above cut-in, as for the NREL fleet-level
            // data: SMAPE would otherwise saturate on zero-power slots.
            reversion: 0.02,
            speed_sigma: 0.15,
            cut_in: 3.0,
            rated_speed: 12.0,
            cut_out: 25.0,
            diurnal: 0.08,
        }
    }
}

impl WindGenerator {
    /// Turbine power curve: fraction of rated output at wind speed `v`.
    pub fn power_fraction(&self, v: f64) -> f64 {
        if v < self.cut_in || v >= self.cut_out {
            0.0
        } else if v >= self.rated_speed {
            1.0
        } else {
            let x = (v - self.cut_in) / (self.rated_speed - self.cut_in);
            x * x * x
        }
    }

    /// Generate `len` slots of farm output starting at `start`.
    pub fn generate(&self, start: TimeSlot, len: usize, seed: u64) -> TimeSeries {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v = self.mean_speed;
        let mut values = Vec::with_capacity(len);
        for i in 0..len {
            let t = start + i as u32;
            let x = t.slot_of_day() as f64 / SLOTS_PER_DAY as f64;
            // Slightly windier in the afternoon.
            let target = self.mean_speed * (1.0 + self.diurnal * (2.0 * PI * (x - 0.6)).cos());
            let eps: f64 = rng.gen_range(-1.0..1.0) * self.speed_sigma;
            v += self.reversion * (target - v) + eps;
            v = v.max(0.0);
            values.push(self.rated_power * self.power_fraction(v));
        }
        TimeSeries::new(start, values)
    }
}

/// PV supply: clear-sky bell over daylight hours with random cloud dips.
#[derive(Debug, Clone)]
pub struct SolarGenerator {
    /// Peak clear-sky output in MW.
    pub peak_power: f64,
    /// Sunrise as fraction of day (e.g. 0.25 = 06:00).
    pub sunrise: f64,
    /// Sunset as fraction of day.
    pub sunset: f64,
    /// Mean cloudiness in `[0,1]`; output is scaled by `1 - cloud`.
    pub mean_cloud: f64,
    /// Cloud process innovation scale.
    pub cloud_sigma: f64,
}

impl Default for SolarGenerator {
    fn default() -> SolarGenerator {
        SolarGenerator {
            peak_power: 500.0,
            sunrise: 0.27,
            sunset: 0.80,
            mean_cloud: 0.3,
            cloud_sigma: 0.05,
        }
    }
}

impl SolarGenerator {
    /// Clear-sky output fraction at slot-of-day fraction `x`.
    pub fn clear_sky(&self, x: f64) -> f64 {
        if x <= self.sunrise || x >= self.sunset {
            return 0.0;
        }
        let y = (x - self.sunrise) / (self.sunset - self.sunrise);
        (PI * y).sin().max(0.0)
    }

    /// Generate `len` slots starting at `start`.
    pub fn generate(&self, start: TimeSlot, len: usize, seed: u64) -> TimeSeries {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cloud = self.mean_cloud;
        let mut values = Vec::with_capacity(len);
        for i in 0..len {
            let t = start + i as u32;
            let x = t.slot_of_day() as f64 / SLOTS_PER_DAY as f64;
            let eps: f64 = rng.gen_range(-1.0..1.0) * self.cloud_sigma;
            cloud = (0.95 * cloud + 0.05 * self.mean_cloud + eps).clamp(0.0, 1.0);
            values.push(self.peak_power * self.clear_sky(x) * (1.0 - cloud));
        }
        TimeSeries::new(start, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::smape;
    use mirabel_core::SLOTS_PER_WEEK;

    #[test]
    fn demand_deterministic_per_seed() {
        let g = DemandGenerator::default();
        let a = g.generate(TimeSlot(0), 200, 1);
        let b = g.generate(TimeSlot(0), 200, 1);
        assert_eq!(a, b);
        let c = g.generate(TimeSlot(0), 200, 2);
        assert_ne!(a, c);
    }

    #[test]
    fn demand_positive_and_near_base() {
        let g = DemandGenerator::default();
        let s = g.generate(TimeSlot(0), SLOTS_PER_WEEK as usize, 7);
        assert!(s.min().unwrap() > 0.0);
        let m = s.mean();
        assert!(m > 0.5 * g.base && m < 1.5 * g.base, "mean {m}");
    }

    #[test]
    fn demand_has_daily_seasonality() {
        // Expected values one day apart (same weekday type) should be far
        // more similar than values half a day apart.
        let g = DemandGenerator::default();
        let t0 = TimeSlot(10); // Monday early morning
        let same = (g.expected(t0 + SLOTS_PER_DAY) - g.expected(t0)).abs();
        let opposite = (g.expected(t0 + SLOTS_PER_DAY / 2) - g.expected(t0)).abs();
        assert!(
            same < opposite,
            "daily pattern missing: {same} vs {opposite}"
        );
    }

    #[test]
    fn demand_weekend_lower_than_weekday() {
        let g = DemandGenerator::default();
        // Tuesday noon (day 1) vs Saturday noon (day 5), same annual phase
        // approximately.
        let weekday = g.expected(TimeSlot(SLOTS_PER_DAY as i64 + 48));
        let weekend = g.expected(TimeSlot(5 * SLOTS_PER_DAY as i64 + 48));
        assert!(weekend < weekday);
    }

    #[test]
    fn wind_within_rating() {
        let g = WindGenerator::default();
        let s = g.generate(TimeSlot(0), 2000, 3);
        assert!(s.min().unwrap() >= 0.0);
        assert!(s.max().unwrap() <= g.rated_power + 1e-9);
    }

    #[test]
    fn wind_power_curve_shape() {
        let g = WindGenerator::default();
        assert_eq!(g.power_fraction(0.0), 0.0);
        assert_eq!(g.power_fraction(2.9), 0.0);
        assert!(g.power_fraction(8.0) > 0.0 && g.power_fraction(8.0) < 1.0);
        assert_eq!(g.power_fraction(12.0), 1.0);
        assert_eq!(g.power_fraction(20.0), 1.0);
        assert_eq!(g.power_fraction(25.0), 0.0);
        // monotone between cut-in and rated
        assert!(g.power_fraction(6.0) < g.power_fraction(9.0));
    }

    #[test]
    fn wind_harder_to_persist_forecast_than_demand() {
        // The property Figure 4(b) relies on: a seasonal-naive forecast
        // (same slot yesterday) is much better for demand than for wind.
        let d = DemandGenerator::default().generate(TimeSlot(0), 4 * 96, 11);
        let w = WindGenerator::default().generate(TimeSlot(0), 4 * 96, 11);
        let naive_err = |s: &TimeSeries| {
            let v = s.values();
            smape(&v[96..], &v[..v.len() - 96])
        };
        assert!(
            naive_err(&d) < naive_err(&w),
            "demand {} wind {}",
            naive_err(&d),
            naive_err(&w)
        );
    }

    #[test]
    fn solar_zero_at_night_peaks_midday() {
        let g = SolarGenerator::default();
        let s = g.generate(TimeSlot(0), 96, 5);
        assert_eq!(s.at(TimeSlot(2)), Some(0.0)); // 00:30
        assert_eq!(s.at(TimeSlot(94)), Some(0.0)); // 23:30
        let midday = s.at(TimeSlot(50)).unwrap(); // 12:30
        assert!(midday > 0.0);
        assert!(midday <= g.peak_power);
    }

    #[test]
    fn solar_clear_sky_bounds() {
        let g = SolarGenerator::default();
        assert_eq!(g.clear_sky(0.0), 0.0);
        assert_eq!(g.clear_sky(0.9), 0.0);
        assert!(g.clear_sky(0.5) > 0.9);
    }
}
