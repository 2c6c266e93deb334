//! # mirabel-timeseries
//!
//! Time-series substrate for the MIRABEL EDMS.
//!
//! The forecasting component (paper §5) consumes streams of energy
//! measurements; its evaluation (paper §9, Figure 4) runs on the UK
//! NationalGrid half-hourly demand data set and an NREL wind data set.
//! Neither is redistributable here, so this crate provides:
//!
//! * [`TimeSeries`] — a dense, slot-aligned series container,
//! * [`stats`] — forecast accuracy metrics (SMAPE as used in Figure 4,
//!   plus MAPE/MAE/RMSE/MASE),
//! * [`calendar`] — day-of-week/holiday context for forecast contexts
//!   and the demand generator,
//! * [`generator`] — synthetic multi-seasonal demand and wind-supply
//!   processes that reproduce the statistical properties the experiments
//!   rely on (each generator's docs name the data set it stands in for),
//! * [`store`] — the measurement side of the Data Management component.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calendar;
pub mod generator;
pub mod series;
pub mod stats;
pub mod store;

pub use calendar::Calendar;
pub use generator::{DemandGenerator, SolarGenerator, WindGenerator};
pub use series::TimeSeries;
pub use stats::{mae, mape, mase, rmse, smape};
pub use store::MeasurementStore;
