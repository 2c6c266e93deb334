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
//! * [`stats`] — forecast accuracy as SMAPE, the metric of Figure 4,
//! * [`calendar`] — day-of-week/holiday context for forecast contexts
//!   and the demand generator,
//! * [`generator`] — synthetic multi-seasonal demand and wind-supply
//!   processes that reproduce the statistical properties the experiments
//!   rely on (each generator's docs name the data set it stands in for).
//!
//! Measurements themselves are stored as facts in the EDMS data store
//! (`mirabel_edms::DataStore`), the one star schema of paper §3.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calendar;
pub mod generator;
pub mod series;
pub mod stats;

pub use calendar::Calendar;
pub use generator::{DemandGenerator, WindGenerator};
pub use series::TimeSeries;
pub use stats::smape;
