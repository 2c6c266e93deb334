//! # mirabel-forecast
//!
//! The MIRABEL forecasting component (paper §5).
//!
//! One energy-domain forecast model, [`HwtModel`]: Taylor's exponential
//! smoothing with double/triple seasonality and AR(1) error correction
//! (the paper's robust model and the one used in the Figure 4
//! experiments), behind the [`ForecastModel`] interface.
//!
//! Model parameters are estimated by black-box optimizers over an
//! [`estimator::Objective`]: [`NelderMead`], [`RandomRestartNelderMead`],
//! [`SimulatedAnnealing`] and [`RandomSearch`] — the three global methods
//! compared in Figure 4(a) plus the local simplex they build on.
//!
//! Around the model, the crate implements the paper's optimizations:
//!
//! * [`maintenance`] — continuous model update plus time-/threshold-based
//!   re-estimation triggers,
//! * [`context`] — the case-based parameter repository ("context-aware
//!   model adaptation"),
//! * [`pubsub`] — publish-subscribe forecast queries with significance
//!   thresholds, delivering typed slot-range change events that drive
//!   incremental rescheduling downstream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod estimator;
pub mod hwt;
pub mod maintenance;
pub mod model;
pub mod pubsub;

pub use context::{describe, ContextDescriptor, ContextRepository};
pub use estimator::{
    Budget, EstimationResult, Estimator, NelderMead, Objective, RandomRestartNelderMead,
    RandomSearch, SimulatedAnnealing,
};
pub use hwt::{HwtConfig, HwtModel, Seasonality};
pub use maintenance::{EvaluationStrategy, MaintenanceAction, ModelMaintainer};
pub use model::ForecastModel;
pub use pubsub::{ForecastEvent, ForecastHub, SlotRange, Subscription};
