//! # mirabel-negotiate
//!
//! The MIRABEL negotiation component (paper §7): "Negotiation in MIRABEL
//! finds an agreement between the prosumer and its BRP about the price for
//! flex-offers."
//!
//! * [`potential`] — the three flexibility dimensions the BRP can
//!   monetize (assignment, scheduling and energy flexibility), each
//!   normalized to a `[0, 1]` *flexibility potential* by a sigmoid, and
//!   combined as a weighted sum into the offer's total value;
//! * [`pricing`] — pre-execution pricing ("monetize flexibility"): the
//!   offer's value is set before execution, so it can serve as an
//!   acceptance criterion;
//! * [`acceptance`] — "the BRP must be able to reject a flex-offer that
//!   generate\[s\] loss or can not be processed in time".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acceptance;
pub mod potential;
pub mod pricing;

pub use acceptance::{AcceptanceDecision, AcceptancePolicy, RejectionReason};
pub use potential::{sigmoid, FlexibilityPotentials, PotentialConfig};
pub use pricing::PreExecutionPricing;
