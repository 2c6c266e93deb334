//! # mirabel-core
//!
//! Domain model for the MIRABEL Energy Data Management System (EDMS).
//!
//! This crate defines the vocabulary shared by every other MIRABEL crate:
//!
//! * [`TimeSlot`] — the discrete 15-minute metering grid all components agree on,
//! * [`Energy`] / [`EnergyRange`] — energy quantities and per-slot flexibility bounds,
//! * [`Profile`] / [`Slice`] — the shape of a flex-offer's consumption or production,
//! * [`FlexOffer`] — the energy planning object at the heart of MIRABEL (paper §2),
//! * [`ScheduledFlexOffer`] — a flex-offer with start time and energies fixed,
//! * a reproducible synthetic [`generator`] used by the experiments in
//!   place of the paper's 800 000-offer artificial data set,
//! * [`exec`] — the shared deterministic worker [`Pool`] every parallel
//!   path in the workspace (aggregate flushes, scheduling chains,
//!   parallel regions) dispatches onto instead of spawning scoped threads
//!   per call,
//! * [`codec`] — the compact binary [`Wire`] format (varint/zigzag
//!   integers, bit-exact floats) that the message layer and the
//!   per-node write-ahead logs serialize through, the workspace's one
//!   wire encoding.
//!
//! The types are deliberately free of any aggregation / forecasting /
//! scheduling logic — those live in the dedicated crates layered on top.
//!
//! ## Example
//!
//! ```
//! use mirabel_core::{FlexOffer, OfferKind, Profile, Slice, EnergyRange, TimeSlot};
//!
//! // The paper's §2 use scenario: charge an EV (50 kWh) between 10pm and 7am.
//! // 10pm = slot 88 of the day; a 2h profile (8 slots) must start by 5am.
//! let offer = FlexOffer::builder(1, 42)
//!     .kind(OfferKind::Consumption)
//!     .earliest_start(TimeSlot(88))
//!     .latest_start(TimeSlot(116)) // 5am next day
//!     .assignment_before(TimeSlot(88))
//!     .profile(Profile::uniform(8, EnergyRange::new(5.0, 7.0).unwrap()))
//!     .build()
//!     .unwrap();
//! assert_eq!(offer.time_flexibility(), 28);
//! assert!(offer.profile().min_total_energy().kwh() >= 40.0);
//! ```
// `deny`, not `forbid`: the lifetime-erased task hand-off inside
// `exec` is the one permitted (module-scoped, documented) exception.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod codec;
pub mod energy;
pub mod error;
pub mod exec;
pub mod flexoffer;
pub mod generator;
pub mod id;
pub mod price;
pub mod profile;
pub mod schedule;
pub mod time;

pub use budget::Budget;
pub use codec::{CodecError, Wire};
pub use energy::{Energy, EnergyRange};
pub use error::DomainError;
pub use exec::Pool;
pub use flexoffer::{FlexOffer, FlexOfferBuilder, OfferKind};
pub use generator::{FlexOfferGenerator, GeneratorConfig};
pub use id::{ActorId, AggregateId, FlexOfferId, GroupId, NodeId, RegionId};
pub use price::Price;
pub use profile::{Profile, Slice};
pub use schedule::ScheduledFlexOffer;
pub use time::{SlotSpan, TimeSlot, SLOTS_PER_DAY, SLOTS_PER_HOUR, SLOTS_PER_WEEK, SLOT_MINUTES};
