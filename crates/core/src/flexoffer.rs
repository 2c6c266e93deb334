//! The flex-offer: MIRABEL's energy planning object (paper §2, Figure 3).
//!
//! A flex-offer expresses *when* and *with how much energy* a device is
//! willing to run:
//!
//! * **time flexibility** — the start may be anywhere in
//!   `[earliest_start, latest_start]`;
//! * **energy flexibility** — each profile slot may run anywhere inside its
//!   `[min, max]` energy range;
//! * **assignment deadline** — a schedule must be communicated before
//!   `assignment_before`, otherwise the prosumer falls back to the open
//!   contract (paper §1 "pending flexibilities simply timeout").

use crate::energy::EnergyRange;
use crate::error::DomainError;
use crate::id::{ActorId, FlexOfferId};
use crate::price::Price;
use crate::profile::Profile;
use crate::time::{SlotSpan, TimeSlot};
use std::fmt;

/// Whether the offer consumes or produces energy.
///
/// The paper treats production flex-offers "equivalently to flex-offers for
/// consumption" (§2); the sign convention is applied by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OfferKind {
    /// Flexible demand (EV charging, dishwasher, heat pump, ...).
    Consumption,
    /// Flexible supply (CHP, curtailable solar, ...).
    Production,
}

impl fmt::Display for OfferKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OfferKind::Consumption => write!(f, "consumption"),
            OfferKind::Production => write!(f, "production"),
        }
    }
}

/// An energy planning object offered by a prosumer to its BRP.
#[derive(Debug, Clone, PartialEq)]
pub struct FlexOffer {
    id: FlexOfferId,
    owner: ActorId,
    kind: OfferKind,
    assignment_before: TimeSlot,
    earliest_start: TimeSlot,
    latest_start: TimeSlot,
    profile: Profile,
    unit_price: Price,
}

impl FlexOffer {
    /// Start building a flex-offer with the given id and owner.
    pub fn builder(id: u64, owner: u64) -> FlexOfferBuilder {
        FlexOfferBuilder::new(FlexOfferId(id), ActorId(owner))
    }

    /// Offer identifier.
    pub fn id(&self) -> FlexOfferId {
        self.id
    }

    /// Owning actor (prosumer).
    pub fn owner(&self) -> ActorId {
        self.owner
    }

    /// Consumption or production.
    pub fn kind(&self) -> OfferKind {
        self.kind
    }

    /// Deadline before which a schedule must be assigned.
    pub fn assignment_before(&self) -> TimeSlot {
        self.assignment_before
    }

    /// Earliest admissible start slot.
    pub fn earliest_start(&self) -> TimeSlot {
        self.earliest_start
    }

    /// Latest admissible start slot (inclusive).
    pub fn latest_start(&self) -> TimeSlot {
        self.latest_start
    }

    /// Latest end: `latest_start + duration` (exclusive).
    pub fn latest_end(&self) -> TimeSlot {
        self.latest_start + self.profile.total_duration()
    }

    /// The energy profile.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Activation price in EUR/kWh that the BRP pays the prosumer.
    pub fn unit_price(&self) -> Price {
        self.unit_price
    }

    /// Time flexibility in slots: `latest_start - earliest_start`
    /// (paper §7 "scheduling flexibility").
    pub fn time_flexibility(&self) -> SlotSpan {
        (self.latest_start - self.earliest_start) as SlotSpan
    }

    /// Profile duration in slots.
    pub fn duration(&self) -> SlotSpan {
        self.profile.total_duration()
    }

    /// Assignment flexibility relative to `now`: the time left for
    /// (re-)scheduling before the assignment deadline (paper §7).
    pub fn assignment_flexibility(&self, now: TimeSlot) -> SlotSpan {
        now.span_to(self.assignment_before).unwrap_or(0)
    }

    /// Whether the offer has expired (assignment deadline passed) at `now`.
    pub fn is_expired(&self, now: TimeSlot) -> bool {
        now >= self.assignment_before
    }

    /// Signed per-slot demand contribution: consumption is positive demand,
    /// production is negative demand. Used by the scheduler's imbalance
    /// arithmetic.
    pub fn demand_sign(&self) -> f64 {
        match self.kind {
            OfferKind::Consumption => 1.0,
            OfferKind::Production => -1.0,
        }
    }

    /// Structural validation; called by the builder and usable on
    /// deserialized offers. Besides the paper's constraints it rejects
    /// what no node can compute with: a start window wider than
    /// [`SlotSpan`], a latest end past the last slot, and non-finite
    /// energy bounds or price.
    pub fn validate(&self) -> Result<(), DomainError> {
        if self.latest_start < self.earliest_start {
            return Err(DomainError::InvalidFlexOffer(format!(
                "latest_start {} precedes earliest_start {}",
                self.latest_start, self.earliest_start
            )));
        }
        if self.earliest_start.span_to(self.latest_start).is_none() {
            return Err(DomainError::InvalidFlexOffer(
                "start window is wider than SlotSpan".into(),
            ));
        }
        let duration = i64::from(self.profile.total_duration());
        if self.latest_start.0.checked_add(duration).is_none() {
            return Err(DomainError::InvalidFlexOffer(
                "latest end overflows the slot clock".into(),
            ));
        }
        let finite = |r: EnergyRange| r.min().kwh().is_finite() && r.max().kwh().is_finite();
        if !self.profile.slices().iter().all(|s| finite(s.energy))
            || !self.unit_price.eur().is_finite()
        {
            return Err(DomainError::InvalidFlexOffer(
                "energy bounds and unit price must be finite".into(),
            ));
        }
        if self.assignment_before > self.earliest_start {
            return Err(DomainError::InvalidFlexOffer(format!(
                "assignment_before {} is after earliest_start {}; the offer \
                 could start before it was assigned",
                self.assignment_before, self.earliest_start
            )));
        }
        Ok(())
    }
}

impl fmt::Display for FlexOffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} start in [{}, {}] {}",
            self.id, self.kind, self.earliest_start, self.latest_start, self.profile
        )
    }
}

/// Builder for [`FlexOffer`]; validates on [`FlexOfferBuilder::build`].
#[derive(Debug, Clone)]
pub struct FlexOfferBuilder {
    id: FlexOfferId,
    owner: ActorId,
    kind: OfferKind,
    assignment_before: Option<TimeSlot>,
    earliest_start: TimeSlot,
    latest_start: Option<TimeSlot>,
    profile: Option<Profile>,
    unit_price: Price,
}

impl FlexOfferBuilder {
    fn new(id: FlexOfferId, owner: ActorId) -> FlexOfferBuilder {
        FlexOfferBuilder {
            id,
            owner,
            kind: OfferKind::Consumption,
            assignment_before: None,
            earliest_start: TimeSlot::EPOCH,
            latest_start: None,
            profile: None,
            unit_price: Price::ZERO,
        }
    }

    /// Set consumption vs production.
    pub fn kind(mut self, kind: OfferKind) -> Self {
        self.kind = kind;
        self
    }

    /// Set the earliest start slot.
    pub fn earliest_start(mut self, t: TimeSlot) -> Self {
        self.earliest_start = t;
        self
    }

    /// Set the latest start slot (inclusive). Defaults to `earliest_start`
    /// (no time flexibility) when unset.
    pub fn latest_start(mut self, t: TimeSlot) -> Self {
        self.latest_start = Some(t);
        self
    }

    /// Convenience: set time flexibility in slots instead of latest start.
    pub fn time_flexibility(mut self, slots: SlotSpan) -> Self {
        self.latest_start = Some(self.earliest_start + slots);
        self
    }

    /// Set the assignment deadline. Defaults to `earliest_start`.
    pub fn assignment_before(mut self, t: TimeSlot) -> Self {
        self.assignment_before = Some(t);
        self
    }

    /// Set the profile (required).
    pub fn profile(mut self, p: Profile) -> Self {
        self.profile = Some(p);
        self
    }

    /// Set the activation price (EUR/kWh).
    pub fn unit_price(mut self, p: Price) -> Self {
        self.unit_price = p;
        self
    }

    /// Validate and build.
    pub fn build(self) -> Result<FlexOffer, DomainError> {
        let profile = self
            .profile
            .ok_or_else(|| DomainError::InvalidFlexOffer("profile is required".into()))?;
        let offer = FlexOffer {
            id: self.id,
            owner: self.owner,
            kind: self.kind,
            assignment_before: self.assignment_before.unwrap_or(self.earliest_start),
            earliest_start: self.earliest_start,
            latest_start: self.latest_start.unwrap_or(self.earliest_start),
            profile,
            unit_price: self.unit_price,
        };
        offer.validate()?;
        Ok(offer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Wire;
    use crate::energy::EnergyRange;
    use crate::profile::Slice;

    fn ev_offer() -> FlexOffer {
        // §2 scenario: 10pm plug-in, 2h charge, latest start 5am.
        FlexOffer::builder(1, 9)
            .kind(OfferKind::Consumption)
            .earliest_start(TimeSlot(88))
            .latest_start(TimeSlot(116))
            .assignment_before(TimeSlot(88))
            .profile(Profile::uniform(8, EnergyRange::new(5.0, 7.0).unwrap()))
            .build()
            .unwrap()
    }

    #[test]
    fn ev_scenario_properties() {
        let o = ev_offer();
        assert_eq!(o.time_flexibility(), 28);
        assert_eq!(o.duration(), 8);
        assert_eq!(o.latest_end(), TimeSlot(124)); // 7am next day
        assert_eq!(o.demand_sign(), 1.0);
        assert_eq!(o.kind().to_string(), "consumption");
    }

    #[test]
    fn builder_defaults() {
        let o = FlexOffer::builder(2, 1)
            .earliest_start(TimeSlot(10))
            .profile(Profile::uniform(1, EnergyRange::fixed(1.0)))
            .build()
            .unwrap();
        assert_eq!(o.latest_start(), TimeSlot(10));
        assert_eq!(o.time_flexibility(), 0);
        assert_eq!(o.assignment_before(), TimeSlot(10));
        assert_eq!(o.unit_price(), Price::ZERO);
    }

    #[test]
    fn rejects_inverted_start_window() {
        let e = FlexOffer::builder(3, 1)
            .earliest_start(TimeSlot(10))
            .latest_start(TimeSlot(5))
            .profile(Profile::uniform(1, EnergyRange::fixed(1.0)))
            .build();
        assert!(matches!(e, Err(DomainError::InvalidFlexOffer(_))));
    }

    #[test]
    fn rejects_late_assignment_deadline() {
        let e = FlexOffer::builder(4, 1)
            .earliest_start(TimeSlot(10))
            .latest_start(TimeSlot(20))
            .assignment_before(TimeSlot(15))
            .profile(Profile::uniform(1, EnergyRange::fixed(1.0)))
            .build();
        assert!(e.is_err());
    }

    #[test]
    fn requires_profile() {
        assert!(FlexOffer::builder(7, 1).build().is_err());
    }

    /// An offer's fields, each within its own type's range, that no
    /// node can compute with: the profile is written slice by slice and
    /// the price and bounds may be non-finite.
    struct Raw {
        es: i64,
        ls: i64,
        slices: Vec<(SlotSpan, f64, f64)>,
        price: f64,
    }

    fn raw(es: i64, ls: i64, slices: &[(SlotSpan, f64, f64)]) -> Raw {
        Raw {
            es,
            ls,
            slices: slices.to_vec(),
            price: 0.25,
        }
    }

    impl Raw {
        fn slices(&self) -> Vec<Slice> {
            self.slices
                .iter()
                .map(|&(d, lo, hi)| Slice::new(d, EnergyRange::new(lo, hi).unwrap()).unwrap())
                .collect()
        }

        fn build(&self) -> Result<FlexOffer, DomainError> {
            FlexOffer::builder(9, 1)
                .earliest_start(TimeSlot(self.es))
                .latest_start(TimeSlot(self.ls))
                .profile(Profile::new(self.slices())?)
                .unit_price(Price(self.price))
                .build()
        }

        /// The bytes `FlexOffer::encode` would write, field by field.
        fn encode(&self) -> Vec<u8> {
            let mut out = Vec::new();
            FlexOfferId(9).encode(&mut out);
            ActorId(1).encode(&mut out);
            OfferKind::Consumption.encode(&mut out);
            TimeSlot(self.es).encode(&mut out); // assignment_before
            TimeSlot(self.es).encode(&mut out);
            TimeSlot(self.ls).encode(&mut out);
            self.slices().encode(&mut out);
            Price(self.price).encode(&mut out);
            out
        }
    }

    #[test]
    fn rejects_overflowing_and_non_finite_offers() {
        let inf = f64::INFINITY;
        let mut cases = vec![
            raw(i64::MAX - 5, i64::MAX - 1, &[(8, 1.0, 2.0)]),
            raw(
                0,
                4,
                &[(3_000_000_000, 1.0, 2.0), (3_000_000_000, 1.0, 2.0)],
            ),
            raw(i64::MIN + 10, i64::MAX - 10, &[(1, 1.0, 2.0)]),
            raw(0, 4, &[(2, 1.0, inf)]),
            raw(0, 4, &[(2, -inf, 1.0)]),
        ];
        for price in [f64::NAN, inf] {
            cases.push(Raw {
                price,
                ..raw(0, 4, &[(2, 1.0, 2.0)])
            });
        }
        for case in &cases {
            assert!(case.build().is_err(), "built {:?}", case.slices());
            assert!(FlexOffer::from_bytes(&case.encode()).is_err());
        }
        // The same fields within range encode the offer the builder makes.
        let fine = raw(0, 4, &[(2, 1.0, 2.0)]);
        assert_eq!(fine.encode(), fine.build().unwrap().to_bytes());
    }

    #[test]
    fn expiry_and_assignment_flexibility() {
        let o = ev_offer();
        assert!(!o.is_expired(TimeSlot(80)));
        assert!(o.is_expired(TimeSlot(88)));
        assert_eq!(o.assignment_flexibility(TimeSlot(80)), 8);
        assert_eq!(o.assignment_flexibility(TimeSlot(90)), 0);
    }

    #[test]
    fn production_sign() {
        let o = FlexOffer::builder(8, 1)
            .kind(OfferKind::Production)
            .earliest_start(TimeSlot(0))
            .profile(Profile::uniform(1, EnergyRange::fixed(1.0)))
            .build()
            .unwrap();
        assert_eq!(o.demand_sign(), -1.0);
    }

    #[test]
    fn debug_output_names_the_kind() {
        let o = ev_offer();
        assert!(format!("{o:?}").contains("Consumption"));
    }
}
