//! The aggregated (macro) flex-offer and its conservative construction.
//!
//! "All internal constraints of an aggregated flex-offer are
//! conservatively produced so that (1) all profiles of the underlying
//! flex-offers can always be shifted in the time flexibility range of the
//! aggregated flex-offer; (2) energy values in the aggregated flex-offer
//! profile are computed by summing the values from the underlying
//! flex-offers profiles." (paper §4)
//!
//! Concretely, members are aligned at their *own* earliest start times;
//! the aggregate starts at the minimum member earliest start and its time
//! flexibility is the **minimum** member time flexibility. Any aggregate
//! start shift `δ` therefore maps to the per-member shift `δ`, which every
//! member admits — the disaggregation requirement holds by construction.

use crate::members::MemberIds;
use mirabel_core::{
    AggregateId, DomainError, EnergyRange, FlexOffer, FlexOfferId, OfferKind, Price, Profile,
    SlotSpan, TimeSlot,
};

/// A macro flex-offer produced by the n-to-1 aggregator.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregatedFlexOffer {
    /// Aggregate identifier.
    pub id: AggregateId,
    /// Consumption or production (members never mix kinds).
    pub kind: OfferKind,
    /// Minimum member earliest start.
    pub earliest_start: TimeSlot,
    /// `earliest_start` + minimum member time flexibility.
    pub latest_start: TimeSlot,
    /// Minimum member assignment deadline.
    pub assignment_before: TimeSlot,
    /// Per-slot Minkowski sum of member profiles at their relative
    /// offsets.
    pub profile: Profile,
    /// Energy-weighted mean member activation price.
    pub unit_price: Price,
    /// Members folded into this aggregate, ascending. Chunked with
    /// per-chunk structural sharing ([`MemberIds`]), so both cloning an
    /// emitted aggregate *and* producing the emission snapshot after a
    /// trickle delta are O(members ⁄ chunk) pointer work — never an
    /// O(members) id copy.
    pub member_ids: MemberIds,
}

impl AggregatedFlexOffer {
    /// Conservatively aggregate `members` into one macro offer.
    ///
    /// # Panics
    /// Panics if `members` is empty or mixes consumption and production
    /// (the group-builder never produces such inputs).
    pub fn build(id: AggregateId, members: &[FlexOffer]) -> AggregatedFlexOffer {
        assert!(!members.is_empty(), "aggregate needs at least one member");
        let kind = members[0].kind();
        assert!(
            members.iter().all(|m| m.kind() == kind),
            "aggregate must not mix consumption and production"
        );

        let earliest_start = members
            .iter()
            .map(|m| m.earliest_start())
            .min()
            .expect("non-empty");
        let time_flex = members
            .iter()
            .map(|m| m.time_flexibility())
            .min()
            .expect("non-empty");
        let assignment_before = members
            .iter()
            .map(|m| m.assignment_before())
            .min()
            .expect("non-empty");

        // Aggregate profile span: alignment at each member's own earliest
        // start, offsets relative to the aggregate's earliest start.
        let span = members
            .iter()
            .map(|m| (m.earliest_start() - earliest_start) as usize + m.duration() as usize)
            .max()
            .expect("non-empty");
        let mut ranges = vec![EnergyRange::ZERO; span];
        for m in members {
            let offset = (m.earliest_start() - earliest_start) as usize;
            for (k, r) in m.profile().slot_ranges().enumerate() {
                ranges[offset + k] = ranges[offset + k].sum(&r);
            }
        }
        let profile = Profile::from_slot_ranges(ranges)
            .expect("span >= 1")
            .normalize();

        // Energy-weighted mean price: what the BRP pays on average per kWh
        // dispatched through this aggregate.
        let mut energy = 0.0;
        let mut weighted = 0.0;
        for m in members {
            let e = m.profile().max_total_energy().kwh();
            energy += e;
            weighted += e * m.unit_price().eur();
        }
        let unit_price = if energy > 0.0 {
            Price(weighted / energy)
        } else {
            Price::ZERO
        };

        let mut member_ids: Vec<FlexOfferId> = members.iter().map(|m| m.id()).collect();
        member_ids.sort_unstable();

        AggregatedFlexOffer {
            id,
            kind,
            earliest_start,
            latest_start: earliest_start + time_flex,
            assignment_before,
            profile,
            unit_price,
            member_ids: member_ids.into_iter().collect(),
        }
    }

    /// Time flexibility of the aggregate in slots.
    pub fn time_flexibility(&self) -> SlotSpan {
        (self.latest_start - self.earliest_start) as SlotSpan
    }

    /// Number of members.
    pub fn member_count(&self) -> usize {
        self.member_ids.len()
    }

    /// Aggregate duration in slots.
    pub fn duration(&self) -> SlotSpan {
        self.profile.total_duration()
    }

    /// View the aggregate as a plain [`FlexOffer`] so the scheduler can
    /// treat micro and macro offers uniformly. The flex-offer id reuses
    /// the aggregate's numeric id (the scheduler round-trips it).
    pub fn to_flex_offer(&self) -> Result<FlexOffer, DomainError> {
        self.to_flex_offer_as(self.id.value(), 0)
    }

    /// Like [`to_flex_offer`](Self::to_flex_offer), but under a caller-
    /// chosen id and owner — what a BRP uses to export this aggregate
    /// up the hierarchy in a globally-unique id space. Both views apply
    /// the same constraint mapping (including the assignment-deadline
    /// clamp), so the exported wire value can never diverge from what
    /// local consumers derive.
    pub fn to_flex_offer_as(&self, id: u64, owner: u64) -> Result<FlexOffer, DomainError> {
        FlexOffer::builder(id, owner)
            .kind(self.kind)
            .earliest_start(self.earliest_start)
            .latest_start(self.latest_start)
            .assignment_before(self.assignment_before.min(self.earliest_start))
            .profile(self.profile.clone())
            .unit_price(self.unit_price)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirabel_core::Energy;

    fn member(id: u64, start: i64, tf: u32, slots: u32, lo: f64, hi: f64) -> FlexOffer {
        FlexOffer::builder(id, 1)
            .earliest_start(TimeSlot(start))
            .time_flexibility(tf)
            .assignment_before(TimeSlot(start - 2))
            .profile(Profile::uniform(slots, EnergyRange::new(lo, hi).unwrap()))
            .unit_price(Price(0.05))
            .build()
            .unwrap()
    }

    #[test]
    fn identical_members_sum_profiles() {
        let a = member(1, 10, 4, 2, 1.0, 2.0);
        let b = member(2, 10, 4, 2, 1.0, 2.0);
        let agg = AggregatedFlexOffer::build(AggregateId(0), &[a, b]);
        assert_eq!(agg.earliest_start, TimeSlot(10));
        assert_eq!(agg.time_flexibility(), 4);
        assert_eq!(agg.duration(), 2);
        assert!(agg
            .profile
            .min_total_energy()
            .approx_eq(Energy::from_kwh(4.0), 1e-12));
        assert!(agg
            .profile
            .max_total_energy()
            .approx_eq(Energy::from_kwh(8.0), 1e-12));
        assert_eq!(agg.member_count(), 2);
    }

    #[test]
    fn time_flexibility_is_minimum() {
        let a = member(1, 10, 8, 2, 1.0, 2.0);
        let b = member(2, 10, 3, 2, 1.0, 2.0);
        let agg = AggregatedFlexOffer::build(AggregateId(0), &[a, b]);
        assert_eq!(agg.time_flexibility(), 3);
    }

    #[test]
    fn offset_members_widen_profile() {
        // starts 10 and 12, both 2 slots: aggregate spans 4 slots.
        let a = member(1, 10, 4, 2, 1.0, 1.0);
        let b = member(2, 12, 4, 2, 2.0, 2.0);
        let agg = AggregatedFlexOffer::build(AggregateId(0), &[a, b]);
        assert_eq!(agg.duration(), 4);
        let flat: Vec<EnergyRange> = agg.profile.slot_ranges().collect();
        assert_eq!(flat[0], EnergyRange::fixed(1.0));
        assert_eq!(flat[1], EnergyRange::fixed(1.0));
        assert_eq!(flat[2], EnergyRange::fixed(2.0));
        assert_eq!(flat[3], EnergyRange::fixed(2.0));
    }

    #[test]
    fn overlapping_offsets_sum_ranges() {
        let a = member(1, 10, 4, 3, 1.0, 2.0); // slots 10,11,12
        let b = member(2, 11, 4, 1, 5.0, 7.0); // slot 11
        let agg = AggregatedFlexOffer::build(AggregateId(0), &[a, b]);
        let flat: Vec<EnergyRange> = agg.profile.slot_ranges().collect();
        assert_eq!(flat.len(), 3);
        assert_eq!(flat[1], EnergyRange::new(6.0, 9.0).unwrap());
    }

    #[test]
    fn assignment_deadline_is_minimum() {
        let a = member(1, 10, 4, 2, 1.0, 2.0); // ab = 8
        let b = member(2, 20, 4, 2, 1.0, 2.0); // ab = 18
        let agg = AggregatedFlexOffer::build(AggregateId(0), &[a, b]);
        assert_eq!(agg.assignment_before, TimeSlot(8));
    }

    #[test]
    fn price_is_energy_weighted() {
        let a = FlexOffer::builder(1, 1)
            .earliest_start(TimeSlot(10))
            .time_flexibility(4)
            .profile(Profile::uniform(1, EnergyRange::fixed(1.0)))
            .unit_price(Price(0.10))
            .build()
            .unwrap();
        let b = FlexOffer::builder(2, 1)
            .earliest_start(TimeSlot(10))
            .time_flexibility(4)
            .profile(Profile::uniform(1, EnergyRange::fixed(3.0)))
            .unit_price(Price(0.02))
            .build()
            .unwrap();
        let agg = AggregatedFlexOffer::build(AggregateId(0), &[a, b]);
        // (1*0.10 + 3*0.02) / 4 = 0.04
        assert!(agg.unit_price.approx_eq(Price(0.04), 1e-12));
    }

    #[test]
    fn to_flex_offer_roundtrip() {
        let a = member(1, 10, 4, 2, 1.0, 2.0);
        let b = member(2, 12, 6, 3, 0.5, 0.5);
        let agg = AggregatedFlexOffer::build(AggregateId(7), &[a, b]);
        let fo = agg.to_flex_offer().unwrap();
        assert_eq!(fo.id().value(), 7);
        assert_eq!(fo.earliest_start(), agg.earliest_start);
        assert_eq!(fo.time_flexibility(), agg.time_flexibility());
        assert_eq!(fo.duration(), agg.duration());
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_members_panics() {
        AggregatedFlexOffer::build(AggregateId(0), &[]);
    }

    #[test]
    #[should_panic(expected = "must not mix")]
    fn mixed_kinds_panic() {
        let a = member(1, 10, 4, 2, 1.0, 2.0);
        let b = FlexOffer::builder(2, 1)
            .kind(OfferKind::Production)
            .earliest_start(TimeSlot(10))
            .profile(Profile::uniform(1, EnergyRange::fixed(1.0)))
            .build()
            .unwrap();
        AggregatedFlexOffer::build(AggregateId(0), &[a, b]);
    }

    #[test]
    fn profile_is_normalized() {
        let a = member(1, 10, 4, 2, 1.0, 2.0);
        let b = member(2, 10, 4, 2, 1.0, 2.0);
        let agg = AggregatedFlexOffer::build(AggregateId(0), &[a, b]);
        // identical per-slot ranges merge into one slice
        assert_eq!(agg.profile.slice_count(), 1);
    }
}
