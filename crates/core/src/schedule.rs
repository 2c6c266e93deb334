//! Scheduled flex-offers: start time and per-slot energies fixed.

use crate::energy::Energy;
use crate::error::DomainError;
use crate::flexoffer::FlexOffer;
use crate::id::FlexOfferId;
use crate::time::{SlotSpan, TimeSlot};
use std::fmt;

/// The result of scheduling one flex-offer: all flexibility resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledFlexOffer {
    /// The offer this schedule instantiates.
    pub offer_id: FlexOfferId,
    /// Chosen start slot.
    pub start: TimeSlot,
    /// Fixed energy per slot, one entry per slot of the offer's profile.
    pub slot_energies: Vec<Energy>,
}

impl ScheduledFlexOffer {
    /// Schedule `offer` at `start` with every slot at its minimum energy.
    pub fn at_min(offer: &FlexOffer, start: TimeSlot) -> ScheduledFlexOffer {
        ScheduledFlexOffer {
            offer_id: offer.id(),
            start,
            slot_energies: offer.profile().min_schedule(),
        }
    }

    /// Schedule `offer` at `start` with every slot at the same fraction of
    /// its energy range.
    pub fn at_fraction(offer: &FlexOffer, start: TimeSlot, frac: f64) -> ScheduledFlexOffer {
        ScheduledFlexOffer {
            offer_id: offer.id(),
            start,
            slot_energies: offer
                .profile()
                .slot_ranges()
                .map(|r| r.lerp(frac))
                .collect(),
        }
    }

    /// The *open contract* fallback (paper §1): when an offer times out
    /// without an assignment the device simply runs at its earliest start,
    /// maximum energy — the behaviour of the traditional, flexibility-free
    /// grid.
    pub fn open_contract(offer: &FlexOffer) -> ScheduledFlexOffer {
        ScheduledFlexOffer {
            offer_id: offer.id(),
            start: offer.earliest_start(),
            slot_energies: offer.profile().max_schedule(),
        }
    }

    /// Duration in slots.
    pub fn duration(&self) -> SlotSpan {
        self.slot_energies.len() as SlotSpan
    }

    /// First slot after the schedule.
    pub fn end(&self) -> TimeSlot {
        self.start + self.duration()
    }

    /// Total scheduled energy.
    pub fn total_energy(&self) -> Energy {
        self.slot_energies.iter().copied().sum()
    }

    /// Energy in absolute slot `t`, zero outside the scheduled window.
    pub fn energy_at(&self, t: TimeSlot) -> Energy {
        let d = t - self.start;
        if d < 0 || d >= self.slot_energies.len() as i64 {
            Energy::ZERO
        } else {
            self.slot_energies[d as usize]
        }
    }

    /// Validate this schedule against the constraints of `offer`
    /// (identity, start window, per-slot ranges).
    pub fn validate_against(&self, offer: &FlexOffer, eps: f64) -> Result<(), DomainError> {
        if self.offer_id != offer.id() {
            return Err(DomainError::InvalidSchedule(format!(
                "schedule for {} applied to offer {}",
                self.offer_id,
                offer.id()
            )));
        }
        if self.start < offer.earliest_start() || self.start > offer.latest_start() {
            return Err(DomainError::InvalidSchedule(format!(
                "start {} outside [{}, {}]",
                self.start,
                offer.earliest_start(),
                offer.latest_start()
            )));
        }
        if self.slot_energies.len() as SlotSpan != offer.duration() {
            return Err(DomainError::InvalidSchedule(format!(
                "schedule has {} slots, profile has {}",
                self.slot_energies.len(),
                offer.duration()
            )));
        }
        for (i, (e, r)) in self
            .slot_energies
            .iter()
            .zip(offer.profile().slot_ranges())
            .enumerate()
        {
            if !r.contains(*e, eps) {
                return Err(DomainError::InvalidSchedule(format!(
                    "slot {i} energy {e} outside {r}"
                )));
            }
        }
        Ok(())
    }
}

impl fmt::Display for ScheduledFlexOffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @ {} ({} slots, {})",
            self.offer_id,
            self.start,
            self.duration(),
            self.total_energy()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::EnergyRange;
    use crate::flexoffer::OfferKind;
    use crate::profile::Profile;

    fn offer() -> FlexOffer {
        FlexOffer::builder(1, 1)
            .kind(OfferKind::Consumption)
            .earliest_start(TimeSlot(10))
            .latest_start(TimeSlot(20))
            .profile(Profile::uniform(4, EnergyRange::new(1.0, 2.0).unwrap()))
            .build()
            .unwrap()
    }

    #[test]
    fn at_min_validates() {
        let o = offer();
        let s = ScheduledFlexOffer::at_min(&o, TimeSlot(12));
        s.validate_against(&o, 1e-9).unwrap();
        assert!(s.total_energy().approx_eq(Energy::from_kwh(4.0), 1e-12));
        assert_eq!(s.end(), TimeSlot(16));
    }

    #[test]
    fn at_fraction_validates() {
        let o = offer();
        let s = ScheduledFlexOffer::at_fraction(&o, TimeSlot(20), 0.5);
        s.validate_against(&o, 1e-9).unwrap();
        assert!(s.total_energy().approx_eq(Energy::from_kwh(6.0), 1e-12));
    }

    #[test]
    fn open_contract_runs_at_earliest_max() {
        let o = offer();
        let s = ScheduledFlexOffer::open_contract(&o);
        assert_eq!(s.start, o.earliest_start());
        assert!(s.total_energy().approx_eq(Energy::from_kwh(8.0), 1e-12));
        s.validate_against(&o, 1e-9).unwrap();
    }

    #[test]
    fn rejects_start_outside_window() {
        let o = offer();
        let early = ScheduledFlexOffer::at_min(&o, TimeSlot(9));
        assert!(early.validate_against(&o, 1e-9).is_err());
        let late = ScheduledFlexOffer::at_min(&o, TimeSlot(21));
        assert!(late.validate_against(&o, 1e-9).is_err());
    }

    #[test]
    fn rejects_energy_out_of_range() {
        let o = offer();
        let mut s = ScheduledFlexOffer::at_min(&o, TimeSlot(10));
        s.slot_energies[2] = Energy::from_kwh(5.0);
        assert!(s.validate_against(&o, 1e-9).is_err());
    }

    #[test]
    fn rejects_wrong_duration() {
        let o = offer();
        let mut s = ScheduledFlexOffer::at_min(&o, TimeSlot(10));
        s.slot_energies.pop();
        assert!(s.validate_against(&o, 1e-9).is_err());
    }

    #[test]
    fn rejects_wrong_offer_identity() {
        let o = offer();
        let mut s = ScheduledFlexOffer::at_min(&o, TimeSlot(10));
        s.offer_id = FlexOfferId(99);
        assert!(s.validate_against(&o, 1e-9).is_err());
    }

    #[test]
    fn energy_at_windowing() {
        let o = offer();
        let s = ScheduledFlexOffer::at_min(&o, TimeSlot(10));
        assert_eq!(s.energy_at(TimeSlot(9)), Energy::ZERO);
        assert!(s
            .energy_at(TimeSlot(10))
            .approx_eq(Energy::from_kwh(1.0), 1e-12));
        assert!(s
            .energy_at(TimeSlot(13))
            .approx_eq(Energy::from_kwh(1.0), 1e-12));
        assert_eq!(s.energy_at(TimeSlot(14)), Energy::ZERO);
    }
}
