//! Flex-offer acceptance (paper §7).
//!
//! "Before taking a flex-offer into account the BRP has to decide whether
//! it is potentially profitable. The BRP must be able to reject a
//! flex-offer that generate\[s\] loss or can not be processed in time. …
//! the rejection of a flex-offer does not imply that the Prosumer is not
//! allowed to produce or consume the energy based on his tariff."

use crate::pricing::PreExecutionPricing;
use mirabel_core::{FlexOffer, SlotSpan, TimeSlot};

/// Why an offer was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectionReason {
    /// The assignment deadline leaves less than the BRP's minimum
    /// processing time.
    TooLateToProcess,
    /// The estimated flexibility value is below the profitability floor.
    NotProfitable,
}

/// The BRP's verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AcceptanceDecision {
    /// Taken into the aggregation/scheduling pool; carries the estimated
    /// value in `[0, 1]`.
    Accept {
        /// Estimated pre-execution flexibility value.
        value: f64,
    },
    /// Waived — the prosumer falls back to the open contract.
    Reject(RejectionReason),
}

/// Acceptance policy: minimum processing lead time and value floor.
#[derive(Debug, Clone, Copy)]
pub struct AcceptancePolicy {
    /// Pricing scheme supplying the value estimate.
    pub pricing: PreExecutionPricing,
    /// "The BRP needs a minimum of time to process a flex-offer": slots
    /// required between `now` and the assignment deadline.
    pub min_processing_slots: SlotSpan,
    /// Minimum estimated value for the offer to be profitable.
    pub min_value: f64,
}

impl Default for AcceptancePolicy {
    fn default() -> AcceptancePolicy {
        AcceptancePolicy {
            pricing: PreExecutionPricing::default(),
            min_processing_slots: 4, // one hour
            min_value: 0.05,
        }
    }
}

impl AcceptancePolicy {
    /// Decide on `offer` at time `now`.
    pub fn decide(&self, offer: &FlexOffer, now: TimeSlot) -> AcceptanceDecision {
        if offer.assignment_flexibility(now) < self.min_processing_slots {
            return AcceptanceDecision::Reject(RejectionReason::TooLateToProcess);
        }
        let value = self.pricing.value(offer, now);
        if value < self.min_value {
            return AcceptanceDecision::Reject(RejectionReason::NotProfitable);
        }
        AcceptanceDecision::Accept { value }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirabel_core::{EnergyRange, Profile};

    fn offer(tf: u32, width: f64, deadline: i64) -> FlexOffer {
        FlexOffer::builder(1, 1)
            .earliest_start(TimeSlot(100))
            .time_flexibility(tf)
            .assignment_before(TimeSlot(deadline))
            .profile(Profile::uniform(
                4,
                EnergyRange::new(1.0, 1.0 + width).unwrap(),
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn accepts_flexible_timely_offer() {
        let policy = AcceptancePolicy::default();
        let d = policy.decide(&offer(24, 1.0, 90), TimeSlot(40));
        assert!(matches!(d, AcceptanceDecision::Accept { .. }));
        if let AcceptanceDecision::Accept { value } = d {
            assert!(value >= policy.min_value);
        }
    }

    #[test]
    fn rejects_late_offer() {
        let policy = AcceptancePolicy::default();
        // deadline at 90, now 88: only 2 slots < 4 required
        let d = policy.decide(&offer(24, 1.0, 90), TimeSlot(88));
        assert_eq!(
            d,
            AcceptanceDecision::Reject(RejectionReason::TooLateToProcess)
        );
        // already expired
        let d2 = policy.decide(&offer(24, 1.0, 90), TimeSlot(95));
        assert!(matches!(d2, AcceptanceDecision::Reject(_)));
    }

    #[test]
    fn rejects_worthless_offer() {
        let policy = AcceptancePolicy::default();
        let d = policy.decide(&offer(0, 0.0, 90), TimeSlot(40));
        assert_eq!(
            d,
            AcceptanceDecision::Reject(RejectionReason::NotProfitable)
        );
    }

    #[test]
    fn boundary_processing_time_accepted() {
        let policy = AcceptancePolicy::default();
        // exactly min_processing_slots of lead
        let d = policy.decide(&offer(24, 1.0, 90), TimeSlot(86));
        assert!(matches!(d, AcceptanceDecision::Accept { .. }));
    }
}
