//! The Data Management component (paper §3): "data are persistently
//! stored using a multidimensional schema that can be seen as a
//! combination of star and snowflake schemas. This single, unified schema
//! is flexible enough to support actors at all levels, some of which only
//! use subparts of the schema."
//!
//! In the reproduction's event-sourced split, this store is the **read
//! side**: the durable record of a node is the event log in
//! [`crate::wal`] (every ingested envelope, appended before it is
//! applied), and the store keeps only what the node reads back. It has no
//! persistence of its own: crash recovery rebuilds only what the
//! journal's tail replays through the handlers, since a compacting
//! snapshot carries the pool, not the store. Two tables remain:
//!
//! - **measurements** — metered energy per (slot, actor, energy type),
//!   from [`Message::Measurement`](crate::message::Message) envelopes,
//!   read back as [`DataStore::net_load`]: the measured history a
//!   maintained forecast of the node's load is to be fitted to;
//! - **offer states** — a current-state column, each offer's latest
//!   [`OfferState`] plus a per-state tally kept current on every
//!   transition, so the closing report's [`DataStore::state_counts`] is
//!   O(1).
//!
//! What the store does not keep lives in the journal, when one is
//! attached: the ingested submissions carry each offer's owner and
//! arrival slot, and every committed schedule is a logged `Assignment`
//! marker.

use crate::comm::IdHashBuilder;
use mirabel_core::{ActorId, FlexOfferId, TimeSlot};
use std::collections::{BTreeMap, HashMap};

/// Energy-type dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnergyType {
    /// Metered consumption.
    Consumption,
    /// Metered production.
    Production,
}

/// Lifecycle state of a flex-offer (the flex-offer fact's state
/// dimension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OfferState {
    /// Received and accepted into the pool.
    Accepted,
    /// Waived by the BRP.
    Rejected,
    /// Scheduled and assigned back to the prosumer.
    Assigned,
    /// Assigned by a BRP while islanded from its TSO: the assignment is
    /// binding toward the prosumer but pending TSO-level reconciliation
    /// (adopt or supersede) once the link heals.
    Provisional,
    /// Timed out without assignment; open contract applied.
    Expired,
}

/// Offers per current [`OfferState`], as [`DataStore::state_counts`]
/// tallies them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateCounts([usize; 5]);

impl StateCounts {
    /// Offers whose latest recorded state is `state`.
    pub fn of(&self, state: OfferState) -> usize {
        self.0[state as usize]
    }
}

/// Measurement fact: one metered value per (slot, actor, type).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasurementFact {
    /// Slot key (time dimension is computed from it).
    pub slot: TimeSlot,
    /// Actor key.
    pub actor: ActorId,
    /// Energy type key.
    pub energy_type: EnergyType,
    /// Metered energy (kWh).
    pub kwh: f64,
}

/// Flex-offer lifecycle transition. The store keeps only `offer` and
/// `state`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OfferFact {
    /// Offer key.
    pub offer: FlexOfferId,
    /// Owning actor key.
    pub actor: ActorId,
    /// Slot of the state transition.
    pub slot: TimeSlot,
    /// New state.
    pub state: OfferState,
}

/// The store of one LEDMS node.
#[derive(Debug, Default)]
pub struct DataStore {
    measurements: Vec<MeasurementFact>,
    /// Latest state of each offer ever recorded.
    states: HashMap<FlexOfferId, OfferState, IdHashBuilder>,
    /// `states` tallied by state.
    counts: StateCounts,
}

impl DataStore {
    /// Empty store.
    pub fn new() -> DataStore {
        DataStore::default()
    }

    /// Append a measurement fact.
    pub fn record_measurement(&mut self, fact: MeasurementFact) {
        self.measurements.push(fact);
    }

    /// Move an offer to its new state.
    pub fn record_offer(&mut self, fact: OfferFact) {
        if let Some(old) = self.states.insert(fact.offer, fact.state) {
            self.counts.0[old as usize] -= 1;
        }
        self.counts.0[fact.state as usize] += 1;
    }

    /// Net load (consumption − production) per slot over `[from, to)`.
    pub fn net_load(&self, from: TimeSlot, to: TimeSlot) -> Vec<f64> {
        let len = (to - from).max(0) as usize;
        let mut out = vec![0.0; len];
        for m in &self.measurements {
            if m.slot >= from && m.slot < to {
                let i = (m.slot - from) as usize;
                match m.energy_type {
                    EnergyType::Consumption => out[i] += m.kwh,
                    EnergyType::Production => out[i] -= m.kwh,
                }
            }
        }
        out
    }

    /// Latest recorded state of each offer.
    pub fn offer_states(&self) -> BTreeMap<FlexOfferId, OfferState> {
        self.states
            .iter()
            .map(|(&id, &state)| (id, state))
            .collect()
    }

    /// How many offers currently sit in each lifecycle state.
    pub fn state_counts(&self) -> StateCounts {
        self.counts
    }

    /// Count offers currently in `state`.
    pub fn count_in_state(&self, state: OfferState) -> usize {
        self.counts.of(state)
    }

    /// Row counts `(measurements, offers)`.
    pub fn row_counts(&self) -> (usize, usize) {
        (self.measurements.len(), self.states.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    const STATES: [OfferState; 5] = [
        OfferState::Accepted,
        OfferState::Rejected,
        OfferState::Assigned,
        OfferState::Provisional,
        OfferState::Expired,
    ];

    fn store_with_data() -> DataStore {
        let mut s = DataStore::new();
        for slot in 0..4 {
            s.record_measurement(MeasurementFact {
                slot: TimeSlot(slot),
                actor: ActorId(1),
                energy_type: EnergyType::Consumption,
                kwh: 2.0,
            });
            s.record_measurement(MeasurementFact {
                slot: TimeSlot(slot),
                actor: ActorId(2),
                energy_type: EnergyType::Production,
                kwh: 1.0,
            });
            s.record_measurement(MeasurementFact {
                slot: TimeSlot(slot),
                actor: ActorId(3),
                energy_type: EnergyType::Consumption,
                kwh: 5.0,
            });
        }
        s
    }

    fn fact(offer: u64, slot: i64, state: OfferState) -> OfferFact {
        OfferFact {
            offer: FlexOfferId(offer),
            actor: ActorId(1),
            slot: TimeSlot(slot),
            state,
        }
    }

    #[test]
    fn net_load_subtracts_production() {
        let s = store_with_data();
        assert_eq!(s.net_load(TimeSlot(0), TimeSlot(4)), vec![6.0; 4]);
        assert_eq!(s.net_load(TimeSlot(4), TimeSlot(4)), Vec::<f64>::new());
    }

    #[test]
    fn offer_lifecycle_latest_state_wins() {
        let mut s = DataStore::new();
        s.record_offer(fact(1, 0, OfferState::Accepted));
        s.record_offer(fact(1, 5, OfferState::Assigned));
        s.record_offer(fact(2, 1, OfferState::Expired));
        assert_eq!(s.offer_states()[&FlexOfferId(1)], OfferState::Assigned);
        assert_eq!(s.count_in_state(OfferState::Assigned), 1);
        assert_eq!(s.count_in_state(OfferState::Expired), 1);
        assert_eq!(s.count_in_state(OfferState::Rejected), 0);
        // The tally agrees with the latest-state map, state by state: the
        // superseded `Accepted` fact of offer 1 counts nowhere.
        let counts = s.state_counts();
        for state in STATES {
            let by_map = s.offer_states().values().filter(|&&x| x == state).count();
            assert_eq!(counts.of(state), by_map, "{state:?}");
        }
    }

    #[test]
    fn row_counts() {
        let mut s = store_with_data();
        assert_eq!(s.row_counts(), (12, 0));
        s.record_offer(fact(1, 0, OfferState::Accepted));
        s.record_offer(fact(1, 5, OfferState::Assigned));
        assert_eq!(s.row_counts(), (12, 1));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The state column against the fold it replaced: keep every fact,
        /// walk them newest-first, and the first fact seen for an offer is
        /// its latest state.
        #[test]
        fn state_column_matches_newest_first_fold(
            raw in proptest::collection::vec((0u64..8, 0usize..5), 0..64),
        ) {
            let facts: Vec<OfferFact> = raw
                .iter()
                .enumerate()
                .map(|(slot, &(offer, state))| fact(offer, slot as i64, STATES[state]))
                .collect();
            let mut s = DataStore::new();
            let mut seen = HashSet::new();
            let mut latest = BTreeMap::new();
            let mut counts = [0usize; 5];
            for f in &facts {
                s.record_offer(*f);
            }
            for f in facts.iter().rev() {
                if seen.insert(f.offer) {
                    latest.insert(f.offer, f.state);
                    counts[f.state as usize] += 1;
                }
            }
            prop_assert_eq!(s.offer_states(), latest);
            for state in STATES {
                prop_assert_eq!(s.state_counts().of(state), counts[state as usize]);
                prop_assert_eq!(s.count_in_state(state), counts[state as usize]);
            }
            prop_assert_eq!(s.row_counts().1, seen.len());
        }
    }
}
