//! The Data Management component (paper §3): "data are persistently
//! stored using a multidimensional schema that can be seen as a
//! combination of star and snowflake schemas. This single, unified schema
//! is flexible enough to support actors at all levels, some of which only
//! use subparts of the schema."
//!
//! In the reproduction's event-sourced split, this store is the **read
//! side**: the durable record of a node is the event log in
//! [`crate::wal`] (every ingested envelope, appended before it is
//! applied), and the facts here are *materializations* of that event
//! stream into the queryable shape the control loop needs — each
//! [`crate::brp::BrpNode`] handler that appends a wire event also
//! upserts the corresponding fact rows. Replaying the log through the
//! handlers (crash recovery) rebuilds the same rows, so the store needs
//! no persistence story of its own.
//!
//! Dimensions: time (derived from the slot index), actor, energy type and
//! market area (snowflaked off the actor dimension). Fact tables:
//! measurements, flex-offer lifecycle events, schedules and prices.
//! Queries are the star-join aggregations the control loop needs.

use crate::comm::IdHashBuilder;
use mirabel_core::{ActorId, FlexOfferId, Price, TimeSlot};
use std::collections::{BTreeMap, HashSet};

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

/// Actor dimension row; `market_area` snowflakes into the market-area
/// dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct ActorDim {
    /// The actor key.
    pub actor: ActorId,
    /// Display name.
    pub name: String,
    /// Market area key (e.g. bidding zone).
    pub market_area: u32,
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

/// Flex-offer lifecycle fact.
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

/// Schedule fact: the resolved assignment of one offer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleFact {
    /// Offer key.
    pub offer: FlexOfferId,
    /// Assigned start.
    pub start: TimeSlot,
    /// Total scheduled energy (kWh).
    pub total_kwh: f64,
    /// Agreed discount (EUR/kWh).
    pub discount: Price,
}

/// Forecast fact: a published net-load forecast value for a future slot.
/// Several publications for the same slot may exist; the freshest wins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForecastFact {
    /// The forecast target slot.
    pub slot: TimeSlot,
    /// Forecast net load (kWh, consumption minus production).
    pub net_kwh: f64,
    /// When the forecast was published.
    pub published_at: TimeSlot,
}

/// Price fact per (market area, slot).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriceFact {
    /// Market-area key.
    pub market_area: u32,
    /// Slot key.
    pub slot: TimeSlot,
    /// Buy price (EUR/kWh).
    pub buy: f64,
    /// Sell price (EUR/kWh).
    pub sell: f64,
}

/// The star-schema store of one LEDMS node.
#[derive(Debug, Default)]
pub struct DataStore {
    actors: BTreeMap<ActorId, ActorDim>,
    measurements: Vec<MeasurementFact>,
    offers: Vec<OfferFact>,
    schedules: Vec<ScheduleFact>,
    prices: Vec<PriceFact>,
    forecasts: Vec<ForecastFact>,
}

impl DataStore {
    /// Empty store.
    pub fn new() -> DataStore {
        DataStore::default()
    }

    /// Upsert an actor-dimension row.
    pub fn upsert_actor(&mut self, row: ActorDim) {
        self.actors.insert(row.actor, row);
    }

    /// Actor-dimension lookup.
    pub fn actor(&self, id: ActorId) -> Option<&ActorDim> {
        self.actors.get(&id)
    }

    /// Append a measurement fact.
    pub fn record_measurement(&mut self, fact: MeasurementFact) {
        self.measurements.push(fact);
    }

    /// Append an offer lifecycle fact.
    pub fn record_offer(&mut self, fact: OfferFact) {
        self.offers.push(fact);
    }

    /// Append a schedule fact.
    pub fn record_schedule(&mut self, fact: ScheduleFact) {
        self.schedules.push(fact);
    }

    /// Append a price fact.
    pub fn record_price(&mut self, fact: PriceFact) {
        self.prices.push(fact);
    }

    /// Append a forecast fact.
    pub fn record_forecast(&mut self, fact: ForecastFact) {
        self.forecasts.push(fact);
    }

    /// Seamless past/current/forecast integration (paper §10 future
    /// work): net load per slot over `[from, to)`, served from
    /// measurements for slots at or before `now` and from the freshest
    /// published forecast for future slots. Slots with neither source
    /// yield `None`.
    pub fn unified_net_load(
        &self,
        from: TimeSlot,
        to: TimeSlot,
        now: TimeSlot,
    ) -> Vec<Option<f64>> {
        let len = (to - from).max(0) as usize;
        let mut out: Vec<Option<f64>> = vec![None; len];
        // Past and current: measured net load.
        for m in &self.measurements {
            if m.slot >= from && m.slot < to && m.slot <= now {
                let i = (m.slot - from) as usize;
                let signed = match m.energy_type {
                    EnergyType::Consumption => m.kwh,
                    EnergyType::Production => -m.kwh,
                };
                *out[i].get_or_insert(0.0) += signed;
            }
        }
        // Future: freshest forecast per slot.
        let mut freshest: BTreeMap<i64, (TimeSlot, f64)> = BTreeMap::new();
        for f in &self.forecasts {
            if f.slot >= from && f.slot < to && f.slot > now {
                match freshest.get(&f.slot.index()) {
                    Some((published, _)) if *published >= f.published_at => {}
                    _ => {
                        freshest.insert(f.slot.index(), (f.published_at, f.net_kwh));
                    }
                }
            }
        }
        for (slot_idx, (_, v)) in freshest {
            let i = (slot_idx - from.index()) as usize;
            out[i] = Some(v);
        }
        out
    }

    /// Star join: total energy by actor over `[from, to)` for one energy
    /// type.
    pub fn energy_by_actor(
        &self,
        energy_type: EnergyType,
        from: TimeSlot,
        to: TimeSlot,
    ) -> BTreeMap<ActorId, f64> {
        let mut out = BTreeMap::new();
        for m in &self.measurements {
            if m.energy_type == energy_type && m.slot >= from && m.slot < to {
                *out.entry(m.actor).or_insert(0.0) += m.kwh;
            }
        }
        out
    }

    /// Star join through the snowflaked market-area dimension: total
    /// energy per market area.
    pub fn energy_by_market_area(
        &self,
        energy_type: EnergyType,
        from: TimeSlot,
        to: TimeSlot,
    ) -> BTreeMap<u32, f64> {
        let mut out = BTreeMap::new();
        for m in &self.measurements {
            if m.energy_type == energy_type && m.slot >= from && m.slot < to {
                if let Some(actor) = self.actors.get(&m.actor) {
                    *out.entry(actor.market_area).or_insert(0.0) += m.kwh;
                }
            }
        }
        out
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
        let mut out = BTreeMap::new();
        for f in &self.offers {
            out.insert(f.offer, f.state); // facts are appended in time order
        }
        out
    }

    /// How many offers currently sit in each lifecycle state, from one
    /// pass over the offer facts: walking newest-first, the first fact
    /// seen for an offer is its latest state. O(facts), one id set, no
    /// ordered map — the closing report of a run asks for every state of
    /// every BRP, so it calls this once per store instead of
    /// [`DataStore::count_in_state`] once per state.
    pub fn state_counts(&self) -> StateCounts {
        let mut seen: HashSet<FlexOfferId, IdHashBuilder> =
            HashSet::with_capacity_and_hasher(self.offers.len() / 2, IdHashBuilder::default());
        let mut counts = StateCounts::default();
        for f in self.offers.iter().rev() {
            if seen.insert(f.offer) {
                counts.0[f.state as usize] += 1;
            }
        }
        counts
    }

    /// Count offers currently in `state`. A full
    /// [`DataStore::state_counts`] pass per call: ask for the counts once
    /// when more than one state is wanted.
    pub fn count_in_state(&self, state: OfferState) -> usize {
        self.state_counts().of(state)
    }

    /// Total scheduled energy and flexibility credit over all schedule
    /// facts.
    pub fn scheduled_totals(&self) -> (f64, Price) {
        let mut kwh = 0.0;
        let mut credit = Price::ZERO;
        for s in &self.schedules {
            kwh += s.total_kwh;
            credit += s.discount * s.total_kwh;
        }
        (kwh, credit)
    }

    /// Fact-table row counts
    /// `(measurements, offers, schedules, prices, forecasts)`.
    pub fn row_counts(&self) -> (usize, usize, usize, usize, usize) {
        (
            self.measurements.len(),
            self.offers.len(),
            self.schedules.len(),
            self.prices.len(),
            self.forecasts.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with_data() -> DataStore {
        let mut s = DataStore::new();
        s.upsert_actor(ActorDim {
            actor: ActorId(1),
            name: "home-1".into(),
            market_area: 10,
        });
        s.upsert_actor(ActorDim {
            actor: ActorId(2),
            name: "pv-2".into(),
            market_area: 10,
        });
        s.upsert_actor(ActorDim {
            actor: ActorId(3),
            name: "plant-3".into(),
            market_area: 20,
        });
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

    #[test]
    fn energy_by_actor_filters_type_and_window() {
        let s = store_with_data();
        let by_actor = s.energy_by_actor(EnergyType::Consumption, TimeSlot(0), TimeSlot(2));
        assert_eq!(by_actor[&ActorId(1)], 4.0);
        assert_eq!(by_actor[&ActorId(3)], 10.0);
        assert!(!by_actor.contains_key(&ActorId(2)));
    }

    #[test]
    fn snowflake_join_groups_by_market_area() {
        let s = store_with_data();
        let by_area = s.energy_by_market_area(EnergyType::Consumption, TimeSlot(0), TimeSlot(4));
        assert_eq!(by_area[&10], 8.0);
        assert_eq!(by_area[&20], 20.0);
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
        s.record_offer(OfferFact {
            offer: FlexOfferId(1),
            actor: ActorId(1),
            slot: TimeSlot(0),
            state: OfferState::Accepted,
        });
        s.record_offer(OfferFact {
            offer: FlexOfferId(1),
            actor: ActorId(1),
            slot: TimeSlot(5),
            state: OfferState::Assigned,
        });
        s.record_offer(OfferFact {
            offer: FlexOfferId(2),
            actor: ActorId(1),
            slot: TimeSlot(1),
            state: OfferState::Expired,
        });
        assert_eq!(s.offer_states()[&FlexOfferId(1)], OfferState::Assigned);
        assert_eq!(s.count_in_state(OfferState::Assigned), 1);
        assert_eq!(s.count_in_state(OfferState::Expired), 1);
        assert_eq!(s.count_in_state(OfferState::Rejected), 0);
        // The one-pass tally agrees with the latest-state map, state by
        // state: the superseded `Accepted` fact of offer 1 counts nowhere.
        let counts = s.state_counts();
        for state in [
            OfferState::Accepted,
            OfferState::Rejected,
            OfferState::Assigned,
            OfferState::Provisional,
            OfferState::Expired,
        ] {
            let by_map = s.offer_states().values().filter(|&&x| x == state).count();
            assert_eq!(counts.of(state), by_map, "{state:?}");
        }
    }

    #[test]
    fn scheduled_totals_accumulate() {
        let mut s = DataStore::new();
        s.record_schedule(ScheduleFact {
            offer: FlexOfferId(1),
            start: TimeSlot(3),
            total_kwh: 10.0,
            discount: Price(0.02),
        });
        s.record_schedule(ScheduleFact {
            offer: FlexOfferId(2),
            start: TimeSlot(4),
            total_kwh: 5.0,
            discount: Price(0.04),
        });
        let (kwh, credit) = s.scheduled_totals();
        assert_eq!(kwh, 15.0);
        assert!(credit.approx_eq(Price(0.4), 1e-12));
    }

    #[test]
    fn row_counts() {
        let s = store_with_data();
        let (m, o, sc, p, f) = s.row_counts();
        assert_eq!(m, 12);
        assert_eq!((o, sc, p, f), (0, 0, 0, 0));
    }

    #[test]
    fn unified_net_load_stitches_past_and_forecast() {
        let mut s = store_with_data(); // measurements for slots 0..4

        // Forecasts for slots 3..8, published at slot 2 and refreshed at 3.
        for slot in 3..8 {
            s.record_forecast(ForecastFact {
                slot: TimeSlot(slot),
                net_kwh: 100.0,
                published_at: TimeSlot(2),
            });
        }
        s.record_forecast(ForecastFact {
            slot: TimeSlot(5),
            net_kwh: 42.0,
            published_at: TimeSlot(3), // fresher forecast for slot 5
        });
        let unified = s.unified_net_load(TimeSlot(0), TimeSlot(8), TimeSlot(3));
        // slots 0..=3: measured net load (2 + 5 - 1 = 6 kWh)
        for (i, v) in unified.iter().take(4).enumerate() {
            assert_eq!(*v, Some(6.0), "slot {i}");
        }
        // slots 4, 6, 7: stale forecast; slot 5: refreshed forecast
        assert_eq!(unified[4], Some(100.0));
        assert_eq!(unified[5], Some(42.0));
        assert_eq!(unified[6], Some(100.0));
        assert_eq!(unified[7], Some(100.0));
    }

    #[test]
    fn unified_net_load_gaps_are_none() {
        let s = DataStore::new();
        let unified = s.unified_net_load(TimeSlot(0), TimeSlot(3), TimeSlot(1));
        assert_eq!(unified, vec![None, None, None]);
    }

    #[test]
    fn unified_net_load_measurement_beats_forecast_for_past() {
        let mut s = store_with_data();
        // a (stale) forecast exists for an already-measured slot: the
        // measurement wins because the slot is not in the future
        s.record_forecast(ForecastFact {
            slot: TimeSlot(2),
            net_kwh: 999.0,
            published_at: TimeSlot(0),
        });
        let unified = s.unified_net_load(TimeSlot(0), TimeSlot(4), TimeSlot(3));
        assert_eq!(unified[2], Some(6.0));
    }
}
