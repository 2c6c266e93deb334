//! Reference-model property test for [`ProsumerNode`]: random sequences
//! of submissions, decisions, assignments and clock steps, applied to the
//! node and to the implementation it replaced, must leave both answering
//! every query the same, floats bit for bit.
//!
//! The reference below is the former prosumer kept verbatim: every offer
//! it ever received, whole, in a `BTreeMap` with its status. The node now
//! keeps open offers whole and only a compact record of a committed one,
//! so this pins that dropping the offer at commit loses nothing a query
//! reads — including the order the point query and the committed-load
//! visitor add in, and what `energy_violations` reports at each tolerance.
//!
//! Resubmitting an already-committed offer is left out: the reference
//! double-counts it, and the node's fix has a unit test of its own.

use mirabel_core::{
    Energy, EnergyRange, FlexOffer, FlexOfferId, NodeId, OfferKind, Price, Profile,
    ScheduledFlexOffer, Slice, TimeSlot,
};
use mirabel_edms::{Envelope, Message, ProsumerNode};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// A prosumer's view of one of its offers.
#[derive(Debug, Clone, PartialEq)]
enum OfferStatus {
    /// Submitted, no decision seen yet.
    Pending,
    /// BRP accepted; awaiting assignment.
    Accepted,
    /// Assignment received.
    Assigned(ScheduledFlexOffer),
    /// Open contract applied (rejection, loss or timeout).
    FallenBack(ScheduledFlexOffer),
}

impl OfferStatus {
    /// Still waiting for a decision or an assignment.
    fn is_open(&self) -> bool {
        matches!(self, OfferStatus::Pending | OfferStatus::Accepted)
    }

    /// The schedule the device is committed to, if any, and whether it
    /// came from an assignment (`true`) or the open contract (`false`).
    fn committed(&self) -> Option<(bool, &ScheduledFlexOffer)> {
        match self {
            OfferStatus::Assigned(s) => Some((true, s)),
            OfferStatus::FallenBack(s) => Some((false, s)),
            _ => None,
        }
    }
}

/// The former prosumer node, its queries unchanged.
struct BTreeProsumer {
    offers: BTreeMap<FlexOfferId, (FlexOffer, OfferStatus)>,
    open: usize,
    fallback_count: usize,
    assigned_count: usize,
}

impl BTreeProsumer {
    fn new() -> BTreeProsumer {
        BTreeProsumer {
            offers: BTreeMap::new(),
            open: 0,
            fallback_count: 0,
            assigned_count: 0,
        }
    }

    fn submit(&mut self, offer: FlexOffer) {
        let replaced = self
            .offers
            .insert(offer.id(), (offer.clone(), OfferStatus::Pending));
        if !replaced.is_some_and(|(_, status)| status.is_open()) {
            self.open += 1;
        }
    }

    fn handle(&mut self, envelope: Envelope) {
        match envelope.message {
            Message::OfferAccepted { offer, .. } => {
                if let Some((_, status)) = self.offers.get_mut(&offer) {
                    if *status == OfferStatus::Pending {
                        *status = OfferStatus::Accepted;
                    }
                }
            }
            Message::OfferRejected { offer } => {
                if let Some((o, status)) = self.offers.get_mut(&offer) {
                    if status.is_open() {
                        *status = OfferStatus::FallenBack(ScheduledFlexOffer::open_contract(o));
                        self.fallback_count += 1;
                        self.open -= 1;
                    }
                }
            }
            Message::Assignment { schedule, .. } => {
                if let Some((offer, status)) = self.offers.get_mut(&schedule.offer_id) {
                    if status.is_open() && schedule.validate_against(offer, 1e-6).is_ok() {
                        *status = OfferStatus::Assigned(schedule);
                        self.assigned_count += 1;
                        self.open -= 1;
                    }
                }
            }
            _ => {}
        }
    }

    fn on_slot(&mut self, now: TimeSlot) -> Vec<FlexOfferId> {
        debug_assert_eq!(
            self.open,
            self.offers.values().filter(|(_, s)| s.is_open()).count(),
            "open-offer count drifted from the history"
        );
        let mut fell_back = Vec::new();
        if self.open == 0 {
            return fell_back;
        }
        for (id, (offer, status)) in self.offers.iter_mut() {
            if status.is_open() && offer.is_expired(now) {
                *status = OfferStatus::FallenBack(ScheduledFlexOffer::open_contract(offer));
                self.fallback_count += 1;
                self.open -= 1;
                fell_back.push(*id);
            }
        }
        fell_back
    }

    fn flexible_load_at(&self, t: TimeSlot) -> f64 {
        self.offers
            .values()
            .map(|(offer, status)| match status.committed() {
                Some((_, schedule)) => offer.demand_sign() * schedule.energy_at(t).kwh(),
                None => 0.0,
            })
            .sum()
    }

    fn for_each_committed_load(&self, mut f: impl FnMut(TimeSlot, f64)) {
        for (offer, status) in self.offers.values() {
            let Some((_, schedule)) = status.committed() else {
                continue;
            };
            let sign = offer.demand_sign();
            for (i, e) in schedule.slot_energies.iter().enumerate() {
                f(schedule.start + i as u32, sign * e.kwh());
            }
        }
    }

    fn energy_violations(&self, tol: f64) -> usize {
        self.offers
            .values()
            .filter(|(offer, status)| {
                status
                    .committed()
                    .is_some_and(|(_, s)| s.validate_against(offer, tol).is_err())
            })
            .count()
    }

    fn for_each_committed_in_window(
        &self,
        start: TimeSlot,
        end: TimeSlot,
        mut f: impl FnMut(FlexOfferId, bool, TimeSlot, &[Energy]),
    ) {
        for (id, (o, status)) in &self.offers {
            if o.earliest_start() < start || o.earliest_start() >= end {
                continue;
            }
            if let Some((assigned, s)) = status.committed() {
                f(*id, assigned, s.start, &s.slot_energies);
            }
        }
    }
}

const BRP: NodeId = NodeId(1);
const ME: NodeId = NodeId(10);
/// Every slot an offer generated here can touch lies below this.
const HORIZON: i64 = 80;
const TOLERANCES: [f64; 4] = [0.0, 1e-9, 1e-6, 1e-3];

/// An offer with id `id`: consumption or production, one to three
/// slices.
fn random_offer(rng: &mut StdRng, id: u64) -> FlexOffer {
    let es = rng.gen_range(20i64..50);
    let slices = (0..rng.gen_range(1usize..=3))
        .map(|_| {
            let min = rng.gen_range(0.0..3.0);
            let width = if rng.gen_bool(0.2) {
                0.0
            } else {
                rng.gen_range(0.1..2.0)
            };
            Slice::new(
                rng.gen_range(1u32..=3),
                EnergyRange::new(min, min + width).unwrap(),
            )
            .unwrap()
        })
        .collect();
    FlexOffer::builder(id, 7)
        .kind(if rng.gen_bool(0.3) {
            OfferKind::Production
        } else {
            OfferKind::Consumption
        })
        .earliest_start(TimeSlot(es))
        .time_flexibility(rng.gen_range(0u32..=6))
        .assignment_before(TimeSlot(rng.gen_range(0i64..=es)))
        .profile(Profile::new(slices).unwrap())
        .build()
        .unwrap()
}

/// A schedule for `offer` the prosumer must accept: a start in the
/// window and every slot at one fraction of its range.
fn valid_schedule(rng: &mut StdRng, offer: &FlexOffer) -> ScheduledFlexOffer {
    let start =
        TimeSlot(rng.gen_range(offer.earliest_start().index()..=offer.latest_start().index()));
    ScheduledFlexOffer::at_fraction(offer, start, rng.gen_range(0.0..=1.0))
}

/// A schedule for `offer` of one of the shapes a BRP, a lossy wire or a
/// bug can deliver: valid, off by less than the prosumer's 1e-6
/// tolerance, or invalid in start, length or a slot's energy.
fn random_schedule(rng: &mut StdRng, offer: &FlexOffer) -> ScheduledFlexOffer {
    let mut s = valid_schedule(rng, offer);
    let slot = rng.gen_range(0..s.slot_energies.len());
    let nudge = |s: &mut ScheduledFlexOffer, by: f64, up: bool| {
        let r = offer.profile().slot_ranges().nth(slot).unwrap();
        s.slot_energies[slot] = if up {
            Energy::from_kwh(r.max().kwh() + by)
        } else {
            Energy::from_kwh(r.min().kwh() - by)
        };
    };
    match rng.gen_range(0u32..8) {
        0..=2 => {}
        3 => nudge(&mut s, 5e-7, rng.gen_bool(0.5)),
        4 => nudge(&mut s, 1e-3, rng.gen_bool(0.5)),
        5 => {
            s.start = if rng.gen_bool(0.5) {
                offer.latest_start() + 1
            } else {
                offer.earliest_start() - 1
            };
        }
        6 => {
            if rng.gen_bool(0.5) {
                s.slot_energies.pop();
            } else {
                s.slot_energies.push(Energy::ZERO);
            }
        }
        _ => s = ScheduledFlexOffer::at_fraction(offer, s.start, rng.gen_range(0.0..=1.0)),
    }
    s
}

/// Every query of the node against the reference's answer.
fn assert_same(node: &ProsumerNode, reference: &BTreeProsumer, window: (i64, i64)) {
    assert_eq!(node.assigned_count(), reference.assigned_count, "assigned");
    assert_eq!(node.fallback_count(), reference.fallback_count, "fallbacks");
    assert_eq!(node.offer_count(), reference.offers.len(), "offer count");

    let mut loads = Vec::new();
    node.for_each_committed_load(|t, kwh| loads.push((t, kwh.to_bits())));
    let mut expected = Vec::new();
    reference.for_each_committed_load(|t, kwh| expected.push((t, kwh.to_bits())));
    assert_eq!(loads, expected, "committed loads");

    for (start, end) in [(0, HORIZON), window] {
        let (start, end) = (TimeSlot(start), TimeSlot(end));
        let mut got = Vec::new();
        node.for_each_committed_in_window(start, end, |id, assigned, s, e| {
            got.push((id, assigned, s, e.to_vec()));
        });
        let mut want = Vec::new();
        reference.for_each_committed_in_window(start, end, |id, assigned, s, e| {
            want.push((id, assigned, s, e.to_vec()));
        });
        assert_eq!(got, want, "committed in [{start:?}, {end:?})");
    }

    for t in 0..HORIZON {
        let t = TimeSlot(t);
        assert_eq!(
            node.flexible_load_at(t).to_bits(),
            reference.flexible_load_at(t).to_bits(),
            "flexible load at {t:?}"
        );
    }
    for tol in TOLERANCES {
        assert_eq!(
            node.energy_violations(tol),
            reference.energy_violations(tol),
            "energy violations at {tol}"
        );
    }
}

/// Which paths one run took, read off the reference: the comparison is
/// only as good as the operations that reach it.
#[derive(Debug, Default)]
struct Coverage {
    resubmitted_open: bool,
    accepted_in_band: bool,
    refused: bool,
    late_or_duplicate: bool,
    production_committed: bool,
    committed_out_of_order: bool,
}

impl Coverage {
    fn absorb(&mut self, other: Coverage) {
        self.resubmitted_open |= other.resubmitted_open;
        self.accepted_in_band |= other.accepted_in_band;
        self.refused |= other.refused;
        self.late_or_duplicate |= other.late_or_duplicate;
        self.production_committed |= other.production_committed;
        self.committed_out_of_order |= other.committed_out_of_order;
    }

    fn complete(&self) -> bool {
        self.resubmitted_open
            && self.accepted_in_band
            && self.refused
            && self.late_or_duplicate
            && self.production_committed
            && self.committed_out_of_order
    }
}

/// Committed ids of the reference, ascending.
fn committed_ids(reference: &BTreeProsumer) -> Vec<u64> {
    reference
        .offers
        .iter()
        .filter(|(_, (_, s))| s.committed().is_some())
        .map(|(id, _)| id.value())
        .collect()
}

/// Drive the node and the reference through `steps` random operations
/// drawn from `seed`, comparing them after every one.
fn run(seed: u64, steps: usize) -> Coverage {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut node = ProsumerNode::new(ME, mirabel_core::ActorId(7), BRP);
    let mut reference = BTreeProsumer::new();
    let mut latest: BTreeMap<u64, FlexOffer> = BTreeMap::new();
    let mut sent: Vec<ScheduledFlexOffer> = Vec::new();
    let mut now = 0i64;
    let mut seen = Coverage::default();
    assert_same(&node, &reference, (0, HORIZON));

    for _ in 0..steps {
        let open: Vec<u64> = reference
            .offers
            .iter()
            .filter(|(_, (_, s))| s.is_open())
            .map(|(id, _)| id.value())
            .collect();
        let committed_before = committed_ids(&reference);
        let in_band_before = reference.energy_violations(1e-9);
        // Any id up to 30, known or not: decisions and assignments for
        // unknown or committed ids must change nothing.
        let any_id = rng.gen_range(1u64..=30);
        let message = match rng.gen_range(0u32..10) {
            // A fresh offer, its id anywhere below or above those seen.
            0 | 1 => {
                let fresh: Vec<u64> = (1u64..=30).filter(|id| !latest.contains_key(id)).collect();
                if !fresh.is_empty() {
                    let id = fresh[rng.gen_range(0..fresh.len())];
                    let offer = random_offer(&mut rng, id);
                    latest.insert(id, offer.clone());
                    node.submit(offer.clone(), TimeSlot(now));
                    reference.submit(offer);
                }
                None
            }
            // An open offer again, unchanged or replaced.
            2 => {
                if !open.is_empty() {
                    let id = open[rng.gen_range(0..open.len())];
                    let offer = if rng.gen_bool(0.5) {
                        latest[&id].clone()
                    } else {
                        random_offer(&mut rng, id)
                    };
                    latest.insert(id, offer.clone());
                    node.submit(offer.clone(), TimeSlot(now));
                    reference.submit(offer);
                    seen.resubmitted_open = true;
                }
                None
            }
            3 => Some(Message::OfferAccepted {
                offer: FlexOfferId(any_id),
                value: 0.5,
            }),
            4 => Some(Message::OfferRejected {
                offer: FlexOfferId(any_id),
            }),
            // An assignment: new for a known id (open, or committed and
            // so late), or a duplicate of one sent before.
            5..=7 => {
                let schedule = if !sent.is_empty() && rng.gen_bool(0.2) {
                    Some(sent[rng.gen_range(0..sent.len())].clone())
                } else {
                    latest
                        .get(&any_id)
                        .map(|offer| random_schedule(&mut rng, offer))
                };
                schedule.map(|schedule| {
                    sent.push(schedule.clone());
                    Message::Assignment {
                        schedule,
                        discount_per_kwh: Price(0.02),
                    }
                })
            }
            _ => {
                now += rng.gen_range(0i64..=8);
                let t = TimeSlot(now);
                assert_eq!(node.on_slot(t), reference.on_slot(t), "fallbacks at {t:?}");
                None
            }
        };
        let assigned_before = reference.assigned_count;
        if let Some(message) = message {
            let assigned_id = match &message {
                Message::Assignment { schedule, .. } => Some(schedule.offer_id),
                _ => None,
            };
            let envelope = Envelope::new(BRP, ME, TimeSlot(now), message);
            node.handle(envelope.clone());
            reference.handle(envelope);
            if let Some(id) = assigned_id {
                seen.late_or_duplicate |= committed_before.contains(&id.value());
                seen.refused |= reference.offers[&id].1.is_open();
            }
        }

        let committed_after = committed_ids(&reference);
        let newest_before = committed_before.last().copied().unwrap_or(0);
        for id in committed_after
            .iter()
            .filter(|id| !committed_before.contains(id))
        {
            seen.committed_out_of_order |= *id < newest_before;
            seen.production_committed |= latest[id].kind() == OfferKind::Production;
        }
        seen.accepted_in_band |= reference.assigned_count > assigned_before
            && reference.energy_violations(1e-9) > in_band_before;

        let a = rng.gen_range(0..HORIZON);
        let window = (a, rng.gen_range(a..=HORIZON));
        assert_same(&node, &reference, window);
    }
    seen
}

proptest! {
    #[test]
    fn prosumer_answers_as_the_btree_reference(seed in 0u64..1_000_000, steps in 1usize..80) {
        run(seed, steps);
    }
}

#[test]
fn the_generator_reaches_every_path() {
    let mut seen = Coverage::default();
    for seed in 0..64 {
        seen.absorb(run(seed, 80));
    }
    assert!(seen.complete(), "{seen:?}");
}
