//! The level-1 prosumer node.
//!
//! Issues flex-offers to its BRP, executes the assignments it receives,
//! and — crucially for the paper's fault-tolerance story — falls back to
//! the *open contract* (earliest start, maximum energy) whenever an offer
//! passes its assignment deadline without a schedule, whether because the
//! BRP rejected it, the message was lost, or the deadline was missed.

use crate::message::{Envelope, Message};
use crate::runtime::Node;
use mirabel_core::{ActorId, Energy, FlexOffer, FlexOfferId, NodeId, ScheduledFlexOffer, TimeSlot};
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

/// The level-1 node.
#[derive(Debug)]
pub struct ProsumerNode {
    /// This node's id.
    pub id: NodeId,
    /// The metered actor behind the node.
    pub actor: ActorId,
    /// The responsible BRP's node id.
    pub brp: NodeId,
    offers: BTreeMap<FlexOfferId, (FlexOffer, OfferStatus)>,
    /// Offers still `Pending` or `Accepted`. The history only grows, so
    /// [`ProsumerNode::on_slot`] consults this before walking it.
    open: usize,
    fallback_count: usize,
    assigned_count: usize,
}

impl ProsumerNode {
    /// Create a prosumer attached to `brp`.
    pub fn new(id: NodeId, actor: ActorId, brp: NodeId) -> ProsumerNode {
        ProsumerNode {
            id,
            actor,
            brp,
            offers: BTreeMap::new(),
            open: 0,
            fallback_count: 0,
            assigned_count: 0,
        }
    }

    /// Submit a flex-offer; returns the envelope for the network.
    pub fn submit(&mut self, offer: FlexOffer, now: TimeSlot) -> Envelope {
        let replaced = self
            .offers
            .insert(offer.id(), (offer.clone(), OfferStatus::Pending));
        if !replaced.is_some_and(|(_, status)| status.is_open()) {
            self.open += 1;
        }
        Envelope::new(self.id, self.brp, now, Message::SubmitOffer(offer))
    }

    /// Handle an incoming message.
    pub fn handle(&mut self, envelope: Envelope) {
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
                    // Late assignments (after fallback) are ignored: the
                    // device is already committed to the open contract.
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

    /// Advance the clock: any offer whose assignment deadline has passed
    /// without an assignment falls back to the open contract. Returns the
    /// offers that fell back this step. With nothing open — the usual
    /// case once a cycle's assignments have arrived — it returns without
    /// touching the offer history.
    pub fn on_slot(&mut self, now: TimeSlot) -> Vec<FlexOfferId> {
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

    /// Realized flexible energy at slot `t`: the sum over all committed
    /// (assigned or fallen-back) schedules, in offer-id order.
    /// Consumption positive.
    ///
    /// A point query that walks the node's whole offer history, so
    /// O(history) per call. The closing report of a run does not call it
    /// per slot — it fills a ledger from
    /// [`ProsumerNode::for_each_committed_load`] instead — but must
    /// reproduce what summing this over the prosumers would give, bit for
    /// bit: this is the accounting's reference, and its oracle in tests.
    pub fn flexible_load_at(&self, t: TimeSlot) -> f64 {
        self.offers
            .values()
            .map(|(offer, status)| match status.committed() {
                Some((_, schedule)) => offer.demand_sign() * schedule.energy_at(t).kwh(),
                None => 0.0,
            })
            .sum()
    }

    /// Visit `(slot, signed kWh)` for every slot of every committed
    /// (assigned or fallen-back) schedule: offers ascending by id, each
    /// schedule's slots ascending, consumption positive. One pass over
    /// the history, O(offers × duration) — every non-zero term
    /// [`ProsumerNode::flexible_load_at`] would add for any slot, each
    /// exactly once and in the same per-slot order.
    pub fn for_each_committed_load(&self, mut f: impl FnMut(TimeSlot, f64)) {
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

    /// Committed schedules (assigned or fallen back) whose energy
    /// profile violates the originating offer's bounds by more than
    /// `tol` — the chaos invariant checker's energy-conservation probe.
    /// Stays 0 unless a handler ever accepted an invalid schedule.
    pub fn energy_violations(&self, tol: f64) -> usize {
        self.offers
            .values()
            .filter(|(offer, status)| {
                status
                    .committed()
                    .is_some_and(|(_, s)| s.validate_against(offer, tol).is_err())
            })
            .count()
    }

    /// Visit the committed execution of every offer whose earliest start
    /// falls in `[start, end)`: `(offer id, assigned?, schedule start,
    /// per-slot energies)`, ascending by offer id. Offer ids here are
    /// the stable sim-assigned micro ids, so two runs that converge to
    /// the same plans visit bit-identical tuples — the basis of the
    /// chaos campaign's per-cycle plan signatures. Visitor-style so the
    /// per-cycle signature hash allocates nothing.
    pub fn for_each_committed_in_window(
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

    /// Offers that ended in the open contract.
    pub fn fallback_count(&self) -> usize {
        self.fallback_count
    }

    /// Offers executed under a BRP assignment.
    pub fn assigned_count(&self) -> usize {
        self.assigned_count
    }

    /// All offers ever submitted.
    pub fn offer_count(&self) -> usize {
        self.offers.len()
    }

    /// Every offer ever submitted, ascending by id — what the closing
    /// report's test oracle rebuilds the open-contract world from.
    #[cfg(test)]
    pub(crate) fn submitted_offers(&self) -> impl Iterator<Item = &FlexOffer> {
        self.offers.values().map(|(offer, _)| offer)
    }
}

impl Node for ProsumerNode {
    fn node_id(&self) -> NodeId {
        self.id
    }

    /// Level 1 in the unified hierarchy: prosumers consume decisions and
    /// assignments but never reply on the spot (their own messages
    /// originate from [`ProsumerNode::submit`]).
    fn handle(&mut self, envelope: Envelope, _now: TimeSlot) -> Vec<Envelope> {
        ProsumerNode::handle(self, envelope);
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirabel_core::{EnergyRange, Price, Profile};

    fn offer(id: u64, es: i64, deadline: i64) -> FlexOffer {
        FlexOffer::builder(id, 7)
            .earliest_start(TimeSlot(es))
            .time_flexibility(8)
            .assignment_before(TimeSlot(deadline))
            .profile(Profile::uniform(2, EnergyRange::new(1.0, 2.0).unwrap()))
            .build()
            .unwrap()
    }

    fn node() -> ProsumerNode {
        ProsumerNode::new(NodeId(10), ActorId(7), NodeId(1))
    }

    #[test]
    fn submit_targets_brp() {
        let mut p = node();
        let env = p.submit(offer(1, 20, 10), TimeSlot(0));
        assert_eq!(env.to, NodeId(1));
        assert!(matches!(env.message, Message::SubmitOffer(_)));
        assert_eq!(p.offer_count(), 1);
    }

    #[test]
    fn assignment_executes() {
        let mut p = node();
        let o = offer(1, 20, 10);
        p.submit(o.clone(), TimeSlot(0));
        let schedule = ScheduledFlexOffer::at_min(&o, TimeSlot(22));
        p.handle(Envelope::new(
            NodeId(1),
            NodeId(10),
            TimeSlot(5),
            Message::Assignment {
                schedule,
                discount_per_kwh: Price(0.02),
            },
        ));
        assert_eq!(p.assigned_count(), 1);
        assert!(p.flexible_load_at(TimeSlot(22)) > 0.0);
        assert_eq!(p.flexible_load_at(TimeSlot(30)), 0.0);
    }

    #[test]
    fn invalid_assignment_ignored() {
        let mut p = node();
        let o = offer(1, 20, 10);
        p.submit(o.clone(), TimeSlot(0));
        let mut schedule = ScheduledFlexOffer::at_min(&o, TimeSlot(22));
        schedule.start = TimeSlot(99); // outside window
        p.handle(Envelope::new(
            NodeId(1),
            NodeId(10),
            TimeSlot(5),
            Message::Assignment {
                schedule,
                discount_per_kwh: Price(0.02),
            },
        ));
        assert_eq!(p.assigned_count(), 0);
    }

    #[test]
    fn rejection_falls_back_to_open_contract() {
        let mut p = node();
        let o = offer(1, 20, 10);
        p.submit(o.clone(), TimeSlot(0));
        p.handle(Envelope::new(
            NodeId(1),
            NodeId(10),
            TimeSlot(2),
            Message::OfferRejected {
                offer: FlexOfferId(1),
            },
        ));
        assert_eq!(p.fallback_count(), 1);
        // open contract: earliest start, max energy
        assert!((p.flexible_load_at(TimeSlot(20)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn deadline_timeout_falls_back() {
        let mut p = node();
        p.submit(offer(1, 20, 10), TimeSlot(0));
        assert!(p.on_slot(TimeSlot(9)).is_empty());
        let fell = p.on_slot(TimeSlot(10));
        assert_eq!(fell, vec![FlexOfferId(1)]);
        assert_eq!(p.fallback_count(), 1);
        // idempotent
        assert!(p.on_slot(TimeSlot(11)).is_empty());
    }

    #[test]
    fn late_assignment_after_fallback_ignored() {
        let mut p = node();
        let o = offer(1, 20, 10);
        p.submit(o.clone(), TimeSlot(0));
        p.on_slot(TimeSlot(10)); // falls back
        p.handle(Envelope::new(
            NodeId(1),
            NodeId(10),
            TimeSlot(11),
            Message::Assignment {
                schedule: ScheduledFlexOffer::at_min(&o, TimeSlot(25)),
                discount_per_kwh: Price(0.02),
            },
        ));
        assert_eq!(p.assigned_count(), 0);
        // still the open-contract execution at earliest start
        assert!((p.flexible_load_at(TimeSlot(20)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn production_offer_counts_negative() {
        let mut p = node();
        let o = FlexOffer::builder(2, 7)
            .kind(mirabel_core::OfferKind::Production)
            .earliest_start(TimeSlot(20))
            .assignment_before(TimeSlot(10))
            .profile(Profile::uniform(1, EnergyRange::fixed(3.0)))
            .build()
            .unwrap();
        p.submit(o, TimeSlot(0));
        p.on_slot(TimeSlot(10));
        assert!((p.flexible_load_at(TimeSlot(20)) + 3.0).abs() < 1e-12);
    }

    fn assign(p: &mut ProsumerNode, o: &FlexOffer, start: i64) {
        p.handle(Envelope::new(
            NodeId(1),
            NodeId(10),
            TimeSlot(5),
            Message::Assignment {
                schedule: ScheduledFlexOffer::at_min(o, TimeSlot(start)),
                discount_per_kwh: Price(0.02),
            },
        ));
    }

    #[test]
    fn open_count_follows_every_transition() {
        // `on_slot` debug-asserts the count against a recount, so calling
        // it after each transition is the check.
        let mut p = node();
        assert!(p.on_slot(TimeSlot(0)).is_empty());
        let (a, b, c) = (offer(1, 20, 10), offer(2, 20, 10), offer(3, 20, 12));
        for o in [&a, &b, &c] {
            p.submit((*o).clone(), TimeSlot(0));
        }
        p.submit(a.clone(), TimeSlot(0)); // resubmission of an open offer
        assert_eq!(p.open, 3);
        assign(&mut p, &a, 22);
        assign(&mut p, &a, 23); // duplicate assignment: already committed
        assert!(p.on_slot(TimeSlot(1)).is_empty());
        p.handle(Envelope::new(
            NodeId(1),
            NodeId(10),
            TimeSlot(2),
            Message::OfferRejected {
                offer: FlexOfferId(2),
            },
        ));
        assert_eq!(p.open, 1);
        assert_eq!(p.on_slot(TimeSlot(12)), vec![FlexOfferId(3)]);
        assert_eq!(p.open, 0);
        assert!(p.on_slot(TimeSlot(13)).is_empty());
        assert_eq!(p.assigned_count() + p.fallback_count(), 3);
    }

    #[test]
    fn committed_load_visitor_matches_the_point_query() {
        // Three committed offers overlapping across slots 20..=23, one
        // still open: folding the visitor per slot, in visiting order,
        // gives `flexible_load_at` exactly.
        let mut p = node();
        let (a, b, c, d) = (
            offer(1, 20, 10),
            offer(2, 20, 10),
            offer(3, 20, 10),
            offer(4, 20, 15),
        );
        for o in [&a, &b, &c, &d] {
            p.submit((*o).clone(), TimeSlot(0));
        }
        assign(&mut p, &a, 21);
        assign(&mut p, &b, 22);
        p.on_slot(TimeSlot(10)); // c falls back to [20, 22); d stays open
        let mut by_slot: BTreeMap<TimeSlot, f64> = BTreeMap::new();
        p.for_each_committed_load(|t, kwh| *by_slot.entry(t).or_insert(0.0) += kwh);
        assert_eq!(by_slot.len(), 4);
        for t in 15..30 {
            let folded = by_slot.get(&TimeSlot(t)).copied().unwrap_or(0.0);
            assert_eq!(folded, p.flexible_load_at(TimeSlot(t)), "slot {t}");
        }
    }
}
