//! The level-1 prosumer node.
//!
//! Issues flex-offers to its BRP, executes the assignments it receives,
//! and — crucially for the paper's fault-tolerance story — falls back to
//! the *open contract* (earliest start, maximum energy) whenever an offer
//! passes its assignment deadline without a schedule, whether because the
//! BRP rejected it, the message was lost, or the deadline was missed.
//!
//! What a prosumer keeps follows its live work. An *open* offer —
//! submitted, no schedule yet — is held whole: its deadline, bounds and
//! open contract are still to be read. *Committing* it (an accepted
//! assignment, a rejection, or a deadline fallback) drops the offer and
//! keeps a compact record: id, earliest start, sign, the schedule's start
//! and energies, and the schedule's worst excess over the offer's bounds.
//! Nothing after a commit reads more. An assignment's energies keep the
//! buffer the message delivered them in, so committing one allocates
//! nothing. The records stay in ascending id order, the order
//! [`ProsumerNode::flexible_load_at`] sums in, so the committed-load
//! visitors add their terms in that same order and the closing report
//! reproduces the point query's float sums bit for bit.

use crate::message::{Envelope, Message};
use crate::runtime::Node;
use mirabel_core::{
    ActorId, Energy, FlexOffer, FlexOfferId, NodeId, OfferKind, SlotSpan, TimeSlot,
};

/// One committed offer: all the node still knows of it.
#[derive(Debug)]
struct Committed {
    id: FlexOfferId,
    earliest_start: TimeSlot,
    /// The schedule's start slot.
    start: TimeSlot,
    /// The schedule's per-slot energies.
    energies: Box<[Energy]>,
    /// Executed under a BRP assignment (`true`) or the open contract.
    assigned: bool,
    /// A production offer: its energy counts negative.
    production: bool,
    /// How far the schedule strays outside its offer's bounds, on the
    /// scale [`checked_excess`] documents; 0 for a schedule inside them.
    excess: f64,
}

impl Committed {
    /// [`FlexOffer::demand_sign`] of the offer.
    fn sign(&self) -> f64 {
        if self.production {
            -1.0
        } else {
            1.0
        }
    }
}

/// Check `energies`, started at `start`, against `offer` in one pass.
/// Returns `None` where [`ScheduledFlexOffer::validate_against`] would
/// reject the schedule at tolerance `eps` — decided with that method's own
/// comparisons, so which assignments a prosumer accepts cannot move.
/// Otherwise returns the schedule's worst excess over the offer's bounds:
/// the largest distance of a slot's energy outside its range. A schedule
/// then fails `validate_against` at a tolerance exactly when its excess is
/// above it, up to rounding at the boundary.
///
/// [`ScheduledFlexOffer::validate_against`]: mirabel_core::ScheduledFlexOffer::validate_against
fn checked_excess(
    offer: &FlexOffer,
    start: TimeSlot,
    energies: &[Energy],
    eps: f64,
) -> Option<f64> {
    if start < offer.earliest_start()
        || start > offer.latest_start()
        || energies.len() as SlotSpan != offer.duration()
    {
        return None;
    }
    let mut excess: f64 = 0.0;
    for (&e, r) in energies.iter().zip(offer.profile().slot_ranges()) {
        if !r.contains(e, eps) {
            return None;
        }
        excess = excess
            .max(r.min().kwh() - e.kwh())
            .max(e.kwh() - r.max().kwh());
    }
    Some(excess)
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
    /// Offers awaiting a schedule, ascending by id. The buffer is sized to
    /// the most offers ever open at once and kept while empty: handing it
    /// back at every commit and regrowing it at the next submission cost
    /// more handling time than its hundred-odd bytes are worth.
    open: Vec<FlexOffer>,
    /// Committed offers, ascending by id, with room for every open offer's
    /// record, so a commit never reallocates.
    committed: Vec<Committed>,
    /// Every offer submitted, in submission order (which is ascending id
    /// order in every simulation) — what the closing report's test oracle
    /// rebuilds the open-contract world from.
    #[cfg(test)]
    submitted: Vec<FlexOffer>,
}

impl ProsumerNode {
    /// Create a prosumer attached to `brp`.
    pub fn new(id: NodeId, actor: ActorId, brp: NodeId) -> ProsumerNode {
        ProsumerNode {
            id,
            actor,
            brp,
            open: Vec::new(),
            committed: Vec::new(),
            #[cfg(test)]
            submitted: Vec::new(),
        }
    }

    /// Submit a flex-offer; returns the envelope for the network. A
    /// resubmitted open offer is replaced; a resubmitted committed one is
    /// open again, its commitment undone.
    pub fn submit(&mut self, offer: FlexOffer, now: TimeSlot) -> Envelope {
        let id = offer.id();
        // Ids mostly ascend, so a new offer is rarely already committed.
        if self.committed.last().is_some_and(|c| c.id >= id) {
            if let Ok(i) = self.committed.binary_search_by_key(&id, |c| c.id) {
                self.committed.remove(i);
            }
        }
        match self.open_index(id) {
            Ok(i) => self.open[i] = offer.clone(),
            Err(i) => {
                self.open.reserve_exact(1);
                self.open.insert(i, offer.clone());
            }
        }
        self.committed.reserve(self.open.len());
        #[cfg(test)]
        self.submitted.push(offer.clone());
        Envelope::new(self.id, self.brp, now, Message::SubmitOffer(offer))
    }

    /// Handle an incoming message. An acceptance changes nothing here: the
    /// offer stays open until its assignment, rejection or deadline.
    pub fn handle(&mut self, envelope: Envelope) {
        match envelope.message {
            Message::OfferRejected { offer } => {
                if let Ok(i) = self.open_index(offer) {
                    let offer = self.open.remove(i);
                    self.fall_back(&offer);
                }
            }
            Message::Assignment { schedule, .. } => {
                // Late assignments (after fallback) and duplicates find no
                // open offer: the device is already committed.
                let Ok(i) = self.open_index(schedule.offer_id) else {
                    return;
                };
                let Some(excess) =
                    checked_excess(&self.open[i], schedule.start, &schedule.slot_energies, 1e-6)
                else {
                    return;
                };
                let offer = self.open.remove(i);
                let energies = schedule.slot_energies.into_boxed_slice();
                self.commit(&offer, true, schedule.start, energies, excess);
            }
            _ => {}
        }
    }

    /// Advance the clock: any offer whose assignment deadline has passed
    /// without an assignment falls back to the open contract. Returns the
    /// offers that fell back this step, ascending by id. With nothing open
    /// — the usual case once a cycle's assignments have arrived — it
    /// returns without touching anything.
    pub fn on_slot(&mut self, now: TimeSlot) -> Vec<FlexOfferId> {
        let mut fell_back = Vec::new();
        let mut i = 0;
        while i < self.open.len() {
            if self.open[i].is_expired(now) {
                let offer = self.open.remove(i);
                fell_back.push(offer.id());
                self.fall_back(&offer);
            } else {
                i += 1;
            }
        }
        fell_back
    }

    fn open_index(&self, id: FlexOfferId) -> Result<usize, usize> {
        self.open.binary_search_by_key(&id, FlexOffer::id)
    }

    /// Commit `offer` to its open contract (earliest start, maximum
    /// energy — [`mirabel_core::ScheduledFlexOffer::open_contract`]).
    fn fall_back(&mut self, offer: &FlexOffer) {
        let mut energies = Vec::with_capacity(offer.duration() as usize);
        energies.extend(offer.profile().slot_ranges().map(|r| r.max()));
        let energies = energies.into_boxed_slice();
        // The open contract sits on its own offer's slot maxima: no excess.
        self.commit(offer, false, offer.earliest_start(), energies, 0.0);
    }

    /// Record `offer` as committed to `energies` from `start`, keeping the
    /// records in id order.
    fn commit(
        &mut self,
        offer: &FlexOffer,
        assigned: bool,
        start: TimeSlot,
        energies: Box<[Energy]>,
        excess: f64,
    ) {
        let record = Committed {
            id: offer.id(),
            earliest_start: offer.earliest_start(),
            start,
            energies,
            assigned,
            production: offer.kind() == OfferKind::Production,
            excess,
        };
        // Commits mostly arrive in id order, so this is mostly a push.
        if self.committed.last().is_none_or(|c| c.id < record.id) {
            self.committed.push(record);
        } else {
            let i = self.committed.partition_point(|c| c.id < record.id);
            self.committed.insert(i, record);
        }
    }

    /// Realized flexible energy at slot `t`: the sum over all committed
    /// (assigned or fallen-back) schedules, in offer-id order.
    /// Consumption positive.
    ///
    /// A point query that walks every committed record, so O(history)
    /// per call. The closing report of a run does not call it
    /// per slot — it fills a ledger from
    /// [`ProsumerNode::for_each_committed_load`] instead — but must
    /// reproduce what summing this over the prosumers would give, bit for
    /// bit: this is the accounting's reference, and its oracle in tests.
    pub fn flexible_load_at(&self, t: TimeSlot) -> f64 {
        let committed: f64 = self
            .committed
            .iter()
            .map(|c| {
                let e = usize::try_from(t - c.start)
                    .ok()
                    .and_then(|d| c.energies.get(d));
                c.sign() * e.map_or(0.0, |e| e.kwh())
            })
            .sum();
        // An open offer adds a `0.0` term wherever it falls in id order,
        // and the only thing such a term can change is a `-0.0` sum into
        // `0.0` — at any position, exactly what adding it last does.
        if self.open.is_empty() {
            committed
        } else {
            committed + 0.0
        }
    }

    /// Visit `(slot, signed kWh)` for every slot of every committed
    /// (assigned or fallen-back) schedule: offers ascending by id, each
    /// schedule's slots ascending, consumption positive. One pass over
    /// the records, O(offers × duration) — every non-zero term
    /// [`ProsumerNode::flexible_load_at`] would add for any slot, each
    /// exactly once and in the same per-slot order.
    pub fn for_each_committed_load(&self, mut f: impl FnMut(TimeSlot, f64)) {
        for c in &self.committed {
            let sign = c.sign();
            for (i, e) in c.energies.iter().enumerate() {
                f(c.start + i as u32, sign * e.kwh());
            }
        }
    }

    /// Committed schedules (assigned or fallen back) whose energy
    /// profile violates the originating offer's bounds by more than
    /// `tol` — the chaos invariant checker's energy-conservation probe.
    /// Stays 0 unless a handler ever accepted an invalid schedule.
    pub fn energy_violations(&self, tol: f64) -> usize {
        self.committed.iter().filter(|c| c.excess > tol).count()
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
        for c in &self.committed {
            if c.earliest_start >= start && c.earliest_start < end {
                f(c.id, c.assigned, c.start, &c.energies);
            }
        }
    }

    /// Offers that ended in the open contract.
    pub fn fallback_count(&self) -> usize {
        self.committed.len() - self.assigned_count()
    }

    /// Offers executed under a BRP assignment.
    pub fn assigned_count(&self) -> usize {
        self.committed.iter().filter(|c| c.assigned).count()
    }

    /// All offers ever submitted (each id once).
    pub fn offer_count(&self) -> usize {
        self.open.len() + self.committed.len()
    }

    /// Every offer ever submitted, in submission order.
    #[cfg(test)]
    pub(crate) fn submitted_offers(&self) -> impl Iterator<Item = &FlexOffer> {
        self.submitted.iter()
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
    use mirabel_core::{EnergyRange, Price, Profile, ScheduledFlexOffer};
    use std::collections::BTreeMap;

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
        let mut p = node();
        assert!(p.on_slot(TimeSlot(0)).is_empty());
        let (a, b, c) = (offer(1, 20, 10), offer(2, 20, 10), offer(3, 20, 12));
        for o in [&a, &b, &c] {
            p.submit((*o).clone(), TimeSlot(0));
        }
        p.submit(a.clone(), TimeSlot(0)); // resubmission of an open offer
        assert_eq!(p.open.len(), 3);
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
        assert_eq!(p.open.len(), 1);
        assert_eq!(p.on_slot(TimeSlot(12)), vec![FlexOfferId(3)]);
        assert_eq!(p.open.len(), 0);
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

    #[test]
    fn resubmitting_a_committed_offer_undoes_its_commitment() {
        let mut p = node();
        let o = offer(1, 20, 10);
        p.submit(o.clone(), TimeSlot(0));
        assign(&mut p, &o, 22);
        p.submit(o.clone(), TimeSlot(1));
        assert_eq!((p.assigned_count(), p.offer_count()), (0, 1));
        assert_eq!(p.flexible_load_at(TimeSlot(22)), 0.0);
        assign(&mut p, &o, 23);
        assert_eq!((p.assigned_count(), p.fallback_count()), (1, 0));
        assert_eq!(p.offer_count(), 1);
        assert_eq!(p.flexible_load_at(TimeSlot(22)), 0.0);
        assert!((p.flexible_load_at(TimeSlot(23)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn an_undone_commitment_leaves_its_neighbours_alone() {
        // Two committed offers around the one resubmitted both still read
        // their own schedules.
        let mut p = node();
        let (a, b, c) = (offer(1, 20, 10), offer(2, 20, 10), offer(3, 20, 10));
        for o in [&a, &b, &c] {
            p.submit((*o).clone(), TimeSlot(0));
        }
        assign(&mut p, &a, 21);
        assign(&mut p, &b, 22);
        assign(&mut p, &c, 23);
        p.submit(b.clone(), TimeSlot(1));
        let mut seen = Vec::new();
        p.for_each_committed_in_window(TimeSlot(0), TimeSlot(100), |id, _, start, e| {
            seen.push((id.value(), start.index(), e.len()));
        });
        assert_eq!(seen, vec![(1, 21, 2), (3, 23, 2)]);
        p.on_slot(TimeSlot(10)); // b falls back behind c: an out-of-order commit
        assert_eq!(p.fallback_count(), 1);
        let ids: Vec<u64> = p.committed.iter().map(|c| c.id.value()).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert!((p.flexible_load_at(TimeSlot(20)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn the_open_set_is_sized_to_the_most_offers_open_at_once() {
        let mut p = node();
        for id in 1..=3 {
            let o = offer(id, 20 * id as i64, 10 * id as i64);
            p.submit(o.clone(), TimeSlot(0));
            assign(&mut p, &o, 20 * id as i64);
        }
        assert_eq!((p.open.len(), p.open.capacity()), (0, 1));
        assert_eq!(p.assigned_count(), 3);
    }
}
