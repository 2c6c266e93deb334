//! The level-3 TSO node: "the process is essentially repeated at a higher
//! level: the aggregated flex-offers are sent to a TSO's node for further
//! aggregation, scheduling, and disaggregation" (paper §2).
//!
//! The TSO runs the **same** prepare → replan → commit life-cycle as the
//! BRP, on the shared [`PlanEngine`]:
//!
//! * [`TsoNode::handle`] consumes the BRPs' macro-offer **delta**
//!   streams ([`Message::MacroOfferDeltas`]): inserts and deletes flow
//!   through the TSO's own aggregation pipeline, and — when a plan is
//!   live — are spliced into the live evaluator at O(changed) cost, so
//!   a trickle change at level 1 replans at level 3 as a trickle, never
//!   a problem reconstruction;
//! * [`TsoNode::prepare_plan`] schedules the window-eligible
//!   second-level aggregates and keeps the evaluator live;
//! * [`TsoNode::on_forecast_event`] rebases on a pub/sub forecast event
//!   exactly like a BRP (the TSO subscribes to the same hub);
//! * [`TsoNode::commit_plan`] disaggregates one level — back to the BRP
//!   macro offers — and sends each assignment to its source BRP.
//!
//! Pooled offers are stored **once**, in the pipeline's `OfferSlab`; the
//! TSO keeps only an id → source-BRP map ([`TsoNode::source_of`]) beside
//! it — no cloned `FlexOffer` pool.
//!
//! The resync path is also the **crash-recovery** path: a BRP rebuilt
//! from its write-ahead log announces itself with an *unsolicited*
//! [`Message::ResyncSnapshot`], and the TSO's
//! [`snapshot diff`](TsoNode::handle) plus per-stream
//! [`SequencedRx::resynced`] re-anchor its pooled view and the sequence
//! numbers in one round-trip — the TSO cannot tell a recovery from an
//! ordinary lost-delta resync. The TSO itself is durable the same way a
//! BRP is: its journal follows the one contract stated in
//! [`crate::wal`]. TSO-specific are the snapshot (pool, stream guards,
//! ack and audit counters) and the markers (one per committed
//! assignment).
//!
//! In a multi-region [`Federation`](crate::federation::Federation) the
//! TSO is also the **export boundary**: mid-cycle — after planning and
//! refinement, before the commit wave consumes the pool — the region
//! snapshots [`TsoNode::pooled_ids`] / [`TsoNode::pooled_offer`] as its
//! exportable surplus, and the federation's
//! [`ExchangeGateway`](crate::federation::ExchangeGateway) publishes
//! that snapshot to peer regions over the same delta + resync wire
//! contract the BRP → TSO link uses.

use crate::message::{Envelope, Message};
use crate::runtime::{
    Node, NodeRuntime, OfferDeltaReport, PlanEngine, PlanReport, ReplanReport, RuntimeConfig,
};
use crate::wal::{Journal, NodeWal, WalConfig, WalStore};
use crate::wire::{SequencedRx, SequencedRxState, StreamStats};
use mirabel_aggregate::{AggregationParams, AggregationPipeline, FlexOfferUpdate};
use mirabel_core::codec::{CodecError, Wire};
use mirabel_core::{AggregateId, FlexOffer, FlexOfferId, NodeId, Price, TimeSlot};
use mirabel_forecast::ForecastEvent;
use mirabel_schedule::{MarketPrices, SchedulingProblem, Solution};
use std::collections::{BTreeMap, BTreeSet};

/// The level-3 node.
#[derive(Debug)]
pub struct TsoNode {
    /// This node's id.
    pub id: NodeId,
    /// Source BRP per pooled macro offer. Offer *values* live exactly
    /// once, in the pipeline's slab — resolve them with
    /// [`pooled_offer`](Self::pooled_offer).
    sources: BTreeMap<FlexOfferId, NodeId>,
    /// The shared planning runtime: pipeline + live plan.
    engine: PlanEngine,
    /// Fold report of the last delta batch applied to a live plan.
    last_fold: Option<OfferDeltaReport>,
    /// One sequenced-stream guard per sending BRP: the delta wire is
    /// stateful, so inbound `MacroOfferDeltas` must apply exactly once
    /// and in order — gaps trigger a [`Message::ResyncRequest`].
    /// Heartbeats ride the same stamped stream, so they flow through
    /// the same guard; provisional reports are audited on receipt
    /// instead (see [`handle`](Self::handle)).
    rx: BTreeMap<NodeId, SequencedRx>,
    /// Per-BRP count of applied `MacroOfferDeltas` envelopes — the
    /// cumulative ack each outbound [`Message::Heartbeat`] piggybacks,
    /// letting the BRP detect unacked flushes.
    applied: BTreeMap<NodeId, u64>,
    /// Provisional (islanded) assignments adopted at reconciliation:
    /// the BRP's local decision stood.
    provisional_adopted: u64,
    /// Provisional assignments superseded at reconciliation: the TSO
    /// had already decided the offer globally.
    provisional_superseded: u64,
    /// The durable half (see [`crate::wal`]): detached until a WAL is
    /// attached, and while [`recover`](Self::recover) replays.
    journal: Journal,
}

impl TsoNode {
    /// Create a TSO aggregating BRP macro offers with the given
    /// thresholds.
    pub fn new(id: NodeId, aggregation: AggregationParams, budget_evaluations: usize) -> TsoNode {
        TsoNode::with_config(
            id,
            aggregation,
            RuntimeConfig {
                budget_evaluations,
                ..RuntimeConfig::default()
            },
        )
    }

    /// Create a TSO with full control over the runtime knobs.
    pub fn with_config(id: NodeId, aggregation: AggregationParams, cfg: RuntimeConfig) -> TsoNode {
        TsoNode {
            id,
            sources: BTreeMap::new(),
            engine: PlanEngine::new(
                AggregationPipeline::new(aggregation, None),
                cfg,
                id.value().wrapping_mul(0x51ed_270b),
            ),
            last_fold: None,
            rx: BTreeMap::new(),
            applied: BTreeMap::new(),
            provisional_adopted: 0,
            provisional_superseded: 0,
            journal: Journal::default(),
        }
    }

    /// Macro offers currently pooled.
    pub fn pool_size(&self) -> usize {
        self.sources.len()
    }

    /// Second-level aggregates currently maintained.
    pub fn aggregate_count(&self) -> usize {
        self.engine.pipeline().aggregate_count()
    }

    /// The BRP a pooled macro offer came from.
    pub fn source_of(&self, id: FlexOfferId) -> Option<NodeId> {
        self.sources.get(&id).copied()
    }

    /// Resolve a pooled macro offer against the pipeline's slab (the
    /// single store).
    pub fn pooled_offer(&self, id: FlexOfferId) -> Option<&FlexOffer> {
        self.engine.pipeline().offer(id)
    }

    /// The TSO's aggregation pipeline (read-only; diagnostics and
    /// equivalence tests).
    pub fn pipeline(&self) -> &AggregationPipeline {
        self.engine.pipeline()
    }

    /// Ids of the pooled macro offers, ascending.
    pub fn pooled_ids(&self) -> Vec<FlexOfferId> {
        self.sources.keys().copied().collect()
    }

    /// Fold report of the most recent delta batch that touched a live
    /// plan (how much incremental replanning it cost).
    pub fn last_offer_delta_report(&self) -> Option<&OfferDeltaReport> {
        self.last_fold.as_ref()
    }

    /// The live plan's problem, when one is pending commitment (the
    /// level-3 equivalence tests compare it against a from-scratch
    /// rebuild).
    pub fn live_problem(&self) -> Option<&SchedulingProblem> {
        self.engine.live_problem()
    }

    /// The live plan's current solution.
    pub fn live_solution(&self) -> Option<&Solution> {
        self.engine.live_solution()
    }

    /// The live plan's current total cost.
    pub fn live_cost(&self) -> Option<f64> {
        self.engine.live_cost()
    }

    /// Handle a message. `MacroOfferDeltas` — and the heartbeats that
    /// ride the same stamped BRP → TSO stream — run through the
    /// sender's sequenced-stream guard: duplicates drop, out-of-order
    /// envelopes buffer, a gap answers with a
    /// [`Message::ResyncRequest`]. Deliverable delta batches update the
    /// pool *and* any live plan in O(changed). A
    /// [`Message::ProvisionalReport`] is audited immediately on receipt
    /// (a healing link usually carries a gap that would strand it in
    /// the guard). A [`Message::ResyncSnapshot`] is diffed against the
    /// pooled view of its sender and only the differences are spliced.
    ///
    /// With a WAL attached the envelope is appended **before** any state
    /// mutates (append-before-apply), so a crash mid-handle replays it.
    pub fn handle(&mut self, envelope: Envelope, now: TimeSlot) -> Vec<Envelope> {
        self.journal.ingest(&envelope, now);
        let (from, seq) = (envelope.from, envelope.seq);
        let mut out = Vec::new();
        match envelope.message {
            Message::MacroOfferDeltas(_) | Message::Heartbeat { .. } => {
                let (deliverable, request_resync) =
                    self.rx.entry(from).or_default().receive(envelope);
                for env in deliverable {
                    self.deliver(env);
                }
                if request_resync {
                    out.push(Envelope::new(self.id, from, now, Message::ResyncRequest));
                }
            }
            // Audited on receipt, OUTSIDE the sequenced guard. An
            // islanded BRP's delta stream usually carries a loss gap
            // by the time it heals; riding the guard would park the
            // report behind that gap and the resync snapshot that
            // always follows it would re-anchor past it, silently
            // discarding the reconciliation hand-off. The snapshot's
            // `resynced` also swallows the report's sequence slot,
            // so skipping the guard leaves no phantom gap — and the
            // audit must see the **pre-snapshot** pool anyway.
            Message::ProvisionalReport { assignments, .. } => {
                self.audit_provisional(from, assignments);
            }
            Message::ResyncSnapshot { offers } => {
                // Splice only the differences: a snapshot that confirms
                // the pooled view must not disturb the live plan (or its
                // repair seed stream).
                let diff = self.snapshot_diff(from, &offers);
                if !diff.is_empty() {
                    self.apply_deltas(from, diff);
                }
                // Buffered envelopes beyond the snapshot apply on top.
                let released = self.rx.entry(from).or_default().resynced(seq);
                for env in released {
                    self.deliver(env);
                }
            }
            _ => {}
        }
        self.compact();
        out
    }

    /// Apply one in-order deliverable envelope released by a stream
    /// guard. Only delta batches do anything: a heartbeat is pure
    /// liveness — the BRP-side detector is its consumer, the TSO only
    /// needs it to keep the stream's sequence numbers contiguous.
    fn deliver(&mut self, env: Envelope) {
        if let Message::MacroOfferDeltas(updates) = env.message {
            self.apply_deltas(env.from, updates);
            *self.applied.entry(env.from).or_insert(0) += 1;
        }
    }

    /// Reconciliation audit of a rejoining BRP's islanded assignments.
    ///
    /// Deterministic rule: an offer the TSO still pools was never
    /// decided globally, so the BRP's local decision is **adopted** —
    /// the offer leaves the pool (and any live plan) exactly as if the
    /// TSO had assigned it. An offer the TSO no longer pools was
    /// already assigned (or expired) globally, so the report entry is
    /// **superseded**: the TSO's own `Assignment` stands and the BRP's
    /// provisional one is replaced by the normal delta-splice.
    fn audit_provisional(
        &mut self,
        from: NodeId,
        assignments: Vec<mirabel_core::ScheduledFlexOffer>,
    ) {
        let mut adopted = Vec::new();
        for schedule in assignments {
            if self.sources.get(&schedule.offer_id) == Some(&from) {
                adopted.push(FlexOfferUpdate::Delete(schedule.offer_id));
            } else {
                self.provisional_superseded += 1;
            }
        }
        if !adopted.is_empty() {
            self.provisional_adopted += adopted.len() as u64;
            self.apply_deltas(from, adopted);
        }
    }

    /// Provisional assignments adopted / superseded during
    /// reconciliation handshakes so far.
    pub fn provisional_audit(&self) -> (u64, u64) {
        (self.provisional_adopted, self.provisional_superseded)
    }

    /// Apply one in-order batch of BRP deltas to the pool and any live
    /// plan.
    fn apply_deltas(&mut self, from: NodeId, updates: Vec<FlexOfferUpdate>) {
        let mut accepted = Vec::with_capacity(updates.len());
        for u in updates {
            match u {
                FlexOfferUpdate::Insert(offer) => {
                    self.sources.insert(offer.id(), from);
                    accepted.push(FlexOfferUpdate::Insert(offer));
                }
                FlexOfferUpdate::Delete(id) => {
                    // Deletes for offers this TSO already assigned
                    // (and dropped at commit) are expected no-ops.
                    if self.sources.remove(&id).is_some() {
                        accepted.push(FlexOfferUpdate::Delete(id));
                    }
                }
            }
        }
        // The report always describes the LAST batch: None when the
        // batch had no effect (all-unknown deletes) or no plan was
        // live to fold into.
        self.last_fold = if accepted.is_empty() {
            None
        } else {
            self.engine.apply_offer_updates(accepted).1
        };
    }

    /// The delta updates that would reconcile the pooled view of `from`
    /// with its snapshot: deletes for pooled offers the snapshot no
    /// longer carries, inserts for new or value-changed offers.
    fn snapshot_diff(&self, from: NodeId, offers: &[FlexOffer]) -> Vec<FlexOfferUpdate> {
        let snapshot_ids: BTreeSet<FlexOfferId> = offers.iter().map(|o| o.id()).collect();
        let mut diff: Vec<FlexOfferUpdate> = self
            .sources
            .iter()
            .filter(|(id, src)| **src == from && !snapshot_ids.contains(id))
            .map(|(id, _)| FlexOfferUpdate::Delete(*id))
            .collect();
        for o in offers {
            let unchanged = self.sources.get(&o.id()) == Some(&from)
                && self.engine.pipeline().offer(o.id()) == Some(o);
            if !unchanged {
                diff.push(FlexOfferUpdate::Insert(o.clone()));
            }
        }
        diff
    }

    /// Delivery counters of the sequenced delta stream from `brp`
    /// (zeros if it never sent).
    pub fn stream_stats(&self, brp: NodeId) -> StreamStats {
        self.rx
            .get(&brp)
            .map_or_else(StreamStats::default, |rx| rx.stats())
    }

    /// Drop pooled macro offers whose assignment deadline has passed —
    /// the same timeout rule every other level applies, and what makes
    /// the delta wire *self-healing*: a lost `Delete` leaves a ghost
    /// offer only until its deadline, never forever.
    fn expire(&mut self, now: TimeSlot) -> usize {
        let expired: Vec<FlexOfferId> = self
            .sources
            .keys()
            .filter(|id| {
                self.engine
                    .pipeline()
                    .offer(**id)
                    .is_some_and(|o| o.is_expired(now))
            })
            .copied()
            .collect();
        for id in &expired {
            self.sources.remove(id);
        }
        if !expired.is_empty() {
            self.engine.apply_offer_updates(
                expired
                    .iter()
                    .map(|id| FlexOfferUpdate::Delete(*id))
                    .collect(),
            );
        }
        expired.len()
    }

    /// Phase 1: schedule the pooled macro offers eligible for
    /// `[window_start, window_start+baseline.len())` and keep the result
    /// live. Assignments are produced by [`commit_plan`](Self::commit_plan).
    ///
    /// Also emits one [`Message::Heartbeat`] to every BRP heard from so
    /// far, carrying the cumulative count of that BRP's applied delta
    /// flushes — the piggybacked ack the BRP-side failure detector and
    /// retransmit tracker consume.
    pub fn prepare_plan(
        &mut self,
        now: TimeSlot,
        window_start: TimeSlot,
        baseline: Vec<f64>,
        prices: MarketPrices,
        penalties: Vec<f64>,
    ) -> (Vec<Envelope>, PlanReport) {
        self.last_fold = None;
        // Stale live plan first: expiry deltas must not fold into it.
        self.engine.abandon();
        let expired = self.expire(now);
        let (eligible, cost) = self
            .engine
            .prepare(window_start, baseline, prices, penalties);
        let report = PlanReport {
            expired,
            eligible_macro: eligible,
            cost,
            ..PlanReport::default()
        };
        let heartbeats = self
            .rx
            .keys()
            .map(|&brp| {
                Envelope::new(
                    self.id,
                    brp,
                    now,
                    Message::Heartbeat {
                        seen: self.applied.get(&brp).copied().unwrap_or(0),
                    },
                )
            })
            .collect();
        (heartbeats, report)
    }

    /// Phase 2: incremental replan after a forecast change event (see
    /// [`PlanEngine::on_forecast_event`]).
    pub fn on_forecast_event(&mut self, event: &ForecastEvent) -> Option<ReplanReport> {
        self.engine.on_forecast_event(event)
    }

    /// Phase 3: disaggregate the live solution one level (back to the
    /// BRP macro offers) and address each assignment to its source BRP.
    /// Returns the envelopes plus the final schedule cost.
    pub fn commit_plan(&mut self, now: TimeSlot) -> Option<(Vec<Envelope>, f64)> {
        let (problem, solution, cost) = self.engine.commit()?;
        let mut out = Vec::new();
        // Batch the round's deletes so each touched group flushes once.
        let mut deletes = Vec::new();
        for macro_schedule in solution.to_schedules(&problem) {
            let agg_id = AggregateId(macro_schedule.offer_id.value());
            let members = match self.engine.pipeline().disaggregate(agg_id, &macro_schedule) {
                Ok(m) => m,
                Err(_) => continue,
            };
            for schedule in members {
                let Some(source_brp) = self.sources.remove(&schedule.offer_id) else {
                    continue;
                };
                deletes.push(FlexOfferUpdate::Delete(schedule.offer_id));
                out.push(Envelope::new(
                    self.id,
                    source_brp,
                    now,
                    Message::Assignment {
                        schedule,
                        discount_per_kwh: Price::ZERO,
                    },
                ));
            }
        }
        if !deletes.is_empty() {
            self.engine.apply_offer_updates(deletes);
        }
        // Commit markers: each assignment is logged so recovery
        // re-applies its pool deletion ("this offer left the pool here")
        // without re-planning — the TSO's analogue of the BRP's
        // outbox-flush markers.
        for env in &out {
            self.journal.mark(env, now);
        }
        self.compact();
        Some((out, cost))
    }

    /// Window start of the live plan, if one is pending commitment.
    pub fn live_window(&self) -> Option<TimeSlot> {
        self.engine.live_window()
    }

    /// Attach a write-ahead log: from now on every inbound envelope is
    /// appended before it is applied, and committed assignments are
    /// appended as replay-unsafe markers.
    pub fn attach_wal(&mut self, wal: NodeWal) {
        self.journal.attach(wal);
    }

    /// The attached WAL, if any.
    pub fn wal(&self) -> Option<&NodeWal> {
        self.journal.wal()
    }

    /// Detach and return the WAL — the "disk" a simulated crash leaves
    /// behind for [`recover`](Self::recover).
    pub fn take_wal(&mut self) -> Option<NodeWal> {
        self.journal.detach()
    }

    /// Encode the node's recoverable state for a WAL snapshot.
    fn snapshot(&self) -> TsoSnapshot {
        TsoSnapshot {
            pool: self
                .sources
                .iter()
                .filter_map(|(id, src)| {
                    self.engine.pipeline().offer(*id).map(|o| (o.clone(), *src))
                })
                .collect(),
            rx: self
                .rx
                .iter()
                .map(|(node, rx)| (*node, rx.export_state()))
                .collect(),
            applied: self.applied.iter().map(|(n, c)| (*n, *c)).collect(),
            provisional_adopted: self.provisional_adopted,
            provisional_superseded: self.provisional_superseded,
        }
    }

    /// Re-feed a decoded snapshot into a fresh node.
    fn restore_snapshot(&mut self, snap: TsoSnapshot) {
        let mut inserts = Vec::with_capacity(snap.pool.len());
        for (offer, src) in snap.pool {
            self.sources.insert(offer.id(), src);
            inserts.push(FlexOfferUpdate::Insert(offer));
        }
        if !inserts.is_empty() {
            self.engine.apply_offer_updates(inserts);
        }
        for (node, state) in snap.rx {
            self.rx.insert(node, SequencedRx::from_state(state));
        }
        self.applied = snap.applied.into_iter().collect();
        self.provisional_adopted = snap.provisional_adopted;
        self.provisional_superseded = snap.provisional_superseded;
    }

    /// Install a snapshot and truncate the log when the tail is long
    /// enough (see [`WalConfig::snapshot_every`]).
    fn compact(&mut self) {
        if self.journal.wants_snapshot() {
            self.journal.compact(self.snapshot());
        }
    }

    /// Rebuild a crashed TSO from the store its WAL left behind:
    /// restore the latest snapshot, replay the tail (ingests re-handle
    /// with their original clock; assignment markers re-apply their
    /// pool deletions, staged through the engine and flushed before the
    /// next ingest reads the pipeline — one batch per replayed commit),
    /// then re-anchor every known BRP through the
    /// resync path — the returned envelopes are one
    /// [`Message::ResyncRequest`] per BRP, asking each for the bounded
    /// state snapshot that heals whatever the crash window lost.
    pub fn recover(
        id: NodeId,
        aggregation: AggregationParams,
        cfg: RuntimeConfig,
        store: Box<dyn WalStore>,
        wal_config: WalConfig,
        now: TimeSlot,
    ) -> std::io::Result<(TsoNode, Vec<Envelope>)> {
        let (journal, snapshot, tail) = Journal::reopen::<TsoSnapshot>(store, wal_config)?;
        let mut node = TsoNode::with_config(id, aggregation, cfg);
        if let Some(snap) = snapshot {
            node.restore_snapshot(snap);
        }
        for rec in tail {
            if rec.envelope.from == id {
                // Commit marker: the offer left the pool when this
                // assignment was sent. A commit logs one marker per
                // assignment, so the deletes are staged and go through
                // the pipeline as one batch per commit.
                if let Message::Assignment { schedule, .. } = &rec.envelope.message {
                    if node.sources.remove(&schedule.offer_id).is_some() {
                        node.engine
                            .stage_offer_updates([FlexOfferUpdate::Delete(schedule.offer_id)]);
                    }
                }
            } else if rec.replay_safe && rec.envelope.to == id {
                // `handle` reads the pipeline (snapshot diffs compare
                // pooled values): flush before read.
                node.engine.flush_offer_updates();
                // Replies regenerated during replay were already sent
                // (or lost) in the pre-crash timeline; drop them.
                let _ = node.handle(rec.envelope, rec.recorded_at);
            }
        }
        node.engine.flush_offer_updates();
        node.journal = journal;
        let out = node
            .rx
            .keys()
            .map(|&brp| Envelope::new(id, brp, now, Message::ResyncRequest))
            .collect();
        Ok((node, out))
    }
}

/// The TSO's recoverable state, encoded into WAL snapshots: the pooled
/// macro offers with their source BRPs, the per-BRP sequenced-stream
/// guards (frozen via [`SequencedRx::export_state`]), the per-BRP
/// applied-flush counters behind heartbeat acks, and the reconciliation
/// audit counters.
#[derive(Debug, Clone, PartialEq)]
struct TsoSnapshot {
    pool: Vec<(FlexOffer, NodeId)>,
    rx: Vec<(NodeId, SequencedRxState)>,
    applied: Vec<(NodeId, u64)>,
    provisional_adopted: u64,
    provisional_superseded: u64,
}

impl Wire for TsoSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.pool.encode(out);
        self.rx.encode(out);
        self.applied.encode(out);
        self.provisional_adopted.encode(out);
        self.provisional_superseded.encode(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(TsoSnapshot {
            pool: Wire::decode(buf)?,
            rx: Wire::decode(buf)?,
            applied: Wire::decode(buf)?,
            provisional_adopted: Wire::decode(buf)?,
            provisional_superseded: Wire::decode(buf)?,
        })
    }
}

impl Node for TsoNode {
    fn node_id(&self) -> NodeId {
        self.id
    }

    fn handle(&mut self, envelope: Envelope, now: TimeSlot) -> Vec<Envelope> {
        TsoNode::handle(self, envelope, now)
    }
}

impl NodeRuntime for TsoNode {
    fn prepare_plan(
        &mut self,
        now: TimeSlot,
        window_start: TimeSlot,
        baseline: Vec<f64>,
        prices: MarketPrices,
        penalties: Vec<f64>,
    ) -> (Vec<Envelope>, PlanReport) {
        TsoNode::prepare_plan(self, now, window_start, baseline, prices, penalties)
    }

    fn on_forecast_event(&mut self, event: &ForecastEvent) -> Option<ReplanReport> {
        TsoNode::on_forecast_event(self, event)
    }

    fn commit_plan(&mut self, now: TimeSlot) -> Vec<Envelope> {
        TsoNode::commit_plan(self, now)
            .map(|(envelopes, _)| envelopes)
            .unwrap_or_default()
    }

    fn live_window(&self) -> Option<TimeSlot> {
        TsoNode::live_window(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirabel_core::{EnergyRange, Profile};

    fn macro_offer(id: u64, es: i64) -> FlexOffer {
        FlexOffer::builder(id, 1)
            .earliest_start(TimeSlot(es))
            .time_flexibility(8)
            .assignment_before(TimeSlot(es - 10))
            .profile(Profile::uniform(4, EnergyRange::new(5.0, 10.0).unwrap()))
            .build()
            .unwrap()
    }

    fn deltas_from(from: u64, updates: Vec<FlexOfferUpdate>) -> Envelope {
        Envelope::new(
            NodeId(from),
            NodeId(99),
            TimeSlot(0),
            Message::MacroOfferDeltas(updates),
        )
    }

    fn insert(tso: &mut TsoNode, from: u64, offer: FlexOffer) {
        tso.handle(
            deltas_from(from, vec![FlexOfferUpdate::Insert(offer)]),
            TimeSlot(0),
        );
    }

    /// One prepare-then-commit round; the commit's assignments.
    fn plan_round(
        tso: &mut TsoNode,
        now: TimeSlot,
        window_start: TimeSlot,
        baseline: Vec<f64>,
        prices: MarketPrices,
        penalties: Vec<f64>,
    ) -> Vec<Envelope> {
        tso.prepare_plan(now, window_start, baseline, prices, penalties);
        tso.commit_plan(now)
            .map(|(envelopes, _)| envelopes)
            .unwrap_or_default()
    }

    #[test]
    fn pools_macro_offer_deltas_without_cloning() {
        let mut tso = TsoNode::new(NodeId(99), AggregationParams::p0(), 5_000);
        insert(&mut tso, 1, macro_offer(1_000_000_001, 120));
        assert_eq!(tso.pool_size(), 1);
        assert_eq!(tso.aggregate_count(), 1);
        assert_eq!(tso.source_of(FlexOfferId(1_000_000_001)), Some(NodeId(1)));
        // The value lives once, in the slab.
        assert!(tso.pooled_offer(FlexOfferId(1_000_000_001)).is_some());
        // Deletes shrink the pool; unknown deletes are tolerated no-ops.
        tso.handle(
            deltas_from(
                1,
                vec![
                    FlexOfferUpdate::Delete(FlexOfferId(1_000_000_001)),
                    FlexOfferUpdate::Delete(FlexOfferId(42)),
                ],
            ),
            TimeSlot(0),
        );
        assert_eq!(tso.pool_size(), 0);
        assert_eq!(tso.aggregate_count(), 0);
    }

    #[test]
    fn plan_sends_assignments_to_source_brps() {
        let mut tso = TsoNode::new(NodeId(99), AggregationParams::p0(), 5_000);
        insert(&mut tso, 1, macro_offer(1_000_000_001, 120));
        insert(&mut tso, 2, macro_offer(2_000_000_001, 120));
        let envelopes = plan_round(
            &mut tso,
            TimeSlot(100),
            TimeSlot(96),
            vec![-5.0; 96],
            MarketPrices::flat(96, 0.08, 0.03, 1000.0),
            vec![0.2; 96],
        );
        assert_eq!(envelopes.len(), 2);
        let targets: Vec<u64> = envelopes.iter().map(|e| e.to.value()).collect();
        assert!(targets.contains(&1));
        assert!(targets.contains(&2));
        for e in &envelopes {
            assert!(matches!(e.message, Message::Assignment { .. }));
        }
        assert_eq!(tso.pool_size(), 0);
    }

    #[test]
    fn offers_outside_window_deferred() {
        let mut tso = TsoNode::new(NodeId(99), AggregationParams::p0(), 1_000);
        insert(&mut tso, 1, macro_offer(1_000_000_001, 500));
        let envelopes = plan_round(
            &mut tso,
            TimeSlot(100),
            TimeSlot(96),
            vec![0.0; 96],
            MarketPrices::flat(96, 0.08, 0.03, 1000.0),
            vec![0.2; 96],
        );
        assert!(envelopes.is_empty());
        assert_eq!(tso.pool_size(), 1); // still pooled for a later window
    }

    #[test]
    fn delta_while_live_splices_into_plan() {
        let mut tso = TsoNode::new(NodeId(99), AggregationParams::p0(), 4_000);
        for i in 0..10u64 {
            insert(
                &mut tso,
                1 + i % 2,
                macro_offer(1_000_000_000 + i, 110 + i as i64),
            );
        }
        let (_, report) = tso.prepare_plan(
            TimeSlot(90),
            TimeSlot(96),
            vec![-4.0; 96],
            MarketPrices::flat(96, 0.08, 0.03, 1000.0),
            vec![0.2; 96],
        );
        assert_eq!(report.eligible_macro, 10);
        assert_eq!(tso.live_window(), Some(TimeSlot(96)));

        // A trickle of BRP deltas while the plan is live: one insert,
        // one delete. The live problem is spliced, not rebuilt.
        tso.handle(
            deltas_from(
                2,
                vec![
                    FlexOfferUpdate::Insert(macro_offer(2_000_000_777, 130)),
                    FlexOfferUpdate::Delete(FlexOfferId(1_000_000_003)),
                ],
            ),
            TimeSlot(91),
        );
        let fold = tso.last_offer_delta_report().expect("live plan folded");
        assert_eq!(fold.inserted, 1);
        assert_eq!(fold.removed, 1);
        assert!(fold.cost_after <= fold.cost_before);
        let problem = tso.live_problem().expect("still live");
        assert_eq!(problem.offers.len(), 10); // 10 - 1 + 1

        // Commit covers the spliced offer and skips the deleted one.
        let (envelopes, _) = tso.commit_plan(TimeSlot(92)).expect("live plan");
        assert_eq!(envelopes.len(), 10);
        assert_eq!(tso.pool_size(), 0);
        assert!(envelopes.iter().any(|e| e.to == NodeId(2)));
    }

    #[test]
    fn prepare_emits_heartbeats_with_applied_counts() {
        let mut tso = TsoNode::new(NodeId(99), AggregationParams::p0(), 2_000);
        insert(&mut tso, 1, macro_offer(1_000_000_001, 120));
        insert(&mut tso, 1, macro_offer(1_000_000_002, 121));
        insert(&mut tso, 2, macro_offer(2_000_000_001, 120));
        let (envelopes, _) = tso.prepare_plan(
            TimeSlot(90),
            TimeSlot(96),
            vec![-1.0; 96],
            MarketPrices::flat(96, 0.08, 0.03, 1000.0),
            vec![0.2; 96],
        );
        let mut beats: Vec<(u64, u64)> = envelopes
            .iter()
            .filter_map(|e| match e.message {
                Message::Heartbeat { seen } => Some((e.to.value(), seen)),
                _ => None,
            })
            .collect();
        beats.sort_unstable();
        assert_eq!(
            beats,
            vec![(1, 2), (2, 1)],
            "one beat per BRP, acked counts"
        );
    }

    #[test]
    fn provisional_report_adopts_pooled_and_supersedes_assigned() {
        let mut tso = TsoNode::new(NodeId(99), AggregationParams::p0(), 2_000);
        let pooled = macro_offer(1_000_000_001, 120);
        insert(&mut tso, 1, pooled.clone());
        // A provisional schedule for the pooled offer (adopt) and for an
        // offer the TSO never pooled / already decided (supersede).
        let adopt = mirabel_core::ScheduledFlexOffer::at_min(&pooled, TimeSlot(120));
        let supersede = mirabel_core::ScheduledFlexOffer::at_min(
            &macro_offer(1_000_000_777, 120),
            TimeSlot(120),
        );
        tso.handle(
            Envelope::new(
                NodeId(1),
                NodeId(99),
                TimeSlot(10),
                Message::ProvisionalReport {
                    window_start: TimeSlot(96),
                    assignments: vec![adopt, supersede],
                },
            ),
            TimeSlot(10),
        );
        assert_eq!(tso.provisional_audit(), (1, 1));
        assert_eq!(tso.pool_size(), 0, "adopted offer left the pool");
    }

    #[test]
    fn tso_recovers_from_wal_and_reanchors_brps() {
        use crate::wal::{NodeWal, WalConfig};
        let mut tso = TsoNode::new(NodeId(99), AggregationParams::p0(), 2_000);
        tso.attach_wal(NodeWal::in_memory(WalConfig { snapshot_every: 3 }));
        // Enough traffic to cross the snapshot threshold, plus a tail.
        for i in 0..5u64 {
            insert(&mut tso, 1 + i % 2, macro_offer(1_000_000_000 + i, 200));
        }
        let pooled_before = tso.pooled_ids();
        let applied_before = tso.applied.clone();
        assert!(tso.wal().unwrap().next_event_id() >= 5);

        // Crash: recover from the store the WAL leaves behind.
        let store = tso.take_wal().unwrap().into_store();
        let (recovered, out) = TsoNode::recover(
            NodeId(99),
            AggregationParams::p0(),
            RuntimeConfig {
                budget_evaluations: 2_000,
                ..RuntimeConfig::default()
            },
            store,
            WalConfig { snapshot_every: 3 },
            TimeSlot(50),
        )
        .unwrap();
        assert_eq!(recovered.pooled_ids(), pooled_before);
        assert_eq!(recovered.applied, applied_before);
        // Re-anchor: one ResyncRequest per known BRP.
        let mut targets: Vec<u64> = out.iter().map(|e| e.to.value()).collect();
        targets.sort_unstable();
        assert_eq!(targets, vec![1, 2]);
        assert!(out
            .iter()
            .all(|e| matches!(e.message, Message::ResyncRequest)));
    }

    #[test]
    fn tso_recovery_replays_commit_markers() {
        use crate::wal::{NodeWal, WalConfig};
        let mut tso = TsoNode::new(NodeId(99), AggregationParams::p0(), 5_000);
        tso.attach_wal(NodeWal::in_memory(WalConfig::default()));
        insert(&mut tso, 1, macro_offer(1_000_000_001, 120));
        insert(&mut tso, 2, macro_offer(2_000_000_001, 120));
        let envelopes = plan_round(
            &mut tso,
            TimeSlot(100),
            TimeSlot(96),
            vec![-5.0; 96],
            MarketPrices::flat(96, 0.08, 0.03, 1000.0),
            vec![0.2; 96],
        );
        assert_eq!(envelopes.len(), 2);
        assert_eq!(tso.pool_size(), 0);
        // Traffic after the commit: replay must flush the markers' staged
        // deletes before this delta's dispatch reads the pipeline.
        insert(&mut tso, 1, macro_offer(1_000_000_002, 120));
        let store = tso.take_wal().unwrap().into_store();
        let (recovered, _) = TsoNode::recover(
            NodeId(99),
            AggregationParams::p0(),
            RuntimeConfig {
                budget_evaluations: 5_000,
                ..RuntimeConfig::default()
            },
            store,
            WalConfig::default(),
            TimeSlot(101),
        )
        .unwrap();
        assert_eq!(
            recovered.pooled_ids(),
            vec![FlexOfferId(1_000_000_002)],
            "assigned offers must not resurrect on replay"
        );
        assert_eq!(recovered.aggregate_count(), 1);
        // Three replayed inserts emit an aggregate each; the commit's two
        // marker deletes went through the pipeline as ONE batch, which
        // empties their group outright — one delete at a time would have
        // emitted the half-empty aggregate in between.
        assert_eq!(recovered.pipeline().delta_stats().emitted, 3);
    }

    #[test]
    fn ineligible_delta_pools_but_does_not_splice() {
        let mut tso = TsoNode::new(NodeId(99), AggregationParams::p0(), 2_000);
        insert(&mut tso, 1, macro_offer(1_000_000_001, 120));
        tso.prepare_plan(
            TimeSlot(90),
            TimeSlot(96),
            vec![-1.0; 96],
            MarketPrices::flat(96, 0.08, 0.03, 1000.0),
            vec![0.2; 96],
        );
        // Outside the live window: pooled for later, not spliced.
        insert(&mut tso, 1, macro_offer(1_000_000_002, 500));
        let fold = tso.last_offer_delta_report().expect("fold ran");
        assert_eq!(fold.inserted, 0);
        assert_eq!(tso.live_problem().unwrap().offers.len(), 1);
        assert_eq!(tso.pool_size(), 2);
        let (envelopes, _) = tso.commit_plan(TimeSlot(91)).unwrap();
        assert_eq!(envelopes.len(), 1);
        assert_eq!(tso.pool_size(), 1);
    }
}
