//! The level-3 TSO node: "the process is essentially repeated at a higher
//! level: the aggregated flex-offers are sent to a TSO's node for further
//! aggregation, scheduling, and disaggregation" (paper §2).
//!
//! A TSO is a [`PlannerNode`] whose child port is [`Deltas`]: the
//! macro-offer **delta streams** ([`Message::MacroOfferDeltas`]) of the
//! planner nodes below it. The life-cycle, flush-before-read and
//! durability rules are [`PlannerNode`]'s. What is port-specific:
//!
//! * each child's stream runs through a sequenced receiver — duplicates
//!   drop, out-of-order batches wait for their gap, a gap answers with a
//!   [`Message::ResyncRequest`] — and a deliverable batch is flushed on
//!   arrival, so a trickle change below splices into a live plan as a
//!   trickle. Heartbeats ride the same stream. A
//!   [`Message::ResyncSnapshot`] — a resync answer, or a child announcing
//!   its recovery; the TSO cannot tell the two apart — is diffed against
//!   that child's pooled view and only the differences are spliced;
//! * a [`Message::ProvisionalReport`] is audited on receipt: what is
//!   still pooled is adopted, the rest superseded;
//! * a planning round heartbeats every child with its applied-flush
//!   count (the ack the child's link health waits for), and a
//!   restart asks every child for a resync snapshot;
//! * the node pools the macro offers by value, with their source child
//!   ([`TsoNode::source_of`]), as every level does; the port's part of a
//!   snapshot, behind that pool, is the stream guards and counters, and
//!   a marker is one committed assignment.
//!
//! Deltas down *and* a parent ([`TsoNode::with_parent`]) is an
//! intermediate aggregator, whose aggregates are exported up in turn.
//!
//! In a multi-region [`Federation`](crate::federation::Federation) the
//! TSO is also the **export boundary**: mid-cycle — after planning and
//! refinement, before the commit wave consumes the pool — the region
//! snapshots the TSO's pooled offers, in id order, as its exportable
//! surplus, and the federation's
//! [`ExchangeGateway`](crate::federation::ExchangeGateway) publishes it
//! to peer regions on the same stream receiver.

use crate::message::{Envelope, Message};
use crate::runtime::{ChildPort, OfferDeltaReport, PlannerNode, RuntimeConfig};
use crate::wal::{WalConfig, WalStore};
use crate::wire::{decode_rows, LinkHealthConfig, SequencedRx, StreamRx, StreamStats};
use mirabel_aggregate::{AggregationParams, AggregationPipeline, FlexOfferUpdate};
use mirabel_core::codec::{put_u64, CodecError, Wire};
use mirabel_core::{FlexOffer, FlexOfferId, NodeId, ScheduledFlexOffer, TimeSlot};
use std::collections::{BTreeMap, BTreeSet};

/// The level-3 node: a planner node over [`Deltas`].
pub type TsoNode = PlannerNode<Deltas>;

/// The child port of a level that pools its children's macro offers:
/// how their delta streams arrive and what reconciliation decided.
#[derive(Debug, Default)]
pub struct Deltas {
    /// One sequenced-stream guard per child: the delta wire is
    /// stateful, so a batch must apply exactly once and in order.
    streams: StreamRx,
    /// Per-child count of applied `MacroOfferDeltas` envelopes — the
    /// cumulative ack each [`Message::Heartbeat`] down piggybacks.
    applied: BTreeMap<NodeId, u64>,
    /// Provisional assignments adopted at reconciliation: the child's
    /// local decision stood.
    provisional_adopted: u64,
    /// Provisional assignments superseded at reconciliation: this node
    /// had already decided the offer.
    provisional_superseded: u64,
    /// Fold report of the last delta batch applied to a live plan.
    last_fold: Option<OfferDeltaReport>,
}

/// What a TSO installs at WAL compaction points behind its pool, as
/// `(streams, (applied, (adopted, superseded)))`: the per-child stream
/// guards, the per-child applied-flush counters behind heartbeat acks,
/// and the reconciliation audit counters.
impl Wire for Deltas {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.streams.rx.len() as u64);
        for (child, rx) in &self.streams.rx {
            child.encode(out);
            rx.encode(out);
        }
        put_u64(out, self.applied.len() as u64);
        for (child, count) in &self.applied {
            child.encode(out);
            count.encode(out);
        }
        self.provisional_adopted.encode(out);
        self.provisional_superseded.encode(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let rx = decode_rows(buf, |_| BTreeMap::new())?;
        Ok(Deltas {
            streams: StreamRx { rx },
            applied: decode_rows::<NodeId, u64, _>(buf, |_| BTreeMap::new())?,
            provisional_adopted: u64::decode(buf)?,
            provisional_superseded: u64::decode(buf)?,
            last_fold: None,
        })
    }
}

impl ChildPort for Deltas {
    fn on_child(node: &mut TsoNode, envelope: Envelope, now: TimeSlot) -> Vec<Envelope> {
        let from = envelope.from;
        match envelope.message {
            Message::MacroOfferDeltas(_)
            | Message::Heartbeat { .. }
            | Message::ResyncSnapshot { .. } => {
                let (snapshot, deliver, reply) = node.down.streams.receive(node.id, envelope, now);
                if let Some(offers) = snapshot {
                    // Splice only the differences: a snapshot that
                    // confirms the pooled view must not disturb the live
                    // plan (or its repair seed stream).
                    let diff = node.snapshot_diff(from, &offers);
                    if !diff.is_empty() {
                        node.apply_deltas(from, diff);
                    }
                }
                // A heartbeat only keeps the stream contiguous here.
                for env in deliver {
                    if let Message::MacroOfferDeltas(updates) = env.message {
                        node.apply_deltas(env.from, updates);
                        let applied = node.down.applied.entry(env.from).or_insert(0);
                        *applied = applied.saturating_add(1);
                    }
                }
                reply.into_iter().collect()
            }
            // Audited on receipt, OUTSIDE the sequenced guard. An
            // islanded child's delta stream usually carries a loss gap
            // by the time it heals; riding the guard would park the
            // report behind that gap and the resync snapshot that
            // always follows it would re-anchor past it, silently
            // discarding the reconciliation hand-off. The snapshot's
            // re-anchor also swallows the report's sequence slot, so
            // skipping the guard leaves no phantom gap — and the audit
            // must see the **pre-snapshot** pool anyway.
            Message::ProvisionalReport { assignments, .. } => {
                node.audit_provisional(from, assignments);
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    /// The expiry sweep opens a new round: the last fold described the
    /// previous plan.
    fn expired(node: &mut TsoNode, _offers: &[(FlexOffer, NodeId)], _now: TimeSlot) {
        node.down.last_fold = None;
    }

    /// The restored pool is flushed on the spot, as every delta batch is.
    fn restored(node: &mut TsoNode) {
        node.flush_staged();
    }

    fn children(node: &TsoNode) -> Vec<(NodeId, u64)> {
        let applied = |child| node.down.applied.get(&child).copied().unwrap_or(0);
        node.down
            .streams
            .rx
            .keys()
            .map(|&c| (c, applied(c)))
            .collect()
    }
}

impl TsoNode {
    /// Create a TSO aggregating BRP macro offers with the given
    /// thresholds and runtime knobs.
    pub fn with_config(id: NodeId, aggregation: AggregationParams, cfg: RuntimeConfig) -> TsoNode {
        TsoNode::assemble_deltas(id, aggregation, cfg, None)
    }

    /// Create an intermediate aggregator: a deltas-down node that
    /// exports its own aggregates to `parent`, on a link with the
    /// default failure-detector horizons.
    pub fn with_parent(
        id: NodeId,
        parent: NodeId,
        aggregation: AggregationParams,
        cfg: RuntimeConfig,
    ) -> TsoNode {
        let link = (parent, LinkHealthConfig::default());
        TsoNode::assemble_deltas(id, aggregation, cfg, Some(link))
    }

    fn assemble_deltas(
        id: NodeId,
        aggregation: AggregationParams,
        cfg: RuntimeConfig,
        parent: Option<(NodeId, LinkHealthConfig)>,
    ) -> TsoNode {
        let pipeline = AggregationPipeline::new(aggregation, None);
        let seed = id.value().wrapping_mul(0x51ed_270b);
        PlannerNode::assemble(id, pipeline, cfg, seed, Deltas::default(), parent)
    }

    /// Rebuild a crashed TSO from its surviving WAL store (see
    /// [`PlannerNode::recover_from`]); the envelopes returned are one
    /// [`Message::ResyncRequest`] per known child.
    pub fn recover(
        id: NodeId,
        aggregation: AggregationParams,
        cfg: RuntimeConfig,
        store: Box<dyn WalStore>,
        wal_config: WalConfig,
        now: TimeSlot,
    ) -> std::io::Result<(TsoNode, Vec<Envelope>)> {
        TsoNode::with_config(id, aggregation, cfg).recover_from(store, wal_config, now)
    }

    /// Fold report of the most recent delta batch that touched a live
    /// plan (how much incremental replanning it cost).
    pub fn last_offer_delta_report(&self) -> Option<&OfferDeltaReport> {
        self.down.last_fold.as_ref()
    }

    /// Provisional assignments adopted / superseded during
    /// reconciliation handshakes so far.
    pub fn provisional_audit(&self) -> (u64, u64) {
        (
            self.down.provisional_adopted,
            self.down.provisional_superseded,
        )
    }

    /// Delivery counters of the sequenced delta stream from `brp`
    /// (zeros if it never sent).
    pub fn stream_stats(&self, brp: NodeId) -> StreamStats {
        self.down
            .streams
            .rx
            .get(&brp)
            .map_or_else(StreamStats::default, SequencedRx::stats)
    }

    /// Reconciliation audit of a rejoining child's islanded assignments.
    ///
    /// Deterministic rule: an offer still pooled from that child was
    /// never decided here, so its local decision is **adopted** — the
    /// offer leaves the pool (and any live plan) exactly as if this node
    /// had assigned it. An offer no longer pooled was already assigned
    /// (or expired) here, so the entry is **superseded**: this node's own
    /// `Assignment` stands.
    fn audit_provisional(&mut self, from: NodeId, assignments: Vec<ScheduledFlexOffer>) {
        let mut adopted = Vec::new();
        for schedule in assignments {
            if self.source_of(schedule.offer_id) == Some(from) {
                adopted.push(FlexOfferUpdate::Delete(schedule.offer_id));
            } else {
                self.down.provisional_superseded =
                    self.down.provisional_superseded.saturating_add(1);
            }
        }
        if !adopted.is_empty() {
            let count = adopted.len() as u64;
            self.down.provisional_adopted = self.down.provisional_adopted.saturating_add(count);
            self.apply_deltas(from, adopted);
        }
    }

    /// Apply one in-order batch of a child's deltas to the pool and any
    /// live plan.
    fn apply_deltas(&mut self, from: NodeId, updates: Vec<FlexOfferUpdate>) {
        let mut accepted = Vec::with_capacity(updates.len());
        for u in updates {
            match u {
                FlexOfferUpdate::Insert(offer) => {
                    self.pool.insert(offer.id(), (offer.clone(), from));
                    accepted.push(FlexOfferUpdate::Insert(offer));
                }
                FlexOfferUpdate::Delete(id) => {
                    // Deletes for offers already assigned (and dropped at
                    // commit) are expected no-ops.
                    if self.pool.remove(&id).is_some() {
                        accepted.push(FlexOfferUpdate::Delete(id));
                    }
                }
            }
        }
        // The report always describes the LAST batch: None when the
        // batch had no effect (all-unknown deletes) or no plan was
        // live to fold into.
        self.down.last_fold = if accepted.is_empty() {
            None
        } else {
            self.pipeline.accumulate(accepted);
            self.flush_staged()
        };
    }

    /// The delta updates that would reconcile the pooled view of `from`
    /// with its snapshot: deletes for pooled offers the snapshot no
    /// longer carries, inserts for new or value-changed offers.
    fn snapshot_diff(&self, from: NodeId, offers: &[FlexOffer]) -> Vec<FlexOfferUpdate> {
        let snapshot_ids: BTreeSet<FlexOfferId> = offers.iter().map(|o| o.id()).collect();
        let mut diff: Vec<FlexOfferUpdate> = self
            .pool
            .iter()
            .filter(|(id, (_, src))| *src == from && !snapshot_ids.contains(id))
            .map(|(id, _)| FlexOfferUpdate::Delete(*id))
            .collect();
        let unchanged = |o: &FlexOffer| {
            self.pool
                .get(&o.id())
                .is_some_and(|(pooled, src)| *src == from && pooled == o)
        };
        let changed = offers.iter().filter(|o| !unchanged(o));
        diff.extend(changed.map(|o| FlexOfferUpdate::Insert(o.clone())));
        diff
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirabel_core::{EnergyRange, Profile};
    use mirabel_schedule::MarketPrices;

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

    /// A TSO with `p0` thresholds and the given evaluation budget.
    fn p0_tso(budget_evaluations: usize) -> TsoNode {
        TsoNode::with_config(
            NodeId(99),
            AggregationParams::p0(),
            RuntimeConfig {
                budget_evaluations,
                ..RuntimeConfig::default()
            },
        )
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
    fn pools_macro_offer_deltas_and_ignores_unknown_deletes() {
        let mut tso = p0_tso(5_000);
        insert(&mut tso, 1, macro_offer(1_000_000_001, 120));
        assert_eq!(tso.pool_size(), 1);
        assert_eq!(tso.aggregate_count(), 1);
        assert_eq!(tso.source_of(FlexOfferId(1_000_000_001)), Some(NodeId(1)));
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
        let mut tso = p0_tso(5_000);
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
        let mut tso = p0_tso(1_000);
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
        let mut tso = p0_tso(4_000);
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
        let mut tso = p0_tso(2_000);
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
        let mut tso = p0_tso(2_000);
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
        let mut tso = p0_tso(2_000);
        tso.attach_wal(NodeWal::in_memory(WalConfig { snapshot_every: 3 }));
        // Enough traffic to cross the snapshot threshold, plus a tail.
        for i in 0..5u64 {
            insert(&mut tso, 1 + i % 2, macro_offer(1_000_000_000 + i, 200));
        }
        let pooled_before = tso.pooled_ids();
        let applied_before = tso.down.applied.clone();
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
        assert_eq!(recovered.down.applied, applied_before);
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
        let mut tso = p0_tso(5_000);
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
        let mut tso = p0_tso(2_000);
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
