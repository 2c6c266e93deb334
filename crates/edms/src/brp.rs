//! The level-2 balance-responsible-party (trader) node: the full LEDMS.
//!
//! A BRP is a [`PlannerNode`] whose child port is [`Offers`]: flex-offers
//! straight from prosumers, decided on by the Negotiation component
//! (acceptance on submission, pre-execution pricing on assignment),
//! recorded by the Data Management component, and pooled by the node. With
//! [`BrpConfig::forward_to_tso`] it is linked to its TSO and forwards its
//! macro-offer delta stream instead of scheduling locally — until the
//! link goes `Down` and it islands. The life-cycle, flush-before-read
//! and durability rules are [`PlannerNode`]'s.
//!
//! What is port-specific: submissions are filtered per sender by a
//! [`DedupRx`] — at-most-once, not sequenced, since a lost submission is
//! a negotiation-level loss the deadline fallback covers; an accepted
//! submission updates the pool, the store and its reply on the spot and
//! only *stages* its pipeline insert; and the port's snapshot state is
//! the duplicate filters (everything else is derived).

use crate::datastore::{EnergyType, MeasurementFact, OfferFact, OfferState};
use crate::message::{Envelope, Message};
use crate::runtime::{ChildPort, PlannerNode, RuntimeConfig};
use crate::wal::{WalConfig, WalStore};
use crate::wire::{decode_rows, DedupRx, LinkHealthConfig};
use mirabel_aggregate::{AggregationParams, AggregationPipeline, BinPackerConfig, FlexOfferUpdate};
use mirabel_core::codec::{put_u64, CodecError, Wire};
use mirabel_core::{FlexOffer, NodeId, Price, TimeSlot};
use mirabel_negotiate::{AcceptanceDecision, AcceptancePolicy};
use std::collections::btree_map::Entry;
use std::collections::HashMap;

pub use crate::runtime::{PlanReport, ReplanReport, SchedulerKind};

/// BRP configuration.
#[derive(Debug, Clone)]
pub struct BrpConfig {
    /// Aggregation thresholds.
    pub aggregation: AggregationParams,
    /// Optional bin-packer bounds.
    pub binpacker: Option<BinPackerConfig>,
    /// Scheduling algorithm.
    pub scheduler: SchedulerKind,
    /// Cost-evaluation budget per planning run.
    pub budget_evaluations: usize,
    /// Forward macro-offer deltas to the parent TSO instead of scheduling
    /// locally. A node given no parent schedules locally either way, and
    /// one that does not forward ignores the parent it is given.
    pub forward_to_tso: bool,
    /// Parallel multi-start chains (K) per incremental repair.
    pub repair_chains: usize,
    /// Worker pool shared by every parallel path of this node —
    /// aggregate flush shards and repair chains.
    /// Defaults to the process-wide [`mirabel_core::exec::Pool::global`]
    /// executor, so all BRPs and the TSO of a hierarchy wake the same
    /// parked workers; results are identical for any pool.
    pub pool: mirabel_core::exec::Pool,
    /// Failure-detector horizons for the TSO link (TSO mode only):
    /// silence thresholds for `Suspect`/`Down`, and the retransmit
    /// backoff for unacked outbox flushes. Purely slot-clocked, so
    /// detection is bit-identical at any worker-pool width.
    pub link_health: LinkHealthConfig,
}

impl Default for BrpConfig {
    fn default() -> BrpConfig {
        let runtime = RuntimeConfig::default();
        BrpConfig {
            aggregation: AggregationParams::p3(8, 8),
            binpacker: None,
            scheduler: runtime.scheduler,
            budget_evaluations: runtime.budget_evaluations,
            forward_to_tso: false,
            repair_chains: runtime.repair_chains,
            pool: runtime.pool,
            link_health: LinkHealthConfig::default(),
        }
    }
}

/// The level-2 node: a planner node over [`Offers`].
pub type BrpNode = PlannerNode<Offers>;

/// A BRP's child port: what decides about the offers the node pools.
#[derive(Debug, Default)]
pub struct Offers {
    /// One at-most-once filter per sender: network-duplicated inbound
    /// envelopes (submissions, assignments, resync requests) are dropped
    /// before they reach a handler. A `HashMap` is safe: its order never
    /// reaches a result, as snapshots sort by sender before encoding and
    /// the duplicate count is a sum.
    rx: HashMap<u64, DedupRx, crate::comm::IdHashBuilder>,
    /// Acceptance on submission; its pricing also prices assignments.
    policy: AcceptancePolicy,
}

/// What a BRP installs at WAL compaction points behind its pool: one
/// duplicate-filter row per inbound stream, `(sender, filter)` in sender
/// order. The rest — aggregates, exports, outbox — is *derived*, rebuilt
/// by re-feeding the pool through the aggregation pipeline on restore.
/// The policy is not persisted: every BRP is built with the default one.
impl Wire for Offers {
    fn encode(&self, out: &mut Vec<u8>) {
        // The rx map is a HashMap: rows go out in sender order so snapshot
        // bytes (and thus WAL contents) are identical across runs.
        let mut rows: Vec<_> = self.rx.iter().collect();
        rows.sort_unstable_by_key(|(sender, _)| **sender);
        put_u64(out, rows.len() as u64);
        for (sender, rx) in rows {
            sender.encode(out);
            rx.encode(out);
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(Offers {
            rx: decode_rows(buf, |rows| {
                HashMap::with_capacity_and_hasher(rows, Default::default())
            })?,
            policy: AcceptancePolicy::default(),
        })
    }
}

impl ChildPort for Offers {
    fn admit(&mut self, envelope: &Envelope) -> bool {
        self.rx
            .entry(envelope.from.value())
            .or_default()
            .accept(envelope.seq)
    }

    fn on_child(node: &mut BrpNode, envelope: Envelope, now: TimeSlot) -> Vec<Envelope> {
        match envelope.message {
            Message::SubmitOffer(offer) => vec![node.on_submit(offer, envelope.from, now)],
            Message::Measurement {
                actor,
                start,
                values,
            } => {
                for (i, &v) in values.iter().enumerate() {
                    let (energy_type, kwh) = if v >= 0.0 {
                        (EnergyType::Consumption, v)
                    } else {
                        (EnergyType::Production, -v)
                    };
                    node.store.record_measurement(MeasurementFact {
                        slot: start + i as u32,
                        actor,
                        energy_type,
                        kwh,
                    });
                }
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    fn expired(node: &mut BrpNode, offers: &[(FlexOffer, NodeId)], now: TimeSlot) {
        for (offer, _) in offers {
            node.store.record_offer(OfferFact {
                offer: offer.id(),
                actor: offer.owner(),
                slot: now,
                state: OfferState::Expired,
            });
        }
    }

    fn released(node: &mut BrpNode, offer: &FlexOffer, now: TimeSlot, state: OfferState) -> Price {
        node.store.record_offer(OfferFact {
            offer: offer.id(),
            actor: offer.owner(),
            slot: now,
            state,
        });
        node.down.policy.pricing.discount_per_kwh(offer, now)
    }
}

impl BrpNode {
    /// Create a BRP node, linked to `parent` when the config forwards to
    /// it (a parent is ignored otherwise). All parallel paths — pipeline
    /// flush included — run on the config's shared worker pool.
    pub fn new(id: NodeId, parent: Option<NodeId>, config: BrpConfig) -> BrpNode {
        let pipeline = AggregationPipeline::new(config.aggregation, config.binpacker);
        let runtime = RuntimeConfig {
            scheduler: config.scheduler,
            budget_evaluations: config.budget_evaluations,
            repair_chains: config.repair_chains,
            pool: config.pool,
        };
        let seed = id.value().wrapping_mul(0x9e37_79b9);
        let parent = parent
            .filter(|_| config.forward_to_tso)
            .map(|parent| (parent, config.link_health));
        PlannerNode::assemble(id, pipeline, runtime, seed, Offers::default(), parent)
    }

    /// Rebuild a crashed BRP from its surviving WAL store (see
    /// [`PlannerNode::recover_from`]).
    pub fn recover(
        id: NodeId,
        parent: Option<NodeId>,
        config: BrpConfig,
        store: Box<dyn WalStore>,
        wal_config: WalConfig,
        now: TimeSlot,
    ) -> std::io::Result<(BrpNode, Vec<Envelope>)> {
        BrpNode::new(id, parent, config).recover_from(store, wal_config, now)
    }

    /// Network-injected duplicates this node's at-most-once filters
    /// dropped, summed across its inbound sender streams — the dedup
    /// column of the federation's per-region stats rollup. Saturating, as
    /// the counters are restored from disk.
    pub fn dedup_duplicates(&self) -> u64 {
        let counts = self.down.rx.values().map(|rx| rx.duplicates);
        counts.fold(0, u64::saturating_add)
    }

    /// Decide a submission and reply. One pool descent: the entry
    /// doubles as the duplicate probe and the accept path's slot.
    fn on_submit(&mut self, offer: FlexOffer, from: NodeId, now: TimeSlot) -> Envelope {
        let id = offer.id();
        let value = match self.down.policy.decide(&offer, now) {
            AcceptanceDecision::Accept { value } => Some(value),
            AcceptanceDecision::Reject(_) => None,
        };
        let reply = match self.pool.entry(id) {
            // Replayed submission of an offer already pooled (an
            // unsequenced duplicate the network dedup cannot catch):
            // re-acknowledge without staging anything — the pool state
            // must not churn.
            Entry::Occupied(e) if e.get().0 == offer => Message::OfferAccepted {
                offer: id,
                value: value.unwrap_or(0.0),
            },
            entry => {
                self.store.record_offer(OfferFact {
                    offer: id,
                    actor: offer.owner(),
                    slot: now,
                    state: match value {
                        Some(_) => OfferState::Accepted,
                        None => OfferState::Rejected,
                    },
                });
                match value {
                    Some(value) => {
                        entry.insert_entry((offer.clone(), from));
                        self.pipeline.accumulate([FlexOfferUpdate::Insert(offer)]);
                        Message::OfferAccepted { offer: id, value }
                    }
                    None => Message::OfferRejected { offer: id },
                }
            }
        };
        Envelope::new(self.id, from, now, reply)
    }
}

#[cfg(test)]
mod ingest_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{LoadedLog, MemWalStore, NodeWal};
    use crate::wire::LinkState;
    use mirabel_core::{EnergyRange, Price, Profile, ScheduledFlexOffer};
    use mirabel_forecast::ForecastEvent;
    use mirabel_schedule::MarketPrices;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn offer(id: u64, owner: u64, es: i64, deadline: i64, tf: u32) -> FlexOffer {
        FlexOffer::builder(id, owner)
            .earliest_start(TimeSlot(es))
            .time_flexibility(tf)
            .assignment_before(TimeSlot(deadline))
            .profile(Profile::uniform(2, EnergyRange::new(1.0, 2.0).unwrap()))
            .build()
            .unwrap()
    }

    fn submit(brp: &mut BrpNode, o: FlexOffer, from: u64, now: i64) -> Vec<Envelope> {
        brp.handle(
            Envelope::new(NodeId(from), brp.id, TimeSlot(now), Message::SubmitOffer(o)),
            TimeSlot(now),
        )
    }

    /// One prepare-then-commit round with no forecast updates in between:
    /// the commit's envelopes and final cost are folded into what
    /// `prepare_plan` returned.
    fn plan_round(
        brp: &mut BrpNode,
        now: TimeSlot,
        window_start: TimeSlot,
        baseline: Vec<f64>,
        prices: MarketPrices,
        penalties: Vec<f64>,
    ) -> (Vec<Envelope>, PlanReport) {
        let (mut envelopes, mut report) =
            brp.prepare_plan(now, window_start, baseline, prices, penalties);
        if let Some((assignments, cost)) = brp.commit_plan(now) {
            report.cost = Some(cost);
            envelopes.extend(assignments);
        }
        (envelopes, report)
    }

    #[test]
    fn accepts_and_pools_offers() {
        let mut brp = BrpNode::new(NodeId(1), None, BrpConfig::default());
        let replies = submit(&mut brp, offer(1, 7, 100, 90, 12), 10, 0);
        assert_eq!(replies.len(), 1);
        assert!(matches!(replies[0].message, Message::OfferAccepted { .. }));
        assert_eq!(replies[0].to, NodeId(10));
        assert_eq!(brp.pool_size(), 1);
        assert_eq!(brp.store.count_in_state(OfferState::Accepted), 1);
        // The submission is only staged; the round's flush aggregates it.
        let (_, report) = brp.prepare_plan(
            TimeSlot(0),
            TimeSlot(96),
            vec![0.0; 96],
            MarketPrices::flat(96, 0.08, 0.03, 100.0),
            vec![0.2; 96],
        );
        assert_eq!(report.eligible_macro, 1, "one offer → one aggregate");
    }

    #[test]
    fn rejects_inflexible_offer() {
        let mut brp = BrpNode::new(NodeId(1), None, BrpConfig::default());
        let rigid = FlexOffer::builder(2, 7)
            .earliest_start(TimeSlot(100))
            .assignment_before(TimeSlot(90))
            .profile(Profile::uniform(1, EnergyRange::fixed(1.0)))
            .build()
            .unwrap();
        let replies = submit(&mut brp, rigid, 10, 0);
        assert!(matches!(replies[0].message, Message::OfferRejected { .. }));
        assert_eq!(brp.pool_size(), 0);
    }

    #[test]
    fn expiry_drops_pool_entries() {
        let mut brp = BrpNode::new(NodeId(1), None, BrpConfig::default());
        submit(&mut brp, offer(1, 7, 100, 50, 12), 10, 0);
        let (_, report) = plan_round(
            &mut brp,
            TimeSlot(60), // past the deadline
            TimeSlot(61),
            vec![0.0; 96],
            MarketPrices::flat(96, 0.08, 0.03, 100.0),
            vec![0.2; 96],
        );
        assert_eq!(report.expired, 1);
        assert_eq!(brp.pool_size(), 0);
        assert_eq!(brp.store.count_in_state(OfferState::Expired), 1);
    }

    #[test]
    fn local_plan_produces_assignments() {
        let mut brp = BrpNode::new(NodeId(1), None, BrpConfig::default());
        for i in 0..20 {
            submit(
                &mut brp,
                offer(i, i, 110 + (i as i64 % 5), 90, 8),
                100 + i,
                0,
            );
        }
        let baseline: Vec<f64> = (0..96).map(|k| if k < 48 { -2.0 } else { 1.0 }).collect();
        let (envelopes, report) = plan_round(
            &mut brp,
            TimeSlot(80),
            TimeSlot(96),
            baseline,
            MarketPrices::flat(96, 0.08, 0.03, 100.0),
            vec![0.2; 96],
        );
        assert!(report.eligible_macro > 0);
        assert_eq!(envelopes.len(), 20);
        assert!(report.cost.is_some());
        // every assignment goes back to the submitting node
        for e in &envelopes {
            assert!(e.to.value() >= 100);
            assert!(matches!(e.message, Message::Assignment { .. }));
        }
        // pool drained, facts recorded
        assert_eq!(brp.pool_size(), 0);
        assert_eq!(brp.store.count_in_state(OfferState::Assigned), 20);
    }

    #[test]
    fn binpacked_plan_batches_same_bin_deletes() {
        // Regression: committing a plan deletes every assigned offer in
        // ONE pipeline batch; with the bin-packer on, several members of
        // the same bin go in a single flush.
        let config = BrpConfig {
            binpacker: Some(BinPackerConfig::max_members(3)),
            ..BrpConfig::default()
        };
        let mut brp = BrpNode::new(NodeId(1), None, config);
        for i in 0..9 {
            submit(&mut brp, offer(i, i, 110, 90, 8), 100 + i, 0);
        }
        let (envelopes, report) = plan_round(
            &mut brp,
            TimeSlot(80),
            TimeSlot(96),
            vec![-1.0; 96],
            MarketPrices::flat(96, 0.08, 0.03, 100.0),
            vec![0.2; 96],
        );
        assert_eq!(report.eligible_macro, 3, "nine offers in bins of three");
        assert_eq!(envelopes.len(), 9);
        assert_eq!(brp.pool_size(), 0);
        // Every bin collapsed: the next round finds nothing to plan.
        let (envelopes, report) = plan_round(
            &mut brp,
            TimeSlot(81),
            TimeSlot(96),
            vec![-1.0; 96],
            MarketPrices::flat(96, 0.08, 0.03, 100.0),
            vec![0.2; 96],
        );
        assert_eq!(report.eligible_macro, 0);
        assert!(envelopes.is_empty());
    }

    #[test]
    fn shared_pool_width_does_not_change_the_plan() {
        // End-to-end determinism through the node: flush shards and
        // repair chains dispatch onto the config's pool, and the
        // committed plan is identical whether that pool is serial or 8
        // lanes wide.
        let plan_with = |width: usize| {
            let mut brp = BrpNode::new(
                NodeId(1),
                None,
                BrpConfig {
                    pool: mirabel_core::exec::Pool::new(width),
                    budget_evaluations: 4_000,
                    ..BrpConfig::default()
                },
            );
            for i in 0..20 {
                submit(
                    &mut brp,
                    offer(i, i, 110 + (i as i64 % 5), 90, 8),
                    100 + i,
                    0,
                );
            }
            let baseline: Vec<f64> = (0..96).map(|k| if k < 48 { -2.0 } else { 1.0 }).collect();
            brp.prepare_plan(
                TimeSlot(80),
                TimeSlot(96),
                baseline.clone(),
                MarketPrices::flat(96, 0.08, 0.03, 100.0),
                vec![0.2; 96],
            );
            // Refinement event → repair chains on the pool.
            let mut refined = baseline;
            for v in refined.iter_mut().skip(10).take(8) {
                *v += 1.0;
            }
            let event = ForecastEvent {
                subscription: 0,
                forecast: refined,
                changed: vec![mirabel_forecast::SlotRange { start: 10, end: 18 }],
                max_relative_change: f64::INFINITY,
            };
            brp.on_forecast_event(&event);
            let (envelopes, cost) = brp.commit_plan(TimeSlot(80)).expect("live plan");
            let schedule_signature: Vec<_> = envelopes
                .iter()
                .map(|e| match &e.message {
                    Message::Assignment { schedule, .. } => {
                        (e.to, schedule.offer_id, schedule.start)
                    }
                    other => panic!("expected assignment, got {other:?}"),
                })
                .collect();
            (cost, schedule_signature)
        };
        let reference = plan_with(1);
        assert_eq!(reference, plan_with(2));
        assert_eq!(reference, plan_with(8));
    }

    #[test]
    fn forwarding_stages_and_flushes_deltas() {
        let config = BrpConfig {
            forward_to_tso: true,
            ..BrpConfig::default()
        };
        let mut brp = BrpNode::new(NodeId(3), Some(NodeId(99)), config);
        for i in 0..10 {
            submit(&mut brp, offer(i, i, 110, 90, 8), 100 + i, 0);
        }
        let (envelopes, report) = plan_round(
            &mut brp,
            TimeSlot(80),
            TimeSlot(96),
            vec![0.0; 96],
            MarketPrices::flat(96, 0.08, 0.03, 100.0),
            vec![0.2; 96],
        );
        assert!(report.forwarded > 0);
        assert_eq!(envelopes.len(), 1);
        assert_eq!(envelopes[0].to, NodeId(99));
        let Message::MacroOfferDeltas(deltas) = &envelopes[0].message else {
            panic!("expected MacroOfferDeltas");
        };
        for d in deltas {
            let FlexOfferUpdate::Insert(o) = d else {
                panic!("first forward carries only inserts, got {d:?}");
            };
            assert!(o.id().value() >= 3_000_000_000, "export ids are global");
        }
        // Flushed: a second plan with no new offers forwards no deltas —
        // it degrades to a liveness heartbeat instead.
        let (envelopes, report) = plan_round(
            &mut brp,
            TimeSlot(81),
            TimeSlot(96),
            vec![0.0; 96],
            MarketPrices::flat(96, 0.08, 0.03, 100.0),
            vec![0.2; 96],
        );
        assert_eq!(report.forwarded, 0);
        assert_eq!(envelopes.len(), 1);
        assert!(matches!(envelopes[0].message, Message::Heartbeat { .. }));
        assert_eq!(envelopes[0].to, NodeId(99));
    }

    #[test]
    fn forwarding_trickle_change_stays_a_trickle() {
        // After the initial flush, one more submission must forward a
        // delta batch proportional to the change — not the pool.
        let config = BrpConfig {
            forward_to_tso: true,
            aggregation: AggregationParams::p0(),
            ..BrpConfig::default()
        };
        let mut brp = BrpNode::new(NodeId(3), Some(NodeId(99)), config);
        for i in 0..50 {
            submit(&mut brp, offer(i, i, 110 + i as i64, 90, 4), 100 + i, 0);
        }
        plan_round(
            &mut brp,
            TimeSlot(10),
            TimeSlot(96),
            vec![0.0; 96],
            MarketPrices::flat(96, 0.08, 0.03, 100.0),
            vec![0.2; 96],
        );
        submit(&mut brp, offer(777, 7, 120, 90, 4), 100, 11);
        let (envelopes, report) = plan_round(
            &mut brp,
            TimeSlot(12),
            TimeSlot(96),
            vec![0.0; 96],
            MarketPrices::flat(96, 0.08, 0.03, 100.0),
            vec![0.2; 96],
        );
        assert_eq!(report.forwarded, 1, "one new offer → one delta");
        let Message::MacroOfferDeltas(deltas) = &envelopes[0].message else {
            panic!("expected MacroOfferDeltas");
        };
        assert_eq!(deltas.len(), 1);
    }

    #[test]
    fn tso_assignment_disaggregates_to_prosumers() {
        let config = BrpConfig {
            forward_to_tso: true,
            ..BrpConfig::default()
        };
        let mut brp = BrpNode::new(NodeId(3), Some(NodeId(99)), config);
        for i in 0..5 {
            submit(&mut brp, offer(i, i, 110, 90, 8), 100 + i, 0);
        }
        let (envelopes, _) = plan_round(
            &mut brp,
            TimeSlot(80),
            TimeSlot(96),
            vec![0.0; 96],
            MarketPrices::flat(96, 0.08, 0.03, 100.0),
            vec![0.2; 96],
        );
        let Message::MacroOfferDeltas(deltas) = &envelopes[0].message else {
            panic!("expected MacroOfferDeltas");
        };
        let exported: Vec<&FlexOffer> = deltas
            .iter()
            .map(|d| match d {
                FlexOfferUpdate::Insert(o) => o,
                other => panic!("expected insert, got {other:?}"),
            })
            .collect();
        // The flush coalesces the round's staged stream to its net
        // effect: the 5 submissions collapse into one final-snapshot
        // insert — schedule it at its earliest start, minimum energy.
        assert_eq!(exported.len(), 1, "coalesced to the net change");
        let macro_offer = *exported.last().unwrap();
        let schedule = ScheduledFlexOffer::at_min(macro_offer, macro_offer.earliest_start());
        let micro_envs = brp.handle(
            Envelope::new(
                NodeId(99),
                NodeId(3),
                TimeSlot(85),
                Message::Assignment {
                    schedule,
                    discount_per_kwh: Price(0.01),
                },
            ),
            TimeSlot(85),
        );
        assert!(!micro_envs.is_empty());
        for e in &micro_envs {
            assert!(matches!(e.message, Message::Assignment { .. }));
        }
        // The emptied aggregate's removal is staged so the TSO's pool
        // forgets the export on the next flush.
        assert!(brp.outbox().unwrap().values().any(|d| d.is_none()));
    }

    #[test]
    fn prepare_replan_commit_cycle() {
        use mirabel_forecast::ForecastHub;

        let mut brp = BrpNode::new(NodeId(1), None, BrpConfig::default());
        for i in 0..20 {
            submit(
                &mut brp,
                offer(i, i, 110 + (i as i64 % 5), 90, 8),
                100 + i,
                0,
            );
        }
        let hub = ForecastHub::new();
        let sub = hub.subscribe(96, 0.0);
        let baseline: Vec<f64> = (0..96).map(|k| if k < 48 { -2.0 } else { 1.0 }).collect();
        hub.publish(&baseline);
        let event = hub.poll(sub).unwrap();

        let (envelopes, report) = brp.prepare_plan(
            TimeSlot(80),
            TimeSlot(96),
            event.forecast,
            MarketPrices::flat(96, 0.08, 0.03, 100.0),
            vec![0.2; 96],
        );
        assert!(envelopes.is_empty(), "no assignments before commit");
        assert!(report.eligible_macro > 0);
        assert_eq!(brp.live_window(), Some(TimeSlot(96)));
        // Nothing assigned yet: the pool still holds every offer.
        assert_eq!(brp.pool_size(), 20);

        // Intra-day refinement: a contiguous block of slots moves.
        let mut refined = baseline.clone();
        for v in refined.iter_mut().skip(20).take(10) {
            *v += 1.5;
        }
        hub.publish(&refined);
        let event = hub.poll(sub).unwrap();
        assert_eq!(event.changed_slot_count(), 10);
        let replan = brp.on_forecast_event(&event).expect("live plan exists");
        assert_eq!(replan.changed_slots, 10);
        assert!(replan.scoped_offers > 0);
        assert!(replan.cost_after <= replan.cost_before);

        let (assignments, cost) = brp.commit_plan(TimeSlot(80)).expect("live plan");
        assert_eq!(assignments.len(), 20);
        assert!((cost - replan.cost_after).abs() < 1e-9);
        assert_eq!(brp.pool_size(), 0);
        assert_eq!(brp.store.count_in_state(OfferState::Assigned), 20);
        // Committed: nothing live anymore.
        assert!(brp.commit_plan(TimeSlot(80)).is_none());
        assert!(brp.on_forecast_event(&event).is_none());
    }

    #[test]
    fn a_window_plans_the_same_whatever_repairs_came_before_it() {
        // Each planning run re-derives the seed from the window, so a
        // repair in one twin's history cannot shift its later plans —
        // the rule the chaos campaigns' quiet-tail comparison rests on.
        let twin = || {
            let config = BrpConfig {
                scheduler: SchedulerKind::Evolutionary,
                budget_evaluations: 2_000,
                ..BrpConfig::default()
            };
            let mut brp = BrpNode::new(NodeId(1), None, config);
            for i in 0..20 {
                submit(
                    &mut brp,
                    offer(i, i, 110 + (i as i64 % 5), 90, 8),
                    100 + i,
                    0,
                );
            }
            brp
        };
        // A baseline that varies under the offers, so where they land
        // matters and a search seeded differently lands elsewhere.
        let baseline: Vec<f64> = (0..96).map(|k| ((k * 7) % 5) as f64 - 2.0).collect();
        let prepare = |brp: &mut BrpNode| {
            brp.prepare_plan(
                TimeSlot(80),
                TimeSlot(96),
                baseline.clone(),
                MarketPrices::flat(96, 0.08, 0.03, 100.0),
                vec![0.2; 96],
            )
        };
        let (mut repaired, mut quiet) = (twin(), twin());
        prepare(&mut repaired);
        prepare(&mut quiet);
        let mut refined = baseline.clone();
        for v in refined.iter_mut().skip(20).take(10) {
            *v += 1.5;
        }
        let event = ForecastEvent {
            subscription: 0,
            forecast: refined,
            changed: vec![mirabel_forecast::SlotRange { start: 20, end: 30 }],
            max_relative_change: f64::INFINITY,
        };
        let replan = repaired.on_forecast_event(&event).expect("live plan");
        assert!(replan.scoped_offers > 0, "the repair ran");

        prepare(&mut repaired);
        prepare(&mut quiet);
        assert!(quiet.live_solution().is_some());
        assert_eq!(repaired.live_solution(), quiet.live_solution());
        assert_eq!(
            repaired.live_cost().map(f64::to_bits),
            quiet.live_cost().map(f64::to_bits)
        );
    }

    #[test]
    fn late_submission_folds_into_live_plan() {
        // An offer accepted between prepare and commit is spliced into
        // the live evaluator — the commit covers it without a replan.
        let mut brp = BrpNode::new(NodeId(1), None, BrpConfig::default());
        for i in 0..10 {
            submit(&mut brp, offer(i, i, 110, 90, 8), 100 + i, 0);
        }
        brp.prepare_plan(
            TimeSlot(80),
            TimeSlot(96),
            vec![-1.0; 96],
            MarketPrices::flat(96, 0.08, 0.03, 100.0),
            vec![0.2; 96],
        );
        assert_eq!(brp.live_window(), Some(TimeSlot(96)));
        submit(&mut brp, offer(55, 5, 120, 90, 8), 155, 1);
        let (assignments, _) = brp.commit_plan(TimeSlot(80)).expect("live plan");
        assert_eq!(assignments.len(), 11, "late offer is committed too");
        assert_eq!(brp.pool_size(), 0);
    }

    #[test]
    fn forecast_event_from_diverged_lineage_is_still_exact() {
        // The plan is prepared from a baseline that is NOT the hub's
        // last delivery (post-processed forecast). A later event whose
        // ranges under-report the differences against the live baseline
        // must still rebase every differing slot (lineage guard).
        let mut brp = BrpNode::new(NodeId(1), None, BrpConfig::default());
        for i in 0..10 {
            submit(&mut brp, offer(i, i, 110, 90, 8), 100 + i, 0);
        }
        // Live baseline: hub forecast shifted by a constant the hub
        // never saw.
        let hub_forecast = vec![0.5; 96];
        let live_baseline: Vec<f64> = hub_forecast.iter().map(|v| v + 0.1).collect();
        brp.prepare_plan(
            TimeSlot(80),
            TimeSlot(96),
            live_baseline,
            MarketPrices::flat(96, 0.08, 0.03, 100.0),
            vec![0.2; 96],
        );
        // Event: relative to hub lineage only slot 7 changed, but vs the
        // live baseline *every* slot differs.
        let mut new_forecast = hub_forecast.clone();
        new_forecast[7] = 3.0;
        let event = mirabel_forecast::ForecastEvent {
            subscription: 0,
            forecast: new_forecast,
            changed: vec![mirabel_forecast::SlotRange { start: 7, end: 8 }],
            max_relative_change: 5.0,
        };
        let replan = brp.on_forecast_event(&event).expect("live plan exists");
        // All 96 slots differ from the live baseline and must be listed.
        assert_eq!(replan.changed_slots, 96);
        // Debug builds additionally verify the rebase against the full
        // evaluation inside DeltaEvaluator (no panic = exact).
        assert!(brp.commit_plan(TimeSlot(80)).is_some());
    }

    #[test]
    fn forecast_event_with_wrong_horizon_ignored() {
        let mut brp = BrpNode::new(NodeId(1), None, BrpConfig::default());
        for i in 0..5 {
            submit(&mut brp, offer(i, i, 110, 90, 8), 100 + i, 0);
        }
        brp.prepare_plan(
            TimeSlot(80),
            TimeSlot(96),
            vec![0.5; 96],
            MarketPrices::flat(96, 0.08, 0.03, 100.0),
            vec![0.2; 96],
        );
        let event = mirabel_forecast::ForecastEvent {
            subscription: 0,
            forecast: vec![0.5; 48], // horizon mismatch
            changed: vec![mirabel_forecast::SlotRange { start: 0, end: 48 }],
            max_relative_change: f64::INFINITY,
        };
        assert!(brp.on_forecast_event(&event).is_none());
        // Live plan untouched and still committable.
        assert!(brp.commit_plan(TimeSlot(80)).is_some());
    }

    #[test]
    fn measurement_envelopes_land_in_net_load() {
        let mut brp = BrpNode::new(NodeId(1), None, BrpConfig::default());
        // Two meters over slots 10..13; a negative value is production.
        for (from, values) in [(10, vec![5.0, -2.0, 3.0]), (11, vec![1.0, 1.5])] {
            let replies = brp.handle(
                Envelope::new(
                    NodeId(from),
                    NodeId(1),
                    TimeSlot(0),
                    Message::Measurement {
                        actor: mirabel_core::ActorId(from),
                        start: TimeSlot(from as i64),
                        values,
                    },
                ),
                TimeSlot(0),
            );
            assert!(replies.is_empty());
        }
        assert_eq!(
            brp.store.net_load(TimeSlot(9), TimeSlot(14)),
            vec![0.0, 5.0, -1.0, 4.5, 0.0]
        );
        assert_eq!(brp.store.row_counts(), (5, 0));
    }

    #[test]
    fn crash_recovery_rebuilds_pool_from_snapshot_and_tail() {
        // snapshot_every: 2 forces mid-stream compaction, so recovery
        // exercises snapshot restore *and* tail replay together.
        let wal_config = WalConfig { snapshot_every: 2 };
        let mut brp = BrpNode::new(NodeId(1), None, BrpConfig::default());
        brp.attach_wal(NodeWal::in_memory(wal_config));
        let mut twin = BrpNode::new(NodeId(1), None, BrpConfig::default());
        for i in 0..5 {
            let o = offer(100 + i, 50 + i, 110, 90, 8);
            submit(&mut brp, o.clone(), 1_000 + i, 0);
            submit(&mut twin, o, 1_000 + i, 0);
        }
        assert!(
            brp.wal().unwrap().tail_len() < 5,
            "compaction truncated the log"
        );
        let store = brp.take_wal().unwrap().into_store();
        drop(brp); // the crash: every in-memory structure is lost
        let (recovered, out) = BrpNode::recover(
            NodeId(1),
            None,
            BrpConfig::default(),
            store,
            wal_config,
            TimeSlot(0),
        )
        .unwrap();
        assert!(out.is_empty(), "local mode: no parent to resync");
        assert_eq!(recovered.pool_size(), twin.pool_size());
        assert_eq!(recovered.pool_digest(), twin.pool_digest());
        assert!(recovered.wal().is_some(), "the log resumes after recovery");
        // Same pool → same aggregates → the same plan.
        let mut recovered = recovered;
        let plan = |brp: &mut BrpNode| {
            brp.prepare_plan(
                TimeSlot(1),
                TimeSlot(96),
                vec![-1.0; 96],
                MarketPrices::flat(96, 0.08, 0.03, 100.0),
                vec![0.2; 96],
            )
        };
        let (_, report) = plan(&mut recovered);
        assert_eq!(report.eligible_macro, 1);
        assert_eq!(report, plan(&mut twin).1);
    }

    #[test]
    fn crash_recovery_preserves_dedup_state() {
        let wal_config = WalConfig::default();
        let mut brp = BrpNode::new(NodeId(1), None, BrpConfig::default());
        brp.attach_wal(NodeWal::in_memory(wal_config));
        let sequenced = |seq: u64| {
            Envelope::new(
                NodeId(42),
                NodeId(1),
                TimeSlot(0),
                Message::SubmitOffer(offer(7, 7, 110, 90, 8)),
            )
            .with_seq(seq)
        };
        assert!(!brp.handle(sequenced(5), TimeSlot(0)).is_empty());
        let store = brp.take_wal().unwrap().into_store();
        drop(brp);
        let (mut recovered, _) = BrpNode::recover(
            NodeId(1),
            None,
            BrpConfig::default(),
            store,
            wal_config,
            TimeSlot(0),
        )
        .unwrap();
        assert_eq!(recovered.pool_size(), 1);
        // The duplicate filter survived the crash: a network-replayed
        // copy of seq 5 is still rejected.
        assert!(recovered.handle(sequenced(5), TimeSlot(0)).is_empty());
        assert_eq!(recovered.pool_size(), 1);
    }

    /// A store whose snapshot installs always fail, counting the attempts.
    #[derive(Debug)]
    struct NoSnapshots {
        log: MemWalStore,
        installs: Arc<AtomicUsize>,
    }

    impl WalStore for NoSnapshots {
        fn append(&mut self, frame: &[u8]) -> std::io::Result<()> {
            self.log.append(frame)
        }

        fn install_snapshot(&mut self, _snapshot: &[u8]) -> std::io::Result<()> {
            self.installs.fetch_add(1, Ordering::Relaxed);
            Err(std::io::Error::other("snapshot volume full"))
        }

        fn load(&mut self) -> std::io::Result<LoadedLog> {
            self.log.load()
        }
    }

    #[test]
    fn failed_snapshot_installs_retry_on_cadence_and_recovery_replays_the_log() {
        let wal_config = WalConfig { snapshot_every: 4 };
        let installs = Arc::new(AtomicUsize::new(0));
        let store = NoSnapshots {
            log: MemWalStore::new(),
            installs: Arc::clone(&installs),
        };
        let mut brp = BrpNode::new(NodeId(1), None, BrpConfig::default());
        brp.attach_wal(NodeWal::new(Box::new(store), wal_config));
        for i in 0..20 {
            submit(&mut brp, offer(100 + i, 50 + i, 110, 90, 8), 1_000 + i, 0);
        }
        // One attempt per four events, not one per event once the first
        // attempt failed; the log keeps every event.
        let wal = brp.wal().unwrap();
        assert_eq!(installs.load(Ordering::Relaxed), 5);
        assert_eq!(wal.io_errors(), 5);
        assert_eq!(wal.tail_len(), 20, "nothing was truncated");

        let store = brp.take_wal().unwrap().into_store();
        let (recovered, _) = BrpNode::recover(
            NodeId(1),
            None,
            BrpConfig::default(),
            store,
            wal_config,
            TimeSlot(0),
        )
        .unwrap();
        assert_eq!(recovered.pool_size(), 20);
        assert_eq!(recovered.pool_digest(), brp.pool_digest());
    }

    #[test]
    fn tso_mode_recovery_replays_flush_and_resyncs_parent() {
        let config = BrpConfig {
            forward_to_tso: true,
            ..BrpConfig::default()
        };
        let wal_config = WalConfig::default();
        let mut brp = BrpNode::new(NodeId(3), Some(NodeId(99)), config.clone());
        brp.attach_wal(NodeWal::in_memory(wal_config));
        for i in 0..10 {
            submit(&mut brp, offer(i, i, 110, 90, 8), 100 + i, 0);
        }
        let (envelopes, _) = plan_round(
            &mut brp,
            TimeSlot(80),
            TimeSlot(96),
            vec![0.0; 96],
            MarketPrices::flat(96, 0.08, 0.03, 100.0),
            vec![0.2; 96],
        );
        assert_eq!(envelopes.len(), 1, "outbox flushed upward");
        let store = brp.take_wal().unwrap().into_store();
        drop(brp);
        let (recovered, out) = BrpNode::recover(
            NodeId(3),
            Some(NodeId(99)),
            config,
            store,
            wal_config,
            TimeSlot(81),
        )
        .unwrap();
        assert_eq!(recovered.pool_size(), 10);
        // Recovery re-anchors the parent on a full snapshot rather than
        // trusting the re-derived outbox (the flush marker proved those
        // deltas already left the node pre-crash).
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, NodeId(99));
        let Message::ResyncSnapshot { offers } = &out[0].message else {
            panic!("expected ResyncSnapshot, got {:?}", out[0].message);
        };
        assert!(!offers.is_empty(), "snapshot carries the export set");
        // The resync snapshot superseded the re-derived outbox: the next
        // round has nothing to forward.
        let mut recovered = recovered;
        let (envelopes, report) = recovered.prepare_plan(
            TimeSlot(82),
            TimeSlot(96),
            vec![0.0; 96],
            MarketPrices::flat(96, 0.08, 0.03, 100.0),
            vec![0.2; 96],
        );
        assert_eq!(report.forwarded, 0);
        assert!(matches!(envelopes[0].message, Message::Heartbeat { .. }));
    }

    /// Tight failure-detector horizons for the islanding tests: silence
    /// of 4+ slots is `Down`, retransmits effectively disabled.
    fn islanding_config() -> BrpConfig {
        BrpConfig {
            forward_to_tso: true,
            link_health: crate::wire::LinkHealthConfig {
                suspect_after: 2,
                down_after: 4,
                retransmit_base: 1_000_000,
                max_retransmits: 0,
            },
            ..BrpConfig::default()
        }
    }

    fn plan(brp: &mut BrpNode, now: i64) -> (Vec<Envelope>, PlanReport) {
        plan_round(
            brp,
            TimeSlot(now),
            TimeSlot(96),
            vec![-1.0; 96],
            MarketPrices::flat(96, 0.08, 0.03, 100.0),
            vec![0.2; 96],
        )
    }

    #[test]
    fn silent_tso_islands_brp_and_stamps_provisional() {
        let mut brp = BrpNode::new(NodeId(3), Some(NodeId(99)), islanding_config());
        for i in 0..10 {
            submit(&mut brp, offer(i, i, 110, 90, 8), 100 + i, 0);
        }
        // Round 1: link presumed Up (silence clock starts here) — the
        // staged deltas flush upward as usual.
        let (envelopes, _) = plan(&mut brp, 10);
        assert_eq!(envelopes.len(), 1);
        assert!(matches!(envelopes[0].message, Message::MacroOfferDeltas(_)));
        assert_eq!(brp.link_state(), LinkState::Up);

        // Round 2: 10 silent slots exceed `down_after` — the node
        // islands and plans locally; every assignment is provisional.
        let (envelopes, report) = plan(&mut brp, 20);
        assert_eq!(brp.link_state(), LinkState::Down);
        assert!(report.cost.is_some(), "local pass scheduled the pool");
        assert_eq!(envelopes.len(), 10, "micro assignments to prosumers");
        assert_eq!(brp.pool_size(), 0);
        assert_eq!(brp.store.count_in_state(OfferState::Provisional), 10);
        assert_eq!(brp.store.count_in_state(OfferState::Assigned), 0);
        assert!(brp.provisional_count() > 0);

        let rounds = brp.take_islanded_rounds();
        assert_eq!(rounds.len(), 1);
        let round = &rounds[0];
        assert_eq!(round.window_start, TimeSlot(96));
        assert!(round.eligible > 0);
        assert_eq!(round.assignments, 10);
        let (prepared, committed) = (
            round.prepared_cost.expect("prepared"),
            round.committed_cost.expect("committed"),
        );
        assert!(
            committed <= prepared + 1e-6,
            "islanded imbalance bounded by the local-only optimum: {committed} vs {prepared}"
        );
        assert!(brp.take_islanded_rounds().is_empty(), "drained");
    }

    #[test]
    fn heal_reconciles_provisional_report_before_snapshot() {
        let mut brp = BrpNode::new(NodeId(3), Some(NodeId(99)), islanding_config());
        for i in 0..10 {
            submit(&mut brp, offer(i, i, 110, 90, 8), 100 + i, 0);
        }
        plan(&mut brp, 10);
        plan(&mut brp, 20); // islands
        assert_eq!(brp.link_state(), LinkState::Down);
        assert!(brp.provisional_count() > 0);

        // TSO traffic resumes: a heartbeat flips the detector to
        // Recovering (never straight to Up — the handshake runs first).
        brp.handle(
            Envelope::new(
                NodeId(99),
                NodeId(3),
                TimeSlot(21),
                Message::Heartbeat { seen: 1 },
            ),
            TimeSlot(21),
        );
        assert_eq!(brp.link_state(), LinkState::Recovering);

        // The next round reconciles: provisional report FIRST (the TSO
        // audits it against its pre-snapshot pool), snapshot second.
        let (out, _) = plan(&mut brp, 22);
        assert_eq!(out.len(), 2);
        let Message::ProvisionalReport {
            window_start,
            assignments,
        } = &out[0].message
        else {
            panic!("expected ProvisionalReport first, got {:?}", out[0].message);
        };
        assert_eq!(*window_start, TimeSlot(96), "stamped with island start");
        assert!(!assignments.is_empty());
        assert!(
            assignments
                .iter()
                .all(|s| s.offer_id.value() >= 3_000_000_000),
            "provisional ledger is in export-id space"
        );
        assert!(matches!(out[1].message, Message::ResyncSnapshot { .. }));
        assert_eq!(brp.provisional_count(), 0, "ledger handed off");
        assert_eq!(brp.link_state(), LinkState::Up, "heal confirmed");
        assert_eq!(brp.link_health_stats().recoveries, 1);
    }

    #[test]
    fn unacked_flush_retransmits_idempotent_snapshot() {
        let config = BrpConfig {
            forward_to_tso: true,
            link_health: crate::wire::LinkHealthConfig {
                suspect_after: 1_000_000,
                down_after: 2_000_000,
                retransmit_base: 4,
                max_retransmits: 2,
            },
            ..BrpConfig::default()
        };
        let mut brp = BrpNode::new(NodeId(3), Some(NodeId(99)), config);
        for i in 0..5 {
            submit(&mut brp, offer(i, i, 110, 90, 8), 100 + i, 0);
        }
        let (envelopes, _) = plan(&mut brp, 0);
        assert!(matches!(envelopes[0].message, Message::MacroOfferDeltas(_)));
        assert_eq!(brp.unacked_flushes(), 1);

        // The flush stays unacked past the backoff deadline: the node
        // re-anchors the parent with a snapshot, never a replayed batch.
        let (envelopes, _) = plan(&mut brp, 6);
        assert_eq!(envelopes.len(), 1);
        assert!(matches!(
            envelopes[0].message,
            Message::ResyncSnapshot { .. }
        ));
        assert_eq!(brp.link_health_stats().retransmits, 1);

        // A parent heartbeat acking the frontier silences the tracker:
        // the next idle round is a plain heartbeat again.
        brp.handle(
            Envelope::new(
                NodeId(99),
                NodeId(3),
                TimeSlot(7),
                Message::Heartbeat { seen: 1 },
            ),
            TimeSlot(7),
        );
        assert_eq!(brp.unacked_flushes(), 0);
        let (envelopes, _) = plan(&mut brp, 20);
        assert!(matches!(envelopes[0].message, Message::Heartbeat { .. }));
        assert_eq!(brp.link_health_stats().retransmits, 1, "no further fires");
    }

    #[test]
    fn islanded_crash_recovery_rebuilds_provisional_ledger() {
        let wal_config = WalConfig::default();
        let mut brp = BrpNode::new(NodeId(3), Some(NodeId(99)), islanding_config());
        brp.attach_wal(NodeWal::in_memory(wal_config));
        for i in 0..10 {
            submit(&mut brp, offer(i, i, 110, 90, 8), 100 + i, 0);
        }
        plan(&mut brp, 10);
        plan(&mut brp, 20); // islands, commits provisionally
        let expected = brp.provisional_count();
        assert!(expected > 0);

        let store = brp.take_wal().unwrap().into_store();
        drop(brp); // crash mid-island
        let (recovered, out) = BrpNode::recover(
            NodeId(3),
            Some(NodeId(99)),
            islanding_config(),
            store,
            wal_config,
            TimeSlot(21),
        )
        .unwrap();
        // The rebuilt ledger ships as part of the recovery handshake:
        // provisional report first, re-anchoring snapshot second.
        assert_eq!(out.len(), 2);
        let Message::ProvisionalReport { assignments, .. } = &out[0].message else {
            panic!("expected ProvisionalReport first, got {:?}", out[0].message);
        };
        assert_eq!(assignments.len(), expected);
        assert!(matches!(out[1].message, Message::ResyncSnapshot { .. }));
        assert_eq!(recovered.provisional_count(), 0, "ledger handed off");
        assert_eq!(recovered.pool_size(), 0, "provisional offers left the pool");
        assert_eq!(
            recovered.store.count_in_state(OfferState::Provisional),
            10,
            "replay restamped the islanded assignments"
        );
    }

    #[test]
    fn post_reconcile_crash_recovery_finds_ledger_cleared() {
        let wal_config = WalConfig::default();
        let mut brp = BrpNode::new(NodeId(3), Some(NodeId(99)), islanding_config());
        brp.attach_wal(NodeWal::in_memory(wal_config));
        for i in 0..10 {
            submit(&mut brp, offer(i, i, 110, 90, 8), 100 + i, 0);
        }
        plan(&mut brp, 10);
        plan(&mut brp, 20); // islands
        brp.handle(
            Envelope::new(
                NodeId(99),
                NodeId(3),
                TimeSlot(21),
                Message::Heartbeat { seen: 1 },
            ),
            TimeSlot(21),
        );
        plan(&mut brp, 22); // reconciles: ledger handed off + marker logged
        assert_eq!(brp.provisional_count(), 0);

        let store = brp.take_wal().unwrap().into_store();
        drop(brp);
        let (recovered, _) = BrpNode::recover(
            NodeId(3),
            Some(NodeId(99)),
            islanding_config(),
            store,
            wal_config,
            TimeSlot(23),
        )
        .unwrap();
        assert_eq!(
            recovered.provisional_count(),
            0,
            "the hand-off marker replayed as a clear"
        );
    }
}
