//! The unified node runtime: one planner node and one
//! prepare → replan → commit life-cycle for every planning level of the
//! hierarchy.
//!
//! The paper's EDMS repeats the same aggregate → schedule → disaggregate
//! cycle at every level ("the process is essentially repeated at a
//! higher level", §2), and this module is that repetition:
//!
//! * [`PlannerNode`] is the one planner node type: an aggregation
//!   pipeline, the **live plan** — a [`DeltaEvaluator`] that survives
//!   between scheduling and commitment — a journal, a child port (what
//!   the level below speaks) and an optional link to a parent. Its docs
//!   state the prepare → replan → commit life-cycle, the flush-before-read
//!   rule and the durability rule, once for every level;
//! * [`Node`] is the minimal message-handling surface the simulation's
//!   wave drains — every hierarchy level implements it.
//!
//! One tree of these nodes is one **region**. The multi-region
//! [`Federation`](crate::federation::Federation) instantiates N of
//! these hierarchies — each with its own network, WAL namespace and
//! derived RNG stream — drives them in parallel (`Pool::run_each`; the
//! trees share no mutable state), and splices only their TSOs' macro
//! exports together at the top, so everything in this module stays
//! region-oblivious.

use crate::datastore::{DataStore, OfferState};
use crate::message::{Envelope, Message};
use crate::wal::{Journal, NodeWal, WalConfig, WalStore};
use crate::wire::{LinkHealth, LinkHealthConfig, LinkHealthStats, LinkState, RetransmitTracker};
use mirabel_aggregate::{
    AggregateUpdate, AggregatedFlexOffer, AggregationPipeline, FlexOfferUpdate,
};
use mirabel_core::codec::{put_u64, CodecError, Wire};
use mirabel_core::exec::Pool;
use mirabel_core::{
    AggregateId, FlexOffer, FlexOfferId, NodeId, Price, ScheduledFlexOffer, TimeSlot,
};
use mirabel_forecast::ForecastEvent;
use mirabel_schedule::{
    offer_reach, repair_parallel, repair_scope, Budget, DeltaEvaluator, EvolutionaryScheduler,
    GreedyScheduler, HybridScheduler, MarketPrices, Placement, RepairConfig, SchedulingProblem,
    Solution,
};
use std::collections::{BTreeMap, BTreeSet};

/// Which metaheuristic a planning node runs (paper §6 provides two; the
/// hybrid is the future-work extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Randomized greedy search.
    Greedy,
    /// Evolutionary algorithm.
    Evolutionary,
    /// Greedy-seeded EA.
    Hybrid,
}

/// Scheduling/replanning knobs of a [`PlannerNode`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Scheduling algorithm for the initial plan.
    pub scheduler: SchedulerKind,
    /// Cost-evaluation budget per planning run.
    pub budget_evaluations: usize,
    /// Parallel multi-start chains (K) per incremental repair.
    pub repair_chains: usize,
    /// Worker pool every parallel path of the node dispatches onto —
    /// repair chains and the aggregation pipeline's shard-parallel
    /// flush. Handles are cheap `Arc` clones; the default is the
    /// process-wide [`Pool::global`], so a whole hierarchy of nodes
    /// shares one set of parked workers instead of re-spawning threads
    /// per node per round. Output never depends on the pool width.
    pub pool: Pool,
}

impl Default for RuntimeConfig {
    fn default() -> RuntimeConfig {
        RuntimeConfig {
            scheduler: SchedulerKind::Greedy,
            budget_evaluations: 20_000,
            repair_chains: RepairConfig::default().chains,
            pool: Pool::global().clone(),
        }
    }
}

/// Outcome of one planning run ([`PlannerNode::prepare_plan`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanReport {
    /// Offers expired (assignment deadline passed) and dropped.
    pub expired: usize,
    /// Macro offers eligible for the window.
    pub eligible_macro: usize,
    /// Macro-offer deltas forwarded to the parent node.
    pub forwarded: usize,
    /// Total schedule cost, when scheduled locally.
    pub cost: Option<f64>,
}

/// Outcome of one incremental replan after a forecast event
/// ([`PlannerNode::on_forecast_event`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplanReport {
    /// Slots whose forecast moved (and were re-priced by the rebase).
    pub changed_slots: usize,
    /// Offers inside the repair scope.
    pub scoped_offers: usize,
    /// Total cost right after the rebase, before repair.
    pub cost_before: f64,
    /// Total cost after the parallel multi-start repair.
    pub cost_after: f64,
}

/// Outcome of folding a flushed batch of offer-pool deltas into a live
/// plan (see [`PlannerNode`]'s flush-before-read rule).
#[derive(Debug, Clone, PartialEq)]
pub struct OfferDeltaReport {
    /// Macro offers newly spliced into the live problem.
    pub inserted: usize,
    /// Macro offers removed from the live problem.
    pub removed: usize,
    /// Macro offers whose value changed in place (remove + re-insert).
    pub replaced: usize,
    /// Offers inside the post-splice repair scope.
    pub scoped_offers: usize,
    /// Total cost right after the splices, before repair.
    pub cost_before: f64,
    /// Total cost after the scoped repair.
    pub cost_after: f64,
}

impl OfferDeltaReport {
    /// Whether the deltas actually touched the live problem.
    pub fn touched(&self) -> bool {
        self.inserted + self.removed + self.replaced > 0
    }
}

/// The live planning state kept between `prepare` and `commit`: the
/// evaluator owns its problem, so forecast events rebase it in place and
/// offer deltas splice into it — no problem reconstruction, no resync.
#[derive(Debug)]
struct LivePlan {
    eval: DeltaEvaluator<'static>,
    window_start: TimeSlot,
    /// Offer id → index in the live problem. Maintained across
    /// `swap_remove`s so a pool delta finds its offer in O(log n).
    index: BTreeMap<FlexOfferId, usize>,
}

impl LivePlan {
    /// Re-optimize the offers that can reach `slots`: the scope first,
    /// then one bump of the window's running `seed`, then the config's K
    /// parallel chains. Returns the scope's size and the cost after.
    fn repair(&mut self, slots: &[usize], seed: &mut u64, cfg: &RuntimeConfig) -> (usize, f64) {
        let scope = repair_scope(self.eval.problem(), slots);
        *seed = seed.wrapping_add(1);
        let config = RepairConfig {
            chains: cfg.repair_chains,
            seed: *seed,
            ..RepairConfig::default()
        };
        let cost = repair_parallel(&mut self.eval, &scope, config, &cfg.pool);
        (scope.len(), cost)
    }
}

/// Mix a window start into a node's base seed (splitmix64 finalizer).
fn window_seed(base: u64, window_start: TimeSlot) -> u64 {
    let mut z = base ^ (window_start.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Remove the live offer with id `fid`, recording its reachable slots
/// and re-homing the index entry `swap_remove` displaced. Returns
/// whether the offer was live.
fn remove_live_offer(live: &mut LivePlan, fid: FlexOfferId, touched: &mut Vec<usize>) -> bool {
    let Some(j) = live.index.remove(&fid) else {
        return false;
    };
    let p = live.eval.problem();
    touched.extend(offer_reach(p, &p.offers[j]));
    live.eval.remove_offer(j);
    if j < live.eval.problem().offers.len() {
        let moved = live.eval.problem().offers[j].id();
        live.index.insert(moved, j);
    }
    true
}

/// Splice `offer` into the live problem at its baseline placement,
/// recording its reachable slots.
fn insert_live_offer(live: &mut LivePlan, offer: FlexOffer, touched: &mut Vec<usize>) {
    let placement = Placement::baseline(&offer);
    let fid = offer.id();
    let j = live.eval.insert_offer(offer, placement);
    let p = live.eval.problem();
    touched.extend(offer_reach(p, &p.offers[j]));
    live.index.insert(fid, j);
}

/// The minimal message surface of a hierarchy node: what a wave needs to
/// drain an inbox.
pub trait Node {
    /// This node's network id.
    fn node_id(&self) -> NodeId;
    /// Handle one routed message; returns reply envelopes.
    fn handle(&mut self, envelope: Envelope, now: TimeSlot) -> Vec<Envelope>;
}

mod port {
    use super::*;

    /// What a planner node speaks with the level below it, beyond the
    /// pool every level keeps. Unnameable outside the crate:
    /// [`Offers`](crate::brp::Offers) and [`Deltas`](crate::tso::Deltas)
    /// are the only two. `Send`, because every level is driven on the
    /// shared worker pool. Its [`Wire`] impl is its part of a WAL
    /// compaction point, written by reference behind the node's pool.
    pub trait ChildPort: Wire + Send {
        /// Whether an inbound envelope is new. A duplicate is dropped
        /// before the journal sees it.
        fn admit(&mut self, _envelope: &Envelope) -> bool {
            true
        }

        /// Handle one envelope from any sender but the parent.
        fn on_child(
            node: &mut PlannerNode<Self>,
            envelope: Envelope,
            now: TimeSlot,
        ) -> Vec<Envelope>;

        /// Account the offers the node's expiry sweep just took out of
        /// its pool, in id order.
        fn expired(_node: &mut PlannerNode<Self>, _offers: &[(FlexOffer, NodeId)], _now: TimeSlot) {
        }

        /// Record an assigned offer the node just took out of its pool
        /// in `state`; returns the discount its assignment carries. A
        /// level whose children price their own members grants none.
        fn released(
            _node: &mut PlannerNode<Self>,
            _offer: &FlexOffer,
            _now: TimeSlot,
            _state: OfferState,
        ) -> Price {
            Price::ZERO
        }

        /// Finish a recovery once the decoded port is in place, the pool
        /// restored and its inserts staged.
        fn restored(_node: &mut PlannerNode<Self>) {}

        /// The child streams a planning round heartbeats and a restart
        /// re-anchors, ascending, each with the count of its flushes
        /// applied here (the ack its heartbeat carries).
        fn children(_node: &PlannerNode<Self>) -> Vec<(NodeId, u64)> {
            Vec::new()
        }
    }
}

pub(crate) use port::ChildPort;

/// A snapshot's pool row: the pooled offers with their sources, in id
/// order, decoded straight into the map the node keeps.
struct PoolRow(BTreeMap<FlexOfferId, (FlexOffer, NodeId)>);

impl Wire for PoolRow {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.0.len() as u64);
        for entry in self.0.values() {
            entry.encode(out);
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let rows = usize::decode(buf)?;
        let entry = |_| <(FlexOffer, NodeId)>::decode(buf).map(|e| (e.0.id(), e));
        (0..rows).map(entry).collect::<Result<_, _>>().map(PoolRow)
    }
}

/// Export ids of one node: `node * EXPORT_SPAN + aggregate`, so the macro
/// offers of different children never collide in their parent's pool.
const EXPORT_SPAN: u64 = 1_000_000_000;

fn export_id(node: NodeId, aggregate: AggregateId) -> u64 {
    node.value() * EXPORT_SPAN + aggregate.value()
}

/// The aggregate behind one of `node`'s export ids.
fn exported_aggregate(node: NodeId, export_id: u64) -> Option<AggregateId> {
    let local = export_id.checked_sub(node.value() * EXPORT_SPAN)?;
    (local < EXPORT_SPAN).then_some(AggregateId(local))
}

/// One islanded planning round: what a node planned and committed for a
/// window on its own while its parent link was `Down`. The chaos
/// invariant checker asserts `committed_cost <= prepared_cost` — the
/// islanded window's imbalance is bounded by the local-only optimum the
/// node found at prepare time (refreshed after each mid-window
/// forecast repair, which legitimately moves the bound).
#[derive(Debug, Clone, PartialEq)]
pub struct IslandedRound {
    /// First slot of the islanded planning window.
    pub window_start: TimeSlot,
    /// Macro offers eligible for the local pass.
    pub eligible: usize,
    /// Cost of the local plan at prepare time (the local-only optimum),
    /// refreshed after each mid-window forecast repair.
    pub prepared_cost: Option<f64>,
    /// Cost at commit time, after incremental refinements.
    pub committed_cost: Option<f64>,
    /// Provisional assignments the commit produced.
    pub assignments: usize,
}

/// A planner node's link to its parent: the export delta stream up, the
/// failure detector and ack tracker on it, and the island the node falls
/// back to while the parent is unreachable. The exports themselves are
/// the node's live aggregates, named in its export-id space.
#[derive(Debug)]
pub(crate) struct ParentLink {
    parent: NodeId,
    health: LinkHealth,
    retransmit: RetransmitTracker,
    /// Envelopes accepted from the parent so far — the cumulative count
    /// this node's heartbeats piggyback as an ack.
    heard: u64,
    /// Export ids whose aggregate changed since the last forward. The
    /// forward sends the net effect — the aggregate as it is then, or a
    /// delete if it is gone — so staging and the wire scale with the
    /// aggregates that changed, not with churn.
    outbox: BTreeSet<u64>,
    /// First slot of the current island (`None` while connected).
    islanded_since: Option<TimeSlot>,
    /// Provisional macro assignments (export-id space) committed while
    /// islanded, pending the reconciliation hand-off.
    provisional: BTreeMap<FlexOfferId, ScheduledFlexOffer>,
    /// Islanded planning rounds since the last drain.
    islanded_log: Vec<IslandedRound>,
}

impl ParentLink {
    fn new(parent: NodeId, config: LinkHealthConfig) -> ParentLink {
        ParentLink {
            parent,
            health: LinkHealth::new(config),
            retransmit: RetransmitTracker::default(),
            heard: 0,
            outbox: BTreeSet::new(),
            islanded_since: None,
            provisional: BTreeMap::new(),
            islanded_log: Vec::new(),
        }
    }

    /// Stage the pipeline's aggregate changes for the next upward flush.
    fn stage(&mut self, node: NodeId, updates: &[AggregateUpdate]) {
        self.outbox.extend(updates.iter().map(|u| match u {
            AggregateUpdate::Upsert(agg) => export_id(node, agg.id),
            AggregateUpdate::Removed(id) => export_id(node, *id),
        }));
    }
}

/// One planner level of the EDMS tree. The level below is the child port
/// `P` — flex-offers from prosumers ([`Offers`](crate::brp::Offers), a
/// [`BrpNode`](crate::brp::BrpNode)) or macro-offer delta streams from
/// planner nodes ([`Deltas`](crate::tso::Deltas), a
/// [`TsoNode`](crate::tso::TsoNode)) — and the level above, when there is
/// one, is a parent link. A BRP is offers-down with a link to its TSO, a
/// TSO is deltas-down with none, and deltas-down *with* a link
/// ([`TsoNode::with_parent`](crate::tso::TsoNode::with_parent)) is an
/// intermediate aggregator: depth is data, not a node type. At every
/// level the node itself pools what the children offer, by value with its
/// source, and does its expiry, release, snapshot and restore.
///
/// ## Life-cycle
///
/// 1. [`handle`](Self::handle) admits an envelope (the port drops what it
///    recognises as a duplicate), journals it, and routes it: parent
///    traffic — assignments, resync requests, heartbeats — to the link,
///    everything else to the port.
/// 2. [`prepare_plan`](Self::prepare_plan) expires the pool and flushes,
///    then plans — when the node has no parent, or is *islanded* from a
///    parent its link presumes `Down` — or lets the link act: forward the
///    staged export deltas (a heartbeat when there are none), retransmit
///    an unacked flush as a snapshot, or reconcile after an island. A
///    plan schedules the window-eligible macro offers (parallel best-of-K
///    restarts) and stays live on a delta evaluator. Every planning run
///    first re-derives the node's scheduling seed from its base seed and
///    the window start, and each repair in the window bumps it once, so
///    two runs that agree on a window's inputs plan it identically even
///    if their histories differ (a chaos run that needed extra repairs
///    earlier converges back to the no-chaos run's plans).
/// 3. [`on_forecast_event`](Self::on_forecast_event) rebases the live
///    plan on exactly the slots a typed forecast event moved (plus any
///    slot where the plan's baseline left the event's lineage), then
///    repairs the offers that can reach them — O(changed), never a
///    problem reconstruction. A flush folds pool deltas in the same way:
///    changed macro offers are spliced into the evaluator at O(offer
///    duration) each, then the touched slots are repaired.
/// 4. [`commit_plan`](Self::commit_plan) disaggregates the live plan one
///    level down. Without a parent the assignments are final; under one
///    they are provisional, and their macro ledger is what the link hands
///    the parent when the island heals (provisional report first, then a
///    re-anchoring export snapshot).
///
/// ## Flush before read
///
/// Pool changes are staged in the pipeline and run through it in
/// bulk (the paper's §4), so everything derived — aggregates, exports,
/// the outbox, a live plan, the slab that then holds exactly the pool —
/// describes the last flush. One rule follows: **flush before anything
/// reads derived state**. The reads are the top of `prepare_plan`, an
/// export snapshot, a parent's assignment, `commit_plan`, and a live
/// plan, which is a standing reader: while one is live, `handle` flushes
/// what it staged, so a late change folds in as a trickle. The deltas
/// port flushes each batch as it arrives.
///
/// ## Durability
///
/// The journal follows the contract of [`crate::wal`]: an admitted
/// envelope is appended before it is applied, and what the node emits as
/// the durable effect of planning — an upward flush, a final assignment,
/// an islanded ledger and its hand-off — is appended as a marker.
/// [`recover_from`](Self::recover_from) decodes the whole snapshot (pool,
/// then port) before it applies any of it, re-handles the ingests,
/// re-applies the markers, and re-anchors the streams up and down. The
/// snapshot holds no [`DataStore`]: only the tail's offers are re-counted.
#[derive(Debug)]
pub struct PlannerNode<P: ChildPort> {
    /// This node's id.
    pub id: NodeId,
    /// The Data Management component: the measurements and offer
    /// states a BRP records (a deltas level records none).
    pub store: DataStore,
    /// Aggregates the pool; changes are staged here until a flush.
    pub(crate) pipeline: AggregationPipeline,
    cfg: RuntimeConfig,
    /// The plan pending commitment, if any.
    live: Option<LivePlan>,
    /// The node's identity seed, fixed at construction.
    base_seed: u64,
    /// The current window's running seed (see the life-cycle).
    seed: u64,
    /// The offers pooled from the level below: id → (offer, source
    /// child). Ordered, so every walk (expiry, snapshots) is
    /// deterministic across runs.
    pub(crate) pool: BTreeMap<FlexOfferId, (FlexOffer, NodeId)>,
    journal: Journal,
    pub(crate) down: P,
    pub(crate) up: Option<ParentLink>,
}

impl<P: ChildPort> PlannerNode<P> {
    /// A node aggregating on `pipeline` — whose flush is rewired onto the
    /// config's shared worker pool — speaking `down` to the level below
    /// and, when `parent` is given, linked to that node with a failure
    /// detector on the given horizons.
    pub(crate) fn assemble(
        id: NodeId,
        mut pipeline: AggregationPipeline,
        cfg: RuntimeConfig,
        seed: u64,
        down: P,
        parent: Option<(NodeId, LinkHealthConfig)>,
    ) -> PlannerNode<P> {
        pipeline.set_flush_pool(cfg.pool.clone());
        PlannerNode {
            id,
            store: DataStore::new(),
            pipeline,
            cfg,
            live: None,
            base_seed: seed,
            seed,
            pool: BTreeMap::new(),
            journal: Journal::default(),
            down,
            up: parent.map(|(parent, link)| ParentLink::new(parent, link)),
        }
    }

    /// Attach a write-ahead log. From here on every admitted envelope and
    /// every marker is appended, and a compacting snapshot is installed
    /// every [`WalConfig::snapshot_every`] events.
    pub fn attach_wal(&mut self, wal: NodeWal) {
        self.journal.attach(wal);
    }

    /// The attached WAL, if any (diagnostics: tail length, io errors).
    pub fn wal(&self) -> Option<&NodeWal> {
        self.journal.wal()
    }

    /// Detach and return the WAL — the "disk" a simulated crash leaves
    /// behind for [`recover_from`](Self::recover_from).
    pub fn take_wal(&mut self) -> Option<NodeWal> {
        self.journal.detach()
    }

    /// Rebuild this freshly built node from the store a crashed twin
    /// left behind: restore the snapshot (its pool is staged like any
    /// ingest, so the next flush rebuilds the aggregates), replay the tail
    /// with the original clock (the replies it regenerates were sent
    /// before the crash and are dropped), resume the log, and re-anchor —
    /// the provisional ledger and an export snapshot up, a resync request to
    /// every child stream down. Returns the node and those envelopes.
    pub fn recover_from(
        mut self,
        store: Box<dyn WalStore>,
        wal_config: WalConfig,
        now: TimeSlot,
    ) -> std::io::Result<(Self, Vec<Envelope>)> {
        let (journal, snapshot, tail) = Journal::reopen::<(PoolRow, P)>(store, wal_config)?;
        if let Some((PoolRow(pool), down)) = snapshot {
            let inserts = pool
                .values()
                .map(|(offer, _)| FlexOfferUpdate::Insert(offer.clone()));
            self.pipeline.accumulate(inserts);
            self.pool = pool;
            self.down = down;
            P::restored(&mut self);
        }
        // A run of assignment markers is one commit: the live node flushed
        // before it and flushed its deletes as one batch, and so does the
        // replay.
        let mut committing = false;
        for rec in tail {
            let (envelope, at) = (rec.envelope, rec.recorded_at);
            let ingest = rec.replay_safe && envelope.to == self.id;
            if !ingest && envelope.from != self.id {
                continue;
            }
            let commit = !ingest && matches!(envelope.message, Message::Assignment { .. });
            if commit != committing {
                self.flush_staged();
                committing = commit;
            }
            if ingest {
                let _ = self.handle(envelope, at);
            } else {
                self.replay_marker(envelope.message, at);
            }
        }
        if committing {
            self.flush_staged();
        }
        self.journal = journal;
        let mut out = self.reconcile(now);
        for (child, _) in P::children(&self) {
            out.push(Envelope::new(self.id, child, now, Message::ResyncRequest));
        }
        Ok((self, out))
    }

    /// Re-apply one marker as the state transition it recorded.
    fn replay_marker(&mut self, marker: Message, at: TimeSlot) {
        match marker {
            // A final assignment: the member left the pool here.
            Message::Assignment { schedule, .. } => {
                self.release(&schedule, at, OfferState::Assigned);
            }
            // An upward flush: the deltas staged so far left the node. The
            // ingests replayed before it are what it carried, so they go
            // through the pipeline (and into the outbox) first.
            Message::MacroOfferDeltas(_) => {
                self.flush_staged();
                if let Some(link) = self.up.as_mut() {
                    link.outbox.clear();
                }
            }
            // A non-empty report is an islanded commit's ledger — re-apply
            // it to reproduce the commit's pool effect; an empty one is the
            // hand-off that cleared the ledger.
            Message::ProvisionalReport { assignments, .. } => {
                if let Some(link) = self.up.as_mut() {
                    if assignments.is_empty() {
                        link.provisional.clear();
                    }
                    link.provisional
                        .extend(assignments.iter().map(|s| (s.offer_id, s.clone())));
                }
                for s in assignments {
                    self.apply_macro_assignment(s, at, OfferState::Provisional);
                }
            }
            _ => {}
        }
    }

    /// Install a compacting snapshot once the journal's tail has reached
    /// its bound: the pool in id order, then the port's state, written
    /// from the live node by reference.
    fn compact(&mut self) {
        if let Some(mut snapshot) = self.journal.snapshot_due() {
            // Moved out and back, not copied.
            let pool = PoolRow(std::mem::take(&mut self.pool));
            pool.encode(&mut snapshot);
            self.pool = pool.0;
            self.down.encode(&mut snapshot);
            self.journal.compact(snapshot);
        }
    }

    /// Drop the pooled offers whose assignment deadline has passed and
    /// stage their deletes; returns how many. One timeout rule for every
    /// level — and what makes the delta wire *self-healing*: a lost
    /// `Delete` leaves a ghost offer only until its deadline.
    fn expire(&mut self, now: TimeSlot) -> usize {
        let expired: Vec<_> = self
            .pool
            .extract_if(.., |_, (offer, _)| offer.is_expired(now))
            .map(|(_, entry)| entry)
            .collect();
        let deletes = expired
            .iter()
            .map(|(offer, _)| FlexOfferUpdate::Delete(offer.id()));
        self.pipeline.accumulate(deletes);
        P::expired(self, &expired, now);
        expired.len()
    }

    /// Take an assigned member out of the pool, stage its delete and let
    /// the port record it in `state`: where its assignment goes and at
    /// what discount, or `None` when it is not pooled (any more).
    fn release(
        &mut self,
        member: &ScheduledFlexOffer,
        now: TimeSlot,
        state: OfferState,
    ) -> Option<(NodeId, Price)> {
        let (offer, source) = self.pool.remove(&member.offer_id)?;
        let delete = FlexOfferUpdate::Delete(member.offer_id);
        self.pipeline.accumulate([delete]);
        Some((source, P::released(self, &offer, now, state)))
    }

    /// Run everything staged through the pipeline in one pass, stage the
    /// aggregate changes as export deltas under a parent, and fold them
    /// into the live plan, if any. A no-op when nothing is staged.
    pub(crate) fn flush_staged(&mut self) -> Option<OfferDeltaReport> {
        let updates = self.pipeline.flush();
        if let Some(link) = self.up.as_mut() {
            link.stage(self.id, &updates);
        }
        self.fold_into_live(&updates)
    }

    /// Splice flushed aggregate changes into the live plan: removed
    /// aggregates leave the problem (O(duration) withdrawal), new or
    /// updated window-eligible ones go in at their baseline placement,
    /// and a repair scoped to the touched slots re-optimizes. Cost is
    /// proportional to the delta, never to the pool.
    fn fold_into_live(&mut self, updates: &[AggregateUpdate]) -> Option<OfferDeltaReport> {
        if updates.is_empty() {
            return None;
        }
        let live = self.live.as_mut()?;
        let horizon = live.eval.problem().horizon();
        let end = live.window_start + horizon as u32;
        let cost_before_splice = live.eval.total();
        let mut touched_slots: Vec<usize> = Vec::new();
        let mut report = OfferDeltaReport {
            inserted: 0,
            removed: 0,
            replaced: 0,
            scoped_offers: 0,
            cost_before: cost_before_splice,
            cost_after: cost_before_splice,
        };
        for u in updates {
            match u {
                AggregateUpdate::Removed(agg_id) => {
                    let fid = FlexOfferId(agg_id.value());
                    if remove_live_offer(live, fid, &mut touched_slots) {
                        report.removed += 1;
                    }
                }
                AggregateUpdate::Upsert(agg) => {
                    let fid = FlexOfferId(agg.id.value());
                    // An aggregate whose sums left the finite range is
                    // no valid offer; it drops out of the plan.
                    let eligible = agg.to_flex_offer().ok().filter(|offer| {
                        offer.earliest_start() >= live.window_start && offer.latest_end() <= end
                    });
                    let was_live = live.index.contains_key(&fid);
                    match (was_live, eligible) {
                        (true, Some(offer)) => {
                            remove_live_offer(live, fid, &mut touched_slots);
                            insert_live_offer(live, offer, &mut touched_slots);
                            report.replaced += 1;
                        }
                        (true, None) => {
                            remove_live_offer(live, fid, &mut touched_slots);
                            report.removed += 1;
                        }
                        (false, Some(offer)) => {
                            insert_live_offer(live, offer, &mut touched_slots);
                            report.inserted += 1;
                        }
                        (false, None) => {}
                    }
                }
            }
        }
        if !report.touched() {
            return Some(report);
        }
        report.cost_before = live.eval.total();
        (report.scoped_offers, report.cost_after) =
            live.repair(&touched_slots, &mut self.seed, &self.cfg);
        Some(report)
    }

    /// Handle one message; returns reply envelopes.
    pub fn handle(&mut self, envelope: Envelope, now: TimeSlot) -> Vec<Envelope> {
        if !self.down.admit(&envelope) {
            return Vec::new();
        }
        self.journal.ingest(&envelope, now);
        let out = match self.up.as_mut() {
            // Any envelope from the parent is proof of life for the
            // detector, and one more to ack in this node's heartbeats.
            Some(link) if link.parent == envelope.from => {
                link.health.heard(now);
                link.heard += 1;
                match envelope.message {
                    Message::Heartbeat { seen } => {
                        link.health.heard_heartbeat(now);
                        link.retransmit.on_ack(seen);
                        Vec::new()
                    }
                    // An assignment for an exported macro offer: the
                    // parent prices nothing, the port below does.
                    Message::Assignment { schedule, .. } => {
                        self.apply_macro_assignment(schedule, now, OfferState::Assigned)
                    }
                    Message::ResyncRequest => self.export_snapshot(now),
                    _ => Vec::new(),
                }
            }
            _ => P::on_child(self, envelope, now),
        };
        if self.live.is_some() {
            self.flush_staged();
        }
        self.compact();
        out
    }

    /// Phase 1: expire, flush, then plan or let the parent link act (see
    /// the type docs). Returns the envelopes for both neighbours plus the
    /// report; assignments come from [`commit_plan`](Self::commit_plan).
    pub fn prepare_plan(
        &mut self,
        now: TimeSlot,
        window_start: TimeSlot,
        baseline: Vec<f64>,
        prices: MarketPrices,
        penalties: Vec<f64>,
    ) -> (Vec<Envelope>, PlanReport) {
        // A new round: expiry deletes must not fold into the previous
        // window's stale plan.
        self.live = None;
        let mut report = PlanReport {
            expired: self.expire(now),
            ..PlanReport::default()
        };
        // The round's one bulk pass.
        self.flush_staged();
        // The detector advances — except out of `Recovering`, which must
        // survive until the reconciliation below has run.
        let state = self.up.as_mut().map(|link| match link.health.state() {
            LinkState::Recovering => LinkState::Recovering,
            _ => link.health.tick(now),
        });
        let mut out = match state {
            None | Some(LinkState::Down) => {
                let (eligible, cost) = self.plan(window_start, baseline, prices, penalties);
                report.eligible_macro = eligible;
                report.cost = cost;
                if let Some(link) = self.up.as_mut() {
                    // ISLAND: the parent is presumed unreachable. The
                    // staged export deltas wait (the heal-time snapshot
                    // supersedes them), and the plan covers every offer
                    // the parent has not assigned.
                    link.islanded_since.get_or_insert(window_start);
                    link.islanded_log.push(IslandedRound {
                        window_start,
                        eligible,
                        prepared_cost: cost,
                        committed_cost: None,
                        assignments: 0,
                    });
                }
                Vec::new()
            }
            // The parent plans: report what it will see of this window,
            // counted off the aggregates without materializing offers.
            Some(state) => {
                report.eligible_macro = self
                    .eligible_aggregates(window_start, baseline.len())
                    .count();
                if state == LinkState::Recovering {
                    let out = self.reconcile(now);
                    // The handshake ran: this tick confirms the heal.
                    if let Some(link) = self.up.as_mut() {
                        link.health.tick(now);
                    }
                    self.compact();
                    out
                } else {
                    self.forward(now, &mut report)
                }
            }
        };
        for (child, seen) in P::children(self) {
            out.push(Envelope::new(
                self.id,
                child,
                now,
                Message::Heartbeat { seen },
            ));
        }
        (out, report)
    }

    /// Aggregates that fit entirely inside `[start, start+horizon)`, in
    /// ascending id order (schedulers are order-sensitive).
    fn eligible_aggregates(
        &self,
        start: TimeSlot,
        horizon: usize,
    ) -> impl Iterator<Item = &AggregatedFlexOffer> {
        let end = start + horizon as u32;
        self.pipeline
            .aggregates()
            .filter(move |a| a.earliest_start >= start && a.latest_start + a.duration() <= end)
    }

    /// Schedule the window-eligible macro offers against `baseline` and
    /// keep the result live. Returns the number of eligible macros and,
    /// when any were scheduled, the plan cost.
    fn plan(
        &mut self,
        window_start: TimeSlot,
        baseline: Vec<f64>,
        prices: MarketPrices,
        penalties: Vec<f64>,
    ) -> (usize, Option<f64>) {
        // Reset the stochastic stream for this window even if nothing
        // ends up eligible — later windows must not see a seed offset
        // that depends on how many empty windows preceded them.
        self.seed = window_seed(self.base_seed, window_start);
        // The window test runs on the aggregate, so only the eligible
        // ones are materialized as `FlexOffer`s.
        let macros: Vec<FlexOffer> = self
            .eligible_aggregates(window_start, baseline.len())
            .filter_map(|a| a.to_flex_offer().ok())
            .collect();
        let eligible = macros.len();
        if macros.is_empty() {
            return (0, None);
        }
        let problem = SchedulingProblem::new(window_start, baseline, macros, prices, penalties)
            .expect("eligible macros fit the window");
        let budget = Budget::evaluations(self.cfg.budget_evaluations);
        let seed = self.seed;
        let result = match self.cfg.scheduler {
            SchedulerKind::Greedy => GreedyScheduler.run(&problem, budget, seed),
            SchedulerKind::Evolutionary => {
                EvolutionaryScheduler::default().run(&problem, budget, seed)
            }
            SchedulerKind::Hybrid => HybridScheduler::default().run(&problem, budget, seed),
        };
        let cost = result.cost.total();
        let index = problem
            .offers
            .iter()
            .enumerate()
            .map(|(j, o)| (o.id(), j))
            .collect();
        self.live = Some(LivePlan {
            eval: DeltaEvaluator::new_owned(problem, result.solution),
            window_start,
            index,
        });
        (eligible, Some(cost))
    }

    /// Send the staged export deltas up as one batch — or, when the last
    /// flush is overdue for an ack, an export snapshot instead (a re-sent
    /// batch would take a fresh sequence number and could regress newer
    /// state at the parent), or a heartbeat when nothing changed, so the
    /// parent hears this node and its acks come back.
    fn forward(&mut self, now: TimeSlot, report: &mut PlanReport) -> Vec<Envelope> {
        let Some(link) = self.up.as_mut() else {
            return Vec::new();
        };
        if link
            .retransmit
            .should_retransmit(now, &link.health.config())
        {
            link.health.note_retransmit();
            return self.export_snapshot(now);
        }
        let pipeline = &self.pipeline;
        let deltas: Vec<FlexOfferUpdate> = std::mem::take(&mut link.outbox)
            .into_iter()
            .map(|export_id| {
                let live = exported_aggregate(self.id, export_id)
                    .and_then(|a| pipeline.aggregate(a))
                    .and_then(|agg| agg.to_flex_offer_as(export_id, self.id.value()).ok());
                match live {
                    Some(offer) => FlexOfferUpdate::Insert(offer),
                    None => FlexOfferUpdate::Delete(FlexOfferId(export_id)),
                }
            })
            .collect();
        report.forwarded = deltas.len();
        if deltas.is_empty() {
            let seen = link.heard;
            return vec![Envelope::new(
                self.id,
                link.parent,
                now,
                Message::Heartbeat { seen },
            )];
        }
        link.retransmit.on_flush(now);
        let env = Envelope::new(self.id, link.parent, now, Message::MacroOfferDeltas(deltas));
        self.journal.mark(&env, now);
        self.compact();
        vec![env]
    }

    /// The export snapshot a resync request, a retransmit or a
    /// reconciliation sends the parent: every live aggregate, which
    /// supersedes the staged deltas (re-sending them would only replay
    /// state the snapshot carries), so the outbox is cleared.
    fn export_snapshot(&mut self, now: TimeSlot) -> Vec<Envelope> {
        self.flush_staged();
        let Some(link) = self.up.as_mut() else {
            return Vec::new();
        };
        link.outbox.clear();
        let offers = self
            .pipeline
            .aggregates()
            .filter_map(|agg| {
                agg.to_flex_offer_as(export_id(self.id, agg.id), self.id.value())
                    .ok()
            })
            .collect();
        vec![Envelope::new(
            self.id,
            link.parent,
            now,
            Message::ResyncSnapshot { offers },
        )]
    }

    /// The reconciliation hand-off, at heal and at restart alike: the
    /// provisional ledger FIRST — the parent audits it against its
    /// pre-snapshot pool — then the export snapshot that re-anchors the
    /// parent's view. Empty without a parent.
    fn reconcile(&mut self, now: TimeSlot) -> Vec<Envelope> {
        let Some(link) = self.up.as_mut() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        if !link.provisional.is_empty() {
            let report = |window_start, assignments| {
                let message = Message::ProvisionalReport {
                    window_start,
                    assignments,
                };
                Envelope::new(self.id, link.parent, now, message)
            };
            // Logged as an *empty* report: replaying it clears the ledger
            // the commit markers before it rebuilt.
            self.journal.mark(&report(now, Vec::new()), now);
            let ledger = std::mem::take(&mut link.provisional)
                .into_values()
                .collect();
            out.push(report(link.islanded_since.unwrap_or(now), ledger));
        }
        link.islanded_since = None;
        out.extend(self.export_snapshot(now));
        out
    }

    /// Phase 2: rebase the live plan on a typed forecast change event
    /// (re-pricing only the changed slots), then repair the offers that
    /// can reach them. Returns `None` when no plan is live or the event
    /// does not match its horizon.
    ///
    /// The event's ranges are relative to the *hub's* last delivery; if
    /// the live baseline has diverged from that lineage (e.g. the plan
    /// was prepared from a post-processed forecast), the extra differing
    /// slots are detected by an O(horizon) scan and folded into the
    /// rebase, so the result is always exact.
    pub fn on_forecast_event(&mut self, event: &ForecastEvent) -> Option<ReplanReport> {
        let live = self.live.as_mut()?;
        let horizon = live.eval.problem().horizon();
        if event.forecast.len() != horizon {
            return None;
        }
        let mut touched = vec![false; horizon];
        for t in event.changed_slots() {
            if t < horizon {
                touched[t] = true;
            }
        }
        for (i, (new, old)) in event
            .forecast
            .iter()
            .zip(&live.eval.problem().baseline_imbalance)
            .enumerate()
        {
            if new != old {
                touched[i] = true;
            }
        }
        let changed: Vec<usize> = touched
            .iter()
            .enumerate()
            .filter(|(_, &t)| t)
            .map(|(i, _)| i)
            .collect();
        let cost_before = live.eval.rebase(&event.forecast, &changed);
        let (scoped_offers, cost_after) = live.repair(&changed, &mut self.seed, &self.cfg);
        // Under a parent a live plan is an islanded one, and a repair
        // moves its local-only bound.
        if let Some(round) = self.up.as_mut().and_then(|l| l.islanded_log.last_mut()) {
            round.prepared_cost = Some(cost_after);
        }
        Some(ReplanReport {
            changed_slots: changed.len(),
            scoped_offers,
            cost_before,
            cost_after,
        })
    }

    /// Phase 3: disaggregate the live plan one level down and drop it.
    /// Returns the assignment envelopes plus the plan's final cost, or
    /// `None` when no plan is live.
    pub fn commit_plan(&mut self, now: TimeSlot) -> Option<(Vec<Envelope>, f64)> {
        self.flush_staged();
        let live = self.live.take()?;
        let cost = live.eval.total();
        let (problem, solution) = live.eval.into_problem_and_solution();
        let schedules = solution.to_schedules(&problem);
        let state = match self.up {
            None => OfferState::Assigned,
            Some(_) => OfferState::Provisional,
        };
        let out = self.disaggregate(&schedules, now, state);
        let id = self.id;
        match self.up.as_mut() {
            // Final: each assignment is a marker, whose replay re-applies
            // the pool deletion instead of re-planning.
            None => out.iter().for_each(|env| self.journal.mark(env, now)),
            // Islanded: the macro schedules (export-id space) join the
            // provisional ledger, logged as a self-addressed report whose
            // replay rebuilds it.
            Some(link) => {
                if let Some(round) = link.islanded_log.last_mut() {
                    round.committed_cost = Some(cost);
                    round.assignments = out.len();
                }
                let macros: Vec<ScheduledFlexOffer> = schedules
                    .into_iter()
                    .map(|s| ScheduledFlexOffer {
                        offer_id: FlexOfferId(export_id(id, AggregateId(s.offer_id.value()))),
                        ..s
                    })
                    .collect();
                link.provisional
                    .extend(macros.iter().map(|m| (m.offer_id, m.clone())));
                if !macros.is_empty() {
                    let message = Message::ProvisionalReport {
                        window_start: link.islanded_since.unwrap_or(now),
                        assignments: macros,
                    };
                    self.journal.mark(&Envelope::new(id, id, now, message), now);
                }
            }
        }
        self.compact();
        Some((out, cost))
    }

    /// Disaggregate one export-space macro schedule — a parent's
    /// assignment, or a replayed ledger entry.
    fn apply_macro_assignment(
        &mut self,
        schedule: ScheduledFlexOffer,
        now: TimeSlot,
        state: OfferState,
    ) -> Vec<Envelope> {
        self.flush_staged();
        let agg = exported_aggregate(self.id, schedule.offer_id.value());
        let Some(agg) = agg.filter(|_| self.up.is_some()) else {
            return Vec::new();
        };
        let local = ScheduledFlexOffer {
            offer_id: FlexOfferId(agg.value()),
            ..schedule
        };
        self.disaggregate(&[local], now, state)
    }

    /// Turn macro schedules (local aggregate-id space) into assignments
    /// for the level below, recording each released member in `state` —
    /// the one place assignment envelopes are built. The members' deletes
    /// go through the pipeline as one batch.
    fn disaggregate(
        &mut self,
        macros: &[ScheduledFlexOffer],
        now: TimeSlot,
        state: OfferState,
    ) -> Vec<Envelope> {
        let mut out = Vec::new();
        for macro_schedule in macros {
            let agg_id = AggregateId(macro_schedule.offer_id.value());
            let Ok(members) = self.pipeline.disaggregate(agg_id, macro_schedule) else {
                continue;
            };
            for schedule in members {
                let Some((to, discount_per_kwh)) = self.release(&schedule, now, state) else {
                    continue;
                };
                let message = Message::Assignment {
                    schedule,
                    discount_per_kwh,
                };
                out.push(Envelope::new(self.id, to, now, message));
            }
        }
        if !out.is_empty() {
            self.flush_staged();
        }
        out
    }

    /// Window start of the live plan, if one is pending commitment.
    pub fn live_window(&self) -> Option<TimeSlot> {
        self.live.as_ref().map(|l| l.window_start)
    }

    /// The live plan's problem, when one is pending commitment.
    pub fn live_problem(&self) -> Option<&SchedulingProblem> {
        self.live.as_ref().map(|l| l.eval.problem())
    }

    /// The live plan's current solution.
    pub fn live_solution(&self) -> Option<&Solution> {
        self.live.as_ref().map(|l| l.eval.solution())
    }

    /// The live plan's current total cost.
    pub fn live_cost(&self) -> Option<f64> {
        self.live.as_ref().map(|l| l.eval.total())
    }

    /// Export ids of the macro offers this node's parent should pool —
    /// the "no phantom offers" probe. Reflects the last flush; empty
    /// without a parent.
    pub fn exported_offer_ids(&self) -> Vec<FlexOfferId> {
        if self.up.is_none() {
            return Vec::new();
        }
        self.pipeline
            .aggregates()
            .map(|agg| FlexOfferId(export_id(self.id, agg.id)))
            .collect()
    }

    /// The aggregation pipeline (read-only; diagnostics and equivalence
    /// tests). Reflects the last flush: staged updates are not in it yet.
    pub fn pipeline(&self) -> &AggregationPipeline {
        &self.pipeline
    }

    /// Aggregates currently maintained.
    pub fn aggregate_count(&self) -> usize {
        self.pipeline.aggregate_count()
    }

    /// Offers currently pooled.
    pub fn pool_size(&self) -> usize {
        self.pool.len()
    }

    /// Ids of the pooled offers, ascending.
    pub fn pooled_ids(&self) -> Vec<FlexOfferId> {
        self.pool.keys().copied().collect()
    }

    /// A pooled offer, by id.
    pub fn pooled_offer(&self, id: FlexOfferId) -> Option<&FlexOffer> {
        self.pool.get(&id).map(|(offer, _)| offer)
    }

    /// The child a pooled offer came from.
    pub fn source_of(&self, id: FlexOfferId) -> Option<NodeId> {
        self.pool.get(&id).map(|(_, source)| *source)
    }

    /// Digest of the pooled offers and their sources, in id order —
    /// recovery tests compare a replayed node's pool against its
    /// never-crashed twin.
    pub fn pool_digest(&self) -> u64 {
        let mut digest: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut buf = Vec::new();
        for entry in self.pool.values() {
            buf.clear();
            entry.encode(&mut buf);
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in &buf {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            digest = digest.rotate_left(7) ^ h;
        }
        digest
    }

    /// State of the parent-link failure detector (`Up` without a parent).
    pub fn link_state(&self) -> LinkState {
        self.up.as_ref().map_or(LinkState::Up, |l| l.health.state())
    }

    /// Counters of the parent-link failure detector.
    pub fn link_health_stats(&self) -> LinkHealthStats {
        self.up
            .as_ref()
            .map_or_else(LinkHealthStats::default, |l| l.health.stats())
    }

    /// Upward flushes the parent has not acknowledged yet.
    pub fn unacked_flushes(&self) -> u64 {
        self.up.as_ref().map_or(0, |l| l.retransmit.unacked())
    }

    /// Provisional macro assignments awaiting reconciliation.
    pub fn provisional_count(&self) -> usize {
        self.up.as_ref().map_or(0, |l| l.provisional.len())
    }

    /// Drain the log of islanded planning rounds accumulated since the
    /// last call.
    pub fn take_islanded_rounds(&mut self) -> Vec<IslandedRound> {
        self.up
            .as_mut()
            .map(|l| std::mem::take(&mut l.islanded_log))
            .unwrap_or_default()
    }
}

impl<P: ChildPort> Node for PlannerNode<P> {
    fn node_id(&self) -> NodeId {
        self.id
    }

    fn handle(&mut self, envelope: Envelope, now: TimeSlot) -> Vec<Envelope> {
        PlannerNode::handle(self, envelope, now)
    }
}

#[cfg(test)]
impl<P: ChildPort> PlannerNode<P> {
    /// The staged export deltas, under a parent: export id →
    /// `Some(aggregate)` for an upsert, `None` for a delete.
    pub(crate) fn outbox(&self) -> Option<BTreeMap<u64, Option<AggregateId>>> {
        let staged = |id: &u64| {
            let live = exported_aggregate(self.id, *id)
                .filter(|agg| self.pipeline.aggregate(*agg).is_some());
            (*id, live)
        };
        self.up
            .as_ref()
            .map(|l| l.outbox.iter().map(staged).collect())
    }
}
