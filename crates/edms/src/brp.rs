//! The level-2 balance-responsible-party (trader) node: the full LEDMS.
//!
//! The Control component is [`BrpNode::handle`] plus the planning
//! life-cycle: collect offers from prosumers, decide acceptance
//! (Negotiation), aggregate incrementally (Aggregation), forecast the
//! baseline (Forecasting), schedule the macro offers (Scheduling),
//! disaggregate and send assignments back — or forward the macro-offer
//! *delta stream* to the TSO and disaggregate *its* assignments instead
//! (paper §2: "the process is essentially repeated at a higher level").
//!
//! ## The unified life-cycle
//!
//! Planning runs on the shared [`PlanEngine`]
//! — the same prepare → replan → commit machinery the TSO uses one level
//! up:
//!
//! 1. [`BrpNode::prepare_plan`] schedules the eligible macro offers and
//!    keeps the result as a **live** `DeltaEvaluator` (owning its
//!    problem) instead of throwing the search state away;
//! 2. [`BrpNode::on_forecast_event`] consumes a typed
//!    [`ForecastEvent`] from the pub/sub hub: rebase on exactly the
//!    changed slots, scoped parallel multi-start repair — and offers
//!    submitted *while the plan is live* are spliced straight into the
//!    evaluator by the engine's offer-delta folding;
//! 3. [`BrpNode::commit_plan`] disaggregates the live solution into
//!    micro assignments once the window's deadline approaches.
//!
//! In TSO mode (`forward_to_tso`), the BRP does not schedule locally;
//! instead every aggregate change its pipeline emits is staged as an
//! export delta and flushed upward as one
//! [`Message::MacroOfferDeltas`] batch per planning round — snapshots
//! never cross the wire.
//!
//! ## Ingest: accumulate, then flush before read
//!
//! An accepted submission updates the pool, the datastore, the WAL and
//! its reply on the spot, but its [`FlexOfferUpdate`] is only *staged*
//! in the engine ([`PlanEngine::stage_offer_updates`]) — the paper's
//! aggregation component accumulates updates and processes them in bulk
//! (§4). A wave of submissions then costs one pipeline pass — one group
//! flush, one profile re-fold and one staged export per *touched
//! aggregate* — instead of one per offer. Everything derived from the
//! pipeline (aggregates, `exports`, `outbox`, a live plan) describes the
//! last flush, so the node keeps a single rule: **flush before anything
//! reads derived state**. The read points are
//!
//! * the top of [`BrpNode::prepare_plan`] — the round's expiry deletes
//!   join the staged submissions in the same single pass;
//! * [`Message::ResyncRequest`] / every snapshot the node volunteers
//!   (heal, retransmit, recovery), which walk `exports`;
//! * a TSO [`Message::Assignment`] (and the replay of an islanded commit
//!   marker), which disaggregates through `exports` and the pipeline;
//! * [`BrpNode::commit_plan`], which takes the live plan;
//! * in [`BrpNode::recover`], the logged outbox-flush and provisional
//!   markers, and the closing resync snapshot;
//! * a **live plan**, which is a standing reader: while
//!   [`BrpNode::live_window`] is `Some`, the buffer is flushed at the end
//!   of the [`BrpNode::handle`] that filled it, so a late submission
//!   still folds into the plan as a trickle.
//!
//! Nothing selects between the two timings but the node's own state, and
//! WAL snapshots encode the pool only, so durability never depended on
//! the buffer. [`BrpNode::exported_offer_ids`] is the one `&self`
//! accessor over derived state; it reports the last flush.
//!
//! ## Durability
//!
//! The node's durable half is a journal; [`crate::wal`] states its
//! contract once for both planner levels. What is BRP-specific: the
//! snapshot is the pool plus the duplicate filters (everything else is
//! derived), and the markers are the outbox flush, the islanded commit
//! ledger and the empty report that hands that ledger off.

use crate::datastore::{
    DataStore, EnergyType, MeasurementFact, OfferFact, OfferState, ScheduleFact,
};
use crate::message::{Envelope, Message};
use crate::runtime::{Node, NodeRuntime, PlanEngine, RuntimeConfig};
use crate::wal::{Journal, NodeWal, WalConfig, WalStore};
use crate::wire::{
    DedupRx, LinkHealth, LinkHealthConfig, LinkHealthStats, LinkState, RetransmitTracker,
};
use mirabel_aggregate::{
    AggregateUpdate, AggregationParams, AggregationPipeline, BinPackerConfig, FlexOfferUpdate,
};
use mirabel_core::codec::{CodecError, Wire};
use mirabel_core::{AggregateId, FlexOffer, FlexOfferId, NodeId, ScheduledFlexOffer, TimeSlot};
use mirabel_forecast::{ForecastEvent, ForecastModel, HwtConfig, HwtModel, Seasonality};
use mirabel_negotiate::{AcceptanceDecision, AcceptancePolicy, PreExecutionPricing};
use mirabel_schedule::MarketPrices;
use mirabel_timeseries::TimeSeries;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};

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
    /// Acceptance policy (Negotiation component).
    pub acceptance: AcceptancePolicy,
    /// Pricing scheme for assignments.
    pub pricing: PreExecutionPricing,
    /// Forward macro-offer deltas to the TSO instead of scheduling
    /// locally.
    pub forward_to_tso: bool,
    /// Parallel multi-start chains (K) per incremental repair.
    pub repair_chains: usize,
    /// Proposed moves per repair chain.
    pub repair_moves: usize,
    /// Parallel best-of-K restarts of the *initial* scheduler run (1 =
    /// single start; chain 0 always reproduces the single-start result).
    pub initial_starts: usize,
    /// Worker pool shared by every parallel path of this node —
    /// aggregate flush shards, initial-start chains and repair chains.
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
            acceptance: AcceptancePolicy::default(),
            pricing: PreExecutionPricing::default(),
            forward_to_tso: false,
            repair_chains: runtime.repair_chains,
            repair_moves: runtime.repair_moves,
            initial_starts: runtime.initial_starts,
            pool: runtime.pool,
            link_health: LinkHealthConfig::default(),
        }
    }
}

impl BrpConfig {
    /// The shared runtime knobs carried by this configuration.
    fn runtime(&self) -> RuntimeConfig {
        RuntimeConfig {
            scheduler: self.scheduler,
            budget_evaluations: self.budget_evaluations,
            initial_starts: self.initial_starts,
            repair_chains: self.repair_chains,
            repair_moves: self.repair_moves,
            pool: self.pool.clone(),
        }
    }
}

/// The level-2 node.
#[derive(Debug)]
pub struct BrpNode {
    /// This node's id.
    pub id: NodeId,
    /// Parent TSO, if any.
    pub parent: Option<NodeId>,
    config: BrpConfig,
    /// Offer pool: id → (offer, source node). Ordered so every walk
    /// (expiry, planning) is deterministic across runs.
    pool: BTreeMap<FlexOfferId, (FlexOffer, NodeId)>,
    /// The shared planning runtime: pipeline + live plan.
    engine: PlanEngine,
    /// The Data Management component.
    pub store: DataStore,
    /// Exported macro-offer id → local aggregate id (TSO path).
    exports: BTreeMap<u64, AggregateId>,
    /// Net export deltas staged since the last forward (TSO path),
    /// keyed by export id: `Some(aggregate)` = upsert pending (the
    /// offer value is materialized once, at flush), `None` = delete
    /// pending. Later changes to the same aggregate overwrite earlier
    /// ones, so both the staging cost and the wire are proportional to
    /// the number of aggregates that changed, not to churn.
    outbox: BTreeMap<u64, Option<AggregateId>>,
    /// One at-most-once filter per sender: network-duplicated inbound
    /// envelopes (submissions, assignments, resync requests) are dropped
    /// before they reach a handler. A `HashMap` is safe: probed by
    /// sender only, never iterated, so its order cannot leak into
    /// results (snapshots sort by sender before encoding).
    rx: HashMap<u64, DedupRx, crate::comm::IdHashBuilder>,
    /// The durable half: write-ahead log plus marker causation (see
    /// [`crate::wal`]); detached — every call a no-op — until a WAL is
    /// attached, and while [`BrpNode::recover`] replays.
    journal: Journal,
    /// Failure detector for the TSO link (meaningful in TSO mode only).
    health: LinkHealth,
    /// Piggybacked-ack bookkeeping for upward outbox flushes.
    retransmit: RetransmitTracker,
    /// Envelopes accepted from the parent so far — the cumulative count
    /// this node's own heartbeats piggyback as an ack.
    parent_heard: u64,
    /// Whether the current live plan was prepared islanded (TSO link
    /// `Down`): its commit stamps assignments provisional.
    islanded_round: bool,
    /// First slot of the current island (None while connected).
    islanded_since: Option<TimeSlot>,
    /// Macro-level provisional assignments (export-id space) committed
    /// while islanded, pending the reconciliation handshake on heal.
    provisional: BTreeMap<FlexOfferId, ScheduledFlexOffer>,
    /// Per-window log of islanded planning rounds, drained by the
    /// simulation ([`take_islanded_rounds`](Self::take_islanded_rounds)).
    islanded_log: Vec<IslandedRound>,
}

/// One islanded planning round: what the BRP's local engine prepared
/// and committed for a window while its TSO link was `Down`. The chaos
/// invariant checker asserts `committed_cost <= prepared_cost` — the
/// islanded window's imbalance is bounded by the local-only optimum the
/// engine found at prepare time (refreshed after each mid-window
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
    /// Provisional micro assignments the commit produced.
    pub assignments: usize,
}

/// The state snapshot a BRP installs at WAL compaction points: the
/// offer pool (with source nodes) plus the per-sender duplicate-filter
/// states. Everything else a BRP holds — aggregates, exports, outbox —
/// is *derived* and is rebuilt by re-feeding the pool through the
/// aggregation pipeline on restore.
struct BrpSnapshot {
    pool: Vec<(FlexOffer, NodeId)>,
    /// One row per inbound stream, sorted by sender.
    rx: Vec<DedupRow>,
}

/// `(sender, ((delivered_below, seen), duplicates))`: nested pairs
/// because pairs are what the codec implements — the bytes are the four
/// fields in a row.
type DedupRow = (u64, ((u64, Vec<u64>), u64));

impl Wire for BrpSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.pool.encode(out);
        self.rx.encode(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(BrpSnapshot {
            pool: Wire::decode(buf)?,
            rx: Wire::decode(buf)?,
        })
    }
}

impl BrpNode {
    /// Create a BRP node. All parallel paths — pipeline flush included —
    /// run on the config's shared worker pool (wired by [`PlanEngine`]).
    pub fn new(id: NodeId, parent: Option<NodeId>, config: BrpConfig) -> BrpNode {
        let pipeline = AggregationPipeline::new(config.aggregation, config.binpacker);
        let engine = PlanEngine::new(
            pipeline,
            config.runtime(),
            id.value().wrapping_mul(0x9e37_79b9),
        );
        let health = LinkHealth::new(config.link_health);
        BrpNode {
            id,
            parent,
            config,
            pool: BTreeMap::new(),
            engine,
            store: DataStore::new(),
            exports: BTreeMap::new(),
            outbox: BTreeMap::new(),
            rx: HashMap::default(),
            journal: Journal::default(),
            health,
            retransmit: RetransmitTracker::default(),
            parent_heard: 0,
            islanded_round: false,
            islanded_since: None,
            provisional: BTreeMap::new(),
            islanded_log: Vec::new(),
        }
    }

    /// Attach a write-ahead log. From here on every accepted inbound
    /// envelope and outbox flush is appended before it is applied, and
    /// the node installs a compacting snapshot every
    /// [`WalConfig::snapshot_every`] events.
    pub fn attach_wal(&mut self, wal: NodeWal) {
        self.journal.attach(wal);
    }

    /// The attached WAL, if any (diagnostics: tail length, io errors).
    pub fn wal(&self) -> Option<&NodeWal> {
        self.journal.wal()
    }

    /// Detach and return the WAL (the chaos harness keeps the "disk"
    /// alive across a simulated crash this way).
    pub fn take_wal(&mut self) -> Option<NodeWal> {
        self.journal.detach()
    }

    /// Network-injected duplicates this node's at-most-once filters
    /// dropped, summed across its inbound sender streams — the dedup
    /// column of the federation's per-region stats rollup.
    pub fn dedup_duplicates(&self) -> u64 {
        self.rx.values().map(|rx| rx.duplicates).sum()
    }

    /// Order-independent digest of the pooled offers — recovery tests
    /// compare a replayed node's pool against its never-crashed twin.
    pub fn pool_digest(&self) -> u64 {
        let mut digest: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut buf = Vec::new();
        for (offer, from) in self.pool.values() {
            buf.clear();
            offer.encode(&mut buf);
            from.encode(&mut buf);
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in &buf {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            digest = digest.rotate_left(7) ^ h;
        }
        digest
    }

    /// The node's durable state for a WAL snapshot.
    fn snapshot(&self) -> BrpSnapshot {
        let mut rx: Vec<_> = self
            .rx
            .iter()
            .map(|(sender, dedup)| {
                let (below, seen, dups) = dedup.export_state();
                (*sender, ((below, seen), dups))
            })
            .collect();
        // The rx map is a HashMap: sort so snapshot bytes (and thus WAL
        // contents) are identical across runs.
        rx.sort_unstable_by_key(|row| row.0);
        BrpSnapshot {
            pool: self
                .pool
                .values()
                .map(|(offer, from)| (offer.clone(), *from))
                .collect(),
            rx,
        }
    }

    /// Restore from a decoded snapshot: the pool is staged for the
    /// aggregation pipeline like any other ingest (its flush rebuilds
    /// aggregates, exports and outbox as a full refresh — the parent's
    /// pooled view is then reconciled by the recovery resync snapshot),
    /// and the duplicate filters resume where the crashed node's windows
    /// stood.
    fn restore_snapshot(&mut self, snap: BrpSnapshot) {
        for (offer, from) in snap.pool {
            self.engine
                .stage_offer_updates([FlexOfferUpdate::Insert(offer.clone())]);
            self.pool.insert(offer.id(), (offer, from));
        }
        self.rx.clear();
        for (sender, ((below, seen), dups)) in snap.rx {
            self.rx
                .insert(sender, DedupRx::from_state(below, seen, dups));
        }
    }

    /// Install a compacting snapshot when the journal's tail has grown
    /// past its configured bound.
    fn compact(&mut self) {
        if self.journal.wants_snapshot() {
            self.journal.compact(self.snapshot());
        }
    }

    /// Rebuild a crashed BRP from its surviving WAL store: restore the
    /// latest snapshot, replay the events appended since (with the
    /// original handling clock, replies suppressed — they were already
    /// sent pre-crash), resume the WAL, and emit a voluntary
    /// [`Message::ResyncSnapshot`] to the parent so its pooled view
    /// re-anchors on the recovered export set. Returns the node plus the
    /// recovery envelopes to route.
    pub fn recover(
        id: NodeId,
        parent: Option<NodeId>,
        config: BrpConfig,
        store: Box<dyn WalStore>,
        wal_config: WalConfig,
        now: TimeSlot,
    ) -> std::io::Result<(BrpNode, Vec<Envelope>)> {
        let (journal, snapshot, tail) = Journal::reopen::<BrpSnapshot>(store, wal_config)?;
        let mut node = BrpNode::new(id, parent, config);
        if let Some(snap) = snapshot {
            node.restore_snapshot(snap);
        }
        for rec in tail {
            if rec.replay_safe && rec.envelope.to == id {
                // Re-drive the ingest through the real handler; the
                // regenerated replies are dropped.
                let _ = BrpNode::handle(&mut node, rec.envelope, rec.recorded_at);
            } else if rec.envelope.from == id {
                match rec.envelope.message {
                    // Outbox-flush marker: these staged deltas left the
                    // node before the crash — replay the flush as the
                    // state transition it was. The submissions replayed
                    // so far are what that flush carried, so they go
                    // through the pipeline (and into the outbox) first.
                    Message::MacroOfferDeltas(_) => {
                        node.flush_staged();
                        node.outbox.clear();
                    }
                    // Provisional markers: non-empty = an islanded
                    // commit's macro ledger (re-apply it so the pool
                    // effect of the crashed commit is reproduced); empty
                    // = the reconciliation hand-off that cleared it.
                    Message::ProvisionalReport { assignments, .. } => {
                        if assignments.is_empty() {
                            node.provisional.clear();
                        }
                        for s in assignments {
                            node.provisional.insert(s.offer_id, s.clone());
                            let _ = node.apply_macro_assignment(
                                s,
                                rec.recorded_at,
                                OfferState::Provisional,
                            );
                        }
                    }
                    _ => {}
                }
            }
        }
        node.journal = journal;
        // A restart is a reconciliation point: if the crashed node died
        // mid-island, its rebuilt provisional ledger ships ahead of the
        // re-anchoring snapshot, exactly like a live heal would send it.
        let out = match node.parent {
            Some(parent) if node.config.forward_to_tso => node.reconcile(parent, now),
            _ => Vec::new(),
        };
        Ok((node, out))
    }

    /// The reconciliation hand-off, at heal and at restart alike: the
    /// provisional macro assignments FIRST — the TSO audits them against
    /// its pre-snapshot pool (still pooled here → adopt, already assigned
    /// elsewhere → supersede) — then a full export snapshot that
    /// re-anchors its pooled view of this node.
    fn reconcile(&mut self, parent: NodeId, now: TimeSlot) -> Vec<Envelope> {
        let mut out = Vec::new();
        if !self.provisional.is_empty() {
            let report = |window_start, assignments| {
                let message = Message::ProvisionalReport {
                    window_start,
                    assignments,
                };
                Envelope::new(self.id, parent, now, message)
            };
            // Log the hand-off as an *empty* report marker: replaying it
            // wipes the provisional ledger the earlier commit markers
            // rebuilt.
            self.journal.mark(&report(now, Vec::new()), now);
            let ledger = std::mem::take(&mut self.provisional);
            out.push(report(
                self.islanded_since.unwrap_or(now),
                ledger.into_values().collect(),
            ));
        }
        self.islanded_since = None;
        out.extend(self.on_resync_request(parent, now));
        out
    }

    /// Offers currently pooled.
    pub fn pool_size(&self) -> usize {
        self.pool.len()
    }

    /// Current state of the TSO-link failure detector.
    pub fn link_state(&self) -> LinkState {
        self.health.state()
    }

    /// Counters kept by the TSO-link failure detector (federation
    /// rollups absorb these per region).
    pub fn link_health_stats(&self) -> LinkHealthStats {
        self.health.stats()
    }

    /// Upward flushes the parent has not acknowledged yet.
    pub fn unacked_flushes(&self) -> u64 {
        self.retransmit.unacked()
    }

    /// Provisional macro assignments awaiting TSO reconciliation.
    pub fn provisional_count(&self) -> usize {
        self.provisional.len()
    }

    /// Drain the log of islanded planning rounds accumulated since the
    /// last call (the simulation collects these per cycle for the chaos
    /// invariant checks).
    pub fn take_islanded_rounds(&mut self) -> Vec<IslandedRound> {
        std::mem::take(&mut self.islanded_log)
    }

    /// Run everything staged in the engine through the pipeline in one
    /// pass (+ live-plan fold) and stage the aggregate changes as export
    /// deltas in TSO mode. Every reader of derived state calls this
    /// first (see the module docs); a no-op when nothing is staged.
    fn flush_staged(&mut self) {
        let (agg_updates, _fold) = self.engine.flush_offer_updates();
        // Stage only when the deltas can actually be flushed somewhere:
        // without a parent the outbox would grow without bound.
        if self.config.forward_to_tso && self.parent.is_some() {
            self.stage_exports(&agg_updates);
        }
    }

    /// Stage the pipeline's aggregate changes for the next upward flush
    /// in the export id space (`brp-id * 1e9 + aggregate id`). Only the
    /// *net* per-id effect is kept, and upserts stage the aggregate id —
    /// the offer value is materialized once, at flush, never per
    /// emission.
    fn stage_exports(&mut self, updates: &[AggregateUpdate]) {
        for u in updates {
            match u {
                AggregateUpdate::Upsert(agg) => {
                    let export_id = self.id.value() * 1_000_000_000 + agg.id.value();
                    self.exports.insert(export_id, agg.id);
                    self.outbox.insert(export_id, Some(agg.id));
                }
                AggregateUpdate::Removed(agg_id) => {
                    let export_id = self.id.value() * 1_000_000_000 + agg_id.value();
                    if self.exports.remove(&export_id).is_some() {
                        self.outbox.insert(export_id, None);
                    }
                }
            }
        }
    }

    /// Handle one message; returns reply envelopes. Network-duplicated
    /// envelopes (same per-link stream sequence number) are dropped by
    /// the sender's [`DedupRx`] before reaching any handler.
    pub fn handle(&mut self, envelope: Envelope, now: TimeSlot) -> Vec<Envelope> {
        if !self
            .rx
            .entry(envelope.from.value())
            .or_default()
            .accept(envelope.seq)
        {
            return Vec::new();
        }
        // Append-before-apply: only *accepted* envelopes reach the log,
        // so replay re-runs the duplicate filter through the exact same
        // state sequence.
        self.journal.ingest(&envelope, now);
        // Any accepted envelope from the parent is proof of TSO life —
        // the failure detector restarts its silence clock on it, and the
        // count is what this node's own heartbeats piggyback as an ack.
        if Some(envelope.from) == self.parent {
            self.health.heard(now);
            self.parent_heard += 1;
        }
        let out = match envelope.message {
            Message::SubmitOffer(offer) => self.on_submit(offer, envelope.from, now),
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
                    self.store.record_measurement(MeasurementFact {
                        slot: start + i as u32,
                        actor,
                        energy_type,
                        kwh,
                    });
                }
                Vec::new()
            }
            // An assignment for an exported macro offer coming back from
            // the TSO, which prices nothing: discounts are set here.
            Message::Assignment { schedule, .. } => {
                self.apply_macro_assignment(schedule, now, OfferState::Assigned)
            }
            Message::ResyncRequest => self.on_resync_request(envelope.from, now),
            Message::Heartbeat { seen } => {
                if Some(envelope.from) == self.parent {
                    self.health.heard_heartbeat(now);
                    self.retransmit.on_ack(seen);
                }
                Vec::new()
            }
            _ => Vec::new(),
        };
        // A live plan is a standing reader of the pipeline: whatever
        // this envelope staged folds into it now, as a trickle.
        if self.engine.live_window().is_some() {
            self.flush_staged();
        }
        self.compact();
        out
    }

    /// Answer a parent's resync request with a bounded snapshot of the
    /// complete current export set. The snapshot supersedes every delta
    /// staged so far (the receiver re-anchors its stream on it), so the
    /// outbox is cleared — re-sending those deltas after the snapshot
    /// would only replay state the snapshot already carries.
    fn on_resync_request(&mut self, from: NodeId, now: TimeSlot) -> Vec<Envelope> {
        self.flush_staged();
        self.outbox.clear();
        // Exported aggregates are live by construction, but this path
        // also runs right after WAL recovery — skip (rather than panic
        // on) any export whose aggregate a truncated log failed to
        // rebuild; the snapshot diff then retires it at the parent too.
        let offers: Vec<FlexOffer> = self
            .exports
            .iter()
            .filter_map(|(export_id, agg_id)| {
                self.engine
                    .pipeline()
                    .aggregate(*agg_id)?
                    .to_flex_offer_as(*export_id, self.id.value())
                    .ok()
            })
            .collect();
        vec![Envelope::new(
            self.id,
            from,
            now,
            Message::ResyncSnapshot { offers },
        )]
    }

    /// Exported macro-offer ids currently live (the parent's pool should
    /// contain exactly these — the chaos invariant checker's
    /// "no phantom offers" probe). Reflects the last flush: a submission
    /// still staged has no export yet. The probe is unaffected — it looks
    /// for parent-pooled offers this node no longer exports, and a staged
    /// insert has never been sent up, so nothing of it is pooled at the
    /// parent; deletes are never left staged (expiry, commit and
    /// assignment flush on the spot).
    pub fn exported_offer_ids(&self) -> Vec<FlexOfferId> {
        self.exports.keys().map(|id| FlexOfferId(*id)).collect()
    }

    fn on_submit(&mut self, offer: FlexOffer, from: NodeId, now: TimeSlot) -> Vec<Envelope> {
        // One pool descent per submission: the entry doubles as the
        // duplicate probe and the accept path's insertion slot.
        let id = offer.id();
        let decision = self.config.acceptance.decide(&offer, now);
        let reply = match self.pool.entry(id) {
            // Replayed submission of an offer already pooled (an
            // unsequenced duplicate the network dedup cannot catch):
            // re-acknowledge without staging anything — the pool state
            // must not churn.
            Entry::Occupied(e) if e.get().0 == offer => {
                let value = match decision {
                    AcceptanceDecision::Accept { value } => value,
                    AcceptanceDecision::Reject(_) => 0.0,
                };
                Message::OfferAccepted { offer: id, value }
            }
            entry => match decision {
                AcceptanceDecision::Accept { value } => {
                    match entry {
                        Entry::Occupied(mut e) => {
                            e.insert((offer.clone(), from));
                        }
                        Entry::Vacant(v) => {
                            v.insert((offer.clone(), from));
                        }
                    }
                    self.store.record_offer(OfferFact {
                        offer: id,
                        actor: offer.owner(),
                        slot: now,
                        state: OfferState::Accepted,
                    });
                    self.engine
                        .stage_offer_updates([FlexOfferUpdate::Insert(offer)]);
                    Message::OfferAccepted { offer: id, value }
                }
                AcceptanceDecision::Reject(_) => {
                    self.store.record_offer(OfferFact {
                        offer: id,
                        actor: offer.owner(),
                        slot: now,
                        state: OfferState::Rejected,
                    });
                    Message::OfferRejected { offer: id }
                }
            },
        };
        vec![Envelope::new(self.id, from, now, reply)]
    }

    /// Drop offers whose assignment deadline has passed. The deletes are
    /// only staged: the caller's flush runs them and the round's staged
    /// submissions through the pipeline as ONE batch, so each touched
    /// group is flushed once per round.
    fn expire(&mut self, now: TimeSlot) -> usize {
        let expired: Vec<FlexOfferId> = self
            .pool
            .iter()
            .filter(|(_, (o, _))| o.is_expired(now))
            .map(|(id, _)| *id)
            .collect();
        for id in &expired {
            let (offer, _) = self.pool.remove(id).expect("present");
            self.store.record_offer(OfferFact {
                offer: *id,
                actor: offer.owner(),
                slot: now,
                state: OfferState::Expired,
            });
        }
        self.engine
            .stage_offer_updates(expired.iter().map(|id| FlexOfferUpdate::Delete(*id)));
        expired.len()
    }

    /// Forecast the baseline imbalance for `[start, start+horizon)` from
    /// the measurement history (net load via the star schema, HWT daily
    /// model). Returns zeros when history is too short — the cold-start
    /// behaviour.
    pub fn forecast_baseline(&self, start: TimeSlot, horizon: usize) -> Vec<f64> {
        let train_slots = 4 * mirabel_core::SLOTS_PER_DAY as i64;
        let history = self.store.net_load(start - train_slots as u32, start);
        let nonzero = history.iter().filter(|v| **v != 0.0).count();
        if nonzero < 2 * mirabel_core::SLOTS_PER_DAY as usize {
            return vec![0.0; horizon];
        }
        let series = TimeSeries::new(start - train_slots as u32, history);
        let mut model = HwtModel::new(HwtConfig {
            seasonality: Seasonality::Daily,
        });
        model.fit(&series);
        model.forecast(horizon)
    }

    /// Plan the window `[window_start, window_start+horizon)` against an
    /// externally supplied baseline and keep the result as a live
    /// evaluator for incremental replanning. In TSO mode, flushes the
    /// staged export deltas upward instead. Returns forwarding envelopes
    /// plus the report; assignments are produced later by
    /// [`commit_plan`](Self::commit_plan).
    pub fn prepare_plan(
        &mut self,
        now: TimeSlot,
        window_start: TimeSlot,
        baseline: Vec<f64>,
        prices: MarketPrices,
        penalties: Vec<f64>,
    ) -> (Vec<Envelope>, PlanReport) {
        // A new round starts: expiry deltas must not be folded into the
        // previous window's (now stale) live plan, and whether this
        // round runs islanded is decided afresh by the detector below.
        self.engine.abandon();
        self.islanded_round = false;
        let mut report = PlanReport {
            expired: self.expire(now),
            ..PlanReport::default()
        };
        // The round's one bulk pass: every submission staged since the
        // last read point plus the expiry deletes above.
        self.flush_staged();

        if self.config.forward_to_tso {
            report.eligible_macro = self.engine.eligible_count(window_start, baseline.len());
            let Some(parent) = self.parent else {
                return (Vec::new(), report);
            };
            // Advance the failure detector — except out of `Recovering`,
            // which must survive until the reconciliation handshake below
            // has run; its own tick then confirms the heal.
            let state = if self.health.state() == LinkState::Recovering {
                LinkState::Recovering
            } else {
                self.health.tick(now)
            };
            match state {
                LinkState::Down => {
                    // ISLAND: the TSO is presumed unreachable. Keep the
                    // staged export deltas (the heal-time snapshot
                    // supersedes them) and run the local engine over this
                    // node's own pool — which naturally covers every
                    // offer the TSO has not assigned, including ones it
                    // previously passed over. The commit stamps the
                    // resulting assignments provisional.
                    self.islanded_round = true;
                    if self.islanded_since.is_none() {
                        self.islanded_since = Some(window_start);
                    }
                    let (eligible, cost) =
                        self.engine
                            .prepare(window_start, baseline, prices, penalties);
                    report.eligible_macro = eligible;
                    report.cost = cost;
                    self.islanded_log.push(IslandedRound {
                        window_start,
                        eligible,
                        prepared_cost: cost,
                        committed_cost: None,
                        assignments: 0,
                    });
                    return (Vec::new(), report);
                }
                LinkState::Recovering => {
                    // RECONCILE: traffic resumed after an island.
                    let out = self.reconcile(parent, now);
                    self.health.tick(now);
                    self.compact();
                    return (out, report);
                }
                LinkState::Up | LinkState::Suspect => {}
            }
            // Unacked-frontier retransmit: the payload is the idempotent
            // export snapshot, never a replayed delta batch — a re-sent
            // batch would take a fresh stream sequence number and could
            // regress newer state at the receiver.
            if self
                .retransmit
                .should_retransmit(now, &self.config.link_health)
            {
                self.health.note_retransmit();
                return (self.on_resync_request(parent, now), report);
            }
            // Materialize the net staged changes: one offer build per
            // aggregate that actually changed this round.
            let deltas: Vec<FlexOfferUpdate> = std::mem::take(&mut self.outbox)
                .into_iter()
                .map(|(export_id, entry)| match entry {
                    Some(agg_id) => {
                        let agg = self
                            .engine
                            .pipeline()
                            .aggregate(agg_id)
                            .expect("staged upsert outlives the round or is overwritten");
                        FlexOfferUpdate::Insert(
                            agg.to_flex_offer_as(export_id, self.id.value())
                                .expect("aggregates are valid flex-offers"),
                        )
                    }
                    None => FlexOfferUpdate::Delete(FlexOfferId(export_id)),
                })
                .collect();
            report.forwarded = deltas.len();
            if deltas.is_empty() {
                // Nothing staged: heartbeat instead, so the parent (a)
                // hears this node is alive even across idle rounds and
                // (b) registers a stream entry for zero-offer BRPs. The
                // `seen` count acks the parent's traffic in return.
                let heartbeat = Envelope::new(
                    self.id,
                    parent,
                    now,
                    Message::Heartbeat {
                        seen: self.parent_heard,
                    },
                );
                return (vec![heartbeat], report);
            }
            self.retransmit.on_flush(now);
            let env = Envelope::new(self.id, parent, now, Message::MacroOfferDeltas(deltas));
            // Log the flush as a marker: replay treats it as "these staged
            // deltas left the node".
            self.journal.mark(&env, now);
            self.compact();
            return (vec![env], report);
        }

        let (eligible, cost) = self
            .engine
            .prepare(window_start, baseline, prices, penalties);
        report.eligible_macro = eligible;
        report.cost = cost;
        (Vec::new(), report)
    }

    /// React to a typed forecast change event on the live plan (see
    /// [`PlanEngine::on_forecast_event`]).
    pub fn on_forecast_event(&mut self, event: &ForecastEvent) -> Option<ReplanReport> {
        let report = self.engine.on_forecast_event(event);
        if self.islanded_round {
            // A mid-window forecast repair moves the local-only optimum:
            // the islanded invariant (`committed_cost <= prepared_cost`)
            // must be judged against the post-repair bound, not the
            // pre-event one.
            if let (Some(rep), Some(round)) = (report.as_ref(), self.islanded_log.last_mut()) {
                round.prepared_cost = Some(rep.cost_after);
            }
        }
        report
    }

    /// Commit the live plan: disaggregate the current (possibly
    /// repaired) solution into micro assignments and drop the live
    /// state. Returns the assignment envelopes plus the final schedule
    /// cost, or `None` when no plan is live.
    pub fn commit_plan(&mut self, now: TimeSlot) -> Option<(Vec<Envelope>, f64)> {
        self.flush_staged();
        let (problem, solution, cost) = self.engine.commit()?;
        let schedules = solution.to_schedules(&problem);
        let islanded = std::mem::take(&mut self.islanded_round);
        let state = if islanded {
            OfferState::Provisional
        } else {
            OfferState::Assigned
        };
        let envelopes = self.disaggregate_and_assign(&schedules, now, state);
        if !islanded {
            return Some((envelopes, cost));
        }
        if let Some(round) = self.islanded_log.last_mut() {
            round.committed_cost = Some(cost);
            round.assignments = envelopes.len();
        }
        // The macro-level schedules in export-id space: this ledger is
        // what the TSO audits at reconciliation.
        let macros: Vec<ScheduledFlexOffer> = schedules
            .into_iter()
            .map(|s| ScheduledFlexOffer {
                offer_id: FlexOfferId(self.id.value() * 1_000_000_000 + s.offer_id.value()),
                ..s
            })
            .collect();
        self.provisional
            .extend(macros.iter().map(|m| (m.offer_id, m.clone())));
        // Commit marker: replaying a non-empty self-addressed report
        // rebuilds the provisional ledger a crashed island had
        // accumulated.
        if !macros.is_empty() {
            let message = Message::ProvisionalReport {
                window_start: self.islanded_since.unwrap_or(now),
                assignments: macros,
            };
            self.journal
                .mark(&Envelope::new(self.id, self.id, now, message), now);
            self.compact();
        }
        Some((envelopes, cost))
    }

    /// Window start of the live plan, if one is pending commitment.
    pub fn live_window(&self) -> Option<TimeSlot> {
        self.engine.live_window()
    }

    /// Turn macro schedules (local aggregate-id space) into micro
    /// assignments for prosumers, recording each assigned offer in the
    /// given lifecycle state (`Assigned` for connected rounds,
    /// `Provisional` for islanded ones).
    fn disaggregate_and_assign(
        &mut self,
        macro_schedules: &[ScheduledFlexOffer],
        now: TimeSlot,
        state: OfferState,
    ) -> Vec<Envelope> {
        let mut out = Vec::new();
        // Collect every assigned offer's delete and run them through the
        // pipeline as one batch after the loop: each touched group is
        // flushed once per call, not once per micro assignment.
        let mut deletes = Vec::new();
        for macro_schedule in macro_schedules {
            let agg_id = AggregateId(macro_schedule.offer_id.value());
            let Ok(micro) = self.engine.pipeline().disaggregate(agg_id, macro_schedule) else {
                continue;
            };
            for schedule in micro {
                let Some((offer, source)) = self.pool.remove(&schedule.offer_id) else {
                    continue;
                };
                deletes.push(FlexOfferUpdate::Delete(schedule.offer_id));
                let discount = self.config.pricing.discount_per_kwh(&offer, now);
                self.store.record_offer(OfferFact {
                    offer: offer.id(),
                    actor: offer.owner(),
                    slot: now,
                    state,
                });
                self.store.record_schedule(ScheduleFact {
                    offer: offer.id(),
                    start: schedule.start,
                    total_kwh: schedule.total_energy().kwh(),
                    discount,
                });
                out.push(Envelope::new(
                    self.id,
                    source,
                    now,
                    Message::Assignment {
                        schedule,
                        discount_per_kwh: discount,
                    },
                ));
            }
        }
        if !deletes.is_empty() {
            // Deleting the assigned members collapses their aggregates;
            // in TSO mode the resulting `Removed` deltas are staged so the
            // parent's pool forgets the exports too. Flushed on the spot:
            // this path has just read derived state.
            self.engine.stage_offer_updates(deletes);
            self.flush_staged();
        }
        out
    }

    /// Disaggregate one export-space macro schedule — a TSO assignment —
    /// into micro assignments. Also the replay path for islanded commit
    /// markers: the deterministic pipeline rebuilds the same aggregates,
    /// so re-applying the logged macro ledger reproduces the crashed
    /// island's pool effect exactly.
    fn apply_macro_assignment(
        &mut self,
        schedule: ScheduledFlexOffer,
        now: TimeSlot,
        state: OfferState,
    ) -> Vec<Envelope> {
        self.flush_staged();
        let Some(agg_id) = self.exports.get(&schedule.offer_id.value()).copied() else {
            return Vec::new();
        };
        // Rewrite the schedule to reference the local aggregate id.
        let local = ScheduledFlexOffer {
            offer_id: FlexOfferId(agg_id.value()),
            ..schedule
        };
        self.disaggregate_and_assign(&[local], now, state)
    }
}

impl Node for BrpNode {
    fn node_id(&self) -> NodeId {
        self.id
    }

    fn handle(&mut self, envelope: Envelope, now: TimeSlot) -> Vec<Envelope> {
        BrpNode::handle(self, envelope, now)
    }
}

impl NodeRuntime for BrpNode {
    fn prepare_plan(
        &mut self,
        now: TimeSlot,
        window_start: TimeSlot,
        baseline: Vec<f64>,
        prices: MarketPrices,
        penalties: Vec<f64>,
    ) -> (Vec<Envelope>, PlanReport) {
        BrpNode::prepare_plan(self, now, window_start, baseline, prices, penalties)
    }

    fn on_forecast_event(&mut self, event: &ForecastEvent) -> Option<ReplanReport> {
        BrpNode::on_forecast_event(self, event)
    }

    fn commit_plan(&mut self, now: TimeSlot) -> Vec<Envelope> {
        BrpNode::commit_plan(self, now)
            .map(|(envelopes, _)| envelopes)
            .unwrap_or_default()
    }

    fn live_window(&self) -> Option<TimeSlot> {
        BrpNode::live_window(self)
    }
}

#[cfg(test)]
mod ingest_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use mirabel_core::{EnergyRange, Price, Profile};

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
    fn multi_start_initial_plan_never_worse() {
        let plan_cost = |starts: usize| {
            let mut brp = BrpNode::new(
                NodeId(1),
                None,
                BrpConfig {
                    initial_starts: starts,
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
            let (_, report) = plan_round(
                &mut brp,
                TimeSlot(80),
                TimeSlot(96),
                baseline,
                MarketPrices::flat(96, 0.08, 0.03, 100.0),
                vec![0.2; 96],
            );
            report.cost.expect("scheduled locally")
        };
        let single = plan_cost(1);
        let multi = plan_cost(3);
        // Chain 0 of the multi-start shares the single-start seed, so
        // best-of-3 can never be worse.
        assert!(multi <= single + 1e-9, "multi {multi} vs single {single}");
    }

    #[test]
    fn shared_pool_width_does_not_change_the_plan() {
        // End-to-end determinism through the node: flush shards,
        // best-of-K initial starts and repair chains all dispatch onto
        // the config's pool, and the committed plan is identical whether
        // that pool is serial or 8 lanes wide.
        let plan_with = |width: usize| {
            let mut brp = BrpNode::new(
                NodeId(1),
                None,
                BrpConfig {
                    pool: mirabel_core::exec::Pool::new(width),
                    initial_starts: 3,
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
        assert!(brp.outbox.values().any(|d| d.is_none()));
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
    fn forecast_baseline_cold_start_is_zero() {
        let brp = BrpNode::new(NodeId(1), None, BrpConfig::default());
        let f = brp.forecast_baseline(TimeSlot(1000), 96);
        assert_eq!(f, vec![0.0; 96]);
    }

    #[test]
    fn forecast_baseline_learns_from_measurements() {
        let mut brp = BrpNode::new(NodeId(1), None, BrpConfig::default());
        // four days of a flat 5 kWh/slot net load
        let start = TimeSlot(0);
        let values = vec![5.0; 4 * 96];
        brp.handle(
            Envelope::new(
                NodeId(10),
                NodeId(1),
                TimeSlot(0),
                Message::Measurement {
                    actor: mirabel_core::ActorId(7),
                    start,
                    values,
                },
            ),
            TimeSlot(0),
        );
        let f = brp.forecast_baseline(TimeSlot(4 * 96), 10);
        for v in f {
            assert!((v - 5.0).abs() < 0.5, "forecast {v}");
        }
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
