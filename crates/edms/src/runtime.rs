//! The unified node runtime: one prepare → replan → commit life-cycle
//! for every planning level of the hierarchy.
//!
//! The paper's EDMS repeats the same aggregate → schedule → disaggregate
//! cycle at every level ("the process is essentially repeated at a
//! higher level", §2). PR 2 grew the *incremental, event-driven* version
//! of that cycle inside the BRP; this module extracts it so the TSO (and
//! any future level) runs the identical machinery:
//!
//! * [`PlanEngine`] owns a node's aggregation pipeline plus the **live
//!   plan** — a [`DeltaEvaluator`] that survives between scheduling and
//!   commitment. It implements the three phases:
//!   1. [`PlanEngine::prepare`] — schedule the window-eligible macro
//!      offers (parallel best-of-K restarts) and keep the search state
//!      alive instead of throwing it away;
//!   2. [`PlanEngine::on_forecast_event`] — rebase the live evaluator on
//!      exactly the slots a typed pub/sub forecast event moved
//!      (lineage-guarded), then run a scoped parallel multi-start
//!      repair — O(changed), never a problem reconstruction; its
//!      sibling [`PlanEngine::apply_offer_updates`] runs pool deltas
//!      through the aggregation pipeline *and folds the resulting
//!      aggregate changes into the live plan*: new/updated macro offers
//!      are spliced into the evaluator at O(offer duration) each
//!      ([`DeltaEvaluator::insert_offer`] / `remove_offer`), followed by
//!      a repair scoped to the touched slots — a trickle offer change
//!      replans in time proportional to the *trickle*, not the pool;
//!   3. [`PlanEngine::commit`] — hand the (possibly repaired) problem +
//!      solution back for node-specific disaggregation.
//! * [`Node`] is the minimal message-handling surface the simulation's
//!   generic event pump drains — every hierarchy level implements it;
//! * [`NodeRuntime`] extends [`Node`] with the planning life-cycle —
//!   levels 2 (BRP) and 3 (TSO) implement it, so the simulation drives
//!   the whole hierarchy as one list of planners instead of hand-ordered
//!   per-level calls.
//!
//! ## Accumulate, then flush before read
//!
//! The paper's aggregation component accumulates flex-offer updates and
//! processes them in bulk when aggregates are needed (§4). The engine
//! exposes that split as [`PlanEngine::stage_offer_updates`] (a `Vec`
//! push into the group-builder's buffer) and
//! [`PlanEngine::flush_offer_updates`] (one pipeline pass over the whole
//! buffer + the live-plan fold); [`PlanEngine::apply_offer_updates`] is
//! the two back to back. Staged updates are invisible to everything
//! derived, so the owning node keeps **one rule: flush before anything
//! reads derived state**. The readers are [`PlanEngine::pipeline`]
//! (aggregates, slab lookups, disaggregation),
//! [`PlanEngine::eligible_macros`] / [`PlanEngine::eligible_count`] /
//! [`PlanEngine::prepare`], and the live plan itself — a *standing*
//! reader: while [`PlanEngine::live_window`] is `Some`, a node flushes at
//! the end of the `handle` that staged something, so late changes still
//! splice into the plan as a trickle. Whether to flush now or later is
//! thus derived from state the node observes, never configured.
//!
//! One `NodeRuntime` level list is one **region**. The multi-region
//! [`Federation`](crate::federation::Federation) instantiates N of
//! these hierarchies — each with its own network, WAL namespace and
//! derived RNG stream — drives them in parallel (`Pool::run_each`; the
//! trees share no mutable state), and splices only their TSOs' macro
//! exports together at the top, so everything in this module stays
//! region-oblivious.

use crate::message::Envelope;
use mirabel_aggregate::{
    AggregateUpdate, AggregatedFlexOffer, AggregationPipeline, FlexOfferUpdate,
};
use mirabel_core::exec::Pool;
use mirabel_core::{FlexOffer, FlexOfferId, NodeId, TimeSlot};
use mirabel_forecast::ForecastEvent;
use mirabel_schedule::{
    multi_start, offer_reach, repair_parallel, repair_scope, Budget, DeltaEvaluator,
    EvolutionaryScheduler, GreedyScheduler, HybridScheduler, MarketPrices, Placement, RepairConfig,
    SchedulingProblem, Solution,
};
use std::collections::BTreeMap;

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

/// Scheduling/replanning knobs shared by every [`PlanEngine`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Scheduling algorithm for the initial plan.
    pub scheduler: SchedulerKind,
    /// Cost-evaluation budget per planning run.
    pub budget_evaluations: usize,
    /// Parallel best-of-K restarts of the *initial* scheduler run (1 =
    /// single start; chain 0 always reproduces the single-start result).
    pub initial_starts: usize,
    /// Parallel multi-start chains (K) per incremental repair.
    pub repair_chains: usize,
    /// Proposed moves per repair chain.
    pub repair_moves: usize,
    /// Worker pool every parallel path of this engine dispatches onto —
    /// initial-start chains, repair chains, and the aggregation
    /// pipeline's shard-parallel flush. Handles are cheap `Arc` clones;
    /// the default is the process-wide [`Pool::global`], so a whole
    /// hierarchy of nodes shares one set of parked workers instead of
    /// re-spawning threads per node per round. Output never depends on
    /// the pool width.
    pub pool: Pool,
}

impl Default for RuntimeConfig {
    fn default() -> RuntimeConfig {
        let repair = RepairConfig::default();
        RuntimeConfig {
            scheduler: SchedulerKind::Greedy,
            budget_evaluations: 20_000,
            initial_starts: 1,
            repair_chains: repair.chains,
            repair_moves: repair.moves_per_chain,
            pool: Pool::global().clone(),
        }
    }
}

/// Outcome of one planning run ([`NodeRuntime::prepare_plan`]).
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
/// ([`NodeRuntime::on_forecast_event`]).
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

/// Outcome of folding a batch of offer-pool deltas into a live plan
/// ([`PlanEngine::apply_offer_updates`] while a plan is live).
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

/// The shared planning core of a hierarchy node: aggregation pipeline +
/// live delta evaluator + the prepare/replan/commit life-cycle.
#[derive(Debug)]
pub struct PlanEngine {
    pipeline: AggregationPipeline,
    cfg: RuntimeConfig,
    live: Option<LivePlan>,
    /// The engine's identity seed, fixed at construction.
    base_seed: u64,
    /// The current window's running seed, re-derived from
    /// `(base_seed, window_start)` at every [`PlanEngine::prepare`] and
    /// bumped per stochastic use within the window. Deriving it from the
    /// window — not from a running history counter — means two runs that
    /// agree on a window's inputs plan it identically *even if their
    /// histories differ* (e.g. a chaos run that needed extra resync
    /// repairs earlier converges back to the no-chaos run's plans).
    seed: u64,
}

/// Mix a window start into an engine's base seed (splitmix64 finalizer).
fn window_seed(base: u64, window_start: TimeSlot) -> u64 {
    let mut z = base ^ (window_start.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl PlanEngine {
    /// Engine around an aggregation pipeline. The pipeline's flush is
    /// rewired onto the config's shared worker pool, so aggregation and
    /// scheduling run on the same executor.
    pub fn new(mut pipeline: AggregationPipeline, cfg: RuntimeConfig, seed: u64) -> PlanEngine {
        pipeline.set_flush_pool(cfg.pool.clone());
        PlanEngine {
            pipeline,
            cfg,
            live: None,
            base_seed: seed,
            seed,
        }
    }

    /// The aggregation pipeline (read-only; mutate through
    /// [`apply_offer_updates`](Self::apply_offer_updates) so live plans
    /// stay in sync). Reflects the last flush: staged updates are not in
    /// it yet.
    pub fn pipeline(&self) -> &AggregationPipeline {
        &self.pipeline
    }

    /// The shared worker pool this engine dispatches onto.
    pub fn pool(&self) -> &Pool {
        &self.cfg.pool
    }

    /// Window start of the live plan, if one is pending commitment.
    pub fn live_window(&self) -> Option<TimeSlot> {
        self.live.as_ref().map(|l| l.window_start)
    }

    /// Drop the live plan without committing it (a new planning round is
    /// starting; pool deltas must not be folded into the stale window).
    pub fn abandon(&mut self) {
        self.live = None;
    }

    /// The live plan's problem, if one is pending commitment.
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

    /// Macro offers that fit entirely inside `[start, start+horizon)`.
    /// The window test runs on the aggregate, so only the eligible ones
    /// are materialized as `FlexOffer`s (profile + member-id clone each).
    pub fn eligible_macros(&self, start: TimeSlot, horizon: usize) -> Vec<FlexOffer> {
        self.eligible_aggregates(start, horizon)
            .map(|a| {
                a.to_flex_offer()
                    .expect("aggregates are valid flex-offers by construction")
            })
            .collect()
    }

    /// Number of window-eligible macro offers, counted straight off the
    /// aggregate store — no `FlexOffer` materialization (reporting-only
    /// callers must not pay O(aggregates × profile) clones).
    pub fn eligible_count(&self, start: TimeSlot, horizon: usize) -> usize {
        self.eligible_aggregates(start, horizon).count()
    }

    /// Phase 1: schedule the eligible macro offers against `baseline`
    /// and keep the result as a live evaluator. Returns the number of
    /// eligible macros and, when any were scheduled, the plan cost. Any
    /// previous live plan is discarded.
    pub fn prepare(
        &mut self,
        window_start: TimeSlot,
        baseline: Vec<f64>,
        prices: MarketPrices,
        penalties: Vec<f64>,
    ) -> (usize, Option<f64>) {
        self.live = None;
        // Reset the stochastic stream for this window even if nothing
        // ends up eligible — later windows must not see a seed offset
        // that depends on how many empty windows preceded them.
        self.seed = window_seed(self.base_seed, window_start);
        let horizon = baseline.len();
        let macros = self.eligible_macros(window_start, horizon);
        let eligible = macros.len();
        if macros.is_empty() {
            return (0, None);
        }
        let problem = SchedulingProblem::new(window_start, baseline, macros, prices, penalties)
            .expect("eligible macros fit the window");
        let budget = Budget::evaluations(self.cfg.budget_evaluations);
        let seed = self.seed;
        let starts = self.cfg.initial_starts.max(1);
        let pool = &self.cfg.pool;
        let result = match self.cfg.scheduler {
            SchedulerKind::Greedy => multi_start(starts, seed, pool, |s| {
                GreedyScheduler.run(&problem, budget, s)
            }),
            SchedulerKind::Evolutionary => multi_start(starts, seed, pool, |s| {
                EvolutionaryScheduler::default().run(&problem, budget, s)
            }),
            SchedulerKind::Hybrid => multi_start(starts, seed, pool, |s| {
                HybridScheduler::default().run(&problem, budget, s)
            }),
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

    /// Phase 2: react to a typed forecast change event on the live plan:
    /// rebase the evaluator to the event's forecast (re-pricing only the
    /// changed slots), then run a parallel multi-start repair restricted
    /// to the offers that can reach them. Returns `None` when there is
    /// no live plan or the event does not match its horizon.
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
        let scope = repair_scope(live.eval.problem(), &changed);
        self.seed = self.seed.wrapping_add(1);
        let cost_after = repair_parallel(
            &mut live.eval,
            &scope,
            RepairConfig {
                chains: self.cfg.repair_chains,
                moves_per_chain: self.cfg.repair_moves,
                seed: self.seed,
            },
            &self.cfg.pool,
        );
        Some(ReplanReport {
            changed_slots: changed.len(),
            scoped_offers: scope.len(),
            cost_before,
            cost_after,
        })
    }

    /// Phase 2b: run a batch of offer-pool deltas through the
    /// aggregation pipeline, and — when a plan is live — fold the
    /// emitted aggregate changes straight into the live evaluator:
    /// removed aggregates leave the problem (O(duration) withdrawal),
    /// new or updated window-eligible aggregates are spliced in at their
    /// baseline placement, and a parallel repair scoped to the touched
    /// slots re-optimizes. Cost is proportional to the delta, never to
    /// the pool.
    ///
    /// Returns the pipeline's aggregate update stream (for forwarding up
    /// the hierarchy) plus the live-plan fold report, when one applied.
    ///
    /// This is [`stage_offer_updates`](Self::stage_offer_updates) +
    /// [`flush_offer_updates`](Self::flush_offer_updates) back to back.
    pub fn apply_offer_updates(
        &mut self,
        updates: Vec<FlexOfferUpdate>,
    ) -> (Vec<AggregateUpdate>, Option<OfferDeltaReport>) {
        self.stage_offer_updates(updates);
        self.flush_offer_updates()
    }

    /// Accumulate offer-pool deltas in the pipeline's group-builder
    /// without processing them. Nothing derived moves — aggregates, slab
    /// and live plan all keep describing the last flush — so the owner
    /// must [`flush_offer_updates`](Self::flush_offer_updates) before it
    /// reads any of them (the module docs' flush-before-read rule).
    pub fn stage_offer_updates(&mut self, updates: impl IntoIterator<Item = FlexOfferUpdate>) {
        self.pipeline.accumulate(updates);
    }

    /// Run everything staged through the aggregation pipeline in one
    /// pass and fold the emitted aggregate changes into the live plan,
    /// exactly as [`apply_offer_updates`](Self::apply_offer_updates)
    /// describes. A no-op (empty stream, `None`) when nothing is staged.
    pub fn flush_offer_updates(&mut self) -> (Vec<AggregateUpdate>, Option<OfferDeltaReport>) {
        let agg_updates = self.pipeline.flush();
        let report = self.fold_into_live(&agg_updates);
        (agg_updates, report)
    }

    /// Splice a stream of aggregate updates into the live plan.
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
                    let offer = agg
                        .to_flex_offer()
                        .expect("aggregates are valid flex-offers by construction");
                    let fid = offer.id();
                    let eligible =
                        offer.earliest_start() >= live.window_start && offer.latest_end() <= end;
                    let was_live = live.index.contains_key(&fid);
                    match (was_live, eligible) {
                        (true, true) => {
                            remove_live_offer(live, fid, &mut touched_slots);
                            insert_live_offer(live, offer, &mut touched_slots);
                            report.replaced += 1;
                        }
                        (true, false) => {
                            remove_live_offer(live, fid, &mut touched_slots);
                            report.removed += 1;
                        }
                        (false, true) => {
                            insert_live_offer(live, offer, &mut touched_slots);
                            report.inserted += 1;
                        }
                        (false, false) => {}
                    }
                }
            }
        }
        if !report.touched() {
            return Some(report);
        }
        report.cost_before = live.eval.total();
        let scope = repair_scope(live.eval.problem(), &touched_slots);
        report.scoped_offers = scope.len();
        self.seed = self.seed.wrapping_add(1);
        report.cost_after = repair_parallel(
            &mut live.eval,
            &scope,
            RepairConfig {
                chains: self.cfg.repair_chains,
                moves_per_chain: self.cfg.repair_moves,
                seed: self.seed,
            },
            &self.cfg.pool,
        );
        Some(report)
    }

    /// Phase 3: take the live plan for commitment. Returns the problem,
    /// the (possibly repaired) solution and its total cost; the caller
    /// disaggregates and performs its node-specific bookkeeping.
    pub fn commit(&mut self) -> Option<(SchedulingProblem, Solution, f64)> {
        let live = self.live.take()?;
        let cost = live.eval.total();
        let (problem, solution) = live.eval.into_problem_and_solution();
        Some((problem, solution, cost))
    }
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

/// The minimal message surface of a hierarchy node: what the generic
/// event pump needs to drain an inbox.
pub trait Node {
    /// This node's network id.
    fn node_id(&self) -> NodeId;
    /// Handle one routed message; returns reply envelopes.
    fn handle(&mut self, envelope: Envelope, now: TimeSlot) -> Vec<Envelope>;
}

/// A planning node (hierarchy level 2 or 3): the full
/// prepare → replan → commit life-cycle on top of [`Node`].
pub trait NodeRuntime: Node {
    /// Plan the window against a baseline forecast, keeping the result
    /// live; returns upward-bound envelopes (e.g. macro-offer deltas)
    /// plus the report.
    fn prepare_plan(
        &mut self,
        now: TimeSlot,
        window_start: TimeSlot,
        baseline: Vec<f64>,
        prices: MarketPrices,
        penalties: Vec<f64>,
    ) -> (Vec<Envelope>, PlanReport);

    /// Incrementally replan the live plan after a forecast change event.
    fn on_forecast_event(&mut self, event: &ForecastEvent) -> Option<ReplanReport>;

    /// Commit the live plan: disaggregate into assignments for the
    /// level below. Empty when no plan is live.
    fn commit_plan(&mut self, now: TimeSlot) -> Vec<Envelope>;

    /// Window start of the live plan, if one is pending commitment.
    fn live_window(&self) -> Option<TimeSlot>;
}
