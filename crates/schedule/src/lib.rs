//! # mirabel-schedule
//!
//! The MIRABEL scheduling component (paper §6).
//!
//! "Scheduling consists of fixing start times and energy flexibilities of
//! all given flex-offers and setting the amount of energy that will be
//! sold to (and bought from) the market, while optimizing the total cost
//! of the resulting schedule. The schedule cost is calculated as the sum
//! of (1) costs of remaining mismatches, (2) costs of all given aggregated
//! flex-offers and (3) costs of energy sold to (and bought from) the
//! market."
//!
//! * [`problem`] — the scheduling problem: forecast imbalance, offers,
//!   market prices, peak-weighted mismatch penalties;
//! * [`solution`] — a candidate schedule (start + per-slot energy
//!   fraction per offer) that satisfies flex-offer constraints *by
//!   construction*;
//! * [`cost`] — the composed cost function with closed-form optimal
//!   market transactions;
//! * [`delta`] — O(move)-time incremental scoring for the search hot
//!   loops (see below);
//! * [`greedy`] — the randomized greedy search;
//! * [`evolutionary`] — the evolutionary algorithm \[3\], with a
//!   delta-scored memetic refinement step;
//! * [`hybrid`] — the greedy-seeded EA (the paper's "hybridizing the
//!   existing ones" future work);
//! * [`exhaustive`] — exact enumeration for tiny instances (the paper's
//!   850-million-solution optimality probe);
//! * [`incremental`] — repair after forecast changes: the scoped
//!   parallel multi-chain repair behind event-driven replanning, which
//!   dispatches its chains onto the shared deterministic worker pool
//!   ([`mirabel_core::exec::Pool`]), so steady-state replanning wakes
//!   parked workers instead of spawning threads and the chosen schedule
//!   is identical for any pool width;
//! * [`mod@scenario`] — intra-day scenario generator for the Figure 6
//!   experiments.
//!
//! ## Full vs. delta evaluation
//!
//! Two evaluation paths coexist by design:
//!
//! 1. **Full:** the kernel [`cost::evaluate_into`] deposits every
//!    placement into a residual-imbalance vector, sums activation energy
//!    in the same loop, and prices every horizon slot — O(offers ×
//!    duration + horizon), one pass. It is the *reference semantics* of
//!    the cost model and the only per-slot pricing loop for a whole
//!    solution. Its two buffers belong to the caller: the flattened
//!    `(min, width)` table from [`cost::slot_table`], valid for one offer
//!    list and therefore built per scheduler run, never stored on the
//!    problem (a live evaluator inserts and removes offers in place); and
//!    the residual scratch, overwritten on every call. A search loop that
//!    prices whole solutions (the EA's children, the exhaustive
//!    enumeration) owns one of each for the run and evaluates without
//!    allocating. [`cost::evaluate`] wraps the kernel with fresh buffers
//!    for callers that price a solution once — every scheduler's final
//!    [`CostBreakdown`], the debug cross-checks, tests.
//! 2. **Delta:** [`DeltaEvaluator`] owns the residual vector, per-slot
//!    market/mismatch cost and per-offer activation cost, and updates the
//!    running total in O(offer duration) when a single offer's placement
//!    changes — the only kind of move the metaheuristics make. The
//!    propose → score → accept/revert loop is allocation-free: the
//!    scratch placement and the undo log are the evaluator's own and
//!    circulate with the solution's placements. A search that refines
//!    many solutions in turn (the EA's memetic step) keeps one evaluator
//!    and swaps each solution in and out around a
//!    [`resync`](DeltaEvaluator::resync).
//!
//! The two paths are kept honest against each other three ways: a
//! debug-build assertion inside every committed move (and on every EA
//! child, kernel on reused buffers against [`cost::evaluate`]), property
//! tests replaying random move sequences and comparing the kernel field
//! for field with a literal two-pass transcription of the cost model,
//! and the `full_vs_delta` bench that tracks the speedup (per-move delta
//! cost is independent of the offer count, so the gap widens linearly
//! with instance size).
//!
//! ## Event-driven incremental replanning
//!
//! When forecasts change *after* a schedule exists, work should be
//! proportional to the change, not the problem. The pipeline is:
//!
//! 1. a typed forecast change event (see `mirabel_forecast::pubsub`)
//!    names the slot ranges that actually moved;
//! 2. [`DeltaEvaluator::rebase`] re-prices exactly those slots on the
//!    *live* evaluator kept from the previous planning run — O(changed
//!    slots), no resync;
//! 3. [`incremental::repair_scope`] restricts the repair to offers whose
//!    reachable windows overlap the changed slots;
//! 4. [`incremental::repair_parallel`] runs K multi-start hill-climb
//!    chains on forked evaluators (thread-local per-move state) and
//!    adopts the best chain.
//!
//! The `rebase_vs_resync` bench tracks this path against the full
//! resync-and-reschedule alternative.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod delta;
pub mod evolutionary;
pub mod exhaustive;
pub mod greedy;
pub mod hybrid;
pub mod incremental;
pub mod problem;
pub mod scenario;
pub mod solution;

pub use cost::{evaluate, CostBreakdown};
pub use delta::DeltaEvaluator;
pub use evolutionary::{EaConfig, EvolutionaryScheduler};
pub use exhaustive::{search_space_size, ExhaustiveScheduler};
pub use greedy::GreedyScheduler;
pub use hybrid::HybridScheduler;
pub use incremental::{offer_reach, repair_parallel, repair_scope, RepairConfig};
pub use problem::{MarketPrices, SchedulingProblem};
pub use scenario::{scenario, ScenarioConfig};
pub use solution::{Budget, Placement, ScheduleResult, Solution, TrajectoryPoint};
