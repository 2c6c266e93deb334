//! O(move)-time incremental schedule scoring.
//!
//! Every metaheuristic in this crate searches by perturbing *one offer at
//! a time*, yet the reference [`evaluate`] rebuilds
//! the entire residual-imbalance vector and re-prices every horizon slot
//! per candidate — O(offers × duration + horizon) work for a move that
//! only disturbs the handful of slots inside one offer's window. The paper
//! (§6/§8) asks for schedules that are "incrementally maintained if
//! forecast values change over time"; at BRP scale (thousands of
//! aggregated offers, millions of users behind them) per-move cost must
//! not grow with the offer count.
//!
//! [`DeltaEvaluator`] owns the residual vector, the per-slot market/
//! mismatch cost, and the per-offer activation cost as mutable state. A
//! move — replacing one offer's [`Placement`] — touches only the slots in
//! the union of the old and new placement windows, so rescoring costs
//! O(offer duration), independent of how many other offers exist. One
//! level of undo ([`DeltaEvaluator::revert`]) makes the propose →
//! score → accept/reject loop allocation-free: the scratch placement and
//! the touched-slot log are reused across moves.
//!
//! In debug builds every committed move is cross-checked against the full
//! [`evaluate`]; the release hot path trusts the
//! delta bookkeeping (drift is bounded by one f64 rounding per touched
//! slot per move and verified to stay under 1e-6 by the property tests).
//!
//! ## Event-driven replanning
//!
//! Beyond single-offer moves, the evaluator supports the event-driven
//! replanning pipeline (forecast pub/sub event → [`rebase`] → scoped
//! repair):
//!
//! * [`DeltaEvaluator::rebase`] re-prices *only* the slots whose forecast
//!   baseline moved — O(changed slots), not O(horizon + offers) — so a
//!   pub/sub notification touching a handful of slots never pays a full
//!   [`resync`](DeltaEvaluator::resync);
//! * [`DeltaEvaluator::new_owned`] builds an evaluator that owns its
//!   problem, which is what lets a BRP node keep a *live* evaluator
//!   across planning cycles and rebase it in place;
//! * [`DeltaEvaluator::fork`] cheaply clones the cached cost state
//!   (sharing the problem by reference) for parallel multi-start repair
//!   chains — per-move state is thread-local by construction;
//! * [`DeltaEvaluator::adopt_scoped`] merges a winning chain's placements
//!   back into the live evaluator, move by debug-checked move.
//!
//! [`rebase`]: DeltaEvaluator::rebase

use crate::cost::{evaluate, residual_imbalance_into, slot_cost, CostBreakdown};
use crate::problem::SchedulingProblem;
use crate::solution::{Placement, Recorder, Solution};
use mirabel_core::FlexOffer;
use rand::rngs::StdRng;
use rand::Rng;
use std::borrow::Cow;

/// Undo log for the last uncommitted move.
#[derive(Debug)]
struct Undo {
    offer_idx: usize,
    old_placement: Placement,
    old_offer_cost: f64,
    old_total: f64,
    /// First-touch snapshots: `(slot, residual, slot_cost)`.
    touched: Vec<(usize, f64, f64)>,
    active: bool,
}

/// Incremental evaluator: mutable cost state plus O(move) updates.
///
/// ```
/// use mirabel_schedule::{scenario, DeltaEvaluator, ScenarioConfig, Solution};
/// use mirabel_schedule::cost::evaluate;
///
/// let p = scenario(ScenarioConfig { offer_count: 20, seed: 1, ..Default::default() });
/// let mut eval = DeltaEvaluator::new(&p, Solution::baseline(&p));
/// let before = eval.total();
/// // Propose a move on offer 3: bump every fraction to 1.0.
/// let after = eval.propose(3, |g, _offer| g.fractions.iter_mut().for_each(|f| *f = 1.0));
/// assert!((after - evaluate(&p, eval.solution()).total()).abs() < 1e-9);
/// eval.revert();
/// assert!((eval.total() - before).abs() < 1e-12);
/// ```
#[derive(Debug)]
pub struct DeltaEvaluator<'p> {
    /// Borrowed for search-loop evaluators, owned for live (cross-cycle)
    /// evaluators that must survive forecast rebases.
    problem: Cow<'p, SchedulingProblem>,
    solution: Solution,
    /// Residual imbalance per slot (before market transactions).
    residual: Vec<f64>,
    /// Per-slot mismatch + market cost of `residual` under the
    /// closed-form trading policy.
    slot_costs: Vec<f64>,
    /// Per-offer activation cost (energy × unit price).
    offer_costs: Vec<f64>,
    /// Running total: Σ slot_costs + Σ offer_costs.
    total: f64,
    /// Scratch placement reused by [`propose`](Self::propose).
    scratch: Placement,
    undo: Undo,
}

impl<'p> DeltaEvaluator<'p> {
    /// Build the evaluator state from a complete solution. This is the
    /// only O(offers × duration + horizon) entry point; every subsequent
    /// move costs O(offer duration).
    pub fn new(problem: &'p SchedulingProblem, solution: Solution) -> DeltaEvaluator<'p> {
        DeltaEvaluator::from_cow(Cow::Borrowed(problem), solution)
    }

    /// Like [`new`](Self::new), but the evaluator *owns* the problem, so
    /// it can outlive the caller's scope (`DeltaEvaluator<'static>`) and
    /// be [`rebase`](Self::rebase)d without cloning. This is the shape a
    /// BRP node keeps alive between planning cycles.
    pub fn new_owned(problem: SchedulingProblem, solution: Solution) -> DeltaEvaluator<'static> {
        DeltaEvaluator::from_cow(Cow::Owned(problem), solution)
    }

    fn from_cow(problem: Cow<'p, SchedulingProblem>, solution: Solution) -> DeltaEvaluator<'p> {
        assert_eq!(
            solution.placements.len(),
            problem.offers.len(),
            "solution/offer arity mismatch"
        );
        let start = problem.start;
        let mut eval = DeltaEvaluator {
            problem,
            solution,
            residual: Vec::new(),
            slot_costs: Vec::new(),
            offer_costs: Vec::new(),
            total: 0.0,
            scratch: Placement {
                start,
                fractions: Vec::new(),
            },
            undo: Undo {
                offer_idx: 0,
                old_placement: Placement {
                    start,
                    fractions: Vec::new(),
                },
                old_offer_cost: 0.0,
                old_total: 0.0,
                touched: Vec::new(),
                active: false,
            },
        };
        eval.resync();
        eval
    }

    /// Recompute all cached state from scratch (also clears the undo
    /// log). Useful to squash accumulated float drift on very long runs;
    /// costs the same as [`new`](Self::new).
    pub fn resync(&mut self) {
        residual_imbalance_into(&self.problem, &self.solution, &mut self.residual);
        let p: &SchedulingProblem = &self.problem;
        self.slot_costs.clear();
        self.slot_costs
            .extend(self.residual.iter().enumerate().map(|(i, &r)| {
                slot_cost(
                    r,
                    p.imbalance_penalty[i],
                    p.prices.buy[i],
                    p.prices.sell[i],
                    p.prices.max_trade_per_slot,
                )
            }));
        self.offer_costs.clear();
        self.offer_costs.extend(
            self.solution
                .placements
                .iter()
                .zip(&p.offers)
                .map(|(pl, o)| activation_cost(pl, o)),
        );
        self.total = self.slot_costs.iter().sum::<f64>() + self.offer_costs.iter().sum::<f64>();
        self.undo.active = false;
    }

    /// Current total schedule cost (EUR), identical to
    /// `evaluate(problem, solution).total()` up to float drift.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// The problem being evaluated.
    pub fn problem(&self) -> &SchedulingProblem {
        &self.problem
    }

    /// Cheap clone of the cached cost state, sharing the problem by
    /// reference: copies the solution and the residual/cost vectors but
    /// performs no re-pricing. This is how parallel multi-start repair
    /// spawns K independent chains from one live evaluator — each fork's
    /// per-move state is private, so chains are embarrassingly parallel.
    pub fn fork(&self) -> DeltaEvaluator<'_> {
        let start = self.problem.start;
        DeltaEvaluator {
            problem: Cow::Borrowed(&*self.problem),
            solution: self.solution.clone(),
            residual: self.residual.clone(),
            slot_costs: self.slot_costs.clone(),
            offer_costs: self.offer_costs.clone(),
            total: self.total,
            scratch: Placement {
                start,
                fractions: Vec::new(),
            },
            undo: Undo {
                offer_idx: 0,
                old_placement: Placement {
                    start,
                    fractions: Vec::new(),
                },
                old_offer_cost: 0.0,
                old_total: 0.0,
                touched: Vec::new(),
                active: false,
            },
        }
    }

    /// Re-baseline the evaluator after a forecast update: `new_baseline`
    /// replaces the problem's baseline imbalance, and **only** the slots
    /// listed in `changed_slots` are re-priced — O(changed slots) work,
    /// independent of horizon length and offer count. This is the
    /// batched-forecast-update path: a pub/sub notification that moved a
    /// few slots must not pay a full [`resync`](Self::resync).
    ///
    /// Slots *not* listed in `changed_slots` must be unchanged in
    /// `new_baseline` (debug builds verify this). The one-level undo log
    /// is invalidated: a move proposed before the rebase can no longer be
    /// reverted. Returns the new total cost.
    ///
    /// On a borrowed evaluator the first rebase clones the problem
    /// (`Cow::to_mut`); build live evaluators with
    /// [`new_owned`](Self::new_owned) to make every rebase clone-free.
    pub fn rebase(&mut self, new_baseline: &[f64], changed_slots: &[usize]) -> f64 {
        assert_eq!(
            new_baseline.len(),
            self.problem.horizon(),
            "rebase baseline/horizon arity mismatch"
        );
        #[cfg(debug_assertions)]
        for (i, (new, old)) in new_baseline
            .iter()
            .zip(&self.problem.baseline_imbalance)
            .enumerate()
        {
            debug_assert!(
                new == old || changed_slots.contains(&i),
                "slot {i} changed ({old} -> {new}) but is not in changed_slots"
            );
        }
        self.undo.active = false;
        let problem = self.problem.to_mut();
        for &t in changed_slots {
            let delta = new_baseline[t] - problem.baseline_imbalance[t];
            problem.baseline_imbalance[t] = new_baseline[t];
            self.residual[t] += delta;
            let sc = slot_cost(
                self.residual[t],
                problem.imbalance_penalty[t],
                problem.prices.buy[t],
                problem.prices.sell[t],
                problem.prices.max_trade_per_slot,
            );
            self.total += sc - self.slot_costs[t];
            self.slot_costs[t] = sc;
        }
        #[cfg(debug_assertions)]
        self.assert_in_sync();
        self.total
    }

    /// Append a new offer to the live problem with the given placement —
    /// O(offer duration): only the placement's slots are re-priced,
    /// nothing is reconstructed. Returns the new offer's index.
    ///
    /// This is what lets a node fold an *offer-pool* delta (a new macro
    /// offer trickling in from a lower hierarchy level) into a live plan
    /// without rebuilding the scheduling problem. The one-level undo log
    /// is invalidated. On a borrowed evaluator the first mutation clones
    /// the problem (`Cow::to_mut`); live evaluators built with
    /// [`new_owned`](Self::new_owned) mutate in place.
    ///
    /// # Panics
    /// Panics if the offer does not fit the horizon or the placement
    /// does not satisfy the offer's constraints.
    pub fn insert_offer(&mut self, offer: FlexOffer, placement: Placement) -> usize {
        self.undo.active = false;
        let problem = self.problem.to_mut();
        assert!(
            offer.earliest_start() >= problem.start
                && problem.start + problem.baseline_imbalance.len() as u32
                    >= offer.latest_start() + offer.duration(),
            "inserted offer does not fit the horizon"
        );
        assert!(
            placement.start >= offer.earliest_start() && placement.start <= offer.latest_start(),
            "placement start outside the offer's window"
        );
        assert_eq!(
            placement.fractions.len(),
            offer.duration() as usize,
            "placement/profile arity mismatch"
        );
        let sign = offer.demand_sign();
        let base = (placement.start - problem.start) as usize;
        for (k, (range, &frac)) in offer
            .profile()
            .slot_ranges()
            .zip(&placement.fractions)
            .enumerate()
        {
            let t = base + k;
            self.residual[t] += sign * range.lerp(frac).kwh();
            let sc = slot_cost(
                self.residual[t],
                problem.imbalance_penalty[t],
                problem.prices.buy[t],
                problem.prices.sell[t],
                problem.prices.max_trade_per_slot,
            );
            self.total += sc - self.slot_costs[t];
            self.slot_costs[t] = sc;
        }
        let oc = activation_cost(&placement, &offer);
        self.total += oc;
        self.offer_costs.push(oc);
        let j = problem.offers.len();
        problem.offers.push(offer);
        self.solution.placements.push(placement);

        #[cfg(debug_assertions)]
        self.assert_in_sync();
        j
    }

    /// Remove offer `j` from the live problem — O(offer duration): its
    /// placement's energy is withdrawn, only the touched slots are
    /// re-priced. The **last** offer is swapped into index `j`
    /// (`swap_remove`), so any external index map must re-home that one
    /// entry. Returns the removed offer. The undo log is invalidated.
    pub fn remove_offer(&mut self, j: usize) -> FlexOffer {
        self.undo.active = false;
        let problem = self.problem.to_mut();
        let placement = self.solution.placements.swap_remove(j);
        let offer = problem.offers.swap_remove(j);
        let sign = offer.demand_sign();
        let base = (placement.start - problem.start) as usize;
        for (k, (range, &frac)) in offer
            .profile()
            .slot_ranges()
            .zip(&placement.fractions)
            .enumerate()
        {
            let t = base + k;
            self.residual[t] -= sign * range.lerp(frac).kwh();
            let sc = slot_cost(
                self.residual[t],
                problem.imbalance_penalty[t],
                problem.prices.buy[t],
                problem.prices.sell[t],
                problem.prices.max_trade_per_slot,
            );
            self.total += sc - self.slot_costs[t];
            self.slot_costs[t] = sc;
        }
        self.total -= self.offer_costs[j];
        self.offer_costs.swap_remove(j);

        #[cfg(debug_assertions)]
        self.assert_in_sync();
        offer
    }

    /// Consume the evaluator, yielding the problem and the solution. A
    /// borrowed problem is cloned; an owned one (the live-plan shape)
    /// moves out for free.
    pub fn into_problem_and_solution(self) -> (SchedulingProblem, Solution) {
        (self.problem.into_owned(), self.solution)
    }

    /// Merge a repaired solution back into this evaluator: for every
    /// offer index in `scope`, adopt `winner`'s placement if it differs
    /// from the current one. Each adoption is a regular debug-checked
    /// [`apply_move`](Self::apply_move) — O(scope × offer duration)
    /// total. The undo log is left cleared (a multi-move adoption cannot
    /// be reverted as a unit). Returns the new total cost.
    pub fn adopt_scoped(&mut self, winner: &Solution, scope: &[usize]) -> f64 {
        assert_eq!(
            winner.placements.len(),
            self.solution.placements.len(),
            "adopted solution arity mismatch"
        );
        for &j in scope {
            if self.solution.placements[j] != winner.placements[j] {
                self.apply_move(j, winner.placements[j].clone());
            }
        }
        self.undo.active = false;
        self.total
    }

    /// Current solution (read-only).
    pub fn solution(&self) -> &Solution {
        &self.solution
    }

    /// Exchange the evaluated solution with `other` without touching the
    /// cached cost state, which is therefore stale until the next
    /// [`resync`](Self::resync). This is how the EA keeps one evaluator
    /// for a whole run: swap the individual to refine in, `resync`,
    /// search, swap the refined individual back out.
    pub(crate) fn swap_solution(&mut self, other: &mut Solution) {
        debug_assert_eq!(other.placements.len(), self.solution.placements.len());
        self.undo.active = false;
        std::mem::swap(&mut self.solution, other);
    }

    /// Consume the evaluator, yielding the current solution.
    pub fn into_solution(self) -> Solution {
        self.solution
    }

    /// Full cost breakdown of the current solution (O(horizon); intended
    /// for reporting once search finishes, not for the hot loop).
    pub fn breakdown(&self) -> CostBreakdown {
        evaluate(&self.problem, &self.solution)
    }

    /// Replace offer `j`'s placement, updating only the slots inside the
    /// old and new placement windows. Returns the new total cost. The
    /// previous state can be restored with [`revert`](Self::revert) until
    /// the next move is applied.
    pub fn apply_move(&mut self, j: usize, new_placement: Placement) -> f64 {
        // Split-borrow the problem (shared) away from the mutable cache
        // fields: with a Cow-held problem, `offer` borrows `self`, so the
        // cache updates below must go through disjoint field borrows.
        let p: &SchedulingProblem = &self.problem;
        let offer = &p.offers[j];
        debug_assert_eq!(
            new_placement.fractions.len(),
            offer.duration() as usize,
            "placement/profile arity mismatch"
        );
        debug_assert!(
            new_placement.start >= offer.earliest_start()
                && new_placement.start <= offer.latest_start(),
            "placement start outside the offer's window"
        );

        self.undo.offer_idx = j;
        self.undo.old_total = self.total;
        self.undo.touched.clear();
        self.undo.active = true;

        let sign = offer.demand_sign();

        // Withdraw the old placement's energy from its window…
        let old = std::mem::replace(&mut self.solution.placements[j], new_placement);
        let base = p.slot_index(old.start);
        for (k, (range, &frac)) in offer
            .profile()
            .slot_ranges()
            .zip(&old.fractions)
            .enumerate()
        {
            let t = base + k;
            snapshot(&mut self.undo, &self.residual, &self.slot_costs, t);
            self.residual[t] -= sign * range.lerp(frac).kwh();
        }

        // …deposit the new placement's energy into its window
        // (snapshots first: they must capture pre-deposit values)…
        let base = p.slot_index(self.solution.placements[j].start);
        for k in 0..offer.duration() as usize {
            snapshot(&mut self.undo, &self.residual, &self.slot_costs, base + k);
        }
        let new = &self.solution.placements[j];
        for (k, (range, &frac)) in offer
            .profile()
            .slot_ranges()
            .zip(&new.fractions)
            .enumerate()
        {
            self.residual[base + k] += sign * range.lerp(frac).kwh();
        }

        // …and re-price exactly the touched slots.
        for i in 0..self.undo.touched.len() {
            let t = self.undo.touched[i].0;
            let sc = slot_cost(
                self.residual[t],
                p.imbalance_penalty[t],
                p.prices.buy[t],
                p.prices.sell[t],
                p.prices.max_trade_per_slot,
            );
            self.total += sc - self.slot_costs[t];
            self.slot_costs[t] = sc;
        }

        let oc = activation_cost(&self.solution.placements[j], offer);
        self.undo.old_offer_cost = self.offer_costs[j];
        self.total += oc - self.offer_costs[j];
        self.offer_costs[j] = oc;
        // The placement displaced from the previous undo slot is dead;
        // recycle its buffer as propose() scratch capacity so the
        // propose/apply/revert cycle never allocates in steady state.
        let dead = std::mem::replace(&mut self.undo.old_placement, old);
        if dead.fractions.capacity() > self.scratch.fractions.capacity() {
            self.scratch = dead;
        }

        #[cfg(debug_assertions)]
        self.assert_in_sync();
        self.total
    }

    /// Allocation-free variant of [`apply_move`](Self::apply_move): copy
    /// offer `j`'s current placement into an internal scratch buffer, let
    /// `mutate` edit it (the offer is passed along for `repair`), then
    /// apply the result as a move. Returns the new total cost.
    pub fn propose(&mut self, j: usize, mutate: impl FnOnce(&mut Placement, &FlexOffer)) -> f64 {
        let mut cand = std::mem::replace(
            &mut self.scratch,
            Placement {
                start: self.problem.start,
                fractions: Vec::new(),
            },
        );
        let current = &self.solution.placements[j];
        cand.start = current.start;
        cand.fractions.clear();
        cand.fractions.extend_from_slice(&current.fractions);
        mutate(&mut cand, &self.problem.offers[j]);
        self.apply_move(j, cand)
    }

    /// Undo the last move. Panics if there is nothing to revert (each
    /// move can be reverted at most once).
    pub fn revert(&mut self) {
        assert!(self.undo.active, "revert() without a preceding move");
        self.undo.active = false;
        let j = self.undo.offer_idx;
        for &(t, r, sc) in &self.undo.touched {
            self.residual[t] = r;
            self.slot_costs[t] = sc;
        }
        self.offer_costs[j] = self.undo.old_offer_cost;
        // Swap rather than overwrite: the rejected placement becomes
        // reusable scratch capacity for the next propose().
        std::mem::swap(
            &mut self.solution.placements[j],
            &mut self.undo.old_placement,
        );
        // Restoring the saved total (instead of re-subtracting deltas)
        // makes revert drift-free.
        self.total = self.undo.old_total;

        #[cfg(debug_assertions)]
        self.assert_in_sync();
    }

    /// Debug-build cross-check: the running total must agree with the
    /// reference full evaluation.
    #[cfg(debug_assertions)]
    fn assert_in_sync(&self) {
        let reference = evaluate(&self.problem, &self.solution).total();
        let tol = 1e-6 * reference.abs().max(1.0);
        debug_assert!(
            (self.total - reference).abs() <= tol,
            "delta total {} diverged from full evaluation {}",
            self.total,
            reference
        );
    }
}

/// Record `(slot, residual, slot_cost)` the first time a move touches
/// slot `t`. Windows are a handful of slots, so the linear duplicate
/// scan beats any hashing. (Free function so [`DeltaEvaluator`] methods
/// can call it while the Cow-held problem is split-borrowed.)
#[inline]
fn snapshot(undo: &mut Undo, residual: &[f64], slot_costs: &[f64], t: usize) {
    if !undo.touched.iter().any(|&(s, _, _)| s == t) {
        undo.touched.push((t, residual[t], slot_costs[t]));
    }
}

/// Budget-guarded first-improvement hill climb over single-offer moves,
/// shared by the greedy polish, the EA's memetic refinement and
/// incremental rescheduling: propose a mutation of a random offer's
/// placement, record the candidate, keep it only if it lowers the total.
/// When `scope` is `Some`, moves are restricted to the listed offer
/// indices (the repair scope of a forecast delta); `None` searches every
/// offer. Returns the final running total.
pub(crate) fn hill_climb(
    eval: &mut DeltaEvaluator<'_>,
    recorder: &mut Recorder,
    rng: &mut StdRng,
    max_moves: usize,
    scope: Option<&[usize]>,
    mut mutate: impl FnMut(&mut Placement, &FlexOffer, &mut StdRng),
) -> f64 {
    let n = match scope {
        Some(s) => s.len(),
        None => eval.problem().offers.len(),
    };
    let mut f_cur = eval.total();
    for _ in 0..max_moves {
        if n == 0 || recorder.exhausted() {
            break;
        }
        let pick = rng.gen_range(0..n);
        let j = scope.map_or(pick, |s| s[pick]);
        let f_cand = eval.propose(j, |g, offer| mutate(g, offer, rng));
        recorder.record(f_cand);
        if f_cand < f_cur {
            f_cur = f_cand;
        } else {
            eval.revert();
        }
    }
    f_cur
}

/// Activation cost of one placement: delivered energy × unit price.
fn activation_cost(placement: &Placement, offer: &FlexOffer) -> f64 {
    let energy: f64 = offer
        .profile()
        .slot_ranges()
        .zip(&placement.fractions)
        .map(|(r, &f)| r.lerp(f).kwh())
        .sum();
    energy * offer.unit_price().eur()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{scenario, ScenarioConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn problem(n: usize, seed: u64) -> SchedulingProblem {
        scenario(ScenarioConfig {
            offer_count: n,
            seed,
            ..ScenarioConfig::default()
        })
    }

    #[test]
    fn new_matches_full_evaluation() {
        let p = problem(25, 1);
        for sol in [Solution::baseline(&p), {
            let mut rng = StdRng::seed_from_u64(2);
            Solution::random(&p, &mut rng)
        }] {
            let reference = evaluate(&p, &sol).total();
            let eval = DeltaEvaluator::new(&p, sol);
            assert!((eval.total() - reference).abs() < 1e-9);
        }
    }

    #[test]
    fn insert_offer_matches_rebuilt_evaluator() {
        let p = problem(15, 21);
        let mut eval = DeltaEvaluator::new_owned(p.clone(), Solution::baseline(&p));
        // Steal an offer shape from another scenario but give it a fresh id.
        let donor = problem(1, 22).offers[0].clone();
        let placement = Placement::baseline(&donor);
        let j = eval.insert_offer(donor.clone(), placement);
        assert_eq!(j, 15);
        assert_eq!(eval.problem().offers.len(), 16);
        let reference = evaluate(eval.problem(), eval.solution()).total();
        assert!((eval.total() - reference).abs() < 1e-9);
        // Moves on the inserted offer work like on any other.
        let after = eval.propose(j, |g, _| g.fractions.iter_mut().for_each(|f| *f = 1.0));
        assert!((after - evaluate(eval.problem(), eval.solution()).total()).abs() < 1e-9);
    }

    #[test]
    fn remove_offer_matches_rebuilt_evaluator() {
        let p = problem(12, 23);
        let mut rng = StdRng::seed_from_u64(24);
        let sol = Solution::random(&p, &mut rng);
        let mut eval = DeltaEvaluator::new_owned(p.clone(), sol);
        let removed = eval.remove_offer(3);
        assert_eq!(removed.id(), p.offers[3].id());
        // swap_remove: the former last offer now sits at index 3.
        assert_eq!(eval.problem().offers[3].id(), p.offers[11].id());
        assert_eq!(eval.problem().offers.len(), 11);
        let reference = evaluate(eval.problem(), eval.solution()).total();
        assert!((eval.total() - reference).abs() < 1e-9);
        // Removing everything leaves the baseline-only cost.
        while !eval.problem().offers.is_empty() {
            eval.remove_offer(0);
        }
        let empty_ref = evaluate(eval.problem(), eval.solution()).total();
        assert!((eval.total() - empty_ref).abs() < 1e-9);
    }

    #[test]
    fn insert_then_remove_restores_cost() {
        let p = problem(10, 25);
        let mut eval = DeltaEvaluator::new_owned(p.clone(), Solution::baseline(&p));
        let before = eval.total();
        let donor = problem(1, 26).offers[0].clone();
        let j = eval.insert_offer(donor.clone(), Placement::baseline(&donor));
        assert!(eval.total() != before || donor.profile().min_total_energy().kwh() == 0.0);
        eval.remove_offer(j);
        assert!((eval.total() - before).abs() < 1e-6);
    }

    #[test]
    fn offer_reach_bounds_the_scope() {
        let p = problem(30, 27);
        for (j, o) in p.offers.iter().enumerate() {
            let reach = crate::incremental::offer_reach(&p, o);
            // An offer is always in the scope of its own reach…
            let scope =
                crate::incremental::repair_scope(&p, &reach.clone().collect::<Vec<usize>>());
            assert!(scope.contains(&j));
            // …and never in the scope of slots outside every reach.
            assert!(reach.end <= p.horizon());
        }
    }

    #[test]
    fn apply_move_matches_full_evaluation() {
        let p = problem(20, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let mut eval = DeltaEvaluator::new(&p, Solution::random(&p, &mut rng));
        for _ in 0..500 {
            let j = rng.gen_range(0..p.offers.len());
            let new_p = Placement::random(&p.offers[j], &mut rng);
            let total = eval.apply_move(j, new_p);
            let reference = evaluate(&p, eval.solution()).total();
            assert!(
                (total - reference).abs() < 1e-6,
                "delta {total} vs full {reference}"
            );
        }
    }

    #[test]
    fn revert_restores_exact_state() {
        let p = problem(15, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let mut eval = DeltaEvaluator::new(&p, Solution::random(&p, &mut rng));
        for _ in 0..200 {
            let before_total = eval.total();
            let before_solution = eval.solution().clone();
            let j = rng.gen_range(0..p.offers.len());
            eval.apply_move(j, Placement::random(&p.offers[j], &mut rng));
            eval.revert();
            assert_eq!(eval.total(), before_total, "total must restore exactly");
            assert_eq!(eval.solution(), &before_solution);
        }
    }

    #[test]
    fn propose_equals_apply_move() {
        let p = problem(12, 7);
        let mut rng_a = StdRng::seed_from_u64(8);
        let mut rng_b = StdRng::seed_from_u64(8);
        let start = Solution::baseline(&p);
        let mut a = DeltaEvaluator::new(&p, start.clone());
        let mut b = DeltaEvaluator::new(&p, start);
        for _ in 0..100 {
            let j = rng_a.gen_range(0..p.offers.len());
            let _ = rng_b.gen_range(0..p.offers.len());
            let np = Placement::random(&p.offers[j], &mut rng_a);
            let np_b = Placement::random(&p.offers[j], &mut rng_b);
            let ta = a.apply_move(j, np);
            let tb = b.propose(j, |g, _| {
                g.start = np_b.start;
                g.fractions.clear();
                g.fractions.extend_from_slice(&np_b.fractions);
            });
            assert_eq!(ta, tb);
        }
    }

    #[test]
    #[should_panic(expected = "revert() without a preceding move")]
    fn double_revert_panics() {
        let p = problem(3, 9);
        let mut eval = DeltaEvaluator::new(&p, Solution::baseline(&p));
        eval.apply_move(0, Placement::baseline(&p.offers[0]));
        eval.revert();
        eval.revert();
    }

    #[test]
    fn overlapping_windows_handled() {
        // A move that shifts an offer by one slot overlaps its own old
        // window; the first-touch snapshot must keep revert exact.
        let p = problem(10, 11);
        let j = p
            .offers
            .iter()
            .position(|o| o.time_flexibility() > 0 && o.duration() > 1)
            .expect("scenario contains a shiftable multi-slot offer");
        let mut eval = DeltaEvaluator::new(&p, Solution::baseline(&p));
        let before = eval.total();
        let mut shifted = Placement::baseline(&p.offers[j]);
        shifted.start += 1u32;
        let total = eval.apply_move(j, shifted);
        let reference = evaluate(&p, eval.solution()).total();
        assert!((total - reference).abs() < 1e-9);
        eval.revert();
        assert_eq!(eval.total(), before);
    }

    #[test]
    fn rebase_matches_fresh_evaluator() {
        let p = problem(20, 17);
        let mut rng = StdRng::seed_from_u64(18);
        let mut eval = DeltaEvaluator::new_owned(p.clone(), Solution::random(&p, &mut rng));
        // Change a scattered subset of slots.
        let changed: Vec<usize> = vec![3, 4, 5, 40, 41, 90];
        let mut new_baseline = p.baseline_imbalance.clone();
        for &t in &changed {
            new_baseline[t] += rng.gen_range(-2.0..2.0);
        }
        let total = eval.rebase(&new_baseline, &changed);
        let mut updated = p.clone();
        updated.baseline_imbalance = new_baseline;
        let reference = DeltaEvaluator::new(&updated, eval.solution().clone()).total();
        assert!(
            (total - reference).abs() < 1e-9,
            "rebase {total} vs fresh {reference}"
        );
        // Moves after a rebase still track the full evaluation.
        for _ in 0..50 {
            let j = rng.gen_range(0..updated.offers.len());
            let t = eval.apply_move(j, Placement::random(&updated.offers[j], &mut rng));
            let full = evaluate(&updated, eval.solution()).total();
            assert!((t - full).abs() < 1e-6);
        }
    }

    #[test]
    fn rebase_invalidates_undo() {
        let p = problem(5, 19);
        let mut eval = DeltaEvaluator::new_owned(p.clone(), Solution::baseline(&p));
        eval.apply_move(0, Placement::baseline(&p.offers[0]));
        let baseline = eval.problem().baseline_imbalance.clone();
        eval.rebase(&baseline, &[]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| eval.revert()));
        assert!(result.is_err(), "revert across a rebase must panic");
    }

    #[test]
    fn fork_is_independent() {
        let p = problem(15, 21);
        let mut rng = StdRng::seed_from_u64(22);
        let eval = DeltaEvaluator::new(&p, Solution::random(&p, &mut rng));
        let before = eval.total();
        let mut forked = eval.fork();
        assert_eq!(forked.total(), before);
        // Mutating the fork leaves the parent untouched (checked via a
        // later parent move whose debug assertion would catch drift).
        for _ in 0..30 {
            let j = rng.gen_range(0..p.offers.len());
            forked.apply_move(j, Placement::random(&p.offers[j], &mut rng));
        }
        assert_eq!(eval.total(), before);
        let reference = evaluate(&p, forked.solution()).total();
        assert!((forked.total() - reference).abs() < 1e-6);
    }

    #[test]
    fn adopt_scoped_converges_to_winner() {
        let p = problem(12, 23);
        let mut rng = StdRng::seed_from_u64(24);
        let mut eval = DeltaEvaluator::new(&p, Solution::baseline(&p));
        let mut forked = eval.fork();
        let scope: Vec<usize> = vec![1, 3, 5, 7];
        for &j in &scope {
            forked.apply_move(j, Placement::random(&p.offers[j], &mut rng));
        }
        let winner_total = forked.total();
        let winner = forked.into_solution();
        let total = eval.adopt_scoped(&winner, &scope);
        assert!((total - winner_total).abs() < 1e-6);
        assert_eq!(eval.solution(), &winner);
    }

    #[test]
    fn resync_squashes_drift() {
        let p = problem(8, 13);
        let mut rng = StdRng::seed_from_u64(14);
        let mut eval = DeltaEvaluator::new(&p, Solution::baseline(&p));
        for _ in 0..50 {
            let j = rng.gen_range(0..p.offers.len());
            eval.apply_move(j, Placement::random(&p.offers[j], &mut rng));
        }
        eval.resync();
        let reference = evaluate(&p, eval.solution()).total();
        assert!((eval.total() - reference).abs() < 1e-12);
    }
}
