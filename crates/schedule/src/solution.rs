//! Candidate schedules.
//!
//! A [`Solution`] fixes, for every offer, a start slot inside the offer's
//! start window and a per-slot *fraction* of the slot's energy range.
//! Using fractions (rather than raw energies) means every representable
//! solution satisfies the flex-offer constraints by construction — the
//! search algorithms can recombine and mutate freely.

use crate::cost::CostBreakdown;
use crate::problem::SchedulingProblem;
pub use mirabel_core::Budget;
use mirabel_core::{FlexOffer, ScheduledFlexOffer, TimeSlot};
use rand::rngs::StdRng;
use rand::Rng;
use std::time::Duration;

/// One offer's resolved flexibility.
#[derive(Debug, PartialEq)]
pub struct Placement {
    /// Chosen start slot.
    pub start: TimeSlot,
    /// Per-profile-slot fraction in `[0, 1]` between the slot's min and
    /// max energy.
    pub fractions: Vec<f64>,
}

impl Clone for Placement {
    fn clone(&self) -> Placement {
        Placement {
            start: self.start,
            fractions: self.fractions.clone(),
        }
    }

    /// Buffer-reusing `clone_from` (the derive would fall back to a
    /// fresh allocation): hot paths snapshot best-so-far solutions with
    /// `clone_from`, which must not allocate once capacity exists.
    fn clone_from(&mut self, source: &Placement) {
        self.start = source.start;
        self.fractions.clear();
        self.fractions.extend_from_slice(&source.fractions);
    }
}

impl Placement {
    /// Minimum-energy placement at the offer's earliest start.
    pub fn baseline(offer: &FlexOffer) -> Placement {
        Placement {
            start: offer.earliest_start(),
            fractions: vec![0.0; offer.duration() as usize],
        }
    }

    /// Uniformly random placement.
    pub fn random(offer: &FlexOffer, rng: &mut StdRng) -> Placement {
        let tf = offer.time_flexibility();
        let shift = if tf == 0 { 0 } else { rng.gen_range(0..=tf) };
        Placement {
            start: offer.earliest_start() + shift,
            fractions: (0..offer.duration())
                .map(|_| rng.gen_range(0.0..=1.0))
                .collect(),
        }
    }

    /// Materialize into a [`ScheduledFlexOffer`].
    pub fn to_schedule(&self, offer: &FlexOffer) -> ScheduledFlexOffer {
        ScheduledFlexOffer {
            offer_id: offer.id(),
            start: self.start,
            slot_energies: offer
                .profile()
                .slot_ranges()
                .zip(&self.fractions)
                .map(|(r, &f)| r.lerp(f))
                .collect(),
        }
    }

    /// Clamp the placement into the offer's constraints (used after
    /// mutation).
    pub fn repair(&mut self, offer: &FlexOffer) {
        if self.start < offer.earliest_start() {
            self.start = offer.earliest_start();
        }
        if self.start > offer.latest_start() {
            self.start = offer.latest_start();
        }
        self.fractions.resize(offer.duration() as usize, 0.0);
        for f in &mut self.fractions {
            *f = f.clamp(0.0, 1.0);
        }
    }
}

/// Single-offer neighbor move of the greedy polish: with probability
/// `p_shift` — and available flexibility —
/// shift the start by up to ±`time_flexibility/4` slots, otherwise
/// jitter one random fraction by ±`jitter`; always repaired back into
/// the offer's constraints.
pub(crate) fn jitter_move(
    g: &mut Placement,
    offer: &FlexOffer,
    rng: &mut StdRng,
    p_shift: f64,
    jitter: f64,
) {
    if offer.time_flexibility() > 0 && rng.gen_bool(p_shift) {
        let span = (offer.time_flexibility() / 4).max(1) as i64;
        g.start = mirabel_core::TimeSlot(g.start.index() + rng.gen_range(-span..=span));
    } else {
        let k = rng.gen_range(0..g.fractions.len());
        g.fractions[k] += rng.gen_range(-jitter..jitter);
    }
    g.repair(offer);
}

/// A complete candidate schedule: one placement per problem offer, in the
/// problem's offer order.
#[derive(Debug, PartialEq)]
pub struct Solution {
    /// Placements aligned with `problem.offers`.
    pub placements: Vec<Placement>,
}

impl Clone for Solution {
    fn clone(&self) -> Solution {
        Solution {
            placements: self.placements.clone(),
        }
    }

    /// `Vec::clone_from` reuses the outer buffer and calls
    /// [`Placement::clone_from`] element-wise, so snapshotting a
    /// best-so-far solution is allocation-free at steady state.
    fn clone_from(&mut self, source: &Solution) {
        self.placements.clone_from(&source.placements);
    }
}

impl Solution {
    /// All offers at earliest start, minimum energy (the open-contract
    /// world without scheduling).
    pub fn baseline(problem: &SchedulingProblem) -> Solution {
        Solution {
            placements: problem.offers.iter().map(Placement::baseline).collect(),
        }
    }

    /// Uniformly random solution.
    pub fn random(problem: &SchedulingProblem, rng: &mut StdRng) -> Solution {
        Solution {
            placements: problem
                .offers
                .iter()
                .map(|o| Placement::random(o, rng))
                .collect(),
        }
    }

    /// Materialize all placements.
    pub fn to_schedules(&self, problem: &SchedulingProblem) -> Vec<ScheduledFlexOffer> {
        self.placements
            .iter()
            .zip(&problem.offers)
            .map(|(p, o)| p.to_schedule(o))
            .collect()
    }

    /// Check every placement against its offer.
    pub fn is_feasible(&self, problem: &SchedulingProblem) -> bool {
        self.placements.len() == problem.offers.len()
            && self
                .placements
                .iter()
                .zip(&problem.offers)
                .all(|(p, o)| p.to_schedule(o).validate_against(o, 1e-9).is_ok())
    }
}

/// One point of the best-cost-so-far trajectory (the Figure 6 curves).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryPoint {
    /// Wall-clock time since the scheduler started.
    pub elapsed: Duration,
    /// Cost evaluations consumed so far.
    pub evaluations: usize,
    /// Best total cost found so far (EUR).
    pub best_cost: f64,
}

/// Output of a scheduling run.
#[derive(Debug, Clone)]
pub struct ScheduleResult {
    /// Best solution found.
    pub solution: Solution,
    /// Cost breakdown of the best solution.
    pub cost: CostBreakdown,
    /// Number of full cost evaluations.
    pub evaluations: usize,
    /// Improvement trajectory.
    pub trajectory: Vec<TrajectoryPoint>,
}

/// Shared bookkeeping for all schedulers: budget enforcement, evaluation
/// counting and best-cost trajectory recording.
#[derive(Debug)]
pub(crate) struct Recorder {
    budget: Budget,
    start: std::time::Instant,
    evaluations: usize,
    best_cost: f64,
    trajectory: Vec<TrajectoryPoint>,
}

impl Recorder {
    pub(crate) fn new(budget: Budget) -> Recorder {
        Recorder {
            budget,
            start: std::time::Instant::now(),
            evaluations: 0,
            best_cost: f64::INFINITY,
            trajectory: Vec::new(),
        }
    }

    /// Count one evaluation without a cost observation (candidate scans).
    pub(crate) fn tick(&mut self) {
        self.evaluations += 1;
    }

    /// Count one evaluation of a complete solution and update the
    /// trajectory if it improves on the best so far.
    pub(crate) fn record(&mut self, cost: f64) {
        self.evaluations += 1;
        if cost < self.best_cost {
            self.best_cost = cost;
            self.trajectory.push(TrajectoryPoint {
                elapsed: self.start.elapsed(),
                evaluations: self.evaluations,
                best_cost: cost,
            });
        }
    }

    pub(crate) fn exhausted(&self) -> bool {
        self.budget.exhausted(self.evaluations, self.start)
    }

    pub(crate) fn finish(self, solution: Solution, cost: CostBreakdown) -> ScheduleResult {
        ScheduleResult {
            solution,
            cost,
            evaluations: self.evaluations,
            trajectory: self.trajectory,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::MarketPrices;
    use mirabel_core::{EnergyRange, Profile};
    use rand::SeedableRng;

    fn offer(id: u64, start: i64, tf: u32, dur: u32) -> FlexOffer {
        FlexOffer::builder(id, 1)
            .earliest_start(TimeSlot(start))
            .time_flexibility(tf)
            .profile(Profile::uniform(dur, EnergyRange::new(1.0, 2.0).unwrap()))
            .build()
            .unwrap()
    }

    fn problem() -> SchedulingProblem {
        SchedulingProblem::new(
            TimeSlot(0),
            vec![0.0; 48],
            vec![offer(0, 5, 10, 3), offer(1, 0, 0, 2)],
            MarketPrices::flat(48, 0.08, 0.03, 100.0),
            vec![0.2; 48],
        )
        .unwrap()
    }

    #[test]
    fn baseline_is_feasible() {
        let p = problem();
        let s = Solution::baseline(&p);
        assert!(s.is_feasible(&p));
        assert_eq!(s.placements[0].start, TimeSlot(5));
        assert_eq!(s.placements[0].fractions, vec![0.0; 3]);
    }

    #[test]
    fn random_solutions_always_feasible() {
        let p = problem();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let s = Solution::random(&p, &mut rng);
            assert!(s.is_feasible(&p));
        }
    }

    #[test]
    fn placement_to_schedule_lerps() {
        let o = offer(0, 5, 10, 2);
        let pl = Placement {
            start: TimeSlot(7),
            fractions: vec![0.0, 1.0],
        };
        let s = pl.to_schedule(&o);
        assert_eq!(s.start, TimeSlot(7));
        assert!((s.slot_energies[0].kwh() - 1.0).abs() < 1e-12);
        assert!((s.slot_energies[1].kwh() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn repair_clamps_everything() {
        let o = offer(0, 5, 10, 3);
        let mut pl = Placement {
            start: TimeSlot(100),
            fractions: vec![2.0, -1.0],
        };
        pl.repair(&o);
        assert_eq!(pl.start, TimeSlot(15));
        assert_eq!(pl.fractions.len(), 3);
        assert!(pl.fractions.iter().all(|f| (0.0..=1.0).contains(f)));
        let mut early = Placement {
            start: TimeSlot(0),
            fractions: vec![0.5; 3],
        };
        early.repair(&o);
        assert_eq!(early.start, TimeSlot(5));
    }

    #[test]
    fn infeasible_detected() {
        let p = problem();
        let mut s = Solution::baseline(&p);
        s.placements[0].start = TimeSlot(99);
        assert!(!s.is_feasible(&p));
        s.placements.pop();
        assert!(!s.is_feasible(&p));
    }
}
