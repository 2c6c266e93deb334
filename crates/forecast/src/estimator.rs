//! Parameter estimation for forecast models (paper §5).
//!
//! Model creation "involves computationally expensive parameter
//! estimation, where we reuse existing well-established local (e.g.
//! Downhill-Simplex) and global (e.g. Simulated Annealing) parameter
//! estimators". This module provides the four algorithms the paper
//! mentions and compares in Figure 4(a):
//!
//! * [`NelderMead`] — the local downhill-simplex method \[8\],
//! * [`RandomRestartNelderMead`] — the paper's winning global method,
//! * [`SimulatedAnnealing`] — Metropolis acceptance with geometric cooling \[1\],
//! * [`RandomSearch`] — uniform sampling baseline.
//!
//! All optimizers minimize a black-box [`Objective`] over a box-bounded
//! domain and record an improvement *trajectory* (time, evaluations, best
//! error) so the Figure 4(a) error-development curves fall directly out of
//! the API.

pub use mirabel_core::Budget;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Boxed black-box function type used by [`Objective`].
type BoxedObjectiveFn<'a> = Box<dyn Fn(&[f64]) -> f64 + 'a>;

/// A black-box minimization target over a box-bounded domain.
pub struct Objective<'a> {
    f: BoxedObjectiveFn<'a>,
    bounds: Vec<(f64, f64)>,
}

impl<'a> Objective<'a> {
    /// Wrap a function with per-dimension `(lo, hi)` bounds.
    pub fn new(bounds: Vec<(f64, f64)>, f: impl Fn(&[f64]) -> f64 + 'a) -> Objective<'a> {
        assert!(!bounds.is_empty());
        assert!(bounds.iter().all(|(lo, hi)| lo <= hi));
        Objective {
            f: Box::new(f),
            bounds,
        }
    }

    /// Number of dimensions.
    pub fn dim(&self) -> usize {
        self.bounds.len()
    }

    /// The box bounds.
    pub fn bounds(&self) -> &[(f64, f64)] {
        &self.bounds
    }

    /// Evaluate the raw function (no clamping).
    pub fn eval(&self, x: &[f64]) -> f64 {
        (self.f)(x)
    }

    /// Project a point into the box.
    pub fn clamp(&self, x: &mut [f64]) {
        for (v, (lo, hi)) in x.iter_mut().zip(&self.bounds) {
            *v = v.clamp(*lo, *hi);
        }
    }

    /// Uniform random point inside the box.
    pub fn random_point(&self, rng: &mut StdRng) -> Vec<f64> {
        self.bounds
            .iter()
            .map(|&(lo, hi)| if lo == hi { lo } else { rng.gen_range(lo..hi) })
            .collect()
    }
}

/// One improvement event during estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryPoint {
    /// Wall-clock time since estimation start.
    pub elapsed: Duration,
    /// Objective evaluations consumed so far.
    pub evaluations: usize,
    /// Best error found so far.
    pub best_error: f64,
}

/// Outcome of an estimation run.
#[derive(Debug, Clone)]
pub struct EstimationResult {
    /// Best parameter vector found.
    pub best_params: Vec<f64>,
    /// Objective value at `best_params`.
    pub best_error: f64,
    /// Total objective evaluations.
    pub evaluations: usize,
    /// Improvement trajectory (monotonically decreasing `best_error`).
    pub trajectory: Vec<TrajectoryPoint>,
}

/// Book-keeping shared by all optimizers: counts evaluations, enforces the
/// budget, and records the improvement trajectory.
struct Tracker<'o, 'f> {
    obj: &'o Objective<'f>,
    budget: Budget,
    start: Instant,
    evaluations: usize,
    best_params: Vec<f64>,
    best_error: f64,
    trajectory: Vec<TrajectoryPoint>,
}

impl<'o, 'f> Tracker<'o, 'f> {
    fn new(obj: &'o Objective<'f>, budget: Budget) -> Tracker<'o, 'f> {
        Tracker {
            obj,
            budget,
            start: Instant::now(),
            evaluations: 0,
            best_params: Vec::new(),
            best_error: f64::INFINITY,
            trajectory: Vec::new(),
        }
    }

    fn exhausted(&self) -> bool {
        self.budget.exhausted(self.evaluations, self.start)
    }

    fn eval(&mut self, x: &[f64]) -> f64 {
        let v = self.obj.eval(x);
        self.evaluations += 1;
        if v < self.best_error {
            self.best_error = v;
            self.best_params = x.to_vec();
            self.trajectory.push(TrajectoryPoint {
                elapsed: self.start.elapsed(),
                evaluations: self.evaluations,
                best_error: v,
            });
        }
        v
    }

    fn finish(self) -> EstimationResult {
        EstimationResult {
            best_params: self.best_params,
            best_error: self.best_error,
            evaluations: self.evaluations,
            trajectory: self.trajectory,
        }
    }
}

/// A parameter estimator: minimizes an [`Objective`] within a [`Budget`].
pub trait Estimator {
    /// Algorithm name for reports.
    fn name(&self) -> &'static str;

    /// Run the minimization. `seed` makes stochastic algorithms
    /// reproducible.
    fn estimate(&self, obj: &Objective<'_>, budget: Budget, seed: u64) -> EstimationResult;
}

// ---------------------------------------------------------------------------
// Nelder-Mead downhill simplex
// ---------------------------------------------------------------------------

/// The Nelder-Mead downhill-simplex local search \[8\].
#[derive(Debug, Clone, Copy)]
pub struct NelderMead {
    /// Reflection coefficient (standard: 1.0).
    pub alpha: f64,
    /// Expansion coefficient (standard: 2.0).
    pub gamma: f64,
    /// Contraction coefficient (standard: 0.5).
    pub rho: f64,
    /// Shrink coefficient (standard: 0.5).
    pub sigma: f64,
    /// Convergence tolerance on the simplex value spread.
    pub tolerance: f64,
}

impl Default for NelderMead {
    fn default() -> NelderMead {
        NelderMead {
            alpha: 1.0,
            gamma: 2.0,
            rho: 0.5,
            sigma: 0.5,
            tolerance: 1e-10,
        }
    }
}

impl NelderMead {
    /// Run one simplex descent from `start` until convergence or budget
    /// exhaustion, using `tracker` for accounting. Returns when done.
    fn descend(&self, tracker: &mut Tracker<'_, '_>, start: &[f64]) {
        let obj = tracker.obj;
        let n = obj.dim();
        // Initial simplex: start plus n axis-perturbed points (5% of the
        // bound width, at least 1e-3).
        let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n + 1);
        let f0 = tracker.eval(start);
        simplex.push((start.to_vec(), f0));
        for i in 0..n {
            if tracker.exhausted() {
                return;
            }
            let (lo, hi) = obj.bounds()[i];
            let step = ((hi - lo) * 0.05).max(1e-3);
            let mut p = start.to_vec();
            p[i] = if p[i] + step <= hi {
                p[i] + step
            } else {
                p[i] - step
            };
            obj.clamp(&mut p);
            let f = tracker.eval(&p);
            simplex.push((p, f));
        }

        loop {
            if tracker.exhausted() {
                return;
            }
            simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
            let spread = simplex[n].1 - simplex[0].1;
            if spread.abs() < self.tolerance {
                return;
            }
            // centroid of all but worst
            let mut centroid = vec![0.0; n];
            for (p, _) in &simplex[..n] {
                for (c, v) in centroid.iter_mut().zip(p) {
                    *c += v / n as f64;
                }
            }
            let worst = simplex[n].clone();
            let point_along = |t: f64| -> Vec<f64> {
                let mut p: Vec<f64> = centroid
                    .iter()
                    .zip(&worst.0)
                    .map(|(c, w)| c + t * (c - w))
                    .collect();
                obj.clamp(&mut p);
                p
            };

            let refl = point_along(self.alpha);
            let f_refl = tracker.eval(&refl);
            if f_refl < simplex[0].1 {
                // try expansion
                if tracker.exhausted() {
                    return;
                }
                let exp = point_along(self.gamma);
                let f_exp = tracker.eval(&exp);
                simplex[n] = if f_exp < f_refl {
                    (exp, f_exp)
                } else {
                    (refl, f_refl)
                };
            } else if f_refl < simplex[n - 1].1 {
                simplex[n] = (refl, f_refl);
            } else {
                // contraction
                if tracker.exhausted() {
                    return;
                }
                let con = point_along(-self.rho);
                let f_con = tracker.eval(&con);
                if f_con < worst.1 {
                    simplex[n] = (con, f_con);
                } else {
                    // shrink towards best
                    let best = simplex[0].0.clone();
                    for item in simplex.iter_mut().skip(1) {
                        if tracker.exhausted() {
                            return;
                        }
                        let mut p: Vec<f64> = best
                            .iter()
                            .zip(&item.0)
                            .map(|(b, x)| b + self.sigma * (x - b))
                            .collect();
                        obj.clamp(&mut p);
                        let f = tracker.eval(&p);
                        *item = (p, f);
                    }
                }
            }
        }
    }
}

impl NelderMead {
    /// Single simplex descent from an explicit starting point — the
    /// warm-start path used by context-aware model adaptation.
    pub fn estimate_from(
        &self,
        obj: &Objective<'_>,
        budget: Budget,
        start: &[f64],
    ) -> EstimationResult {
        let mut tracker = Tracker::new(obj, budget);
        let mut s = start.to_vec();
        obj.clamp(&mut s);
        self.descend(&mut tracker, &s);
        tracker.finish()
    }
}

impl Estimator for NelderMead {
    fn name(&self) -> &'static str {
        "Nelder-Mead"
    }

    fn estimate(&self, obj: &Objective<'_>, budget: Budget, seed: u64) -> EstimationResult {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tracker = Tracker::new(obj, budget);
        let start = obj.random_point(&mut rng);
        self.descend(&mut tracker, &start);
        tracker.finish()
    }
}

// ---------------------------------------------------------------------------
// Random-restart Nelder-Mead (the paper's main global estimator)
// ---------------------------------------------------------------------------

/// Repeated Nelder-Mead descents from random starting points until the
/// budget is exhausted. The paper: "we employ Random Restart Nelder Mead
/// as our main global search algorithm".
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomRestartNelderMead {
    /// The inner simplex configuration.
    pub inner: NelderMead,
}

impl Estimator for RandomRestartNelderMead {
    fn name(&self) -> &'static str {
        "Random Restart Nelder-Mead"
    }

    fn estimate(&self, obj: &Objective<'_>, budget: Budget, seed: u64) -> EstimationResult {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tracker = Tracker::new(obj, budget);
        while !tracker.exhausted() {
            let start = obj.random_point(&mut rng);
            self.inner.descend(&mut tracker, &start);
        }
        tracker.finish()
    }
}

// ---------------------------------------------------------------------------
// Simulated annealing
// ---------------------------------------------------------------------------

/// Metropolis search with geometric cooling \[1\].
#[derive(Debug, Clone, Copy)]
pub struct SimulatedAnnealing {
    /// Initial temperature relative to the first objective value.
    pub initial_temp: f64,
    /// Geometric cooling factor per step (e.g. 0.995).
    pub cooling: f64,
    /// Proposal step size as a fraction of each bound width.
    pub step_fraction: f64,
    /// Restart temperature floor: when the temperature falls below
    /// `floor * initial_temp` the search re-heats (keeps exploring within
    /// large budgets).
    pub reheat_floor: f64,
}

impl Default for SimulatedAnnealing {
    fn default() -> SimulatedAnnealing {
        SimulatedAnnealing {
            initial_temp: 1.0,
            cooling: 0.995,
            step_fraction: 0.1,
            reheat_floor: 1e-6,
        }
    }
}

impl Estimator for SimulatedAnnealing {
    fn name(&self) -> &'static str {
        "Simulated Annealing"
    }

    fn estimate(&self, obj: &Objective<'_>, budget: Budget, seed: u64) -> EstimationResult {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tracker = Tracker::new(obj, budget);
        let mut current = obj.random_point(&mut rng);
        let mut f_cur = tracker.eval(&current);
        let scale = f_cur.abs().max(1e-12);
        let mut temp = self.initial_temp * scale;
        while !tracker.exhausted() {
            let mut cand = current.clone();
            for (i, &(lo, hi)) in obj.bounds().iter().enumerate() {
                let w = (hi - lo).max(1e-12);
                cand[i] += rng.gen_range(-1.0..1.0) * w * self.step_fraction;
            }
            obj.clamp(&mut cand);
            let f_cand = tracker.eval(&cand);
            let accept = f_cand <= f_cur || {
                let p = ((f_cur - f_cand) / temp.max(1e-300)).exp();
                rng.gen_bool(p.clamp(0.0, 1.0))
            };
            if accept {
                current = cand;
                f_cur = f_cand;
            }
            temp *= self.cooling;
            if temp < self.reheat_floor * scale {
                temp = self.initial_temp * scale;
                current = obj.random_point(&mut rng);
                if tracker.exhausted() {
                    break;
                }
                f_cur = tracker.eval(&current);
            }
        }
        tracker.finish()
    }
}

// ---------------------------------------------------------------------------
// Random search
// ---------------------------------------------------------------------------

/// Uniform random sampling of the box — the baseline in Figure 4(a).
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomSearch;

impl Estimator for RandomSearch {
    fn name(&self) -> &'static str {
        "Random Search"
    }

    fn estimate(&self, obj: &Objective<'_>, budget: Budget, seed: u64) -> EstimationResult {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tracker = Tracker::new(obj, budget);
        while !tracker.exhausted() {
            let p = obj.random_point(&mut rng);
            tracker.eval(&p);
        }
        tracker.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sphere() -> Objective<'static> {
        Objective::new(vec![(-5.0, 5.0); 4], |x| {
            x.iter().map(|v| v * v).sum::<f64>()
        })
    }

    fn rosenbrock() -> Objective<'static> {
        Objective::new(vec![(-2.0, 2.0); 2], |x| {
            (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2)
        })
    }

    #[test]
    fn objective_clamp_and_random_point() {
        let obj = sphere();
        let mut p = vec![10.0, -10.0, 0.0, 3.0];
        obj.clamp(&mut p);
        assert_eq!(p, vec![5.0, -5.0, 0.0, 3.0]);
        let mut rng = StdRng::seed_from_u64(1);
        let q = obj.random_point(&mut rng);
        assert!(q.iter().all(|v| (-5.0..=5.0).contains(v)));
    }

    #[test]
    fn objective_degenerate_bound() {
        let obj = Objective::new(vec![(2.0, 2.0)], |x| x[0]);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(obj.random_point(&mut rng), vec![2.0]);
    }

    #[test]
    fn nelder_mead_solves_sphere() {
        let obj = sphere();
        let r = NelderMead::default().estimate(&obj, Budget::evaluations(2000), 42);
        assert!(r.best_error < 1e-4, "best {}", r.best_error);
    }

    #[test]
    fn nelder_mead_solves_rosenbrock() {
        let obj = rosenbrock();
        let r = RandomRestartNelderMead::default().estimate(&obj, Budget::evaluations(5000), 7);
        assert!(r.best_error < 1e-3, "best {}", r.best_error);
        assert!((r.best_params[0] - 1.0).abs() < 0.1);
    }

    #[test]
    fn simulated_annealing_improves() {
        let obj = sphere();
        let r = SimulatedAnnealing::default().estimate(&obj, Budget::evaluations(3000), 11);
        assert!(r.best_error < 0.5, "best {}", r.best_error);
    }

    #[test]
    fn random_search_improves_slowly() {
        let obj = sphere();
        let few = RandomSearch.estimate(&obj, Budget::evaluations(30), 3);
        let many = RandomSearch.estimate(&obj, Budget::evaluations(3000), 3);
        assert!(many.best_error <= few.best_error);
    }

    #[test]
    fn rrnm_beats_random_search_on_same_budget() {
        let obj = rosenbrock();
        let budget = Budget::evaluations(2000);
        let rr = RandomRestartNelderMead::default().estimate(&obj, budget, 5);
        let rs = RandomSearch.estimate(&obj, budget, 5);
        assert!(
            rr.best_error <= rs.best_error,
            "rrnm {} rs {}",
            rr.best_error,
            rs.best_error
        );
    }

    #[test]
    fn budget_respected() {
        let obj = sphere();
        for est in [
            &RandomRestartNelderMead::default() as &dyn Estimator,
            &SimulatedAnnealing::default(),
            &RandomSearch,
            &NelderMead::default(),
        ] {
            let r = est.estimate(&obj, Budget::evaluations(100), 1);
            // Small overshoot is allowed inside an inner loop iteration.
            assert!(
                r.evaluations <= 110,
                "{} used {} evaluations",
                est.name(),
                r.evaluations
            );
        }
    }

    #[test]
    fn trajectory_monotone_decreasing() {
        let obj = rosenbrock();
        let r = SimulatedAnnealing::default().estimate(&obj, Budget::evaluations(1000), 2);
        assert!(!r.trajectory.is_empty());
        for w in r.trajectory.windows(2) {
            assert!(w[1].best_error <= w[0].best_error);
            assert!(w[1].evaluations >= w[0].evaluations);
        }
        assert_eq!(r.trajectory.last().unwrap().best_error, r.best_error);
    }

    #[test]
    fn deterministic_per_seed() {
        let obj = sphere();
        let a = SimulatedAnnealing::default().estimate(&obj, Budget::evaluations(500), 9);
        let b = SimulatedAnnealing::default().estimate(&obj, Budget::evaluations(500), 9);
        assert_eq!(a.best_params, b.best_params);
        let c = SimulatedAnnealing::default().estimate(&obj, Budget::evaluations(500), 10);
        assert_ne!(a.best_params, c.best_params);
    }

    #[test]
    fn results_stay_in_bounds() {
        let obj = Objective::new(vec![(0.0, 1.0), (-0.95, 0.95)], |x| {
            (x[0] - 2.0).powi(2) + (x[1] - 2.0).powi(2) // optimum outside box
        });
        for est in [
            &RandomRestartNelderMead::default() as &dyn Estimator,
            &SimulatedAnnealing::default(),
            &RandomSearch,
        ] {
            let r = est.estimate(&obj, Budget::evaluations(500), 4);
            assert!(r.best_params[0] <= 1.0 + 1e-12, "{}", est.name());
            assert!(r.best_params[1] <= 0.95 + 1e-12, "{}", est.name());
            // constrained optimum is at the upper corner
            assert!(r.best_params[0] > 0.8, "{}", est.name());
        }
    }
}
