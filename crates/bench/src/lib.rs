//! Shared helpers for the experiment harness binaries.
//!
//! Each `fig*` binary under `src/bin/` regenerates one figure of the
//! paper's §9 evaluation; its module docs quote the figure and give the
//! command. All binaries honour the `MIRABEL_QUICK=1` environment
//! variable to run a reduced-size version.

#![forbid(unsafe_code)]

use std::time::Instant;

/// Whether the quick (reduced-size) mode was requested.
pub fn quick_mode() -> bool {
    std::env::var("MIRABEL_QUICK").is_ok_and(|v| v == "1" || v == "true")
}

/// The paper's evolutionary algorithm: memetic (delta-scored) local
/// refinement disabled, so figure reproductions measure the published EA
/// rather than the improved default, mirroring
/// `GreedyScheduler::run_with_polish(.., 0)` for the greedy series.
pub fn paper_ea() -> mirabel_schedule::EvolutionaryScheduler {
    mirabel_schedule::EvolutionaryScheduler {
        config: mirabel_schedule::EaConfig {
            local_search_moves: 0,
            ..mirabel_schedule::EaConfig::default()
        },
    }
}

/// Time one closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Least-squares line fit `y = a·x + b` over paired samples.
pub fn line_fit(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let sx: f64 = xs.iter().sum();
    let sy: f64 = ys.iter().sum();
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return (0.0, sy / n);
    }
    let a = (n * sxy - sx * sy) / denom;
    let b = (sy - a * sx) / n;
    (a, b)
}

/// Resample a best-so-far trajectory onto a fixed time grid: for each
/// grid point, the best value achieved at or before it (NaN before the
/// first sample).
pub fn resample_trajectory(
    points: &[(f64, f64)], // (elapsed seconds, best value)
    grid: &[f64],
) -> Vec<f64> {
    grid.iter()
        .map(|&t| {
            points
                .iter()
                .take_while(|(pt, _)| *pt <= t)
                .last()
                .map(|(_, v)| *v)
                .unwrap_or(f64::NAN)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_fit_exact() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [1.0, 3.0, 5.0, 7.0];
        let (a, b) = line_fit(&xs, &ys);
        assert!((a - 2.0).abs() < 1e-12);
        assert!((b - 1.0).abs() < 1e-12);
    }

    #[test]
    fn line_fit_degenerate() {
        assert_eq!(line_fit(&[], &[]), (0.0, 0.0));
        let (a, b) = line_fit(&[2.0, 2.0], &[5.0, 7.0]);
        assert_eq!(a, 0.0);
        assert_eq!(b, 6.0);
    }

    #[test]
    fn trajectory_resampling() {
        let traj = [(0.5, 10.0), (1.5, 5.0), (3.0, 2.0)];
        let grid = [0.0, 1.0, 2.0, 4.0];
        let r = resample_trajectory(&traj, &grid);
        assert!(r[0].is_nan());
        assert_eq!(r[1], 10.0);
        assert_eq!(r[2], 5.0);
        assert_eq!(r[3], 2.0);
    }

    #[test]
    fn timed_returns_result() {
        let (v, s) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(s >= 0.0);
    }
}
