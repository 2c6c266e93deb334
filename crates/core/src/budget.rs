//! The search budget every optimiser runs under: the forecast parameter
//! estimators (paper §5) and the schedulers (§6) alike.

use std::time::{Duration, Instant};

/// Search budget: evaluation cap and optional wall-clock cap.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Maximum objective evaluations (a scheduler's candidate scorings
    /// count too).
    pub max_evaluations: usize,
    /// Optional wall-clock limit.
    pub max_time: Option<Duration>,
}

impl Budget {
    /// Evaluation-count budget (deterministic; used in tests).
    pub fn evaluations(n: usize) -> Budget {
        Budget {
            max_evaluations: n,
            max_time: None,
        }
    }

    /// Wall-clock budget with an unbounded evaluation backstop.
    pub fn time(d: Duration) -> Budget {
        Budget {
            max_evaluations: usize::MAX,
            max_time: Some(d),
        }
    }

    /// Whether a search that started at `started` and has spent
    /// `evaluations` is out of budget.
    pub fn exhausted(&self, evaluations: usize, started: Instant) -> bool {
        evaluations >= self.max_evaluations || self.max_time.is_some_and(|t| started.elapsed() >= t)
    }
}
