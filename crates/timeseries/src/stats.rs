//! Forecast accuracy metrics.
//!
//! The paper reports accuracy as SMAPE (Figure 4). The definition used by
//! Taylor (and by MIRABEL's forecasting work) is
//! `mean(|f - a| / ((|a| + |f|) / 2))`, which lies in `[0, 2]`. Values in
//! the paper's Figure 4(a) are tiny (≈0.001–0.005) because they measure
//! in-sample one-step error on a smooth national demand series.

/// Symmetric mean absolute percentage error over paired slices.
///
/// Pairs where both actual and forecast are zero contribute zero error.
/// Returns 0 for empty input. Slices must have equal length.
pub fn smape(actual: &[f64], forecast: &[f64]) -> f64 {
    assert_eq!(actual.len(), forecast.len(), "length mismatch");
    if actual.is_empty() {
        return 0.0;
    }
    let mut acc = 0.0;
    for (&a, &f) in actual.iter().zip(forecast) {
        let denom = (a.abs() + f.abs()) / 2.0;
        if denom > 0.0 {
            acc += (f - a).abs() / denom;
        }
    }
    acc / actual.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smape_perfect_is_zero() {
        assert_eq!(smape(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn smape_bounded_by_two() {
        // opposite-sign or total miss saturates at 2
        let s = smape(&[1.0], &[0.0]);
        assert!((s - 2.0).abs() < 1e-12);
        assert!(smape(&[1.0, 1.0], &[0.0, 2.0]) <= 2.0);
    }

    #[test]
    fn smape_symmetric() {
        let a = smape(&[100.0], &[110.0]);
        let b = smape(&[110.0], &[100.0]);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn smape_zero_pairs_ignored() {
        assert_eq!(smape(&[0.0, 1.0], &[0.0, 1.0]), 0.0);
        assert_eq!(smape(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        smape(&[1.0], &[1.0, 2.0]);
    }
}
