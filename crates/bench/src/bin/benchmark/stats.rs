//! Order statistics over timing samples.

/// Sorted copy of `samples` (timings are finite by construction).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    v
}

/// Median: the middle sample, or the mean of the two middle samples.
/// Zero for an empty slice (a layer that never ran).
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `p` in `(0, 1]`: the smallest sample with at
/// least `p` of the samples at or below it.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The lower quartile: what a timing costs when the host leaves the
/// process alone. Interference from a shared host only ever adds time,
/// and on the reference box it comes in phases that slow every sample by
/// up to 1.8x for tens of seconds; the quartile of repeated samples of
/// the same work stays put until such phases cover three quarters of a
/// run, where a median moves as soon as they cover half.
pub fn uncontended(samples: &[f64]) -> f64 {
    percentile(samples, 0.25)
}

/// The [`uncontended`] time of each round position of a script.
/// `samples` holds whole reps back to back, `positions` rounds each, so
/// every position is compared with itself across reps only.
pub fn uncontended_positions(samples: &[f64], positions: usize) -> Vec<f64> {
    (0..positions)
        .map(|p| {
            let across_reps: Vec<f64> =
                samples.iter().skip(p).step_by(positions).copied().collect();
            uncontended(&across_reps)
        })
        .collect()
}

/// `(max - min) / median`, the `--repeat` spread of one metric across
/// sets. Zero when every set agrees exactly.
pub fn relative_spread(values: &[f64]) -> f64 {
    let v = sorted(values);
    let (Some(min), Some(max)) = (v.first(), v.last()) else {
        return 0.0;
    };
    if max == min {
        return 0.0;
    }
    (max - min) / median(values).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        // 15 samples: rank ceil(13.5) = 14, the second largest.
        let few: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(percentile(&few, 0.9), 14.0);
    }

    #[test]
    fn uncontended_ignores_a_slow_phase_covering_half_the_samples() {
        let calm = [10.0, 10.2, 10.1, 10.3];
        let half_slow = [10.0, 10.2, 18.1, 18.3];
        assert_eq!(uncontended(&calm), 10.0);
        assert_eq!(uncontended(&half_slow), 10.0);
        assert!(median(&half_slow) > 14.0);
        // Three reps: the fastest one.
        assert_eq!(uncontended(&[7.0, 5.0, 6.0]), 5.0);
    }

    #[test]
    fn positions_are_compared_across_reps_only() {
        // Three reps of a two-round script: a cheap and a dear round.
        let reps = [1.0, 9.0, 1.2, 9.5, 5.0, 9.1];
        assert_eq!(uncontended_positions(&reps, 2), vec![1.0, 9.0]);
        assert_eq!(uncontended_positions(&[], 2), vec![0.0, 0.0]);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(relative_spread(&[10.0, 11.0, 12.0]), 2.0 / 11.0);
        assert_eq!(relative_spread(&[5.0, 5.0]), 0.0);
        assert_eq!(relative_spread(&[]), 0.0);
    }
}
