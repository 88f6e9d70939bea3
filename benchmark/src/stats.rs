//! Robust summaries: medians, quartiles and the tail-percentile rule.
//!
//! Every timing the benchmark reports is a median over cycles (never a
//! mean: one preempted run on a 2-thread box must not move the result),
//! and every spread is the inter-quartile range as a share of the median —
//! the same estimator the driver applies across runs.

/// Sort a copy of `xs` ascending (NaN-free inputs only).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are never NaN"));
    v
}

/// Median of `xs` (mean of the two middle values for even lengths).
/// Returns 0 for an empty slice so a workload with no samples reports a
/// visible zero instead of panicking.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median, third quartile — the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`, so spreads computed here
/// match the ones the driver computes over runs.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let at = |i: usize| -> f64 {
        // Position i*(n+1)/4 on a 1-based scale; like Python, the index is
        // clamped to the data but the fraction is not (tiny samples
        // extrapolate).
        let pos = i as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        v[j - 1] + (v[j] - v[j - 1]) * (pos - j as f64)
    };
    (at(1), at(2), at(3))
}

/// Nearest-rank percentile `p` (0..=100) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile among 50/90/99/99.9 that still has at least ten
/// samples beyond it — the tail a sample of size `n` can support.
pub fn highest_supported_percentile(n: usize) -> f64 {
    // (percentile, samples beyond it per thousand) — integer arithmetic, so
    // n = 10 000 supports p99.9 exactly.
    [(99.9, 1), (99.0, 10), (90.0, 100)]
        .into_iter()
        .find(|&(_, beyond_per_mille)| n * beyond_per_mille / 1000 >= 10)
        .map_or(50.0, |(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q2, q3) = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((q1, q2, q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(50), 50.0);
        assert_eq!(highest_supported_percentile(99), 50.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(4_000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
    }
}
