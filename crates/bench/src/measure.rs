//! Repetition + statistics for the experiment harness.
//!
//! The paper takes "10 runs and report\[s\] the average (arithmetic mean);
//! standard deviations are presented as error bars" — [`measure`] does the
//! same over wall-clock seconds.

use std::time::Instant;

/// Mean / std / min / max of repeated measurements (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 for a single rep).
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Number of repetitions.
    pub reps: usize,
}

impl Stats {
    /// Compute from raw samples. Panics on empty input.
    pub fn from_samples(samples: &[f64]) -> Stats {
        assert!(!samples.is_empty(), "no samples");
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = if samples.len() > 1 {
            samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        Stats {
            mean,
            std: var.sqrt(),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            reps: samples.len(),
        }
    }

    /// Percentage overhead of `self` relative to `base` means.
    pub fn overhead_pct(&self, base: &Stats) -> f64 {
        (self.mean - base.mean) / base.mean * 100.0
    }
}

/// Time `reps` executions of `body` (seconds each), returning statistics.
/// `setup(rep)` builds each execution's input before its clock starts, so
/// constructing an instance is never counted as run time.
pub fn measure<S>(
    reps: usize,
    mut setup: impl FnMut(usize) -> S,
    mut body: impl FnMut(S),
) -> Stats {
    assert!(reps > 0);
    let mut samples = Vec::with_capacity(reps);
    for rep in 0..reps {
        let input = setup(rep);
        let t = Instant::now();
        body(input);
        samples.push(t.elapsed().as_secs_f64());
    }
    Stats::from_samples(&samples)
}

/// Statistics over arbitrary per-rep counts (e.g. re-executed tasks,
/// Table II).
pub fn count_stats(counts: &[u64]) -> Stats {
    let samples: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
    Stats::from_samples(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_constant_samples() {
        let s = Stats::from_samples(&[2.0, 2.0, 2.0]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 2.0);
        assert_eq!(s.reps, 3);
    }

    #[test]
    fn stats_spread() {
        let s = Stats::from_samples(&[1.0, 3.0]);
        assert_eq!(s.mean, 2.0);
        assert!((s.std - std::f64::consts::SQRT_2).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
    }

    #[test]
    fn single_sample_has_zero_std() {
        let s = Stats::from_samples(&[5.0]);
        assert_eq!(s.std, 0.0);
    }

    #[test]
    fn overhead_pct() {
        let base = Stats::from_samples(&[1.0]);
        let other = Stats::from_samples(&[1.1]);
        assert!((other.overhead_pct(&base) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn measure_runs_reps() {
        let mut n = 0;
        let s = measure(5, |rep| rep, |rep| n += rep);
        assert_eq!(n, 1 + 2 + 3 + 4);
        assert_eq!(s.reps, 5);
        assert!(s.mean >= 0.0);
    }

    #[test]
    fn count_stats_table2_style() {
        let s = count_stats(&[443, 448, 442]);
        assert!((s.mean - 444.333).abs() < 0.01);
        assert_eq!(s.min, 442.0);
        assert_eq!(s.max, 448.0);
    }
}
