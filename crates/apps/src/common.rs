//! Shared infrastructure for the five benchmarks: key encoding, the
//! harness-facing [`BenchApp`] trait, task classification by output version
//! (Section VI "Task type": v=0, v=rand, v=last), input generation, and the
//! float apps' tile-by-tile verification against a reference.

use nabbit_ft::blocks::BlockError;
use nabbit_ft::graph::{Key, TaskGraph};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// Bit-field key encoding: `| tag:4 | k:20 | i:20 | j:20 |`.
///
/// All benchmark task spaces fit comfortably (tile indices < 2^20); the
/// encoding is dense, collision-free per benchmark, and cheap to decode in
/// the predecessor/successor functions the scheduler calls constantly.
pub mod keys {
    use nabbit_ft::graph::Key;

    const FIELD: u32 = 20;
    const MASK: i64 = (1 << FIELD) - 1;

    /// Encode `(tag, k, i, j)` into a task key.
    #[inline]
    pub fn encode(tag: u8, k: usize, i: usize, j: usize) -> Key {
        debug_assert!(k < (1 << FIELD) && i < (1 << FIELD) && j < (1 << FIELD));
        ((tag as i64) << (3 * FIELD))
            | ((k as i64) << (2 * FIELD))
            | ((i as i64) << FIELD)
            | j as i64
    }

    /// Decode a task key back into `(tag, k, i, j)`.
    #[inline]
    pub fn decode(key: Key) -> (u8, usize, usize, usize) {
        (
            (key >> (3 * FIELD)) as u8,
            ((key >> (2 * FIELD)) & MASK) as usize,
            ((key >> FIELD) & MASK) as usize,
            (key & MASK) as usize,
        )
    }
}

/// Size configuration of a blocked benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppConfig {
    /// Problem size `N` (matrix/sequence length).
    pub n: usize,
    /// Block (tile) size `B`; must divide `n`.
    pub b: usize,
    /// Seed for input generation.
    pub seed: u64,
}

impl AppConfig {
    /// Config with `n`, `b` and a default seed.
    pub fn new(n: usize, b: usize) -> Self {
        assert!(
            b > 0 && n.is_multiple_of(b),
            "block size {b} must divide N {n}"
        );
        AppConfig {
            n,
            b,
            seed: 0xFEED_5EED,
        }
    }

    /// Number of tiles per dimension.
    pub fn nb(&self) -> usize {
        self.n / self.b
    }

    /// Replace the seed.
    pub fn with_seed(self, seed: u64) -> Self {
        AppConfig { seed, ..self }
    }
}

/// Task classification by the version of the data block it produces
/// (Section VI "Task type").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VersionClass {
    /// `v=0`: produces the first version of a block — recovery loses at
    /// most the task itself.
    First,
    /// `v=last`: produces the last version — recovery can trigger a chain
    /// of re-executions of all earlier producers of that block.
    Last,
    /// `v=rand`: produces some intermediate version.
    Rand,
}

/// Result of a lenient verification pass.
///
/// An *after-notify* fault whose task is never revisited is, by design,
/// detected but not recovered ("a failed task whose successors already have
/// been computed is not recovered"). Such blocks stay poisoned after the
/// run; [`BenchApp::verify_detailed`] skips them (they carry a detected
/// error that demand-driven recovery would repair on next use) and reports
/// how many were skipped so tests can bound the count by the number of
/// injected faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyOutcome {
    /// Final blocks compared against the reference.
    pub checked: usize,
    /// Final blocks skipped because they are still poisoned.
    pub skipped_poisoned: usize,
}

/// A benchmark application: a task graph plus everything the experiment
/// harness needs around it.
pub trait BenchApp: TaskGraph {
    /// Benchmark name as in the paper's figures.
    fn name(&self) -> &'static str;

    /// The configuration this instance was built with.
    fn config(&self) -> AppConfig;

    /// Every task key in the graph (used by fault-plan sampling and
    /// injection-verification).
    fn all_tasks(&self) -> Vec<Key>;

    /// Candidate tasks for a fault class. `Rand` returns tasks producing
    /// *some* version, sampled across the version range.
    fn tasks_of_class(&self, class: VersionClass) -> Vec<Key>;

    /// Verify the final output against an independent sequential reference,
    /// skipping (and counting) final blocks left poisoned by unobserved
    /// after-notify faults.
    fn verify_detailed(&self) -> Result<VerifyOutcome, String>;

    /// Strict verification: every final block must match the reference.
    fn verify(&self) -> Result<(), String> {
        let o = self.verify_detailed()?;
        if o.skipped_poisoned > 0 {
            Err(format!(
                "{} final blocks still poisoned (unrecovered after-notify faults)",
                o.skipped_poisoned
            ))
        } else {
            Ok(())
        }
    }
}

/// Deterministic random byte sequence over a small alphabet (sequence
/// benchmarks).
pub fn random_sequence(len: usize, alphabet: u8, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.random_range(0..alphabet)).collect()
}

/// Deterministic random `f64` matrix entries in `(lo, hi)`, row-major.
pub fn random_matrix(n: usize, lo: f64, hi: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n * n).map(|_| rng.random_range(lo..hi)).collect()
}

/// Extract tile `(ti, tj)` of size `b×b` from a row-major `n×n` matrix.
pub fn extract_tile(m: &[f64], n: usize, b: usize, ti: usize, tj: usize) -> Vec<f64> {
    let mut tile = vec![0.0; b * b];
    for r in 0..b {
        let src = (ti * b + r) * n + tj * b;
        tile[r * b..(r + 1) * b].copy_from_slice(&m[src..src + b]);
    }
    tile
}

/// Maximum absolute element-wise difference between two equal-length
/// slices; NaN if any difference is NaN.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, nan_max)
}

/// `f64::max` that propagates NaN instead of dropping it, so a NaN in a
/// result cannot pass a tolerance check.
fn nan_max(a: f64, b: f64) -> f64 {
    if a.is_nan() || a > b {
        a
    } else {
        b
    }
}

/// Where a blocked matrix result lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// Every tile, every element (LU, FW).
    Full,
    /// The tiles `(i, j)` with `j ≤ i`, and only the lower triangle of each
    /// diagonal tile (Cholesky).
    Lower,
}

/// Compare a blocked float result with a row-major `n×n` reference, tile by
/// tile over `region`, for [`BenchApp::verify_detailed`].
///
/// `read(i, j)` returns final tile `(i, j)`. A poisoned tile is skipped and
/// counted; any other read error, or a tile whose largest difference from
/// the reference exceeds `tol`, is an error naming `app` and the tile.
pub fn verify_tiles(
    app: &str,
    cfg: AppConfig,
    reference: &[f64],
    region: Region,
    tol: f64,
    read: impl Fn(usize, usize) -> Result<Arc<Vec<f64>>, BlockError>,
) -> Result<VerifyOutcome, String> {
    let (n, b, nb) = (cfg.n, cfg.b, cfg.nb());
    let mut checked = 0;
    let mut skipped = 0;
    for ti in 0..nb {
        let tiles = if region == Region::Lower { ti + 1 } else { nb };
        for tj in 0..tiles {
            let got = match read(ti, tj) {
                Ok(g) => g,
                Err(BlockError::Poisoned { .. }) => {
                    skipped += 1;
                    continue;
                }
                Err(e) => return Err(format!("{app} tile ({ti},{tj}): {e:?}")),
            };
            let want = extract_tile(reference, n, b, ti, tj);
            let lower = region == Region::Lower && ti == tj;
            let diff = (0..b)
                .map(|r| {
                    let row = r * b..r * b + if lower { r + 1 } else { b };
                    max_abs_diff(&got[row.clone()], &want[row])
                })
                .fold(0.0, nan_max);
            // Not `diff > tol`: that comparison is false for NaN.
            if diff.is_nan() || diff > tol {
                return Err(format!("{app} tile ({ti},{tj}) differs by {diff}"));
            }
            checked += 1;
        }
    }
    Ok(VerifyOutcome {
        checked,
        skipped_poisoned: skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_roundtrip() {
        for &(tag, k, i, j) in &[
            (0u8, 0usize, 0usize, 0usize),
            (1, 5, 7, 9),
            (7, 1 << 19, (1 << 20) - 1, 12345),
        ] {
            let key = keys::encode(tag, k, i, j);
            assert_eq!(keys::decode(key), (tag, k, i, j));
        }
    }

    #[test]
    fn keys_are_distinct() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for tag in 0..3u8 {
            for k in 0..8 {
                for i in 0..8 {
                    for j in 0..8 {
                        assert!(seen.insert(keys::encode(tag, k, i, j)));
                    }
                }
            }
        }
    }

    #[test]
    fn config_validates_divisibility() {
        let c = AppConfig::new(128, 32);
        assert_eq!(c.nb(), 4);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn config_rejects_nondivisor() {
        AppConfig::new(100, 33);
    }

    #[test]
    fn random_sequence_deterministic_and_bounded() {
        let a = random_sequence(1000, 4, 7);
        let b = random_sequence(1000, 4, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|&c| c < 4));
        let c = random_sequence(1000, 4, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn extract_tile_correct() {
        let n = 4;
        let m: Vec<f64> = (0..16).map(|x| x as f64).collect();
        let t = extract_tile(&m, n, 2, 1, 0);
        assert_eq!(t, vec![8.0, 9.0, 12.0, 13.0]);
        let t = extract_tile(&m, n, 2, 0, 1);
        assert_eq!(t, vec![2.0, 3.0, 6.0, 7.0]);
    }

    #[test]
    fn verify_tiles_compares_the_live_region() {
        let cfg = AppConfig::new(4, 2);
        let reference: Vec<f64> = (0..16).map(f64::from).collect();
        // Off by one above the diagonal: in every upper tile, and in the
        // upper triangle of each diagonal tile.
        let upper = |ti: usize, tj: usize| {
            let mut t = extract_tile(&reference, 4, 2, ti, tj);
            if ti < tj {
                t.iter_mut().for_each(|x| *x += 1.0);
            } else if ti == tj {
                t[1] += 1.0;
            }
            Ok(Arc::new(t))
        };
        let o = verify_tiles("T", cfg, &reference, Region::Lower, 0.0, upper).unwrap();
        assert_eq!((o.checked, o.skipped_poisoned), (3, 0));
        let err = verify_tiles("T", cfg, &reference, Region::Full, 0.5, upper).unwrap_err();
        assert_eq!(err, "T tile (0,0) differs by 1");
        assert!(verify_tiles("T", cfg, &reference, Region::Full, 1.0, upper).is_ok());

        let poisoned = |ti: usize, tj: usize| match (ti, tj) {
            (1, 0) => Err(BlockError::Poisoned { producer: 7 }),
            _ => Ok(Arc::new(extract_tile(&reference, 4, 2, ti, tj))),
        };
        let o = verify_tiles("T", cfg, &reference, Region::Full, 0.0, poisoned).unwrap();
        assert_eq!((o.checked, o.skipped_poisoned), (3, 1));

        // A tile of NaNs fails under any tolerance, in either region.
        let nan = |ti: usize, tj: usize| match (ti, tj) {
            (1, 0) => Ok(Arc::new(vec![f64::NAN; 4])),
            _ => Ok(Arc::new(extract_tile(&reference, 4, 2, ti, tj))),
        };
        for region in [Region::Full, Region::Lower] {
            let err = verify_tiles("T", cfg, &reference, region, f64::MAX, nan).unwrap_err();
            assert_eq!(err, "T tile (1,0) differs by NaN");
        }
    }

    #[test]
    fn max_abs_diff_works() {
        assert_eq!(max_abs_diff(&[1.0, 2.0], &[1.0, 2.5]), 0.5);
        assert_eq!(max_abs_diff(&[], &[]), 0.0);
        assert!(max_abs_diff(&[f64::NAN, 2.0], &[1.0, 2.0]).is_nan());
        assert!(max_abs_diff(&[1.0, f64::NAN], &[1.0, 2.0]).is_nan());
    }
}
