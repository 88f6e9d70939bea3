//! Dense tile kernels of LU and Cholesky: one register-blocked GEMM body,
//! the two triangular solves and the two diagonal factorizations, and the
//! dispatch that compiles each kernel body once per instruction set.
//!
//! A kernel is a struct of its arguments implementing [`Kernel`], whose
//! `run` is `#[inline(always)]`. [`dispatch`] runs it through an
//! AVX-512-enabled instantiation when the CPU has AVX-512F, through an
//! AVX2-enabled one when it has AVX2, and through the plain one otherwise;
//! there is one source body and no build option. Besides their target
//! features, the instantiations differ only in the height of [`Gemm`]'s
//! register block, which each takes from its instruction set's register
//! file (`BASE_ROWS`, `AVX512_ROWS`). All of them give the same bits:
//! every output element receives the same `mul` and `sub` operations in the
//! same order, and Rust never contracts `c - a * b` into a fused
//! multiply-add.

/// Rows of `C` a GEMM register block holds in the plain and AVX2
/// instantiations: with `W`, eight ymm accumulators out of 16 registers.
/// A taller block spills.
const BASE_ROWS: usize = 2;
/// Rows of `C` a GEMM register block holds in the AVX-512 instantiation:
/// sixteen zmm accumulators out of 32 registers. Each accumulator's `sub`
/// waits on its previous one, so it takes about this many independent
/// chains to keep both floating-point ports busy.
const AVX512_ROWS: usize = 8;
/// Columns of `C` a register block holds: two zmm or four ymm registers.
const W: usize = 16;

/// A tile kernel: its arguments, and a body compiled into each caller.
pub(crate) trait Kernel {
    /// Run the kernel with `R`-row GEMM register blocks (kernels without a
    /// row block ignore `R`). Implementations are `#[inline(always)]`, so
    /// the body is compiled with the target features of the function it
    /// lands in.
    fn run<const R: usize>(self);
}

/// Run `k` through the widest instantiation the CPU supports.
pub(crate) fn dispatch<K: Kernel>(k: K) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the CPU supports AVX-512F, checked on the line above.
            return unsafe { run_avx512(k) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, checked on the line above.
            return unsafe { run_avx2(k) };
        }
    }
    k.run::<BASE_ROWS>()
}

/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_avx2<K: Kernel>(k: K) {
    k.run::<BASE_ROWS>()
}

/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn run_avx512<K: Kernel>(k: K) {
    k.run::<AVX512_ROWS>()
}

/// `out = c − a · bt` over `b×b` row-major tiles, accumulated one `t` at a
/// time: element `(row, col)` starts at `c[row][col]` and, for `t = 0..b`
/// in order, has `a[row][t] * bt[t][col]` subtracted.
///
/// With `lower`, only elements with `col ≤ row` are computed; the others
/// are copied from `c` unchanged.
pub(crate) struct Gemm<'a> {
    pub(crate) out: &'a mut [f64],
    pub(crate) c: &'a [f64],
    pub(crate) a: &'a [f64],
    pub(crate) bt: &'a [f64],
    pub(crate) b: usize,
    pub(crate) lower: bool,
}

impl Kernel for Gemm<'_> {
    #[inline(always)]
    fn run<const R: usize>(self) {
        let Gemm {
            out,
            c,
            a,
            bt,
            b,
            lower,
        } = self;
        let n = b * b;
        let (out, c, a, bt) = (&mut out[..n], &c[..n], &a[..n], &bt[..n]);
        let mut row = 0;
        while row + R <= b {
            // Register blocks up to the last one holding a live element:
            // under `lower`, its first column is at most its last row.
            let mut col = 0;
            while col + W <= b && (!lower || col < row + R) {
                let acc = gemm_block::<R>(c, a, bt, b, row, col);
                store_block(out, c, &acc, b, row, col, lower);
                col += W;
            }
            for r in row..row + R {
                gemm_row_tail(out, c, a, bt, b, r, col, lower);
            }
            row += R;
        }
        for r in row..b {
            gemm_row_tail(out, c, a, bt, b, r, 0, lower);
        }
    }
}

/// One R×W block of [`Gemm`], held in registers across the whole `t` loop.
#[inline(always)]
fn gemm_block<const R: usize>(
    c: &[f64],
    a: &[f64],
    bt: &[f64],
    b: usize,
    row: usize,
    col: usize,
) -> [[f64; W]; R] {
    let arows: [&[f64]; R] = std::array::from_fn(|i| &a[(row + i) * b..][..b]);
    let mut acc = [[0.0f64; W]; R];
    for (i, acc) in acc.iter_mut().enumerate() {
        acc.copy_from_slice(&c[(row + i) * b + col..][..W]);
    }
    for (t, brow) in bt.chunks_exact(b).enumerate() {
        let brow: &[f64; W] = brow[col..col + W].try_into().expect("W columns");
        for (acc, arow) in acc.iter_mut().zip(arows) {
            let l = arow[t];
            for (x, &u) in acc.iter_mut().zip(brow) {
                *x -= l * u;
            }
        }
    }
    acc
}

/// Store a block from [`gemm_block`] at `(row, col)`. Under `lower`, a
/// block straddling the diagonal stores only its live elements; the others
/// are copied from `c`. The store is kept out of `gemm_block`: there, LLVM
/// kept the 8-row block in memory (with the `lower` branch) or reloaded its
/// row pointers and bounds on every `t` (without it), and `lu_tiles` ran
/// 6.7 % slower on a 2-vCPU AVX-512 Xeon.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn store_block<const R: usize>(
    out: &mut [f64],
    c: &[f64],
    acc: &[[f64; W]; R],
    b: usize,
    row: usize,
    col: usize,
    lower: bool,
) {
    for (i, acc) in acc.iter().enumerate() {
        let at = (row + i) * b + col;
        // Under `lower`, columns `col..=row + i` are on or left of the diagonal.
        let live = if lower {
            (row + i + 1).saturating_sub(col).min(W)
        } else {
            W
        };
        if live == W {
            out[at..][..W].copy_from_slice(acc);
        } else {
            out[at..][..live].copy_from_slice(&acc[..live]);
            out[at + live..][..W - live].copy_from_slice(&c[at + live..][..W - live]);
        }
    }
}

/// Row `r` of [`Gemm`] from column `from` on: the live columns accumulate
/// in place in `out`, one `t` at a time; under `lower` the columns right of
/// the diagonal are copied from `c`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_row_tail(
    out: &mut [f64],
    c: &[f64],
    a: &[f64],
    bt: &[f64],
    b: usize,
    r: usize,
    from: usize,
    lower: bool,
) {
    let end = if lower { r + 1 } else { b };
    let (out, c) = (&mut out[r * b..][..b], &c[r * b..][..b]);
    out[from..].copy_from_slice(&c[from..]);
    if from >= end {
        return;
    }
    let live = &mut out[from..end];
    for (t, brow) in bt.chunks_exact(b).enumerate() {
        let l = a[r * b + t];
        for (x, &u) in live.iter_mut().zip(&brow[from..end]) {
            *x -= l * u;
        }
    }
}

/// Right solve `X · U = A` in place, `U` upper triangular (its strict lower
/// part is never read). Element `(row, v)` has `x[row][t] * u[t][v]`
/// subtracted for `t = 0..v` in order and is then divided by `u[v][v]`, as
/// in the column-by-column elimination of LU's L-panel. The columns go `W`
/// at a time: the columns left of a chunk are final, so each row first
/// accumulates their products into the chunk in registers; then the chunk's
/// own triangle is eliminated column by column across all rows, which keeps
/// the rows' divisions independent of each other.
///
/// Cholesky's panel solve `X · Lᵀ = A` is this kernel over `u = Lᵀ`; its
/// products were written `l * x`, which gives the same bits, since IEEE
/// multiplication is commutative.
pub(crate) struct SolveUpper<'a> {
    pub(crate) a: &'a mut [f64],
    pub(crate) u: &'a [f64],
    pub(crate) b: usize,
}

impl Kernel for SolveUpper<'_> {
    #[inline(always)]
    fn run<const R: usize>(self) {
        let SolveUpper { a, u, b } = self;
        let n = b * b;
        let (a, u) = (&mut a[..n], &u[..n]);
        for c in (0..b).step_by(W) {
            let end = b.min(c + W);
            for row in a.chunks_exact_mut(b) {
                let (done, chunk) = row[..end].split_at_mut(c);
                if let Ok(chunk) = <&mut [f64; W]>::try_from(&mut *chunk) {
                    let mut acc = *chunk;
                    for (&x, urow) in done.iter().zip(u.chunks_exact(b)) {
                        for (y, &d) in acc.iter_mut().zip(&urow[c..end]) {
                            *y -= x * d;
                        }
                    }
                    *chunk = acc;
                } else {
                    for (&x, urow) in done.iter().zip(u.chunks_exact(b)) {
                        for (y, &d) in chunk.iter_mut().zip(&urow[c..end]) {
                            *y -= x * d;
                        }
                    }
                }
            }
            for t in c..end {
                let urow = &u[t * b..][..end];
                for row in a.chunks_exact_mut(b) {
                    row[t] /= urow[t];
                    let (done, rest) = row[..end].split_at_mut(t + 1);
                    let x = done[t];
                    for (y, &d) in rest.iter_mut().zip(&urow[t + 1..]) {
                        *y -= x * d;
                    }
                }
            }
        }
    }
}

/// Left solve `L · X = A` in place, `L` unit lower triangular (its diagonal
/// and upper part are never read): element `(row, v)` has
/// `l[row][t] * x[t][v]` subtracted for `t = 0..row` in order. Columns are
/// independent, so each chunk of `W` columns of a row is held in registers
/// across its whole `t` loop.
pub(crate) struct SolveUnitLower<'a> {
    pub(crate) a: &'a mut [f64],
    pub(crate) l: &'a [f64],
    pub(crate) b: usize,
}

impl Kernel for SolveUnitLower<'_> {
    #[inline(always)]
    fn run<const R: usize>(self) {
        let SolveUnitLower { a, l, b } = self;
        let n = b * b;
        let (a, l) = (&mut a[..n], &l[..n]);
        let chunks = b / W * W;
        for row in 1..b {
            let (above, cur) = a.split_at_mut(row * b);
            let (cur, lrow) = (&mut cur[..b], &l[row * b..][..row]);
            for col in (0..chunks).step_by(W) {
                let mut acc: [f64; W] = cur[col..col + W].try_into().expect("W columns");
                for (&lv, xrow) in lrow.iter().zip(above.chunks_exact(b)) {
                    for (y, &x) in acc.iter_mut().zip(&xrow[col..col + W]) {
                        *y -= lv * x;
                    }
                }
                cur[col..col + W].copy_from_slice(&acc);
            }
            for (&lv, xrow) in lrow.iter().zip(above.chunks_exact(b)) {
                for (y, &x) in cur[chunks..].iter_mut().zip(&xrow[chunks..]) {
                    *y -= lv * x;
                }
            }
        }
    }
}

/// In-place unpivoted LU of a `b×b` tile (LU's diagonal task): for each
/// `t` in order, every row below `t` divides its column `t` by the pivot and
/// then has that multiple of row `t` subtracted from its columns right of
/// `t`. Each row is a slice apart from row `t`, so the update vectorizes
/// without alias checks.
pub(crate) struct Getrf<'a> {
    pub(crate) a: &'a mut [f64],
    pub(crate) b: usize,
}

impl Kernel for Getrf<'_> {
    #[inline(always)]
    fn run<const R: usize>(self) {
        let Getrf { a, b } = self;
        let a = &mut a[..b * b];
        for t in 0..b {
            let (top, below) = a.split_at_mut((t + 1) * b);
            let (piv, trow) = top[t * b + t..].split_first().expect("t < b");
            for urow in below.chunks_exact_mut(b) {
                urow[t] /= piv;
                let l = urow[t];
                for (x, &y) in urow[t + 1..].iter_mut().zip(trow) {
                    *x -= l * y;
                }
            }
        }
    }
}

/// In-place lower Cholesky of a `b×b` tile, its upper part left untouched
/// (Cholesky's diagonal task): for each `t` in order, the diagonal takes its
/// square root, column `t` below it is divided by that, and element
/// `(u, v)`, `t < v ≤ u`, has `a[u][t] * a[v][t]` subtracted. Column `t` is
/// copied out once per step, so the update reads it contiguously.
pub(crate) struct Potrf<'a> {
    pub(crate) a: &'a mut [f64],
    pub(crate) b: usize,
}

impl Kernel for Potrf<'_> {
    #[inline(always)]
    fn run<const R: usize>(self) {
        let Potrf { a, b } = self;
        let a = &mut a[..b * b];
        let mut col = vec![0.0; b];
        for t in 0..b {
            a[t * b + t] = a[t * b + t].sqrt();
            let d = a[t * b + t];
            for (u, x) in col.iter_mut().enumerate().skip(t + 1) {
                a[u * b + t] /= d;
                *x = a[u * b + t];
            }
            for u in t + 1..b {
                let l = col[u];
                let live = &mut a[u * b + t + 1..][..u - t];
                for (x, &y) in live.iter_mut().zip(&col[t + 1..=u]) {
                    *x -= l * y;
                }
            }
        }
    }
}

/// The transpose of a `b×b` row-major tile.
pub(crate) fn transpose(m: &[f64], b: usize) -> Vec<f64> {
    let mut t = vec![0.0; b * b];
    for (r, mrow) in m[..b * b].chunks_exact(b).enumerate() {
        for (c, &x) in mrow.iter().enumerate() {
            t[c * b + r] = x;
        }
    }
    t
}

/// Inputs and instantiations for the bitwise kernel-equivalence tests in
/// `lu` and `cholesky`.
#[cfg(test)]
pub(crate) mod testing {
    use super::{Kernel, AVX512_ROWS, BASE_ROWS};

    /// Tile sizes: tiny, each register block's height and width with their
    /// neighbours (`R` ∈ {2, 8}, `W` = 16), and the benchmark's 48 with
    /// neighbours on both sides.
    pub(crate) const SIZES: [usize; 13] = [1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 47, 48, 50];

    /// One compiled instance of the kernel bodies: the plain one at each
    /// row count an instantiation uses, then each instruction-set one.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(crate) enum Arm {
        Portable,
        PortableAvx512Rows,
        Avx2,
        Avx512,
    }

    impl Arm {
        /// Every arm, the ones this CPU lacks included.
        pub(crate) const ALL: [Arm; 4] = [
            Arm::Portable,
            Arm::PortableAvx512Rows,
            Arm::Avx2,
            Arm::Avx512,
        ];

        /// Whether this CPU can run the arm.
        pub(crate) fn supported(self) -> bool {
            match self {
                Arm::Portable | Arm::PortableAvx512Rows => true,
                #[cfg(target_arch = "x86_64")]
                Arm::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
                #[cfg(target_arch = "x86_64")]
                Arm::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
                #[cfg(not(target_arch = "x86_64"))]
                Arm::Avx2 | Arm::Avx512 => false,
            }
        }

        /// The arms this CPU can run; each one it cannot is named on stderr.
        pub(crate) fn available() -> Vec<Arm> {
            Arm::ALL
                .into_iter()
                .filter(|arm| {
                    let ok = arm.supported();
                    if !ok {
                        eprintln!("skipping the {arm:?} arm: this CPU lacks it");
                    }
                    ok
                })
                .collect()
        }

        /// Run `k` through this arm. Panics if the CPU cannot run it.
        pub(crate) fn run<K: Kernel>(self, k: K) {
            assert!(self.supported(), "the {self:?} arm is not supported here");
            match self {
                Arm::Portable => k.run::<BASE_ROWS>(),
                Arm::PortableAvx512Rows => k.run::<AVX512_ROWS>(),
                // SAFETY: `supported` checked above that the CPU has AVX2.
                #[cfg(target_arch = "x86_64")]
                Arm::Avx2 => unsafe { super::run_avx2(k) },
                // SAFETY: `supported` checked above that the CPU has AVX-512F.
                #[cfg(target_arch = "x86_64")]
                Arm::Avx512 => unsafe { super::run_avx512(k) },
                #[cfg(not(target_arch = "x86_64"))]
                Arm::Avx2 | Arm::Avx512 => unreachable!("not supported"),
            }
        }
    }

    /// A seeded random `b×b` tile in `[-1, 1)` with `b` added to its
    /// diagonal, so that solves against it stay finite.
    pub(crate) fn random_tile(b: usize, seed: u64) -> Vec<f64> {
        let mut m = crate::common::random_matrix(b, -1.0, 1.0, seed);
        for d in 0..b {
            m[d * b + d] += b as f64;
        }
        m
    }

    /// Panic, naming `what` and the first differing element, unless `got`
    /// and `want` hold the same bits.
    #[track_caller]
    pub(crate) fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: tile length");
        if let Some(i) = (0..got.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
            panic!(
                "{what}: element {i} is {:e}, the oracle's {:e}",
                got[i], want[i]
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{random_tile, Arm};
    use super::*;
    use std::time::{Duration, Instant};

    /// The rate of each kernel through each instantiation `dispatch` can
    /// pick, at the benchmark's b = 48, in G multiply-subtract updates per
    /// second (divisions and square roots are not counted): the median over
    /// rounds that interleave every kernel and instantiation. Run with
    /// `cargo test --release -p ft-apps -- --ignored kernel_rates --nocapture`.
    #[test]
    #[ignore = "timing report: run it in release with --nocapture"]
    fn kernel_rates() {
        const ROUNDS: usize = 31;
        const CALLS: usize = 64;
        let b = 48;
        let arms: Vec<Arm> = Arm::available()
            .into_iter()
            .filter(|&arm| arm != Arm::PortableAvx512Rows)
            .collect();
        let (c, x, y) = (random_tile(b, 1), random_tile(b, 2), random_tile(b, 3));
        // Symmetric and diagonally dominant, so POTRF's square roots are real.
        let spd: Vec<f64> = (0..b * b)
            .map(|i| c[(i / b).max(i % b) * b + (i / b).min(i % b)])
            .collect();
        let n = b as f64;
        type Run<'a> = &'a dyn Fn(Arm, &mut [f64]);
        let kernels: [(&str, f64, &[f64], Run); 6] = [
            ("GEMM", n * n * n, &c, &|arm, out| {
                arm.run(Gemm {
                    out,
                    c: &c,
                    a: &x,
                    bt: &y,
                    b,
                    lower: false,
                })
            }),
            ("SYRK", n * n * (n + 1.0) / 2.0, &c, &|arm, out| {
                arm.run(Gemm {
                    out,
                    c: &c,
                    a: &x,
                    bt: &y,
                    b,
                    lower: true,
                })
            }),
            ("SolveUpper", n * n * (n - 1.0) / 2.0, &c, &|arm, a| {
                arm.run(SolveUpper { a, u: &y, b })
            }),
            ("SolveUnitLower", n * n * (n - 1.0) / 2.0, &c, &|arm, a| {
                arm.run(SolveUnitLower { a, l: &y, b })
            }),
            (
                "GETRF",
                (n - 1.0) * n * (2.0 * n - 1.0) / 6.0,
                &c,
                &|arm, a| arm.run(Getrf { a, b }),
            ),
            ("POTRF", (n - 1.0) * n * (n + 1.0) / 6.0, &spd, &|arm, a| {
                arm.run(Potrf { a, b })
            }),
        ];

        let mut secs = vec![vec![Vec::with_capacity(ROUNDS); arms.len()]; kernels.len()];
        let mut tile = vec![0.0; b * b];
        for _ in 0..ROUNDS {
            for ((_, _, input, run), per_arm) in kernels.iter().zip(&mut secs) {
                for (&arm, samples) in arms.iter().zip(per_arm) {
                    let mut total = Duration::ZERO;
                    for _ in 0..CALLS {
                        tile.copy_from_slice(input);
                        let start = Instant::now();
                        run(arm, &mut tile);
                        total += start.elapsed();
                    }
                    samples.push(total.as_secs_f64());
                }
            }
        }

        println!("G updates/s at b = {b}, median of {ROUNDS} interleaved rounds of {CALLS} calls");
        print!("{:<16}", "kernel");
        for arm in &arms {
            print!("{:>10}", format!("{arm:?}"));
        }
        println!();
        for ((name, updates, _, _), per_arm) in kernels.iter().zip(&mut secs) {
            print!("{name:<16}");
            for samples in per_arm {
                samples.sort_by(f64::total_cmp);
                let rate = updates * CALLS as f64 / samples[ROUNDS / 2] / 1e9;
                print!("{rate:>10.2}");
            }
            println!();
        }
    }
}
