//! Dense tile kernels shared by LU and Cholesky: one register-blocked
//! GEMM body, and the dispatch that compiles each kernel body twice.
//!
//! A kernel is a struct of its arguments implementing [`Kernel`], whose
//! `run` is `#[inline(always)]`. [`dispatch`] runs it through an
//! AVX2-enabled instantiation when the CPU has AVX2 and through the plain
//! one otherwise; there is one source body and no build option. Both
//! instantiations give the same bits: every output element receives the
//! same `mul` and `sub` operations in the same order, and Rust never
//! contracts `c - a * b` into a fused multiply-add.

/// Rows of `C` a register block holds.
const R: usize = 2;
/// Columns of `C` a register block holds: with `R`, eight AVX2 registers.
const W: usize = 16;

/// A tile kernel: its arguments, and a body compiled into each caller.
pub(crate) trait Kernel {
    /// Run the kernel. Implementations are `#[inline(always)]`, so the body
    /// is compiled with the target features of the function it lands in.
    fn run(self);
}

/// Run `k` with AVX2 code generation when the CPU supports it.
pub(crate) fn dispatch<K: Kernel>(k: K) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, checked on the line above.
        return unsafe { run_avx2(k) };
    }
    k.run()
}

/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_avx2<K: Kernel>(k: K) {
    k.run()
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
    fn run(self) {
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
            // Register blocks: every element of the R×W block is live,
            // i.e. under `lower` its last column is at most its first row.
            let mut col = 0;
            while col + W <= b && (!lower || col + W <= row + 1) {
                gemm_block(out, c, a, bt, b, row, col);
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
fn gemm_block(out: &mut [f64], c: &[f64], a: &[f64], bt: &[f64], b: usize, row: usize, col: usize) {
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
    for (i, acc) in acc.iter().enumerate() {
        out[(row + i) * b + col..][..W].copy_from_slice(acc);
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
    fn run(self) {
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
    fn run(self) {
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

/// Inputs for the bitwise kernel-equivalence tests in `lu` and `cholesky`.
#[cfg(test)]
pub(crate) mod testing {
    /// Tile sizes: tiny, around the register block's `R` and `W`, and the
    /// benchmark's 48 with neighbours on both sides.
    pub(crate) const SIZES: [usize; 10] = [1, 2, 3, 5, 8, 16, 17, 47, 48, 50];

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
