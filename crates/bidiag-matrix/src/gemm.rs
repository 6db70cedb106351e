//! Packed, cache-blocked GEMM on column-major views.
//!
//! The Level-3 building blocks of the workspace.  Among the tile kernels of
//! `bidiag-kernels` only `TSMLQ` is built on them (its two `r x IB` panel
//! products); the QR-side kernels read their operands in place through the
//! fused chunk kernel of `bidiag_kernels::wy` and never pack.  All three
//! variants compute `C += alpha * op(A) * op(B)` in place:
//!
//! * [`gemm_nn`] — `C += alpha * A * B`,
//! * [`gemm_tn`] — `C += alpha * A^T * B` (no transpose is formed),
//! * [`gemm_nt`] — `C += alpha * A * B^T` (no transpose is formed).
//!
//! Two implementations live behind one dispatching API:
//!
//! * The **unpacked** path streams the operands in place: the innermost
//!   loop always runs down a *contiguous* column slice, and the middle loop
//!   is unrolled by four so each pass over an output column folds four
//!   rank-one (or dot-product) contributions.  No scratch, no copies — the
//!   right trade below the crossover, where the operands fit in cache and
//!   packing would cost more than it saves.
//! * The **packed** path is the classic BLIS/GotoBLAS three-level blocked
//!   algorithm: `KC x NC` panels of `op(B)` and `MC x KC` panels of `op(A)`
//!   are packed into contiguous, microkernel-ordered buffers (reused across
//!   calls via [`GemmScratch`]), and the `MR x NR` register microkernel from
//!   [`crate::simd`] (broadcast-FMA on AVX2, rank-1 scalar fallback; backend
//!   fetched once per call) runs over the packed panels.
//!   Packing makes every microkernel read stride-1 regardless of the
//!   transpose variant or the leading dimension, so the O(mnk) inner loop
//!   never touches strided memory; the O(mk + kn) packing cost is amortized
//!   `NC`-fold (A panels) and `MC`-fold (B panels).
//!
//! The dispatch crossover ([`PACK_CROSSOVER_MNK`]) was picked by the
//! packed-vs-unpacked sweep in the `kernels` bench (`--gemm-sweep`) plus a
//! thin-shape sweep: on the reference host the packed path wins from `8^3`
//! multiply-adds up — including `IB`-thin panel products like `TSMLQ`'s
//! (1.2x–2.8x) — so only tiny products (where the pack setup dominates)
//! take the unpacked path.

use crate::simd::{self, SimdBackend};
use crate::view::{MatrixView, MatrixViewMut};

pub use crate::simd::{MR, NR};
/// Cache-block depth: `KC` packed rows of `op(B)` / columns of `op(A)`.
const KC: usize = 256;
/// Cache-block height of the packed `op(A)` panel (sized so one
/// `MC x KC` A-panel stays resident in L2 while the macro-kernel sweeps it).
const MC: usize = 128;
/// Cache-block width of the packed `op(B)` panel.
const NC: usize = 512;

/// Dispatch crossover in multiply-adds (`m * n * k`): below this the
/// unpacked in-place path wins (no packing traffic), above it the packed
/// path wins (stride-1 microkernel reads).  Picked by the `--gemm-sweep`
/// mode of the `kernels` bench plus a thin-shape sweep on the reference
/// host: the packed path wins from `8^3` up — including `IB`-thin panel
/// products (1.2x–2.8x) — and only loses on tiny products (`5^3` ran at
/// 0.7x) where the pack setup dominates (see BENCHMARKING.md).
pub const PACK_CROSSOVER_MNK: usize = 8 * 8 * 8;

/// Reusable pack buffers of the packed GEMM path.  One long-lived scratch
/// per caller makes every call allocation-free in steady state; buffers
/// grow to `(MC + MR) * KC` and `(NC + NR) * KC` doubles and are then
/// reused.
#[derive(Default, Debug)]
pub struct GemmScratch {
    apack: Vec<f64>,
    bpack: Vec<f64>,
}

impl GemmScratch {
    /// Empty scratch; the pack buffers grow on first packed call.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Dot product with four independent partial sums, so the reduction has no
/// serial dependency chain and the compiler can keep each lane in one SIMD
/// register.  The summation order differs from a plain left-to-right dot —
/// callers on bit-exactness-critical paths (reflector generation) must use
/// an order-exact dot instead.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; 4];
    let a4 = a.chunks_exact(4);
    let b4 = b.chunks_exact(4);
    let (ra, rb) = (a4.remainder(), b4.remainder());
    for (xa, xb) in a4.zip(b4) {
        for t in 0..4 {
            acc[t] += xa[t] * xb[t];
        }
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (x, y) in ra.iter().zip(rb) {
        s += x * y;
    }
    s
}

/// Four simultaneous dot products of `v` against `c0..c3`, each with
/// four-lane partial sums (see [`dot`]).  This is the inner kernel of the
/// transposed panel products `W = V^T C`: one pass over `v` feeds four
/// output columns.
#[inline]
pub fn dot4(v: &[f64], c0: &[f64], c1: &[f64], c2: &[f64], c3: &[f64]) -> (f64, f64, f64, f64) {
    let n = v.len();
    debug_assert!(c0.len() == n && c1.len() == n && c2.len() == n && c3.len() == n);
    let mut a0 = [0.0f64; 4];
    let mut a1 = [0.0f64; 4];
    let mut a2 = [0.0f64; 4];
    let mut a3 = [0.0f64; 4];
    let v4 = v.chunks_exact(4);
    let n4 = v.len() - v4.remainder().len();
    for (i4, xv) in v4.enumerate() {
        let x0 = &c0[i4 * 4..i4 * 4 + 4];
        let x1 = &c1[i4 * 4..i4 * 4 + 4];
        let x2 = &c2[i4 * 4..i4 * 4 + 4];
        let x3 = &c3[i4 * 4..i4 * 4 + 4];
        for t in 0..4 {
            let vi = xv[t];
            a0[t] += vi * x0[t];
            a1[t] += vi * x1[t];
            a2[t] += vi * x2[t];
            a3[t] += vi * x3[t];
        }
    }
    let mut s0 = (a0[0] + a0[1]) + (a0[2] + a0[3]);
    let mut s1 = (a1[0] + a1[1]) + (a1[2] + a1[3]);
    let mut s2 = (a2[0] + a2[1]) + (a2[2] + a2[3]);
    let mut s3 = (a3[0] + a3[1]) + (a3[2] + a3[3]);
    for i in n4..n {
        let vi = v[i];
        s0 += vi * c0[i];
        s1 += vi * c1[i];
        s2 += vi * c2[i];
        s3 += vi * c3[i];
    }
    (s0, s1, s2, s3)
}

/// `C += alpha * A * B` with `A: m x k`, `B: k x n`, `C: m x n`.
///
/// Dispatches between the unpacked and packed paths (see the module docs);
/// an internal scratch is used above the crossover.  Callers with a
/// long-lived [`GemmScratch`] should prefer [`gemm_nn_scratch`].
pub fn gemm_nn(c: &mut MatrixViewMut<'_>, alpha: f64, a: MatrixView<'_>, b: MatrixView<'_>) {
    gemm_nn_scratch(c, alpha, a, b, &mut GemmScratch::new());
}

/// `C += alpha * A^T * B` with `A: m x p`, `B: m x n`, `C: p x n`.
/// See [`gemm_nn`] for the dispatch behaviour.
pub fn gemm_tn(c: &mut MatrixViewMut<'_>, alpha: f64, a: MatrixView<'_>, b: MatrixView<'_>) {
    gemm_tn_scratch(c, alpha, a, b, &mut GemmScratch::new());
}

/// `C += alpha * A * B^T` with `A: m x k`, `B: n x k`, `C: m x n`.
/// See [`gemm_nn`] for the dispatch behaviour.
pub fn gemm_nt(c: &mut MatrixViewMut<'_>, alpha: f64, a: MatrixView<'_>, b: MatrixView<'_>) {
    gemm_nt_scratch(c, alpha, a, b, &mut GemmScratch::new());
}

/// [`gemm_nn`] with a caller-provided pack scratch (allocation-free in
/// steady state above the crossover).
pub fn gemm_nn_scratch(
    c: &mut MatrixViewMut<'_>,
    alpha: f64,
    a: MatrixView<'_>,
    b: MatrixView<'_>,
    scratch: &mut GemmScratch,
) {
    let (m, n, k) = (c.rows(), c.cols(), a.cols());
    assert_eq!(a.rows(), m, "gemm_nn: A rows mismatch");
    assert_eq!(b.rows(), k, "gemm_nn: B rows mismatch");
    assert_eq!(b.cols(), n, "gemm_nn: B cols mismatch");
    if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
        return;
    }
    if m * n * k < PACK_CROSSOVER_MNK {
        gemm_nn_unpacked(c, alpha, a, b);
    } else {
        gemm_nn_packed(c, alpha, a, b, scratch);
    }
}

/// [`gemm_tn`] with a caller-provided pack scratch.
pub fn gemm_tn_scratch(
    c: &mut MatrixViewMut<'_>,
    alpha: f64,
    a: MatrixView<'_>,
    b: MatrixView<'_>,
    scratch: &mut GemmScratch,
) {
    let (p, n, m) = (c.rows(), c.cols(), a.rows());
    assert_eq!(a.cols(), p, "gemm_tn: A cols mismatch");
    assert_eq!(b.rows(), m, "gemm_tn: B rows mismatch");
    assert_eq!(b.cols(), n, "gemm_tn: B cols mismatch");
    if p == 0 || n == 0 || alpha == 0.0 {
        return;
    }
    if p * n * m < PACK_CROSSOVER_MNK {
        gemm_tn_unpacked(c, alpha, a, b);
    } else {
        gemm_tn_packed(c, alpha, a, b, scratch);
    }
}

/// [`gemm_nt`] with a caller-provided pack scratch.
pub fn gemm_nt_scratch(
    c: &mut MatrixViewMut<'_>,
    alpha: f64,
    a: MatrixView<'_>,
    b: MatrixView<'_>,
    scratch: &mut GemmScratch,
) {
    let (m, n, k) = (c.rows(), c.cols(), a.cols());
    assert_eq!(a.rows(), m, "gemm_nt: A rows mismatch");
    assert_eq!(b.rows(), n, "gemm_nt: B rows mismatch");
    assert_eq!(b.cols(), k, "gemm_nt: B cols mismatch");
    if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
        return;
    }
    if m * n * k < PACK_CROSSOVER_MNK {
        gemm_nt_unpacked(c, alpha, a, b);
    } else {
        gemm_nt_packed(c, alpha, a, b, scratch);
    }
}

// ---------------------------------------------------------------------------
// Unpacked path (small-size fallback): in-place column streaming.
// ---------------------------------------------------------------------------

/// Unpacked `C += alpha * A * B` (exposed so the bench sweep and the
/// property tests can pin each path independently of the crossover).
pub fn gemm_nn_unpacked(
    c: &mut MatrixViewMut<'_>,
    alpha: f64,
    a: MatrixView<'_>,
    b: MatrixView<'_>,
) {
    let k = a.cols();
    for (j, ccol) in c.cols_mut().enumerate() {
        let bcol = b.col(j);
        rank_k_column(ccol, alpha, &a, |kk| bcol[kk], k);
    }
}

/// Unpacked `C += alpha * A^T * B` (see [`gemm_nn_unpacked`]).
pub fn gemm_tn_unpacked(
    c: &mut MatrixViewMut<'_>,
    alpha: f64,
    a: MatrixView<'_>,
    b: MatrixView<'_>,
) {
    let p = c.rows();
    for (j, ccol) in c.cols_mut().enumerate() {
        let bcol = b.col(j);
        let mut i = 0;
        while i + 4 <= p {
            let (s0, s1, s2, s3) = dot4(bcol, a.col(i), a.col(i + 1), a.col(i + 2), a.col(i + 3));
            ccol[i] += alpha * s0;
            ccol[i + 1] += alpha * s1;
            ccol[i + 2] += alpha * s2;
            ccol[i + 3] += alpha * s3;
            i += 4;
        }
        while i < p {
            ccol[i] += alpha * dot(a.col(i), bcol);
            i += 1;
        }
    }
}

/// Unpacked `C += alpha * A * B^T` (see [`gemm_nn_unpacked`]).
pub fn gemm_nt_unpacked(
    c: &mut MatrixViewMut<'_>,
    alpha: f64,
    a: MatrixView<'_>,
    b: MatrixView<'_>,
) {
    let k = a.cols();
    for (j, ccol) in c.cols_mut().enumerate() {
        rank_k_column(ccol, alpha, &a, |kk| b.get(j, kk), k);
    }
}

/// `ccol += alpha * sum_kk a[:, kk] * scale(kk)`, the shared rank-k update
/// of one output column, unrolled four columns of `A` at a time.
#[inline]
fn rank_k_column(
    ccol: &mut [f64],
    alpha: f64,
    a: &MatrixView<'_>,
    scale: impl Fn(usize) -> f64,
    k: usize,
) {
    let m = ccol.len();
    let mut kk = 0;
    while kk + 4 <= k {
        let s0 = alpha * scale(kk);
        let s1 = alpha * scale(kk + 1);
        let s2 = alpha * scale(kk + 2);
        let s3 = alpha * scale(kk + 3);
        let a0 = a.col(kk);
        let a1 = a.col(kk + 1);
        let a2 = a.col(kk + 2);
        let a3 = a.col(kk + 3);
        for i in 0..m {
            ccol[i] += a0[i] * s0 + a1[i] * s1 + a2[i] * s2 + a3[i] * s3;
        }
        kk += 4;
    }
    while kk < k {
        let s = alpha * scale(kk);
        let acol = a.col(kk);
        for i in 0..m {
            ccol[i] += acol[i] * s;
        }
        kk += 1;
    }
}

// ---------------------------------------------------------------------------
// Packed path: three-level cache blocking around an MR x NR microkernel.
// ---------------------------------------------------------------------------

/// Packed `C += alpha * A * B` (exposed for the bench sweep and tests; the
/// dispatching [`gemm_nn`] is the normal entry point).
pub fn gemm_nn_packed(
    c: &mut MatrixViewMut<'_>,
    alpha: f64,
    a: MatrixView<'_>,
    b: MatrixView<'_>,
    scratch: &mut GemmScratch,
) {
    let k = a.cols();
    packed_loop(
        c,
        alpha,
        k,
        scratch,
        |dst, ic, pc, mc, kc| {
            // op(A)[i, l] = A[ic + i, pc + l]: A columns are contiguous in i.
            pack_a_panels(dst, mc, kc, |i0, mr, l, out| {
                let col = &a.col(pc + l)[ic + i0..ic + i0 + mr];
                out[..mr].copy_from_slice(col);
            })
        },
        |dst, pc, jc, kc, nc| {
            // op(B)[l, j] = B[pc + l, jc + j]: B columns are contiguous in l.
            pack_b_panels(dst, kc, nc, |j, l_range, stride, out| {
                let col = &b.col(jc + j)[pc..pc + l_range];
                for (l, &x) in col.iter().enumerate() {
                    out[l * stride] = x;
                }
            })
        },
    );
}

/// Packed `C += alpha * A^T * B` (see [`gemm_nn_packed`]).
pub fn gemm_tn_packed(
    c: &mut MatrixViewMut<'_>,
    alpha: f64,
    a: MatrixView<'_>,
    b: MatrixView<'_>,
    scratch: &mut GemmScratch,
) {
    let k = a.rows();
    packed_loop(
        c,
        alpha,
        k,
        scratch,
        |dst, ic, pc, mc, kc| {
            // op(A)[i, l] = A[pc + l, ic + i]: A columns are contiguous in l,
            // so each packed row i is one strided scatter of a contiguous read.
            pack_a_cols(dst, mc, kc, |i, l_range, stride, out| {
                let col = &a.col(ic + i)[pc..pc + l_range];
                for (l, &x) in col.iter().enumerate() {
                    out[l * stride] = x;
                }
            })
        },
        |dst, pc, jc, kc, nc| {
            pack_b_panels(dst, kc, nc, |j, l_range, stride, out| {
                let col = &b.col(jc + j)[pc..pc + l_range];
                for (l, &x) in col.iter().enumerate() {
                    out[l * stride] = x;
                }
            })
        },
    );
}

/// Packed `C += alpha * A * B^T` (see [`gemm_nn_packed`]).
pub fn gemm_nt_packed(
    c: &mut MatrixViewMut<'_>,
    alpha: f64,
    a: MatrixView<'_>,
    b: MatrixView<'_>,
    scratch: &mut GemmScratch,
) {
    let k = a.cols();
    packed_loop(
        c,
        alpha,
        k,
        scratch,
        |dst, ic, pc, mc, kc| {
            pack_a_panels(dst, mc, kc, |i0, mr, l, out| {
                let col = &a.col(pc + l)[ic + i0..ic + i0 + mr];
                out[..mr].copy_from_slice(col);
            })
        },
        |dst, pc, jc, kc, nc| {
            // op(B)[l, j] = B[jc + j, pc + l]: B columns are contiguous in j.
            pack_b_rows(dst, kc, nc, |l, j0, nr, out| {
                let col = &b.col(pc + l)[jc + j0..jc + j0 + nr];
                out[..nr].copy_from_slice(col);
            })
        },
    );
}

/// Pack `op(A)` (an `mc x kc` block) into MR-row panels: panel `pi` stores,
/// for each depth `l`, the `MR` rows `pi*MR..` (zero-padded past `mc`).
/// `fill(i0, mr, l, out)` writes the `mr` valid rows of depth `l`.
fn pack_a_panels(
    dst: &mut [f64],
    mc: usize,
    kc: usize,
    mut fill: impl FnMut(usize, usize, usize, &mut [f64]),
) {
    let npanels = mc.div_ceil(MR);
    for pi in 0..npanels {
        let i0 = pi * MR;
        let mr = MR.min(mc - i0);
        let base = pi * MR * kc;
        for l in 0..kc {
            let out = &mut dst[base + l * MR..base + (l + 1) * MR];
            fill(i0, mr, l, out);
            out[mr..].fill(0.0);
        }
    }
}

/// Pack `op(A)` one *column of the packed panel* at a time: for each output
/// row `i` of the block, `fill(i, kc, MR, out)` scatters the `kc` depths of
/// row `i` into `out` with stride `MR` (used when `op(A)` is contiguous
/// along the depth axis, i.e. the transposed variant).
fn pack_a_cols(
    dst: &mut [f64],
    mc: usize,
    kc: usize,
    mut fill: impl FnMut(usize, usize, usize, &mut [f64]),
) {
    let npanels = mc.div_ceil(MR);
    for pi in 0..npanels {
        let i0 = pi * MR;
        let mr = MR.min(mc - i0);
        let base = pi * MR * kc;
        let panel = &mut dst[base..base + MR * kc];
        for ii in 0..MR {
            if ii < mr {
                fill(i0 + ii, kc, MR, &mut panel[ii..]);
            } else {
                for l in 0..kc {
                    panel[l * MR + ii] = 0.0;
                }
            }
        }
    }
}

/// Pack `op(B)` (a `kc x nc` block) into NR-column panels where `op(B)` is
/// contiguous along the depth axis: `fill(j, kc, NR, out)` scatters column
/// `j`'s `kc` depths with stride `NR`.
fn pack_b_panels(
    dst: &mut [f64],
    kc: usize,
    nc: usize,
    mut fill: impl FnMut(usize, usize, usize, &mut [f64]),
) {
    let npanels = nc.div_ceil(NR);
    for pj in 0..npanels {
        let j0 = pj * NR;
        let nr = NR.min(nc - j0);
        let base = pj * NR * kc;
        let panel = &mut dst[base..base + NR * kc];
        for jj in 0..NR {
            if jj < nr {
                fill(j0 + jj, kc, NR, &mut panel[jj..]);
            } else {
                for l in 0..kc {
                    panel[l * NR + jj] = 0.0;
                }
            }
        }
    }
}

/// Pack `op(B)` one depth at a time where `op(B)` is contiguous along the
/// column axis (the `B^T` variant): `fill(l, j0, nr, out)` writes the `nr`
/// valid columns of depth `l`.
fn pack_b_rows(
    dst: &mut [f64],
    kc: usize,
    nc: usize,
    mut fill: impl FnMut(usize, usize, usize, &mut [f64]),
) {
    let npanels = nc.div_ceil(NR);
    for pj in 0..npanels {
        let j0 = pj * NR;
        let nr = NR.min(nc - j0);
        let base = pj * NR * kc;
        for l in 0..kc {
            let out = &mut dst[base + l * NR..base + (l + 1) * NR];
            fill(l, j0, nr, out);
            out[nr..].fill(0.0);
        }
    }
}

/// The three-level loop nest shared by the packed variants: NC columns of
/// packed `op(B)`, KC depths, MC rows of packed `op(A)`, then the
/// `MR x NR` macro-kernel sweep.  The two closures pack one cache block of
/// `op(A)` / `op(B)` into the scratch buffers (`(dst, ic, pc, mc, kc)` and
/// `(dst, pc, jc, kc, nc)` respectively) — they are the only part that
/// differs between the transpose variants.
fn packed_loop(
    c: &mut MatrixViewMut<'_>,
    alpha: f64,
    k: usize,
    scratch: &mut GemmScratch,
    mut pack_a: impl FnMut(&mut [f64], usize, usize, usize, usize),
    mut pack_b: impl FnMut(&mut [f64], usize, usize, usize, usize),
) {
    let m = c.rows();
    let n = c.cols();
    // Size the pack buffers to the actual block extents, so a small product
    // dispatched here without a long-lived scratch allocates proportionally
    // to the problem, not to the MC/KC/NC maxima.
    let apack_len = MC.min(m).div_ceil(MR) * MR * KC.min(k);
    let bpack_len = NC.min(n).div_ceil(NR) * NR * KC.min(k);
    if scratch.apack.len() < apack_len {
        scratch.apack.resize(apack_len, 0.0);
    }
    if scratch.bpack.len() < bpack_len {
        scratch.bpack.resize(bpack_len, 0.0);
    }
    // One backend load per GEMM call; the microkernel sweep below never
    // re-detects CPU features.
    let be = simd::backend();
    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            pack_b(&mut scratch.bpack, pc, jc, kc, nc);
            let mut ic = 0;
            while ic < m {
                let mc = MC.min(m - ic);
                pack_a(&mut scratch.apack, ic, pc, mc, kc);
                macro_kernel(
                    be,
                    c,
                    alpha,
                    ic,
                    jc,
                    mc,
                    nc,
                    kc,
                    &scratch.apack,
                    &scratch.bpack,
                );
                ic += MC;
            }
            pc += KC;
        }
        jc += NC;
    }
}

/// Sweep the packed block with the microkernel and fold the accumulators
/// into `C` (`C += alpha * acc`), handling the ragged edge panels.
#[allow(clippy::too_many_arguments)]
fn macro_kernel(
    be: SimdBackend,
    c: &mut MatrixViewMut<'_>,
    alpha: f64,
    ic: usize,
    jc: usize,
    mc: usize,
    nc: usize,
    kc: usize,
    apack: &[f64],
    bpack: &[f64],
) {
    let mpanels = mc.div_ceil(MR);
    let npanels = nc.div_ceil(NR);
    for pj in 0..npanels {
        let j0 = pj * NR;
        let nr = NR.min(nc - j0);
        let bp = &bpack[pj * NR * kc..];
        for pi in 0..mpanels {
            let i0 = pi * MR;
            let mr = MR.min(mc - i0);
            let ap = &apack[pi * MR * kc..];
            let acc = simd::microkernel_8x4(be, kc, ap, bp);
            for (jj, accj) in acc.iter().enumerate().take(nr) {
                let ccol = c.col_mut(jc + j0 + jj);
                let cc = &mut ccol[ic + i0..ic + i0 + mr];
                for i in 0..mr {
                    cc[i] += alpha * accj[i];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Matrix;
    use crate::gen::random_gaussian;

    fn close(a: &Matrix, b: &Matrix) -> bool {
        a.sub(b).norm_max() < 1e-12
    }

    #[test]
    fn gemm_nn_matches_matmul() {
        let a = random_gaussian(7, 5, 1);
        let b = random_gaussian(5, 6, 2);
        let mut c = random_gaussian(7, 6, 3);
        let expect = {
            let mut e = c.clone();
            e.axpy(1.5, &a.matmul(&b));
            e
        };
        gemm_nn(&mut c.as_view_mut(), 1.5, a.as_view(), b.as_view());
        assert!(close(&c, &expect));
    }

    #[test]
    fn gemm_tn_matches_matmul() {
        let a = random_gaussian(9, 4, 4);
        let b = random_gaussian(9, 3, 5);
        let mut c = random_gaussian(4, 3, 6);
        let expect = {
            let mut e = c.clone();
            e.axpy(-0.5, &a.matmul_tn(&b));
            e
        };
        gemm_tn(&mut c.as_view_mut(), -0.5, a.as_view(), b.as_view());
        assert!(close(&c, &expect));
    }

    #[test]
    fn gemm_nt_matches_matmul() {
        let a = random_gaussian(6, 8, 7);
        let b = random_gaussian(5, 8, 8);
        let mut c = random_gaussian(6, 5, 9);
        let expect = {
            let mut e = c.clone();
            e.axpy(2.0, &a.matmul_nt(&b));
            e
        };
        gemm_nt(&mut c.as_view_mut(), 2.0, a.as_view(), b.as_view());
        assert!(close(&c, &expect));
    }

    #[test]
    fn gemm_on_subviews_respects_ld() {
        // Multiply 3x3 windows of larger matrices; the views carry ld > rows.
        let a = random_gaussian(8, 8, 10);
        let b = random_gaussian(8, 8, 11);
        let mut c = Matrix::zeros(8, 8);
        let av = a.as_view().submatrix(1, 2, 3, 3);
        let bv = b.as_view().submatrix(4, 0, 3, 3);
        {
            let mut cv = c.as_view_mut();
            let mut cw = cv.submatrix_mut(2, 2, 3, 3);
            gemm_nn(&mut cw, 1.0, av, bv);
        }
        let expect = a.block(1, 2, 3, 3).matmul(&b.block(4, 0, 3, 3));
        assert!(close(&c.block(2, 2, 3, 3), &expect));
        // Entries outside the window stay zero.
        assert_eq!(c.get(0, 0), 0.0);
        assert_eq!(c.get(7, 7), 0.0);
    }

    #[test]
    fn unroll_remainders_are_exact() {
        // Sizes chosen to hit every remainder path (k % 4 in 1..=3).
        for k in 1..=9 {
            let a = random_gaussian(5, k, 20 + k as u64);
            let b = random_gaussian(k, 5, 30 + k as u64);
            let mut c = Matrix::zeros(5, 5);
            gemm_nn(&mut c.as_view_mut(), 1.0, a.as_view(), b.as_view());
            assert!(close(&c, &a.matmul(&b)), "k = {k}");
        }
    }

    #[test]
    fn packed_paths_match_unpacked_on_microkernel_edges() {
        // Shapes straddling the MR/NR panel edges and the KC boundary; the
        // broad shape sweep lives in tests/packed_gemm.rs.
        let mut scratch = GemmScratch::new();
        for &(m, n, k) in &[
            (MR, NR, 3usize),
            (MR - 1, NR + 1, KC + 5),
            (2 * MR + 3, 3 * NR + 2, 17),
            (1, 1, 1),
            (MC + MR + 1, NC.min(37), KC + 1),
        ] {
            let a = random_gaussian(m, k, (m * 31 + k) as u64);
            let b = random_gaussian(k, n, (n * 37 + k) as u64);
            let mut cp = random_gaussian(m, n, 40);
            let mut cu = cp.clone();
            gemm_nn_packed(
                &mut cp.as_view_mut(),
                1.25,
                a.as_view(),
                b.as_view(),
                &mut scratch,
            );
            gemm_nn_unpacked(&mut cu.as_view_mut(), 1.25, a.as_view(), b.as_view());
            assert!(close(&cp, &cu), "nn {m}x{n}x{k}");

            let at = a.transpose();
            let mut cp = random_gaussian(m, n, 41);
            let mut cu = cp.clone();
            gemm_tn_packed(
                &mut cp.as_view_mut(),
                -0.75,
                at.as_view(),
                b.as_view(),
                &mut scratch,
            );
            gemm_tn_unpacked(&mut cu.as_view_mut(), -0.75, at.as_view(), b.as_view());
            assert!(close(&cp, &cu), "tn {m}x{n}x{k}");

            let bt = b.transpose();
            let mut cp = random_gaussian(m, n, 42);
            let mut cu = cp.clone();
            gemm_nt_packed(
                &mut cp.as_view_mut(),
                2.0,
                a.as_view(),
                bt.as_view(),
                &mut scratch,
            );
            gemm_nt_unpacked(&mut cu.as_view_mut(), 2.0, a.as_view(), bt.as_view());
            assert!(close(&cp, &cu), "nt {m}x{n}x{k}");
        }
    }
}
