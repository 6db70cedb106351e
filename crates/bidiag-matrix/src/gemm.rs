//! Packed, cache-blocked GEMM on column-major views.
//!
//! The Level-3 building blocks of the workspace.  No pipeline stage calls
//! them: the tile kernels of `bidiag-kernels` read their operands in place
//! through the fused chunk kernels of `bidiag_kernels::wy`, and `latms`
//! forms its products with [`Matrix::matmul_nt`](crate::Matrix::matmul_nt).
//! `ge2val-bench` times them as a layer of their own.  Both variants
//! compute `C += alpha * op(A) * op(B)` in place, with a caller-provided
//! [`GemmScratch`]:
//!
//! * [`gemm_nn_scratch`] — `C += alpha * A * B`,
//! * [`gemm_tn_scratch`] — `C += alpha * A^T * B` (no transpose is formed).
//!
//! There is one path, the classic BLIS/GotoBLAS three-level blocked
//! algorithm: `KC x NC` panels of `op(B)` and `MC x KC` panels of `op(A)` are
//! packed into contiguous, microkernel-ordered buffers (reused across calls
//! through the scratch), and the `MR x NR` register microkernel from
//! [`crate::simd`] (broadcast-FMA on the vector backends, rank-1 scalar
//! fallback; one [`simd::dispatch`] per register tile) runs over the packed
//! panels.
//! Packing makes every microkernel read stride-1 regardless of the transpose
//! variant or the leading dimension, so the O(mnk) inner loop never touches
//! strided memory; the O(mk + kn) packing cost is amortized `NC`-fold
//! (A panels) and `MC`-fold (B panels), and the pack buffers are sized to
//! the block extents, so a tiny product packs a tiny panel.

use crate::simd;
use crate::view::{MatrixView, MatrixViewMut};

pub use crate::simd::{MR, NR};
/// Cache-block depth: `KC` packed rows of `op(B)` / columns of `op(A)`.
const KC: usize = 256;
/// Cache-block height of the packed `op(A)` panel (sized so one
/// `MC x KC` A-panel stays resident in L2 while the macro-kernel sweeps it).
const MC: usize = 128;
/// Cache-block width of the packed `op(B)` panel.
const NC: usize = 512;

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
    /// Empty scratch; the pack buffers grow on first call.
    pub fn new() -> Self {
        Self::default()
    }
}

/// `C += alpha * A * B` with `A: m x k`, `B: k x n`, `C: m x n`, packing
/// into `scratch` (allocation-free in steady state).
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

/// `C += alpha * A^T * B` with `A: m x p`, `B: m x n`, `C: p x n`.  See
/// [`gemm_nn_scratch`].
pub fn gemm_tn_scratch(
    c: &mut MatrixViewMut<'_>,
    alpha: f64,
    a: MatrixView<'_>,
    b: MatrixView<'_>,
    scratch: &mut GemmScratch,
) {
    let (p, n, k) = (c.rows(), c.cols(), a.rows());
    assert_eq!(a.cols(), p, "gemm_tn: A cols mismatch");
    assert_eq!(b.rows(), k, "gemm_tn: B rows mismatch");
    assert_eq!(b.cols(), n, "gemm_tn: B cols mismatch");
    if p == 0 || n == 0 || k == 0 || alpha == 0.0 {
        return;
    }
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

/// Pack `op(B)` (a `kc x nc` block) into NR-column panels, `op(B)` being
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

/// The three-level loop nest shared by the two variants: NC columns of
/// packed `op(B)`, KC depths, MC rows of packed `op(A)`, then the
/// `MR x NR` macro-kernel sweep.  The two closures pack one cache block of
/// `op(A)` / `op(B)` into the scratch buffers (`(dst, ic, pc, mc, kc)` and
/// `(dst, pc, jc, kc, nc)` respectively) — they are the only part that
/// differs between the variants.
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
    // without a long-lived scratch allocates proportionally to the problem,
    // not to the MC/KC/NC maxima.
    let apack_len = MC.min(m).div_ceil(MR) * MR * KC.min(k);
    let bpack_len = NC.min(n).div_ceil(NR) * NR * KC.min(k);
    if scratch.apack.len() < apack_len {
        scratch.apack.resize(apack_len, 0.0);
    }
    if scratch.bpack.len() < bpack_len {
        scratch.bpack.resize(bpack_len, 0.0);
    }
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
                macro_kernel(c, alpha, ic, jc, mc, nc, kc, &scratch.apack, &scratch.bpack);
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
            let acc = simd::microkernel_8x4(kc, ap, bp);
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
        gemm_nn_scratch(
            &mut c.as_view_mut(),
            1.5,
            a.as_view(),
            b.as_view(),
            &mut GemmScratch::new(),
        );
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
        gemm_tn_scratch(
            &mut c.as_view_mut(),
            -0.5,
            a.as_view(),
            b.as_view(),
            &mut GemmScratch::new(),
        );
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
            gemm_nn_scratch(&mut cw, 1.0, av, bv, &mut GemmScratch::new());
        }
        let expect = a.block(1, 2, 3, 3).matmul(&b.block(4, 0, 3, 3));
        assert!(close(&c.block(2, 2, 3, 3), &expect));
        // Entries outside the window stay zero.
        assert_eq!(c.get(0, 0), 0.0);
        assert_eq!(c.get(7, 7), 0.0);
    }

    #[test]
    fn tiny_products_are_exact() {
        // Every depth up to 9 on a 5 x 5 output: products of a few hundred
        // multiply-adds, one partial microkernel panel each.
        for k in 1..=9 {
            let a = random_gaussian(5, k, 20 + k as u64);
            let b = random_gaussian(k, 5, 30 + k as u64);
            let mut c = Matrix::zeros(5, 5);
            gemm_nn_scratch(
                &mut c.as_view_mut(),
                1.0,
                a.as_view(),
                b.as_view(),
                &mut GemmScratch::new(),
            );
            assert!(close(&c, &a.matmul(&b)), "k = {k}");
        }
    }

    #[test]
    fn microkernel_and_cache_block_edges_match_matmul() {
        // Shapes straddling the MR/NR panel edges and the MC/KC boundaries,
        // through one long-lived scratch; the broad shape sweep lives in
        // tests/packed_gemm.rs.
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
            let c0 = random_gaussian(m, n, 40);
            let want = |alpha: f64, product: Matrix| {
                let mut e = c0.clone();
                e.axpy(alpha, &product);
                e
            };

            let mut c = c0.clone();
            gemm_nn_scratch(
                &mut c.as_view_mut(),
                1.25,
                a.as_view(),
                b.as_view(),
                &mut scratch,
            );
            assert!(close(&c, &want(1.25, a.matmul(&b))), "nn {m}x{n}x{k}");

            let at = a.transpose();
            let mut c = c0.clone();
            gemm_tn_scratch(
                &mut c.as_view_mut(),
                -0.75,
                at.as_view(),
                b.as_view(),
                &mut scratch,
            );
            assert!(close(&c, &want(-0.75, a.matmul(&b))), "tn {m}x{n}x{k}");
        }
    }
}
