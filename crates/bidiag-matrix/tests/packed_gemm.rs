//! Property tests of the GEMM layer: every transpose variant, through both
//! public entry points (own scratch and caller scratch), must match the
//! naive triple-loop reference to 1e-13 (relative) on a ragged shape sweep
//! that straddles the microkernel (`MR`/`NR`) and cache-block boundaries
//! and reaches down to single multiply-adds.

use bidiag_matrix::checks::{matmul_reference, RefOp};
use bidiag_matrix::gemm::{
    gemm_nn, gemm_nn_scratch, gemm_nt, gemm_nt_scratch, gemm_tn, gemm_tn_scratch, GemmScratch,
};
use bidiag_matrix::gen::random_gaussian;
use bidiag_matrix::Matrix;

/// Ragged sizes: 1 (degenerate), 3/7 (below every panel width), 31
/// (straddles MR/NR panels), 64 (reference tile size), 97 (not a multiple of
/// anything).  The cube starts at `1 x 1 x 1`, so the tiny products (under
/// `8^3` multiply-adds) take the same packed path as the large ones.
const SIZES: [usize; 6] = [1, 3, 7, 31, 64, 97];
const TOL: f64 = 1e-13;

/// Normwise error against the scale of the *operands*, not just the result:
/// `||want - got|| / max(||want||, |alpha| ||A|| ||B||)`.  A cancellation in
/// the product must not amplify a ~ulp rounding difference (the SIMD
/// microkernel fuses multiply-adds; the triple-loop reference does not) into
/// a spurious relative-error failure.
fn rel_err(want: &Matrix, got: &Matrix, alpha: f64, a: &Matrix, b: &Matrix) -> f64 {
    let scale = want
        .norm_fro()
        .max(alpha.abs() * a.norm_fro() * b.norm_fro())
        .max(f64::EPSILON);
    want.sub(got).norm_fro() / scale
}

/// Reference `C += alpha * op(A) * op(B)` built from the naive triple loop.
fn expected(c0: &Matrix, alpha: f64, a: &Matrix, op_a: RefOp, b: &Matrix, op_b: RefOp) -> Matrix {
    let mut e = c0.clone();
    matmul_reference(&mut e, alpha, a, op_a, b, op_b);
    e
}

#[test]
fn gemm_nn_matches_triple_loop_on_ragged_shapes() {
    let mut scratch = GemmScratch::new();
    for &m in &SIZES {
        for &n in &SIZES {
            for &k in &SIZES {
                let a = random_gaussian(m, k, (m * 101 + k) as u64);
                let b = random_gaussian(k, n, (n * 103 + k) as u64);
                let c0 = random_gaussian(m, n, (m * 107 + n) as u64);
                let want = expected(&c0, 1.5, &a, RefOp::None, &b, RefOp::None);

                let mut c = c0.clone();
                gemm_nn(&mut c.as_view_mut(), 1.5, a.as_view(), b.as_view());
                assert!(rel_err(&want, &c, 1.5, &a, &b) < TOL, "nn {m}x{n}x{k}");

                let mut c = c0.clone();
                gemm_nn_scratch(
                    &mut c.as_view_mut(),
                    1.5,
                    a.as_view(),
                    b.as_view(),
                    &mut scratch,
                );
                assert!(
                    rel_err(&want, &c, 1.5, &a, &b) < TOL,
                    "nn scratch {m}x{n}x{k}"
                );
            }
        }
    }
}

#[test]
fn gemm_tn_matches_triple_loop_on_ragged_shapes() {
    let mut scratch = GemmScratch::new();
    for &m in &SIZES {
        for &n in &SIZES {
            for &k in &SIZES {
                // op(A) = A^T with A stored k x m.
                let a = random_gaussian(k, m, (m * 109 + k) as u64);
                let b = random_gaussian(k, n, (n * 113 + k) as u64);
                let c0 = random_gaussian(m, n, (m * 127 + n) as u64);
                let want = expected(&c0, -0.75, &a, RefOp::Transpose, &b, RefOp::None);

                let mut c = c0.clone();
                gemm_tn(&mut c.as_view_mut(), -0.75, a.as_view(), b.as_view());
                assert!(rel_err(&want, &c, 0.75, &a, &b) < TOL, "tn {m}x{n}x{k}");

                let mut c = c0.clone();
                gemm_tn_scratch(
                    &mut c.as_view_mut(),
                    -0.75,
                    a.as_view(),
                    b.as_view(),
                    &mut scratch,
                );
                assert!(
                    rel_err(&want, &c, 0.75, &a, &b) < TOL,
                    "tn scratch {m}x{n}x{k}"
                );
            }
        }
    }
}

#[test]
fn gemm_nt_matches_triple_loop_on_ragged_shapes() {
    let mut scratch = GemmScratch::new();
    for &m in &SIZES {
        for &n in &SIZES {
            for &k in &SIZES {
                // op(B) = B^T with B stored n x k.
                let a = random_gaussian(m, k, (m * 131 + k) as u64);
                let b = random_gaussian(n, k, (n * 137 + k) as u64);
                let c0 = random_gaussian(m, n, (m * 139 + n) as u64);
                let want = expected(&c0, 2.0, &a, RefOp::None, &b, RefOp::Transpose);

                let mut c = c0.clone();
                gemm_nt(&mut c.as_view_mut(), 2.0, a.as_view(), b.as_view());
                assert!(rel_err(&want, &c, 2.0, &a, &b) < TOL, "nt {m}x{n}x{k}");

                let mut c = c0.clone();
                gemm_nt_scratch(
                    &mut c.as_view_mut(),
                    2.0,
                    a.as_view(),
                    b.as_view(),
                    &mut scratch,
                );
                assert!(
                    rel_err(&want, &c, 2.0, &a, &b) < TOL,
                    "nt scratch {m}x{n}x{k}"
                );
            }
        }
    }
}

#[test]
fn gemm_tn_with_empty_inner_dimension_leaves_c_unchanged() {
    // `A^T B` with A and B of zero rows: the product is the zero p x n
    // matrix, so C must come back bit for bit.
    for &(p, n) in &[(1usize, 1usize), (7, 3), (31, 97)] {
        let a = Matrix::zeros(0, p);
        let b = Matrix::zeros(0, n);
        let c0 = random_gaussian(p, n, (p * 149 + n) as u64);
        let mut c = c0.clone();
        gemm_tn(&mut c.as_view_mut(), 1.5, a.as_view(), b.as_view());
        assert_eq!(c, c0, "tn {p}x{n}x0");
    }
}

#[test]
fn one_scratch_across_growing_then_shrinking_shapes_equals_a_fresh_one() {
    // Pack buffers grow to the largest shape and are then reused, larger
    // than needed, by the smaller ones: the stale tail must never be read.
    let mut long_lived = GemmScratch::new();
    for &s in &[1usize, 7, 64, 97, 300, 97, 31, 3, 1] {
        let (m, n, k) = (s, s + 2, s + 1);
        let a = random_gaussian(m, k, (s * 151) as u64);
        let b = random_gaussian(k, n, (s * 157) as u64);
        let c0 = random_gaussian(m, n, (s * 163) as u64);
        let (mut reused, mut fresh) = (c0.clone(), c0);
        gemm_nn_scratch(
            &mut reused.as_view_mut(),
            0.5,
            a.as_view(),
            b.as_view(),
            &mut long_lived,
        );
        gemm_nn_scratch(
            &mut fresh.as_view_mut(),
            0.5,
            a.as_view(),
            b.as_view(),
            &mut GemmScratch::new(),
        );
        assert_eq!(reused, fresh, "{m}x{n}x{k}");
    }
}

#[test]
fn packed_gemm_on_subviews_respects_leading_dimension() {
    // Windows of a larger buffer (ld > rows): the pack routines must
    // honour the view offsets and strides.
    let mut scratch = GemmScratch::new();
    let big_a = random_gaussian(120, 120, 7);
    let big_b = random_gaussian(120, 120, 8);
    let (m, n, k) = (97, 33, 41);
    let a = big_a.block(11, 5, m, k);
    let b = big_b.block(2, 19, k, n);
    let c0 = random_gaussian(m, n, 9);
    let want = expected(&c0, 1.0, &a, RefOp::None, &b, RefOp::None);

    let mut c = c0.clone();
    gemm_nn_scratch(
        &mut c.as_view_mut(),
        1.0,
        big_a.as_view().submatrix(11, 5, m, k),
        big_b.as_view().submatrix(2, 19, k, n),
        &mut scratch,
    );
    assert!(rel_err(&want, &c, 1.0, &a, &b) < TOL);
}
