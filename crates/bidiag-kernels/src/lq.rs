//! Tile kernels for the tiled LQ factorization.
//!
//! The LQ kernels are the exact duals of the QR kernels: they annihilate
//! tiles to the *right* of a pivot tile column by applying orthogonal
//! transformations from the right.  Costs are symmetric to the QR kernels
//! (Table I of the paper): GELQT 4, UNMLQ 6, TSLQT 6, TSMLQ 12, TTLQT 2,
//! TTMLQ 6 (in units of `nb^3/3`).
//!
//! All six run on the right-sided chunk kernel of [`crate::wy`], with the
//! rows of the matrix as the SIMD lanes.  The LQ kernels store reflector
//! `k` as *row* `k` of a tile and differ only in the `Shape` of those rows:
//! unit-upper trapezoid in the tile itself (GELQT/UNMLQ), full rows of the
//! second tile (TS), lower triangle of the second tile (TT).
//!
//! * The *factorizations* (`gelqt`/`tslqt`/`ttlqt`) factor an `IB`-row
//!   panel at a time with the panel's rows as the lanes — one pass over a
//!   row's tail gives its sum of squares, the `w` of the rows below and the
//!   `vdots` of its `T` column — and update the rows below the panel with
//!   the chunk kernel of the applies, reading the chunk from the tile being
//!   factored.  Like LAPACK's `xGELQT`/`xTPLQT` they factor the row-stored
//!   reflectors directly: no tile is transposed.
//! * The *applies* (`unmlq`/`tsmlq`/`ttmlq`), which run once per trailing
//!   tile and dominate the LQ steps, compute `C -= (C V) op(T) V^T` a chunk
//!   at a time, with the rows of `C` as lanes.
//!
//! Nothing is packed, transposed or allocated but the [`TFactor`] a
//! factorization returns, and the SIMD backend is dispatched once per
//! kernel call.

use crate::qr::Trans;
use crate::wy::{self, Shape, TFactor};
use bidiag_matrix::Matrix;

/// GELQT: in-place LQ factorization of a tile.
///
/// On exit the lower triangle of `a` (including the diagonal) holds `L` and
/// the strictly upper part holds the Householder vectors stored row-wise.
/// Returns the compact-WY [`TFactor`] consumed by [`unmlq`].
pub fn gelqt(a: &mut Matrix) -> TFactor {
    wy::factor_right(Shape::Trapezoid, None, a)
}

/// UNMLQ: apply the orthogonal factor of a GELQT'd tile to `c` from the
/// right.  With [`Trans::Transpose`] this computes `C <- C * Q_lq^T`, which
/// is the update used by the LQ steps of the bidiagonalization; with
/// [`Trans::NoTranspose`] it computes `C <- C * Q_lq`.
///
/// `v` is the factored tile (Householder vectors row-wise in its strictly
/// upper part — its lower triangle, `L`, is never read), `tf` the factor
/// returned by [`gelqt`].
pub fn unmlq(v: &Matrix, tf: &TFactor, c: &mut Matrix, trans: Trans) {
    assert_eq!(v.cols(), c.cols(), "UNMLQ: V and C column mismatch");
    assert!(
        v.rows() >= tf.len(),
        "UNMLQ: V has fewer rows than reflectors"
    );
    wy::apply_right(Shape::Trapezoid, v, tf, None, c, trans);
}

/// TSLQT: LQ reduction of a lower triangle with a full tile to its right.
///
/// `l1` is the lower-triangular pivot tile (tile `(k, piv)`), `a2` the tile
/// being annihilated (tile `(k, j)`).  On exit `l1` holds the updated `L`
/// and `a2` holds the Householder vectors (row-wise).  Returns the
/// [`TFactor`].
pub fn tslqt(l1: &mut Matrix, a2: &mut Matrix) -> TFactor {
    assert_eq!(a2.rows(), l1.rows(), "TSLQT: row mismatch");
    wy::factor_right(Shape::Square, Some(l1), a2)
}

/// TSMLQ: apply the reflectors produced by [`tslqt`] to the tile pair
/// `(c1, c2)` from the right.  `c1` lives in the pivot tile column and `c2`
/// in the annihilated tile column; `v2` is the tile holding the Householder
/// vectors (the `a2` output of [`tslqt`]).
///
/// Like its QR twin this is the heaviest kernel of the factorization
/// (Table I weight 12).
pub fn tsmlq(c1: &mut Matrix, c2: &mut Matrix, v2: &Matrix, tf: &TFactor, trans: Trans) {
    check_pair("TSMLQ", c1, c2, v2, tf);
    wy::apply_right(Shape::Square, v2, tf, Some(c1), c2, trans);
}

/// TTLQT: LQ reduction of two lower triangles side by side.
///
/// `l1` is the pivot lower triangle and `l2` the lower triangle being
/// annihilated.  On exit `l1` holds the combined `L` and `l2` the
/// Householder vectors (row `k` has non-zeros only in columns `0..=k`; the
/// strictly upper part of `l2` is never touched).  Returns the [`TFactor`].
pub fn ttlqt(l1: &mut Matrix, l2: &mut Matrix) -> TFactor {
    assert_eq!(l2.rows(), l1.rows(), "TTLQT: row mismatch");
    wy::factor_right(Shape::Triangle, Some(l1), l2)
}

/// TTMLQ: apply the reflectors produced by [`ttlqt`] to the tile pair
/// `(c1, c2)` from the right.  The k-th reflector touches column `k` of
/// `c1` and columns `0..=k` of `c2`; the triangular structure of `v2` is
/// respected, so whatever its strictly upper part holds (typically the
/// row-wise vectors of an earlier GELQT) is never read.
pub fn ttmlq(c1: &mut Matrix, c2: &mut Matrix, v2: &Matrix, tf: &TFactor, trans: Trans) {
    check_pair("TTMLQ", c1, c2, v2, tf);
    wy::apply_right(Shape::Triangle, v2, tf, Some(c1), c2, trans);
}

/// Operand shapes of TSMLQ / TTMLQ.
fn check_pair(name: &str, c1: &Matrix, c2: &Matrix, v2: &Matrix, tf: &TFactor) {
    assert_eq!(c2.rows(), c1.rows(), "{name}: row mismatch");
    assert_eq!(v2.cols(), c2.cols(), "{name}: V2 column mismatch");
    assert!(
        v2.rows() >= tf.len(),
        "{name}: V2 has fewer rows than reflectors"
    );
    assert!(
        c1.cols() >= tf.len(),
        "{name}: C1 has fewer columns than reflectors"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use bidiag_matrix::checks::lower_triangle_of;
    use bidiag_matrix::checks::{orthogonality_error, relative_error};
    use bidiag_matrix::gen::random_gaussian;

    #[test]
    fn gelqt_factors_tile() {
        for (m, n) in [(6, 6), (4, 9), (9, 4)] {
            let a0 = random_gaussian(m, n, (m * 10 + n) as u64);
            let mut a = a0.clone();
            let tf = gelqt(&mut a);
            let l = lower_triangle_of(&a);
            let mut q = Matrix::identity(n);
            unmlq(&a, &tf, &mut q, Trans::NoTranspose);
            assert!(orthogonality_error(&q) < 1e-13, "{m}x{n}");
            assert!(relative_error(&a0, &l.matmul(&q)) < 1e-13, "{m}x{n}");
        }
    }

    #[test]
    fn unmlq_round_trip() {
        let mut v = random_gaussian(5, 5, 60);
        let tf = gelqt(&mut v);
        let c0 = random_gaussian(3, 5, 61);
        let mut c = c0.clone();
        unmlq(&v, &tf, &mut c, Trans::Transpose);
        unmlq(&v, &tf, &mut c, Trans::NoTranspose);
        assert!(relative_error(&c0, &c) < 1e-12);
    }

    #[test]
    fn gelqt_then_apply_annihilates_right_blocks() {
        // [A1 A2] * Q^T where Q comes from LQ of A1 alone leaves A1 lower
        // triangular; this is what UNMLQ does to the trailing tile rows.
        let nb = 5;
        let a1_0 = random_gaussian(nb, nb, 62);
        let mut a1 = a1_0.clone();
        let tf = gelqt(&mut a1);
        // A1 = L * Q  =>  A1 * Q^T = L.
        let mut l = a1_0.clone();
        unmlq(&a1, &tf, &mut l, Trans::Transpose);
        for i in 0..nb {
            for j in (i + 1)..nb {
                assert!(l.get(i, j).abs() < 1e-12, "L not lower triangular");
            }
        }
    }

    #[test]
    fn tslqt_factorization_is_consistent() {
        let nb = 5;
        let mut pivot = random_gaussian(nb, nb, 70);
        let _ = gelqt(&mut pivot);
        let l1_0 = lower_triangle_of(&pivot);
        let a2_0 = random_gaussian(nb, nb, 71);

        let mut l1 = l1_0.clone();
        let mut a2 = a2_0.clone();
        let tf = tslqt(&mut l1, &mut a2);

        // [L1_0 A2_0] = [L1_new 0] * Q for some orthogonal Q (2nb x 2nb).
        // Rebuild Q by applying the reflectors to the identity from the right.
        let mut q = Matrix::identity(2 * nb);
        let mut q_left = q.block(0, 0, 2 * nb, nb);
        let mut q_right = q.block(0, nb, 2 * nb, nb);
        tsmlq(&mut q_left, &mut q_right, &a2, &tf, Trans::NoTranspose);
        q.copy_block(0, 0, &q_left);
        q.copy_block(0, nb, &q_right);
        assert!(orthogonality_error(&q) < 1e-12);

        let mut lhs = Matrix::zeros(nb, 2 * nb);
        lhs.copy_block(0, 0, &l1_0);
        lhs.copy_block(0, nb, &a2_0);
        let mut lnew = Matrix::zeros(nb, 2 * nb);
        lnew.copy_block(0, 0, &lower_triangle_of(&l1));
        assert!(relative_error(&lhs, &lnew.matmul(&q)) < 1e-12);
    }

    #[test]
    fn tsmlq_round_trip() {
        let nb = 4;
        let mut l1 = lower_triangle_of(&random_gaussian(nb, nb, 80));
        let mut v2 = random_gaussian(nb, nb, 81);
        let tf = tslqt(&mut l1, &mut v2);
        let c1_0 = random_gaussian(3, nb, 82);
        let c2_0 = random_gaussian(3, nb, 83);
        let mut c1 = c1_0.clone();
        let mut c2 = c2_0.clone();
        tsmlq(&mut c1, &mut c2, &v2, &tf, Trans::Transpose);
        tsmlq(&mut c1, &mut c2, &v2, &tf, Trans::NoTranspose);
        assert!(relative_error(&c1_0, &c1) < 1e-12);
        assert!(relative_error(&c2_0, &c2) < 1e-12);
    }

    #[test]
    fn ttlqt_and_ttmlq_round_trip() {
        let nb = 4;
        let mut l1 = lower_triangle_of(&random_gaussian(nb, nb, 90));
        let mut l2 = lower_triangle_of(&random_gaussian(nb, nb, 91));
        let l1_0 = l1.clone();
        let l2_0 = l2.clone();
        let tf = ttlqt(&mut l1, &mut l2);

        let mut q = Matrix::identity(2 * nb);
        let mut q_left = q.block(0, 0, 2 * nb, nb);
        let mut q_right = q.block(0, nb, 2 * nb, nb);
        ttmlq(&mut q_left, &mut q_right, &l2, &tf, Trans::NoTranspose);
        q.copy_block(0, 0, &q_left);
        q.copy_block(0, nb, &q_right);
        assert!(orthogonality_error(&q) < 1e-12);

        let mut lhs = Matrix::zeros(nb, 2 * nb);
        lhs.copy_block(0, 0, &l1_0);
        lhs.copy_block(0, nb, &l2_0);
        let mut lnew = Matrix::zeros(nb, 2 * nb);
        lnew.copy_block(
            0,
            0,
            &Matrix::from_fn(nb, nb, |i, j| if j <= i { l1.get(i, j) } else { 0.0 }),
        );
        assert!(relative_error(&lhs, &lnew.matmul(&q)) < 1e-12);

        let c1_0 = random_gaussian(3, nb, 92);
        let c2_0 = random_gaussian(3, nb, 93);
        let mut c1 = c1_0.clone();
        let mut c2 = c2_0.clone();
        ttmlq(&mut c1, &mut c2, &l2, &tf, Trans::Transpose);
        ttmlq(&mut c1, &mut c2, &l2, &tf, Trans::NoTranspose);
        assert!(relative_error(&c1_0, &c1) < 1e-12);
        assert!(relative_error(&c2_0, &c2) < 1e-12);
    }
}
