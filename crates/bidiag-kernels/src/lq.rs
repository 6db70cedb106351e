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
//! unit-upper trapezoid in the tile itself (GELQT/UNMLQ, which reads a copy
//! of that tile from the factor GELQT returns), full rows of the
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
//!   tile and dominate the LQ steps, compute `C Q_lq^T = C - (C V) T V^T` a
//!   chunk at a time, with the rows of `C` as lanes — the one product an LQ
//!   step needs; no stage applies `Q_lq` itself.
//!
//! Nothing is packed, transposed or allocated but the [`TFactor`] a
//! factorization returns, and the SIMD backend is dispatched once per
//! kernel call.

use crate::wy::{self, Shape, TFactor};
use bidiag_matrix::Matrix;

/// GELQT: in-place LQ factorization of a tile.
///
/// On exit the lower triangle of `a` (including the diagonal) holds `L` and
/// the strictly upper part holds the Householder vectors stored row-wise.
/// Returns the compact-WY [`TFactor`] consumed by [`unmlq`], which carries
/// a copy of the factored tile, so that the apply never reads `a` again.
pub fn gelqt(a: &mut Matrix) -> TFactor {
    wy::factor_right(Shape::Trapezoid, None, a)
}

/// UNMLQ: apply the transposed orthogonal factor of a GELQT'd tile to `c`
/// from the right, `C <- C Q_lq^T`: the update of the LQ steps of the
/// bidiagonalization.
///
/// `tf` is the factor returned by [`gelqt`]; the Householder vectors are
/// read row-wise from the copy of the factored tile it carries (its
/// strictly upper part — the lower triangle, `L`, is never read).
pub fn unmlq(tf: &TFactor, c: &mut Matrix) {
    let v = tf.reflectors();
    assert_eq!(v.0.len(), v.1 * c.cols(), "UNMLQ: V and C column mismatch");
    wy::apply_right(Shape::Trapezoid, v, tf, None, c);
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

/// TSMLQ: apply the transposed orthogonal factor of [`tslqt`] to the tile
/// pair `(c1, c2)` from the right, `[C1 C2] <- [C1 C2] Q_lq^T`.  `c1`
/// lives in the pivot tile column and `c2` in the annihilated tile column;
/// `v2` is the tile holding the Householder vectors (the `a2` output of
/// [`tslqt`]).
///
/// Like its QR twin this is the heaviest kernel of the factorization
/// (Table I weight 12).
pub fn tsmlq(c1: &mut Matrix, c2: &mut Matrix, v2: &Matrix, tf: &TFactor) {
    check_pair("TSMLQ", c1, c2, v2, tf);
    wy::apply_right(Shape::Square, (v2.data(), v2.rows()), tf, Some(c1), c2);
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

/// TTMLQ: apply the transposed orthogonal factor of [`ttlqt`] to the tile
/// pair `(c1, c2)` from the right, `[C1 C2] <- [C1 C2] Q_lq^T`.  The k-th
/// reflector touches column `k` of `c1` and columns `0..=k` of `c2`; the
/// triangular structure of `v2` is respected, so whatever its strictly
/// upper part holds (typically the row-wise vectors of an earlier GELQT) is
/// never read.
pub fn ttmlq(c1: &mut Matrix, c2: &mut Matrix, v2: &Matrix, tf: &TFactor) {
    check_pair("TTMLQ", c1, c2, v2, tf);
    wy::apply_right(Shape::Triangle, (v2.data(), v2.rows()), tf, Some(c1), c2);
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

    /// `Q_lq^T` of a TS/TT factorization of an `nb`-row pivot: the apply
    /// run on the `2 nb` identity split into its left and right columns.
    fn pair_qt(
        nb: usize,
        apply: fn(&mut Matrix, &mut Matrix, &Matrix, &TFactor),
        v2: &Matrix,
        tf: &TFactor,
    ) -> Matrix {
        let mut qt = Matrix::identity(2 * nb);
        let mut left = qt.block(0, 0, 2 * nb, nb);
        let mut right = qt.block(0, nb, 2 * nb, nb);
        apply(&mut left, &mut right, v2, tf);
        qt.copy_block(0, 0, &left);
        qt.copy_block(0, nb, &right);
        qt
    }

    #[test]
    fn gelqt_factors_tile() {
        for (m, n) in [(6, 6), (4, 9), (9, 4)] {
            let a0 = random_gaussian(m, n, (m * 10 + n) as u64);
            let mut a = a0.clone();
            let tf = gelqt(&mut a);
            let l = lower_triangle_of(&a);
            let mut qt = Matrix::identity(n);
            unmlq(&tf, &mut qt);
            assert!(orthogonality_error(&qt) < 1e-13, "{m}x{n}");
            assert!(relative_error(&l, &a0.matmul(&qt)) < 1e-13, "{m}x{n}");
        }
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
        unmlq(&tf, &mut l);
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

        // [L1_0 A2_0] Q^T = [L1_new 0] for some orthogonal Q (2nb x 2nb).
        let qt = pair_qt(nb, tsmlq, &a2, &tf);
        assert!(orthogonality_error(&qt) < 1e-12);

        let mut lhs = Matrix::zeros(nb, 2 * nb);
        lhs.copy_block(0, 0, &l1_0);
        lhs.copy_block(0, nb, &a2_0);
        let mut lnew = Matrix::zeros(nb, 2 * nb);
        lnew.copy_block(0, 0, &lower_triangle_of(&l1));
        assert!(relative_error(&lnew, &lhs.matmul(&qt)) < 1e-12);
    }

    #[test]
    fn ttlqt_factorization_is_consistent() {
        let nb = 4;
        let mut l1 = lower_triangle_of(&random_gaussian(nb, nb, 90));
        let mut l2 = lower_triangle_of(&random_gaussian(nb, nb, 91));
        let l1_0 = l1.clone();
        let l2_0 = l2.clone();
        let tf = ttlqt(&mut l1, &mut l2);
        let qt = pair_qt(nb, ttmlq, &l2, &tf);
        assert!(orthogonality_error(&qt) < 1e-12);

        let mut lhs = Matrix::zeros(nb, 2 * nb);
        lhs.copy_block(0, 0, &l1_0);
        lhs.copy_block(0, nb, &l2_0);
        let mut lnew = Matrix::zeros(nb, 2 * nb);
        lnew.copy_block(0, 0, &lower_triangle_of(&l1));
        assert!(relative_error(&lnew, &lhs.matmul(&qt)) < 1e-12);
    }
}
