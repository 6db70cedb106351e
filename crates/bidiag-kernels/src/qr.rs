//! Tile kernels for the tiled QR factorization (Table I of the paper).
//!
//! The six kernels and their costs in units of `nb^3 / 3` floating point
//! operations are:
//!
//! | kernel  | role                                   | cost |
//! |---------|----------------------------------------|------|
//! | GEQRT   | factor a square tile into a triangle   | 4    |
//! | UNMQR   | apply the GEQRT reflectors to a tile   | 6    |
//! | TSQRT   | zero a square tile below a triangle    | 6    |
//! | TSMQR   | apply the TSQRT reflectors to a pair   | 12   |
//! | TTQRT   | zero a triangle below a triangle       | 2    |
//! | TTMQR   | apply the TTQRT reflectors to a pair   | 6    |
//!
//! The kernels are thin callers of one fused compact-WY chunk kernel
//! ([`crate::wy`]): they differ only in the `Shape` of the stored reflector
//! tails — unit-lower trapezoid in the tile itself (GEQRT / UNMQR, which
//! reads a copy of that tile from the factor GEQRT returns), full
//! columns of the second tile (TS), upper triangle of the second tile
//! (TT).  Factorizations are level 3: an `IB`-wide panel is factored
//! unblocked on contiguous column slices, its block of the compact-WY `T`
//! factor built by the chunk-local `xLARFT` recurrence (the only part of
//! `T` the chunked applies consume — see [`TFactor`]), and the trailing
//! columns updated by the same chunk apply the apply kernels run,
//! `W = V_p^T C; W = T^T W; C -= V_p W`, straight off the column-major
//! tiles.  The applies compute `Q^T C` only: that is the one product a
//! factorization step needs, and no stage forms or applies `Q`.  Nothing
//! is packed, transposed or allocated besides the returned [`TFactor`], and
//! the SIMD backend is dispatched once per kernel call.
//!
//! The storage convention is LAPACK `xGEQRT`/`xTPQRT`'s: `R` in the upper
//! triangle, Householder vectors below (GEQRT), dense vectors in the second
//! tile (TSQRT), triangular vectors in the second tile (TTQRT).  The tests
//! pin every kernel to an unblocked reference (`bidiag-oracles`) that
//! applies the reflectors one by one.

use crate::wy::{self, Refl, Rows, Shape, TFactor};
use bidiag_matrix::Matrix;

pub use crate::wy::STACK;

/// A tile as the chunk kernels write it.
fn rows(a: &mut Matrix) -> Rows<'_> {
    let m = a.rows();
    (a.data_mut(), m)
}

/// GEQRT: in-place Householder QR of a tile, with the compact-WY `T` factor
/// built alongside.
///
/// On exit the upper triangle of `a` holds `R` and the strictly lower part
/// holds the Householder vectors (unit diagonal implicit).  Returns the
/// [`TFactor`] consumed by [`unmqr`]: the `tau` scalars, the
/// upper-triangular `T` blocks and a copy of the factored tile, so that
/// the apply never reads `a` again.
pub fn geqrt(a: &mut Matrix) -> TFactor {
    let n = a.cols();
    wy::factor(Shape::Trapezoid, None, &mut [rows(a)], n)
}

/// UNMQR: apply the transposed orthogonal factor of a GEQRT'd tile to `c`
/// from the left, `C <- Q^T C`, as the chunked compact-WY product
/// `C -= V T^T (V^T C)`.
///
/// `tf` is the factor returned by [`geqrt`]; the Householder vectors are
/// read from the copy of the factored tile it carries (its strictly lower
/// part — the upper triangle, `R`, is never read).
pub fn unmqr(tf: &TFactor, c: &mut Matrix) {
    let v = tf.reflectors();
    assert_eq!(v.1, c.rows(), "UNMQR: V and C row mismatch");
    let n = c.cols();
    wy::apply(Shape::Trapezoid, &[v], tf, None, &mut [rows(c)], n);
}

/// TSQRT: QR of a triangle stacked on top of a square tile, with the
/// compact-WY `T` factor built alongside.
///
/// `r1` is an upper-triangular tile (the current `R` of the pivot row) and
/// `a2` a full tile below it.  On exit `r1` holds the updated `R` and `a2`
/// holds the (dense) Householder vectors.  Returns the [`TFactor`].  The
/// same call as [`tsqrt_stack`] on a stack of one tile.
pub fn tsqrt(r1: &mut Matrix, a2: &mut Matrix) -> TFactor {
    tsqrt_stack(r1, [a2])
}

/// TSQRT of a stack: QR of the triangle `r1` on top of the tiles `a`, one
/// under the other (at least one, at most [`STACK`]; every tile has the
/// columns of `r1`, the last may have fewer rows), in one call.  Each
/// reflector's tail runs down all of them, so `larfg` sees `d nb + 1` rows
/// and the result is one [`TFactor`], which [`tsmqr_stack`] applies to the
/// matching stack of a trailing tile column.  On exit `r1` holds the
/// updated `R` and the tiles hold the Householder vectors.
pub fn tsqrt_stack<'a>(r1: &mut Matrix, a: impl IntoIterator<Item = &'a mut Matrix>) -> TFactor {
    let n = r1.cols();
    let mut tiles: [Rows<'a>; STACK] = Default::default();
    let mut d = 0;
    for t in a {
        assert!(d < STACK, "TSQRT: more than {STACK} tiles in one stack");
        assert_eq!(t.cols(), n, "TSQRT: column mismatch");
        tiles[d] = rows(t);
        d += 1;
    }
    assert!(d > 0, "TSQRT: no tile to eliminate");
    wy::factor(Shape::Square, Some(r1), &mut tiles[..d], n)
}

/// TSMQR: apply the transposed orthogonal factor of [`tsqrt`] to the tile
/// pair `(a1, a2)` from the left, `[A1; A2] <- Q^T [A1; A2]`.  `a1` lives
/// in the pivot tile row and `a2` in the eliminated tile row; `v2` is the
/// tile holding the dense Householder vectors (the `a2` output of
/// [`tsqrt`]).
///
/// This is the heaviest kernel of the factorization (Table I weight 12).
/// The same call as [`tsmqr_stack`] on a stack of one tile.
pub fn tsmqr(a1: &mut Matrix, a2: &mut Matrix, v2: &Matrix, tf: &TFactor) {
    tsmqr_stack(a1, [a2], [v2], tf);
}

/// TSMQR of a stack: apply the factor of [`tsqrt_stack`] to `a1` and the
/// tiles `a` under it, `[A1; A_0; ...] <- Q^T [A1; A_0; ...]`; `v` are the
/// stack's reflector tiles, one per tile of `a` and with its rows.  `W =
/// A1 + sum_i V_i^T A_i` is formed once, `T` applied once, then `A1 += W`
/// and every `A_i += V_i W`.
pub fn tsmqr_stack<'a, 'v>(
    a1: &mut Matrix,
    a: impl IntoIterator<Item = &'a mut Matrix>,
    v: impl IntoIterator<Item = &'v Matrix>,
    tf: &TFactor,
) {
    let n = a1.cols();
    assert!(
        a1.rows() >= tf.len(),
        "TSMQR: A1 has fewer rows than reflectors"
    );
    let mut tiles: [Rows<'a>; STACK] = Default::default();
    let mut refl: [Refl<'v>; STACK] = Default::default();
    let (mut d, mut v) = (0, v.into_iter());
    for t in a {
        assert!(d < STACK, "TSMQR: more than {STACK} tiles in one stack");
        assert_eq!(t.cols(), n, "TSMQR: column mismatch");
        let vt = v.next().expect("TSMQR: fewer reflector tiles than tiles");
        assert_eq!(vt.rows(), t.rows(), "TSMQR: V2 row mismatch");
        (refl[d], tiles[d]) = ((vt.data(), vt.rows()), rows(t));
        d += 1;
    }
    assert!(d > 0, "TSMQR: no tile to update");
    assert!(v.next().is_none(), "TSMQR: more reflector tiles than tiles");
    wy::apply(Shape::Square, &refl[..d], tf, Some(a1), &mut tiles[..d], n);
}

/// TTQRT: QR of a triangle stacked on top of another triangle, with the
/// compact-WY `T` factor built alongside.
///
/// Both `r1` and `r2` are upper-triangular tiles.  On exit `r1` holds the
/// combined `R` and `r2` holds the Householder vectors (column `k` has
/// non-zeros only in rows `0..=k`, preserving the triangular storage — the
/// strictly lower part of `r2` is neither read nor written).
pub fn ttqrt(r1: &mut Matrix, r2: &mut Matrix) -> TFactor {
    let n = r1.cols();
    assert_eq!(r2.cols(), n, "TTQRT: column mismatch");
    wy::factor(Shape::Triangle, Some(r1), &mut [rows(r2)], n)
}

/// TTMQR: apply the transposed orthogonal factor of [`ttqrt`] to the tile
/// pair `(a1, a2)` from the left, `[A1; A2] <- Q^T [A1; A2]`.  The k-th
/// reflector touches row `k` of `a1` and rows `0..=k` of `a2`; the
/// triangular structure of `v2` is respected, so whatever the strictly
/// lower part of the `v2` tile holds (typically the Householder vectors of
/// an earlier GEQRT) is never read.
pub fn ttmqr(a1: &mut Matrix, a2: &mut Matrix, v2: &Matrix, tf: &TFactor) {
    let n = a1.cols();
    assert_eq!(a2.cols(), n, "TTMQR: column mismatch");
    assert_eq!(v2.rows(), a2.rows(), "TTMQR: V2 row mismatch");
    assert!(
        a1.rows() >= tf.len(),
        "TTMQR: A1 has fewer rows than reflectors"
    );
    let v = [(v2.data(), v2.rows())];
    wy::apply(Shape::Triangle, &v, tf, Some(a1), &mut [rows(a2)], n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bidiag_matrix::checks::upper_triangle_of;
    use bidiag_matrix::checks::{orthogonality_error, relative_error};
    use bidiag_matrix::gen::random_gaussian;

    /// `Q^T` of a TS/TT factorization of an `nb`-column pivot: the apply
    /// run on the `2 nb` identity split into its top and bottom rows.
    fn pair_qt(
        nb: usize,
        apply: fn(&mut Matrix, &mut Matrix, &Matrix, &TFactor),
        v2: &Matrix,
        tf: &TFactor,
    ) -> Matrix {
        let mut qt = Matrix::identity(2 * nb);
        let mut top = qt.block(0, 0, nb, 2 * nb);
        let mut bot = qt.block(nb, 0, nb, 2 * nb);
        apply(&mut top, &mut bot, v2, tf);
        qt.copy_block(0, 0, &top);
        qt.copy_block(nb, 0, &bot);
        qt
    }

    #[test]
    fn geqrt_factors_square_tile() {
        let a0 = random_gaussian(8, 8, 1);
        let mut a = a0.clone();
        let tf = geqrt(&mut a);
        let r = upper_triangle_of(&a);
        let mut qt = Matrix::identity(8);
        unmqr(&tf, &mut qt);
        assert!(orthogonality_error(&qt) < 1e-13);
        assert!(relative_error(&r, &qt.matmul(&a0)) < 1e-13);
    }

    #[test]
    fn tsqrt_zeroes_bottom_tile_and_preserves_factorization() {
        let nb = 6;
        let a_top0 = random_gaussian(nb, nb, 10);
        let a_bot0 = random_gaussian(nb, nb, 11);
        // Start from a GEQRT'd top tile so that r1 is upper triangular.
        let mut top = a_top0.clone();
        let _ = geqrt(&mut top);
        let mut r1 = upper_triangle_of(&top);
        let mut a2 = a_bot0.clone();
        let tf = tsqrt(&mut r1, &mut a2);

        // Q^T [R1_old; A2_old] must equal [R1_new; 0].
        let mut stacked = Matrix::zeros(2 * nb, nb);
        stacked.copy_block(0, 0, &upper_triangle_of(&top));
        stacked.copy_block(nb, 0, &a_bot0);
        let qt = pair_qt(nb, tsmqr, &a2, &tf);

        let mut rnew = Matrix::zeros(2 * nb, nb);
        rnew.copy_block(0, 0, &upper_triangle_of(&r1));
        assert!(orthogonality_error(&qt) < 1e-12);
        assert!(relative_error(&rnew, &qt.matmul(&stacked)) < 1e-12);
    }

    #[test]
    fn ttqrt_zeroes_second_triangle() {
        let nb = 6;
        let mut top = random_gaussian(nb, nb, 30);
        let mut bot = random_gaussian(nb, nb, 31);
        let _ = geqrt(&mut top);
        let _ = geqrt(&mut bot);
        let r1_0 = upper_triangle_of(&top);
        let r2_0 = upper_triangle_of(&bot);
        let mut r1 = r1_0.clone();
        let mut r2 = r2_0.clone();
        let tf = ttqrt(&mut r1, &mut r2);
        let qt = pair_qt(nb, ttmqr, &r2, &tf);

        let mut stacked = Matrix::zeros(2 * nb, nb);
        stacked.copy_block(0, 0, &r1_0);
        stacked.copy_block(nb, 0, &r2_0);
        let mut rnew = Matrix::zeros(2 * nb, nb);
        rnew.copy_block(0, 0, &upper_triangle_of(&r1));
        assert!(orthogonality_error(&qt) < 1e-12);
        assert!(relative_error(&rnew, &qt.matmul(&stacked)) < 1e-12);
    }

    #[test]
    fn ragged_tiles_are_supported() {
        // Bottom tile with fewer rows than the tile size (last tile row).
        let nb = 5;
        let mut r1 = upper_triangle_of(&random_gaussian(nb, nb, 50));
        let mut a2 = random_gaussian(3, nb, 51);
        let tf = tsqrt(&mut r1, &mut a2);
        assert_eq!(tf.len(), nb);
        assert!(r1.is_upper_triangular(1e-12));

        let mut rr1 = upper_triangle_of(&random_gaussian(nb, nb, 52));
        let mut bot = random_gaussian(3, nb, 53);
        let _ = geqrt(&mut bot);
        let mut rr2 = upper_triangle_of(&bot);
        let tf2 = ttqrt(&mut rr1, &mut rr2);
        assert_eq!(tf2.len(), nb);
    }
}
