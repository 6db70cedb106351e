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
//! Two implementations live side by side:
//!
//! * The **blocked** kernels (`geqrt`, `unmqr`, ...) are the production data
//!   plane, and thin callers of one fused compact-WY chunk kernel
//!   ([`crate::wy`]): they differ only in the `Shape` of the stored
//!   reflector tails — unit-lower trapezoid in the tile itself (GEQRT /
//!   UNMQR), full columns of the second tile (TS), upper triangle of the
//!   second tile (TT).  Factorizations are level 3: an `IB`-wide panel is
//!   factored unblocked on contiguous column slices, its block of the
//!   compact-WY `T` factor built by the chunk-local `xLARFT` recurrence
//!   (the only part of `T` the chunked applies consume — see [`TFactor`]),
//!   and the trailing columns updated by the same chunk apply the apply
//!   kernels run, `W = V_p^T C; W = op(T) W; C -= V_p W`, straight off the
//!   column-major tiles.  Nothing is packed, transposed or allocated
//!   besides the returned [`TFactor`], and the SIMD backend is dispatched
//!   once per kernel call.
//! * The **unblocked** references (`geqrt_unblocked`, `unmqr_unblocked`, ...)
//!   apply the Householder reflectors one by one, exactly mirroring LAPACK
//!   `xGEQRT2`/`xTPQRT2`.  They are the numerical oracle the property tests
//!   compare the blocked kernels against, and they define the storage
//!   convention both share: `R` in the upper triangle, Householder vectors
//!   below (GEQRT), dense vectors in the second tile (TSQRT), triangular
//!   vectors in the second tile (TTQRT).

use crate::householder::larfg;
use crate::wy::{self, Shape, TFactor};
use bidiag_matrix::Matrix;

/// Whether an apply kernel applies `Q^T` (used by factorizations) or `Q`
/// (used when reconstructing / applying backward transformations).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trans {
    /// Apply `Q^T` (reflectors in forward order).
    Transpose,
    /// Apply `Q` (reflectors in reverse order).
    NoTranspose,
}

/// GEQRT: in-place Householder QR of a tile, with the compact-WY `T` factor
/// built alongside.
///
/// On exit the upper triangle of `a` holds `R` and the strictly lower part
/// holds the Householder vectors (unit diagonal implicit).  Returns the
/// [`TFactor`] (`tau` scalars + upper-triangular `T` blocks) consumed by
/// [`unmqr`].
pub fn geqrt(a: &mut Matrix) -> TFactor {
    wy::factor(Shape::Trapezoid, None, a)
}

/// UNMQR: apply the orthogonal factor of a GEQRT'd tile to `c` from the left
/// as the chunked compact-WY product `C -= V op(T) (V^T C)`.
///
/// `v` is the factored tile (Householder vectors in its strictly lower
/// part — its upper triangle, `R`, is never read), `tf` the factor returned
/// by [`geqrt`].
pub fn unmqr(v: &Matrix, tf: &TFactor, c: &mut Matrix, trans: Trans) {
    assert_eq!(v.rows(), c.rows(), "UNMQR: V and C row mismatch");
    wy::apply(Shape::Trapezoid, v, tf, None, c, trans);
}

/// TSQRT: QR of a triangle stacked on top of a square tile, with the
/// compact-WY `T` factor built alongside.
///
/// `r1` is an upper-triangular tile (the current `R` of the pivot row) and
/// `a2` a full tile below it.  On exit `r1` holds the updated `R` and `a2`
/// holds the (dense) Householder vectors.  Returns the [`TFactor`].
pub fn tsqrt(r1: &mut Matrix, a2: &mut Matrix) -> TFactor {
    assert_eq!(a2.cols(), r1.cols(), "TSQRT: column mismatch");
    wy::factor(Shape::Square, Some(r1), a2)
}

/// TSMQR: apply the reflectors produced by [`tsqrt`] to the tile pair
/// `(a1, a2)` from the left.  `a1` lives in the pivot tile row and `a2` in
/// the eliminated tile row; `v2` is the tile holding the dense Householder
/// vectors (the `a2` output of [`tsqrt`]).
///
/// This is the heaviest kernel of the factorization (Table I weight 12).
pub fn tsmqr(a1: &mut Matrix, a2: &mut Matrix, v2: &Matrix, tf: &TFactor, trans: Trans) {
    assert_eq!(a2.cols(), a1.cols(), "TSMQR: column mismatch");
    assert_eq!(v2.rows(), a2.rows(), "TSMQR: V2 row mismatch");
    assert!(
        a1.rows() >= tf.len(),
        "TSMQR: A1 has fewer rows than reflectors"
    );
    wy::apply(Shape::Square, v2, tf, Some(a1), a2, trans);
}

/// TTQRT: QR of a triangle stacked on top of another triangle, with the
/// compact-WY `T` factor built alongside.
///
/// Both `r1` and `r2` are upper-triangular tiles.  On exit `r1` holds the
/// combined `R` and `r2` holds the Householder vectors (column `k` has
/// non-zeros only in rows `0..=k`, preserving the triangular storage — the
/// strictly lower part of `r2` is neither read nor written).
pub fn ttqrt(r1: &mut Matrix, r2: &mut Matrix) -> TFactor {
    assert_eq!(r2.cols(), r1.cols(), "TTQRT: column mismatch");
    wy::factor(Shape::Triangle, Some(r1), r2)
}

/// TTMQR: apply the reflectors produced by [`ttqrt`] to the tile pair
/// `(a1, a2)` from the left.  The k-th reflector touches row `k` of `a1`
/// and rows `0..=k` of `a2`; the triangular structure of `v2` is respected,
/// so whatever the strictly lower part of the `v2` tile holds (typically the
/// Householder vectors of an earlier GEQRT) is never read.
pub fn ttmqr(a1: &mut Matrix, a2: &mut Matrix, v2: &Matrix, tf: &TFactor, trans: Trans) {
    assert_eq!(a2.cols(), a1.cols(), "TTMQR: column mismatch");
    assert_eq!(v2.rows(), a2.rows(), "TTMQR: V2 row mismatch");
    assert!(
        a1.rows() >= tf.len(),
        "TTMQR: A1 has fewer rows than reflectors"
    );
    wy::apply(Shape::Triangle, v2, tf, Some(a1), a2, trans);
}

/// GEQRT, unblocked reference: apply the Householder reflectors one by one.
/// Returns the `tau` scalars, one per reflector.
pub fn geqrt_unblocked(a: &mut Matrix) -> Vec<f64> {
    let m = a.rows();
    let n = a.cols();
    let kmax = m.min(n);
    let mut taus = Vec::with_capacity(kmax);
    for k in 0..kmax {
        // Generate the reflector for column k, rows k..m.
        let alpha = a.get(k, k);
        let mut tail: Vec<f64> = (k + 1..m).map(|i| a.get(i, k)).collect();
        let r = larfg(alpha, &mut tail);
        a.set(k, k, r.beta);
        for (idx, i) in (k + 1..m).enumerate() {
            a.set(i, k, tail[idx]);
        }
        // Apply H_k = I - tau v v^T to the trailing columns k+1..n.
        if r.tau != 0.0 {
            for j in (k + 1)..n {
                let mut w = a.get(k, j);
                for (idx, i) in (k + 1..m).enumerate() {
                    w += tail[idx] * a.get(i, j);
                }
                w *= r.tau;
                a.set(k, j, a.get(k, j) - w);
                for (idx, i) in (k + 1..m).enumerate() {
                    a.set(i, j, a.get(i, j) - tail[idx] * w);
                }
            }
        }
        taus.push(r.tau);
    }
    taus
}

/// UNMQR, unblocked reference: apply the reflectors of a GEQRT'd tile one by
/// one from the left.
pub fn unmqr_unblocked(v: &Matrix, taus: &[f64], c: &mut Matrix, trans: Trans) {
    let m = c.rows();
    assert_eq!(v.rows(), m, "UNMQR: V and C row mismatch");
    let kmax = taus.len();
    let order: Vec<usize> = match trans {
        Trans::Transpose => (0..kmax).collect(),
        Trans::NoTranspose => (0..kmax).rev().collect(),
    };
    let n = c.cols();
    for &k in &order {
        let tau = taus[k];
        if tau == 0.0 {
            continue;
        }
        for j in 0..n {
            // w = v_k^T * c[:, j]  with v_k = (0..0, 1, v[k+1..m, k]).
            let mut w = c.get(k, j);
            for i in (k + 1)..m {
                w += v.get(i, k) * c.get(i, j);
            }
            w *= tau;
            c.set(k, j, c.get(k, j) - w);
            for i in (k + 1)..m {
                c.set(i, j, c.get(i, j) - v.get(i, k) * w);
            }
        }
    }
}

/// TSQRT, unblocked reference.
pub fn tsqrt_unblocked(r1: &mut Matrix, a2: &mut Matrix) -> Vec<f64> {
    let n = r1.cols();
    assert_eq!(a2.cols(), n, "TSQRT: column mismatch");
    let m2 = a2.rows();
    let kmax = n.min(r1.rows());
    let mut taus = Vec::with_capacity(kmax);
    for k in 0..kmax {
        let alpha = r1.get(k, k);
        let mut tail: Vec<f64> = (0..m2).map(|i| a2.get(i, k)).collect();
        let r = larfg(alpha, &mut tail);
        r1.set(k, k, r.beta);
        for (i, &t) in tail.iter().enumerate() {
            a2.set(i, k, t);
        }
        if r.tau != 0.0 {
            for j in (k + 1)..n {
                let mut w = r1.get(k, j);
                for (i, &t) in tail.iter().enumerate() {
                    w += t * a2.get(i, j);
                }
                w *= r.tau;
                r1.set(k, j, r1.get(k, j) - w);
                for (i, &t) in tail.iter().enumerate() {
                    a2.set(i, j, a2.get(i, j) - t * w);
                }
            }
        }
        taus.push(r.tau);
    }
    taus
}

/// TSMQR, unblocked reference.
pub fn tsmqr_unblocked(a1: &mut Matrix, a2: &mut Matrix, v2: &Matrix, taus: &[f64], trans: Trans) {
    let n = a1.cols();
    assert_eq!(a2.cols(), n, "TSMQR: column mismatch");
    let m2 = a2.rows();
    assert_eq!(v2.rows(), m2, "TSMQR: V2 row mismatch");
    let kmax = taus.len();
    let order: Vec<usize> = match trans {
        Trans::Transpose => (0..kmax).collect(),
        Trans::NoTranspose => (0..kmax).rev().collect(),
    };
    for &k in &order {
        let tau = taus[k];
        if tau == 0.0 {
            continue;
        }
        for j in 0..n {
            let mut w = a1.get(k, j);
            for i in 0..m2 {
                w += v2.get(i, k) * a2.get(i, j);
            }
            w *= tau;
            a1.set(k, j, a1.get(k, j) - w);
            for i in 0..m2 {
                a2.set(i, j, a2.get(i, j) - v2.get(i, k) * w);
            }
        }
    }
}

/// TTQRT, unblocked reference.
pub fn ttqrt_unblocked(r1: &mut Matrix, r2: &mut Matrix) -> Vec<f64> {
    let n = r1.cols();
    assert_eq!(r2.cols(), n, "TTQRT: column mismatch");
    let kmax = n.min(r1.rows());
    let mut taus = Vec::with_capacity(kmax);
    for k in 0..kmax {
        // Rows of r2 involved in the k-th reflector: 0..=min(k, rows-1).
        let rlen = r2.rows().min(k + 1);
        let alpha = r1.get(k, k);
        let mut tail: Vec<f64> = (0..rlen).map(|i| r2.get(i, k)).collect();
        let r = larfg(alpha, &mut tail);
        r1.set(k, k, r.beta);
        for (i, &t) in tail.iter().enumerate() {
            r2.set(i, k, t);
        }
        if r.tau != 0.0 {
            for j in (k + 1)..n {
                let mut w = r1.get(k, j);
                for (i, &t) in tail.iter().enumerate() {
                    w += t * r2.get(i, j);
                }
                w *= r.tau;
                r1.set(k, j, r1.get(k, j) - w);
                for (i, &t) in tail.iter().enumerate() {
                    r2.set(i, j, r2.get(i, j) - t * w);
                }
            }
        }
        taus.push(r.tau);
    }
    taus
}

/// TTMQR, unblocked reference.
pub fn ttmqr_unblocked(a1: &mut Matrix, a2: &mut Matrix, v2: &Matrix, taus: &[f64], trans: Trans) {
    let n = a1.cols();
    assert_eq!(a2.cols(), n, "TTMQR: column mismatch");
    let kmax = taus.len();
    let order: Vec<usize> = match trans {
        Trans::Transpose => (0..kmax).collect(),
        Trans::NoTranspose => (0..kmax).rev().collect(),
    };
    for &k in &order {
        let tau = taus[k];
        if tau == 0.0 {
            continue;
        }
        let rlen = v2.rows().min(k + 1).min(a2.rows());
        for j in 0..n {
            let mut w = a1.get(k, j);
            for i in 0..rlen {
                w += v2.get(i, k) * a2.get(i, j);
            }
            w *= tau;
            a1.set(k, j, a1.get(k, j) - w);
            for i in 0..rlen {
                a2.set(i, j, a2.get(i, j) - v2.get(i, k) * w);
            }
        }
    }
}

/// Explicitly build the `m x m` orthogonal factor of a GEQRT'd tile.
/// Only used by tests and small examples (cost `O(m^3)`).
pub fn build_q(v: &Matrix, taus: &[f64]) -> Matrix {
    let m = v.rows();
    let mut q = Matrix::identity(m);
    // Q = H_1 ... H_k  =>  apply Q (NoTranspose) to the identity.
    unmqr_unblocked(v, taus, &mut q, Trans::NoTranspose);
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use bidiag_matrix::checks::upper_triangle_of;
    use bidiag_matrix::checks::{orthogonality_error, relative_error};
    use bidiag_matrix::gen::random_gaussian;

    /// Blocked and unblocked factorizations generate reflectors in the same
    /// order, but the blocked panel sweep runs through the SIMD layer (fused
    /// multiply-adds under AVX2), so taus agree to a tight relative
    /// tolerance rather than bitwise.
    fn taus_close(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| (x - y).abs() <= 1e-13 * x.abs().max(y.abs()).max(1.0))
    }

    #[test]
    fn geqrt_factors_square_tile() {
        let a0 = random_gaussian(8, 8, 1);
        let mut a = a0.clone();
        let tf = geqrt(&mut a);
        let r = upper_triangle_of(&a);
        let q = build_q(&a, tf.taus());
        assert!(orthogonality_error(&q) < 1e-13);
        assert!(relative_error(&a0, &q.matmul(&r)) < 1e-13);
    }

    #[test]
    fn blocked_geqrt_matches_unblocked() {
        // Same reflector generation in the same order, so the factored tile
        // and tau scalars agree to the last few ulps (the blocked panel sweep
        // runs through the SIMD layer, whose AVX2 lanes fuse multiply-adds);
        // the T factor is extra information.
        for (m, n) in [(10, 4), (4, 10), (7, 7), (1, 5), (5, 1)] {
            let a0 = random_gaussian(m, n, (m * 100 + n) as u64);
            let mut ab = a0.clone();
            let tf = geqrt(&mut ab);
            let mut au = a0.clone();
            let taus = geqrt_unblocked(&mut au);
            assert!(
                relative_error(&au, &ab) < 1e-13,
                "factored tile differs for {m}x{n}"
            );
            assert!(
                taus_close(tf.taus(), &taus),
                "taus differ for {m}x{n}: {:?} vs {:?}",
                tf.taus(),
                taus
            );
        }
    }

    #[test]
    fn factorizations_survive_extreme_scales() {
        // The panel takes reflector norms from a plain sum of squares and
        // falls back to the scaled norm when that leaves the safe range.
        for scale in [1e150, 1e-150] {
            let mut a0 = random_gaussian(12, 9, 5);
            a0.scale(scale);
            let mut ab = a0.clone();
            let tf = geqrt(&mut ab);
            let mut au = a0.clone();
            let taus = geqrt_unblocked(&mut au);
            assert!(relative_error(&au, &ab) < 1e-13, "scale {scale:e}");
            assert!(taus_close(tf.taus(), &taus), "scale {scale:e}");

            let r1_0 = upper_triangle_of(&ab);
            let mut r2_0 = upper_triangle_of(&random_gaussian(9, 9, 6));
            r2_0.scale(scale);
            let (mut r1b, mut r2b) = (r1_0.clone(), r2_0.clone());
            let tf = ttqrt(&mut r1b, &mut r2b);
            let (mut r1u, mut r2u) = (r1_0.clone(), r2_0.clone());
            let taus = ttqrt_unblocked(&mut r1u, &mut r2u);
            assert!(relative_error(&r1u, &r1b) < 1e-13, "scale {scale:e}");
            assert!(relative_error(&r2u, &r2b) < 1e-13, "scale {scale:e}");
            assert!(taus_close(tf.taus(), &taus), "scale {scale:e}");
        }
    }

    #[test]
    fn unmqr_matches_unblocked_reference() {
        for (m, n) in [(6, 4), (9, 3), (5, 5), (7, 1)] {
            let mut v = random_gaussian(m, m.min(5), 3);
            let tf = geqrt(&mut v);
            let c0 = random_gaussian(m, n, 4);
            for trans in [Trans::Transpose, Trans::NoTranspose] {
                let mut cb = c0.clone();
                unmqr(&v, &tf, &mut cb, trans);
                let mut cu = c0.clone();
                unmqr_unblocked(&v, tf.taus(), &mut cu, trans);
                assert!(
                    relative_error(&cu, &cb) < 1e-13,
                    "blocked UNMQR differs, {m}x{n} {trans:?}"
                );
            }
        }
    }

    #[test]
    fn unmqr_transpose_then_notranspose_is_identity() {
        let mut v = random_gaussian(6, 6, 3);
        let tf = geqrt(&mut v);
        let c0 = random_gaussian(6, 4, 4);
        let mut c = c0.clone();
        unmqr(&v, &tf, &mut c, Trans::Transpose);
        unmqr(&v, &tf, &mut c, Trans::NoTranspose);
        assert!(relative_error(&c0, &c) < 1e-13);
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

        // The stacked matrix [R1_old; A2_old] must equal Q * [R1_new; 0].
        let mut stacked = Matrix::zeros(2 * nb, nb);
        stacked.copy_block(0, 0, &upper_triangle_of(&top));
        stacked.copy_block(nb, 0, &a_bot0);

        // Rebuild Q by applying the TS reflectors to the identity.
        let mut q = Matrix::identity(2 * nb);
        let mut q_top = q.block(0, 0, nb, 2 * nb);
        let mut q_bot = q.block(nb, 0, nb, 2 * nb);
        tsmqr(&mut q_top, &mut q_bot, &a2, &tf, Trans::NoTranspose);
        q.copy_block(0, 0, &q_top);
        q.copy_block(nb, 0, &q_bot);

        let mut rnew = Matrix::zeros(2 * nb, nb);
        rnew.copy_block(0, 0, &upper_triangle_of(&r1));
        assert!(orthogonality_error(&q) < 1e-12);
        assert!(relative_error(&stacked, &q.matmul(&rnew)) < 1e-12);
    }

    #[test]
    fn tsmqr_matches_unblocked_reference() {
        let nb = 5;
        let mut r1 = upper_triangle_of(&random_gaussian(nb, nb, 20));
        let mut v2 = random_gaussian(nb, nb, 21);
        let tf = tsqrt(&mut r1, &mut v2);
        let c1_0 = random_gaussian(nb, 3, 22);
        let c2_0 = random_gaussian(nb, 3, 23);
        for trans in [Trans::Transpose, Trans::NoTranspose] {
            let mut b1 = c1_0.clone();
            let mut b2 = c2_0.clone();
            tsmqr(&mut b1, &mut b2, &v2, &tf, trans);
            let mut u1 = c1_0.clone();
            let mut u2 = c2_0.clone();
            tsmqr_unblocked(&mut u1, &mut u2, &v2, tf.taus(), trans);
            assert!(relative_error(&u1, &b1) < 1e-13, "{trans:?}");
            assert!(relative_error(&u2, &b2) < 1e-13, "{trans:?}");
        }
    }

    #[test]
    fn tsmqr_round_trip() {
        let nb = 5;
        let mut r1 = upper_triangle_of(&random_gaussian(nb, nb, 20));
        let mut v2 = random_gaussian(nb, nb, 21);
        let tf = tsqrt(&mut r1, &mut v2);
        let c1_0 = random_gaussian(nb, 3, 22);
        let c2_0 = random_gaussian(nb, 3, 23);
        let mut c1 = c1_0.clone();
        let mut c2 = c2_0.clone();
        tsmqr(&mut c1, &mut c2, &v2, &tf, Trans::Transpose);
        tsmqr(&mut c1, &mut c2, &v2, &tf, Trans::NoTranspose);
        assert!(relative_error(&c1_0, &c1) < 1e-12);
        assert!(relative_error(&c2_0, &c2) < 1e-12);
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

        let mut q = Matrix::identity(2 * nb);
        let mut q_top = q.block(0, 0, nb, 2 * nb);
        let mut q_bot = q.block(nb, 0, nb, 2 * nb);
        ttmqr(&mut q_top, &mut q_bot, &r2, &tf, Trans::NoTranspose);
        q.copy_block(0, 0, &q_top);
        q.copy_block(nb, 0, &q_bot);

        let mut stacked = Matrix::zeros(2 * nb, nb);
        stacked.copy_block(0, 0, &r1_0);
        stacked.copy_block(nb, 0, &r2_0);
        let mut rnew = Matrix::zeros(2 * nb, nb);
        rnew.copy_block(0, 0, &upper_triangle_of(&r1));
        assert!(orthogonality_error(&q) < 1e-12);
        assert!(relative_error(&stacked, &q.matmul(&rnew)) < 1e-12);
    }

    #[test]
    fn ttmqr_ignores_the_strictly_lower_part_of_v2() {
        // In the real algorithm the strictly lower part of the V2 tile holds
        // the Householder vectors of an earlier GEQRT; the triangular TTMQR
        // must never read them.
        let nb = 5;
        let mut r1 = upper_triangle_of(&random_gaussian(nb, nb, 40));
        let mut r2 = upper_triangle_of(&random_gaussian(nb, nb, 41));
        let tf = ttqrt(&mut r1, &mut r2);
        // Poison the strictly lower part of the V tile.
        let mut poisoned = r2.clone();
        for j in 0..nb {
            for i in (j + 1)..nb {
                poisoned.set(i, j, 1e30);
            }
        }
        let c1_0 = random_gaussian(nb, nb, 42);
        let c2_0 = random_gaussian(nb, nb, 43);
        let mut a1 = c1_0.clone();
        let mut a2 = c2_0.clone();
        ttmqr(&mut a1, &mut a2, &poisoned, &tf, Trans::Transpose);
        let mut u1 = c1_0.clone();
        let mut u2 = c2_0.clone();
        ttmqr_unblocked(&mut u1, &mut u2, &r2, tf.taus(), Trans::Transpose);
        assert!(relative_error(&u1, &a1) < 1e-13);
        assert!(relative_error(&u2, &a2) < 1e-13);
    }

    #[test]
    fn ttmqr_round_trip() {
        let nb = 4;
        let mut r1 = upper_triangle_of(&random_gaussian(nb, nb, 40));
        let mut r2 = upper_triangle_of(&random_gaussian(nb, nb, 41));
        let tf = ttqrt(&mut r1, &mut r2);
        let c1_0 = random_gaussian(nb, nb, 42);
        let c2_0 = random_gaussian(nb, nb, 43);
        let mut c1 = c1_0.clone();
        let mut c2 = c2_0.clone();
        ttmqr(&mut c1, &mut c2, &r2, &tf, Trans::Transpose);
        ttmqr(&mut c1, &mut c2, &r2, &tf, Trans::NoTranspose);
        assert!(relative_error(&c1_0, &c1) < 1e-12);
        assert!(relative_error(&c2_0, &c2) < 1e-12);
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
