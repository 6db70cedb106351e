//! The six QR-side tile kernels, unblocked: the Householder reflectors are
//! generated and applied one by one, exactly mirroring LAPACK
//! `xGEQRT2`/`xTPQRT2`.
//!
//! They are the numerical reference the blocked compact-WY kernels of
//! `bidiag_kernels::qr` are compared against, and they define the storage
//! convention both share: `R` in the upper triangle, Householder vectors
//! below (GEQRT), dense vectors in the second tile (TSQRT), triangular
//! vectors in the second tile (TTQRT).  Factorizations return the `tau`
//! scalars, one per reflector; applies take them (a blocked factor's
//! [`TFactor::taus`](bidiag_kernels::TFactor::taus) will do) and, like the
//! blocked kernels, apply `Q^T = H_{k-1} ... H_0`: reflector `0` first.

use bidiag_kernels::householder::larfg;
use bidiag_matrix::Matrix;

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
/// one from the left, `C <- Q^T C`.
pub fn unmqr_unblocked(v: &Matrix, taus: &[f64], c: &mut Matrix) {
    let m = c.rows();
    assert_eq!(v.rows(), m, "UNMQR: V and C row mismatch");
    let n = c.cols();
    for (k, &tau) in taus.iter().enumerate() {
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
pub fn tsmqr_unblocked(a1: &mut Matrix, a2: &mut Matrix, v2: &Matrix, taus: &[f64]) {
    let n = a1.cols();
    assert_eq!(a2.cols(), n, "TSMQR: column mismatch");
    let m2 = a2.rows();
    assert_eq!(v2.rows(), m2, "TSMQR: V2 row mismatch");
    for (k, &tau) in taus.iter().enumerate() {
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

/// The tiles one under the other, as one matrix.
fn stacked(tiles: &[Matrix]) -> Matrix {
    let rows = tiles.iter().map(Matrix::rows).sum();
    let mut s = Matrix::zeros(rows, tiles.first().map_or(0, Matrix::cols));
    let mut r = 0;
    for t in tiles {
        s.copy_block(r, 0, t);
        r += t.rows();
    }
    s
}

/// Cut `s` back into the tiles it was [`stacked`] from.
fn unstack(s: &Matrix, tiles: &mut [Matrix]) {
    let mut r = 0;
    for t in tiles {
        *t = s.block(r, 0, t.rows(), t.cols());
        r += t.rows();
    }
}

/// TSQRT of a stack, unblocked reference: the Householder QR of `r1` on top
/// of the tiles `a`, one under the other — [`tsqrt_unblocked`] of the tiles
/// stacked into one matrix, cut back into them.
pub fn tsqrt_stack_unblocked(r1: &mut Matrix, a: &mut [Matrix]) -> Vec<f64> {
    let mut s = stacked(a);
    let taus = tsqrt_unblocked(r1, &mut s);
    unstack(&s, a);
    taus
}

/// TSMQR of a stack, unblocked reference: [`tsmqr_unblocked`] of `a1` on
/// top of the tiles `a`, with the reflector tiles `v` (one per tile of
/// `a`), each stacked into one matrix.
pub fn tsmqr_stack_unblocked(a1: &mut Matrix, a: &mut [Matrix], v: &[Matrix], taus: &[f64]) {
    let mut s = stacked(a);
    tsmqr_unblocked(a1, &mut s, &stacked(v), taus);
    unstack(&s, a);
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
pub fn ttmqr_unblocked(a1: &mut Matrix, a2: &mut Matrix, v2: &Matrix, taus: &[f64]) {
    let n = a1.cols();
    assert_eq!(a2.cols(), n, "TTMQR: column mismatch");
    for (k, &tau) in taus.iter().enumerate() {
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

/// Explicitly build the `m x m` orthogonal factor of a GEQRT'd tile
/// (cost `O(m^3)`).
pub fn build_q(v: &Matrix, taus: &[f64]) -> Matrix {
    let mut qt = Matrix::identity(v.rows());
    // `Q^T I`, transposed.
    unmqr_unblocked(v, taus, &mut qt);
    qt.transpose()
}
