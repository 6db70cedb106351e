//! The six LQ-side tile kernels, unblocked: each is the unblocked QR kernel
//! of [`crate::qr`] on the transposed tiles, the reference the blocked LQ
//! kernels of `bidiag_kernels::lq` are compared against.  The applies
//! compute `C Q_lq^T`, the transpose of the QR side's `Q^T C^T`.

use crate::qr::{
    geqrt_unblocked, tsmqr_unblocked, tsqrt_unblocked, ttmqr_unblocked, ttqrt_unblocked,
    unmqr_unblocked,
};
use bidiag_matrix::Matrix;

/// GELQT, unblocked reference returning the raw `tau` scalars.
pub fn gelqt_unblocked(a: &mut Matrix) -> Vec<f64> {
    let mut at = a.transpose();
    let taus = geqrt_unblocked(&mut at);
    *a = at.transpose();
    taus
}

/// UNMLQ, unblocked reference (transpose wrapper over the unblocked UNMQR).
pub fn unmlq_unblocked(v: &Matrix, taus: &[f64], c: &mut Matrix) {
    let vq = v.transpose();
    let mut ct = c.transpose();
    unmqr_unblocked(&vq, taus, &mut ct);
    *c = ct.transpose();
}

/// TSLQT, unblocked reference.
pub fn tslqt_unblocked(l1: &mut Matrix, a2: &mut Matrix) -> Vec<f64> {
    let mut l1t = l1.transpose();
    let mut a2t = a2.transpose();
    let taus = tsqrt_unblocked(&mut l1t, &mut a2t);
    *l1 = l1t.transpose();
    *a2 = a2t.transpose();
    taus
}

/// TSMLQ, unblocked reference.
pub fn tsmlq_unblocked(c1: &mut Matrix, c2: &mut Matrix, v2: &Matrix, taus: &[f64]) {
    let v2t = v2.transpose();
    let mut c1t = c1.transpose();
    let mut c2t = c2.transpose();
    tsmqr_unblocked(&mut c1t, &mut c2t, &v2t, taus);
    *c1 = c1t.transpose();
    *c2 = c2t.transpose();
}

/// TTLQT, unblocked reference.
pub fn ttlqt_unblocked(l1: &mut Matrix, l2: &mut Matrix) -> Vec<f64> {
    let mut l1t = l1.transpose();
    let mut l2t = l2.transpose();
    let taus = ttqrt_unblocked(&mut l1t, &mut l2t);
    *l1 = l1t.transpose();
    *l2 = l2t.transpose();
    taus
}

/// TTMLQ, unblocked reference.
pub fn ttmlq_unblocked(c1: &mut Matrix, c2: &mut Matrix, v2: &Matrix, taus: &[f64]) {
    let v2t = v2.transpose();
    let mut c1t = c1.transpose();
    let mut c2t = c2.transpose();
    ttmqr_unblocked(&mut c1t, &mut c2t, &v2t, taus);
    *c1 = c1t.transpose();
    *c2 = c2t.transpose();
}
