//! Element-wise modified Gram–Schmidt, run twice (MGS2).
//!
//! The reference for `bidiag_matrix::gen::random_orthonormal`, which
//! computes the same `Q` block by block through the packed GEMM (BCGS2):
//! on full-rank input both give the thin-QR `Q` factor with a positive `R`
//! diagonal, and differ only by rounding.

use bidiag_matrix::Matrix;

/// Orthonormalize the columns of `a` in place with modified Gram–Schmidt,
/// two passes per column, one element at a time, and return the result.
///
/// # Panics
/// If a column is exactly dependent on the ones before it.
pub fn orthonormal_columns(mut a: Matrix) -> Matrix {
    let n = a.cols();
    for j in 0..n {
        for _ in 0..2 {
            for k in 0..j {
                let mut dot = 0.0;
                for i in 0..a.rows() {
                    dot += a.get(i, k) * a.get(i, j);
                }
                for i in 0..a.rows() {
                    let v = a.get(i, j) - dot * a.get(i, k);
                    a.set(i, j, v);
                }
            }
        }
        let nrm: f64 = (0..a.rows())
            .map(|i| a.get(i, j).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(nrm > 0.0, "rank-deficient input");
        for i in 0..a.rows() {
            let v = a.get(i, j) / nrm;
            a.set(i, j, v);
        }
    }
    a
}
