//! Chan's algorithm: QR factorization followed by one-stage
//! bidiagonalization of the R factor.
//!
//! Elemental switches to this algorithm when `m >= 1.2 n`; the paper's
//! R-BIDIAG is its tiled, tree-driven descendant.  We implement it directly
//! on dense matrices as a second independent baseline: Householder QR of the
//! `m x n` matrix, then GEBD2 of the square `n x n` R factor.

use bidiag_kernels::gebd2::gebd2;
use bidiag_kernels::qr::geqrt;
use bidiag_kernels::svd::singular_values;
use bidiag_matrix::Matrix;

/// Singular values of `a` via Chan's algorithm (QR + one-stage
/// bidiagonalization of R), in non-increasing order.
pub fn chan_singular_values(a: &Matrix) -> Vec<f64> {
    let mut w = if a.rows() >= a.cols() {
        a.clone()
    } else {
        a.transpose()
    };
    let n = w.cols();
    // Dense Householder QR (blocked); keep only the R factor.
    let _tf = geqrt(&mut w);
    let mut r = Matrix::zeros(n, n);
    for j in 0..n {
        for i in 0..=j.min(w.rows() - 1) {
            r[(i, j)] = w.get(i, j);
        }
    }
    let b = gebd2(&mut r);
    let mut s = singular_values(&b);
    s.sort_by(|x, y| y.partial_cmp(x).unwrap());
    s
}

/// Flop count of Chan's algorithm (`2 n^2 (m + n)` for `m >= n`).
pub fn chan_flops(m: usize, n: usize) -> f64 {
    let (m, n) = if m >= n {
        (m as f64, n as f64)
    } else {
        (n as f64, m as f64)
    };
    2.0 * n * n * (m + n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::one_stage::one_stage_singular_values;
    use bidiag_matrix::checks::singular_values_match;
    use bidiag_matrix::gen::{latms, SpectrumKind};

    #[test]
    fn recovers_prescribed_spectrum_tall() {
        let (a, sigma) = latms(40, 10, &SpectrumKind::Geometric { cond: 1e4 }, 6);
        let s = chan_singular_values(&a);
        assert!(singular_values_match(&s, &sigma, 1e-11));
    }

    #[test]
    fn agrees_with_one_stage_on_square() {
        let (a, _) = latms(15, 15, &SpectrumKind::Arithmetic { cond: 100.0 }, 7);
        let s1 = chan_singular_values(&a);
        let s2 = one_stage_singular_values(&a);
        assert!(singular_values_match(&s1, &s2, 1e-11));
    }

    #[test]
    fn flops_cheaper_than_one_stage_for_tall_matrices() {
        assert!(chan_flops(10_000, 1_000) < crate::one_stage::one_stage_flops(10_000, 1_000));
        assert!(chan_flops(1_000, 1_000) > crate::one_stage::one_stage_flops(1_000, 1_000));
    }
}
