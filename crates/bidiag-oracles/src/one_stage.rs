//! The one-stage bidiagonalizations the tiled pipeline is cross-checked
//! against: no tiles, no trees, no band.
//!
//! * [`one_stage_singular_values`] — the LAPACK `GEBRD` algorithm class
//!   (what ScaLAPACK's `PxGEBRD` and MKL before its two-stage rewrite run):
//!   reduce the dense matrix directly to bidiagonal form with alternating
//!   column/row Householder reflectors.  Roughly half of its flops are
//!   matrix-vector products that cannot be blocked, which is the contrast
//!   the paper's two-stage tiled approach is built on.
//! * [`chan_singular_values`] — Chan's algorithm: Householder QR of the
//!   `m x n` matrix, then the one-stage reduction of the square `R` factor
//!   (the switch Elemental applies when `m >= 1.2 n`; the paper's R-BIDIAG
//!   is its tiled, tree-driven descendant).
//!
//! Both finish with the bisection oracle, not the production dqds.

use bidiag_kernels::gebd2::gebd2;
use bidiag_kernels::qr::geqrt;
use bidiag_matrix::Matrix;
use bidiag_svd::bisection_singular_values;

/// `a`, or its transpose when it is wide: both reductions expect `m >= n`.
fn tall(a: &Matrix) -> Matrix {
    if a.rows() >= a.cols() {
        a.clone()
    } else {
        a.transpose()
    }
}

/// All singular values of `a` by the one-stage reduction (GEBD2 +
/// bisection), in non-increasing order.
pub fn one_stage_singular_values(a: &Matrix) -> Vec<f64> {
    let b = gebd2(&mut tall(a));
    bisection_singular_values(&b.diag, &b.superdiag)
}

/// All singular values of `a` by Chan's algorithm (QR + one-stage
/// reduction of `R`), in non-increasing order.
pub fn chan_singular_values(a: &Matrix) -> Vec<f64> {
    let mut w = tall(a);
    let n = w.cols();
    // Dense Householder QR (blocked); keep only the R factor.
    geqrt(&mut w);
    let mut r = Matrix::from_fn(n, n, |i, j| if i <= j { w.get(i, j) } else { 0.0 });
    let b = gebd2(&mut r);
    bisection_singular_values(&b.diag, &b.superdiag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bidiag_matrix::checks::singular_values_match;
    use bidiag_matrix::gen::{latms, SpectrumKind};

    #[test]
    fn recovers_prescribed_spectrum() {
        let (a, sigma) = latms(25, 14, &SpectrumKind::Geometric { cond: 1e5 }, 4);
        let s = one_stage_singular_values(&a);
        assert!(singular_values_match(&s, &sigma, 1e-11));
    }

    #[test]
    fn wide_input_is_transposed() {
        let (a, sigma) = latms(6, 20, &SpectrumKind::Arithmetic { cond: 10.0 }, 5);
        let s = one_stage_singular_values(&a);
        assert!(singular_values_match(&s, &sigma, 1e-11));
    }

    #[test]
    fn chan_recovers_prescribed_spectrum_tall() {
        let (a, sigma) = latms(40, 10, &SpectrumKind::Geometric { cond: 1e4 }, 6);
        let s = chan_singular_values(&a);
        assert!(singular_values_match(&s, &sigma, 1e-11));
    }

    #[test]
    fn chan_agrees_with_one_stage_on_square() {
        let (a, _) = latms(15, 15, &SpectrumKind::Arithmetic { cond: 100.0 }, 7);
        let s1 = chan_singular_values(&a);
        let s2 = one_stage_singular_values(&a);
        assert!(singular_values_match(&s1, &s2, 1e-11));
    }
}
