//! Singular values of a bidiagonal matrix (`BD2VAL`).
//!
//! The solvers themselves live in the dedicated [`bidiag_svd`] subsystem
//! crate — the dqds production path and the per-value bisection oracle
//! behind one [`bidiag_svd::Bd2ValOptions`] switch; this module
//! re-exports them and keeps the historical
//! kernel-level entry points:
//!
//! * [`bidiagonal_singular_values`] — the *bisection oracle* (unchanged
//!   numerics contract: maximally robust, one independent bracket per
//!   value), the reference of every property test,
//! * [`singular_values`] — the same oracle over a [`Bidiagonal`] factor.
//!
//! Production callers pick their algorithm through
//! [`bidiag_svd::singular_values_with`] (the GE2VAL pipeline defaults to
//! dqds); see the `bidiag-svd` crate docs for the two algorithms.

use crate::gebd2::Bidiagonal;

pub use bidiag_svd::{
    bisection_singular_values, dqds_singular_values, singular_values_with, Bd2ValOptions,
    GkBisection, GkSturm, SvdSolver,
};

/// Singular values of the bidiagonal matrix with main diagonal `d` and
/// superdiagonal `e`, returned in non-increasing order.
///
/// Runs the per-value bisection oracle to relative accuracy (see
/// [`GkBisection`]); this is the reference-numerics path — the pipeline's
/// production solver is selected via [`Bd2ValOptions`] instead.
pub fn bidiagonal_singular_values(d: &[f64], e: &[f64]) -> Vec<f64> {
    bisection_singular_values(d, e)
}

/// Convenience wrapper over [`bidiagonal_singular_values`] for a
/// [`Bidiagonal`] factor.
pub fn singular_values(b: &Bidiagonal) -> Vec<f64> {
    bidiagonal_singular_values(&b.diag, &b.superdiag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gebd2::gebd2;
    use bidiag_matrix::checks::singular_values_match;
    use bidiag_matrix::gen::{latms, random_gaussian, SpectrumKind};
    use bidiag_matrix::Matrix;
    use bidiag_oracles::jacobi_singular_values;

    #[test]
    fn diagonal_matrix_singular_values() {
        let d = vec![3.0, -1.0, 2.0];
        let e = vec![0.0, 0.0];
        let s = bidiagonal_singular_values(&d, &e);
        assert!(singular_values_match(&s, &[3.0, 2.0, 1.0], 1e-14));
    }

    #[test]
    fn two_by_two_known_values() {
        // B = [[1, 1], [0, 1]]: singular values are golden-ratio related:
        // sigma = sqrt((3 +- sqrt(5)) / 2).
        let s = bidiagonal_singular_values(&[1.0, 1.0], &[1.0]);
        let expected = [
            ((3.0 + 5.0_f64.sqrt()) / 2.0).sqrt(),
            ((3.0 - 5.0_f64.sqrt()) / 2.0).sqrt(),
        ];
        assert!(singular_values_match(&s, &expected, 1e-13));
    }

    #[test]
    fn matches_jacobi_on_random_bidiagonal() {
        for n in [5usize, 16, 33] {
            let g = random_gaussian(n, 2, n as u64);
            let d: Vec<f64> = (0..n).map(|i| g.get(i, 0)).collect();
            let e: Vec<f64> = (0..n - 1).map(|i| g.get(i, 1)).collect();
            let mut b = Matrix::zeros(n, n);
            for i in 0..n {
                b[(i, i)] = d[i];
                if i + 1 < n {
                    b[(i, i + 1)] = e[i];
                }
            }
            let s_bis = bidiagonal_singular_values(&d, &e);
            let s_jac = jacobi_singular_values(&b);
            assert!(singular_values_match(&s_bis, &s_jac, 1e-11), "n = {n}");
        }
    }

    #[test]
    fn recovers_prescribed_spectrum_through_gebd2() {
        let spectrum = vec![5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.25, 0.01];
        let (a, sigma) = latms(20, 8, &SpectrumKind::Explicit(spectrum), 123);
        let mut w = a.clone();
        let bd = gebd2(&mut w);
        let s = singular_values(&bd);
        assert!(singular_values_match(&s, &sigma, 1e-12));
    }

    #[test]
    fn zero_matrix_and_empty_edge_cases() {
        assert!(bidiagonal_singular_values(&[], &[]).is_empty());
        let s = bidiagonal_singular_values(&[0.0, 0.0], &[0.0]);
        assert!(singular_values_match(&s, &[0.0, 0.0], 1e-14));
    }

    #[test]
    fn tiny_singular_values_resolved() {
        let d = vec![1.0, 1e-8, 1.0];
        let e = vec![0.0, 0.0];
        let s = bidiagonal_singular_values(&d, &e);
        assert!((s[2] - 1e-8).abs() < 1e-15, "tiny value lost: {}", s[2]);
    }

    #[test]
    fn dqds_agrees_with_oracle_through_gebd2() {
        let (a, sigma) = latms(24, 12, &SpectrumKind::Geometric { cond: 1.0e6 }, 9);
        let mut w = a.clone();
        let bd = gebd2(&mut w);
        let oracle = singular_values(&bd);
        let s = singular_values_with(&bd.diag, &bd.superdiag, &Bd2ValOptions::default());
        assert!(singular_values_match(&s, &oracle, 1e-13));
        assert!(singular_values_match(&s, &sigma, 1e-12));
    }
}
