//! Singular values of a bidiagonal matrix (`BD2VAL`).
//!
//! The solver lives in the dedicated [`bidiag_svd`] subsystem crate; this
//! module re-exports it at the kernel level: [`dqds_singular_values`], the
//! one production solver, and [`bisection_singular_values`], the slow
//! per-value reference every property test compares against (maximally
//! robust, one independent bracket per value).

pub use bidiag_svd::{bisection_singular_values, dqds_singular_values};

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
        let s = bisection_singular_values(&d, &e);
        assert!(singular_values_match(&s, &[3.0, 2.0, 1.0], 1e-14));
    }

    #[test]
    fn two_by_two_known_values() {
        // B = [[1, 1], [0, 1]]: singular values are golden-ratio related:
        // sigma = sqrt((3 +- sqrt(5)) / 2).
        let s = bisection_singular_values(&[1.0, 1.0], &[1.0]);
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
            let s_bis = bisection_singular_values(&d, &e);
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
        let s = bisection_singular_values(&bd.diag, &bd.superdiag);
        assert!(singular_values_match(&s, &sigma, 1e-12));
    }

    #[test]
    fn zero_matrix_and_empty_edge_cases() {
        assert!(bisection_singular_values(&[], &[]).is_empty());
        let s = bisection_singular_values(&[0.0, 0.0], &[0.0]);
        assert!(singular_values_match(&s, &[0.0, 0.0], 1e-14));
    }

    #[test]
    fn tiny_singular_values_resolved() {
        let d = vec![1.0, 1e-8, 1.0];
        let e = vec![0.0, 0.0];
        let s = bisection_singular_values(&d, &e);
        assert!((s[2] - 1e-8).abs() < 1e-15, "tiny value lost: {}", s[2]);
    }

    #[test]
    fn dqds_agrees_with_oracle_through_gebd2() {
        let (a, sigma) = latms(24, 12, &SpectrumKind::Geometric { cond: 1.0e6 }, 9);
        let mut w = a.clone();
        let bd = gebd2(&mut w);
        let oracle = bisection_singular_values(&bd.diag, &bd.superdiag);
        let s = dqds_singular_values(&bd.diag, &bd.superdiag);
        assert!(singular_values_match(&s, &oracle, 1e-13));
        assert!(singular_values_match(&s, &sigma, 1e-12));
    }
}
