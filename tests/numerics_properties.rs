//! Property-based tests of the numerical kernels and of the full pipeline on
//! randomly generated spectra and shapes.

use bidiag_kernels::qr::geqrt;
use bidiag_matrix::checks::{orthogonality_error, relative_error};
use bidiag_oracles::{build_q, jacobi_singular_values};
use bidiag_repro::prelude::*;
use proptest::prelude::*;

fn spectrum_strategy(k: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..10.0, k)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// GE2VAL recovers an arbitrary prescribed spectrum to machine precision
    /// for random shapes, tile sizes, algorithms and trees.
    #[test]
    fn ge2val_recovers_arbitrary_spectra(
        raw in spectrum_strategy(10),
        extra_rows in 0usize..30,
        nb in 3usize..9,
        rbidiag in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        let n = raw.len();
        let m = n + extra_rows;
        let (a, sigma) = latms(m, n, &SpectrumKind::Explicit(raw), seed);
        let alg = if rbidiag { AlgorithmChoice::RBidiag } else { AlgorithmChoice::Bidiag };
        let sv = ge2val(&a, &Ge2Options::new(nb).with_algorithm(alg)).singular_values;
        prop_assert!(singular_values_match(&sv, &sigma, 1e-9),
            "spectrum lost for {}x{} nb={} rbidiag={}", m, n, nb, rbidiag);
    }

    /// Tiled GE2VAL agrees with the (independent) one-sided Jacobi SVD on
    /// random Gaussian matrices.
    #[test]
    fn ge2val_matches_jacobi(m in 6usize..40, dn in 0usize..20, nb in 3usize..8, seed in 0u64..1000) {
        let n = (m - dn.min(m - 1)).max(1);
        let a = random_gaussian(m, n, seed);
        let sv = ge2val(&a, &Ge2Options::new(nb)).singular_values;
        let oracle = jacobi_singular_values(&a);
        prop_assert!(singular_values_match(&sv, &oracle, 1e-9));
    }

    /// The tile QR kernel always produces an orthogonal factor and an exact
    /// factorization.
    #[test]
    fn geqrt_factorization_properties(m in 1usize..24, n in 1usize..24, seed in 0u64..1000) {
        let a0 = random_gaussian(m, n, seed);
        let mut a = a0.clone();
        let tf = geqrt(&mut a);
        let q = build_q(&a, tf.taus());
        let r = Matrix::from_fn(m, n, |i, j| if j >= i { a.get(i, j) } else { 0.0 });
        prop_assert!(orthogonality_error(&q) < 1e-12);
        prop_assert!(relative_error(&a0, &q.matmul(&r)) < 1e-12);
    }

    /// Band reduction preserves singular values for random bandwidths.
    #[test]
    fn band_reduction_preserves_spectrum(n in 2usize..28, bw in 1usize..8, seed in 0u64..1000) {
        let bw = bw.min(n - 1).max(1);
        let g = random_gaussian(n, n, seed);
        let mut band = BandMatrix::zeros(n, bw);
        for i in 0..n {
            for j in i..=(i + bw).min(n - 1) {
                band.set(i, j, g.get(i, j));
            }
        }
        let reference = jacobi_singular_values(&band.to_dense());
        let mut work = band.clone();
        let bd = work.reduce_to_bidiagonal();
        let reduced = bidiagonal_singular_values(&bd.diag, &bd.superdiag);
        prop_assert!(singular_values_match(&reference, &reduced, 1e-9));
    }

    /// The Frobenius norm is preserved by the whole GE2BND stage
    /// (orthogonal invariance), for both algorithms.
    #[test]
    fn ge2bnd_preserves_frobenius_norm(m in 4usize..40, dn in 0usize..20, nb in 3usize..8, seed in 0u64..1000) {
        let n = (m - dn.min(m - 1)).max(2).min(m);
        let a = random_gaussian(m, n, seed);
        for alg in [AlgorithmChoice::Bidiag, AlgorithmChoice::RBidiag] {
            let r = ge2bnd(&a, &Ge2Options::new(nb).with_algorithm(alg));
            prop_assert!((r.band.norm_fro() - a.norm_fro()).abs() < 1e-9 * a.norm_fro());
        }
    }
}
