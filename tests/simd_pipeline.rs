//! Full-pipeline forced-backend equivalence: GE2VAL (GE2BND bulge-chased to
//! bidiagonal, then BD2VAL) run end-to-end under every SIMD backend the
//! host supports (scalar, AVX2, AVX-512) must recover the same spectrum.
//!
//! Two pins per case:
//!
//! * every backend matches the *prescribed* LATMS spectrum to `1e-10` (the
//!   pipeline's own accuracy contract — a backend must not merely be
//!   self-consistent, it must be right), and
//! * the backends match *each other*, pairwise, to `1e-12`: tighter than
//!   the accuracy bound, because the only divergence is fused-vs-unfused
//!   multiply-adds and summation order propagated through orthogonal
//!   transforms, which are norm-preserving and cannot amplify the gap.

use bidiag_matrix::simd;
use bidiag_repro::prelude::*;

#[test]
fn ge2val_spectra_agree_across_backends() {
    for (m, n, nb, cond, seed) in [
        (48usize, 32usize, 8usize, 1.0e3, 1u64),
        (60, 24, 6, 1.0e4, 7),
        (33, 33, 5, 1.0e2, 11),
    ] {
        let (a, sigma) = latms(m, n, &SpectrumKind::Geometric { cond }, seed);
        for alg in [AlgorithmChoice::Bidiag, AlgorithmChoice::RBidiag] {
            let results = simd::on_each_backend(|| {
                ge2val(&a, &Ge2Options::new(nb).with_algorithm(alg)).singular_values
            });
            for (i, (be, sv)) in results.iter().enumerate() {
                assert!(
                    singular_values_match(sv, &sigma, 1.0e-10),
                    "{alg:?} {be:?} backend lost the spectrum: {:e}",
                    singular_value_error(sv, &sigma)
                );
                for (other, theirs) in &results[..i] {
                    assert!(
                        singular_values_match(theirs, sv, 1.0e-12),
                        "{alg:?} {other:?} and {be:?} diverged: {:e} ({m}x{n} nb={nb})",
                        singular_value_error(theirs, sv)
                    );
                }
            }
        }
    }
}
