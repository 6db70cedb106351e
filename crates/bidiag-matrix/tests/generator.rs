//! The LATMS generator against its oracles.
//!
//! `random_orthonormal` runs block Gram–Schmidt twice (BCGS2) over blocks
//! of 32 columns; the shapes below put `n` one short of a block, on one,
//! one past it, and over several, with `m = n` and `m > n`.  The factor
//! must be the element-wise MGS2 `Q` of the same Gaussian draw up to
//! rounding, and `latms` must carry the prescribed spectrum whatever the
//! shape and profile.

use bidiag_matrix::checks::{orthogonality_error, singular_value_error};
use bidiag_matrix::gen::{latms, random_gaussian, random_orthonormal, SpectrumKind};
use bidiag_matrix::simd;
use bidiag_oracles::{jacobi_singular_values, orthonormal_columns};

const SHAPES: [(usize, usize); 7] = [
    (1, 1),
    (7, 3),
    (33, 31),
    (64, 32),
    (64, 64),
    (129, 65),
    (300, 97),
];

#[test]
fn random_orthonormal_matches_element_wise_mgs2() {
    for (i, &(m, n)) in SHAPES.iter().enumerate() {
        let seed = 100 + i as u64;
        let q = random_orthonormal(m, n, seed);
        let want = orthonormal_columns(random_gaussian(m, n, seed));
        let diff = q.sub(&want).norm_max();
        assert!(diff <= 1e-13, "{m}x{n}: max |Q - Q_MGS2| = {diff:e}");
    }
}

#[test]
fn random_orthonormal_has_orthonormal_columns_across_block_edges() {
    for (i, &(m, n)) in SHAPES.iter().enumerate() {
        let q = random_orthonormal(m, n, 200 + i as u64);
        let err = orthogonality_error(&q);
        assert!(err <= 1e-13, "{m}x{n}: ||Q^T Q - I||_max = {err:e}");
    }
}

#[test]
fn latms_carries_every_spectrum_kind_on_square_tall_and_wide_shapes() {
    for (m, n) in [(40, 40), (70, 25), (25, 70)] {
        let k = m.min(n);
        let explicit = (1..=k).map(|i| 1.0 / i as f64).collect();
        for spectrum in [
            SpectrumKind::Uniform,
            SpectrumKind::Geometric { cond: 1e6 },
            SpectrumKind::Arithmetic { cond: 1e3 },
            SpectrumKind::OneLarge { cond: 1e4 },
            SpectrumKind::Explicit(explicit),
        ] {
            let (a, sigma) = latms(m, n, &spectrum, 9);
            assert_eq!((a.rows(), a.cols()), (m, n));
            let err = singular_value_error(&jacobi_singular_values(&a), &sigma);
            assert!(err <= 1e-12, "{m}x{n} {spectrum:?}: error {err:e}");
        }
    }
}

#[test]
fn same_seed_gives_the_same_bits_on_each_backend() {
    let spectrum = SpectrumKind::Geometric { cond: 1e6 };
    for (be, same) in simd::on_each_backend(|| {
        [(129, 65), (65, 129), (64, 64)].iter().all(|&(m, n)| {
            let (a1, s1) = latms(m, n, &spectrum, 5);
            let (a2, s2) = latms(m, n, &spectrum, 5);
            let bits = |a: &bidiag_matrix::Matrix| -> Vec<u64> {
                a.data().iter().map(|x| x.to_bits()).collect()
            };
            bits(&a1) == bits(&a2) && s1 == s2
        })
    }) {
        assert!(
            same,
            "{be:?}: latms differs between two calls with one seed"
        );
    }
}

/// The benchmark's inputs (`square_1t`'s 768 x 768 and `tall_1t`'s
/// 8192 x 256, geometric spectrum of condition 1e6, its default seed):
/// orthonormal factors and `||A||_F^2 = sum sigma_i^2`.  Seconds in an
/// optimised build, too slow for a debug one: run with `--release --
/// --ignored`.
#[test]
#[ignore]
fn benchmark_inputs_have_orthonormal_factors_and_the_spectrum_norm() {
    let seed = 1;
    for (m, n) in [(768, 768), (8192, 256)] {
        let k = m.min(n);
        for (rows, factor_seed) in [(m, seed ^ 0x5eed_0001), (n, seed ^ 0x5eed_0002)] {
            let err = orthogonality_error(&random_orthonormal(rows, k, factor_seed));
            assert!(
                err <= 1e-13,
                "{rows}x{k} factor: ||Q^T Q - I||_max = {err:e}"
            );
        }
        let (a, sigma) = latms(m, n, &SpectrumKind::Geometric { cond: 1e6 }, seed);
        let fro2: f64 = sigma.iter().map(|s| s * s).sum();
        let err = (a.norm_fro().powi(2) - fro2).abs() / fro2;
        assert!(
            err <= 1e-12,
            "{m}x{n}: ||A||_F^2 off sum sigma^2 by {err:e}"
        );
    }
}
