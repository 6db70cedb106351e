//! Property tests pinning the production solver — dqds — to the
//! [`GkBisection`] per-value oracle at 1e-13 relative accuracy, with the
//! fallback ladder never firing, across the spectrum shapes the subsystem
//! must survive:
//! clustered values, graded spectra (condition 1e12), random signs,
//! tiny (`1e-8`) values and zero/empty edge cases, both on directly
//! constructed bidiagonals and on `latms` matrices reduced through
//! `gebd2`.

use bidiag_kernels::gebd2::gebd2;
use bidiag_matrix::checks::singular_values_match;
use bidiag_matrix::gen::{latms, random_gaussian, SpectrumKind};
use bidiag_svd::{
    dqds_singular_values_with_stats, singular_values_with, Bd2ValOptions, GkBisection,
};
use proptest::prelude::*;

mod common;
use common::{assert_rel_close, graded_bidiagonal};

/// Run dqds against the oracle on one bidiagonal.
fn check_against_oracle(d: &[f64], e: &[f64], ctx: &str) {
    let b = GkBisection::new(d, e);
    let oracle: Vec<f64> = (0..b.num_values()).map(|j| b.nth_largest(j)).collect();

    let (dq, stats) = dqds_singular_values_with_stats(d, e);
    assert_rel_close(&dq, &oracle, 1e-13, &format!("{ctx} [dqds]"));
    assert_eq!(stats.fallback_values, 0, "{ctx}: the ladder fired");
}

/// Reduce a latms matrix with the given spectrum to bidiagonal form and
/// check dqds on it (against the oracle at 1e-13 relative, and against
/// the prescribed spectrum at orthogonal-reduction accuracy).
fn check_latms_spectrum(m: usize, n: usize, spectrum: &SpectrumKind, seed: u64, ctx: &str) {
    let (a, sigma) = latms(m, n, spectrum, seed);
    let mut w = a.clone();
    let bd = gebd2(&mut w);
    check_against_oracle(&bd.diag, &bd.superdiag, ctx);
    let sv = singular_values_with(&bd.diag, &bd.superdiag, &Bd2ValOptions::default());
    assert!(
        singular_values_match(&sv, &sigma, 1e-10),
        "{ctx}: prescribed spectrum not recovered"
    );
}

#[test]
fn clustered_spectra() {
    // Ten-fold clusters, a cluster at the bottom, and a cluster of zeros.
    let mut spec = vec![7.0; 10];
    spec.extend(vec![3.0; 6]);
    spec.extend(vec![1e-3; 4]);
    check_latms_spectrum(28, 20, &SpectrumKind::Explicit(spec), 11, "clusters");

    let spec = vec![5.0, 5.0, 5.0, 2.0, 2.0, 0.0, 0.0, 0.0];
    check_latms_spectrum(16, 8, &SpectrumKind::Explicit(spec), 13, "zero cluster");
}

#[test]
fn graded_condition_1e12() {
    // Through latms + gebd2 (sigma_max-relative recovery) ...
    check_latms_spectrum(
        24,
        18,
        &SpectrumKind::Geometric { cond: 1e12 },
        7,
        "graded latms",
    );

    // ... and directly constructed graded bidiagonals with random signs,
    // where tiny values must keep *relative* accuracy down to 1e-12.
    for (n, seed) in [(12usize, 1u64), (33, 2), (48, 3)] {
        let (d, e) = graded_bidiagonal(n, seed);
        check_against_oracle(&d, &e, &format!("graded direct n={n}"));
    }
}

#[test]
fn tiny_values_1e_minus_8() {
    let spec = vec![4.0, 3.0, 2.0, 1.0, 1e-8, 1e-8];
    check_latms_spectrum(14, 6, &SpectrumKind::Explicit(spec), 5, "tiny latms");

    // Direct: an isolated 1e-8 on the diagonal must come back relatively
    // exact.
    let d = [1.0, 1e-8, 1.0, 0.5];
    let e = [0.0, 0.0, 0.0];
    check_against_oracle(&d, &e, "tiny direct");
    let (sv, _) = dqds_singular_values_with_stats(&d, &e);
    assert!((sv[3] - 1e-8).abs() < 1e-22, "dqds lost the tiny value");
}

#[test]
fn zero_and_empty_edge_cases() {
    check_against_oracle(&[], &[], "empty");
    check_against_oracle(&[0.0], &[], "1x1 zero");
    check_against_oracle(&[0.0, 0.0, 0.0], &[0.0, 0.0], "zero matrix");
    check_against_oracle(&[1.0, 0.0, 2.0, 0.0], &[0.5, 0.25, 0.125], "zero diagonals");
    check_against_oracle(&[0.0, 3.0], &[1.0], "leading zero");
    let opts = Bd2ValOptions::default();
    assert!(singular_values_with(&[], &[], &opts).is_empty());
    assert_eq!(
        singular_values_with(&[0.0, 0.0], &[0.0], &opts),
        vec![0.0, 0.0]
    );
}

#[test]
fn dqds_fast_path_actually_runs_on_benign_input() {
    // The oracle fallback must be an exception, not the steady state: on
    // random full-rank data every value comes from the qd iteration.
    let n = 64;
    let g = random_gaussian(n, 2, 99);
    let d: Vec<f64> = (0..n).map(|i| 1.0 + g.get(i, 0).abs()).collect();
    let e: Vec<f64> = (0..n - 1).map(|i| g.get(i, 1)).collect();
    let (_, stats) = dqds_singular_values_with_stats(&d, &e);
    assert_eq!(stats.fallback_values, 0, "dqds fell back on benign input");
    assert!(stats.passes > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random bidiagonals (random magnitudes *and* signs): dqds agrees
    /// with the oracle at 1e-13 relative.
    #[test]
    fn random_sign_bidiagonals_match_oracle(n in 1usize..40, seed in 0u64..500) {
        let g = random_gaussian(n.max(1), 2, seed);
        let d: Vec<f64> = (0..n).map(|i| 3.0 * g.get(i, 0)).collect();
        let e: Vec<f64> = (0..n.saturating_sub(1)).map(|i| g.get(i, 1)).collect();
        check_against_oracle(&d, &e, &format!("random n={n} seed={seed}"));
    }

    /// Random *scaled* bidiagonals: the dqds power-of-two prescaling keeps
    /// extreme exponents exact.
    #[test]
    fn extreme_scales_match_oracle(n in 2usize..24, seed in 0u64..100, exp_off in 0u32..240) {
        let exp = exp_off as i32 - 120;
        let s = 2.0f64.powi(exp);
        let g = random_gaussian(n, 2, seed ^ 0x5ca1e);
        let d: Vec<f64> = (0..n).map(|i| s * g.get(i, 0)).collect();
        let e: Vec<f64> = (0..n - 1).map(|i| s * g.get(i, 1)).collect();
        check_against_oracle(&d, &e, &format!("scaled 2^{exp} n={n} seed={seed}"));
    }
}
