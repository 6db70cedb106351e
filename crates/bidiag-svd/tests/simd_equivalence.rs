//! Forced-backend equivalence of the dqds solver.
//!
//! The dqds pass dispatches on `bidiag_matrix::simd::backend()` like every
//! other hot loop, but its recurrence is a serial `d`-chain, so the AVX2
//! shell (which the AVX-512 backend runs as well) is the *same body*
//! recompiled under `target_feature` — no reassociation, no fusion. The
//! contract is therefore stronger than for the other kernels: every
//! backend must produce **bitwise-identical** singular values, and this
//! suite pins exact equality (not a tolerance).

use bidiag_matrix::simd;
use bidiag_svd::dqds_singular_values;

/// Deterministic LCG test data.
fn lcg(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
        .collect()
}

#[test]
fn dqds_is_bitwise_identical_across_backends() {
    for n in [1usize, 2, 3, 5, 8, 17, 33, 64, 129] {
        let d: Vec<f64> = lcg(n, n as u64).iter().map(|v| v * 3.0).collect();
        let e = lcg(n.saturating_sub(1), 7 + n as u64);
        let results = simd::on_each_backend(|| dqds_singular_values(&d, &e));
        let (_, s) = &results[0];
        for (be, v) in &results[1..] {
            assert_eq!(s.len(), v.len());
            for (i, (a, b)) in s.iter().zip(v).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "dqds n={n} sv[{i}] diverged from scalar under {be:?}: {a} vs {b}"
                );
            }
        }
    }
}

#[test]
fn dqds_graded_and_clustered_spectra_are_bitwise_identical() {
    // Graded diagonal (stresses flips + aggressive deflation) and a
    // clustered one (stresses shift rejection): the backend switch must not
    // change a single branch decision anywhere in the driver.
    let n = 48;
    let graded: Vec<f64> = (0..n).map(|i| 10f64.powi(-((i % 12) as i32))).collect();
    let clustered: Vec<f64> = (0..n).map(|i| 1.0 + 1e-10 * (i as f64)).collect();
    let e: Vec<f64> = lcg(n - 1, 99).iter().map(|v| 0.3 * v).collect();
    for d in [graded, clustered] {
        let results = simd::on_each_backend(|| dqds_singular_values(&d, &e));
        let (_, s) = &results[0];
        for (be, v) in &results[1..] {
            for (a, b) in s.iter().zip(v) {
                assert_eq!(a.to_bits(), b.to_bits(), "{be:?}");
            }
        }
    }
}
