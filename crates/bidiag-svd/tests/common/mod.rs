//! Helpers shared by the integration tests of this crate.

use bidiag_matrix::gen::random_gaussian;

/// Per-value relative agreement with the oracle: `|a - b| <= tol *
/// max(|a|, |b|)` with an absolute floor far below any resolvable value
/// (`1e-18 * sigma_max` — values below the oracle's own zero floor of
/// `1e-20 * bound` are indistinguishable from exact zeros — and the two
/// roundings of a subnormal result).
pub fn assert_rel_close(got: &[f64], oracle: &[f64], tol: f64, ctx: &str) {
    assert_eq!(got.len(), oracle.len(), "{ctx}: length mismatch");
    let smax = oracle.first().copied().unwrap_or(0.0).abs();
    let floor = 1e-18 * smax + 1e-323;
    for (i, (a, b)) in got.iter().zip(oracle).enumerate() {
        assert!(
            (a - b).abs() <= tol * a.abs().max(b.abs()) + floor,
            "{ctx}: value {i}: {a} vs oracle {b} (smax {smax})"
        );
    }
}

/// A bidiagonal as `(diagonal, superdiagonal)`.
pub type Bidiag = (Vec<f64>, Vec<f64>);

/// A directly constructed graded bidiagonal of order `n` (condition 1e12)
/// with random signs, where tiny values must keep *relative* accuracy.
pub fn graded_bidiagonal(n: usize, seed: u64) -> Bidiag {
    let g = random_gaussian(n, 2, seed ^ 0xbeef);
    let cond: f64 = 1e12;
    let d: Vec<f64> = (0..n)
        .map(|i| {
            let mag = cond.powf(-(i as f64) / (n as f64 - 1.0));
            mag * g.get(i, 0).signum()
        })
        .collect();
    let e: Vec<f64> = (0..n - 1)
        .map(|i| 0.25 * (d[i].abs() * d[i + 1].abs()).sqrt() * g.get(i, 1).signum())
        .collect();
    (d, e)
}
