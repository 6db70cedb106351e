//! Operation counts and algorithm-selection rules.
//!
//! The paper (Section III.C) recalls the classical flop counts of the two
//! bidiagonalization strategies for an `m x n` matrix (`m >= n`):
//!
//! * BIDIAG (one-stage Golub–Kahan):    `4 n^2 (m - n/3)`
//! * R-BIDIAG (QR first, Chan's trick): `2 n^2 (m + n)`
//!
//! R-BIDIAG performs fewer flops when `m >= 5n/3`.  Every performance
//! figure normalises its GFlop/s by the BIDIAG operation count, whatever
//! algorithm ran (the paper reports all rates that way, and so do we).

use crate::drivers::Algorithm;

/// Flop count of the one-stage bidiagonalization of an `m x n` matrix.
pub fn bidiag_flops(m: usize, n: usize) -> f64 {
    let (m, n) = (m as f64, n as f64);
    4.0 * n * n * (m - n / 3.0)
}

/// Flop count of R-bidiagonalization (QR factorization + bidiagonalization of
/// the square factor).
pub fn rbidiag_flops(m: usize, n: usize) -> f64 {
    let (m, n) = (m as f64, n as f64);
    2.0 * n * n * (m + n)
}

/// The flop count used to normalise GFlop/s in every figure of the paper:
/// the BIDIAG count, regardless of the algorithm actually run.
pub fn reporting_flops(m: usize, n: usize) -> f64 {
    bidiag_flops(m, n)
}

/// Chan's crossover: R-BIDIAG performs fewer flops when `m >= 5n/3`.
pub fn chan_crossover(m: usize, n: usize) -> bool {
    3 * m >= 5 * n
}

/// Select the algorithm minimising the flop count (Chan's rule).
pub fn select_by_flops(m: usize, n: usize) -> Algorithm {
    if chan_crossover(m, n) {
        Algorithm::RBidiag
    } else {
        Algorithm::Bidiag
    }
}

/// GFlop/s rate for a normalised flop count executed in `seconds`.
pub fn gflops(flops: f64, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        return f64::NAN;
    }
    flops / seconds / 1.0e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_textbook_values() {
        // Square: BIDIAG = 8/3 n^3, R-BIDIAG = 4 n^3 (R-BIDIAG worse).
        let n = 300usize;
        assert!((bidiag_flops(n, n) - 8.0 / 3.0 * (n as f64).powi(3)).abs() < 1.0);
        assert!((rbidiag_flops(n, n) - 4.0 * (n as f64).powi(3)).abs() < 1.0);
    }

    #[test]
    fn crossover_at_five_thirds() {
        let n = 3000usize;
        assert!(!chan_crossover(n, n));
        assert!(chan_crossover(5 * n / 3, n));
        assert!(!chan_crossover(5 * n / 3 - 1, n));
        // At the crossover the two counts coincide.
        let m = 5 * n / 3;
        assert!((bidiag_flops(m, n) - rbidiag_flops(m, n)).abs() < 1e-6 * bidiag_flops(m, n));
    }

    #[test]
    fn selection_rules() {
        assert_eq!(select_by_flops(1000, 1000), Algorithm::Bidiag);
        assert_eq!(select_by_flops(10_000, 1000), Algorithm::RBidiag);
    }

    #[test]
    fn gflops_helper() {
        assert!((gflops(2.0e9, 1.0) - 2.0).abs() < 1e-12);
        assert!(gflops(1.0, 0.0).is_nan());
    }
}
