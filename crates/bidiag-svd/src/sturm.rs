//! Sturm-sequence machinery on the Golub–Kahan tridiagonal form, plus the
//! bisection oracle built on it.
//!
//! The singular values of a bidiagonal matrix `B` (diagonal `d`,
//! superdiagonal `e`) are the non-negative eigenvalues of the Golub–Kahan
//! tridiagonal
//!
//! ```text
//!        [ 0   d1              ]
//!        [ d1  0   e1          ]
//! T_GK = [     e1  0   d2      ]   (order 2k, zero diagonal)
//!        [         d2  0  ...  ]
//! ```
//!
//! whose spectrum is exactly `{ +sigma_i, -sigma_i }`.  Working on `T_GK`
//! avoids forming `BᵀB` and therefore resolves even tiny singular values to
//! high *relative* accuracy (Demmel–Kahan).  [`GkSturm`] is the shared
//! read-only state every solver in this crate leans on: it owns the
//! off-diagonals (prescaled by a power of two) and the Gershgorin bound,
//! and evaluates Sturm counts one shift at a time.

use crate::Pow2Scale;

/// Shared Sturm-evaluation state for one bidiagonal matrix: the Golub–Kahan
/// off-diagonals plus the derived bound.
///
/// Everything in this crate — the [`GkBisection`] oracle and through it
/// the dqds fallback — evaluates counts through this one struct, so all
/// paths agree on the matrix they are looking at.
///
/// The off-diagonals are held scaled by an exact power of two that puts the
/// largest in `(0.5, 1]` (as dqds does): the count recurrence squares them,
/// which for entries outside about `[1e-154, 1e154]` would overflow or
/// underflow and count a different matrix. Arguments and results of the
/// public methods are in the caller's units.
#[derive(Clone, Debug)]
pub struct GkSturm {
    /// Off-diagonals of the Golub–Kahan tridiagonal, scaled: `d1, e1, d2,
    /// ..., dk` (length `2k - 1`; empty when `k == 0`).
    off: Vec<f64>,
    /// Number of singular values `k`.
    k: usize,
    /// Gershgorin bound on `|lambda|` (zero diagonal, so the max row sum),
    /// in scaled units: at most 2.
    bound: f64,
    /// The scaling applied to `off` (none for the zero matrix).
    scale: Pow2Scale,
}

/// Minimum pivot magnitude, LAPACK `xLAEBZ`/`xSTEBZ`-style: `safmin *
/// max(1, max_i b_i^2)`, which for the scaled off-diagonals is `safmin`.
/// The Sturm recurrence divides by the previous pivot; clamping pivots at
/// this magnitude guarantees `b_i^2 / pivot` cannot overflow, while the
/// clamp itself only ever fires for pivots at the underflow scale of the
/// recurrence, far below one ulp of any representable eigenvalue of the
/// matrix.  That is the property underwriting the relative-accuracy claim
/// of GK bisection: counts are *exact* for every shift whose pivots stay
/// representable, so each bracket converges to the true sigma with relative
/// error governed only by the stopping width, never by the pivot guard.
const PIVMIN: f64 = f64::MIN_POSITIVE;

impl GkSturm {
    /// Prepare the Sturm state for the bidiagonal matrix with main diagonal
    /// `d` and superdiagonal `e` (`e.len() == d.len() - 1`, or both empty).
    pub fn new(d: &[f64], e: &[f64]) -> Self {
        let k = d.len();
        if k == 0 {
            return GkSturm {
                off: Vec::new(),
                k: 0,
                bound: 0.0,
                scale: Pow2Scale::IDENTITY,
            };
        }
        assert_eq!(e.len(), k - 1, "superdiagonal must have length n-1");
        let scale = Pow2Scale::for_bidiagonal(d, e).unwrap_or(Pow2Scale::IDENTITY);

        // Interleave into the GK off-diagonal sequence d1, e1, d2, ..., dk.
        let mut off = Vec::with_capacity(2 * k - 1);
        for i in 0..k {
            off.push(scale.down(d[i]));
            if i + 1 < k {
                off.push(scale.down(e[i]));
            }
        }

        // Gershgorin bound: the diagonal is zero, so |lambda| <= max row sum.
        let m = 2 * k;
        let mut bound: f64 = 0.0;
        for i in 0..m {
            let left = if i > 0 { off[i - 1].abs() } else { 0.0 };
            let right = if i < m - 1 { off[i].abs() } else { 0.0 };
            bound = bound.max(left + right);
        }

        GkSturm {
            off,
            k,
            bound,
            scale,
        }
    }

    /// Number of singular values (the order of the bidiagonal matrix).
    pub fn num_values(&self) -> usize {
        self.k
    }

    /// Gershgorin bound on the spectrum radius of the GK tridiagonal.
    pub fn bound(&self) -> f64 {
        self.scale.up(self.bound)
    }

    /// Floor, in the scaled units of the count recurrence, below which an
    /// eigenvalue bracket is declared zero: values this far below the
    /// spectrum radius are indistinguishable from an exact zero singular
    /// value at any useful relative accuracy.
    fn scaled_zero_floor(&self) -> f64 {
        self.bound * 1.0e-20
    }

    /// The clamped LDLᵀ pivot, LAPACK `xSTEBZ` convention: pivots are
    /// clamped *before* the sign test, so an exact-zero pivot (e.g. the
    /// first pivot at shift 0 on this zero-diagonal matrix) counts as
    /// negative.
    #[inline]
    fn clamped(v: f64) -> f64 {
        if v.abs() < PIVMIN {
            -PIVMIN
        } else {
            v
        }
    }

    /// Number of eigenvalues of the GK tridiagonal strictly smaller than
    /// `x` (non-pivoting LDLᵀ sign count).
    pub fn count(&self, x: f64) -> usize {
        self.count_scaled(self.scale.down(x))
    }

    /// [`count`](Self::count) with `x` in scaled units.
    fn count_scaled(&self, x: f64) -> usize {
        if self.k == 0 {
            return 0;
        }
        let mut d = Self::clamped(-x);
        let mut count = usize::from(d < 0.0);
        for b in &self.off {
            d = Self::clamped(-x - b * b / d);
            count += usize::from(d < 0.0);
        }
        count
    }
}

/// Prepared bisection state for the singular values of one bidiagonal
/// matrix: the [`GkSturm`] counts plus bracket bookkeeping.
///
/// This is the *oracle and fallback* of the subsystem: plain safeguarded
/// bisection, one singular value per call, each value an independent
/// bracket over shared read-only state — slow but maximally robust, and
/// running the same arithmetic no matter how calls are distributed over
/// threads.  The production solver ([`dqds`](crate::dqds)) is
/// property-tested against it.
#[derive(Clone, Debug)]
pub struct GkBisection {
    sturm: GkSturm,
}

impl GkBisection {
    /// Prepare the bisection state for the bidiagonal matrix with main
    /// diagonal `d` and superdiagonal `e` (`e.len() == d.len() - 1`).
    pub fn new(d: &[f64], e: &[f64]) -> Self {
        GkBisection {
            sturm: GkSturm::new(d, e),
        }
    }

    /// The underlying Sturm state.
    pub fn sturm(&self) -> &GkSturm {
        &self.sturm
    }

    /// Number of singular values (the order of the bidiagonal matrix).
    pub fn num_values(&self) -> usize {
        self.sturm.num_values()
    }

    /// The `j`-th largest singular value, `j` in `0..num_values()`.
    ///
    /// The (0-based) `j`-th largest singular value is the `(2k - j)`-th
    /// smallest eigenvalue of the Golub–Kahan tridiagonal (1-based):
    /// bisection maintains `count(lo) <= target < count(hi)` for
    /// `target = 2k - j - 1`, and iterates until the bracket is relatively
    /// converged (`hi - lo <= eps * (lo + hi)`) or provably zero
    /// (`hi` below `1e-20` of the spectrum radius).
    pub fn nth_largest(&self, j: usize) -> f64 {
        let k = self.sturm.num_values();
        assert!(j < k, "value index out of range");
        // Bisect in the scaled units of the count recurrence.
        let bound = self.sturm.bound;
        if bound == 0.0 {
            return 0.0;
        }
        let target = 2 * k - j - 1;
        let floor = self.sturm.scaled_zero_floor();
        let mut lo = 0.0_f64;
        let mut hi = bound * (1.0 + 4.0 * f64::EPSILON);
        // Bracket halving: ~52 + log2(sigma_max / sigma) iterations to
        // relative convergence, or ~66 to the zero floor; 256 is a safety
        // net that no representable bracket can exhaust.
        for _ in 0..256 {
            if hi - lo <= f64::EPSILON * (lo + hi) || hi <= floor {
                break;
            }
            let mid = 0.5 * (lo + hi);
            if self.sturm.count_scaled(mid) > target {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        self.sturm.scale.up(0.5 * (lo + hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_monotone_and_complete() {
        let s = GkSturm::new(&[3.0, -1.0, 2.0, 0.5], &[0.4, -0.2, 0.1]);
        let k = s.num_values();
        assert_eq!(s.count(-s.bound() * 1.01), 0);
        assert_eq!(s.count(s.bound() * 1.01), 2 * k);
        assert_eq!(s.count(0.0), k); // no zero singular values here
        let mut prev = 0;
        let mut x = -s.bound();
        while x <= s.bound() {
            let c = s.count(x);
            assert!(c >= prev, "count must be non-decreasing");
            prev = c;
            x += s.bound() / 7.3;
        }
    }

    #[test]
    fn pivmin_is_underflow_scaled_not_norm_scaled() {
        // dlaebz-style: safmin * max(1, b_max^2) — for O(1) data this is
        // safmin itself, not eps * bound^2 * 1e-3 (~1e-19) as before.
        const { assert!(PIVMIN <= 2.0 * f64::MIN_POSITIVE) };
        let b = GkBisection::new(&[1.0, 1.0e-8, 1.0], &[0.0, 0.0]);
        // ... and tiny singular values are still resolved relatively.
        let tiny = b.nth_largest(2);
        assert!((tiny - 1.0e-8).abs() < 1e-22, "tiny = {tiny}");
    }

    #[test]
    fn empty_and_zero_matrices() {
        let s = GkSturm::new(&[], &[]);
        assert_eq!(s.num_values(), 0);
        assert_eq!(s.count(0.5), 0);
        let b = GkBisection::new(&[0.0, 0.0], &[0.0]);
        assert_eq!(b.nth_largest(0), 0.0);
        assert_eq!(b.nth_largest(1), 0.0);
    }
}
