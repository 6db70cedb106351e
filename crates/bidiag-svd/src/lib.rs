//! # bidiag-svd
//!
//! The singular-value solver subsystem of the reproduction: everything
//! that turns a proper bidiagonal matrix (diagonal `d`, superdiagonal `e`)
//! into its singular values — the BD2VAL stage the paper delegates to
//! LAPACK `xBDSQR`.  One solver and one oracle live behind one option
//! struct:
//!
//! * [`SvdSolver::Dqds`] — the production path: Fernando–Parlett
//!   differential quotient-difference with shifts ([`dqds`], with LAPACK
//!   `dlasq`'s driver), computing all `n` values in `O(n^2)` with high
//!   relative accuracy; falls back to bisection per window if the qd
//!   iteration ever fails to converge.
//! * [`SvdSolver::Bisection`] — the oracle/fallback: plain per-value
//!   bisection ([`sturm::GkBisection`]), maximally robust and the
//!   reference dqds is property-tested against.
//!
//! Both work on the Golub–Kahan tridiagonal (or its squared qd form)
//! rather than on `BᵀB`, so tiny singular values keep relative accuracy,
//! and both prescale by an exact power of two, so every finite input is
//! solved, subnormal or next to overflow.
//! `bidiag-kernels` re-exports the crate as its `svd` module and
//! `bidiag-core` threads [`Bd2ValOptions`] through the GE2VAL pipeline and
//! the task runtime.
//!
//! Robustness: when the dqds iteration gives up on a window it hands the
//! window to the bisection oracle; non-finite window data is surfaced as
//! NaN output instead of a panic or a hang (see [`dqds`]).
//! [`dqds_singular_values_with_stats`] returns the [`DqdsStats`] saying
//! whether either happened.

#![warn(missing_docs)]

pub mod dqds;
pub mod sturm;

pub use dqds::{
    dqds_singular_values, dqds_singular_values_into, dqds_singular_values_with_stats, DqdsScratch,
    DqdsStats,
};
pub use sturm::{GkBisection, GkSturm};

/// The exact power of two that brings the largest entry `amax` of a
/// bidiagonal into `(0.5, 1]`, and its inverse: what both solvers apply
/// before they square anything. Each factor is kept as two halves applied
/// one after the other, because `2^k` itself is not a finite `f64` for a
/// subnormal `amax` (`k` up to 1074) and `2^-k` is not for `amax >= 2^1023`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Pow2Scale {
    down: [f64; 2],
    up: [f64; 2],
}

impl Pow2Scale {
    /// No scaling: what the zero matrix gets.
    pub(crate) const IDENTITY: Pow2Scale = Pow2Scale {
        down: [1.0; 2],
        up: [1.0; 2],
    };

    /// The scaling for the bidiagonal with diagonal `d` and superdiagonal
    /// `e`; `None` if every entry is zero.
    pub(crate) fn for_bidiagonal(d: &[f64], e: &[f64]) -> Option<Self> {
        let amax = d.iter().chain(e).fold(0.0_f64, |acc, &v| acc.max(v.abs()));
        if amax == 0.0 {
            return None;
        }
        let k = -(amax.log2().ceil() as i32);
        let halves = |k: i32| [2.0_f64.powi(k / 2), 2.0_f64.powi(k - k / 2)];
        Some(Pow2Scale {
            down: halves(k),
            up: halves(-k),
        })
    }

    /// `v` in scaled units (exact, unless it underflows).
    pub(crate) fn down(&self, v: f64) -> f64 {
        v * self.down[0] * self.down[1]
    }

    /// `v` back in the caller's units (exact, unless the result is
    /// subnormal or overflows — as the true value then does).
    pub(crate) fn up(&self, v: f64) -> f64 {
        v * self.up[0] * self.up[1]
    }
}

/// Which algorithm computes the singular values of the bidiagonal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SvdSolver {
    /// dqds with aggressive deflation — the production path (default).
    Dqds,
    /// Per-value bisection — the oracle/fallback reference.
    Bisection,
}

/// Options of the BD2VAL stage, threaded through `bidiag-core`'s pipeline
/// and runtime back-end.
#[derive(Clone, Copy, Debug)]
pub struct Bd2ValOptions {
    /// Algorithm selection.
    pub solver: SvdSolver,
}

impl Default for Bd2ValOptions {
    fn default() -> Self {
        Bd2ValOptions {
            solver: SvdSolver::Dqds,
        }
    }
}

impl Bd2ValOptions {
    /// Builder-style: select the solver.
    pub fn with_solver(mut self, solver: SvdSolver) -> Self {
        self.solver = solver;
        self
    }
}

/// Singular values of the bidiagonal matrix with main diagonal `d` and
/// superdiagonal `e` (`e.len() == d.len() - 1`), in non-increasing order,
/// computed by the solver selected in `opts`.
pub fn singular_values_with(d: &[f64], e: &[f64], opts: &Bd2ValOptions) -> Vec<f64> {
    match opts.solver {
        SvdSolver::Dqds => dqds_singular_values(d, e),
        SvdSolver::Bisection => bisection_singular_values(d, e),
    }
}

/// Singular values by the per-value bisection oracle, in non-increasing
/// order — the reference numerics dqds is tested against.
pub fn bisection_singular_values(d: &[f64], e: &[f64]) -> Vec<f64> {
    let b = GkBisection::new(d, e);
    (0..b.num_values()).map(|j| b.nth_largest(j)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dqds_agrees_with_the_oracle_on_a_small_matrix() {
        let d = [4.0, -3.0, 2.5, 1.0, 0.5];
        let e = [0.7, -0.3, 0.2, 0.1];
        let oracle = bisection_singular_values(&d, &e);
        let sv = singular_values_with(&d, &e, &Bd2ValOptions::default());
        assert_eq!(sv.len(), oracle.len());
        for (s, o) in sv.iter().zip(&oracle) {
            assert!((s - o).abs() <= 1e-13 * oracle[0], "{s} vs {o}");
        }
    }

    #[test]
    fn default_options_are_the_documented_fast_path() {
        assert_eq!(Bd2ValOptions::default().solver, SvdSolver::Dqds);
    }
}
