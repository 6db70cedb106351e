//! The typed error taxonomy of the hardened service plane.
//!
//! Every fallible entry point of the crate — [`crate::pipeline::try_ge2val`],
//! [`crate::batch::SvdSession`] submission and waiting, the `try_` op-list
//! generators of [`crate::drivers`] — funnels into one [`SvdError`] enum, so
//! service callers match on a closed set of failure modes instead of
//! catching panics:
//!
//! * **Input rejection** ([`SvdError::NonFiniteInput`],
//!   [`SvdError::DimensionMismatch`]): the request itself is malformed;
//!   detected *before* any work is admitted, so a poisoned request can
//!   never take down the shared pool.
//! * **Execution failure** ([`SvdError::SolverFailure`]): a kernel panicked
//!   (the payload message is carried as a value — nothing unwinds across
//!   the service boundary) or a solver emitted non-finite values.
//! * **Admission control** ([`SvdError::QueueFull`],
//!   [`SvdError::PoolShutdown`]): backpressure verdicts of the bounded
//!   session.
//! * **Liveness control** ([`SvdError::Cancelled`], [`SvdError::TimedOut`]):
//!   cooperative cancellation and deadlines.
//!
//! Internal invariants (tile indexing, scheduler counters, body/graph
//! arity) remain `assert!`s on purpose: they are unreachable from user
//! input, and converting them to `Err` would only launder bugs into
//! retry loops.

use bidiag_matrix::Matrix;

/// Why an SVD request failed — see the [module docs](self) for the
/// taxonomy.
#[derive(Clone, Debug, PartialEq)]
pub enum SvdError {
    /// The input matrix contains a NaN or infinity at `(row, col)`.
    /// Detected at submission, before the problem touches the pool.
    NonFiniteInput {
        /// Row index of the first offending entry (column-major scan).
        row: usize,
        /// Column index of the first offending entry.
        col: usize,
        /// The offending value (NaN or ±inf).
        value: f64,
    },
    /// The input's shape violates the entry point's contract (e.g.
    /// `ge2bnd` requires `m >= n`, the tile-op generators require
    /// `p >= q >= 1`).
    DimensionMismatch {
        /// Which contract was violated, e.g. `"ge2bnd requires m >= n"`.
        context: &'static str,
        /// The offending row (or tile-row) count.
        rows: usize,
        /// The offending column (or tile-column) count.
        cols: usize,
    },
    /// The solver failed: a kernel body panicked (the panic payload's
    /// message is carried here as a value — nothing is re-thrown across
    /// the service boundary) or a numerical path produced non-finite
    /// output that every fallback rung refused to repair.
    SolverFailure(String),
    /// The session's admission queue is full and the caller asked to shed
    /// load ([`crate::batch::SvdSession::try_submit`]).
    QueueFull {
        /// The in-flight cap at the time of rejection.
        max_in_flight: usize,
    },
    /// The job was cancelled via [`crate::batch::SvdJob::cancel`] before
    /// it finished.
    Cancelled,
    /// [`crate::batch::SvdJob::wait_timeout`] reached its deadline; the
    /// job was cancelled on the way out.
    TimedOut,
    /// The session (or its pool) was closed; no further submissions are
    /// accepted.
    PoolShutdown,
}

impl std::fmt::Display for SvdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SvdError::NonFiniteInput { row, col, value } => {
                write!(f, "non-finite input {value} at ({row}, {col})")
            }
            SvdError::DimensionMismatch {
                context,
                rows,
                cols,
            } => write!(f, "dimension mismatch: {context} (got {rows} x {cols})"),
            SvdError::SolverFailure(msg) => write!(f, "solver failure: {msg}"),
            SvdError::QueueFull { max_in_flight } => {
                write!(f, "admission queue is full ({max_in_flight} in flight)")
            }
            SvdError::Cancelled => write!(f, "job was cancelled"),
            SvdError::TimedOut => write!(f, "job deadline expired"),
            SvdError::PoolShutdown => write!(f, "session is shut down"),
        }
    }
}

impl std::error::Error for SvdError {}

/// Reject matrices containing NaN/inf with [`SvdError::NonFiniteInput`]
/// naming the first offending entry (column-major scan order).
pub fn validate_finite(a: &Matrix) -> Result<(), SvdError> {
    let rows = a.rows();
    for (idx, &value) in a.data().iter().enumerate() {
        if !value.is_finite() {
            return Err(SvdError::NonFiniteInput {
                row: idx % rows,
                col: idx / rows,
                value,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_finite_names_the_first_offender_in_column_major_order() {
        let mut a = Matrix::zeros(3, 2);
        a.set(2, 0, f64::NAN);
        a.set(0, 1, f64::INFINITY);
        match validate_finite(&a) {
            Err(SvdError::NonFiniteInput {
                row: 2,
                col: 0,
                value,
            }) => assert!(value.is_nan()),
            other => panic!("expected NonFiniteInput at (2,0), got {other:?}"),
        }
        assert_eq!(validate_finite(&Matrix::zeros(4, 4)), Ok(()));
        assert_eq!(validate_finite(&Matrix::zeros(0, 0)), Ok(()));
    }

    #[test]
    fn display_messages_are_informative() {
        let e = SvdError::QueueFull { max_in_flight: 32 };
        assert!(e.to_string().contains("32"));
        let e = SvdError::SolverFailure("kernel exploded".into());
        assert!(e.to_string().contains("kernel exploded"));
        let e = SvdError::DimensionMismatch {
            context: "ge2bnd requires m >= n",
            rows: 3,
            cols: 9,
        };
        assert!(e.to_string().contains("3 x 9"));
    }
}
