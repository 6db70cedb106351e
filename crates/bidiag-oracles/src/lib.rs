//! # bidiag-oracles
//!
//! Reference implementations that only tests and the Table I gate call —
//! none of them runs in a solve, so none of them is part of a library
//! crate's API:
//!
//! * [`givens`](mod@givens) — `dlartg`-convention plane rotations,
//! * [`gram_schmidt`] — element-wise modified Gram–Schmidt run twice, the
//!   reference for the blocked orthonormalization of `latms`' random
//!   factors,
//! * [`jacobi`] — a one-sided Jacobi SVD that shares no code with the
//!   bidiagonalization pipeline,
//! * [`qr`] / [`lq`] — the twelve unblocked tile kernels, one Householder
//!   reflector at a time (LAPACK `xGEQRT2` / `xTPQRT2` and their LQ
//!   transposes), that the blocked kernels of `bidiag-kernels` are pinned
//!   to — their applies, like the blocked ones, compute `Q^T C` and
//!   `C Q_lq^T` only — and [`build_q`], the explicit orthogonal factor of a
//!   GEQRT'd tile,
//! * [`one_stage`] — the one-stage Golub–Kahan bidiagonalization and Chan's
//!   QR-first variant, each finished by the bisection oracle.
//!
//! Library crates take this crate as a dev-dependency only; `bidiag-bench`
//! is its one normal dependent, because `table1_kernel_weights` gates every
//! blocked kernel against its unblocked reference.

#![warn(missing_docs)]

pub mod givens;
pub mod gram_schmidt;
pub mod jacobi;
pub mod lq;
pub mod one_stage;
pub mod qr;

pub use givens::givens;
pub use gram_schmidt::orthonormal_columns;
pub use jacobi::jacobi_singular_values;
pub use one_stage::{chan_singular_values, one_stage_singular_values};
pub use qr::build_q;
