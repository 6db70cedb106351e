//! # bidiag-kernels
//!
//! Pure-Rust numerical kernels for the tiled bidiagonalization reproduction:
//!
//! * [`householder`] — the elementary reflector, and the lane-generic
//!   reflector + left/right applies [`gebd2`] and the bulge chase of
//!   [`band`] share,
//! * [`qr`] — the six tile kernels of the tiled QR factorization
//!   (GEQRT/UNMQR/TSQRT/TSMQR/TTQRT/TTMQR, Table I of the paper), blocked
//!   compact-WY,
//! * [`lq`] — their LQ duals (GELQT/UNMLQ/TSLQT/TSMLQ/TTLQT/TTMLQ),
//! * [`wy`] — the compact-WY machinery the blocked kernels share: the
//!   fused chunk kernel under the six QR-side kernels, [`wy::TFactor`]
//!   (`tau` scalars + the diagonal blocks of `T`) and [`wy::Workspace`]
//!   (reusable scratch of the LQ side; in steady state a kernel allocates
//!   nothing but the `TFactor` a factorization returns),
//! * [`gebd2`] — the one-stage (Level-2) Golub–Kahan bidiagonalization: the
//!   direct path of every problem of order at most `DIRECT_CROSSOVER`,
//! * [`band`] — packed band storage and the Householder bulge-chasing
//!   band-to-bidiagonal reduction (the BND2BD stage),
//! * [`svd`] — the BD2VAL stage: the `bidiag-svd` solver (dqds) and its
//!   bisection reference re-exported at the kernel level,
//! * [`cost`] — the Table I kernel cost model driving critical paths and the
//!   machine simulations.
//!
//! The references the kernels are tested against — unblocked tile kernels,
//! Givens rotations, a one-sided Jacobi SVD — live in the dev-only
//! `bidiag-oracles` crate.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod band;
pub mod cost;
pub mod gebd2;
pub mod householder;
pub mod lq;
pub mod qr;
pub mod svd;
pub mod wy;

pub use band::BandMatrix;
pub use cost::KernelKind;
pub use gebd2::Bidiagonal;
pub use qr::Trans;
pub use wy::{TFactor, Workspace};
