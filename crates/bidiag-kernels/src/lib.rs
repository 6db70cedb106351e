//! # bidiag-kernels
//!
//! Pure-Rust numerical kernels for the tiled bidiagonalization reproduction:
//!
//! * [`householder`] — the elementary reflector, and the lane-generic
//!   reflector + left/right applies [`gebd2`] and the bulge chase of
//!   [`band`] share,
//! * [`qr`] — the six tile kernels of the tiled QR factorization
//!   (GEQRT/UNMQR/TSQRT/TSMQR/TTQRT/TTMQR, Table I of the paper), blocked
//!   compact-WY; the applies compute `Q^T C`, the one product GE2BND uses,
//! * [`lq`] — their LQ duals (GELQT/UNMLQ/TSLQT/TSMLQ/TTLQT/TTMLQ), whose
//!   applies compute `C Q_lq^T`,
//! * [`wy`] — the compact-WY machinery the blocked kernels share: the
//!   fused chunk kernels under the six QR-side kernels (reflectors as
//!   lanes) and the six LQ-side ones (rows as lanes), and [`wy::TFactor`]
//!   (`tau` scalars + the diagonal blocks of `T`, the only allocation a
//!   kernel makes),
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
#![forbid(unsafe_code)]

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
pub use wy::TFactor;
