//! # bidiag-matrix
//!
//! Matrix substrate for the tiled bidiagonalization reproduction
//! (Faverge, Langou, Robert, Dongarra, IPDPS 2017):
//!
//! * [`dense::Matrix`] — column-major dense matrices (the storage used inside
//!   every tile kernel),
//! * [`view::MatrixView`] / [`view::MatrixViewMut`] — borrowed column-major
//!   views (offset + leading dimension) that the blocked kernels address
//!   tiles and workspace panels through without copying,
//! * [`gemm`] — packed, cache-blocked `C += alpha * op(A) * op(B)` kernels
//!   (`NN`/`TN`/`NT`): one BLIS-style three-level blocked path over an
//!   `MR x NR` register microkernel, at every size,
//! * [`tiled::TiledMatrix`] — the `p x q` grid of `nb x nb` tiles on which the
//!   tiled algorithms operate,
//! * [`gen`] — LATMS-style generators of matrices with prescribed singular
//!   values (the paper's experimental input),
//! * [`dist::BlockCyclic`] — the 2D block-cyclic distribution used for the
//!   distributed-memory experiments,
//! * [`checks`] — residual / orthogonality / spectrum comparison helpers used
//!   throughout the test suites.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod checks;
pub mod dense;
pub mod dist;
pub mod gemm;
pub mod gen;
pub mod simd;
pub mod tiled;
pub mod view;

pub use dense::Matrix;
pub use dist::BlockCyclic;
pub use gemm::{gemm_nn, gemm_nt, gemm_tn, GemmScratch};
pub use simd::{backend as simd_backend, SimdBackend};
pub use tiled::{TileCoord, TiledMatrix};
pub use view::{MatrixView, MatrixViewMut};
