//! # bidiag-core
//!
//! The primary contribution of the reproduced paper: parallel tiled
//! bidiagonalization (BIDIAG) and R-bidiagonalization (R-BIDIAG) with
//! configurable reduction trees, their critical-path analysis, and the full
//! singular-value pipeline.
//!
//! * [`ops`] — the tile-operation IR shared by all back-ends,
//! * [`drivers`] — lowering of BIDIAG / R-BIDIAG / tiled QR to operation
//!   lists driven by the reduction trees of `bidiag-trees`,
//! * [`exec`] — sequential and multi-threaded execution, task-graph
//!   construction, and the one lowering of a blocked GE2VAL problem that
//!   threaded `ge2val` and the session both run,
//! * [`cp`] — critical-path formulas (Section IV) and DAG measurements,
//! * [`flops`] — operation counts and Chan's BIDIAG/R-BIDIAG rule,
//! * [`pipeline`] — user-facing `GE2BND` and `GE2VAL` entry points,
//! * [`batch`] — the persistent batched runtime service ([`SvdSession`]):
//!   one long-lived work-stealing pool serving a stream of independent
//!   problems with per-worker scratch arenas, a small-size crossover,
//!   bounded admission and cooperative cancellation,
//! * [`error`] — the [`SvdError`] taxonomy every fallible entry point
//!   ([`try_ge2val`], session submission/waiting, the `try_` op
//!   generators) reports through.
//!
//! ## Quick start
//!
//! ```
//! use bidiag_core::pipeline::{ge2val, Ge2Options};
//! use bidiag_matrix::gen::{latms, SpectrumKind};
//!
//! let (a, sigma) = latms(60, 40, &SpectrumKind::Geometric { cond: 1.0e3 }, 42);
//! let result = ge2val(&a, &Ge2Options::new(8));
//! assert!((result.singular_values[0] - sigma[0]).abs() < 1.0e-8);
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod cp;
pub mod drivers;
pub mod error;
pub mod exec;
pub mod flops;
pub mod ops;
pub mod pipeline;

pub use batch::{ge2val_batch, SessionConfig, SvdJob, SvdSession};
pub use drivers::{
    bidiag_ops, ge2bnd_ops, qr_factorization_ops, rbidiag_ops, try_bidiag_ops, try_rbidiag_ops,
    Algorithm, GenConfig,
};
pub use error::{validate_finite, SvdError};
pub use exec::{build_graph, execute_parallel, execute_sequential};
pub use ops::{ops_flops, KernelScratch, TauTable, TileOp};
pub use pipeline::{
    ge2bnd, ge2val, try_ge2bnd, try_ge2val, AlgorithmChoice, Ge2BndResult, Ge2Options,
    Ge2ValResult, DIRECT_CROSSOVER,
};
