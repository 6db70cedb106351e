//! # bidiag-repro
//!
//! Facade crate of the reproduction of *"Bidiagonalization and
//! R-Bidiagonalization: Parallel Tiled Algorithms, Critical Paths and
//! Distributed-Memory Implementation"* (Faverge, Langou, Robert, Dongarra,
//! IPDPS 2017).
//!
//! It re-exports the workspace crates under one roof so that the examples
//! and integration tests (and downstream users) can depend on a single
//! crate:
//!
//! * [`matrix`] — dense/tiled matrices, generators, block-cyclic maps,
//! * [`kernels`] — Householder tile kernels, band reduction, SVD,
//! * [`svd`] — the singular-value solver subsystem (dqds, bisection
//!   oracle) behind the BD2VAL stage,
//! * [`trees`] — FLATTS/FLATTT/GREEDY/AUTO and hierarchical reduction trees,
//! * [`runtime`] — task graphs, the work-stealing scheduler, cluster simulator,
//! * [`core`] — BIDIAG / R-BIDIAG, critical paths, GE2BND/GE2VAL pipelines,
//! * [`obs`] — the observability plane: per-worker span rings, metrics
//!   registry, Chrome-trace/Perfetto export (`BIDIAG_TRACE=path`).
//!
//! The references the integration tests compare against (one-sided Jacobi,
//! the one-stage and Chan bidiagonalizations, the unblocked tile kernels)
//! are in the dev-only `bidiag-oracles` crate, not re-exported here.
//!
//! ```
//! use bidiag_repro::prelude::*;
//!
//! let (a, sigma) = latms(48, 32, &SpectrumKind::Geometric { cond: 1.0e3 }, 1);
//! let result = ge2val(&a, &Ge2Options::new(8));
//! assert!(singular_values_match(&result.singular_values, &sigma, 1.0e-10));
//! ```

pub use bidiag_core as core;
pub use bidiag_kernels as kernels;
pub use bidiag_matrix as matrix;
pub use bidiag_obs as obs;
pub use bidiag_runtime as runtime;
pub use bidiag_svd as svd;
pub use bidiag_trees as trees;

/// Convenient glob import for examples and quick experiments.
pub mod prelude {
    pub use bidiag_core::batch::{
        ge2val_batch, AdmissionPolicy, SessionConfig, SvdJob, SvdSession,
    };
    pub use bidiag_core::cp;
    pub use bidiag_core::drivers::{bidiag_ops, ge2bnd_ops, rbidiag_ops, Algorithm, GenConfig};
    pub use bidiag_core::error::{validate_finite, SvdError};
    pub use bidiag_core::flops;
    pub use bidiag_core::pipeline::{
        ge2bnd, ge2val, try_ge2bnd, try_ge2val, AlgorithmChoice, Ge2Options, DIRECT_CROSSOVER,
    };
    pub use bidiag_kernels::svd::bidiagonal_singular_values;
    pub use bidiag_kernels::{BandMatrix, Bidiagonal, KernelKind};
    pub use bidiag_matrix::checks::{singular_value_error, singular_values_match};
    pub use bidiag_matrix::gen::{latms, random_gaussian, SpectrumKind};
    pub use bidiag_matrix::{BlockCyclic, Matrix, TiledMatrix};
    pub use bidiag_obs::{MetricsRegistry, MetricsSnapshot, ScopedObs, Span};
    pub use bidiag_runtime::{simulate, validate_trace, MachineModel, TaskGraph, TraceValidation};
    pub use bidiag_svd::{dqds_singular_values, singular_values_with, Bd2ValOptions, SvdSolver};
    pub use bidiag_trees::{HighLevelTree, NamedTree, TreeConfig};
}
