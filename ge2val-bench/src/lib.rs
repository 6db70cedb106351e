//! The parts of `ge2val-bench`, the repository's benchmark; `main.rs` is
//! the command line over them.  See `README.md` for the metric definitions.

#![warn(missing_docs)]

pub mod compare;
pub mod contract;
pub mod host;
pub mod json;
pub mod layers;
pub mod spans;
pub mod stats;
pub mod workloads;
