//! # bidiag-runtime
//!
//! A task-based runtime substrate reproducing the role of PaRSEC/DPLASMA in
//! the paper:
//!
//! * [`graph::TaskGraph`] — data-flow task graphs built by task insertion
//!   with automatic RAW/WAR/WAW dependency inference,
//! * [`pool`] — the scheduler: a work-stealing, event-driven
//!   [`pool::TaskPool`] whose workers serve a *stream* of task-graph
//!   submissions (per-worker LIFO deques with random stealing, bottom-level
//!   priorities, a condition-variable idle protocol with no timed polling),
//!   plus a graph-free job lane whose jobs a worker runs in gangs; a graph
//!   and a lane job both finish through one completion protocol, the
//!   client's [`pool::JobTicket`]; the batched SVD session of
//!   `bidiag-core` holds one for its lifetime,
//! * [`executor`] — the one-shot entry points: [`execute_parallel`] runs one
//!   graph as a single submission on a pool built for the call
//!   (shared-memory experiments), [`execute_sequential`] is the oracle,
//! * [`sim`] — a deterministic list-scheduling simulator with per-node core
//!   pools and an `alpha/beta` communication model, used for critical-path
//!   measurements and for the distributed-memory experiments that the paper
//!   runs on a 25-node cluster.
//!
//! # Scheduling invariants
//!
//! The scheduler may run independent tasks in any interleaving, yet every
//! algorithm built on it is deterministic: the [`graph::TaskGraph`] encodes
//! *all* data conflicts of the sequential algorithm as edges (reads and
//! writes are declared per task, and RAW/WAR/WAW pairs become
//! dependencies), so any topological execution applies exactly the same
//! kernels to exactly the same operand values as the sequential order.
//! Floating-point results are therefore bitwise identical across thread
//! counts and schedules — the property the randomized stress tests in
//! `tests/scheduler_stress.rs` exercise.  See the [`pool`] module docs for
//! the steal protocol and its exclusivity guarantees.

#![warn(missing_docs)]

pub mod executor;
pub mod graph;
pub mod pool;
pub mod sim;
pub mod trace;

pub use executor::{execute_parallel, execute_parallel_with, execute_sequential, TaskBody};
pub use graph::{AccessMode, DataKey, TaskGraph, TaskId, TaskNode};
pub use pool::{JobError, JobTicket, PoolConfig, SubmitError, TaskBodyWith, TaskPool, GANG};
pub use sim::{simulate, MachineModel, SimResult};
pub use trace::{validate_trace, TraceValidation};
