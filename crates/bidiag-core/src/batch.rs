//! The batched SVD runtime service: one persistent pool, many problems.
//!
//! [`crate::pipeline::ge2val`] is shaped for one large factorization — each
//! threaded stage builds a pool, allocates fresh kernel scratch, runs one
//! DAG, and tears everything down.  The ROADMAP's serving scenario
//! (millions of small/medium spectra: per-user embedding blocks,
//! per-request covariances) inverts the cost profile: the matrices are tiny
//! and the per-call setup dominates.  [`SvdSession`] amortizes all of it:
//!
//! * **One pool for the session's lifetime.**  A
//!   [`TaskPool`] of workers spawned once;
//!   between submissions they park on the runtime's condition-variable
//!   idle gate (zero CPU), and independent problem DAGs interleave on the
//!   same work-stealing deques — workers never idle while *any* submitted
//!   problem has ready tasks.
//! * **Per-worker, per-lifetime scratch arenas.**  Each worker owns one
//!   [`SessionScratch`] (blocked-kernel workspace + direct-path arena)
//!   created at spawn and lent to every task body it ever runs; buffer
//!   capacities grow to the high-water mark across problems and stay
//!   there, so steady-state submissions do no hot-path allocation.
//! * **Small-size crossover.**  Problems whose larger dimension is at most
//!   [`Ge2Options::direct_crossover`] skip the tiled machinery entirely —
//!   no tiling, no T-factors, no band stage — and run the one-stage
//!   `gebd2` direct path (the bulge chase's two reflector applies on vector
//!   lanes) straight into the dqds solver, reusing the worker's arena.
//!   [`SvdSession::new`] arms the bench-picked
//!   [`DIRECT_CROSSOVER`]; [`SvdSession::with_options`] honours whatever
//!   the caller set (including disabled), so a session reproduces
//!   per-call [`ge2val`](crate::pipeline::ge2val) under the same options **bitwise**.
//!
//! ## The hardened service plane
//!
//! A session is built to be held by a long-running service, so every
//! failure mode is a *value*, never a panic, a hang, or a dead pool:
//!
//! * **Typed errors.**  Submission validates the input (finiteness) before
//!   it touches the pool; [`SvdJob::wait`] returns
//!   `Result<Vec<f64>, `[`SvdError`]`>` — a kernel panic arrives as
//!   [`SvdError::SolverFailure`] carrying the payload message, and the
//!   pool keeps serving (subsequent submissions are bitwise what a fresh
//!   session computes).
//! * **Bounded admission.**  [`SessionConfig`] caps the submissions in
//!   flight; [`AdmissionPolicy::Block`] parks the submitting thread until
//!   a slot frees (backpressure), [`AdmissionPolicy::Reject`] — or
//!   [`SvdSession::try_submit`] under either policy — sheds load with
//!   [`SvdError::QueueFull`].  A million-problem burst therefore never
//!   holds more than `max_in_flight` live job graphs.
//! * **Cancellation and deadlines.**  [`SvdJob::cancel`] drains a job's
//!   remaining work as no-ops; [`SvdJob::wait_timeout`] bounds the wait
//!   and cancels on expiry ([`SvdError::TimedOut`]).
//!
//! ```
//! use bidiag_core::batch::SvdSession;
//! use bidiag_matrix::gen::{latms, SpectrumKind};
//!
//! let session = SvdSession::new(4);
//! let (a, _) = latms(32, 32, &SpectrumKind::Geometric { cond: 100.0 }, 7);
//! let (b, _) = latms(64, 40, &SpectrumKind::Geometric { cond: 10.0 }, 8);
//! let jobs = session.submit_batch(&[a, b]).expect("inputs are finite");
//! for job in jobs {
//!     let sv = job.wait().expect("no kernel failed");
//!     assert!(!sv.is_empty());
//! }
//! ```

use crate::drivers::GenConfig;
use crate::error::{validate_finite, SvdError};
use crate::exec::lower_parallel;
use crate::ops::KernelScratch;
use crate::pipeline::{Ge2Options, DIRECT_CROSSOVER};
use bidiag_kernels::band::BandMatrix;
use bidiag_kernels::gebd2::{gebd2_with, Bidiagonal};
use bidiag_matrix::{Matrix, TiledMatrix};
use bidiag_obs as obs;
use bidiag_runtime::{
    AccessMode, JobError, JobHandle, PoolConfig, SubmitError, TaskBodyWith, TaskGraph, TaskPool,
};
use bidiag_svd::{
    dqds_singular_values_into, singular_values_with, Bd2ValOptions, DqdsScratch, SvdSolver,
};
use parking_lot::Mutex;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Default tile size of [`SvdSession::new`] (the workspace-wide `nb = 64`
/// sweet spot of the blocked path; small problems never see it because the
/// crossover routes them to the direct path).
const DEFAULT_NB: usize = 64;

/// Default in-flight cap of [`SessionConfig::default`]: generous enough to
/// keep every worker saturated with inter-problem parallelism, small
/// enough that a runaway burst of submissions holds a bounded number of
/// live job graphs (each pinning its input snapshot).
const DEFAULT_MAX_IN_FLIGHT: usize = 256;

/// What a full session does with the next submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Backpressure: [`SvdSession::submit`] parks the calling thread until
    /// an in-flight slot frees.
    Block,
    /// Load shedding: [`SvdSession::submit`] returns
    /// [`SvdError::QueueFull`] immediately.
    Reject,
}

/// Admission configuration of a [`SvdSession`].
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// Maximum number of submissions in flight (submitted, not yet
    /// finished).  `0` disables the bound (the pre-backpressure
    /// behaviour).
    pub max_in_flight: usize,
    /// What [`SvdSession::submit`] does when the cap is reached.
    /// [`SvdSession::try_submit`] always sheds, regardless of this policy.
    pub admission: AdmissionPolicy,
}

impl Default for SessionConfig {
    /// Bounded (256 in flight), blocking admission —
    /// the hardened defaults every session runs under unless configured
    /// otherwise.
    fn default() -> Self {
        SessionConfig {
            max_in_flight: DEFAULT_MAX_IN_FLIGHT,
            admission: AdmissionPolicy::Block,
        }
    }
}

/// Map a runtime admission verdict into the service taxonomy.
fn submit_error(e: SubmitError) -> SvdError {
    match e {
        SubmitError::QueueFull { max_in_flight } => SvdError::QueueFull { max_in_flight },
        SubmitError::Shutdown => SvdError::PoolShutdown,
    }
}

/// Map a runtime job outcome into the service taxonomy.
fn job_error(e: JobError) -> SvdError {
    match e {
        JobError::Panicked(msg) => SvdError::SolverFailure(msg),
        JobError::Cancelled => SvdError::Cancelled,
    }
}

/// Arena of the direct path: every buffer the
/// `gebd2 -> dqds` chain needs, owned per worker (and pooled for inline
/// [`SvdSession::compute_into`] callers), reused across problems.
#[derive(Debug)]
struct DirectScratch {
    /// Working copy of the input (transposed when the problem is wide).
    work: Matrix,
    /// Row-reflector scratch shared by every step of `gebd2`.
    tail: Vec<f64>,
    /// The bidiagonal factor, cleared and refilled per problem.
    bidiag: Bidiagonal,
    /// Buffer pool of the dqds solver.
    dqds: DqdsScratch,
}

impl DirectScratch {
    fn new() -> Self {
        DirectScratch {
            work: Matrix::zeros(0, 0),
            tail: Vec::new(),
            bidiag: Bidiagonal {
                diag: Vec::new(),
                superdiag: Vec::new(),
            },
            dqds: DqdsScratch::new(),
        }
    }

    /// Arena pre-sized for problems up to `dim x dim`, so even a worker's
    /// first direct problem allocates nothing (beyond the result vector).
    fn for_dim(dim: usize) -> Self {
        DirectScratch {
            work: Matrix::zeros(dim, dim),
            tail: Vec::with_capacity(dim.saturating_sub(1)),
            bidiag: Bidiagonal {
                diag: Vec::with_capacity(dim),
                superdiag: Vec::with_capacity(dim.saturating_sub(1)),
            },
            dqds: DqdsScratch::for_len(dim),
        }
    }
}

/// Per-worker scratch of the session pool: the blocked-kernel workspace
/// (the transposed tiles of the LQ factorizations, operand snapshots) plus
/// the direct-path arena, both living as long as the worker does.
#[derive(Debug)]
pub struct SessionScratch {
    kernel: KernelScratch,
    direct: DirectScratch,
}

/// Singular values of `a` through the direct path, written into
/// `out` using only `scratch`'s buffers.
///
/// The chain is `copy -> gebd2_with -> dqds_singular_values_into`, each
/// link bitwise-identical to its allocating twin, so the result equals the
/// [`ge2val`](crate::pipeline::ge2val) direct path bit for bit.  With the default
/// [`SvdSolver::Dqds`] the steady-state call performs **zero heap
/// allocations**; the bisection oracle goes through its allocating entry
/// point (it exists for cross-checking, not for throughput).
fn direct_spectrum(
    a: &Matrix,
    bd2val: &Bd2ValOptions,
    scratch: &mut DirectScratch,
    out: &mut Vec<f64>,
) {
    if a.rows() >= a.cols() {
        scratch.work.copy_from(a);
    } else {
        scratch.work.copy_transposed_from(a);
    }
    gebd2_with(&mut scratch.work, &mut scratch.tail, &mut scratch.bidiag);
    let b = &scratch.bidiag;
    match bd2val.solver {
        SvdSolver::Dqds => {
            // Already sorted non-increasing by the solver — ge2val's extra
            // stable sort is an identity on this output.
            dqds_singular_values_into(&b.diag, &b.superdiag, &mut scratch.dqds, out);
        }
        SvdSolver::Bisection => {
            out.clear();
            out.extend(singular_values_with(&b.diag, &b.superdiag, bd2val));
            // total_cmp: bitwise-identical to partial_cmp on the
            // non-negative finite values the solvers emit, but a poisoned
            // (injected-NaN) spectrum sorts instead of panicking.
            out.sort_by(|x, y| y.total_cmp(x));
        }
    }
}

/// Completion handle of one submitted problem: [`wait`](SvdJob::wait)
/// yields the singular values in non-increasing order or the job's typed
/// failure.
#[must_use = "wait() on the job to obtain the singular values"]
pub struct SvdJob {
    /// `None` for problems resolved at submit time (empty inputs).
    handle: Option<JobHandle<SessionScratch>>,
    result: Arc<OnceLock<Vec<f64>>>,
}

impl SvdJob {
    /// Block until the problem is solved and return its singular values in
    /// non-increasing order.
    ///
    /// A panicked kernel body arrives as [`SvdError::SolverFailure`]
    /// carrying the panic message (nothing is re-thrown — the pool and
    /// every other in-flight job are unaffected); a cancelled job reports
    /// [`SvdError::Cancelled`]; non-finite solver output (unreachable from
    /// validated input, but injectable) is [`SvdError::SolverFailure`].
    pub fn wait(self) -> Result<Vec<f64>, SvdError> {
        if let Some(handle) = self.handle {
            handle.wait().map_err(job_error)?;
        }
        Self::extract(self.result)
    }

    /// Like [`wait`](SvdJob::wait), but give up at the deadline: a job
    /// still running after `timeout` is cancelled and reported as
    /// [`SvdError::TimedOut`] — the per-request deadline of a service
    /// loop.  (The cancelled job still drains as no-ops in the background;
    /// its admission slot frees when it does.)
    pub fn wait_timeout(self, timeout: Duration) -> Result<Vec<f64>, SvdError> {
        if let Some(handle) = &self.handle {
            match handle.wait_timeout(timeout) {
                None => {
                    handle.cancel();
                    return Err(SvdError::TimedOut);
                }
                Some(outcome) => outcome.map_err(job_error)?,
            }
        }
        Self::extract(self.result)
    }

    /// Request cooperative cancellation: kernel bodies that have not
    /// started are skipped (the job's graph still drains, so counters and
    /// the admission slot are released normally) and
    /// [`wait`](SvdJob::wait) reports [`SvdError::Cancelled`].
    /// Best-effort and idempotent; a job that already finished is
    /// unaffected.
    pub fn cancel(&self) {
        if let Some(handle) = &self.handle {
            handle.cancel();
        }
    }

    /// True once the job has completed (non-blocking).
    pub fn is_finished(&self) -> bool {
        self.handle.as_ref().is_none_or(JobHandle::is_finished)
    }

    fn extract(result: Arc<OnceLock<Vec<f64>>>) -> Result<Vec<f64>, SvdError> {
        let sv = match Arc::try_unwrap(result) {
            Ok(cell) => cell.into_inner().expect("job finished without a result"),
            Err(shared) => shared.get().expect("job finished without a result").clone(),
        };
        if let Some(&bad) = sv.iter().find(|v| !v.is_finite()) {
            return Err(SvdError::SolverFailure(format!(
                "solver produced non-finite singular value {bad}"
            )));
        }
        Ok(sv)
    }

    fn finished(sv: Vec<f64>) -> Self {
        let result = Arc::new(OnceLock::new());
        result.set(sv).expect("fresh OnceLock");
        SvdJob {
            handle: None,
            result,
        }
    }
}

/// A persistent batched-SVD service — see the [module docs](self).
///
/// Cheap problems run as a single direct-path task; larger ones submit
/// their full tile DAG (plus a band/solve sink task).  Either way, tasks of
/// all in-flight problems share the same work-stealing deques and the same
/// per-worker scratch arenas.  Dropping the session parks nothing halfway:
/// the pool drains every submitted problem before its threads exit.
pub struct SvdSession {
    pool: TaskPool<SessionScratch>,
    opts: Ge2Options,
    admission: AdmissionPolicy,
    /// Arena pool for inline [`compute_into`](SvdSession::compute_into)
    /// callers (which run on *caller* threads, not pool workers).
    caller_scratch: Mutex<Vec<DirectScratch>>,
}

impl SvdSession {
    /// Session with `threads` workers and the recommended batched
    /// defaults: `nb = 64`, the bench-picked [`DIRECT_CROSSOVER`], dqds,
    /// bounded blocking admission ([`SessionConfig::default`]).
    pub fn new(threads: usize) -> Self {
        Self::with_options(
            Ge2Options::new(DEFAULT_NB)
                .with_threads(threads)
                .with_direct_crossover(DIRECT_CROSSOVER),
        )
    }

    /// Session honouring `opts` verbatim (`opts.threads` workers) under the
    /// default [`SessionConfig`]: every submitted problem yields **bitwise**
    /// the spectrum per-call [`ge2val`](crate::pipeline::ge2val) produces
    /// under the same options — including `opts.direct_crossover = 0`,
    /// which forces the blocked pipeline at every size.
    pub fn with_options(opts: Ge2Options) -> Self {
        Self::with_config(opts, SessionConfig::default())
    }

    /// Session with explicit admission configuration — see
    /// [`SessionConfig`].  Admission never changes the arithmetic: it only
    /// decides *when* (Block) or *whether* (Reject) a problem enters the
    /// pool.
    pub fn with_config(opts: Ge2Options, config: SessionConfig) -> Self {
        let nb = opts.nb;
        let direct_dim = opts.direct_crossover;
        let pool = TaskPool::with_config(
            opts.threads,
            PoolConfig {
                max_in_flight: config.max_in_flight,
            },
            move || SessionScratch {
                kernel: KernelScratch::for_tile(nb),
                direct: DirectScratch::for_dim(direct_dim),
            },
        );
        SvdSession {
            pool,
            opts,
            admission: config.admission,
            caller_scratch: Mutex::new(Vec::new()),
        }
    }

    /// Number of pool worker threads.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The options every submission runs under.
    pub fn options(&self) -> &Ge2Options {
        &self.opts
    }

    /// The in-flight submission cap (`0` = unbounded).
    pub fn max_in_flight(&self) -> usize {
        self.pool.max_in_flight()
    }

    /// High-water mark of concurrently in-flight submissions over the
    /// session's lifetime; never exceeds
    /// [`max_in_flight`](SvdSession::max_in_flight) on a bounded session.
    pub fn in_flight_peak(&self) -> usize {
        self.pool.in_flight_peak()
    }

    /// Close admission: every subsequent submission (and every caller
    /// parked in a blocking [`submit`](SvdSession::submit)) gets
    /// [`SvdError::PoolShutdown`]; jobs already admitted still complete.
    /// Idempotent; dropping the session closes it too.
    pub fn close(&self) {
        self.pool.close();
    }

    /// Submit one problem; returns a [`SvdJob`] handle.
    ///
    /// The input is validated (finiteness) *before* admission, so a
    /// poisoned request is rejected with [`SvdError::NonFiniteInput`]
    /// without consuming a slot or touching the pool.  When the session is
    /// full, the configured [`AdmissionPolicy`] decides between parking
    /// this thread and [`SvdError::QueueFull`].
    ///
    /// The input is snapshot (one clone) so the caller may reuse `a` right
    /// away; everything downstream draws from the worker arenas.
    pub fn submit(&self, a: &Matrix) -> Result<SvdJob, SvdError> {
        self.submit_with(a, self.admission == AdmissionPolicy::Block)
    }

    /// Non-blocking twin of [`submit`](SvdSession::submit): always sheds
    /// with [`SvdError::QueueFull`] when the session is full, regardless
    /// of the configured policy — the entry point of load-shedding
    /// service loops.
    pub fn try_submit(&self, a: &Matrix) -> Result<SvdJob, SvdError> {
        self.submit_with(a, false)
    }

    fn submit_with(&self, a: &Matrix, block: bool) -> Result<SvdJob, SvdError> {
        validate_finite(a)?;
        if a.rows().min(a.cols()) == 0 {
            return Ok(SvdJob::finished(Vec::new()));
        }
        if self.opts.takes_direct_path(a.rows(), a.cols()) {
            self.submit_direct(a.clone(), block)
        } else {
            self.submit_blocked(a, block)
        }
    }

    /// Submit a whole batch; the problems' DAGs interleave on the pool.
    /// Fails fast on the first rejected input (problems already submitted
    /// keep running to completion detached).
    pub fn submit_batch(&self, problems: &[Matrix]) -> Result<Vec<SvdJob>, SvdError> {
        problems.iter().map(|a| self.submit(a)).collect()
    }

    /// Solve `a` *inline on the calling thread* when it is below the
    /// crossover, writing the spectrum into `out` (cleared first); larger
    /// problems are submitted to the pool and waited on.
    ///
    /// This is the steady-state zero-allocation entry point: direct-path
    /// calls draw a pooled arena, so with the default dqds solver a warm
    /// session performs no heap allocation here at all (the allocation
    /// counter test pins this).  Inline solves bypass admission — they
    /// consume the *caller's* CPU, not a pool slot.
    pub fn compute_into(&self, a: &Matrix, out: &mut Vec<f64>) -> Result<(), SvdError> {
        validate_finite(a)?;
        if a.rows().min(a.cols()) == 0 {
            out.clear();
            return Ok(());
        }
        if self.opts.takes_direct_path(a.rows(), a.cols()) {
            let mut scratch = self
                .caller_scratch
                .lock()
                .pop()
                .unwrap_or_else(DirectScratch::new);
            direct_spectrum(a, &self.opts.bd2val, &mut scratch, out);
            self.caller_scratch.lock().push(scratch);
            if let Some(&bad) = out.iter().find(|v| !v.is_finite()) {
                return Err(SvdError::SolverFailure(format!(
                    "solver produced non-finite singular value {bad}"
                )));
            }
            Ok(())
        } else {
            let sv = self.submit(a)?.wait()?;
            out.clear();
            out.extend_from_slice(&sv);
            Ok(())
        }
    }

    /// Direct path as a single pool task using the worker's arena.
    fn submit_direct(&self, a: Matrix, block: bool) -> Result<SvdJob, SvdError> {
        let bd2val = self.opts.bd2val;
        let mut g = TaskGraph::new();
        g.add_task(1.0, 0, obs::KIND_DIRECT, &[(0, AccessMode::Write)]);
        let result: Arc<OnceLock<Vec<f64>>> = Arc::new(OnceLock::new());
        let slot = Arc::clone(&result);
        let k = a.rows().min(a.cols());
        let bodies: Vec<TaskBodyWith<SessionScratch>> =
            vec![Box::new(move |s: &mut SessionScratch| {
                let mut sv = Vec::with_capacity(k);
                direct_spectrum(&a, &bd2val, &mut s.direct, &mut sv);
                slot.set(sv).expect("direct task ran twice");
            })];
        self.enqueue(g, bodies, block, result)
    }

    /// Blocked path: the GE2BND tile DAG plus one *sink* task running the
    /// band extraction, BND2BD and BD2VAL stages (sequentially — with many
    /// problems in flight, inter-problem parallelism keeps the workers
    /// busier than intra-problem stage fan-out would).
    fn submit_blocked(&self, a: &Matrix, block: bool) -> Result<SvdJob, SvdError> {
        let a_owned = if a.rows() >= a.cols() {
            a.clone()
        } else {
            a.transpose()
        };
        let (m, n) = (a_owned.rows(), a_owned.cols());
        let nb = self.opts.nb;
        let algorithm = self.opts.resolve_algorithm(m, n);
        let mut tiled = TiledMatrix::from_dense(&a_owned, nb);
        drop(a_owned);
        let (p, q) = (tiled.tile_rows(), tiled.tile_cols());
        let cfg = GenConfig::shared(self.opts.tree);
        let ops = crate::drivers::ge2bnd_ops(p, q, algorithm, &cfg);

        // The tile DAG over shared per-tile locks; the TiledMatrix shell is
        // refilled by the sink.
        let (mut graph, mut bodies, restore) =
            lower_parallel(&ops, &mut tiled, |s: &mut SessionScratch| &mut s.kernel);
        // The sink declares a write on every data key any op touches, so
        // it depends (transitively) on the completion of the whole DAG.
        let mut keys: Vec<u64> = ops
            .iter()
            .flat_map(|op| op.accesses(q).into_iter().map(|(k, _)| k))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let sink_accesses: Vec<(u64, AccessMode)> =
            keys.into_iter().map(|k| (k, AccessMode::Write)).collect();
        graph.add_task(1.0, 0, obs::KIND_SINK, &sink_accesses);

        let result: Arc<OnceLock<Vec<f64>>> = Arc::new(OnceLock::new());
        let slot = Arc::clone(&result);
        let bd2val = self.opts.bd2val;
        bodies.push(Box::new(move |_s: &mut SessionScratch| {
            restore(&mut tiled);
            // Identical to ge2bnd + the sequential BND2BD / BD2VAL
            // stages of ge2val — same arithmetic, same sort.
            let bw = nb.min(n.saturating_sub(1)).max(1);
            let mut band = BandMatrix::from_tiled(&tiled, bw);
            let bidiag = band.reduce_to_bidiagonal();
            let mut sv = singular_values_with(&bidiag.diag, &bidiag.superdiag, &bd2val);
            // total_cmp: identical order on finite spectra, no panic on
            // an injected-NaN one (which wait() then reports as a
            // SolverFailure instead of a dead job).
            sv.sort_by(|x, y| y.total_cmp(x));
            slot.set(sv).expect("sink ran twice");
        }));
        self.enqueue(graph, bodies, block, result)
    }

    /// Hand a lowered problem to the pool under the chosen admission mode;
    /// its last body fills `result`.
    fn enqueue(
        &self,
        graph: TaskGraph,
        bodies: Vec<TaskBodyWith<SessionScratch>>,
        block: bool,
        result: Arc<OnceLock<Vec<f64>>>,
    ) -> Result<SvdJob, SvdError> {
        let handle = if block {
            self.pool.submit(graph, bodies)
        } else {
            self.pool.try_submit(graph, bodies)
        }
        .map_err(submit_error)?;
        Ok(SvdJob {
            handle: Some(handle),
            result,
        })
    }
}

/// Solve a batch of independent problems on one temporary session and
/// return their spectra in input order — per-call [`ge2val`](crate::pipeline::ge2val) semantics
/// (each spectrum is **bitwise** what `ge2val(&problems[i], opts)` returns
/// under the same options) with batched-runtime performance.
///
/// Fails on the first invalid input or failed job (remaining admitted jobs
/// drain on session drop).  Long-running services should hold a
/// [`SvdSession`] instead, so the pool and the scratch arenas persist
/// across batches.
pub fn ge2val_batch(problems: &[Matrix], opts: &Ge2Options) -> Result<Vec<Vec<f64>>, SvdError> {
    let session = SvdSession::with_options(*opts);
    let jobs = session.submit_batch(problems)?;
    jobs.into_iter().map(SvdJob::wait).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ge2val;
    use bidiag_matrix::gen::{latms, random_gaussian, SpectrumKind};

    /// Sizes straddling the crossover, as the issue prescribes.
    const SIZES: [usize; 6] = [8, 31, 32, 33, 64, 97];

    #[test]
    fn batched_spectra_are_bitwise_equal_to_per_call_ge2val() {
        // One session, default batched options (crossover armed): every
        // result must equal per-call ge2val under the same options, bit
        // for bit — across the direct/blocked boundary.
        let opts = Ge2Options::new(16)
            .with_threads(4)
            .with_direct_crossover(DIRECT_CROSSOVER);
        let session = SvdSession::with_options(opts);
        let problems: Vec<Matrix> = SIZES
            .iter()
            .enumerate()
            .map(|(i, &n)| random_gaussian(n + 3, n, 100 + i as u64))
            .collect();
        let jobs = session.submit_batch(&problems).unwrap();
        for ((a, job), &n) in problems.iter().zip(jobs).zip(&SIZES) {
            let reference = ge2val(a, &opts);
            assert_eq!(
                reference.singular_values,
                job.wait().unwrap(),
                "n={n}: session diverged from per-call ge2val"
            );
        }
    }

    #[test]
    fn blocked_only_session_matches_blocked_ge2val() {
        // Crossover disabled: every size runs the full tile DAG on the
        // pool and must still be bitwise per-call ge2val.
        let opts = Ge2Options::new(16).with_threads(3);
        let session = SvdSession::with_options(opts);
        for (i, &n) in SIZES.iter().enumerate() {
            let (a, _) = latms(
                n + 5,
                n,
                &SpectrumKind::Geometric { cond: 1e4 },
                200 + i as u64,
            );
            let reference = ge2val(&a, &opts);
            assert_eq!(
                reference.singular_values,
                session.submit(&a).unwrap().wait().unwrap(),
                "n={n}"
            );
        }
    }

    #[test]
    fn compute_into_matches_submit() {
        let session = SvdSession::new(2);
        let mut out = Vec::new();
        for (i, &n) in SIZES.iter().enumerate() {
            let a = random_gaussian(n, n, 300 + i as u64);
            let via_submit = session.submit(&a).unwrap().wait().unwrap();
            session.compute_into(&a, &mut out).unwrap();
            assert_eq!(via_submit, out, "n={n}");
        }
    }

    #[test]
    fn wide_problems_match_their_transpose() {
        let session = SvdSession::new(2);
        for n in [16usize, 80] {
            let a = random_gaussian(n, 2 * n, 42);
            let wide = session.submit(&a).unwrap().wait().unwrap();
            let tall = session.submit(&a.transpose()).unwrap().wait().unwrap();
            assert_eq!(wide, tall, "n={n}");
        }
    }

    #[test]
    fn empty_problems_resolve_immediately() {
        let session = SvdSession::new(2);
        let sv = session
            .submit(&Matrix::zeros(0, 0))
            .unwrap()
            .wait()
            .unwrap();
        assert!(sv.is_empty());
        let sv = session
            .submit(&Matrix::zeros(5, 0))
            .unwrap()
            .wait()
            .unwrap();
        assert!(sv.is_empty());
        let mut out = vec![1.0];
        session
            .compute_into(&Matrix::zeros(0, 3), &mut out)
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn oversubscribed_submissions_from_many_threads() {
        // More submitting threads than workers, mixed sizes, every result
        // checked against per-call ge2val — the stress test of the issue.
        let session = Arc::new(SvdSession::new(2));
        std::thread::scope(|scope| {
            for t in 0..6u64 {
                let session = Arc::clone(&session);
                scope.spawn(move || {
                    for r in 0..4u64 {
                        let n = [8usize, 33, 72][(t + r) as usize % 3];
                        let a = random_gaussian(n, n, 1000 + t * 10 + r);
                        let expect = ge2val(&a, session.options());
                        assert_eq!(
                            expect.singular_values,
                            session.submit(&a).unwrap().wait().unwrap()
                        );
                    }
                });
            }
        });
    }

    #[test]
    fn ge2val_batch_returns_spectra_in_input_order() {
        let problems: Vec<Matrix> = (0..8u64)
            .map(|i| random_gaussian(24 + i as usize, 20, i))
            .collect();
        let opts = Ge2Options::new(8)
            .with_threads(4)
            .with_direct_crossover(DIRECT_CROSSOVER);
        let batched = ge2val_batch(&problems, &opts).unwrap();
        for (a, sv) in problems.iter().zip(&batched) {
            assert_eq!(&ge2val(a, &opts).singular_values, sv);
        }
    }

    #[test]
    fn non_finite_inputs_are_rejected_without_touching_the_pool() {
        let session = SvdSession::new(2);
        let mut a = random_gaussian(8, 8, 1);
        a.set(3, 2, f64::NAN);
        match session.submit(&a) {
            Err(SvdError::NonFiniteInput {
                row: 3,
                col: 2,
                value,
            }) => assert!(value.is_nan()),
            other => panic!(
                "expected NonFiniteInput at (3,2), got {:?}",
                other.map(|_| ())
            ),
        }
        assert!(matches!(
            session.try_submit(&a),
            Err(SvdError::NonFiniteInput { .. })
        ));
        let mut out = Vec::new();
        assert!(matches!(
            session.compute_into(&a, &mut out),
            Err(SvdError::NonFiniteInput { .. })
        ));
        // The rejections never consumed an admission slot...
        assert_eq!(session.in_flight_peak(), 0);
        // ...and the session keeps serving clean requests bitwise.
        let b = random_gaussian(8, 8, 2);
        assert_eq!(
            ge2val(&b, session.options()).singular_values,
            session.submit(&b).unwrap().wait().unwrap()
        );
    }

    #[test]
    fn closed_session_rejects_submissions_with_pool_shutdown() {
        let session = SvdSession::new(2);
        let a = random_gaussian(8, 8, 3);
        let admitted = session.submit(&a).unwrap();
        session.close();
        assert!(matches!(session.submit(&a), Err(SvdError::PoolShutdown)));
        assert!(matches!(
            session.try_submit(&a),
            Err(SvdError::PoolShutdown)
        ));
        // Work admitted before the close still completes normally.
        assert_eq!(
            ge2val(&a, session.options()).singular_values,
            admitted.wait().unwrap()
        );
        session.close(); // idempotent
    }

    #[test]
    fn bounded_session_never_exceeds_its_cap() {
        let opts = Ge2Options::new(16)
            .with_threads(2)
            .with_direct_crossover(DIRECT_CROSSOVER);
        let session = SvdSession::with_config(
            opts,
            SessionConfig {
                max_in_flight: 4,
                admission: AdmissionPolicy::Block,
            },
        );
        assert_eq!(session.max_in_flight(), 4);
        let mut jobs = Vec::new();
        for i in 0..64u64 {
            let a = random_gaussian(12, 12, 4000 + i);
            // Blocking admission: this parks instead of failing when full.
            jobs.push((a.clone(), session.submit(&a).unwrap()));
        }
        assert!(
            session.in_flight_peak() <= 4,
            "peak {} exceeded the cap",
            session.in_flight_peak()
        );
        for (a, job) in jobs {
            assert_eq!(
                ge2val(&a, session.options()).singular_values,
                job.wait().unwrap()
            );
        }
    }

    #[test]
    fn generous_deadlines_return_the_spectrum() {
        let session = SvdSession::new(2);
        let a = random_gaussian(24, 24, 5);
        // `Duration::MAX` overflows `Instant`: no deadline, not an expired one.
        for deadline in [Duration::from_secs(60), Duration::MAX] {
            let job = session.submit(&a).unwrap();
            let sv = job.wait_timeout(deadline).unwrap();
            assert_eq!(ge2val(&a, session.options()).singular_values, sv);
        }
    }

    #[test]
    fn cancelling_a_finished_job_keeps_its_result() {
        let session = SvdSession::new(2);
        let a = random_gaussian(16, 16, 6);
        let job = session.submit(&a).unwrap();
        while !job.is_finished() {
            std::thread::yield_now();
        }
        job.cancel(); // no-op: completion already published
        assert_eq!(
            ge2val(&a, session.options()).singular_values,
            job.wait().unwrap()
        );
    }
}
