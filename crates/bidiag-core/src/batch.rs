//! The batched SVD runtime service: one persistent pool, many problems.
//!
//! [`crate::pipeline::ge2val`] is shaped for one large factorization — a
//! threaded call builds a pool, runs one task graph, and tears everything
//! down.  The ROADMAP's serving scenario (millions of small/medium spectra:
//! per-user embedding blocks, per-request covariances) inverts the cost
//! profile: the matrices are tiny and the per-call setup dominates.  [`SvdSession`] amortizes all of it:
//!
//! * **One pool for the session's lifetime.**  A
//!   [`TaskPool`] of workers spawned once;
//!   between submissions they park on the runtime's condition-variable
//!   idle gate (zero CPU), and independent problem DAGs interleave on the
//!   same work-stealing deques — workers never idle while *any* submitted
//!   problem has ready tasks.
//! * **Per-worker, per-lifetime scratch arenas.**  Each worker owns one
//!   direct-path arena (`DirectScratch`) created at spawn and lent to
//!   every gang it runs; buffer capacities are pre-sized or grow to the
//!   high-water mark across problems and stay there, so steady-state
//!   submissions do no hot-path allocation.
//! * **Small problems in gangs.**  Problems whose larger dimension is at
//!   most [`Ge2Options::direct_crossover`] skip the tiled machinery
//!   entirely — no tiling, no T-factors, no band stage, no task graph.
//!   Such a submission is one job on the pool's graph-free job lane: the
//!   input snapshot and a completion cell.  A worker takes the jobs queued
//!   behind it in gangs of up to [`GANG`], runs the one-stage `gebd2`
//!   (the bulge chase's two reflector applies on vector lanes) on each
//!   through one shared work matrix, then solves all their bidiagonals in
//!   one [`dqds_gang_into`] call, whose divisions run four problems at a
//!   time.  A problem's spectrum is bitwise what it is alone, so a busy
//!   session solves small problems faster than per-call
//!   [`ge2val`](crate::pipeline::ge2val) by design.
//!   [`SvdSession::new`] arms the bench-picked
//!   [`DIRECT_CROSSOVER`]; [`SvdSession::with_options`] honours whatever
//!   the caller set (including disabled), so a session reproduces
//!   per-call [`ge2val`](crate::pipeline::ge2val) under the same options **bitwise**.
//! * **Larger problems as one task graph.**  Above the crossover a
//!   submission is the one lowering per-call `ge2val` runs too, at every
//!   thread count: the GE2BND tile DAG, one task chasing the band, one
//!   running dqds.
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
//!   flight; [`SvdSession::submit`] parks the submitting thread until a
//!   slot frees (backpressure), [`SvdSession::try_submit`] sheds load with
//!   [`SvdError::QueueFull`].  A million-problem burst therefore never
//!   holds more than `max_in_flight` live jobs.
//! * **Cancellation and deadlines.**  [`SvdJob::cancel`] drains a job's
//!   remaining work as no-ops (a direct-path job is skipped when its gang
//!   forms); [`SvdJob::wait_timeout`] bounds the wait and cancels on
//!   expiry ([`SvdError::TimedOut`]).  Both kinds of job settle through
//!   the pool's one completion ticket.
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

use crate::error::{check_spectrum, validate_finite, SvdError};
use crate::exec::{lower_ge2val, Lowered, Lowering};
use crate::pipeline::{Ge2Options, DIRECT_CROSSOVER};
use bidiag_kernels::gebd2::{gebd2_with, Bidiagonal};
use bidiag_matrix::Matrix;
use bidiag_runtime::{JobError, JobTicket, PoolConfig, SubmitError, TaskPool, GANG};
use bidiag_svd::{dqds_gang_into, DqdsScratch, LANES};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// Default tile size of [`SvdSession::new`] (the workspace-wide `nb = 64`
/// sweet spot of the blocked path; small problems never see it because the
/// crossover routes them to the direct path).
const DEFAULT_NB: usize = 64;

/// Default in-flight cap of [`SessionConfig::default`]: generous enough to
/// keep every worker saturated with inter-problem parallelism, small
/// enough that a runaway burst of submissions holds a bounded number of
/// live jobs (each pinning its input snapshot until it runs).
const DEFAULT_MAX_IN_FLIGHT: usize = 256;

/// Admission configuration of a [`SvdSession`].
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// Maximum number of submissions in flight (submitted, not yet
    /// finished).  `0` disables the bound (the pre-backpressure
    /// behaviour).  When the cap is reached, [`SvdSession::submit`] parks
    /// the caller and [`SvdSession::try_submit`] sheds.
    pub max_in_flight: usize,
}

impl Default for SessionConfig {
    /// Bounded (256 in flight) — the hardened default every session runs
    /// under unless configured otherwise.
    fn default() -> Self {
        SessionConfig {
            max_in_flight: DEFAULT_MAX_IN_FLIGHT,
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

/// Wait on either kind of job's ticket for at most `timeout`, mapping its
/// outcome into the service taxonomy; a job still running at the deadline
/// is cancelled and reported as [`SvdError::TimedOut`].
fn settle<J>(ticket: JobTicket<J>, timeout: Duration) -> Result<J, SvdError> {
    match ticket.wait_timeout(timeout) {
        Ok(outcome) => outcome.map_err(|e| match e {
            JobError::Panicked(msg) => SvdError::SolverFailure(msg),
            JobError::Cancelled => SvdError::Cancelled,
        }),
        Err(ticket) => {
            ticket.cancel();
            Err(SvdError::TimedOut)
        }
    }
}

/// Arena of the direct path: every buffer the `gebd2 -> dqds` chain of a
/// gang of problems needs, owned per worker (and pooled, a gang of one at
/// a time, for inline [`SvdSession::compute_into`] callers), reused across
/// gangs.  Per-call [`ge2val`](crate::pipeline::ge2val) runs its direct
/// path on one of its own, so every direct-path spectrum comes from
/// [`spectra`](DirectScratch::spectra).
#[derive(Debug)]
pub(crate) struct DirectScratch {
    /// Working copy of one input at a time (transposed when it is wide).
    work: Matrix,
    /// Row-reflector scratch shared by every step of `gebd2`.
    tail: Vec<f64>,
    /// The bidiagonal factors of a gang, cleared and refilled per problem.
    bidiag: [Bidiagonal; GANG],
    /// The lanes of the dqds solver.
    dqds: [DqdsScratch; LANES],
}

impl DirectScratch {
    /// An arena pre-sized for gangs of up to `gang` problems up to
    /// `dim x dim`, so even its first gang allocates nothing (beyond the
    /// result vectors).  Only the `gang` bidiagonals and `min(gang, LANES)`
    /// dqds lanes a gang that size uses hold buffers; arrays instead of
    /// vectors keep a gang of one at the allocations of `gebd2` and dqds
    /// called on their own.
    pub(crate) fn for_gang(dim: usize, gang: usize) -> Self {
        let bidiagonal = |k| {
            let dim = if k < gang { dim } else { 0 };
            Bidiagonal {
                diag: Vec::with_capacity(dim),
                superdiag: Vec::with_capacity(dim.saturating_sub(1)),
            }
        };
        DirectScratch {
            work: Matrix::zeros(dim, dim),
            tail: Vec::with_capacity(dim.saturating_sub(1)),
            bidiag: std::array::from_fn(bidiagonal),
            dqds: std::array::from_fn(|k| {
                if k < gang {
                    DqdsScratch::for_len(dim)
                } else {
                    DqdsScratch::new()
                }
            }),
        }
    }

    /// Singular values of each of `problems` (at most [`GANG`], none
    /// empty) through the direct path, each written into its output in
    /// non-increasing order, using only this arena's buffers.
    ///
    /// The chain is `copy -> gebd2_with` per problem into the gang's
    /// bidiagonals, then one `dqds_gang_into` for all of them, each link
    /// bitwise-identical to its allocating twin, so a problem's spectrum
    /// is the same bits in any gang.  A warm arena performs **zero heap
    /// allocations**.
    pub(crate) fn spectra<'a>(
        &mut self,
        problems: impl ExactSizeIterator<Item = (&'a Matrix, &'a mut Vec<f64>)>,
    ) {
        let DirectScratch {
            work,
            tail,
            bidiag,
            dqds,
        } = self;
        assert!(problems.len() <= GANG, "a gang fits its arena");
        // The outputs wait here while every input is reduced.
        let mut outs = [const { None }; GANG];
        for (k, ((a, out), b)) in problems.zip(bidiag.iter_mut()).enumerate() {
            if a.rows() >= a.cols() {
                work.copy_from(a);
            } else {
                work.copy_transposed_from(a);
            }
            gebd2_with(work, tail, b);
            outs[k] = Some(out);
        }
        let solved = bidiag.iter().zip(outs.iter_mut().map_while(Option::take));
        dqds_gang_into(
            solved.map(|(b, out)| (&b.diag[..], &b.superdiag[..], out)),
            dqds,
        );
    }
}

/// One direct-path problem on the pool's job lane: its input snapshot
/// until its gang has run, and the singular values the gang leaves.
struct DirectJob {
    a: Option<Matrix>,
    sv: Vec<f64>,
}

/// Completion handle of one submitted problem: [`wait`](SvdJob::wait)
/// yields the singular values in non-increasing order or the job's typed
/// failure.
#[must_use = "wait() on the job to obtain the singular values"]
pub struct SvdJob {
    pending: Pending,
}

/// Where a submitted problem is being solved.
enum Pending {
    /// Resolved at submit time (empty inputs).
    Done(Vec<f64>),
    /// A job on the pool's job lane (the direct path).
    Direct(JobTicket<DirectJob>),
    /// A blocked problem's task graph, whose solver task fills the
    /// lowering's `values`.
    Graph {
        ticket: JobTicket<()>,
        lowering: Arc<Lowering>,
    },
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
        self.wait_timeout(Duration::MAX)
    }

    /// Like [`wait`](SvdJob::wait), but give up at the deadline: a job
    /// still running after `timeout` is cancelled and reported as
    /// [`SvdError::TimedOut`] — the per-request deadline of a service
    /// loop.  (The cancelled job still drains as no-ops in the background;
    /// its admission slot frees when it does.)  `Duration::MAX` waits
    /// without a deadline.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Vec<f64>, SvdError> {
        let sv = match self.pending {
            Pending::Done(sv) => sv,
            Pending::Direct(ticket) => settle(ticket, timeout)?.sv,
            Pending::Graph { ticket, lowering } => {
                settle(ticket, timeout)?;
                std::mem::take(&mut *lowering.values.lock())
            }
        };
        Self::checked(sv)
    }

    /// Request cooperative cancellation: work that has not started is
    /// skipped (a blocked job's graph still drains, so counters and the
    /// admission slot are released normally) and [`wait`](SvdJob::wait)
    /// reports [`SvdError::Cancelled`].  Best-effort and idempotent; a job
    /// that already finished is unaffected.
    pub fn cancel(&self) {
        match &self.pending {
            Pending::Done(_) => {}
            Pending::Direct(ticket) => ticket.cancel(),
            Pending::Graph { ticket, .. } => ticket.cancel(),
        }
    }

    /// True once the job has completed (non-blocking).
    pub fn is_finished(&self) -> bool {
        match &self.pending {
            Pending::Done(_) => true,
            Pending::Direct(ticket) => ticket.is_finished(),
            Pending::Graph { ticket, .. } => ticket.is_finished(),
        }
    }

    /// Non-finite solver output (unreachable from validated input, but
    /// injectable) is a [`SvdError::SolverFailure`].
    fn checked(sv: Vec<f64>) -> Result<Vec<f64>, SvdError> {
        check_spectrum(&sv).map(|()| sv)
    }
}

/// A persistent batched-SVD service — see the [module docs](self).
///
/// Cheap problems are jobs on the pool's job lane, solved in gangs; larger
/// ones submit their task graph (the tile DAG, the chase, dqds).  Either
/// way, the work of all in-flight problems shares the same workers; the
/// gangs also share the per-worker scratch arenas.  Dropping the session
/// parks nothing halfway: the pool drains every submitted problem before
/// its threads exit.
pub struct SvdSession {
    pool: TaskPool<DirectJob>,
    opts: Ge2Options,
    /// Arena pool for inline [`compute_into`](SvdSession::compute_into)
    /// callers (which run on *caller* threads, not pool workers).
    caller_scratch: Mutex<Vec<DirectScratch>>,
}

impl SvdSession {
    /// Session with `threads` workers and the recommended batched
    /// defaults: `nb = 64`, the bench-picked [`DIRECT_CROSSOVER`], bounded
    /// blocking admission ([`SessionConfig::default`]).
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
    /// decides *when* ([`submit`](SvdSession::submit)) or *whether*
    /// ([`try_submit`](SvdSession::try_submit)) a problem enters the pool.
    pub fn with_config(opts: Ge2Options, config: SessionConfig) -> Self {
        let direct_dim = opts.direct_crossover;
        let pool = TaskPool::with_lane(
            opts.threads,
            PoolConfig {
                max_in_flight: config.max_in_flight,
            },
            move || DirectScratch::for_gang(direct_dim, GANG),
            move |s: &mut DirectScratch, gang: &mut [DirectJob]| {
                let problems = gang.iter_mut().map(|job| {
                    let a = job.a.as_ref().expect("a job runs once");
                    (a, &mut job.sv)
                });
                s.spectra(problems);
                // Free the inputs now, not whenever their clients wait: a
                // burst of finished jobs would hold every one of them.
                for job in gang {
                    job.a = None;
                }
            },
        );
        SvdSession {
            pool,
            opts,
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
    /// full, this thread parks until a slot frees (backpressure).
    ///
    /// The input is snapshot (one clone) so the caller may reuse `a` right
    /// away; everything downstream draws from the worker arenas.
    pub fn submit(&self, a: &Matrix) -> Result<SvdJob, SvdError> {
        self.submit_with(a, true)
    }

    /// Non-blocking twin of [`submit`](SvdSession::submit): sheds with
    /// [`SvdError::QueueFull`] when the session is full — the entry point
    /// of load-shedding service loops.
    pub fn try_submit(&self, a: &Matrix) -> Result<SvdJob, SvdError> {
        self.submit_with(a, false)
    }

    fn submit_with(&self, a: &Matrix, block: bool) -> Result<SvdJob, SvdError> {
        validate_finite(a)?;
        if a.rows().min(a.cols()) == 0 {
            return Ok(SvdJob {
                pending: Pending::Done(Vec::new()),
            });
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
    /// calls draw a pooled arena and solve a gang of one, so a warm session
    /// performs no heap allocation here at all (the allocation counter test
    /// pins this).  Inline solves bypass admission — they consume the
    /// *caller's* CPU, not a pool slot.
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
                .unwrap_or_else(|| DirectScratch::for_gang(0, 1));
            scratch.spectra(std::iter::once((a, &mut *out)));
            self.caller_scratch.lock().push(scratch);
            check_spectrum(out)
        } else {
            let sv = self.submit(a)?.wait()?;
            out.clear();
            out.extend_from_slice(&sv);
            Ok(())
        }
    }

    /// Direct path: one job on the pool's job lane, solved in the gang of
    /// whichever worker takes it, with that worker's arena.
    fn submit_direct(&self, a: Matrix, block: bool) -> Result<SvdJob, SvdError> {
        let job = DirectJob {
            a: Some(a),
            sv: Vec::new(),
        };
        let ticket = if block {
            self.pool.submit_job(job)
        } else {
            self.pool.try_submit_job(job)
        }
        .map_err(submit_error)?;
        Ok(SvdJob {
            pending: Pending::Direct(ticket),
        })
    }

    /// Blocked path: the problem's one lowering (`exec::lower_ge2val`),
    /// which per-call [`ge2val`](crate::pipeline::ge2val) runs too.
    fn submit_blocked(&self, a: &Matrix, block: bool) -> Result<SvdJob, SvdError> {
        self.opts.check_tile_size(a)?;
        let lowering = Arc::new(lower_ge2val(a, &self.opts));
        let (graph, l) = (lowering.graph(), Arc::clone(&lowering));
        let ticket = if block {
            self.pool.submit(&graph, move |id| l.task(id))
        } else {
            self.pool.try_submit(&graph, move |id| l.task(id))
        }
        .map_err(submit_error)?;
        Ok(SvdJob {
            pending: Pending::Graph { ticket, lowering },
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
    use crate::pipeline::{ge2val, AlgorithmChoice};
    use bidiag_matrix::checks::singular_values_match;
    use bidiag_matrix::gen::{latms, random_gaussian, SpectrumKind};
    use bidiag_trees::NamedTree;
    use std::sync::Arc;

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
    fn every_blocked_path_is_bitwise_sequential_ge2val() {
        // One lowering behind every blocked path: per-call ge2val at 2 and
        // 4 threads and a crossover-free session at 1 and 3 workers must
        // return the bits of sequential per-call ge2val.  BIDIAG and
        // R-BIDIAG, a wide input, ragged tiles, and the sizes straddling
        // the crossover (which the session must not take here).
        let geometric = SpectrumKind::Geometric { cond: 1e4 };
        let mut cases = vec![(
            latms(30, 18, &SpectrumKind::Geometric { cond: 100.0 }, 5),
            Ge2Options::new(5).with_tree(NamedTree::Greedy),
        )];
        for (i, &n) in SIZES.iter().enumerate() {
            cases.push((
                latms(n + 5, n, &geometric, 200 + i as u64),
                Ge2Options::new(16),
            ));
        }
        for algorithm in [AlgorithmChoice::Bidiag, AlgorithmChoice::RBidiag] {
            let opts = Ge2Options::new(4).with_algorithm(algorithm);
            cases.push((latms(17, 11, &geometric, 31), opts));
            cases.push((latms(40, 8, &geometric, 13), opts));
        }
        cases.push((latms(18, 30, &geometric, 6), Ge2Options::new(5)));
        for ((a, sigma), opts) in cases {
            let shape = format!("{}x{} {:?}", a.rows(), a.cols(), opts.algorithm);
            let reference = ge2val(&a, &opts).singular_values;
            assert!(singular_values_match(&reference, &sigma, 1e-10), "{shape}");
            for threads in [2, 4] {
                let threaded = ge2val(&a, &opts.with_threads(threads)).singular_values;
                assert_eq!(reference, threaded, "{shape} @ {threads} threads");
            }
            for workers in [1, 3] {
                let session = SvdSession::with_options(opts.with_threads(workers));
                let sv = session.submit(&a).unwrap().wait().unwrap();
                assert_eq!(reference, sv, "{shape} on {workers} session workers");
            }
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
        let session = SvdSession::with_config(opts, SessionConfig { max_in_flight: 4 });
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
        // A direct-path job, and a blocked one just above the crossover.
        for a in [random_gaussian(24, 24, 5), random_gaussian(65, 65, 5)] {
            // `Duration::MAX` overflows `Instant`: no deadline, not an expired one.
            for deadline in [Duration::from_secs(60), Duration::MAX] {
                let job = session.submit(&a).unwrap();
                let sv = job.wait_timeout(deadline).unwrap();
                assert_eq!(ge2val(&a, session.options()).singular_values, sv);
            }
        }
    }

    #[test]
    fn cancelling_a_finished_job_keeps_its_result() {
        let session = SvdSession::new(2);
        // A direct-path job, and a blocked one just above the crossover.
        for a in [random_gaussian(16, 16, 6), random_gaussian(65, 65, 6)] {
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
}
