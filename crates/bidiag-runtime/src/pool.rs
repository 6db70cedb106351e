//! The scheduler: one work-stealing pool executing task-graph *submissions*.
//!
//! This plays the role PaRSEC plays in the paper's implementation: tasks
//! become ready when their data-flow predecessors complete and are executed
//! by a pool of worker threads.  Every parallel run of the library goes
//! through the one `worker_loop` of this module — a [`TaskPool`] held for a
//! session's lifetime serves a stream of independent graphs (the batched
//! SVD service), and [`crate::execute_parallel`] builds one for the
//! duration of a single graph.  Any schedule is a topological order of the
//! graph, so results do not depend on it (crate docs, "Scheduling
//! invariants").
//!
//! # Scheduler design
//!
//! The scheduler is *work-stealing* and *event-driven*; there is no timed
//! polling anywhere on the execution path.
//!
//! * **Submissions, not teams.**  [`TaskPool::submit`] copies what the
//!   workers read of a [`TaskGraph`] (successor lists, predecessor counts,
//!   tags, bottom levels), packages it with the one body into an [`Arc`]'d
//!   submission and seeds its source tasks, most critical first, into a
//!   shared FIFO injector queue (callers own no deque).  Deque items are
//!   `(submission, task id)` pairs, so tasks of *different* submissions
//!   interleave freely on the same deques — workers never idle while any
//!   submitted problem has ready tasks (inter-problem parallelism).
//! * **Per-worker LIFO deques.**  Every worker owns a
//!   [`crossbeam::deque::Worker`] deque.  Tasks a worker makes ready are
//!   pushed on its own deque, so the successors of a just-finished tile
//!   kernel — whose operands are hot in that worker's cache — are executed
//!   by the same worker in depth-first order, exactly like the
//!   locality-aware queues of PaRSEC.
//! * **Random stealing.**  A worker whose deque and the injector are both
//!   drained picks victims in a per-worker pseudo-random order and steals
//!   the *oldest* entry of a victim's deque (the FIFO end), which is the
//!   entry the victim would touch last.
//! * **Priorities.**  When a finished task releases several successors at
//!   once, they are pushed in increasing bottom-level order so that the
//!   LIFO pop picks the successor with the *longest* remaining critical
//!   path first — the same bottom-level priority the paper's runtime uses.
//!   The highest-priority successor skips the deque entirely and is
//!   returned to the worker loop as the next task to run (a work-first
//!   handoff).
//! * **Idle protocol.**  Workers that find no runnable task block on a
//!   condition variable guarded by a generation counter (the internal
//!   `IdleGate`): publishing new tasks bumps the generation and wakes
//!   sleepers, so a worker only rescans when something actually changed.
//!   Between submissions a parked pool consumes no CPU until the next
//!   `submit` publishes work.
//! * **Bounded admission with backpressure.**  A pool built with
//!   [`TaskPool::with_config`] caps the number of submissions in flight:
//!   [`TaskPool::submit`] parks the *caller* on a condition variable until
//!   a slot frees (a million-problem burst holds at most `max_in_flight`
//!   live job graphs), while [`TaskPool::try_submit`] sheds load instead,
//!   returning [`SubmitError::QueueFull`].  [`TaskPool::close`] rejects
//!   all further submissions ([`SubmitError::Shutdown`]) while everything
//!   already admitted still drains.
//! * **One completion protocol and failure containment.**  Every
//!   submission — a graph or a lane job — finishes through one completion
//!   cell (its mutex, condition variable and `cancelled` flag), which the
//!   client holds as a [`JobTicket`]: the worker that finishes the
//!   submission publishes the outcome there and notifies only when a
//!   client waits, then gives back the admission slot; no thread ever
//!   waits on a timeout to notice completion.  A graph's tasks count down
//!   its remaining tasks, and the one that reaches zero completes it.  A
//!   body panic is caught and *converted to a value*: the cell records
//!   [`JobError::Panicked`] with the payload message and raises the flag,
//!   so the remaining tasks of *that* submission are skipped (its graph
//!   still drains so counters stay consistent) — nothing is ever
//!   re-thrown across the pool boundary, and other submissions are
//!   unaffected.  [`JobTicket::cancel`] raises the same flag for
//!   cooperative cancellation (a first panic still wins), and
//!   [`JobTicket::wait_timeout`] bounds how long a caller blocks.
//! * **A graph-free job lane.**  A pool built with [`TaskPool::with_lane`]
//!   also takes plain jobs ([`TaskPool::submit_job`]): one admission slot
//!   each, queued FIFO in one `Mutex<VecDeque>` and published through the
//!   same idle gate, no graph built.  A worker whose own deque is empty
//!   takes `min(GANG, ⌈queued / threads⌉)` of them at once — a *gang*, so
//!   the jobs that queue behind a busy worker are the ones run together —
//!   and hands them to the runner given at construction with the
//!   worker's scratch: one value per worker, created at spawn and lent to
//!   every gang it ever runs, which is how the session's direct-path gangs
//!   run allocation-free (graph bodies take none: they own what they
//!   touch).  Cancellation is honoured when the gang forms; a runner panic
//!   fails every job of its gang with [`JobError::Panicked`]; `close` and
//!   drop drain the lane as they drain the injector.
//!
//! # Who guards what a body touches
//!
//! A submission carries **one** body, a shared `Fn(TaskId)` that every
//! worker calls with the ids it claims.  A task becomes ready exactly once
//! (only the worker whose `fetch_sub` drops its predecessor counter to
//! zero publishes it) and is claimed exactly once (queue ends are mutually
//! exclusive), so each id runs once, but the pool guards none of the
//! body's data: task bodies get their exclusivity from their own tile
//! try-locks, which the graph's ordering guarantees are free.
//!
//! Dropping the pool closes admission, then the gate; each worker drains
//! every task it can still find (its own deque, the injector, every
//! victim) and exits, so no submitted work is abandoned — the work-first
//! handoff guarantees the chain a worker is executing stays its own, and
//! anything it releases lands on its own deque, which it drains before
//! exiting.
//!
//! Fault injection: the failpoints `pool::body` (inside the per-task
//! `catch_unwind` — once per gang on the job lane — so an injected panic
//! exercises the real containment path) and `pool::admission` (in the non-blocking admission check;
//! `Trigger` forces a [`SubmitError::QueueFull`]) let the robustness suite
//! drive every error path deterministically.  Disarmed they cost one
//! relaxed atomic load.

use crate::graph::{TaskGraph, TaskId};
use bidiag_obs as obs;
use crossbeam::deque::{Steal, Stealer, Worker};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One task's own body, for [`crate::execute_parallel`] and
/// [`crate::execute_sequential`], which take one per task.
pub type TaskBody = Box<dyn FnOnce() + Send>;

/// The body of a whole submission: runs the task of the id it is given.
type GraphBody = Box<dyn Fn(TaskId) + Send + Sync>;

/// Most jobs a worker takes off the job lane at once: the largest gang.
pub const GANG: usize = 16;

/// A worker's runner of the job lane: runs one gang of jobs with the
/// scratch it owns, leaving each job's result in the job.
type GangRunner<J> = Box<dyn FnMut(&mut [J])>;

/// A worker's share of the job lane, built on its thread at spawn: its
/// runner, and its buffers for one gang's completions and jobs, pre-sized
/// so a gang allocates nothing.
struct LaneWorker<'a, J> {
    lane: &'a JobLane<J>,
    runner: GangRunner<J>,
    cells: Vec<Arc<Completion<J>>>,
    gang: Vec<J>,
}

/// The completion of one submission, shared by the pool and the client's
/// [`JobTicket`]: a lane job with its job (`J`), or a graph (`J = ()`).
struct Completion<J> {
    state: Mutex<CompletionState<J>>,
    done_cv: Condvar,
    /// Admission timestamp (ns), 0 when tracing was off at submit time.
    submitted_ns: u64,
    /// Raised by a cancel or a body panic: a graph's workers skip the
    /// tasks that have not started, and a lane job's gang skips the job.
    /// Only ever raised under `state`'s lock, before `finished`.
    cancelled: AtomicBool,
}

struct CompletionState<J> {
    /// The job: here while it queues and once it has run, with the worker
    /// in between (a graph's `()` stays here throughout).
    job: Option<J>,
    finished: bool,
    /// What `wait` reports instead of the job: the first panic (payload
    /// converted to a string at catch time; the payload itself is dropped,
    /// never re-thrown), else a cancellation.
    error: Option<JobError>,
    /// A client is parked on `done_cv`; completion notifies only then.
    waiting: bool,
}

impl<J> Completion<J> {
    fn new(job: J, finished: bool, submitted_ns: u64) -> Self {
        Completion {
            state: Mutex::new(CompletionState {
                job: Some(job),
                finished,
                error: None,
                waiting: false,
            }),
            done_cv: Condvar::new(),
            submitted_ns,
            cancelled: AtomicBool::new(false),
        }
    }

    /// Publish the submission's completion: `outcome` is what a lane job's
    /// gang left (`None` for a graph, or a skipped job, which both keep
    /// what the cell holds), `(start_ns, end_ns)` the span the queue-wait,
    /// compute and latency samples split at (zero when tracing was off).
    fn complete(&self, outcome: Option<Result<J, JobError>>, span: (u64, u64)) {
        if self.submitted_ns != 0 && span.0 != 0 {
            let reg = obs::registry();
            reg.queue_wait
                .record(span.0.saturating_sub(self.submitted_ns));
            reg.compute.record(span.1.saturating_sub(span.0));
            reg.latency.record(span.1.saturating_sub(self.submitted_ns));
        }
        let mut st = self.state.lock();
        match outcome {
            Some(Ok(job)) => st.job = Some(job),
            Some(Err(e)) => st.error = Some(e),
            None => {}
        }
        st.finished = true;
        if st.waiting {
            self.done_cv.notify_all();
        }
    }
}

/// The graph-free job lane of a pool built with [`TaskPool::with_lane`].
struct JobLane<J> {
    queue: Mutex<VecDeque<Arc<Completion<J>>>>,
    /// Builds each worker's runner, with its scratch.
    new_runner: Box<dyn Fn() -> GangRunner<J> + Send + Sync>,
}

/// The event gate of the idle protocol: a generation counter bumped on every
/// publication of new work, plus a `done` latch flipped when the pool shuts
/// down.  Workers park on the condition variable when a full scan of all
/// queues found nothing and the generation has not moved since the scan
/// started — so a publication between scan and park is never lost.
struct IdleGate {
    state: Mutex<GateState>,
    cv: Condvar,
}

struct GateState {
    generation: u64,
    sleepers: usize,
    done: bool,
}

impl IdleGate {
    fn new() -> Self {
        IdleGate {
            state: Mutex::new(GateState {
                generation: 0,
                sleepers: 0,
                done: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Announce that new tasks were pushed on some queue.
    fn publish(&self) {
        let mut st = self.state.lock();
        st.generation += 1;
        if st.sleepers > 0 {
            self.cv.notify_all();
        }
    }

    /// Announce that the pool is shutting down.
    fn finish(&self) {
        let mut st = self.state.lock();
        st.done = true;
        self.cv.notify_all();
    }

    /// Park until something changes.  `seen` is the generation the caller's
    /// last (fruitless) scan started from; returns `true` when the caller
    /// should rescan for work and `false` when the pool is shutting down.
    fn park(&self, seen: &mut u64) -> bool {
        let mut st = self.state.lock();
        loop {
            if st.done {
                return false;
            }
            if st.generation != *seen {
                *seen = st.generation;
                return true;
            }
            st.sleepers += 1;
            let parked_at = obs::enabled().then(|| {
                obs::registry().parks.incr();
                obs::now_ns()
            });
            self.cv.wait(&mut st);
            if let Some(t0) = parked_at {
                obs::registry().idle_ns.add(obs::now_ns() - t0);
            }
            st.sleepers -= 1;
        }
    }
}

#[inline]
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Why a submission finished without producing its results.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// A task body panicked; the submission's remaining tasks were
    /// skipped and its graph drained.  Carries the panic payload message
    /// (the pool never re-throws a payload across `wait`).
    Panicked(String),
    /// The submission was cancelled via [`JobTicket::cancel`] before it
    /// finished; tasks that had not started were skipped.
    Cancelled,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked(msg) => write!(f, "task body panicked: {msg}"),
            JobError::Cancelled => write!(f, "submission was cancelled"),
        }
    }
}

impl std::error::Error for JobError {}

/// Why a submission was not admitted to the pool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The pool already has `max_in_flight` submissions in flight and the
    /// caller asked not to block ([`TaskPool::try_submit`]).
    QueueFull {
        /// The pool's in-flight cap at the time of rejection.
        max_in_flight: usize,
    },
    /// The pool was [`close`](TaskPool::close)d (or is being dropped);
    /// no further submissions are accepted.
    Shutdown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { max_in_flight } => {
                write!(f, "admission queue is full ({max_in_flight} in flight)")
            }
            SubmitError::Shutdown => write!(f, "pool is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Admission configuration of a [`TaskPool`].
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolConfig {
    /// Maximum number of submissions in flight (submitted, not yet
    /// finished).  `0` — the default, matching [`TaskPool::new`] — means
    /// unbounded, the pre-backpressure behaviour.
    pub max_in_flight: usize,
}

/// What the workers read of one task of a submitted [`TaskGraph`], copied
/// out at submit time so the graph need not outlive the `submit` call.
struct TaskState {
    /// Remaining-predecessor counter; the worker that drops it to zero
    /// owns the publication of the task.
    remaining_preds: AtomicUsize,
    /// Bottom level, the intra-submission scheduling priority.
    priority: f64,
    /// The task's [`TaskNode::tag`](crate::TaskNode::tag), recorded as the
    /// kind of its span.
    tag: u32,
    /// End of the task's run in [`Submission::successors`]; the run starts
    /// where the previous task's ends.
    succ_end: usize,
}

/// One submitted task graph with all the scheduler state it travels with.
struct Submission {
    tasks: Vec<TaskState>,
    /// The successor lists of all tasks, back to back in task order.
    successors: Vec<TaskId>,
    /// Countdown of unfinished tasks of this submission.
    remaining_tasks: AtomicUsize,
    body: GraphBody,
    /// Completed by the task that drops `remaining_tasks` to zero; its
    /// `cancelled` flag makes the remaining tasks no-ops.
    completion: Arc<Completion<()>>,
    /// Observability run id (0 = tracing was off at submit time), making
    /// every per-task tracing branch a single predictable integer compare.
    trace_id: u64,
    /// First body start (ns), CAS'd from 0 by the first worker to touch the
    /// submission; splits end-to-end latency into queue wait vs compute.
    first_start_ns: AtomicU64,
}

impl Submission {
    /// Package a non-empty `graph` and its body, admitted at
    /// `submitted_ns` (0 when tracing is off).
    fn new(graph: &TaskGraph, body: GraphBody, submitted_ns: u64) -> Self {
        let priority = graph.bottom_levels();
        let mut successors = Vec::new();
        let tasks = priority
            .into_iter()
            .enumerate()
            .map(|(id, priority)| {
                successors.extend_from_slice(graph.successors(id));
                TaskState {
                    remaining_preds: AtomicUsize::new(graph.predecessors(id).len()),
                    priority,
                    tag: graph.task(id).tag,
                    succ_end: successors.len(),
                }
            })
            .collect();
        Submission {
            tasks,
            successors,
            remaining_tasks: AtomicUsize::new(graph.len()),
            body,
            completion: Arc::new(Completion::new((), false, submitted_ns)),
            trace_id: if submitted_ns != 0 {
                obs::next_submission_id()
            } else {
                0
            },
            first_start_ns: AtomicU64::new(0),
        }
    }

    fn successors(&self, id: TaskId) -> &[TaskId] {
        let start = if id == 0 {
            0
        } else {
            self.tasks[id - 1].succ_end
        };
        &self.successors[start..self.tasks[id].succ_end]
    }

    /// Order task ids by ascending bottom level.
    fn by_priority(&self, a: TaskId, b: TaskId) -> std::cmp::Ordering {
        self.tasks[a]
            .priority
            .partial_cmp(&self.tasks[b].priority)
            .expect("bottom levels are finite")
    }
}

/// Best-effort conversion of a panic payload to its message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "task body panicked (non-string payload)".to_string()
    }
}

/// A deque/injector item: one ready task of one submission.
type PoolItem = (Arc<Submission>, TaskId);

/// Completion handle of one submission: a graph ([`TaskPool::submit`],
/// `J = ()`) or a lane job ([`TaskPool::submit_job`]), whose [`wait`]
/// returns the job as the runner left it.
///
/// Detaching (dropping the ticket) is allowed: the submission still runs
/// to completion.
///
/// [`wait`]: JobTicket::wait
#[must_use = "dropping the ticket detaches the job; call wait() to get it back"]
pub struct JobTicket<J> {
    cell: Arc<Completion<J>>,
}

impl<J> std::fmt::Debug for JobTicket<J> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobTicket")
            .field("finished", &self.is_finished())
            .finish_non_exhaustive()
    }
}

impl<J> JobTicket<J> {
    /// Block until the submission has finished — every task of a graph run
    /// or skipped, a lane job's gang run — and return the job, or
    /// [`JobError::Panicked`] with the first panic's message, or
    /// [`JobError::Cancelled`].
    pub fn wait(self) -> Result<J, JobError> {
        match self.wait_timeout(Duration::MAX) {
            Ok(outcome) => outcome,
            Err(_) => unreachable!("a wait without a deadline ends only on completion"),
        }
    }

    /// Like [`wait`](JobTicket::wait), but give up after `timeout`,
    /// handing the ticket back (cancel it, keep waiting, or detach). A
    /// deadline too far off for [`Instant`] to represent (`Duration::MAX`)
    /// waits without one.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Result<J, JobError>, Self> {
        let deadline = Instant::now().checked_add(timeout);
        let mut st = self.cell.state.lock();
        while !st.finished {
            st.waiting = true;
            let Some(deadline) = deadline else {
                self.cell.done_cv.wait(&mut st);
                continue;
            };
            let now = Instant::now();
            if now >= deadline {
                drop(st);
                return Err(self);
            }
            self.cell.done_cv.wait_timeout(&mut st, deadline - now);
        }
        Ok(match st.error.take() {
            Some(e) => Err(e),
            None => Ok(st.job.take().expect("a finished job is handed out once")),
        })
    }

    /// Request cooperative cancellation: a graph's tasks that have not
    /// started are skipped (the graph still drains, so counters and the
    /// admission slot are released normally), a lane job whose gang has
    /// not formed is skipped, and [`wait`](JobTicket::wait) reports
    /// [`JobError::Cancelled`] — unless the submission had already
    /// finished, or a body had already panicked. Idempotent.
    pub fn cancel(&self) {
        // The lock makes "finished" exact: a job observed complete here is
        // never retroactively marked cancelled.
        let mut st = self.cell.state.lock();
        if !st.finished {
            st.error.get_or_insert(JobError::Cancelled);
            self.cell.cancelled.store(true, Ordering::Release);
        }
    }

    /// True once the submission has finished, non-blocking.
    pub fn is_finished(&self) -> bool {
        self.cell.state.lock().finished
    }
}

/// In-flight submission accounting, shared by admission and completion.
struct AdmissionState {
    in_flight: usize,
    /// High-water mark of `in_flight` over the pool's lifetime — lets the
    /// memory-bound tests assert the cap was never exceeded.
    peak: usize,
    closed: bool,
}

/// State shared by every worker of the pool.
struct PoolShared<J> {
    /// Overflow/entry queue: `submit` seeds source tasks here (callers do
    /// not own a deque); workers pull from it when their deque drains.
    injector: Mutex<VecDeque<PoolItem>>,
    /// `None` unless the pool was built [`TaskPool::with_lane`].
    lane: Option<JobLane<J>>,
    stealers: Vec<Stealer<PoolItem>>,
    gate: IdleGate,
    admission: Mutex<AdmissionState>,
    admission_cv: Condvar,
    /// In-flight submission cap (`0` = unbounded).
    max_in_flight: usize,
}

impl<J> PoolShared<J> {
    /// Run `id` of `sub`, release its successors, and return the
    /// highest-priority newly-ready successor for direct execution
    /// (work-first handoff).
    fn run_item(
        &self,
        sub: &Arc<Submission>,
        id: TaskId,
        me: usize,
        local: &Worker<PoolItem>,
    ) -> Option<TaskId> {
        // Span timestamps bracket the body (or the skip); the span is
        // recorded *before* any successor is released, so recorded traces
        // satisfy `end[pred] <= start[succ]` on every DAG edge — the
        // invariant the critical-path analyzer relies on.
        let start_ns = if sub.trace_id != 0 {
            let t = obs::now_ns();
            let _ = sub
                .first_start_ns
                .compare_exchange(0, t, Ordering::Relaxed, Ordering::Relaxed);
            t
        } else {
            0
        };
        let completion = &sub.completion;
        if !completion.cancelled.load(Ordering::Acquire) {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let _ = failpoint::fire("pool::body");
                (sub.body)(id)
            }));
            if let Err(p) = outcome {
                let mut st = completion.state.lock();
                if !matches!(st.error, Some(JobError::Panicked(_))) {
                    st.error = Some(JobError::Panicked(panic_message(&*p)));
                }
                completion.cancelled.store(true, Ordering::Release);
                // `p` is dropped here: the payload never crosses the pool.
            }
        }
        if sub.trace_id != 0 {
            obs::record_task(sub.trace_id, id, sub.tasks[id].tag, me as u32, start_ns);
        }

        let mut ready: Vec<TaskId> = Vec::new();
        for &succ in sub.successors(id) {
            let left = sub.tasks[succ]
                .remaining_preds
                .fetch_sub(1, Ordering::AcqRel);
            if left == 1 {
                ready.push(succ);
            }
        }
        // Ascending bottom level: the LIFO pop (and the direct handoff of
        // the last element) then serves the most critical successor first.
        ready.sort_by(|&a, &b| sub.by_priority(a, b));
        let next = ready.pop();
        if !ready.is_empty() {
            for t in ready {
                local.push((Arc::clone(sub), t));
            }
            self.gate.publish();
        }

        if sub.remaining_tasks.fetch_sub(1, Ordering::AcqRel) == 1 {
            // The graph's span runs from its first body start.
            let span = if sub.trace_id != 0 {
                (sub.first_start_ns.load(Ordering::Relaxed), obs::now_ns())
            } else {
                (0, 0)
            };
            completion.complete(None, span);
            self.release(1);
        }
        next
    }

    /// The rest of a scan once the worker's own deque and the job lane are
    /// empty: the injector, then every victim in a pseudo-random order
    /// starting from `rng`'s draw.
    fn find_shared(&self, me: usize, rng: &mut u64) -> Option<PoolItem> {
        if let Some(item) = self.injector.lock().pop_front() {
            return Some(item);
        }
        let n = self.stealers.len();
        if n <= 1 {
            return None;
        }
        let start = (xorshift(rng) as usize) % n;
        for k in 0..n {
            let victim = (start + k) % n;
            if victim == me {
                continue;
            }
            loop {
                match self.stealers[victim].steal() {
                    Steal::Success(item) => {
                        if obs::enabled() {
                            obs::registry().steals.incr();
                        }
                        return Some(item);
                    }
                    Steal::Empty => break,
                    Steal::Retry => continue,
                }
            }
        }
        None
    }

    /// Take a gang off the job lane and run it with worker `me`'s share of
    /// the lane; false when the lane is empty.
    fn run_gang(&self, me: usize, w: &mut LaneWorker<'_, J>) -> bool {
        {
            let mut queue = w.lane.queue.lock();
            if queue.is_empty() {
                return false;
            }
            let take = GANG.min(queue.len().div_ceil(self.stealers.len()));
            w.cells.extend(queue.drain(..take));
        }
        let start_ns = if obs::enabled() {
            obs::registry().tasks_executed.add(w.cells.len() as u64);
            obs::now_ns()
        } else {
            0
        };
        // Cancellation is honoured here, as the gang forms: a job cancelled
        // while it queued completes as it stands, and nothing runs it.
        let mut i = 0;
        while i < w.cells.len() {
            let job = {
                let cell = &w.cells[i];
                let mut st = cell.state.lock();
                if cell.cancelled.load(Ordering::Relaxed) {
                    None
                } else {
                    st.job.take()
                }
            };
            match job {
                Some(job) => {
                    w.gang.push(job);
                    i += 1;
                }
                None => {
                    w.cells.remove(i).complete(None, (start_ns, start_ns));
                    self.release(1);
                }
            }
        }
        if w.gang.is_empty() {
            return true;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _ = failpoint::fire("pool::body");
            (w.runner)(&mut w.gang)
        }));
        let end_ns = if start_ns != 0 { obs::now_ns() } else { 0 };
        if start_ns != 0 {
            obs::record_span(obs::Span {
                submission: obs::next_submission_id(),
                task: 0,
                kind: obs::KIND_DIRECT,
                worker: me as u32,
                start_ns,
                end_ns,
            });
            let reg = obs::registry();
            reg.direct_gangs.incr();
            reg.direct_gang_jobs.add(w.gang.len() as u64);
        }
        match outcome {
            Ok(()) => {
                for (cell, job) in w.cells.iter().zip(w.gang.drain(..)) {
                    cell.complete(Some(Ok(job)), (start_ns, end_ns));
                }
            }
            Err(p) => {
                // Every job of the gang fails: the runner's state when it
                // unwound says nothing about which of them it finished.
                let error = JobError::Panicked(panic_message(&*p));
                w.gang.clear();
                for cell in w.cells.iter() {
                    cell.complete(Some(Err(error.clone())), (start_ns, end_ns));
                }
            }
        }
        self.release(w.cells.len());
        w.cells.clear();
        true
    }

    /// Give back the admission slots of `jobs` finished submissions — only
    /// after their completions are published, so `in_flight` never
    /// under-counts live work — and wake every parked submitter: each
    /// rechecks, and those that find no free slot park again.
    fn release(&self, jobs: usize) {
        let mut adm = self.admission.lock();
        adm.in_flight -= jobs;
        drop(adm);
        self.admission_cv.notify_all();
    }

    fn worker_loop(&self, me: usize, local: Worker<PoolItem>) {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ ((me as u64 + 1) << 17);
        let mut seen = 0u64;
        let mut open = true;
        let mut lane = self.lane.as_ref().map(|lane| LaneWorker {
            lane,
            runner: (lane.new_runner)(),
            cells: Vec::with_capacity(GANG),
            gang: Vec::with_capacity(GANG),
        });
        loop {
            // A worker whose own deque is empty serves the job lane before
            // the injector and the other deques.
            loop {
                let item = match local.pop() {
                    Some(item) => Some(item),
                    None if lane.as_mut().is_some_and(|w| self.run_gang(me, w)) => continue,
                    None => self.find_shared(me, &mut rng),
                };
                let Some((sub, id)) = item else {
                    break;
                };
                let mut current = id;
                while let Some(next) = self.run_item(&sub, current, me, &local) {
                    current = next;
                }
            }
            // Shutdown drain: once the gate is closed, submissions may
            // still have runnable tasks, so the scan above runs one more
            // time.  Chains this worker releases land on its own deque and
            // are drained there too, so no submission is left incomplete.
            if !open {
                return;
            }
            open = self.gate.park(&mut seen);
        }
    }
}

/// A work-stealing thread pool executing a stream of [`TaskGraph`]
/// submissions — see the [module docs](self).
///
/// `J` is the job type of the lane of a pool built
/// [`with_lane`](TaskPool::with_lane) (none otherwise).
///
/// # Examples
///
/// ```
/// use bidiag_runtime::{AccessMode, TaskGraph, TaskPool};
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// let pool = TaskPool::new(4);
/// let acc = Arc::new(AtomicU64::new(0));
/// let tickets: Vec<_> = (0..8u64)
///     .map(|p| {
///         let mut g = TaskGraph::new();
///         g.add_task(1.0, 0, 0, &[(p, AccessMode::Write)]);
///         g.add_task(1.0, 0, 0, &[(p, AccessMode::Write)]);
///         // One body for the whole graph, called once per task id.
///         let acc = Arc::clone(&acc);
///         let body = move |_id| {
///             acc.fetch_add(1, Ordering::SeqCst);
///         };
///         pool.submit(&g, body).expect("pool is open")
///     })
///     .collect();
/// for t in tickets {
///     t.wait().expect("no body panicked");
/// }
/// assert_eq!(acc.load(Ordering::SeqCst), 16);
/// ```
pub struct TaskPool<J: 'static = ()> {
    shared: Arc<PoolShared<J>>,
    handles: Vec<JoinHandle<()>>,
}

impl TaskPool {
    /// Spawn a pool of `threads` workers (at least one) with unbounded
    /// admission.
    pub fn new(threads: usize) -> Self {
        Self::with_config(threads, PoolConfig::default())
    }

    /// Spawn a pool with explicit admission configuration — see
    /// [`PoolConfig`].
    pub fn with_config(threads: usize, config: PoolConfig) -> Self {
        Self::spawn(threads, config, None)
    }
}

impl<J: Send + 'static> TaskPool<J> {
    /// Spawn a pool like [`with_config`](TaskPool::with_config) that also
    /// serves a graph-free job lane ([`submit_job`](TaskPool::submit_job)):
    /// each worker owns one scratch value, created by `init` on that
    /// worker's thread, and `runner` runs each gang of jobs the worker
    /// takes with it, leaving each job's result in the job.
    pub fn with_lane<S: 'static>(
        threads: usize,
        config: PoolConfig,
        init: impl Fn() -> S + Send + Sync + 'static,
        runner: impl Fn(&mut S, &mut [J]) + Send + Sync + 'static,
    ) -> Self {
        let runner = Arc::new(runner);
        let lane = JobLane {
            queue: Mutex::new(VecDeque::new()),
            new_runner: Box::new(move || {
                let (mut scratch, runner) = (init(), Arc::clone(&runner));
                Box::new(move |gang: &mut [J]| runner(&mut scratch, gang))
            }),
        };
        Self::spawn(threads, config, Some(lane))
    }

    fn spawn(threads: usize, config: PoolConfig, lane: Option<JobLane<J>>) -> Self {
        let threads = threads.max(1);
        let workers: Vec<Worker<PoolItem>> = (0..threads).map(|_| Worker::new_lifo()).collect();
        let shared = Arc::new(PoolShared {
            injector: Mutex::new(VecDeque::new()),
            lane,
            stealers: workers.iter().map(Worker::stealer).collect(),
            gate: IdleGate::new(),
            admission: Mutex::new(AdmissionState {
                in_flight: 0,
                peak: 0,
                closed: false,
            }),
            admission_cv: Condvar::new(),
            max_in_flight: config.max_in_flight,
        });
        let handles = workers
            .into_iter()
            .enumerate()
            .map(|(me, local)| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || shared.worker_loop(me, local))
            })
            .collect();
        TaskPool { shared, handles }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// The in-flight submission cap (`0` = unbounded).
    pub fn max_in_flight(&self) -> usize {
        self.shared.max_in_flight
    }

    /// Number of submissions currently in flight (admitted, not finished).
    pub fn in_flight(&self) -> usize {
        self.shared.admission.lock().in_flight
    }

    /// High-water mark of [`in_flight`](TaskPool::in_flight) over the
    /// pool's lifetime.  On a bounded pool this never exceeds
    /// [`max_in_flight`](TaskPool::max_in_flight) — the property the
    /// memory-bound tests assert.
    pub fn in_flight_peak(&self) -> usize {
        self.shared.admission.lock().peak
    }

    /// Acquire one admission slot.  `block` selects backpressure (park on
    /// the admission condvar until a slot frees) versus load shedding
    /// (return [`SubmitError::QueueFull`]).  Returns the submission's
    /// admission timestamp (ns), 0 when tracing is off.
    fn admit(&self, block: bool) -> Result<u64, SubmitError> {
        let mut adm = self.shared.admission.lock();
        // Set when this admission had to park at least once; the wait is
        // charged to the registry on whichever outcome ends it.
        let mut wait_from: Option<u64> = None;
        loop {
            if adm.closed {
                return Err(SubmitError::Shutdown);
            }
            let full = self.shared.max_in_flight > 0 && adm.in_flight >= self.shared.max_in_flight;
            // A non-blocking caller is shed when the pool is full — or when
            // the `pool::admission` failpoint injects a "momentarily full"
            // outcome, so load-shedding paths are testable without real
            // saturation.  Only the non-blocking path consults it: a
            // blocking caller would park forever on a fault that no
            // completion ever clears.
            let injected = || {
                matches!(
                    failpoint::fire("pool::admission"),
                    Some(failpoint::FailAction::Trigger)
                )
            };
            if !block && (full || injected()) {
                if obs::enabled() {
                    obs::registry().shed_submissions.incr();
                }
                return Err(SubmitError::QueueFull {
                    max_in_flight: self.shared.max_in_flight,
                });
            }
            if !full {
                adm.in_flight += 1;
                adm.peak = adm.peak.max(adm.in_flight);
                if obs::enabled() {
                    let reg = obs::registry();
                    reg.in_flight_peak.record(adm.in_flight as u64);
                    if let Some(t0) = wait_from {
                        reg.admission_wait_ns.add(obs::now_ns() - t0);
                    }
                }
                drop(adm);
                // Stamped outside the lock, which a finishing worker takes.
                return Ok(if obs::enabled() {
                    obs::registry().submissions.incr();
                    obs::now_ns()
                } else {
                    0
                });
            }
            if obs::enabled() && wait_from.is_none() {
                obs::registry().admission_waits.incr();
                wait_from = Some(obs::now_ns());
            }
            self.shared.admission_cv.wait(&mut adm);
        }
    }

    /// Submit one task graph for execution: `body(i)` runs exactly once
    /// for task `i`, on some worker, after `body` of each of its
    /// predecessors returned.
    ///
    /// The pool copies what it needs of `graph` before returning.  On a
    /// bounded pool this **blocks** while `max_in_flight` submissions are in
    /// flight (backpressure), waking when a slot frees.  Returns
    /// [`SubmitError::Shutdown`] if the pool was closed.
    pub fn submit(
        &self,
        graph: &TaskGraph,
        body: impl Fn(TaskId) + Send + Sync + 'static,
    ) -> Result<JobTicket<()>, SubmitError> {
        self.submit_graph(graph, Box::new(body), true)
    }

    /// Non-blocking twin of [`submit`](TaskPool::submit): when the pool is
    /// full, returns [`SubmitError::QueueFull`] immediately instead of
    /// parking the caller — the load-shedding admission policy.
    pub fn try_submit(
        &self,
        graph: &TaskGraph,
        body: impl Fn(TaskId) + Send + Sync + 'static,
    ) -> Result<JobTicket<()>, SubmitError> {
        self.submit_graph(graph, Box::new(body), false)
    }

    fn submit_graph(
        &self,
        graph: &TaskGraph,
        body: GraphBody,
        block: bool,
    ) -> Result<JobTicket<()>, SubmitError> {
        if graph.is_empty() {
            // Nothing to run: never admitted (no slot to leak), but a
            // closed pool still rejects, so shutdown is observable.
            if self.shared.admission.lock().closed {
                return Err(SubmitError::Shutdown);
            }
            let cell = Arc::new(Completion::new((), true, 0));
            return Ok(JobTicket { cell });
        }
        let submitted_ns = self.admit(block)?;
        let sub = Arc::new(Submission::new(graph, body, submitted_ns));

        // Seed the sources highest bottom level first: the injector is
        // FIFO, so workers pull the most critical source first.
        let mut sources: Vec<TaskId> = (0..graph.len())
            .filter(|&i| graph.predecessors(i).is_empty())
            .collect();
        sources.sort_by(|&a, &b| sub.by_priority(b, a));
        let mut inj = self.shared.injector.lock();
        for id in sources {
            inj.push_back((Arc::clone(&sub), id));
        }
        drop(inj);
        self.shared.gate.publish();
        Ok(JobTicket {
            cell: Arc::clone(&sub.completion),
        })
    }

    /// Submit one job to the lane; it runs, in some gang, on some worker.
    ///
    /// Takes one admission slot like a graph submission: on a bounded pool
    /// this **blocks** while `max_in_flight` submissions are in flight, and
    /// returns [`SubmitError::Shutdown`] once the pool is closed. Panics if
    /// the pool was not built [`with_lane`](TaskPool::with_lane).
    pub fn submit_job(&self, job: J) -> Result<JobTicket<J>, SubmitError> {
        self.enqueue_job(job, true)
    }

    /// Non-blocking twin of [`submit_job`](TaskPool::submit_job): sheds
    /// with [`SubmitError::QueueFull`] when the pool is full.
    pub fn try_submit_job(&self, job: J) -> Result<JobTicket<J>, SubmitError> {
        self.enqueue_job(job, false)
    }

    fn enqueue_job(&self, job: J, block: bool) -> Result<JobTicket<J>, SubmitError> {
        let lane = self
            .shared
            .lane
            .as_ref()
            .expect("jobs go to a pool built with `with_lane`");
        let submitted_ns = self.admit(block)?;
        let cell = Arc::new(Completion::new(job, false, submitted_ns));
        lane.queue.lock().push_back(Arc::clone(&cell));
        self.shared.gate.publish();
        Ok(JobTicket { cell })
    }
}

impl<J: 'static> TaskPool<J> {
    /// Close admission: every subsequent `submit`/`try_submit` (and every
    /// caller currently parked in a blocking `submit`) gets
    /// [`SubmitError::Shutdown`].  Work already admitted still drains.
    /// Idempotent; [`Drop`] calls it first.
    pub fn close(&self) {
        let mut adm = self.shared.admission.lock();
        adm.closed = true;
        drop(adm);
        self.shared.admission_cv.notify_all();
    }
}

impl<J: 'static> Drop for TaskPool<J> {
    fn drop(&mut self) {
        self.close();
        self.shared.gate.finish();
        for h in self.handles.drain(..) {
            // A worker thread can only panic through a scheduler bug (body
            // panics are caught per submission); surface it.
            if let Err(p) = h.join() {
                if !std::thread::panicking() {
                    resume_unwind(p);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::AccessMode::{Read, Write};
    use std::sync::atomic::AtomicU64;

    /// A body that counts every task it runs in `acc`.
    fn counting_body(acc: &Arc<AtomicU64>) -> impl Fn(TaskId) + Send + Sync + 'static {
        let acc = Arc::clone(acc);
        move |_| {
            acc.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn submissions_respect_dependencies() {
        let pool = TaskPool::new(4);
        let mut g = TaskGraph::new();
        g.add_task(1.0, 0, 0, &[(9, Write)]);
        for c in 0..3u64 {
            for s in 0..20u64 {
                if s == 0 {
                    g.add_task(1.0, 0, 0, &[(9, Read), (c, Write)]);
                } else {
                    g.add_task(1.0, 0, 0, &[(c, Write)]);
                }
            }
        }
        let n = g.len();
        let stamp = AtomicU64::new(1);
        let order: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
        let body = {
            let order = Arc::clone(&order);
            move |i: TaskId| {
                order[i].store(stamp.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
            }
        };
        pool.submit(&g, body).unwrap().wait().unwrap();
        for id in 0..n {
            let t = order[id].load(Ordering::SeqCst);
            assert!(t > 0, "task {id} never ran");
            for &p in g.predecessors(id) {
                assert!(
                    order[p].load(Ordering::SeqCst) < t,
                    "task {id} ran before its predecessor {p}"
                );
            }
        }
    }

    #[test]
    fn many_interleaved_submissions_all_complete() {
        let pool = TaskPool::new(4);
        let acc = Arc::new(AtomicU64::new(0));
        let mut expected = 0u64;
        let handles: Vec<JobTicket<()>> = (0..50u64)
            .map(|p| {
                let len = 1 + (p % 7) as usize;
                expected += len as u64;
                let mut g = TaskGraph::new();
                for _ in 0..len {
                    g.add_task(1.0, 0, 0, &[(p, Write)]);
                }
                pool.submit(&g, counting_body(&acc)).unwrap()
            })
            .collect();
        for h in handles {
            h.wait().unwrap();
        }
        assert_eq!(acc.load(Ordering::SeqCst), expected);
    }

    #[test]
    fn empty_submission_finishes_immediately() {
        let pool = TaskPool::new(2);
        let h = pool.submit(&TaskGraph::new(), |_| {}).unwrap();
        assert!(h.is_finished());
        h.wait().unwrap();
        // Empty submissions are never admitted, so they cannot leak slots.
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn panic_in_one_submission_does_not_poison_the_pool() {
        let pool = TaskPool::new(4);
        let mut g = TaskGraph::new();
        g.add_task(1.0, 0, 0, &[(1, Write)]);
        g.add_task(1.0, 0, 0, &[(1, Write)]); // skipped after the panic
        let body = |i: TaskId| {
            if i == 0 {
                panic!("kernel failure");
            }
        };
        let bad = pool.submit(&g, body).unwrap();
        // The panic arrives as a *value* carrying the payload message —
        // nothing unwinds across wait().
        match bad.wait() {
            Err(JobError::Panicked(msg)) => assert!(msg.contains("kernel failure"), "{msg}"),
            other => panic!("expected Panicked, got {other:?}"),
        }

        // The pool still serves fresh submissions afterwards.
        let acc = Arc::new(AtomicU64::new(0));
        let mut g = TaskGraph::new();
        for _ in 0..10 {
            g.add_task(1.0, 0, 0, &[(2, Write)]);
        }
        pool.submit(&g, counting_body(&acc))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(acc.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn submit_from_many_threads_is_safe() {
        let pool = Arc::new(TaskPool::new(3));
        let acc = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let pool = Arc::clone(&pool);
                let acc = Arc::clone(&acc);
                scope.spawn(move || {
                    for p in 0..20u64 {
                        let mut g = TaskGraph::new();
                        g.add_task(1.0, 0, 0, &[(p, Write)]);
                        g.add_task(1.0, 0, 0, &[(p, Read)]);
                        g.add_task(1.0, 0, 0, &[(p, Read)]);
                        pool.submit(&g, counting_body(&acc))
                            .unwrap()
                            .wait()
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(acc.load(Ordering::SeqCst), 8 * 20 * 3);
    }

    #[test]
    fn detached_submissions_finish_before_drop_returns() {
        let acc = Arc::new(AtomicU64::new(0));
        {
            let pool = TaskPool::new(2);
            for p in 0..10u64 {
                let mut g = TaskGraph::new();
                for _ in 0..5 {
                    g.add_task(1.0, 0, 0, &[(p, Write)]);
                }
                let _detached = pool.submit(&g, counting_body(&acc)).unwrap();
            }
            // Drop without waiting: the shutdown drain must run them all.
        }
        assert_eq!(acc.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn worker_scratch_persists_across_gangs() {
        // The worker counts the lane jobs it ran in its scratch and hands
        // each job the count so far.  One job at a time, each waited on, is
        // one gang each: the counts run 1..=30 only if the scratch survives
        // from one gang to the next.
        let count = |n: &mut u64, gang: &mut [u64]| {
            for job in gang {
                *n += 1;
                *job = *n;
            }
        };
        let pool = TaskPool::with_lane(1, PoolConfig::default(), || 0, count);
        for n in 1..=30 {
            assert_eq!(pool.submit_job(0).unwrap().wait(), Ok(n));
        }
    }

    /// A submission whose single body parks until released, so tests can
    /// hold the pool provably busy without timing assumptions.
    fn parked_job<J: Send>(
        pool: &TaskPool<J>,
        release: &Arc<AtomicBool>,
        key: u64,
    ) -> JobTicket<()> {
        parked_job_flagging(pool, release, key, Arc::new(AtomicBool::new(false)))
    }

    /// [`parked_job`] whose body raises `started` as it begins.
    fn parked_job_flagging<J: Send>(
        pool: &TaskPool<J>,
        release: &Arc<AtomicBool>,
        key: u64,
        started: Arc<AtomicBool>,
    ) -> JobTicket<()> {
        let mut g = TaskGraph::new();
        g.add_task(1.0, 0, 0, &[(key, Write)]);
        let release = Arc::clone(release);
        let body = move |_| {
            started.store(true, Ordering::Release);
            while !release.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        };
        pool.submit(&g, body).expect("pool is open")
    }

    /// A [`parked_job`] for each of the pool's workers, returned once every
    /// worker is in one: nothing else runs until `release`.
    fn park_every_worker<J: Send>(
        pool: &TaskPool<J>,
        release: &Arc<AtomicBool>,
    ) -> Vec<JobTicket<()>> {
        let started: Vec<_> = (0..pool.threads())
            .map(|_| Arc::new(AtomicBool::new(false)))
            .collect();
        let jobs = started
            .iter()
            .enumerate()
            .map(|(k, flag)| parked_job_flagging(pool, release, k as u64, Arc::clone(flag)))
            .collect();
        while !started.iter().all(|f| f.load(Ordering::Acquire)) {
            std::thread::yield_now();
        }
        jobs
    }

    #[test]
    fn try_submit_sheds_load_when_full_and_recovers() {
        let pool = TaskPool::with_config(1, PoolConfig { max_in_flight: 2 });
        let release = Arc::new(AtomicBool::new(false));
        let a = parked_job(&pool, &release, 1);
        let b = parked_job(&pool, &release, 2);
        // Third submission must be rejected, not queued.
        let mut g = TaskGraph::new();
        g.add_task(1.0, 0, 0, &[(3, Write)]);
        let acc = Arc::new(AtomicU64::new(0));
        match pool.try_submit(&g, counting_body(&acc)) {
            Err(SubmitError::QueueFull { max_in_flight: 2 }) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(pool.in_flight(), 2);
        release.store(true, Ordering::Release);
        a.wait().unwrap();
        b.wait().unwrap();
        // Slots freed: admission works again.
        pool.try_submit(&g, counting_body(&acc))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(acc.load(Ordering::SeqCst), 1);
        assert_eq!(pool.in_flight_peak(), 2);
    }

    #[test]
    fn blocking_submit_parks_until_a_slot_frees() {
        let pool = Arc::new(TaskPool::with_config(1, PoolConfig { max_in_flight: 1 }));
        let release = Arc::new(AtomicBool::new(false));
        let first = parked_job(&pool, &release, 1);
        let acc = Arc::new(AtomicU64::new(0));
        let submitted = Arc::new(AtomicBool::new(false));
        let waiter = {
            let pool = Arc::clone(&pool);
            let acc = Arc::clone(&acc);
            let submitted = Arc::clone(&submitted);
            std::thread::spawn(move || {
                let mut g = TaskGraph::new();
                g.add_task(1.0, 0, 0, &[(2, Write)]);
                // Blocks here until the parked job finishes.
                let h = pool.submit(&g, counting_body(&acc)).unwrap();
                submitted.store(true, Ordering::Release);
                h.wait().unwrap();
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            !submitted.load(Ordering::Acquire),
            "submit returned while the pool was full"
        );
        release.store(true, Ordering::Release);
        first.wait().unwrap();
        waiter.join().unwrap();
        assert_eq!(acc.load(Ordering::SeqCst), 1);
        assert_eq!(pool.in_flight_peak(), 1);
    }

    #[test]
    fn cancel_skips_unstarted_bodies_and_reports_cancelled() {
        let pool = TaskPool::new(1);
        let release = Arc::new(AtomicBool::new(false));
        let blocker = parked_job(&pool, &release, 1);
        // A second submission queued behind the blocker: cancel it before
        // any of its bodies can start.
        let ran = Arc::new(AtomicU64::new(0));
        let mut g = TaskGraph::new();
        for _ in 0..4 {
            g.add_task(1.0, 0, 0, &[(2, Write)]);
        }
        let victim = pool.submit(&g, counting_body(&ran)).unwrap();
        victim.cancel();
        release.store(true, Ordering::Release);
        blocker.wait().unwrap();
        assert_eq!(victim.wait(), Err(JobError::Cancelled));
        assert_eq!(ran.load(Ordering::SeqCst), 0, "cancelled bodies ran");
        // The graph drained: the slot was released and the pool is reusable.
        let acc = Arc::new(AtomicU64::new(0));
        let mut g = TaskGraph::new();
        g.add_task(1.0, 0, 0, &[(3, Write)]);
        pool.submit(&g, counting_body(&acc))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(acc.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn cancel_after_completion_is_a_no_op() {
        let pool = TaskPool::new(2);
        let acc = Arc::new(AtomicU64::new(0));
        let mut g = TaskGraph::new();
        g.add_task(1.0, 0, 0, &[(1, Write)]);
        let h = pool.submit(&g, counting_body(&acc)).unwrap();
        while !h.is_finished() {
            std::thread::yield_now();
        }
        h.cancel();
        assert_eq!(h.wait(), Ok(()));
    }

    #[test]
    fn wait_timeout_hands_the_ticket_back_while_running_and_waits_on_it_after() {
        let pool = TaskPool::new(1);
        let release = Arc::new(AtomicBool::new(false));
        let job = match parked_job(&pool, &release, 1).wait_timeout(Duration::from_millis(30)) {
            Err(job) => job,
            Ok(outcome) => panic!("finished while parked: {outcome:?}"),
        };
        std::thread::scope(|scope| {
            // `Instant` cannot represent now + `Duration::MAX`: that is a
            // wait without a deadline, not one that has already expired.
            let unbounded = scope.spawn(|| job.wait_timeout(Duration::MAX));
            std::thread::sleep(Duration::from_millis(30));
            assert!(!unbounded.is_finished(), "gave up on a running job");
            release.store(true, Ordering::Release);
            assert_eq!(unbounded.join().unwrap().unwrap(), Ok(()));
        });
    }

    #[test]
    fn closed_pool_rejects_submissions_but_drains_admitted_work() {
        let pool = TaskPool::new(2);
        let acc = Arc::new(AtomicU64::new(0));
        let mut g = TaskGraph::new();
        for _ in 0..5 {
            g.add_task(1.0, 0, 0, &[(1, Write)]);
        }
        let admitted = pool.submit(&g, counting_body(&acc)).unwrap();
        pool.close();
        assert_eq!(
            pool.submit(&g, counting_body(&acc)).unwrap_err(),
            SubmitError::Shutdown
        );
        assert_eq!(
            pool.try_submit(&g, counting_body(&acc)).unwrap_err(),
            SubmitError::Shutdown
        );
        // Empty submissions are also refused after close.
        assert_eq!(
            pool.submit(&TaskGraph::new(), |_| {}).unwrap_err(),
            SubmitError::Shutdown
        );
        admitted.wait().unwrap();
        assert_eq!(acc.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn close_wakes_blocked_submitters_with_shutdown() {
        let pool = Arc::new(TaskPool::with_config(1, PoolConfig { max_in_flight: 1 }));
        let release = Arc::new(AtomicBool::new(false));
        let blocker = parked_job(&pool, &release, 1);
        let waiter = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let mut g = TaskGraph::new();
                g.add_task(1.0, 0, 0, &[(2, Write)]);
                pool.submit(&g, |_| {})
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        pool.close();
        assert_eq!(waiter.join().unwrap().unwrap_err(), SubmitError::Shutdown);
        release.store(true, Ordering::Release);
        blocker.wait().unwrap();
    }

    /// Every admission slot is given back — after the completions it
    /// follows, so a client that has just been woken may see it late.
    fn slots_come_back<J: Send>(pool: &TaskPool<J>) {
        let t0 = Instant::now();
        while pool.in_flight() > 0 {
            assert!(t0.elapsed() < Duration::from_secs(10), "a slot leaked");
            std::thread::yield_now();
        }
    }

    /// A pool with a job lane whose runner doubles every job of a gang,
    /// records the gang's size in `gangs`, and panics on a 7.
    fn lane_pool(
        threads: usize,
        max_in_flight: usize,
        gangs: &Arc<Mutex<Vec<usize>>>,
    ) -> TaskPool<u64> {
        let gangs = Arc::clone(gangs);
        TaskPool::with_lane(
            threads,
            PoolConfig { max_in_flight },
            || 0,
            move |runs: &mut u64, gang: &mut [u64]| {
                *runs += 1;
                gangs.lock().push(gang.len());
                for job in gang.iter_mut() {
                    assert_ne!(*job, 7, "runner failure");
                    *job *= 2;
                }
            },
        )
    }

    #[test]
    fn lane_jobs_queued_behind_a_busy_worker_run_in_gangs() {
        let gangs = Arc::new(Mutex::new(Vec::new()));
        let pool = lane_pool(1, 0, &gangs);
        let release = Arc::new(AtomicBool::new(false));
        let blockers = park_every_worker(&pool, &release);
        let tickets: Vec<_> = (0..40u64)
            .map(|j| pool.submit_job(100 + j).unwrap())
            .collect();
        release.store(true, Ordering::Release);
        blockers.into_iter().for_each(|b| b.wait().unwrap());
        for (j, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.wait(), Ok(2 * (100 + j as u64)));
        }
        // One worker, 40 queued: gangs of `GANG` while there are as many.
        assert_eq!(*gangs.lock(), [GANG, GANG, 40 - 2 * GANG]);
        slots_come_back(&pool);
    }

    #[test]
    fn a_runner_panic_fails_its_whole_gang_and_the_lane_keeps_serving() {
        let gangs = Arc::new(Mutex::new(Vec::new()));
        let pool = lane_pool(1, 0, &gangs);
        let release = Arc::new(AtomicBool::new(false));
        let blockers = park_every_worker(&pool, &release);
        let tickets: Vec<_> = [1, 2, 7, 3].map(|j| pool.submit_job(j).unwrap()).into();
        release.store(true, Ordering::Release);
        blockers.into_iter().for_each(|b| b.wait().unwrap());
        for t in tickets {
            match t.wait() {
                Err(JobError::Panicked(msg)) => assert!(msg.contains("runner failure"), "{msg}"),
                other => panic!("expected Panicked, got {other:?}"),
            }
        }
        assert_eq!(pool.submit_job(5).unwrap().wait(), Ok(10));
        slots_come_back(&pool);
    }

    #[test]
    fn a_lane_job_cancelled_before_its_gang_forms_is_skipped_and_frees_its_slot() {
        let gangs = Arc::new(Mutex::new(Vec::new()));
        let pool = lane_pool(1, 3, &gangs);
        let release = Arc::new(AtomicBool::new(false));
        let blockers = park_every_worker(&pool, &release);
        let (kept, victim) = (pool.submit_job(1).unwrap(), pool.submit_job(2).unwrap());
        victim.cancel();
        assert!(matches!(
            pool.try_submit_job(3),
            Err(SubmitError::QueueFull { max_in_flight: 3 })
        ));
        release.store(true, Ordering::Release);
        blockers.into_iter().for_each(|b| b.wait().unwrap());
        assert_eq!(victim.wait(), Err(JobError::Cancelled));
        assert_eq!(kept.wait(), Ok(2));
        assert_eq!(*gangs.lock(), [1], "the cancelled job ran");
        slots_come_back(&pool);
        assert_eq!(pool.try_submit_job(3).unwrap().wait(), Ok(6));
    }

    #[test]
    fn lane_tickets_time_out_while_the_job_waits_and_close_drains_the_lane() {
        let gangs = Arc::new(Mutex::new(Vec::new()));
        let pool = lane_pool(2, 0, &gangs);
        let release = Arc::new(AtomicBool::new(false));
        // Both workers busy: the job stays queued past its deadline.
        let blockers = park_every_worker(&pool, &release);
        let ticket = pool.submit_job(4).unwrap();
        let ticket = match ticket.wait_timeout(Duration::from_millis(20)) {
            Err(ticket) => ticket,
            Ok(outcome) => panic!("finished behind two busy workers: {outcome:?}"),
        };
        let detached: Vec<_> = (10..20).map(|j| pool.submit_job(j).unwrap()).collect();
        pool.close();
        assert_eq!(pool.submit_job(1).unwrap_err(), SubmitError::Shutdown);
        release.store(true, Ordering::Release);
        drop(detached);
        drop(pool);
        // The pool drained the lane before its workers exited.
        assert_eq!(ticket.wait_timeout(Duration::MAX).unwrap(), Ok(8));
        assert_eq!(gangs.lock().iter().sum::<usize>(), 11);
        for b in blockers {
            b.wait().unwrap();
        }
    }
}
