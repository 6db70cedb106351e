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
//!   tags, bottom levels), packages it with the bodies into an [`Arc`]'d
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
//! * **Per-worker, per-lifetime scratch.**  Each worker owns one scratch
//!   value created by the pool's `init` closure at spawn time and lends it
//!   to every body it ever runs, across all submissions — this is how the
//!   blocked tile kernels run allocation-free, and allocation reuse spans
//!   the pool's lifetime, not a single graph.
//! * **Bounded admission with backpressure.**  A pool built with
//!   [`TaskPool::with_config`] caps the number of submissions in flight:
//!   [`TaskPool::submit`] parks the *caller* on a condition variable until
//!   a slot frees (a million-problem burst holds at most `max_in_flight`
//!   live job graphs), while [`TaskPool::try_submit`] sheds load instead,
//!   returning [`SubmitError::QueueFull`].  [`TaskPool::close`] rejects
//!   all further submissions ([`SubmitError::Shutdown`]) while everything
//!   already admitted still drains.
//! * **Per-submission completion and failure containment.**  Each
//!   submission counts down its own remaining tasks and signals its own
//!   condition variable; [`JobHandle::wait`] blocks on that, not on the
//!   pool, and no thread ever waits on a timeout to notice completion.  A
//!   body panic is caught and *converted to a value*: the submission is
//!   flagged failed (remaining bodies of *that* submission are skipped, its
//!   graph still drains so counters stay consistent) and `wait` returns
//!   [`JobError::Panicked`] carrying the payload message — nothing is ever
//!   re-thrown across the pool boundary, and other submissions are
//!   unaffected.  [`JobHandle::cancel`] reuses the same drain-as-no-ops
//!   machinery for cooperative cancellation, and
//!   [`JobHandle::wait_timeout`] bounds how long a caller blocks.
//!
//! # Why the once-cell task slots are sound
//!
//! Task bodies are stored in [`UnsafeCell`] slots without any lock.  The
//! dependency protocol guarantees exclusive access:
//!
//! 1. a task id of a given submission becomes *ready* exactly once — only
//!    the worker whose `fetch_sub` drops the predecessor counter to zero
//!    publishes it (and source tasks are seeded exactly once, by `submit`);
//! 2. a published id is claimed exactly once — deque and injector ends are
//!    mutually exclusive, so exactly one worker pops or steals it;
//! 3. the handoff happens through the injector or a deque, whose mutex
//!    orders the slot write before the slot take.
//!
//! Hence each slot is taken exactly once, by exactly one thread, after its
//! body was written — the invariant the internal `BodySlots::take` relies
//! on.
//!
//! Dropping the pool closes admission, then the gate; each worker drains
//! every task it can still find (its own deque, the injector, every
//! victim) and exits, so no submitted work is abandoned — the work-first
//! handoff guarantees the chain a worker is executing stays its own, and
//! anything it releases lands on its own deque, which it drains before
//! exiting.
//!
//! Fault injection: the failpoints `pool::body` (inside the per-body
//! `catch_unwind`, so an injected panic exercises the real containment
//! path) and `pool::admission` (in the non-blocking admission check;
//! `Trigger` forces a [`SubmitError::QueueFull`]) let the robustness suite
//! drive every error path deterministically.  Disarmed they cost one
//! relaxed atomic load.

use crate::graph::{TaskGraph, TaskId};
use bidiag_obs as obs;
use crossbeam::deque::{Steal, Stealer, Worker};
use parking_lot::{Condvar, Mutex};
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A task body that receives the executing worker's private scratch — the
/// per-worker, per-lifetime value of the [module docs](self).
pub type TaskBodyWith<S> = Box<dyn FnOnce(&mut S) + Send>;

/// Once-cell storage of a submission's task bodies: each slot is written
/// once at submit time and taken exactly once by the worker that claimed
/// the task (see the module docs for the exclusivity argument).
struct BodySlots<S>(Vec<UnsafeCell<Option<TaskBodyWith<S>>>>);

// SAFETY: slots are only accessed through `take`, whose per-id exclusivity
// is guaranteed by the ready/claim protocol described in the module docs.
unsafe impl<S> Sync for BodySlots<S> {}

impl<S> BodySlots<S> {
    fn new(bodies: Vec<TaskBodyWith<S>>) -> Self {
        BodySlots(
            bodies
                .into_iter()
                .map(|b| UnsafeCell::new(Some(b)))
                .collect(),
        )
    }

    /// Take the body of task `id`.
    ///
    /// SAFETY contract (upheld by the scheduler): `take(id)` is called at
    /// most once per id, and the call happens after the constructor's write
    /// with a synchronization edge in between (the injector mutex or a
    /// deque handoff).
    fn take(&self, id: TaskId) -> TaskBodyWith<S> {
        unsafe { (*self.0[id].get()).take().expect("task executed twice") }
    }
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
    /// A task body panicked; the submission's remaining bodies were
    /// skipped and its graph drained.  Carries the panic payload message
    /// (the pool never re-throws a payload across `wait`).
    Panicked(String),
    /// The submission was cancelled via [`JobHandle::cancel`] before it
    /// finished; bodies that had not started were skipped.
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
struct Submission<S> {
    tasks: Vec<TaskState>,
    /// The successor lists of all tasks, back to back in task order.
    successors: Vec<TaskId>,
    /// Countdown of unfinished tasks of this submission.
    remaining_tasks: AtomicUsize,
    slots: BodySlots<S>,
    /// Set when a body of this submission panicked or [`JobHandle::cancel`]
    /// was called: the remaining bodies of the submission are skipped (its
    /// graph still drains), and [`JobState::error`] says why.
    skip: AtomicBool,
    done: Mutex<JobState>,
    done_cv: Condvar,
    /// Observability run id (0 = tracing was off at submit time), making
    /// every per-task tracing branch a single predictable integer compare.
    trace_id: u64,
    /// Admission timestamp (ns), valid when `trace_id != 0`.
    submitted_ns: u64,
    /// First body start (ns), CAS'd from 0 by the first worker to touch the
    /// submission; splits end-to-end latency into queue wait vs compute.
    first_start_ns: AtomicU64,
}

impl<S> Submission<S> {
    /// Package `graph` and its bodies.  An empty graph is born finished,
    /// and is neither counted nor traced: it is never admitted.
    fn new(graph: &TaskGraph, bodies: Vec<TaskBodyWith<S>>) -> Self {
        let (trace_id, submitted_ns) = if !graph.is_empty() && obs::enabled() {
            obs::registry().submissions.incr();
            (obs::next_submission_id(), obs::now_ns())
        } else {
            (0, 0)
        };
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
            slots: BodySlots::new(bodies),
            skip: AtomicBool::new(false),
            done: Mutex::new(JobState {
                finished: graph.is_empty(),
                error: None,
            }),
            done_cv: Condvar::new(),
            trace_id,
            submitted_ns,
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

struct JobState {
    finished: bool,
    /// What `wait` reports instead of success: the first body panic
    /// (payload converted to a string at catch time; the payload itself is
    /// dropped, never re-thrown), else a cancellation.
    error: Option<JobError>,
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
type PoolItem<S> = (Arc<Submission<S>>, TaskId);

/// Completion handle of one [`TaskPool::submit`] call.
///
/// Detaching (dropping without [`wait`](JobHandle::wait)) is allowed: the
/// submission keeps itself alive through the `Arc`s on the deques and runs
/// to completion regardless.
#[must_use = "dropping the handle detaches the job; call wait() to block on completion"]
pub struct JobHandle<S> {
    sub: Arc<Submission<S>>,
}

impl<S> std::fmt::Debug for JobHandle<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("finished", &self.is_finished())
            .finish_non_exhaustive()
    }
}

impl<S> JobHandle<S> {
    /// Block until every task of the submission has completed (bodies run
    /// or skipped).  Returns `Ok(())` on clean completion,
    /// [`JobError::Panicked`] with the first panic's message if a body
    /// panicked, or [`JobError::Cancelled`] if the job was cancelled.
    pub fn wait(self) -> Result<(), JobError> {
        self.wait_until(None)
            .expect("a wait without a deadline ends only on completion")
    }

    /// Like [`wait`](JobHandle::wait), but give up after `timeout`:
    /// returns `None` if the submission is still running at the deadline
    /// (the handle stays usable — cancel it, keep waiting, or detach).
    /// A deadline too far off for [`Instant`] to represent
    /// (`Duration::MAX`, the usual spelling of "no deadline") waits
    /// without one.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<(), JobError>> {
        self.wait_until(Instant::now().checked_add(timeout))
    }

    fn wait_until(&self, deadline: Option<Instant>) -> Option<Result<(), JobError>> {
        let mut st = self.sub.done.lock();
        while !st.finished {
            let Some(deadline) = deadline else {
                self.sub.done_cv.wait(&mut st);
                continue;
            };
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            self.sub.done_cv.wait_timeout(&mut st, deadline - now);
        }
        Some(st.error.clone().map_or(Ok(()), Err))
    }

    /// Request cooperative cancellation: every body of this submission
    /// that has not started yet is skipped (the graph still drains, so
    /// counters and dependent bookkeeping stay consistent), and `wait`
    /// reports [`JobError::Cancelled`].  Best-effort: bodies already
    /// executing run to completion, and a submission that finishes before
    /// the flag lands is unaffected.  Idempotent.
    pub fn cancel(&self) {
        // The lock makes "finished" exact: a job observed complete here is
        // never retroactively marked cancelled.
        let mut st = self.sub.done.lock();
        if !st.finished {
            st.error.get_or_insert(JobError::Cancelled);
            self.sub.skip.store(true, Ordering::Release);
        }
    }

    /// True once every task of the submission has completed (non-blocking).
    pub fn is_finished(&self) -> bool {
        self.sub.done.lock().finished
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
struct PoolShared<S> {
    /// Overflow/entry queue: `submit` seeds source tasks here (callers do
    /// not own a deque); workers pull from it when their deque drains.
    injector: Mutex<VecDeque<PoolItem<S>>>,
    stealers: Vec<Stealer<PoolItem<S>>>,
    gate: IdleGate,
    admission: Mutex<AdmissionState>,
    admission_cv: Condvar,
    /// In-flight submission cap (`0` = unbounded).
    max_in_flight: usize,
}

impl<S> PoolShared<S> {
    /// Run `id` of `sub` with the worker's scratch, release its successors,
    /// and return the highest-priority newly-ready successor for direct
    /// execution (work-first handoff).
    fn run_item(
        &self,
        sub: &Arc<Submission<S>>,
        id: TaskId,
        me: usize,
        local: &Worker<PoolItem<S>>,
        scratch: &mut S,
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
        if !sub.skip.load(Ordering::Acquire) {
            let body = sub.slots.take(id);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let _ = failpoint::fire("pool::body");
                body(scratch)
            }));
            if let Err(p) = outcome {
                sub.skip.store(true, Ordering::Release);
                let mut st = sub.done.lock();
                if !matches!(st.error, Some(JobError::Panicked(_))) {
                    st.error = Some(JobError::Panicked(panic_message(&*p)));
                }
                // `p` is dropped here: the payload never crosses the pool.
            }
        }
        if sub.trace_id != 0 {
            obs::record_span(obs::Span {
                submission: sub.trace_id,
                task: id as u32,
                kind: sub.tasks[id].tag,
                worker: me as u32,
                start_ns,
                end_ns: obs::now_ns(),
            });
            obs::registry().tasks_executed.incr();
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
            if sub.trace_id != 0 {
                // Split the submission's end-to-end latency at its first
                // body start: before = queue wait, after = compute.
                let end = obs::now_ns();
                let first = sub.first_start_ns.load(Ordering::Relaxed);
                let reg = obs::registry();
                reg.queue_wait
                    .record(first.saturating_sub(sub.submitted_ns));
                reg.compute.record(end.saturating_sub(first));
                reg.latency.record(end.saturating_sub(sub.submitted_ns));
            }
            {
                let mut st = sub.done.lock();
                st.finished = true;
                sub.done_cv.notify_all();
            }
            // Release the admission slot only after completion is
            // published, so `in_flight` never under-counts live jobs.
            let mut adm = self.admission.lock();
            adm.in_flight -= 1;
            drop(adm);
            self.admission_cv.notify_one();
        }
        next
    }

    /// One full scan: local deque, then the injector, then every victim in
    /// a pseudo-random order starting from `rng`'s draw.
    fn find_item(
        &self,
        me: usize,
        local: &Worker<PoolItem<S>>,
        rng: &mut u64,
    ) -> Option<PoolItem<S>> {
        if let Some(item) = local.pop() {
            return Some(item);
        }
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

    fn worker_loop(&self, me: usize, local: Worker<PoolItem<S>>, scratch: &mut S) {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ ((me as u64 + 1) << 17);
        let mut seen = 0u64;
        let mut open = true;
        loop {
            while let Some((sub, id)) = self.find_item(me, &local, &mut rng) {
                let mut current = id;
                while let Some(next) = self.run_item(&sub, current, me, &local, scratch) {
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
/// `S` is the per-worker scratch type: one value per worker thread, created
/// once at spawn time and lent to every task body the worker ever runs.
///
/// # Examples
///
/// ```
/// use bidiag_runtime::{AccessMode, TaskBodyWith, TaskGraph, TaskPool};
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// let pool: TaskPool<()> = TaskPool::new(4, || ());
/// let acc = Arc::new(AtomicU64::new(0));
/// let handles: Vec<_> = (0..8u64)
///     .map(|p| {
///         let mut g = TaskGraph::new();
///         g.add_task(1.0, 0, 0, &[(p, AccessMode::Write)]);
///         g.add_task(1.0, 0, 0, &[(p, AccessMode::Write)]);
///         let bodies: Vec<TaskBodyWith<()>> = (0..2)
///             .map(|_| {
///                 let acc = Arc::clone(&acc);
///                 Box::new(move |_: &mut ()| {
///                     acc.fetch_add(1, Ordering::SeqCst);
///                 }) as TaskBodyWith<()>
///             })
///             .collect();
///         pool.submit(g, bodies).expect("pool is open")
///     })
///     .collect();
/// for h in handles {
///     h.wait().expect("no body panicked");
/// }
/// assert_eq!(acc.load(Ordering::SeqCst), 16);
/// ```
pub struct TaskPool<S: 'static> {
    shared: Arc<PoolShared<S>>,
    handles: Vec<JoinHandle<()>>,
}

impl<S: Send + 'static> TaskPool<S> {
    /// Spawn a pool of `threads` workers (at least one) with unbounded
    /// admission, each worker owning one scratch value created by `init`
    /// on that worker's thread.
    pub fn new(threads: usize, init: impl Fn() -> S + Send + Sync + 'static) -> Self {
        Self::with_config(threads, PoolConfig::default(), init)
    }

    /// Spawn a pool with explicit admission configuration — see
    /// [`PoolConfig`].
    pub fn with_config(
        threads: usize,
        config: PoolConfig,
        init: impl Fn() -> S + Send + Sync + 'static,
    ) -> Self {
        let threads = threads.max(1);
        let workers: Vec<Worker<PoolItem<S>>> = (0..threads).map(|_| Worker::new_lifo()).collect();
        let shared = Arc::new(PoolShared {
            injector: Mutex::new(VecDeque::new()),
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
        let init = Arc::new(init);
        let handles = workers
            .into_iter()
            .enumerate()
            .map(|(me, local)| {
                let shared = Arc::clone(&shared);
                let init = Arc::clone(&init);
                std::thread::spawn(move || {
                    let mut scratch = init();
                    shared.worker_loop(me, local, &mut scratch);
                })
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
    /// (return [`SubmitError::QueueFull`]).
    fn admit(&self, block: bool) -> Result<(), SubmitError> {
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
                return Ok(());
            }
            if obs::enabled() && wait_from.is_none() {
                obs::registry().admission_waits.incr();
                wait_from = Some(obs::now_ns());
            }
            self.shared.admission_cv.wait(&mut adm);
        }
    }

    /// Submit one task graph for execution; `bodies[i]` runs exactly once
    /// for task `i`, on some worker, with that worker's scratch.
    ///
    /// On a bounded pool this **blocks** while `max_in_flight` submissions
    /// are in flight (backpressure), waking when a slot frees.  Returns
    /// [`SubmitError::Shutdown`] if the pool was closed.  Panics if
    /// `bodies.len() != graph.len()` (an internal-invariant breach of the
    /// caller, not a runtime condition).
    pub fn submit(
        &self,
        graph: TaskGraph,
        bodies: Vec<TaskBodyWith<S>>,
    ) -> Result<JobHandle<S>, SubmitError> {
        self.submit_ref(&graph, bodies, true)
    }

    /// Non-blocking twin of [`submit`](TaskPool::submit): when the pool is
    /// full, returns [`SubmitError::QueueFull`] immediately instead of
    /// parking the caller — the load-shedding admission policy.
    pub fn try_submit(
        &self,
        graph: TaskGraph,
        bodies: Vec<TaskBodyWith<S>>,
    ) -> Result<JobHandle<S>, SubmitError> {
        self.submit_ref(&graph, bodies, false)
    }

    /// The pool only reads the graph while submitting, so a caller that
    /// merely borrows one ([`crate::execute_parallel`]) need not clone it.
    pub(crate) fn submit_ref(
        &self,
        graph: &TaskGraph,
        bodies: Vec<TaskBodyWith<S>>,
        block: bool,
    ) -> Result<JobHandle<S>, SubmitError> {
        assert_eq!(bodies.len(), graph.len(), "one body per task is required");
        if graph.is_empty() {
            // Nothing to run: never admitted (no slot to leak), but a
            // closed pool still rejects, so shutdown is observable.
            if self.shared.admission.lock().closed {
                return Err(SubmitError::Shutdown);
            }
            let sub = Arc::new(Submission::new(graph, bodies));
            return Ok(JobHandle { sub });
        }
        self.admit(block)?;
        let sub = Arc::new(Submission::new(graph, bodies));

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
        Ok(JobHandle { sub })
    }
}

impl<S: 'static> TaskPool<S> {
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

impl<S: 'static> Drop for TaskPool<S> {
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

    fn counting_bodies(n: usize, acc: &Arc<AtomicU64>) -> Vec<TaskBodyWith<u64>> {
        (0..n)
            .map(|_| {
                let acc = Arc::clone(acc);
                Box::new(move |s: &mut u64| {
                    *s += 1; // exercise the per-worker scratch
                    acc.fetch_add(1, Ordering::SeqCst);
                }) as TaskBodyWith<u64>
            })
            .collect()
    }

    #[test]
    fn submissions_respect_dependencies() {
        let pool: TaskPool<u64> = TaskPool::new(4, || 0);
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
        let stamp = Arc::new(AtomicU64::new(1));
        let order: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
        let bodies: Vec<TaskBodyWith<u64>> = (0..n)
            .map(|i| {
                let stamp = Arc::clone(&stamp);
                let order = Arc::clone(&order);
                Box::new(move |_: &mut u64| {
                    order[i].store(stamp.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
                }) as TaskBodyWith<u64>
            })
            .collect();
        let graph = g.clone();
        pool.submit(g, bodies).unwrap().wait().unwrap();
        for id in 0..n {
            let t = order[id].load(Ordering::SeqCst);
            assert!(t > 0, "task {id} never ran");
            for &p in graph.predecessors(id) {
                assert!(
                    order[p].load(Ordering::SeqCst) < t,
                    "task {id} ran before its predecessor {p}"
                );
            }
        }
    }

    #[test]
    fn many_interleaved_submissions_all_complete() {
        let pool: TaskPool<u64> = TaskPool::new(4, || 0);
        let acc = Arc::new(AtomicU64::new(0));
        let mut expected = 0u64;
        let handles: Vec<JobHandle<u64>> = (0..50u64)
            .map(|p| {
                let len = 1 + (p % 7) as usize;
                expected += len as u64;
                let mut g = TaskGraph::new();
                for _ in 0..len {
                    g.add_task(1.0, 0, 0, &[(p, Write)]);
                }
                pool.submit(g, counting_bodies(len, &acc)).unwrap()
            })
            .collect();
        for h in handles {
            h.wait().unwrap();
        }
        assert_eq!(acc.load(Ordering::SeqCst), expected);
    }

    #[test]
    fn empty_submission_finishes_immediately() {
        let pool: TaskPool<u64> = TaskPool::new(2, || 0);
        let h = pool.submit(TaskGraph::new(), Vec::new()).unwrap();
        assert!(h.is_finished());
        h.wait().unwrap();
        // Empty submissions are never admitted, so they cannot leak slots.
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn panic_in_one_submission_does_not_poison_the_pool() {
        let pool: TaskPool<u64> = TaskPool::new(4, || 0);
        let mut g = TaskGraph::new();
        g.add_task(1.0, 0, 0, &[(1, Write)]);
        g.add_task(1.0, 0, 0, &[(1, Write)]); // skipped after the panic
        let bodies: Vec<TaskBodyWith<u64>> = (0..2)
            .map(|i| {
                Box::new(move |_: &mut u64| {
                    if i == 0 {
                        panic!("kernel failure");
                    }
                }) as TaskBodyWith<u64>
            })
            .collect();
        let bad = pool.submit(g, bodies).unwrap();
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
        pool.submit(g, counting_bodies(10, &acc))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(acc.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn submit_from_many_threads_is_safe() {
        let pool: Arc<TaskPool<u64>> = Arc::new(TaskPool::new(3, || 0));
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
                        pool.submit(g, counting_bodies(3, &acc))
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
            let pool: TaskPool<u64> = TaskPool::new(2, || 0);
            for p in 0..10u64 {
                let mut g = TaskGraph::new();
                for _ in 0..5 {
                    g.add_task(1.0, 0, 0, &[(p, Write)]);
                }
                let _detached = pool.submit(g, counting_bodies(5, &acc)).unwrap();
            }
            // Drop without waiting: the shutdown drain must run them all.
        }
        assert_eq!(acc.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn worker_scratch_persists_across_submissions() {
        // Each worker counts the tasks it ran in its scratch; the total
        // across workers must equal the total submitted, proving scratch
        // values survive from one submission to the next.
        let total = Arc::new(AtomicU64::new(0));
        {
            let total = Arc::clone(&total);
            let pool: TaskPool<Tally> = TaskPool::new(3, move || Tally(0, Arc::clone(&total)));
            for p in 0..30u64 {
                let mut g = TaskGraph::new();
                g.add_task(1.0, 0, 0, &[(p, Write)]);
                let bodies: Vec<TaskBodyWith<Tally>> =
                    vec![Box::new(move |s: &mut Tally| s.0 += 1)];
                pool.submit(g, bodies).unwrap().wait().unwrap();
            }
        }
        assert_eq!(total.load(Ordering::SeqCst), 30);
    }

    struct Tally(u64, Arc<AtomicU64>);
    impl Drop for Tally {
        fn drop(&mut self) {
            self.1.fetch_add(self.0, Ordering::SeqCst);
        }
    }

    /// A submission whose single body parks until released, so tests can
    /// hold the pool provably busy without timing assumptions.
    fn parked_job(pool: &TaskPool<u64>, release: &Arc<AtomicBool>, key: u64) -> JobHandle<u64> {
        let mut g = TaskGraph::new();
        g.add_task(1.0, 0, 0, &[(key, Write)]);
        let release = Arc::clone(release);
        let bodies: Vec<TaskBodyWith<u64>> = vec![Box::new(move |_: &mut u64| {
            while !release.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        })];
        pool.submit(g, bodies).expect("pool is open")
    }

    #[test]
    fn try_submit_sheds_load_when_full_and_recovers() {
        let pool: TaskPool<u64> = TaskPool::with_config(1, PoolConfig { max_in_flight: 2 }, || 0);
        let release = Arc::new(AtomicBool::new(false));
        let a = parked_job(&pool, &release, 1);
        let b = parked_job(&pool, &release, 2);
        // Third submission must be rejected, not queued.
        let mut g = TaskGraph::new();
        g.add_task(1.0, 0, 0, &[(3, Write)]);
        let acc = Arc::new(AtomicU64::new(0));
        match pool.try_submit(g.clone(), counting_bodies(1, &acc)) {
            Err(SubmitError::QueueFull { max_in_flight: 2 }) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(pool.in_flight(), 2);
        release.store(true, Ordering::Release);
        a.wait().unwrap();
        b.wait().unwrap();
        // Slots freed: admission works again.
        pool.try_submit(g, counting_bodies(1, &acc))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(acc.load(Ordering::SeqCst), 1);
        assert_eq!(pool.in_flight_peak(), 2);
    }

    #[test]
    fn blocking_submit_parks_until_a_slot_frees() {
        let pool: Arc<TaskPool<u64>> = Arc::new(TaskPool::with_config(
            1,
            PoolConfig { max_in_flight: 1 },
            || 0,
        ));
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
                let h = pool.submit(g, counting_bodies(1, &acc)).unwrap();
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
        let pool: TaskPool<u64> = TaskPool::new(1, || 0);
        let release = Arc::new(AtomicBool::new(false));
        let blocker = parked_job(&pool, &release, 1);
        // A second submission queued behind the blocker: cancel it before
        // any of its bodies can start.
        let ran = Arc::new(AtomicU64::new(0));
        let mut g = TaskGraph::new();
        for _ in 0..4 {
            g.add_task(1.0, 0, 0, &[(2, Write)]);
        }
        let victim = pool.submit(g, counting_bodies(4, &ran)).unwrap();
        victim.cancel();
        release.store(true, Ordering::Release);
        blocker.wait().unwrap();
        assert_eq!(victim.wait(), Err(JobError::Cancelled));
        assert_eq!(ran.load(Ordering::SeqCst), 0, "cancelled bodies ran");
        // The graph drained: the slot was released and the pool is reusable.
        let acc = Arc::new(AtomicU64::new(0));
        let mut g = TaskGraph::new();
        g.add_task(1.0, 0, 0, &[(3, Write)]);
        pool.submit(g, counting_bodies(1, &acc))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(acc.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn cancel_after_completion_is_a_no_op() {
        let pool: TaskPool<u64> = TaskPool::new(2, || 0);
        let acc = Arc::new(AtomicU64::new(0));
        let mut g = TaskGraph::new();
        g.add_task(1.0, 0, 0, &[(1, Write)]);
        let h = pool.submit(g, counting_bodies(1, &acc)).unwrap();
        while !h.is_finished() {
            std::thread::yield_now();
        }
        h.cancel();
        assert_eq!(h.wait(), Ok(()));
    }

    #[test]
    fn wait_timeout_returns_none_while_running_and_some_after() {
        let pool: TaskPool<u64> = TaskPool::new(1, || 0);
        let release = Arc::new(AtomicBool::new(false));
        let job = parked_job(&pool, &release, 1);
        assert_eq!(job.wait_timeout(Duration::from_millis(30)), None);
        std::thread::scope(|scope| {
            // `Instant` cannot represent now + `Duration::MAX`: that is a
            // wait without a deadline, not one that has already expired.
            let unbounded = scope.spawn(|| job.wait_timeout(Duration::MAX));
            std::thread::sleep(Duration::from_millis(30));
            assert!(!unbounded.is_finished(), "gave up on a running job");
            release.store(true, Ordering::Release);
            assert_eq!(unbounded.join().unwrap(), Some(Ok(())));
        });
        // Generous bound: the body exits as soon as it sees the flag.
        assert_eq!(job.wait_timeout(Duration::from_secs(30)), Some(Ok(())));
        job.wait().unwrap();
    }

    #[test]
    fn closed_pool_rejects_submissions_but_drains_admitted_work() {
        let pool: TaskPool<u64> = TaskPool::new(2, || 0);
        let acc = Arc::new(AtomicU64::new(0));
        let mut g = TaskGraph::new();
        for _ in 0..5 {
            g.add_task(1.0, 0, 0, &[(1, Write)]);
        }
        let admitted = pool.submit(g.clone(), counting_bodies(5, &acc)).unwrap();
        pool.close();
        assert_eq!(
            pool.submit(g.clone(), counting_bodies(5, &acc))
                .unwrap_err(),
            SubmitError::Shutdown
        );
        assert_eq!(
            pool.try_submit(g, counting_bodies(5, &acc)).unwrap_err(),
            SubmitError::Shutdown
        );
        // Empty submissions are also refused after close.
        assert_eq!(
            pool.submit(TaskGraph::new(), Vec::new()).unwrap_err(),
            SubmitError::Shutdown
        );
        admitted.wait().unwrap();
        assert_eq!(acc.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn close_wakes_blocked_submitters_with_shutdown() {
        let pool: Arc<TaskPool<u64>> = Arc::new(TaskPool::with_config(
            1,
            PoolConfig { max_in_flight: 1 },
            || 0,
        ));
        let release = Arc::new(AtomicBool::new(false));
        let blocker = parked_job(&pool, &release, 1);
        let waiter = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let mut g = TaskGraph::new();
                g.add_task(1.0, 0, 0, &[(2, Write)]);
                let bodies: Vec<TaskBodyWith<u64>> = vec![Box::new(|_: &mut u64| {})];
                pool.submit(g, bodies)
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        pool.close();
        assert_eq!(waiter.join().unwrap().unwrap_err(), SubmitError::Shutdown);
        release.store(true, Ordering::Release);
        blocker.wait().unwrap();
    }
}
