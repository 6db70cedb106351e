//! Zero-dependency observability plane for the bidiagonalization workspace.
//!
//! Three pieces, all designed so the *disabled* cost of any instrumentation
//! site is a single relaxed atomic load (same contract as `shims/failpoint`):
//!
//! 1. **Span rings** — one fixed-capacity, overwrite-oldest ring buffer per
//!    recording thread. Each slot is a per-slot seqlock built from plain
//!    `AtomicU64` words, so writers never block and readers detect (and skip)
//!    in-flight overwrites instead of observing torn spans. Rings are leaked
//!    into a global registry and recycled through a free list when their
//!    owning thread exits, which bounds memory across repeated
//!    `execute_parallel` calls *and* keeps spans readable after worker
//!    threads have joined.
//! 2. **Metrics registry** — relaxed-atomic counters, a max-gauge, and
//!    log2-bucketed histograms (queue wait / compute / end-to-end latency),
//!    snapshotted into a plain struct with text and JSON renderings.
//! 3. **Exporters** — Chrome trace-event JSON (loadable in Perfetto, one
//!    track per ring) and the metrics snapshot. `write_trace_if_requested`
//!    honours the `BIDIAG_TRACE=path` environment variable.
//!
//! Tracing is off by default. It turns on when `BIDIAG_TRACE` is set, when
//! `BIDIAG_OBS=1`, or programmatically via [`set_enabled`] / [`ScopedObs`].

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{fence, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Enable gate
// ---------------------------------------------------------------------------

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// Is the observability plane recording? One relaxed load on the hot path.
///
/// The first call per process resolves the environment: `BIDIAG_OBS=1` (or
/// `true`/`on`) forces recording on, `BIDIAG_OBS=0` forces it off, and
/// otherwise a non-empty `BIDIAG_TRACE` turns it on so trace capture needs
/// no extra switch.
#[inline]
pub fn enabled() -> bool {
    let s = STATE.load(Ordering::Relaxed);
    if s == STATE_UNINIT {
        return init_state() == STATE_ON;
    }
    s == STATE_ON
}

#[cold]
fn init_state() -> u8 {
    let on = match std::env::var("BIDIAG_OBS") {
        Ok(v) => matches!(v.as_str(), "1" | "true" | "on"),
        Err(_) => std::env::var("BIDIAG_TRACE").is_ok_and(|v| !v.is_empty()),
    };
    let s = if on { STATE_ON } else { STATE_OFF };
    // Racing first calls agree: the environment is stable per process.
    STATE.store(s, Ordering::Relaxed);
    s
}

/// Force the recording state, overriding the environment.
pub fn set_enabled(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

static SCOPE_LOCK: Mutex<()> = Mutex::new(());

/// Serialized, scoped enablement for tests.
///
/// Holding a `ScopedObs` (a) serializes all scoped users across threads via a
/// global mutex, (b) forces recording on, and (c) remembers the activation
/// timestamp so [`ScopedObs::spans`] returns only spans recorded inside the
/// scope. Dropping restores the previous state.
pub struct ScopedObs {
    _guard: MutexGuard<'static, ()>,
    prev: u8,
    since: u64,
}

impl ScopedObs {
    /// Enter a scope with recording forced on.
    pub fn new() -> Self {
        let guard = SCOPE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = STATE.load(Ordering::Relaxed);
        let since = now_ns();
        set_enabled(true);
        ScopedObs {
            _guard: guard,
            prev,
            since,
        }
    }

    /// All spans recorded since the scope started, sorted by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans: Vec<Span> = snapshot_spans()
            .into_iter()
            .filter(|s| s.start_ns >= self.since)
            .collect();
        spans.sort_by_key(|s| (s.start_ns, s.end_ns));
        spans
    }
}

impl Default for ScopedObs {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for ScopedObs {
    fn drop(&mut self) {
        STATE.store(self.prev, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Timestamps and ids
// ---------------------------------------------------------------------------

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the first observability call in this process.
/// Comparable across threads.
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

static NEXT_SUBMISSION: AtomicU64 = AtomicU64::new(1);

/// Allocate a process-unique submission/run id. 0 means "untraced".
pub fn next_submission_id() -> u64 {
    NEXT_SUBMISSION.fetch_add(1, Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Span kinds
// ---------------------------------------------------------------------------

/// Names for the GE2BND kernel kinds, indexed by `bidiag_core::ops::KernelKind`
/// discriminants (which are also the task tags the DAG builder assigns).
pub const KERNEL_KIND_NAMES: [&str; 13] = [
    "GEQRT", "UNMQR", "TSQRT", "TSMQR", "TTQRT", "TTMQR", "GELQT", "UNMLQ", "TSLQT", "TSMLQ",
    "TTLQT", "TTMLQ", "LASET",
];

/// BND2BD of a blocked GE2VAL problem (band extraction and bulge chase):
/// the task after its GE2BND kernels, or a sequential `ge2val`'s phase.
pub const KIND_BND2BD: u32 = 16;
/// BD2VAL of a blocked GE2VAL problem (dqds), after its [`KIND_BND2BD`].
pub const KIND_BD2VAL: u32 = 17;
/// A gang of direct-path (small-size crossover) SVD solves inside
/// `SvdSession`: one span per gang the pool's job lane runs.
pub const KIND_DIRECT: u32 = 18;
/// The whole GE2BND stage of a sequential `ge2val`, recorded on the
/// calling thread (which records no per-kernel spans).
pub const KIND_STAGE_GE2BND: u32 = 24;

/// Human-readable name for a span kind (kernel tags and stage markers).
pub fn kind_name(kind: u32) -> &'static str {
    match kind {
        0..=12 => KERNEL_KIND_NAMES[kind as usize],
        KIND_BND2BD => "BND2BD",
        KIND_BD2VAL => "BD2VAL",
        KIND_DIRECT => "DIRECT_GANG",
        KIND_STAGE_GE2BND => "stage:GE2BND",
        _ => "TASK",
    }
}

/// Sentinel worker id for spans recorded on a caller (non-pool) thread.
pub const WORKER_CALLER: u32 = 0xFFFF;

/// A completed task span. `submission` groups spans belonging to one
/// submission/run; `task` is the task id inside that submission's DAG
/// (used by the critical-path analyzer to reattach spans to graph nodes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Submission/run id from [`next_submission_id`]; 0 if untraced.
    pub submission: u64,
    /// Task id within the submission's DAG.
    pub task: u32,
    /// Op kind tag; see [`kind_name`]. Must be < 2^16.
    pub kind: u32,
    /// Executing worker index, or [`WORKER_CALLER`]. Must be < 2^16.
    pub worker: u32,
    /// Start timestamp, ns since process epoch.
    pub start_ns: u64,
    /// End timestamp, ns since process epoch.
    pub end_ns: u64,
}

// ---------------------------------------------------------------------------
// Span rings
// ---------------------------------------------------------------------------

/// Slots per ring. At ~40 bytes/slot this is ~320 KiB per recording thread,
/// and rings are recycled across thread lifetimes.
pub const RING_CAPACITY: usize = 8192;

/// One ring slot: a per-slot seqlock over four data words. Every word is an
/// atomic, so a concurrent overwrite can never produce a torn *word*; the
/// sequence check rejects mixed-generation *spans*.
struct Slot {
    /// Even = stable, odd = write in progress, 0 = never written.
    seq: AtomicU64,
    submission: AtomicU64,
    /// `task << 32 | kind << 16 | worker` (kind and worker are < 2^16).
    ids: AtomicU64,
    start_ns: AtomicU64,
    end_ns: AtomicU64,
}

impl Slot {
    const fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            submission: AtomicU64::new(0),
            ids: AtomicU64::new(0),
            start_ns: AtomicU64::new(0),
            end_ns: AtomicU64::new(0),
        }
    }
}

/// A fixed-capacity, overwrite-oldest span ring with a single writer at a
/// time (ownership is enforced by the registry's free list) and any number
/// of concurrent snapshot readers.
pub struct SpanRing {
    slots: Box<[Slot]>,
    /// Total spans ever pushed; `head % capacity` is the next write slot.
    head: AtomicUsize,
}

impl SpanRing {
    fn new() -> Self {
        SpanRing {
            slots: (0..RING_CAPACITY).map(|_| Slot::new()).collect(),
            head: AtomicUsize::new(0),
        }
    }

    /// Total number of spans ever recorded into this ring.
    pub fn recorded(&self) -> usize {
        self.head.load(Ordering::Relaxed)
    }

    fn push(&self, span: Span) {
        let idx = self.head.fetch_add(1, Ordering::Relaxed) % RING_CAPACITY;
        let slot = &self.slots[idx];
        let s = slot.seq.load(Ordering::Relaxed);
        // Mark the slot as in-progress *before* the data stores become
        // visible: relaxed store + release fence orders the odd sequence
        // ahead of the data words for any reader that observes them.
        slot.seq.store(s + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.submission.store(span.submission, Ordering::Relaxed);
        slot.ids.store(
            (span.task as u64) << 32
                | ((span.kind & 0xFFFF) as u64) << 16
                | (span.worker & 0xFFFF) as u64,
            Ordering::Relaxed,
        );
        slot.start_ns.store(span.start_ns, Ordering::Relaxed);
        slot.end_ns.store(span.end_ns, Ordering::Relaxed);
        // Publish: data words happen-before the even sequence.
        slot.seq.store(s + 2, Ordering::Release);
    }

    /// Read all stable spans currently in the ring (unordered). Slots being
    /// overwritten concurrently are retried a few times, then skipped —
    /// never returned torn.
    pub fn read(&self, out: &mut Vec<Span>) {
        for slot in self.slots.iter() {
            for _attempt in 0..3 {
                let s1 = slot.seq.load(Ordering::Acquire);
                if s1 == 0 || s1 & 1 == 1 {
                    if s1 == 0 {
                        break; // never written; later slots may still be (wrapped ring)
                    }
                    continue; // write in progress, retry
                }
                let submission = slot.submission.load(Ordering::Relaxed);
                let ids = slot.ids.load(Ordering::Relaxed);
                let start_ns = slot.start_ns.load(Ordering::Relaxed);
                let end_ns = slot.end_ns.load(Ordering::Relaxed);
                fence(Ordering::Acquire);
                if slot.seq.load(Ordering::Relaxed) != s1 {
                    continue; // overwritten mid-read, retry
                }
                out.push(Span {
                    submission,
                    task: (ids >> 32) as u32,
                    kind: (ids >> 16) as u32 & 0xFFFF,
                    worker: ids as u32 & 0xFFFF,
                    start_ns,
                    end_ns,
                });
                break;
            }
        }
    }
}

struct RingRegistry {
    /// All rings ever created, leaked; index = stable track id.
    rings: Mutex<Vec<&'static SpanRing>>,
    /// Indices of rings whose owning thread has exited, ready for reuse.
    free: Mutex<Vec<usize>>,
}

fn ring_registry() -> &'static RingRegistry {
    static REG: OnceLock<RingRegistry> = OnceLock::new();
    REG.get_or_init(|| RingRegistry {
        rings: Mutex::new(Vec::new()),
        free: Mutex::new(Vec::new()),
    })
}

/// Number of rings currently allocated (tracks in the trace). Bounded by the
/// peak number of *concurrently* recording threads, not by the total number
/// of threads ever spawned.
pub fn ring_count() -> usize {
    ring_registry()
        .rings
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .len()
}

/// Number of rings on the free list, i.e. not currently owned by any live
/// thread. Note that a ring is returned by its owner's thread-local
/// destructor, which may run slightly *after* the thread becomes joinable —
/// callers checking recycling behaviour should poll rather than assume the
/// return is visible the instant a thread is joined.
pub fn idle_rings() -> usize {
    ring_registry()
        .free
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .len()
}

struct RingHandle {
    idx: usize,
    ring: &'static SpanRing,
}

impl RingHandle {
    fn acquire() -> Self {
        let reg = ring_registry();
        let reused = reg.free.lock().unwrap_or_else(|e| e.into_inner()).pop();
        match reused {
            Some(idx) => {
                let ring = reg.rings.lock().unwrap_or_else(|e| e.into_inner())[idx];
                RingHandle { idx, ring }
            }
            None => {
                let ring: &'static SpanRing = Box::leak(Box::new(SpanRing::new()));
                let mut rings = reg.rings.lock().unwrap_or_else(|e| e.into_inner());
                rings.push(ring);
                RingHandle {
                    idx: rings.len() - 1,
                    ring,
                }
            }
        }
    }
}

impl Drop for RingHandle {
    fn drop(&mut self) {
        // Return the ring for reuse; its recorded spans stay readable.
        ring_registry()
            .free
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(self.idx);
    }
}

thread_local! {
    static RING: RingHandle = RingHandle::acquire();
}

/// Record a completed span into this thread's ring. Callers should gate on
/// [`enabled`] first; this function assumes recording is on.
pub fn record_span(span: Span) {
    // If the thread-local is being torn down (thread exit), drop the span
    // rather than panicking.
    let _ = RING.try_with(|h| h.ring.push(span));
}

/// Snapshot all spans from all rings, in (track, span) form. Track ids are
/// stable per ring and become Chrome-trace `tid`s.
pub fn snapshot_tracks() -> Vec<(usize, Vec<Span>)> {
    let rings: Vec<&'static SpanRing> = ring_registry()
        .rings
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    rings
        .into_iter()
        .enumerate()
        .map(|(idx, ring)| {
            let mut v = Vec::new();
            ring.read(&mut v);
            (idx, v)
        })
        .collect()
}

/// Snapshot all spans from all rings, flattened and unordered.
pub fn snapshot_spans() -> Vec<Span> {
    snapshot_tracks().into_iter().flat_map(|(_, v)| v).collect()
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// A monotonically increasing relaxed-atomic counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A gauge that remembers the maximum value ever recorded.
#[derive(Default)]
pub struct MaxGauge(AtomicU64);

impl MaxGauge {
    /// Record `v`; keeps the running maximum.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current maximum.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

const HIST_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples (bucket `b` holds values in
/// `[2^(b-1), 2^b)`, bucket 0 holds zero). Records are one relaxed
/// `fetch_add` per bucket plus count/sum/max updates.
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    const fn new() -> Self {
        // A const template, deliberately: each array slot gets its own
        // fresh atomic (array-init idiom; this is not shared state).
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [ZERO; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let b = if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        };
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Copy out a consistent-enough snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(self.buckets.iter()) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Plain-data snapshot of a [`Histogram`].
#[derive(Clone, Copy, Debug)]
pub struct HistogramSnapshot {
    buckets: [u64; HIST_BUCKETS],
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest recorded sample.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean of the recorded samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`) by linear interpolation within the
    /// containing log2 bucket. Exact to within a factor of 2 by construction.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= target {
                let lo = if b == 0 {
                    0.0
                } else {
                    (1u64 << (b - 1)) as f64
                };
                let hi = if b == 0 { 1.0 } else { (1u128 << b) as f64 };
                let frac = (target - seen) as f64 / n as f64;
                return (lo + (hi - lo) * frac).min(self.max as f64);
            }
            seen += n;
        }
        self.max as f64
    }
}

/// The process-wide metrics registry. All fields are updated with relaxed
/// atomics by instrumentation sites; durations are in nanoseconds.
///
/// A *submission* is one task graph handed to a `TaskPool`: a problem of an
/// `SvdSession`, or one `execute_parallel` call — each threaded stage of
/// `ge2val` is a submission on a pool built for that stage, and counts in
/// `submissions` and the three per-submission histograms like any other.
pub struct MetricsRegistry {
    /// DAG tasks executed (pool bodies, run or skipped).
    pub tasks_executed: Counter,
    /// Successful steals from another worker's deque.
    pub steals: Counter,
    /// Times a worker parked on the idle gate.
    pub parks: Counter,
    /// Total nanoseconds workers spent parked.
    pub idle_ns: Counter,
    /// Submissions accepted by `TaskPool::submit` (`SvdSession` problems
    /// and `execute_parallel` calls alike).
    pub submissions: Counter,
    /// Blocking admissions that had to wait for a slot.
    pub admission_waits: Counter,
    /// Total nanoseconds spent waiting for admission.
    pub admission_wait_ns: Counter,
    /// Submissions shed (rejected or failpoint-triggered) at admission.
    pub shed_submissions: Counter,
    /// Peak concurrent in-flight submissions observed.
    pub in_flight_peak: MaxGauge,
    /// dqds passes across all solves, rejected ones included.
    pub dqds_passes: Counter,
    /// dqds passes discarded because the shift overshot.
    pub dqds_rejected_passes: Counter,
    /// Inner steps of all dqds passes (sum of window lengths): what the
    /// solves cost, where `dqds_passes` only counts them.
    pub dqds_inner_steps: Counter,
    /// Unreduced dqds windows iterated, the parts of split ones included.
    pub dqds_segments: Counter,
    /// Singular values that fell back to bisection.
    pub dqds_fallback_values: Counter,
    /// Non-finite values detected and repaired by the dqds driver.
    pub dqds_poisoned_values: Counter,
    /// qd-array flips performed by the dqds driver.
    pub dqds_flips: Counter,
    /// Gangs run by a pool's job lane (`SvdSession`'s direct-path problems).
    pub direct_gangs: Counter,
    /// Jobs in those gangs: over `direct_gangs`, the mean gang size.
    pub direct_gang_jobs: Counter,
    /// Per-submission wait between submit and first task start (ns).
    pub queue_wait: Histogram,
    /// Per-submission first-task-start to last-task-end (ns).
    pub compute: Histogram,
    /// Per-submission end-to-end latency (ns).
    pub latency: Histogram,
    meta: Mutex<BTreeMap<String, String>>,
}

impl MetricsRegistry {
    const fn new() -> Self {
        MetricsRegistry {
            tasks_executed: Counter(AtomicU64::new(0)),
            steals: Counter(AtomicU64::new(0)),
            parks: Counter(AtomicU64::new(0)),
            idle_ns: Counter(AtomicU64::new(0)),
            submissions: Counter(AtomicU64::new(0)),
            admission_waits: Counter(AtomicU64::new(0)),
            admission_wait_ns: Counter(AtomicU64::new(0)),
            shed_submissions: Counter(AtomicU64::new(0)),
            in_flight_peak: MaxGauge(AtomicU64::new(0)),
            dqds_passes: Counter(AtomicU64::new(0)),
            dqds_rejected_passes: Counter(AtomicU64::new(0)),
            dqds_inner_steps: Counter(AtomicU64::new(0)),
            dqds_segments: Counter(AtomicU64::new(0)),
            dqds_fallback_values: Counter(AtomicU64::new(0)),
            dqds_poisoned_values: Counter(AtomicU64::new(0)),
            dqds_flips: Counter(AtomicU64::new(0)),
            direct_gangs: Counter(AtomicU64::new(0)),
            direct_gang_jobs: Counter(AtomicU64::new(0)),
            queue_wait: Histogram::new(),
            compute: Histogram::new(),
            latency: Histogram::new(),
            meta: Mutex::new(BTreeMap::new()),
        }
    }

    /// Attach a key/value pair to the snapshot header (e.g. the chosen SIMD
    /// backend). Last writer per key wins.
    pub fn set_meta(&self, key: &str, value: &str) {
        self.meta
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key.to_string(), value.to_string());
    }

    /// Copy out all counters, gauges, histograms and meta entries.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            tasks_executed: self.tasks_executed.get(),
            steals: self.steals.get(),
            parks: self.parks.get(),
            idle_ns: self.idle_ns.get(),
            submissions: self.submissions.get(),
            admission_waits: self.admission_waits.get(),
            admission_wait_ns: self.admission_wait_ns.get(),
            shed_submissions: self.shed_submissions.get(),
            in_flight_peak: self.in_flight_peak.get(),
            dqds_passes: self.dqds_passes.get(),
            dqds_rejected_passes: self.dqds_rejected_passes.get(),
            dqds_inner_steps: self.dqds_inner_steps.get(),
            dqds_segments: self.dqds_segments.get(),
            dqds_fallback_values: self.dqds_fallback_values.get(),
            dqds_poisoned_values: self.dqds_poisoned_values.get(),
            dqds_flips: self.dqds_flips.get(),
            direct_gangs: self.direct_gangs.get(),
            direct_gang_jobs: self.direct_gang_jobs.get(),
            queue_wait: self.queue_wait.snapshot(),
            compute: self.compute.snapshot(),
            latency: self.latency.snapshot(),
            meta: self.meta.lock().unwrap_or_else(|e| e.into_inner()).clone(),
        }
    }

    /// Zero every counter/gauge/histogram and clear meta. Test-only helper;
    /// concurrent recorders may interleave.
    pub fn reset(&self) {
        self.tasks_executed.reset();
        self.steals.reset();
        self.parks.reset();
        self.idle_ns.reset();
        self.submissions.reset();
        self.admission_waits.reset();
        self.admission_wait_ns.reset();
        self.shed_submissions.reset();
        self.in_flight_peak.reset();
        self.dqds_passes.reset();
        self.dqds_rejected_passes.reset();
        self.dqds_inner_steps.reset();
        self.dqds_segments.reset();
        self.dqds_fallback_values.reset();
        self.dqds_poisoned_values.reset();
        self.dqds_flips.reset();
        self.direct_gangs.reset();
        self.direct_gang_jobs.reset();
        self.queue_wait.reset();
        self.compute.reset();
        self.latency.reset();
        self.meta.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

static REGISTRY: MetricsRegistry = MetricsRegistry::new();

/// The process-wide [`MetricsRegistry`].
pub fn registry() -> &'static MetricsRegistry {
    &REGISTRY
}

/// Plain-data snapshot of the whole registry.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// See [`MetricsRegistry::tasks_executed`].
    pub tasks_executed: u64,
    /// See [`MetricsRegistry::steals`].
    pub steals: u64,
    /// See [`MetricsRegistry::parks`].
    pub parks: u64,
    /// See [`MetricsRegistry::idle_ns`].
    pub idle_ns: u64,
    /// See [`MetricsRegistry::submissions`].
    pub submissions: u64,
    /// See [`MetricsRegistry::admission_waits`].
    pub admission_waits: u64,
    /// See [`MetricsRegistry::admission_wait_ns`].
    pub admission_wait_ns: u64,
    /// See [`MetricsRegistry::shed_submissions`].
    pub shed_submissions: u64,
    /// See [`MetricsRegistry::in_flight_peak`].
    pub in_flight_peak: u64,
    /// See [`MetricsRegistry::dqds_passes`].
    pub dqds_passes: u64,
    /// See [`MetricsRegistry::dqds_rejected_passes`].
    pub dqds_rejected_passes: u64,
    /// See [`MetricsRegistry::dqds_inner_steps`].
    pub dqds_inner_steps: u64,
    /// See [`MetricsRegistry::dqds_segments`].
    pub dqds_segments: u64,
    /// See [`MetricsRegistry::dqds_fallback_values`].
    pub dqds_fallback_values: u64,
    /// See [`MetricsRegistry::dqds_poisoned_values`].
    pub dqds_poisoned_values: u64,
    /// See [`MetricsRegistry::dqds_flips`].
    pub dqds_flips: u64,
    /// See [`MetricsRegistry::direct_gangs`].
    pub direct_gangs: u64,
    /// See [`MetricsRegistry::direct_gang_jobs`].
    pub direct_gang_jobs: u64,
    /// See [`MetricsRegistry::queue_wait`].
    pub queue_wait: HistogramSnapshot,
    /// See [`MetricsRegistry::compute`].
    pub compute: HistogramSnapshot,
    /// See [`MetricsRegistry::latency`].
    pub latency: HistogramSnapshot,
    /// Free-form header entries (e.g. `simd_backend`).
    pub meta: BTreeMap<String, String>,
}

fn fmt_hist(
    f: &mut std::fmt::Formatter<'_>,
    name: &str,
    h: &HistogramSnapshot,
) -> std::fmt::Result {
    writeln!(
        f,
        "  {:<18} count={:<8} p50={:<12.0} p99={:<12.0} max={:<12} mean={:.0}  (ns)",
        name,
        h.count,
        h.quantile(0.50),
        h.quantile(0.99),
        h.max,
        h.mean()
    )
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "metrics snapshot")?;
        for (k, v) in &self.meta {
            writeln!(f, "  {k:<18} {v}")?;
        }
        writeln!(f, "  {:<18} {}", "tasks_executed", self.tasks_executed)?;
        writeln!(f, "  {:<18} {}", "steals", self.steals)?;
        writeln!(f, "  {:<18} {}", "parks", self.parks)?;
        writeln!(f, "  {:<18} {} ns", "idle", self.idle_ns)?;
        writeln!(f, "  {:<18} {}", "submissions", self.submissions)?;
        writeln!(f, "  {:<18} {}", "admission_waits", self.admission_waits)?;
        writeln!(
            f,
            "  {:<18} {} ns",
            "admission_wait", self.admission_wait_ns
        )?;
        writeln!(f, "  {:<18} {}", "shed_submissions", self.shed_submissions)?;
        writeln!(f, "  {:<18} {}", "in_flight_peak", self.in_flight_peak)?;
        writeln!(
            f,
            "  {:<18} passes={} rejected={} inner_steps={} segments={} fallback={} poisoned={} flips={}",
            "dqds",
            self.dqds_passes,
            self.dqds_rejected_passes,
            self.dqds_inner_steps,
            self.dqds_segments,
            self.dqds_fallback_values,
            self.dqds_poisoned_values,
            self.dqds_flips
        )?;
        writeln!(
            f,
            "  {:<18} gangs={} jobs={}",
            "direct", self.direct_gangs, self.direct_gang_jobs
        )?;
        fmt_hist(f, "queue_wait", &self.queue_wait)?;
        fmt_hist(f, "compute", &self.compute)?;
        fmt_hist(f, "latency", &self.latency)?;
        Ok(())
    }
}

impl MetricsSnapshot {
    /// Render the snapshot as a JSON object (hand-formatted; no serde).
    pub fn to_json(&self) -> String {
        let hist = |h: &HistogramSnapshot| {
            format!(
                "{{\"count\":{},\"p50_ns\":{:.0},\"p99_ns\":{:.0},\"max_ns\":{},\"mean_ns\":{:.0}}}",
                h.count,
                h.quantile(0.50),
                h.quantile(0.99),
                h.max,
                h.mean()
            )
        };
        let mut meta = String::from("{");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                meta.push(',');
            }
            meta.push_str(&format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)));
        }
        meta.push('}');
        format!(
            concat!(
                "{{\"meta\":{meta},\"tasks_executed\":{te},\"steals\":{st},\"parks\":{pk},",
                "\"idle_ns\":{idle},\"submissions\":{sub},\"admission_waits\":{aw},",
                "\"admission_wait_ns\":{awn},\"shed_submissions\":{shed},\"in_flight_peak\":{peak},",
                "\"dqds\":{{\"passes\":{dp},\"rejected_passes\":{drj},\"inner_steps\":{dst},",
                "\"segments\":{dseg},\"fallback_values\":{dfb},",
                "\"poisoned_values\":{dpo},\"flips\":{dfl}}},",
                "\"direct_gangs\":{dg},\"direct_gang_jobs\":{dgj},",
                "\"queue_wait\":{qw},\"compute\":{cp},\"latency\":{lat}}}"
            ),
            meta = meta,
            te = self.tasks_executed,
            st = self.steals,
            pk = self.parks,
            idle = self.idle_ns,
            sub = self.submissions,
            aw = self.admission_waits,
            awn = self.admission_wait_ns,
            shed = self.shed_submissions,
            peak = self.in_flight_peak,
            dp = self.dqds_passes,
            drj = self.dqds_rejected_passes,
            dst = self.dqds_inner_steps,
            dseg = self.dqds_segments,
            dfb = self.dqds_fallback_values,
            dpo = self.dqds_poisoned_values,
            dfl = self.dqds_flips,
            dg = self.direct_gangs,
            dgj = self.direct_gang_jobs,
            qw = hist(&self.queue_wait),
            cp = hist(&self.compute),
            lat = hist(&self.latency),
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

/// Render every recorded span as Chrome trace-event JSON, loadable in
/// Perfetto (`ui.perfetto.dev`) or `chrome://tracing`. One track (`tid`) per
/// span ring; metrics meta entries land in the top-level `metadata` object.
pub fn chrome_trace_json() -> String {
    let tracks = snapshot_tracks();
    let snap = registry().snapshot();
    let mut out = String::with_capacity(64 * 1024);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"metadata\":{");
    for (i, (k, v)) in snap.meta.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)));
    }
    out.push_str("},\"traceEvents\":[");
    let mut first = true;
    for (track, spans) in &tracks {
        if spans.is_empty() {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{track},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"ring {track}\"}}}}"
        ));
        for s in spans {
            let dur_us = (s.end_ns.saturating_sub(s.start_ns)) as f64 / 1000.0;
            out.push_str(&format!(
                ",{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"name\":\"{}\",\"cat\":\"task\",\
                 \"args\":{{\"submission\":{},\"task\":{},\"worker\":{}}}}}",
                track,
                s.start_ns as f64 / 1000.0,
                dur_us,
                kind_name(s.kind),
                s.submission,
                s.task,
                s.worker,
            ));
        }
    }
    out.push_str("]}");
    out
}

/// Write [`chrome_trace_json`] to `path`.
pub fn write_chrome_trace(path: &str) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(chrome_trace_json().as_bytes())
}

/// If `BIDIAG_TRACE=path` is set, write the Chrome trace there and return
/// the path. Intended as the last line of `main` in bins/examples.
pub fn write_trace_if_requested() -> std::io::Result<Option<String>> {
    match std::env::var("BIDIAG_TRACE") {
        Ok(path) if !path.is_empty() => {
            write_chrome_trace(&path)?;
            Ok(Some(path))
        }
        _ => Ok(None),
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        let p50 = s.quantile(0.5);
        // log2 buckets: exact to within a factor of 2.
        assert!((250.0..=1000.0).contains(&p50), "p50 = {p50}");
        assert!(s.quantile(1.0) <= 1000.0);
        assert_eq!(s.quantile(0.0) as u64, s.quantile(0.001) as u64);
        assert!((s.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_zero_and_huge() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, u64::MAX);
        assert!(s.quantile(0.01) < 1.5);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_all() {
        let ring = SpanRing::new();
        let n = RING_CAPACITY + 100;
        for i in 0..n {
            ring.push(Span {
                submission: 1,
                task: i as u32,
                kind: 0,
                worker: 0,
                start_ns: i as u64,
                end_ns: i as u64 + 1,
            });
        }
        assert_eq!(ring.recorded(), n);
        let mut v = Vec::new();
        ring.read(&mut v);
        assert_eq!(v.len(), RING_CAPACITY);
        // Oldest 100 were overwritten.
        assert!(v.iter().all(|s| (s.task as usize) >= 100));
    }

    #[test]
    fn span_pack_roundtrip() {
        let ring = SpanRing::new();
        let span = Span {
            submission: u64::MAX,
            task: u32::MAX,
            kind: 0xFFFF,
            worker: WORKER_CALLER,
            start_ns: 123,
            end_ns: 456,
        };
        ring.push(span);
        let mut v = Vec::new();
        ring.read(&mut v);
        assert_eq!(v, vec![span]);
    }

    #[test]
    fn kind_names_cover_tags() {
        assert_eq!(kind_name(0), "GEQRT");
        assert_eq!(kind_name(12), "LASET");
        assert_eq!(kind_name(KIND_BND2BD), "BND2BD");
        assert_eq!(kind_name(KIND_STAGE_GE2BND), "stage:GE2BND");
        assert_eq!(kind_name(999), "TASK");
    }

    #[test]
    fn snapshot_json_is_wellformed_enough() {
        let reg = registry();
        reg.set_meta("simd_backend", "scalar");
        let json = reg.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"simd_backend\":\"scalar\""));
        assert!(json.contains("\"queue_wait\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn chrome_trace_has_expected_shape() {
        let _obs = ScopedObs::new();
        record_span(Span {
            submission: 42,
            task: 7,
            kind: 3,
            worker: 1,
            start_ns: now_ns(),
            end_ns: now_ns() + 10,
        });
        let json = chrome_trace_json();
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"TSMQR\""));
        assert!(json.contains("\"submission\":42"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
