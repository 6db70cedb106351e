//! Steady-state allocation accounting for the batched session: after
//! warm-up, inline direct-path calls through [`SvdSession::compute_into`]
//! must perform **zero** heap allocations — the gebd2 work/tail buffers,
//! the dqds qd-array pool and the output vector are all reused from the
//! session's caller arena. A submitted direct-path problem makes exactly
//! three: its input snapshot, its completion cell and its result. And a
//! per-call solve of a long bidiagonal makes the allocations of its scratch
//! and its result, and none per split.
//!
//! The counting allocator makes this binary single-purpose: it runs its
//! checks from its own `main` (no libtest harness, `harness = false` in the
//! manifest), so no thread but the session's pollutes the counter.  It
//! prints each check's name as it passes; `--list` and name filters do not
//! apply.
//!
//! [`SvdSession::compute_into`]: bidiag_core::batch::SvdSession::compute_into

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() {
    let checks: [(&str, fn()); 3] = [
        (
            "warm_direct_path_calls_allocate_nothing",
            warm_direct_path_calls_allocate_nothing,
        ),
        (
            "warm_submit_wait_round_allocates_its_snapshot_cell_and_result",
            warm_submit_wait_round_allocates_its_snapshot_cell_and_result,
        ),
        (
            "per_call_dqds_allocates_its_scratch_and_nothing_per_split",
            per_call_dqds_allocates_its_scratch_and_nothing_per_split,
        ),
    ];
    // A failed check panics, which fails the run; each passed one is
    // reported by name, between the counted windows.
    for (name, check) in checks {
        check();
        println!("test {name} ... ok");
    }
}

fn warm_direct_path_calls_allocate_nothing() {
    use bidiag_core::batch::SvdSession;
    use bidiag_matrix::gen::random_gaussian;

    let session = SvdSession::new(1);
    let problems: Vec<_> = (0..4).map(|i| random_gaussian(32, 32, 40 + i)).collect();
    let wide = random_gaussian(24, 48, 99); // exercises the transposed copy
    let mut out = Vec::new();

    // The worker builds its arena (`DirectScratch::for_gang(64, GANG)`, 58
    // allocations) on its own thread after spawn, and nothing else waits
    // for it: a job it has run proves it done, so it cannot land in the
    // measured window.
    session.submit(&problems[0]).unwrap().wait().unwrap();

    // Warm-up: the first calls grow the caller arena (work matrix, gebd2
    // tail, dqds pair pool) and `out` to their steady-state capacities.
    // The inputs are deterministic and repeated below, so every buffer the
    // measured loop needs exists after this.
    for _ in 0..3 {
        for a in &problems {
            session.compute_into(a, &mut out).unwrap();
            assert_eq!(out.len(), 32);
        }
        session.compute_into(&wide, &mut out).unwrap();
        assert_eq!(out.len(), 24);
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..50 {
        for a in &problems {
            session.compute_into(a, &mut out).unwrap();
        }
        session.compute_into(&wide, &mut out).unwrap();
    }
    let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        delta, 0,
        "warm compute_into made {delta} heap allocations over 250 calls; \
         the direct path must run entirely from the pooled arenas"
    );
}

/// A submit -> wait round of a 32x32 problem on a warm one-worker session:
/// the input snapshot, the completion cell on the job lane and the result
/// vector, counted on both threads. With a one-task graph, a boxed body and
/// a result cell it was 17.
fn warm_submit_wait_round_allocates_its_snapshot_cell_and_result() {
    use bidiag_core::batch::SvdSession;
    use bidiag_matrix::gen::random_gaussian;

    let session = SvdSession::new(1);
    let a = random_gaussian(32, 32, 5);
    for _ in 0..20 {
        session.submit(&a).unwrap().wait().unwrap();
    }
    for _ in 0..5 {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let sv = session.submit(&a).unwrap().wait().unwrap();
        let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
        assert_eq!(sv.len(), 32);
        assert_eq!(
            delta, 3,
            "a warm submit -> wait round made {delta} allocations"
        );
    }
}

/// `dqds_singular_values_with_stats` at the order of `square_1t`, on a
/// bidiagonal whose windows split dozens of times.
fn per_call_dqds_allocates_its_scratch_and_nothing_per_split() {
    use bidiag_matrix::gen::random_gaussian;
    use bidiag_svd::{dqds_singular_values_with_stats, DqdsScratch};

    let n = 768;
    let g = random_gaussian(n, 2, 7);
    let d: Vec<f64> = (0..n).map(|i| 1.0 + g.get(i, 0).abs()).collect();
    let e: Vec<f64> = (0..n - 1).map(|i| g.get(i, 1)).collect();

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let scratch = DqdsScratch::for_len(n);
    let out = Vec::<f64>::with_capacity(n);
    let fixed = ALLOCATIONS.load(Ordering::SeqCst) - before;
    drop((scratch, out));

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let (sv, stats) = dqds_singular_values_with_stats(&d, &e);
    let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(sv.len(), n);
    assert_eq!(stats.fallback_values, 0);
    assert!(stats.segments > 20, "wanted a solve that splits: {stats:?}");
    assert_eq!(
        delta, fixed,
        "a per-call dqds solve with {} windows made {delta} allocations, its scratch and result are {fixed}",
        stats.segments
    );
}
