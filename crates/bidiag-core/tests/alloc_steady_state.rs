//! Steady-state allocation accounting for the batched session: after
//! warm-up, inline direct-path calls through [`SvdSession::compute_into`]
//! must perform **zero** heap allocations — the gebd2 work/tail buffers,
//! the dqds qd-array pool and the output vector are all reused from the
//! session's caller arena. And a per-call solve of a long bidiagonal makes
//! the allocations of its scratch and its result, and none per split.
//!
//! The counting allocator makes this binary single-purpose; keep it to one
//! test so no concurrent test thread pollutes the counter.
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

#[test]
fn warm_direct_path_calls_allocate_nothing() {
    use bidiag_core::batch::SvdSession;
    use bidiag_matrix::gen::random_gaussian;

    let session = SvdSession::new(1);
    let problems: Vec<_> = (0..4).map(|i| random_gaussian(32, 32, 40 + i)).collect();
    let wide = random_gaussian(24, 48, 99); // exercises the transposed copy
    let mut out = Vec::new();

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

    per_call_dqds_allocates_its_scratch_and_nothing_per_split();
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
