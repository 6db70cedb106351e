//! Allocation accounting for the blocked tile kernels: the sequential
//! executor's loop over a 4x4-tile BIDIAG GREEDY DAG allocates exactly the
//! [`TFactor`]s it files in the tau table — **one** allocation per
//! factorization op, QR and LQ side alike, **zero** per apply op.  No
//! kernel needs scratch, so this holds from the very first call.
//!
//! Sibling of `alloc_steady_state.rs`.  Only allocations of the thread
//! that runs the test are counted: the harness's main thread allocates on
//! its own schedule while the test runs.
//!
//! [`TFactor`]: bidiag_kernels::TFactor

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set by the test on its own thread (const-initialized and without a
    /// destructor, so reading it inside the allocator allocates nothing).
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn tile_kernels_allocate_only_the_t_factors_they_return() {
    use bidiag_core::{bidiag_ops, GenConfig, KernelScratch, TauTable};
    use bidiag_matrix::gen::random_gaussian;
    use bidiag_matrix::TiledMatrix;
    use bidiag_trees::NamedTree;

    let nb = 16;
    let ops = bidiag_ops(4, 4, &GenConfig::shared(NamedTree::Greedy));
    let dense = random_gaussian(4 * nb, 4 * nb, 5);
    // The first kernel call decides the SIMD backend (reads the environment).
    let _ = bidiag_matrix::simd::backend();
    COUNTED.with(|c| c.set(true));

    // Everything else `execute_sequential` sets up before its loop.
    let mut a = TiledMatrix::from_dense(&dense, nb);
    let taus = TauTable::for_ops(&ops);
    let mut scratch = KernelScratch::for_tile(nb);

    let (mut factorizations, mut applies) = (0, 0);
    for (op_id, op) in ops.iter().enumerate() {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        op.execute(op_id, &mut a, &taus, &mut scratch);
        let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
        let want = usize::from(op.kernel().is_factorization());
        factorizations += want;
        applies += 1 - want;
        assert_eq!(delta, want, "{op:?} (op {op_id}) made {delta} allocations");
    }
    assert_eq!(factorizations, taus.len());
    // The DAG exercised both sides: QR and LQ factorizations and applies.
    assert!(factorizations >= 8 && applies > factorizations);
}
