//! Execution back-ends for tile-operation lists and pipeline stages.
//!
//! * [`execute_sequential`] — run the list in order (reference numerics),
//! * [`execute_parallel`] — run it on the work-stealing shared-memory task
//!   runtime of `bidiag-runtime` (dependencies inferred from data accesses),
//! * [`build_graph`] — lower the list to a [`TaskGraph`] for critical-path
//!   measurements and machine simulation,
//! * [`bnd2bd_on_runtime`] / [`bd2val_on_runtime`] — run the second and
//!   third pipeline stages through the same runtime, so every stage of
//!   GE2VAL is a submission on one scheduler.  Each is one task: BND2BD
//!   its sequential bulge chase, BD2VAL dqds or the bisection oracle.
//!
//! # Parallel data plane
//!
//! The parallel back-end layers its shared state on the DAG's ordering
//! guarantees instead of global locks:
//!
//! * tiles live behind *per-tile* `RwLock`s, needed only because the
//!   region-level dependency keys deliberately let kernels touching
//!   disjoint regions of one tile overlap (see
//!   [`TileOp::execute_shared`](crate::ops::TileOp::execute_shared));
//! * compact-WY tau factors live in a pre-sized [`TauTable`] of once-cells
//!   keyed by op id — producers fill their own slot, consumers read the
//!   slot the DAG ordered before them, and no global map or lock is ever
//!   contended; the same table backs the sequential driver;
//! * every worker thread owns a [`KernelScratch`] (kernel workspace +
//!   operand snapshot buffer) pre-sized for the tile size at spawn and lent
//!   to each task body it runs, so the kernels' scratch is never
//!   reallocated — not even on a worker's first task; the only per-task
//!   heap traffic left is the `TFactor` each factorization kernel produces
//!   into its table slot.

use crate::ops::{KernelScratch, TauTable, TileOp};
use bidiag_kernels::band::BandMatrix;
use bidiag_kernels::gebd2::Bidiagonal;
use bidiag_matrix::{BlockCyclic, Matrix, TiledMatrix};
use bidiag_obs as obs;
use bidiag_runtime::{
    execute_parallel as runtime_execute, execute_parallel_with as runtime_execute_with, TaskBody,
    TaskBodyWith, TaskGraph,
};
use bidiag_svd::{singular_values_with, Bd2ValOptions};
use parking_lot::RwLock;
use std::sync::Arc;

/// Execute the operations in order on the tiled matrix, sharing the
/// [`TauTable`] store and the blocked-kernel scratch with the parallel
/// back-end.
pub fn execute_sequential(ops: &[TileOp], a: &mut TiledMatrix) {
    let taus = TauTable::for_ops(ops);
    let mut scratch = KernelScratch::for_tile(a.nb());
    for (op_id, op) in ops.iter().enumerate() {
        op.execute(op_id, a, &taus, &mut scratch);
    }
}

/// Lower an operation list to what the runtime executes: the data-flow
/// graph and one body per op, over the tiles of `a` *moved* into shared
/// per-tile locks (`a` keeps empty placeholders) and a fresh [`TauTable`].
/// The returned closure moves the tiles back once every body ran.
/// `kernel_scratch` picks the [`KernelScratch`] out of the pool's
/// per-worker scratch `S`.
pub(crate) fn lower_parallel<S: 'static>(
    ops: &[TileOp],
    a: &mut TiledMatrix,
    kernel_scratch: fn(&mut S) -> &mut KernelScratch,
) -> (
    TaskGraph,
    Vec<TaskBodyWith<S>>,
    impl FnOnce(&mut TiledMatrix) + Send + 'static,
) {
    // The shared vector is indexed row-major: (i, j) -> i * q + j.
    let (p, q) = (a.tile_rows(), a.tile_cols());
    let tiles: Vec<RwLock<Matrix>> = (0..p * q)
        .map(|idx| std::mem::replace(a.tile_mut(idx / q, idx % q), Matrix::zeros(0, 0)))
        .map(RwLock::new)
        .collect();
    let tiles = Arc::new(tiles);
    let taus = Arc::new(TauTable::for_ops(ops));
    let graph = build_graph(ops, q, &BlockCyclic::single_node());
    let bodies = ops
        .iter()
        .enumerate()
        .map(|(op_id, &op)| {
            let tiles = Arc::clone(&tiles);
            let taus = Arc::clone(&taus);
            Box::new(move |s: &mut S| {
                op.execute_shared(op_id, &tiles, q, &taus, kernel_scratch(s));
            }) as TaskBodyWith<S>
        })
        .collect();
    let restore = move |a: &mut TiledMatrix| {
        for (idx, tile) in tiles.iter().enumerate() {
            let tile = std::mem::replace(&mut *tile.write(), Matrix::zeros(0, 0));
            *a.tile_mut(idx / q, idx % q) = tile;
        }
    };
    (graph, bodies, restore)
}

/// Execute the operations in parallel on `threads` worker threads.
///
/// The numerical result is bitwise identical to [`execute_sequential`]
/// because every kernel is executed with exactly the same operands; only the
/// interleaving of independent kernels differs.
pub fn execute_parallel(ops: &[TileOp], a: &mut TiledMatrix, threads: usize) {
    let nb = a.nb();
    let (graph, bodies, restore) = lower_parallel(ops, a, |s: &mut KernelScratch| s);
    runtime_execute_with(&graph, bodies, threads, move || KernelScratch::for_tile(nb));
    restore(a);
}

/// Build the data-flow task graph of an operation list for a `p x q` tile
/// grid distributed according to `dist` (owner-computes placement on the
/// operation's output tile).
pub fn build_graph(ops: &[TileOp], q: usize, dist: &BlockCyclic) -> TaskGraph {
    let mut g = TaskGraph::new();
    for op in ops {
        let (oi, oj) = op.output_tile();
        let owner = dist.owner(oi, oj);
        let accesses = op.accesses(q);
        g.add_task(op.weight(), owner, op.kernel() as u32, &accesses);
    }
    g
}

/// Run `f` as a single runtime task of kind `kind` and return its value, so
/// a stage that is one sequential computation still shows up in the
/// runtime's traces and counters.  One task occupies one worker, whatever
/// the thread count of the surrounding run.
fn run_as_task<T: Send + 'static>(kind: u32, f: impl FnOnce() -> T + Send + 'static) -> T {
    let mut g = TaskGraph::new();
    g.add_task(1.0, 0, kind, &[]);
    let (tx, rx) = std::sync::mpsc::channel();
    let body: TaskBody = Box::new(move || {
        // The receiver outlives the run, so the send cannot fail.
        let _ = tx.send(f());
    });
    runtime_execute(&g, vec![body], 1);
    rx.recv().expect("the task ran before the runtime returned")
}

/// Run the BND2BD stage (band to bidiagonal) through the task runtime as
/// **one** task running [`BandMatrix::reduce_to_bidiagonal`] — like
/// [`bd2val_on_runtime`], so the stage shows up in the
/// runtime's traces and counters and every thread count returns the
/// sequential result bit for bit (`_threads` is not read: one task, one
/// worker).
///
/// The chase is a chain of ~`n^2 / (2 bw)` block-steps of a few
/// microseconds each in which step `k + 1` of a sweep needs step `k`;
/// one task per step costs more in scheduling than the step itself, so the
/// stage is not split until steps are grouped into coarser tasks.
pub fn bnd2bd_on_runtime(band: &mut BandMatrix, _threads: usize) -> Bidiagonal {
    let mut work = std::mem::replace(band, BandMatrix::zeros(1, 1));
    let (work, bidiag) = run_as_task(obs::KIND_BND2BD, move || {
        let bidiag = work.reduce_to_bidiagonal();
        (work, bidiag)
    });
    *band = work;
    bidiag
}

/// Run the BD2VAL stage (singular values of the bidiagonal) through the
/// task runtime as **one** task running
/// [`bidiag_svd::singular_values_with`] with the solver selected by `opts`
/// — dqds (at `O(n^2)` with a small constant it is a fraction of the
/// other two stages for the sizes this pipeline runs) or the bisection
/// oracle, which exists for reference runs and determinism tests, not for
/// speed.
///
/// Returns the singular values in non-increasing order, bitwise identical
/// to the sequential call at every thread count (`_threads` is not read:
/// one task, one worker).
pub fn bd2val_on_runtime(
    diag: &[f64],
    superdiag: &[f64],
    _threads: usize,
    opts: &Bd2ValOptions,
) -> Vec<f64> {
    if diag.is_empty() {
        return Vec::new();
    }
    let (d, e, opts) = (diag.to_vec(), superdiag.to_vec(), *opts);
    run_as_task(obs::KIND_BD2VAL, move || {
        singular_values_with(&d, &e, &opts)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers::{bidiag_ops, rbidiag_ops, GenConfig};
    use bidiag_kernels::svd::bidiagonal_singular_values;
    use bidiag_matrix::gen::random_gaussian;
    use bidiag_svd::SvdSolver;
    use bidiag_trees::NamedTree;

    /// GREEDY pairs tiles off with TT kernels; FLATTS chains every TS
    /// kernel of a panel through one pivot tile, the case the graph's
    /// write ordering must get exactly right; the default (AUTO at one
    /// core) is FLATTS domains joined by TT kernels on the last panels.
    const TREES: [NamedTree; 3] = [
        NamedTree::Greedy,
        NamedTree::FlatTs,
        NamedTree::Auto {
            gamma: 2.0,
            ncores: 1,
        },
    ];

    fn assert_parallel_matches_sequential(ops: &[TileOp], a0: &Matrix, nb: usize) {
        let mut seq = TiledMatrix::from_dense(a0, nb);
        execute_sequential(ops, &mut seq);

        let mut par = TiledMatrix::from_dense(a0, nb);
        execute_parallel(ops, &mut par, 4);

        // Same kernels on the same operands: results are bitwise identical.
        assert_eq!(seq.to_dense(), par.to_dense());
    }

    #[test]
    fn parallel_execution_matches_sequential_exactly() {
        let a0 = random_gaussian(18, 12, 77);
        for tree in TREES {
            let ops = bidiag_ops(6, 4, &GenConfig::shared(tree));
            assert_parallel_matches_sequential(&ops, &a0, 3);
        }
    }

    #[test]
    fn parallel_rbidiag_handles_reused_tau_keys() {
        // R-BIDIAG produces the same TauKey twice (preQR phase + square
        // bidiagonalization); the per-op-id TauTable must keep both.
        let a0 = random_gaussian(20, 10, 3);
        for tree in TREES {
            let ops = rbidiag_ops(10, 5, &GenConfig::shared(tree));
            assert_parallel_matches_sequential(&ops, &a0, 2);
        }
    }

    #[test]
    fn tau_table_sizes_one_slot_per_factorization() {
        let cfg = GenConfig::shared(NamedTree::Greedy);
        let ops = bidiag_ops(5, 3, &cfg);
        let table = TauTable::for_ops(&ops);
        let producers = ops
            .iter()
            .filter(|o| {
                !matches!(
                    o,
                    TileOp::Unmqr { .. }
                        | TileOp::Tsmqr { .. }
                        | TileOp::Ttmqr { .. }
                        | TileOp::Unmlq { .. }
                        | TileOp::Tsmlq { .. }
                        | TileOp::Ttmlq { .. }
                        | TileOp::ZeroLower { .. }
                )
            })
            .count();
        assert_eq!(table.len(), producers);
        assert!(!table.is_empty());
    }

    #[test]
    fn graph_size_matches_op_count() {
        let cfg = GenConfig::shared(NamedTree::FlatTs);
        let ops = bidiag_ops(5, 3, &cfg);
        let g = build_graph(&ops, 3, &BlockCyclic::single_node());
        assert_eq!(g.len(), ops.len());
        assert!(g.critical_path() > 0.0);
        assert!(g.total_weight() >= g.critical_path());
    }

    #[test]
    fn distributed_owners_follow_block_cyclic() {
        let cfg = GenConfig::distributed(NamedTree::Greedy, BlockCyclic::new(2, 2));
        let ops = bidiag_ops(4, 4, &cfg);
        let dist = BlockCyclic::new(2, 2);
        let g = build_graph(&ops, 4, &dist);
        for (t, op) in ops.iter().enumerate() {
            let (i, j) = op.output_tile();
            assert_eq!(g.task(t).owner, dist.owner(i, j));
        }
    }

    /// A random band matrix built directly in band storage (no dense
    /// detour, so nothing is discarded).
    fn random_band(n: usize, bw: usize, seed: u64) -> BandMatrix {
        let g = random_gaussian(n, n, seed);
        let mut b = BandMatrix::zeros(n, bw);
        for i in 0..n {
            for j in i..=(i + bw).min(n - 1) {
                b.set(i, j, g.get(i, j));
            }
        }
        b
    }

    #[test]
    fn bnd2bd_on_runtime_matches_direct_reduction() {
        let mut b1 = random_band(30, 5, 11);
        let mut b2 = b1.clone();
        let direct = b1.reduce_to_bidiagonal();
        let threaded = bnd2bd_on_runtime(&mut b2, 4);
        assert_eq!(direct.diag, threaded.diag);
        assert_eq!(direct.superdiag, threaded.superdiag);
    }

    #[test]
    fn bnd2bd_on_runtime_is_deterministic_across_thread_counts() {
        // One task runs the sequential chase, so every thread count must
        // reproduce `reduce_to_bidiagonal` bit for bit.
        for (n, bw, seed) in [(100usize, 8usize, 13u64), (61, 3, 14), (40, 17, 15)] {
            let mut reference = random_band(n, bw, seed);
            let band0 = reference.clone();
            let seq = reference.reduce_to_bidiagonal();
            for threads in [1usize, 2, 4] {
                let mut b = band0.clone();
                let par = bnd2bd_on_runtime(&mut b, threads);
                assert_eq!(seq.diag, par.diag, "n={n} bw={bw} @ {threads} threads");
                assert_eq!(
                    seq.superdiag, par.superdiag,
                    "n={n} bw={bw} @ {threads} threads"
                );
                // The band storages themselves must agree too.
                assert_eq!(reference.to_dense(), b.to_dense());
            }
        }
    }

    #[test]
    fn bd2val_on_runtime_matches_sequential_bisection() {
        let d = vec![4.0, -3.0, 2.5, 1.0, 0.5];
        let e = vec![0.7, -0.3, 0.2, 0.1];
        let seq = bidiagonal_singular_values(&d, &e);
        let opts = Bd2ValOptions::default().with_solver(SvdSolver::Bisection);
        let par = bd2val_on_runtime(&d, &e, 4, &opts);
        assert_eq!(seq, par);
    }

    #[test]
    fn bd2val_on_runtime_every_solver_matches_its_sequential_path() {
        let d = vec![4.0, -3.0, 2.5, 1.0, 0.5, 0.25, 2.0, 1.5];
        let e = vec![0.7, -0.3, 0.2, 0.1, 0.4, -0.6, 0.05];
        for solver in [SvdSolver::Dqds, SvdSolver::Bisection] {
            let opts = Bd2ValOptions::default().with_solver(solver);
            let seq = bidiag_svd::singular_values_with(&d, &e, &opts);
            for threads in [1usize, 2, 4] {
                let par = bd2val_on_runtime(&d, &e, threads, &opts);
                assert_eq!(seq, par, "{solver:?} @ {threads} threads");
            }
        }
    }
}
