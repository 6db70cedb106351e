//! Execution back-ends for tile-operation lists and for whole blocked
//! GE2VAL problems.
//!
//! * [`execute_sequential`] — run the list in order (reference numerics),
//! * [`execute_parallel`] — run it on the work-stealing shared-memory task
//!   runtime of `bidiag-runtime` (dependencies inferred from data accesses),
//! * [`build_graph`] — lower the list to a [`TaskGraph`] for critical-path
//!   measurements and machine simulation,
//! * `lower_ge2val` — the one lowering of a blocked GE2VAL problem (the
//!   GE2BND DAG, one chase task, one dqds task), which `SvdSession` and
//!   threaded per-call `ge2val` submit; sequential `ge2val` runs the same
//!   stages in the same order on the calling thread,
//! * [`bnd2bd_on_runtime`] / [`bd2val_on_runtime`] — one stage alone as one
//!   task; no library path calls them, the benchmark does.
//!
//! # Parallel data plane
//!
//! The parallel back-end layers its shared state on the DAG's ordering
//! guarantees instead of locks anyone waits on:
//!
//! * the graph orders every two operations that touch one tile, one of
//!   them writing, so the tiles' per-tile `RwLock`s are only ever *tried*
//!   and never contended (see
//!   [`TileOp::execute_shared`](crate::ops::TileOp::execute_shared)); a
//!   hole in that ordering panics instead of serializing;
//! * compact-WY tau factors — GEQRT's and GELQT's with their reflectors —
//!   live in a pre-sized [`TauTable`] of once-cells keyed by op id:
//!   producers fill their own slot, consumers read the slot the DAG
//!   ordered before them, and no global map or lock is ever contended; the
//!   same table backs the sequential driver;
//! * no operand is copied and the kernels need no scratch: the only
//!   per-task heap traffic is the `TFactor` each factorization kernel
//!   produces into its table slot.

use crate::drivers::{ge2bnd_ops, Algorithm, GenConfig};
use crate::ops::{TauTable, TileOp};
use crate::pipeline::Ge2Options;
use bidiag_kernels::band::BandMatrix;
use bidiag_kernels::gebd2::Bidiagonal;
use bidiag_matrix::{BlockCyclic, Matrix, TiledMatrix};
use bidiag_obs as obs;
use bidiag_runtime::{
    execute_parallel as runtime_execute, AccessMode, DataKey, TaskBody, TaskGraph,
};
use bidiag_svd::{dqds_singular_values, Bd2ValOptions};
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;

/// Execute the operations in order on the tiled matrix, sharing the
/// [`TauTable`] store with the parallel back-end.  Nothing is allocated
/// besides the table and the factors it receives.
pub fn execute_sequential(ops: &[TileOp], a: &mut TiledMatrix) {
    let taus = TauTable::for_ops(ops);
    for (op_id, op) in ops.iter().enumerate() {
        op.execute_exclusive(op_id, a, &taus);
    }
}

/// Lower an operation list to what the runtime executes: the data-flow
/// graph and one body per op, over the tiles of `a` *moved* into shared
/// per-tile locks (`a` keeps empty placeholders) and a fresh [`TauTable`].
/// The returned closure moves the tiles back once every body ran.
pub(crate) fn lower_parallel(
    ops: &[TileOp],
    a: &mut TiledMatrix,
) -> (
    TaskGraph,
    Vec<TaskBody>,
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
            Box::new(move || op.execute_shared(op_id, &tiles, q, &taus)) as TaskBody
        })
        .collect();
    let restore = move |a: &mut TiledMatrix| {
        for (idx, tile) in tiles.iter().enumerate() {
            let mut tile = tile.try_write().expect("every tile task ran");
            let tile = std::mem::replace(&mut *tile, Matrix::zeros(0, 0));
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
    let (graph, bodies, restore) = lower_parallel(ops, a);
    runtime_execute(&graph, bodies, threads);
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

/// Set up a non-empty blocked problem once for every driver (`opts.nb >
/// 0`): the input tiled (transposed first when it is wide, which leaves
/// the singular values unchanged), the algorithm picked for its shape, its
/// GE2BND operation list and the bandwidth of the band GE2BND leaves.
pub(crate) fn setup_blocked(
    a: &Matrix,
    opts: &Ge2Options,
) -> (TiledMatrix, Algorithm, Vec<TileOp>, usize) {
    let tiled = if a.rows() >= a.cols() {
        TiledMatrix::from_dense(a, opts.nb)
    } else {
        TiledMatrix::from_dense(&a.transpose(), opts.nb)
    };
    let (m, n) = (tiled.rows(), tiled.cols());
    let algorithm = opts.resolve_algorithm(m, n);
    let cfg = GenConfig::shared(opts.tree);
    let ops = ge2bnd_ops(tiled.tile_rows(), tiled.tile_cols(), algorithm, &cfg);
    let bw = opts.nb.min(n.saturating_sub(1)).max(1);
    (tiled, algorithm, ops, bw)
}

/// The cell the solver task of [`lower_ge2val`] fills with the spectrum.
pub(crate) type ValuesCell = Arc<Mutex<Vec<f64>>>;

/// Data key of the bidiagonal the chase task hands to the solver task; no
/// tile operation uses it.
const BIDIAGONAL: DataKey = DataKey::MAX;

/// The one lowering of a blocked GE2VAL problem: the GE2BND tile DAG of
/// [`lower_parallel`], then a [`KIND_BND2BD`](obs::KIND_BND2BD) task that
/// writes every key the DAG touches (so it runs after all of it), moves the
/// tiles back, extracts the band and chases it, then a
/// [`KIND_BD2VAL`](obs::KIND_BD2VAL) task that runs dqds into the returned
/// cell.  The tail tasks call what [`ge2val_sequential`] calls, in the
/// same order.
pub(crate) fn lower_ge2val(
    a: &Matrix,
    opts: &Ge2Options,
) -> (TaskGraph, Vec<TaskBody>, ValuesCell) {
    let (mut tiled, _, ops, bw) = setup_blocked(a, opts);
    let q = tiled.tile_cols();
    let (mut graph, mut bodies, restore) = lower_parallel(&ops, &mut tiled);
    let mut chase: Vec<(DataKey, AccessMode)> = ops
        .iter()
        .flat_map(|op| op.accesses(q))
        .map(|(k, _)| (k, AccessMode::Write))
        .chain([(BIDIAGONAL, AccessMode::Write)])
        .collect();
    chase.sort_unstable_by_key(|&(k, _)| k);
    chase.dedup_by_key(|&mut (k, _)| k);
    graph.add_task(1.0, 0, obs::KIND_BND2BD, &chase);
    graph.add_task(1.0, 0, obs::KIND_BD2VAL, &[(BIDIAGONAL, AccessMode::Read)]);

    let bidiag = Arc::new(Mutex::new(None));
    let values = ValuesCell::default();
    let (handoff, slot) = (Arc::clone(&bidiag), Arc::clone(&values));
    bodies.push(Box::new(move || {
        restore(&mut tiled);
        *handoff.lock() = Some(BandMatrix::from_tiled(&tiled, bw).reduce_to_bidiagonal());
    }));
    bodies.push(Box::new(move || {
        let b = bidiag.lock().take().expect("the chase ran first");
        *slot.lock() = dqds_singular_values(&b.diag, &b.superdiag);
    }));
    (graph, bodies, values)
}

/// Blocked GE2VAL of a non-empty `a` on `opts.threads` workers: the
/// [`lower_ge2val`] graph submitted to one pool built for the call.
pub(crate) fn ge2val_parallel(a: &Matrix, opts: &Ge2Options) -> Vec<f64> {
    let (graph, bodies, values) = lower_ge2val(a, opts);
    runtime_execute(&graph, bodies, opts.threads);
    let values = std::mem::take(&mut *values.lock());
    values
}

/// Blocked GE2VAL of a non-empty `a` on the calling thread: GE2BND through
/// [`execute_sequential`] on the exclusive tiles (no tile locks), then what
/// [`lower_ge2val`]'s tail tasks run.  Traced, its phases are caller-thread
/// spans of one submission, of kind
/// [`KIND_STAGE_GE2BND`](obs::KIND_STAGE_GE2BND) and the tail tasks' kinds.
pub(crate) fn ge2val_sequential(a: &Matrix, opts: &Ge2Options) -> Vec<f64> {
    let run = obs::enabled().then(obs::next_submission_id).unwrap_or(0);
    let mut start_ns = if run != 0 { obs::now_ns() } else { 0 };
    let mut phase = |task: u32, kind: u32| {
        if run != 0 {
            let end_ns = obs::now_ns();
            obs::record_span(obs::Span {
                submission: run,
                task,
                kind,
                worker: obs::WORKER_CALLER,
                start_ns,
                end_ns,
            });
            start_ns = end_ns;
        }
    };
    let (mut tiled, _, ops, bw) = setup_blocked(a, opts);
    execute_sequential(&ops, &mut tiled);
    phase(0, obs::KIND_STAGE_GE2BND);
    // `ops` outlives the band's allocation and the band the spectrum's, as
    // in `ge2bnd`: a repeated solve then frees one block (other orders raise
    // `ge2val-bench`'s `peak_rss_mib` on `square_1t` by 1.4 or 4.5 MiB).
    let mut band = BandMatrix::from_tiled(&tiled, bw);
    drop(ops);
    let b = band.reduce_to_bidiagonal();
    phase(1, obs::KIND_BND2BD);
    let values = dqds_singular_values(&b.diag, &b.superdiag);
    phase(2, obs::KIND_BD2VAL);
    values
}

/// Run `f` as a single runtime task of kind `kind` on a one-thread pool
/// built for it and return its value.  Only [`bnd2bd_on_runtime`] and
/// [`bd2val_on_runtime`] use it.
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

/// Run the BND2BD stage (band to bidiagonal) alone through the task
/// runtime as **one** task running [`BandMatrix::reduce_to_bidiagonal`],
/// so every thread count returns the sequential result bit for bit
/// (`_threads` is not read: one task, one worker).
///
/// No library path calls this: `ge2val` and `SvdSession` chase the band in
/// the `KIND_BND2BD` tail task of their one lowering.  It stays for the
/// benchmark's per-stage readings.
pub fn bnd2bd_on_runtime(band: &mut BandMatrix, _threads: usize) -> Bidiagonal {
    let mut work = std::mem::replace(band, BandMatrix::zeros(1, 1));
    let (work, bidiag) = run_as_task(obs::KIND_BND2BD, move || {
        let bidiag = work.reduce_to_bidiagonal();
        (work, bidiag)
    });
    *band = work;
    bidiag
}

/// Run the BD2VAL stage (singular values of the bidiagonal) alone through
/// the task runtime as **one** task running [`dqds_singular_values`].
///
/// Returns the singular values in non-increasing order, bitwise identical
/// to the sequential call at every thread count (`_threads` is not read:
/// one task, one worker).  `_opts` carries nothing.  No library path calls
/// this: `ge2val` and `SvdSession` run dqds in the `KIND_BD2VAL` tail task
/// of their one lowering.  It stays for the benchmark's per-stage readings.
pub fn bd2val_on_runtime(
    diag: &[f64],
    superdiag: &[f64],
    _threads: usize,
    _opts: &Bd2ValOptions,
) -> Vec<f64> {
    if diag.is_empty() {
        return Vec::new();
    }
    let (d, e) = (diag.to_vec(), superdiag.to_vec());
    run_as_task(obs::KIND_BD2VAL, move || dqds_singular_values(&d, &e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers::{bidiag_ops, rbidiag_ops, GenConfig};
    use bidiag_matrix::gen::random_gaussian;
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

    /// A tile task's tag is its `KernelKind` discriminant, and the
    /// observability plane names spans by that tag: its table must list the
    /// kinds in declaration order.
    #[test]
    fn span_names_follow_the_kernel_kinds() {
        use bidiag_kernels::KernelKind::*;
        let kinds = [
            Geqrt, Unmqr, Tsqrt, Tsmqr, Ttqrt, Ttmqr, Gelqt, Unmlq, Tslqt, Tsmlq, Ttlqt, Ttmlq,
            Laset,
        ];
        assert_eq!(kinds.len(), obs::KERNEL_KIND_NAMES.len());
        for k in kinds {
            assert_eq!(obs::KERNEL_KIND_NAMES[k as usize], k.name());
            assert_eq!(obs::kind_name(k as u32), k.name());
        }
    }

    /// On 2 and 4 workers: every tile lock is only tried, so a pair of
    /// tasks the graph leaves unordered on one tile panics here when the
    /// scheduler happens to overlap them.
    fn assert_parallel_matches_sequential(ops: &[TileOp], a0: &Matrix, nb: usize) {
        let mut seq = TiledMatrix::from_dense(a0, nb);
        execute_sequential(ops, &mut seq);

        for threads in [2, 4] {
            let mut par = TiledMatrix::from_dense(a0, nb);
            execute_parallel(ops, &mut par, threads);

            // Same kernels on the same operands: results are bitwise identical.
            assert_eq!(seq.to_dense(), par.to_dense(), "{threads} threads");
        }
    }

    #[test]
    fn parallel_execution_matches_sequential_exactly() {
        let a0 = random_gaussian(18, 12, 77);
        let mut configs = TREES.map(GenConfig::shared).to_vec();
        configs.push(GenConfig::distributed(
            NamedTree::Greedy,
            BlockCyclic::new(2, 2),
        ));
        for cfg in &configs {
            let ops = bidiag_ops(6, 4, cfg);
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
        // The square Greedy grids whose critical path the UNMQR / UNMLQ
        // accesses shortened.
        for q in [6, 10] {
            let a0 = random_gaussian(2 * q, 2 * q, q as u64);
            let ops = rbidiag_ops(q, q, &GenConfig::shared(NamedTree::Greedy));
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
    fn bd2val_on_runtime_matches_dqds_at_every_thread_count() {
        let d = vec![4.0, -3.0, 2.5, 1.0, 0.5, 0.25, 2.0, 1.5];
        let e = vec![0.7, -0.3, 0.2, 0.1, 0.4, -0.6, 0.05];
        let seq = dqds_singular_values(&d, &e);
        for threads in [1usize, 2, 4] {
            let par = bd2val_on_runtime(&d, &e, threads, &Bd2ValOptions);
            assert_eq!(seq, par, "{threads} threads");
        }
    }
}
