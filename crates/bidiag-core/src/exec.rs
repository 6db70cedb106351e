//! Execution of tile-operation lists and of whole blocked GE2VAL problems.
//!
//! Every blocked solve has one lowering: the op list over the matrix's
//! tiles moved into per-tile locks and a fresh [`TauTable`], and, for a
//! whole GE2VAL problem (`lower_ge2val`), a chase task and a dqds task
//! after the tile operations.  It runs in one of two forms, through the
//! same [`TileOp::execute_shared`] calls and the same tail functions:
//!
//! * on a pool, as [`build_graph`]'s task graph and one boxed body per task
//!   — `SvdSession`'s blocked problems, and threaded `ge2val`, `ge2bnd` and
//!   [`execute_parallel`] on a pool built for the call;
//! * at one thread, task by task in list order on the calling thread, with
//!   no graph and no boxed body — one-thread `ge2val`, `ge2bnd` and
//!   [`execute_sequential`].  Traced, each task records the span a pool
//!   worker would (same submission, task id and kind) on
//!   [`obs::WORKER_CALLER`].
//!
//! Nothing waits on a lock: the graph orders every two operations that
//! touch one tile, one of them writing, so the tile locks are only *tried*
//! (a hole in that ordering panics), and each tau factor has its own
//! once-cell, filled before the DAG lets anyone read it.  No operand is
//! copied; the only per-task heap traffic is the `TFactor` each
//! factorization files.
//!
//! [`bnd2bd_on_runtime`] / [`bd2val_on_runtime`] run one stage alone as one
//! task; no library path calls them, the benchmark does.

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

/// Execute the operations in order on the calling thread: the one-thread
/// form of [`execute_parallel`].
pub fn execute_sequential(ops: &[TileOp], a: &mut TiledMatrix) {
    execute_parallel(ops, a, 1);
}

/// Execute the operations on `threads` workers of a pool built for the
/// call, or, at one thread, in order on the calling thread.  Every kernel
/// sees the same operands either way, so the result is bitwise the same.
pub fn execute_parallel(ops: &[TileOp], a: &mut TiledMatrix, threads: usize) {
    let dag = TileDag::new(ops, a);
    let pool = |dag: &TileDag| (dag.submission(ops), || ());
    let in_order = |dag: &TileDag| dag.run_in_order(ops, caller_run());
    run(&dag, threads, pool, in_order);
    dag.restore(a);
}

/// Run a lowering `l` in the form `threads` picks: on a pool of `threads`
/// workers built for the call, as `pool`'s graph and bodies and then its
/// read-out, or, at one thread, as `in_order` on the calling thread.
fn run<L, T, R: FnOnce() -> T>(
    l: L,
    threads: usize,
    pool: impl FnOnce(L) -> ((TaskGraph, Vec<TaskBody>), R),
    in_order: impl FnOnce(L) -> T,
) -> T {
    if threads <= 1 {
        return in_order(l);
    }
    let ((graph, bodies), read) = pool(l);
    runtime_execute(&graph, bodies, threads);
    read()
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

/// An operation list's tiles: those of a matrix *moved* into shared
/// per-tile locks (the matrix keeps empty placeholders until
/// [`restore`](Self::restore)), and a fresh [`TauTable`] for the list.
struct TileDag {
    /// Row-major: `tiles[i * q + j]` guards tile `(i, j)`.
    tiles: Arc<Vec<RwLock<Matrix>>>,
    taus: Arc<TauTable>,
    q: usize,
}

impl TileDag {
    fn new(ops: &[TileOp], a: &mut TiledMatrix) -> Self {
        let (p, q) = (a.tile_rows(), a.tile_cols());
        let tiles: Vec<RwLock<Matrix>> = (0..p * q)
            .map(|idx| std::mem::replace(a.tile_mut(idx / q, idx % q), Matrix::zeros(0, 0)))
            .map(RwLock::new)
            .collect();
        TileDag {
            tiles: Arc::new(tiles),
            taus: Arc::new(TauTable::for_ops(ops)),
            q,
        }
    }

    /// The pool form: the graph of `ops` and one body per op.
    fn submission(&self, ops: &[TileOp]) -> (TaskGraph, Vec<TaskBody>) {
        let graph = build_graph(ops, self.q, &BlockCyclic::single_node());
        let bodies = ops
            .iter()
            .enumerate()
            .map(|(op_id, &op)| {
                let (tiles, taus, q) = (Arc::clone(&self.tiles), Arc::clone(&self.taus), self.q);
                Box::new(move || op.execute_shared(op_id, &tiles, q, &taus)) as TaskBody
            })
            .collect();
        (graph, bodies)
    }

    /// The one-thread form: `ops` in list order, as tasks `0..ops.len()` of
    /// caller run `run` (from [`caller_run`]).
    fn run_in_order(&self, ops: &[TileOp], run: u64) {
        for (op_id, op) in ops.iter().enumerate() {
            caller_task(run, op_id, op.kernel() as u32, || {
                op.execute_shared(op_id, &self.tiles, self.q, &self.taus)
            });
        }
    }

    /// Move the tiles back into `a` once every op ran.
    fn restore(&self, a: &mut TiledMatrix) {
        for (idx, tile) in self.tiles.iter().enumerate() {
            let mut tile = tile.try_write().expect("every tile task ran");
            *a.tile_mut(idx / self.q, idx % self.q) =
                std::mem::replace(&mut *tile, Matrix::zeros(0, 0));
        }
    }
}

/// Begin a submission run task by task on the calling thread: its trace
/// id, or 0 when tracing is off.
fn caller_run() -> u64 {
    obs::enabled().then(obs::next_submission_id).unwrap_or(0)
}

/// Run task `task` of kind `kind` of caller run `run` as `f`, recording the
/// span a pool worker records for it.
fn caller_task<T>(run: u64, task: usize, kind: u32, f: impl FnOnce() -> T) -> T {
    let start_ns = if run != 0 { obs::now_ns() } else { 0 };
    let value = f();
    if run != 0 {
        obs::record_task(run, task, kind, obs::WORKER_CALLER, start_ns);
    }
    value
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
    let mut ops = ge2bnd_ops(tiled.tile_rows(), tiled.tile_cols(), algorithm, &cfg);
    // The list keeps the block the one-tile schedule's list grew to (a TS
    // stack of `d` tiles is one op where that schedule has `d`): which
    // blocks a repeated solve frees decides whether the next input fits
    // the heap block its tiles left (see `Lowering::chase`).  With the
    // stacks' shorter list `ge2val-bench`'s `peak_rss_mib` on `tall_1t`
    // reads 52.3 MiB instead of 37.5.
    let one_tile: usize = ops.iter().map(TileOp::height).sum();
    ops.reserve_exact(one_tile.next_power_of_two() - ops.len());
    let bw = opts.nb.min(n.saturating_sub(1)).max(1);
    (tiled, algorithm, ops, bw)
}

/// The cell the dqds task of a [`Lowering`] fills with the spectrum.
pub(crate) type ValuesCell = Arc<Mutex<Vec<f64>>>;

/// Data key of the bidiagonal the chase task hands to the solver task; no
/// tile operation uses it.
const BIDIAGONAL: DataKey = DataKey::MAX;

/// The one lowering of a blocked GE2VAL problem: its GE2BND op list over
/// a [`TileDag`] (`tiled` holds placeholders until the chase moves the
/// tiles back), then two tails, BND2BD ([`chase`](Self::chase)) and
/// BD2VAL ([`bd2val`]).
pub(crate) struct Lowering {
    ops: Vec<TileOp>,
    dag: TileDag,
    tiled: TiledMatrix,
    bw: usize,
}

/// Lower a non-empty blocked GE2VAL problem.
pub(crate) fn lower_ge2val(a: &Matrix, opts: &Ge2Options) -> Lowering {
    let (mut tiled, _, ops, bw) = setup_blocked(a, opts);
    Lowering {
        dag: TileDag::new(&ops, &mut tiled),
        ops,
        tiled,
        bw,
    }
}

impl Lowering {
    /// The spectrum, on a pool of `threads` workers built for the call or,
    /// at one thread, on the calling thread.
    pub(crate) fn solve(self, threads: usize) -> Vec<f64> {
        let pool = |l: Self| {
            let (graph, bodies, values) = l.submission();
            ((graph, bodies), move || std::mem::take(&mut *values.lock()))
        };
        run(self, threads, pool, Self::run_in_order)
    }

    /// The pool form: the tile DAG, then a [`KIND_BND2BD`](obs::KIND_BND2BD)
    /// task that writes every tile-region key (every op writes at least
    /// one, so the task runs after all of them) and runs
    /// [`chase`](Self::chase), then a [`KIND_BD2VAL`](obs::KIND_BD2VAL)
    /// task that runs dqds into the returned cell.
    pub(crate) fn submission(self) -> (TaskGraph, Vec<TaskBody>, ValuesCell) {
        let (mut graph, mut bodies) = self.dag.submission(&self.ops);
        // A tile's regions are keys `4t`, `4t + 1` and `4t + 2` (see
        // `TileOp::accesses`), in ascending order here.
        let chase: Vec<(DataKey, AccessMode)> = (0..3 * self.dag.tiles.len())
            .map(|r| ((r / 3 * 4 + r % 3) as DataKey, AccessMode::Write))
            .chain([(BIDIAGONAL, AccessMode::Write)])
            .collect();
        graph.add_task(1.0, 0, obs::KIND_BND2BD, &chase);
        graph.add_task(1.0, 0, obs::KIND_BD2VAL, &[(BIDIAGONAL, AccessMode::Read)]);

        let chased = Arc::new(Mutex::new(None));
        let values = ValuesCell::default();
        let (handoff, slot) = (Arc::clone(&chased), Arc::clone(&values));
        bodies.push(Box::new(move || *handoff.lock() = Some(self.chase())));
        bodies.push(Box::new(move || {
            let chased = chased.lock().take().expect("the chase ran first");
            *slot.lock() = bd2val(&chased);
        }));
        (graph, bodies, values)
    }

    /// The one-thread form: the tile ops in list order, then the chase,
    /// then dqds, each recorded as the pool form's task of the same id.
    fn run_in_order(self) -> Vec<f64> {
        let (run, tasks) = (caller_run(), self.ops.len());
        self.dag.run_in_order(&self.ops, run);
        let chased = caller_task(run, tasks, obs::KIND_BND2BD, || self.chase());
        caller_task(run, tasks + 1, obs::KIND_BD2VAL, || bd2val(&chased))
    }

    /// BND2BD, once every tile op ran: the tiles moved back, the band
    /// extracted and chased.  `ops` outlives the band's allocation, and
    /// the band and the tiles outlive the spectrum's (see [`Chased`]): a
    /// repeated solve then frees one block (other orders raise
    /// `ge2val-bench`'s `peak_rss_mib` on `square_1t` by 1.4 or 4.5 MiB).
    fn chase(mut self) -> Chased {
        self.dag.restore(&mut self.tiled);
        drop(self.dag);
        let mut band = BandMatrix::from_tiled(&self.tiled, self.bw);
        drop(self.ops);
        (band.reduce_to_bidiagonal(), band, self.tiled)
    }
}

/// What the chase hands to dqds: the bidiagonal, then the band and the
/// factored tiles, dropped with it once the spectrum is allocated.
type Chased = (Bidiagonal, BandMatrix, TiledMatrix);

/// BD2VAL: the singular values of the chased bidiagonal.
fn bd2val((b, ..): &Chased) -> Vec<f64> {
    dqds_singular_values(&b.diag, &b.superdiag)
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
