//! Execution of tile-operation lists and of whole blocked GE2VAL problems.
//!
//! Every blocked solve has one lowering: the op list over the matrix's
//! tiles moved into per-tile locks and a fresh [`TauTable`] (a `TileDag`),
//! and, for a whole GE2VAL problem (`lower_ge2val`), a chase task and a
//! dqds task after the tile operations.  A lowering is tasks `0..n` and
//! one function, its `task(id)`, that runs any of them: a tile op's
//! [`TileOp::execute_shared`], the chase or dqds.  It runs in one of two
//! forms, and both call that function:
//!
//! * on a pool, as [`build_graph`]'s task graph with `move |id| l.task(id)`
//!   as the submission's one body — `SvdSession`'s blocked problems, and
//!   threaded `ge2val`, `ge2bnd` and [`execute_parallel`] on a pool built
//!   for the call;
//! * at one thread, `for id in 0..n` on the calling thread, with no graph
//!   — one-thread `ge2val`, `ge2bnd` and [`execute_sequential`].  Traced,
//!   each task records the span a pool worker would (same submission, task
//!   id and kind) on [`obs::WORKER_CALLER`].
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
use bidiag_runtime::{execute_graph, AccessMode, DataKey, TaskGraph, TaskId};
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
    let dag = run(TileDag::new(ops.to_vec(), a), threads);
    restore(dag.tiles, dag.q, a);
}

/// A blocked solve lowered to tasks `0..tasks()`, all run by one function.
pub(crate) trait Lowered: Send + Sync + 'static {
    /// The graph that orders the tasks (built by the pool form only).
    fn graph(&self) -> TaskGraph;
    /// How many tasks there are.
    fn tasks(&self) -> usize;
    /// The kind task `id`'s span is recorded as (its graph tag).
    fn kind(&self, id: TaskId) -> u32;
    /// Run task `id`.
    fn task(&self, id: TaskId);
}

/// Run lowering `l` in the form `threads` picks and hand it back: on a
/// pool of `threads` workers built for the call, as its graph's tasks, or,
/// at one thread, in order on the calling thread, each recorded as the
/// pool form's task of the same id.
fn run<L: Lowered>(l: L, threads: usize) -> L {
    if threads <= 1 {
        let run = obs::enabled().then(obs::next_submission_id).unwrap_or(0);
        for id in 0..l.tasks() {
            let start_ns = if run != 0 { obs::now_ns() } else { 0 };
            l.task(id);
            if run != 0 {
                obs::record_task(run, id, l.kind(id), obs::WORKER_CALLER, start_ns);
            }
        }
        return l;
    }
    let graph = l.graph();
    let l = Arc::new(l);
    let body = Arc::clone(&l);
    execute_graph(&graph, move |id| body.task(id), threads);
    Arc::into_inner(l).expect("a one-shot run drops its body before it returns")
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

/// An operation list over a matrix's tiles, *moved* into shared per-tile
/// locks (the matrix keeps empty placeholders until [`restore`]), and a
/// fresh [`TauTable`] for the list: task `id` is op `id`.
struct TileDag {
    ops: Vec<TileOp>,
    /// Row-major: `tiles[i * q + j]` guards tile `(i, j)`.
    tiles: Vec<RwLock<Matrix>>,
    taus: TauTable,
    q: usize,
}

impl TileDag {
    fn new(ops: Vec<TileOp>, a: &mut TiledMatrix) -> Self {
        let (p, q) = (a.tile_rows(), a.tile_cols());
        let tiles = (0..p * q)
            .map(|idx| std::mem::replace(a.tile_mut(idx / q, idx % q), Matrix::zeros(0, 0)))
            .map(RwLock::new)
            .collect();
        TileDag {
            taus: TauTable::for_ops(&ops),
            ops,
            tiles,
            q,
        }
    }
}

impl Lowered for TileDag {
    fn graph(&self) -> TaskGraph {
        build_graph(&self.ops, self.q, &BlockCyclic::single_node())
    }

    fn tasks(&self) -> usize {
        self.ops.len()
    }

    fn kind(&self, id: TaskId) -> u32 {
        self.ops[id].kernel() as u32
    }

    fn task(&self, id: TaskId) {
        self.ops[id].execute_shared(id, &self.tiles, self.q, &self.taus)
    }
}

/// Move a [`TileDag`]'s tiles back into `a` once every op ran.
fn restore(tiles: Vec<RwLock<Matrix>>, q: usize, a: &mut TiledMatrix) {
    for (idx, tile) in tiles.into_iter().enumerate() {
        *a.tile_mut(idx / q, idx % q) = tile.into_inner();
    }
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

/// Data key of the bidiagonal the chase task hands to the solver task; no
/// tile operation uses it.
const BIDIAGONAL: DataKey = DataKey::MAX;

/// The one lowering of a blocked GE2VAL problem: tasks `0..ops` are its
/// GE2BND op list over a [`TileDag`], task `ops` is BND2BD
/// ([`chase`](Self::chase)) and task `ops + 1` is BD2VAL, dqds into
/// [`values`](Self::values).
pub(crate) struct Lowering {
    /// GE2BND's state until the chase takes it.  Tile tasks only try to
    /// read it and the chase only tries to take it: the graph orders the
    /// chase after every tile task, so no try fails.
    tiles: RwLock<Option<TilePhase>>,
    /// Length of the op list.
    ops: usize,
    bw: usize,
    chased: Mutex<Option<Chased>>,
    /// The spectrum, once dqds ran.
    pub(crate) values: Mutex<Vec<f64>>,
}

/// GE2BND's share of a [`Lowering`]: the op list over its tiles, and the
/// matrix that holds placeholders until the chase moves the tiles back.
struct TilePhase {
    dag: TileDag,
    tiled: TiledMatrix,
}

/// Lower a non-empty blocked GE2VAL problem.
pub(crate) fn lower_ge2val(a: &Matrix, opts: &Ge2Options) -> Lowering {
    let (mut tiled, _, ops, bw) = setup_blocked(a, opts);
    let dag = TileDag::new(ops, &mut tiled);
    Lowering {
        ops: dag.ops.len(),
        tiles: RwLock::new(Some(TilePhase { dag, tiled })),
        bw,
        chased: Mutex::new(None),
        values: Mutex::new(Vec::new()),
    }
}

impl Lowering {
    /// The spectrum, on a pool of `threads` workers built for the call or,
    /// at one thread, on the calling thread.
    pub(crate) fn solve(self, threads: usize) -> Vec<f64> {
        run(self, threads).values.into_inner()
    }

    /// `f` of the tile DAG, which tile tasks and the graph only read.
    fn dag<T>(&self, f: impl FnOnce(&TileDag) -> T) -> T {
        let tiles = self
            .tiles
            .try_read()
            .expect("tile tasks run before the chase");
        f(&tiles.as_ref().expect("tile tasks run before the chase").dag)
    }

    /// BND2BD, once every tile op ran: the tiles moved back, the band
    /// extracted and chased.  The tile locks and the tau table go before
    /// the band is allocated, the op list after, and the band and the
    /// tiles outlive the spectrum's allocation (see [`Chased`]): a
    /// repeated solve then frees in an order that keeps
    /// `ge2val-bench`'s `peak_rss_mib` down (40 s runs, glibc malloc):
    /// keeping the tau table and the op list until the lowering is dropped
    /// reads `square_1t` at 19.8–19.9 MiB against 15.0–15.2, and `tall_1t`
    /// at 37.6–38.1 against 37.2–37.4.
    fn chase(&self) {
        let TilePhase { dag, mut tiled } = self
            .tiles
            .try_write()
            .expect("the chase runs after every tile task")
            .take()
            .expect("the chase runs once");
        restore(dag.tiles, dag.q, &mut tiled);
        drop(dag.taus);
        let mut band = BandMatrix::from_tiled(&tiled, self.bw);
        drop(dag.ops);
        *self.chased.lock() = Some((band.reduce_to_bidiagonal(), band, tiled));
    }
}

impl Lowered for Lowering {
    /// The tile DAG, then a [`KIND_BND2BD`](obs::KIND_BND2BD) task that
    /// writes every tile-region key (every op writes at least one, so the
    /// task runs after all of them), then a
    /// [`KIND_BD2VAL`](obs::KIND_BD2VAL) task after it.
    fn graph(&self) -> TaskGraph {
        let (mut graph, tiles) = self.dag(|dag| (dag.graph(), dag.tiles.len()));
        // A tile's regions are keys `4t`, `4t + 1` and `4t + 2` (see
        // `TileOp::accesses`), in ascending order here.
        let chase: Vec<(DataKey, AccessMode)> = (0..3 * tiles)
            .map(|r| ((r / 3 * 4 + r % 3) as DataKey, AccessMode::Write))
            .chain([(BIDIAGONAL, AccessMode::Write)])
            .collect();
        graph.add_task(1.0, 0, obs::KIND_BND2BD, &chase);
        graph.add_task(1.0, 0, obs::KIND_BD2VAL, &[(BIDIAGONAL, AccessMode::Read)]);
        graph
    }

    fn tasks(&self) -> usize {
        self.ops + 2
    }

    fn kind(&self, id: TaskId) -> u32 {
        match id.checked_sub(self.ops) {
            None => self.dag(|dag| dag.kind(id)),
            Some(0) => obs::KIND_BND2BD,
            Some(_) => obs::KIND_BD2VAL,
        }
    }

    fn task(&self, id: TaskId) {
        match id.checked_sub(self.ops) {
            None => self.dag(|dag| dag.task(id)),
            Some(0) => self.chase(),
            Some(_) => {
                let chased = self.chased.lock().take().expect("the chase ran first");
                *self.values.lock() = bd2val(&chased);
            }
        }
    }
}

/// What the chase hands to dqds: the bidiagonal, then the band and the
/// factored tiles, dropped with it once the spectrum is allocated.
/// Freeing the band and the tiles in the chase instead reads
/// `ge2val-bench`'s `peak_rss_mib` on `square_1t` at 17.3–17.5 MiB against
/// 15.0–15.2.
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
    let (f, value) = (Mutex::new(Some(f)), Arc::new(Mutex::new(None)));
    let out = Arc::clone(&value);
    execute_graph(&g, move |_| *out.lock() = f.lock().take().map(|f| f()), 1);
    let value = value.lock().take();
    value.expect("the task ran before the runtime returned")
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
