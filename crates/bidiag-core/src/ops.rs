//! The tile-operation intermediate representation.
//!
//! Every algorithm of the paper (BIDIAG, R-BIDIAG, plain tiled QR) is first
//! lowered to a flat list of [`TileOp`]s in a valid sequential order.  The
//! same list then feeds two back-ends:
//!
//! * execution (`crate::exec`): one lowering, run on the work-stealing
//!   scheduler of `bidiag-runtime` or, at one thread, in list order on the
//!   calling thread,
//! * the task-graph analyses (critical paths) and machine simulations.
//!
//! Each operation knows which tiles and reflector-scalar vectors it reads and
//! writes, so the data-flow DAG is derived mechanically.

use bidiag_kernels::cost::KernelKind;
use bidiag_kernels::{lq, qr, TFactor};
use bidiag_matrix::{Matrix, TiledMatrix};
use bidiag_runtime::{AccessMode, DataKey};
use std::collections::HashMap;
use std::ops::Range;

/// One tile operation of a tiled algorithm.  All indices are tile indices;
/// `k` is the step (panel index).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TileOp {
    /// Factor tile `(i, k)` into a triangle.
    Geqrt {
        /// Panel (step) index.
        k: usize,
        /// Tile row being factored.
        i: usize,
    },
    /// Apply the reflectors of `Geqrt { k, i }` to tile `(i, j)`.
    Unmqr {
        /// Panel index.
        k: usize,
        /// Tile row holding the reflectors.
        i: usize,
        /// Trailing tile column being updated.
        j: usize,
    },
    /// Eliminate the square tiles `(i..i + d, k)`, a stack of `d` (at most
    /// [`qr::STACK`]), against the triangle `(piv, k)` in one call.
    Tsqrt {
        /// Panel index.
        k: usize,
        /// Pivot tile row.
        piv: usize,
        /// First eliminated tile row.
        i: usize,
        /// Stack height: tile rows `i..i + d` are eliminated.
        d: usize,
    },
    /// Apply the reflectors of `Tsqrt { k, piv, i, d }` to tiles `(piv, j)`
    /// and `(i..i + d, j)`.
    Tsmqr {
        /// Panel index.
        k: usize,
        /// Pivot tile row.
        piv: usize,
        /// First eliminated tile row.
        i: usize,
        /// Stack height of the elimination.
        d: usize,
        /// Trailing tile column being updated.
        j: usize,
    },
    /// Eliminate the triangle `(i, k)` against the triangle `(piv, k)`.
    Ttqrt {
        /// Panel index.
        k: usize,
        /// Pivot tile row.
        piv: usize,
        /// Eliminated tile row.
        i: usize,
    },
    /// Apply the reflectors of `Ttqrt { k, piv, i }` to tiles `(piv, j)` and `(i, j)`.
    Ttmqr {
        /// Panel index.
        k: usize,
        /// Pivot tile row.
        piv: usize,
        /// Eliminated tile row.
        i: usize,
        /// Trailing tile column being updated.
        j: usize,
    },
    /// Factor tile `(k, j)` into a lower triangle (LQ panel kernel).
    Gelqt {
        /// Panel index.
        k: usize,
        /// Tile column being factored.
        j: usize,
    },
    /// Apply the reflectors of `Gelqt { k, j }` to tile `(i, j)` from the right.
    Unmlq {
        /// Panel index.
        k: usize,
        /// Tile column holding the reflectors.
        j: usize,
        /// Trailing tile row being updated.
        i: usize,
    },
    /// Eliminate the square tile `(k, j)` against the lower triangle `(k, piv)`.
    Tslqt {
        /// Panel index.
        k: usize,
        /// Pivot tile column.
        piv: usize,
        /// Eliminated tile column.
        j: usize,
    },
    /// Apply the reflectors of `Tslqt { k, piv, j }` to tiles `(i, piv)` and `(i, j)`.
    Tsmlq {
        /// Panel index.
        k: usize,
        /// Pivot tile column.
        piv: usize,
        /// Eliminated tile column.
        j: usize,
        /// Trailing tile row being updated.
        i: usize,
    },
    /// Eliminate the lower triangle `(k, j)` against the lower triangle `(k, piv)`.
    Ttlqt {
        /// Panel index.
        k: usize,
        /// Pivot tile column.
        piv: usize,
        /// Eliminated tile column.
        j: usize,
    },
    /// Apply the reflectors of `Ttlqt { k, piv, j }` to tiles `(i, piv)` and `(i, j)`.
    Ttmlq {
        /// Panel index.
        k: usize,
        /// Pivot tile column.
        piv: usize,
        /// Eliminated tile column.
        j: usize,
        /// Trailing tile row being updated.
        i: usize,
    },
    /// Zero (part of) tile `(i, j)`: the whole tile when `whole` is true,
    /// otherwise only its strictly-lower part.  Used by R-BIDIAG to discard
    /// the Householder vectors of the QR factorization stored below the
    /// diagonal of the R factor before bidiagonalizing it (LAPACK `xLASET`).
    ZeroLower {
        /// Tile row.
        i: usize,
        /// Tile column.
        j: usize,
        /// Zero the whole tile instead of only the strictly-lower part.
        whole: bool,
    },
}

/// Class of reflector-scalar (tau) storage produced by factorization kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum TauClass {
    QrFactor,
    QrElim,
    LqFactor,
    LqElim,
}

/// Key of a tau factor in the data-flow graph (and the binding key of
/// [`TauTable`] slots).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TauKey(u64);

fn tau_key(class: TauClass, k: usize, idx: usize) -> TauKey {
    let c = match class {
        TauClass::QrFactor => 0u64,
        TauClass::QrElim => 1,
        TauClass::LqFactor => 2,
        TauClass::LqElim => 3,
    };
    TauKey((1u64 << 62) | (c << 40) | ((k as u64) << 20) | idx as u64)
}

/// Nothing: no kernel needs scratch and no back-end copies an operand.
///
/// It exists only because the benchmark's `kernel_loop` still names it
/// (through [`TileOp::execute`]); the change that lets the benchmark drop
/// it (ROADMAP item 11) deletes it.
#[derive(Debug)]
pub struct KernelScratch;

impl KernelScratch {
    /// The scratch; `_nb` is not read.
    pub fn for_tile(_nb: usize) -> Self {
        KernelScratch
    }
}

/// Lock-free storage of the [`TFactor`]s (reflector scalars + compact-WY
/// `T` matrices) produced by factorization kernels — the *single* tau store
/// of every execution, on a pool or on the calling thread: one pre-sized
/// [`OnceLock`] slot per *producing* operation, resolved at build time from
/// the sequential op order.
///
/// A [`TauKey`] can be produced more than once in one op list (R-BIDIAG
/// reuses panel indices between its QR-factorization phase and the square
/// bidiagonalization), so slots are keyed by the *op index* of the
/// producer rather than by the key: during the sequential scan in
/// [`TauTable::for_ops`], each consumer is bound to the most recent
/// producer of its key — exactly the producer its RAW dependency points to
/// in the task graph.  The DAG's WAR edges guarantee a later producer of
/// the same key never runs before earlier consumers, so every slot is
/// written once and read only after being written.  No locking, no
/// rehashing, no contention on a global map.
///
/// [`OnceLock`]: std::sync::OnceLock
#[derive(Debug)]
pub struct TauTable {
    /// Per-op slot written by the op (producers only).
    write_slot: Vec<Option<u32>>,
    /// Per-op slot read by the op (consumers only).
    read_slot: Vec<Option<u32>>,
    slots: Vec<std::sync::OnceLock<TFactor>>,
}

/// Whether an operation produces or consumes a tau vector.
enum TauRole {
    Produce,
    Consume,
}

impl TauTable {
    /// Pre-size the table for an operation list (one slot per factorization
    /// kernel) and bind every consumer to its producer's slot.
    pub fn for_ops(ops: &[TileOp]) -> Self {
        let mut write_slot = vec![None; ops.len()];
        let mut read_slot = vec![None; ops.len()];
        let mut nslots = 0u32;
        // One-shot sizing: count the producers up front so the binding map
        // never rehashes mid-scan (ge2val_batch calls this per problem).
        let producers = ops
            .iter()
            .filter(|op| matches!(op.tau_role(), Some(TauRole::Produce)))
            .count();
        let mut last_producer: HashMap<u64, u32> = HashMap::with_capacity(producers);
        for (t, op) in ops.iter().enumerate() {
            match op.tau_role() {
                Some(TauRole::Produce) => {
                    last_producer.insert(op.tau().0, nslots);
                    write_slot[t] = Some(nslots);
                    nslots += 1;
                }
                Some(TauRole::Consume) => {
                    let slot = *last_producer
                        .get(&op.tau().0)
                        .expect("tau consumed before any producer in the op list");
                    read_slot[t] = Some(slot);
                }
                None => {}
            }
        }
        TauTable {
            write_slot,
            read_slot,
            slots: (0..nslots).map(|_| std::sync::OnceLock::new()).collect(),
        }
    }

    /// Number of tau slots (factorization kernels) in the table.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the op list contains no factorization kernel.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Store the factor produced by op `op_id`.
    fn put(&self, op_id: usize, tf: TFactor) {
        let slot = self.write_slot[op_id].expect("op produces no tau factor");
        self.slots[slot as usize]
            .set(tf)
            .expect("tau slot produced twice");
    }

    /// Fetch the factor consumed by op `op_id` (panics if the producer has
    /// not run — the DAG guarantees it has).
    fn get(&self, op_id: usize) -> &TFactor {
        let slot = self.read_slot[op_id].expect("op consumes no tau factor");
        self.slots[slot as usize]
            .get()
            .expect("tau factor read before being produced")
    }
}

impl TileOp {
    /// The kernel kind (for costs and reporting).
    pub fn kernel(&self) -> KernelKind {
        match self {
            TileOp::Geqrt { .. } => KernelKind::Geqrt,
            TileOp::Unmqr { .. } => KernelKind::Unmqr,
            TileOp::Tsqrt { .. } => KernelKind::Tsqrt,
            TileOp::Tsmqr { .. } => KernelKind::Tsmqr,
            TileOp::Ttqrt { .. } => KernelKind::Ttqrt,
            TileOp::Ttmqr { .. } => KernelKind::Ttmqr,
            TileOp::Gelqt { .. } => KernelKind::Gelqt,
            TileOp::Unmlq { .. } => KernelKind::Unmlq,
            TileOp::Tslqt { .. } => KernelKind::Tslqt,
            TileOp::Tsmlq { .. } => KernelKind::Tsmlq,
            TileOp::Ttlqt { .. } => KernelKind::Ttlqt,
            TileOp::Ttmlq { .. } => KernelKind::Ttmlq,
            TileOp::ZeroLower { .. } => KernelKind::Laset,
        }
    }

    /// Tiles the operation eliminates, or updates below its pivot, at once:
    /// the stack height of a TSQRT / TSMQR, one for every other operation.
    pub fn height(&self) -> usize {
        match *self {
            TileOp::Tsqrt { d, .. } | TileOp::Tsmqr { d, .. } => d,
            _ => 1,
        }
    }

    /// Cost weight of the operation (Table I, units of `nb^3/3`): a stack of
    /// `d` tiles weighs what `d` calls on one tile do.
    pub fn weight(&self) -> f64 {
        self.kernel().weight() * self.height() as f64
    }

    /// Approximate flop count of the operation for tile size `nb`.
    pub fn flops(&self, nb: usize) -> f64 {
        self.kernel().flops(nb) * self.height() as f64
    }

    /// The tile that is considered "owned" output of the operation; the
    /// owner-computes rule places the task on the node owning this tile.
    pub fn output_tile(&self) -> (usize, usize) {
        match *self {
            TileOp::Geqrt { k, i } => (i, k),
            TileOp::Unmqr { i, j, .. } => (i, j),
            TileOp::Tsqrt { k, i, .. } | TileOp::Ttqrt { k, i, .. } => (i, k),
            TileOp::Tsmqr { i, j, .. } | TileOp::Ttmqr { i, j, .. } => (i, j),
            TileOp::Gelqt { k, j } => (k, j),
            TileOp::Unmlq { i, j, .. } => (i, j),
            TileOp::Tslqt { k, j, .. } | TileOp::Ttlqt { k, j, .. } => (k, j),
            TileOp::Tsmlq { i, j, .. } | TileOp::Ttmlq { i, j, .. } => (i, j),
            TileOp::ZeroLower { i, j, .. } => (i, j),
        }
    }

    /// Tau key produced (factorization kernels) or consumed (update kernels).
    fn tau(&self) -> TauKey {
        match *self {
            TileOp::Geqrt { k, i } => tau_key(TauClass::QrFactor, k, i),
            TileOp::Unmqr { k, i, .. } => tau_key(TauClass::QrFactor, k, i),
            TileOp::Tsqrt { k, i, .. } | TileOp::Ttqrt { k, i, .. } => {
                tau_key(TauClass::QrElim, k, i)
            }
            TileOp::Tsmqr { k, i, .. } | TileOp::Ttmqr { k, i, .. } => {
                tau_key(TauClass::QrElim, k, i)
            }
            TileOp::Gelqt { k, j } => tau_key(TauClass::LqFactor, k, j),
            TileOp::Unmlq { k, j, .. } => tau_key(TauClass::LqFactor, k, j),
            TileOp::Tslqt { k, j, .. } | TileOp::Ttlqt { k, j, .. } => {
                tau_key(TauClass::LqElim, k, j)
            }
            TileOp::Tsmlq { k, j, .. } | TileOp::Ttmlq { k, j, .. } => {
                tau_key(TauClass::LqElim, k, j)
            }
            TileOp::ZeroLower { .. } => unreachable!("ZeroLower has no reflector scalars"),
        }
    }

    /// Whether the op produces or consumes a tau vector (factorization
    /// kernels produce, update kernels consume, `ZeroLower` does neither).
    fn tau_role(&self) -> Option<TauRole> {
        match self {
            TileOp::Geqrt { .. }
            | TileOp::Tsqrt { .. }
            | TileOp::Ttqrt { .. }
            | TileOp::Gelqt { .. }
            | TileOp::Tslqt { .. }
            | TileOp::Ttlqt { .. } => Some(TauRole::Produce),
            TileOp::Unmqr { .. }
            | TileOp::Tsmqr { .. }
            | TileOp::Ttmqr { .. }
            | TileOp::Unmlq { .. }
            | TileOp::Tsmlq { .. }
            | TileOp::Ttmlq { .. } => Some(TauRole::Consume),
            TileOp::ZeroLower { .. } => None,
        }
    }

    /// Data accesses of the operation for a `p x q` tile grid.
    ///
    /// Every tile is represented by *three* data keys — its diagonal, its
    /// strictly-upper part and its strictly-lower part — and tau factors by
    /// keys of a separate high-bit space.  UNMQR and UNMLQ read their
    /// reflectors from the GEQRT/GELQT factor (the tau key), not from the
    /// tile, so a TS/TT factorization rewriting the `R` part (diagonal +
    /// strictly-upper) of the pivot tile does not conflict with them, and
    /// panel and update kernels overlap exactly as assumed by the
    /// critical-path formulas of Section IV (and dually for the LQ
    /// kernels).  Yet any two operations that touch one tile, one of them
    /// writing, are joined by a path of the graph these keys induce
    /// (`bidiag-core`'s `tile_exclusivity` test), so no task ever waits for
    /// a tile.
    pub fn accesses(&self, q: usize) -> Vec<(DataKey, AccessMode)> {
        use AccessMode::{Read, Write};
        // Diagonal, strictly-upper and strictly-lower regions of tile (r, c).
        let dg = |r: usize, c: usize| -> DataKey { ((r * q + c) as DataKey) * 4 };
        let up = |r: usize, c: usize| -> DataKey { ((r * q + c) as DataKey) * 4 + 1 };
        let lo = |r: usize, c: usize| -> DataKey { ((r * q + c) as DataKey) * 4 + 2 };
        // All three regions of a tile with the same access mode.
        let all =
            |r: usize, c: usize, m: AccessMode| vec![(dg(r, c), m), (up(r, c), m), (lo(r, c), m)];
        match *self {
            // Even the strictly-lower LASET owns its tile: R-BIDIAG's
            // TS/TT pivot writes of the same step rewrite the other regions
            // of that `Matrix`.
            TileOp::ZeroLower { i, j, .. } => all(i, j, Write),
            TileOp::Geqrt { k, i } => {
                let mut a = all(i, k, Write);
                a.push((self.tau().0, Write));
                a
            }
            // The reflectors come with the GEQRT factor: no tile is read.
            TileOp::Unmqr { i, j, .. } => {
                let mut a = vec![(self.tau().0, Read)];
                a.extend(all(i, j, Write));
                a
            }
            TileOp::Tsqrt { k, piv, i, d } => {
                let mut a = vec![(dg(piv, k), Write), (up(piv, k), Write)];
                a.extend((i..i + d).flat_map(|r| all(r, k, Write)));
                a.push((self.tau().0, Write));
                a
            }
            TileOp::Tsmqr { k, piv, i, d, j } => {
                let mut a: Vec<_> = (i..i + d).flat_map(|r| all(r, k, Read)).collect();
                a.push((self.tau().0, Read));
                a.extend(all(piv, j, Write));
                a.extend((i..i + d).flat_map(|r| all(r, j, Write)));
                a
            }
            TileOp::Ttqrt { k, piv, i } => vec![
                (dg(piv, k), Write),
                (up(piv, k), Write),
                (dg(i, k), Write),
                (up(i, k), Write),
                (self.tau().0, Write),
            ],
            TileOp::Ttmqr { k, piv, i, j } => {
                let mut a = vec![(dg(i, k), Read), (up(i, k), Read), (self.tau().0, Read)];
                a.extend(all(piv, j, Write));
                a.extend(all(i, j, Write));
                a
            }
            TileOp::Gelqt { k, j } => {
                let mut a = all(k, j, Write);
                a.push((self.tau().0, Write));
                a
            }
            TileOp::Unmlq { j, i, .. } => {
                let mut a = vec![(self.tau().0, Read)];
                a.extend(all(i, j, Write));
                a
            }
            TileOp::Tslqt { k, piv, j } => {
                let mut a = vec![(dg(k, piv), Write), (lo(k, piv), Write)];
                a.extend(all(k, j, Write));
                a.push((self.tau().0, Write));
                a
            }
            TileOp::Tsmlq { k, piv, j, i } => {
                let mut a = all(k, j, Read);
                a.push((self.tau().0, Read));
                a.extend(all(i, piv, Write));
                a.extend(all(i, j, Write));
                a
            }
            TileOp::Ttlqt { k, piv, j } => vec![
                (dg(k, piv), Write),
                (lo(k, piv), Write),
                (dg(k, j), Write),
                (lo(k, j), Write),
                (self.tau().0, Write),
            ],
            TileOp::Ttmlq { k, piv, j, i } => {
                let mut a = vec![(dg(k, j), Read), (lo(k, j), Read), (self.tau().0, Read)];
                a.extend(all(i, piv, Write));
                a.extend(all(i, j, Write));
                a
            }
        }
    }

    /// Execute the operation on the tiled matrix with the blocked
    /// compact-WY kernels.  `op_id` is this operation's index in the op
    /// list `taus` was built for.  `_scratch` is not read (see
    /// [`KernelScratch`]).  TS/TT apply kernels borrow the reflector tile in
    /// place.  No library path calls this (every blocked solve runs
    /// [`execute_shared`](TileOp::execute_shared)); the benchmark does.
    pub fn execute(
        &self,
        op_id: usize,
        a: &mut TiledMatrix,
        taus: &TauTable,
        _scratch: &mut KernelScratch,
    ) {
        self.run(op_id, a, taus);
    }

    /// Execute the operation against tiles shared behind per-tile locks
    /// (every blocked solve, on a pool or in order on the calling thread).
    /// `tiles[r * q + c]` guards tile `(r, c)`;
    /// `taus` is the pre-sized per-op tau table and `op_id` this
    /// operation's index in the op list the table was built for.
    ///
    /// The task graph orders every two operations that touch one tile, one
    /// of them writing (see [`accesses`](TileOp::accesses)), so a task
    /// never waits for a lock: each one is only *tried*, and a lock found
    /// taken is a hole in that ordering and panics, naming the operation.
    pub fn execute_shared(
        &self,
        op_id: usize,
        tiles: &[parking_lot::RwLock<Matrix>],
        q: usize,
        taus: &TauTable,
    ) {
        self.run(op_id, &mut SharedTiles { tiles, q, op: self }, taus);
    }

    /// The op → kernel match of both tile stores, over whichever way `a`
    /// hands out tiles.
    fn run<A: TileAccess>(&self, op_id: usize, a: &mut A, taus: &TauTable) {
        type PairKernel = fn(&mut Matrix, &mut Matrix, &Matrix, &TFactor);
        let put = |tf| taus.put(op_id, tf);
        let apply = |a: &mut A, c, kernel: fn(&TFactor, &mut Matrix)| {
            a.one(c, |c| kernel(taus.get(op_id), c));
        };
        let apply_pair = |a: &mut A, v, c1, c2, kernel: PairKernel| {
            a.refl_two(v, c1, c2, |v, c1, c2| kernel(c1, c2, v, taus.get(op_id)));
        };
        match *self {
            TileOp::ZeroLower { i, j, whole } => a.one((i, j), |t| zero_lower(t, whole)),
            TileOp::Geqrt { k, i } => put(a.one((i, k), qr::geqrt)),
            TileOp::Unmqr { i, j, .. } => apply(a, (i, j), qr::unmqr),
            TileOp::Tsqrt { k, piv, i, d } => {
                put(a.stack((piv, k), k, i..i + d, |r1, a| qr::tsqrt_stack(r1, a)))
            }
            TileOp::Tsmqr { k, piv, i, d, j } => {
                let tf = taus.get(op_id);
                a.refl_stack(k, (piv, j), j, i..i + d, |v, c1, c| {
                    qr::tsmqr_stack(c1, c, v, tf)
                })
            }
            TileOp::Ttqrt { k, piv, i } => put(a.two((piv, k), (i, k), qr::ttqrt)),
            TileOp::Ttmqr { k, piv, i, j } => apply_pair(a, (i, k), (piv, j), (i, j), qr::ttmqr),
            TileOp::Gelqt { k, j } => put(a.one((k, j), lq::gelqt)),
            TileOp::Unmlq { j, i, .. } => apply(a, (i, j), lq::unmlq),
            TileOp::Tslqt { k, piv, j } => put(a.two((k, piv), (k, j), lq::tslqt)),
            TileOp::Tsmlq { k, piv, j, i } => apply_pair(a, (k, j), (i, piv), (i, j), lq::tsmlq),
            TileOp::Ttlqt { k, piv, j } => put(a.two((k, piv), (k, j), lq::ttlqt)),
            TileOp::Ttmlq { k, piv, j, i } => apply_pair(a, (k, j), (i, piv), (i, j), lq::ttmlq),
        }
    }
}

/// Tile coordinates `(row, column)`.
type Tile = (usize, usize);

/// The tiles of a TS stack as a kernel takes them.
type Stack<'s, 't> = &'s mut dyn Iterator<Item = &'t mut Matrix>;

/// The operand patterns of the tile kernels, as handed out by a back-end's
/// tile store: one or two tiles written, the pair with or without a TT
/// (or LQ-side TS) reflector tile `v` that is only read, and a TS stack —
/// tiles `rows` of one tile column under a pivot tile, with or without
/// the stack's reflector tiles `rows` of another column.
trait TileAccess {
    fn one<R>(&mut self, t: Tile, f: impl FnOnce(&mut Matrix) -> R) -> R;
    fn two<R>(&mut self, a: Tile, b: Tile, f: impl FnOnce(&mut Matrix, &mut Matrix) -> R) -> R;
    fn refl_two(
        &mut self,
        v: Tile,
        a: Tile,
        b: Tile,
        f: impl FnOnce(&Matrix, &mut Matrix, &mut Matrix),
    );
    fn stack<R>(
        &mut self,
        piv: Tile,
        col: usize,
        rows: Range<usize>,
        f: impl FnOnce(&mut Matrix, Stack<'_, '_>) -> R,
    ) -> R;
    fn refl_stack(
        &mut self,
        vcol: usize,
        piv: Tile,
        col: usize,
        rows: Range<usize>,
        f: impl FnOnce(&mut dyn Iterator<Item = &Matrix>, &mut Matrix, Stack<'_, '_>),
    );
}

/// A run of one tile.
fn run((i, j): Tile) -> (Range<usize>, usize) {
    (i..i + 1, j)
}

/// Exclusive access ([`TileOp::execute`]): disjoint borrows, nothing copied.
impl TileAccess for TiledMatrix {
    fn one<R>(&mut self, (i, j): Tile, f: impl FnOnce(&mut Matrix) -> R) -> R {
        f(self.tile_mut(i, j))
    }
    fn two<R>(&mut self, a: Tile, b: Tile, f: impl FnOnce(&mut Matrix, &mut Matrix) -> R) -> R {
        let [a, b] = self.tile_runs_mut([run(a), run(b)]);
        f(&mut a[0], &mut b[0])
    }
    fn refl_two(
        &mut self,
        v: Tile,
        a: Tile,
        b: Tile,
        f: impl FnOnce(&Matrix, &mut Matrix, &mut Matrix),
    ) {
        let [v, a, b] = self.tile_runs_mut([run(v), run(a), run(b)]);
        f(&v[0], &mut a[0], &mut b[0])
    }
    fn stack<R>(
        &mut self,
        piv: Tile,
        col: usize,
        rows: Range<usize>,
        f: impl FnOnce(&mut Matrix, Stack<'_, '_>) -> R,
    ) -> R {
        let [piv, tiles] = self.tile_runs_mut([run(piv), (rows, col)]);
        f(&mut piv[0], &mut tiles.iter_mut())
    }
    fn refl_stack(
        &mut self,
        vcol: usize,
        piv: Tile,
        col: usize,
        rows: Range<usize>,
        f: impl FnOnce(&mut dyn Iterator<Item = &Matrix>, &mut Matrix, Stack<'_, '_>),
    ) {
        let [v, piv, tiles] = self.tile_runs_mut([(rows.clone(), vcol), run(piv), (rows, col)]);
        f(&mut v.iter(), &mut piv[0], &mut tiles.iter_mut())
    }
}

/// The lowering's tiles: `tiles[r * q + c]` guards tile `(r, c)`;
/// `op` is the operation the tiles are handed to.  See
/// [`TileOp::execute_shared`].
struct SharedTiles<'a> {
    tiles: &'a [parking_lot::RwLock<Matrix>],
    q: usize,
    op: &'a TileOp,
}

impl SharedTiles<'_> {
    fn lock(&self, (r, c): Tile) -> &parking_lot::RwLock<Matrix> {
        &self.tiles[r * self.q + c]
    }

    fn read(&self, t: Tile) -> parking_lot::RwLockReadGuard<'_, Matrix> {
        let guard = self.lock(t).try_read();
        guard.unwrap_or_else(|| self.unordered(t))
    }

    fn write(&self, t: Tile) -> parking_lot::RwLockWriteGuard<'_, Matrix> {
        let guard = self.lock(t).try_write();
        guard.unwrap_or_else(|| self.unordered(t))
    }

    /// `lock` of the tiles `rows` of column `col`, a stack of at most
    /// [`qr::STACK`], in the first `rows.len()` entries.
    fn stack_of<G>(
        &self,
        col: usize,
        rows: Range<usize>,
        lock: impl Fn(Tile) -> G,
    ) -> [Option<G>; qr::STACK] {
        assert!(
            rows.len() <= qr::STACK,
            "{:?}: a stack of {} tiles",
            self.op,
            rows.len()
        );
        std::array::from_fn(|t| (t < rows.len()).then(|| lock((rows.start + t, col))))
    }

    fn unordered(&self, (r, c): Tile) -> ! {
        panic!(
            "{:?}: tile ({r}, {c}) is in use by a task the graph does not order against it",
            self.op
        )
    }
}

impl TileAccess for SharedTiles<'_> {
    fn one<R>(&mut self, t: Tile, f: impl FnOnce(&mut Matrix) -> R) -> R {
        f(&mut self.write(t))
    }
    fn two<R>(&mut self, a: Tile, b: Tile, f: impl FnOnce(&mut Matrix, &mut Matrix) -> R) -> R {
        f(&mut self.write(a), &mut self.write(b))
    }
    fn refl_two(
        &mut self,
        v: Tile,
        a: Tile,
        b: Tile,
        f: impl FnOnce(&Matrix, &mut Matrix, &mut Matrix),
    ) {
        f(&self.read(v), &mut self.write(a), &mut self.write(b))
    }
    fn stack<R>(
        &mut self,
        piv: Tile,
        col: usize,
        rows: Range<usize>,
        f: impl FnOnce(&mut Matrix, Stack<'_, '_>) -> R,
    ) -> R {
        let mut tiles = self.stack_of(col, rows, |t| self.write(t));
        let tiles = tiles.iter_mut().flatten().map(|g| &mut **g);
        f(&mut self.write(piv), &mut { tiles })
    }
    fn refl_stack(
        &mut self,
        vcol: usize,
        piv: Tile,
        col: usize,
        rows: Range<usize>,
        f: impl FnOnce(&mut dyn Iterator<Item = &Matrix>, &mut Matrix, Stack<'_, '_>),
    ) {
        let v = self.stack_of(vcol, rows.clone(), |t| self.read(t));
        let mut tiles = self.stack_of(col, rows, |t| self.write(t));
        let mut v = v.iter().flatten().map(|g| &**g);
        let mut tiles = tiles.iter_mut().flatten().map(|g| &mut **g);
        f(&mut v, &mut self.write(piv), &mut tiles)
    }
}

/// Zero a whole tile or its strictly-lower part in place (LAPACK `xLASET`),
/// one contiguous column slice at a time — no reallocation.
fn zero_lower(t: &mut Matrix, whole: bool) {
    if whole {
        t.data_mut().fill(0.0);
    } else {
        let rows = t.rows();
        for c in 0..t.cols() {
            if c + 1 < rows {
                t.col_mut(c)[c + 1..].fill(0.0);
            }
        }
    }
}

/// Total flop count of an operation list for tile size `nb`.
pub fn ops_flops(ops: &[TileOp], nb: usize) -> f64 {
    ops.iter().map(|o| o.flops(nb)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bidiag_runtime::AccessMode;

    #[test]
    fn weights_follow_table_one() {
        assert_eq!(TileOp::Geqrt { k: 0, i: 0 }.weight(), 4.0);
        assert_eq!(
            TileOp::Tsmqr {
                k: 0,
                piv: 0,
                i: 1,
                d: 1,
                j: 1
            }
            .weight(),
            12.0
        );
        // A stack weighs what its tiles do one call each.
        assert_eq!(
            TileOp::Tsqrt {
                k: 0,
                piv: 0,
                i: 1,
                d: 3
            }
            .weight(),
            18.0
        );
        assert_eq!(TileOp::Ttlqt { k: 0, piv: 1, j: 2 }.weight(), 2.0);
    }

    #[test]
    fn accesses_distinguish_reads_and_writes() {
        let op = TileOp::Tsmqr {
            k: 0,
            piv: 0,
            i: 2,
            d: 1,
            j: 3,
        };
        let acc = op.accesses(5);
        // Reads the three regions of tile (2,0) and the tau; writes the three
        // regions of tiles (0,3) and (2,3).
        let reads: Vec<_> = acc.iter().filter(|(_, m)| *m == AccessMode::Read).collect();
        let writes: Vec<_> = acc
            .iter()
            .filter(|(_, m)| *m == AccessMode::Write)
            .collect();
        assert_eq!(reads.len(), 4);
        assert_eq!(writes.len(), 6);
        // A stack of three reads three reflector tiles and writes the pivot
        // tile and three more.
        let op = TileOp::Tsmqr {
            k: 0,
            piv: 0,
            i: 2,
            d: 3,
            j: 3,
        };
        let acc = op.accesses(5);
        let reads = acc.iter().filter(|(_, m)| *m == AccessMode::Read).count();
        assert_eq!((reads, acc.len() - reads), (10, 12));
    }

    #[test]
    fn panel_and_update_kernels_do_not_conflict_on_region_keys() {
        // UNMQR and UNMLQ take their reflectors from the GEQRT / GELQT factor
        // and read no tile key at all, so the TS/TT factorizations that
        // rewrite the pivot tile's triangle stay independent of them, as the
        // Section IV formulas assume.
        let q = 4;
        for op in [
            TileOp::Unmqr { k: 0, i: 0, j: 2 },
            TileOp::Unmlq { k: 0, j: 1, i: 2 },
        ] {
            let tile_reads: Vec<u64> = op
                .accesses(q)
                .iter()
                .filter(|(k, m)| *m == AccessMode::Read && *k < (1 << 62))
                .map(|(k, _)| *k)
                .collect();
            assert!(tile_reads.is_empty(), "{op:?} reads {tile_reads:?}");
        }
    }

    #[test]
    fn tau_keys_are_unique_per_factorization() {
        let a = TileOp::Geqrt { k: 1, i: 3 }.tau();
        let b = TileOp::Ttqrt { k: 1, piv: 0, i: 3 }.tau();
        let c = TileOp::Gelqt { k: 1, j: 3 }.tau();
        let d = TileOp::Geqrt { k: 2, i: 3 }.tau();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        // Updates share the key of their producer.
        assert_eq!(TileOp::Unmqr { k: 1, i: 3, j: 4 }.tau(), a);
        assert_eq!(
            TileOp::Ttmqr {
                k: 1,
                piv: 0,
                i: 3,
                j: 4
            }
            .tau(),
            b
        );
    }

    #[test]
    fn owner_tile_is_the_second_operand() {
        assert_eq!(
            TileOp::Tsmqr {
                k: 0,
                piv: 0,
                i: 2,
                d: 2,
                j: 3
            }
            .output_tile(),
            (2, 3)
        );
        assert_eq!(
            TileOp::Tsmlq {
                k: 0,
                piv: 1,
                j: 2,
                i: 3
            }
            .output_tile(),
            (3, 2)
        );
    }
}
