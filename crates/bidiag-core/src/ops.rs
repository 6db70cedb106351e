//! The tile-operation intermediate representation.
//!
//! Every algorithm of the paper (BIDIAG, R-BIDIAG, plain tiled QR) is first
//! lowered to a flat list of [`TileOp`]s in a valid sequential order.  The
//! same list then feeds three back-ends:
//!
//! * sequential execution (reference numerics),
//! * parallel execution on the work-stealing scheduler of `bidiag-runtime`,
//! * the task-graph analyses (critical paths) and machine simulations.
//!
//! Each operation knows which tiles and reflector-scalar vectors it reads and
//! writes, so the data-flow DAG is derived mechanically.

use bidiag_kernels::cost::KernelKind;
use bidiag_kernels::{lq, qr, TFactor};
use bidiag_matrix::{Matrix, TiledMatrix};
use bidiag_runtime::{AccessMode, DataKey};
use std::collections::HashMap;

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
    /// Eliminate the square tile `(i, k)` against the triangle `(piv, k)`.
    Tsqrt {
        /// Panel index.
        k: usize,
        /// Pivot tile row.
        piv: usize,
        /// Eliminated tile row.
        i: usize,
    },
    /// Apply the reflectors of `Tsqrt { k, piv, i }` to tiles `(piv, j)` and `(i, j)`.
    Tsmqr {
        /// Panel index.
        k: usize,
        /// Pivot tile row.
        piv: usize,
        /// Eliminated tile row.
        i: usize,
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

/// Per-worker scratch of the parallel back-end: a reusable buffer for
/// snapshotting the read-only `V` operand of an apply kernel out of its
/// tile lock.  The kernels themselves need none.
///
/// The parallel runtime creates one per worker thread (see
/// `exec::execute_parallel`), so in steady state the only allocation a
/// kernel execution makes is the [`TFactor`] a factorization produces.
#[derive(Debug)]
pub struct KernelScratch {
    /// Snapshot buffer for read-only reflector tiles.
    vbuf: Matrix,
}

impl KernelScratch {
    /// Scratch pre-sized for `nb x nb` tiles, so that not even a worker's
    /// first snapshot grows the buffer.
    pub fn for_tile(nb: usize) -> Self {
        KernelScratch {
            vbuf: Matrix::zeros(nb, nb),
        }
    }
}

/// Lock-free storage of the [`TFactor`]s (reflector scalars + compact-WY
/// `T` matrices) produced by factorization kernels — the *single* tau store
/// shared by the sequential driver and the parallel runtime: one pre-sized
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

    /// Cost weight of the operation (Table I, units of `nb^3/3`).
    pub fn weight(&self) -> f64 {
        self.kernel().weight()
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
    /// strictly-upper part and its strictly-lower part.  This region-level
    /// granularity reproduces the data-flow of the DPLASMA implementation: a
    /// panel factorization kernel that only rewrites the `R` part
    /// (diagonal + strictly-upper) of the pivot tile does not conflict with
    /// update kernels that only read the Householder vectors stored in the
    /// strictly-lower part, so panel and update kernels overlap exactly as
    /// assumed by the critical-path formulas of Section IV (and dually for
    /// the LQ kernels).  Tau vectors use a separate high-bit key space.
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
            TileOp::ZeroLower { i, j, whole } => {
                if whole {
                    all(i, j, Write)
                } else {
                    vec![(lo(i, j), Write)]
                }
            }
            TileOp::Geqrt { k, i } => {
                let mut a = all(i, k, Write);
                a.push((self.tau().0, Write));
                a
            }
            TileOp::Unmqr { k, i, j } => {
                let mut a = vec![(lo(i, k), Read), (self.tau().0, Read)];
                a.extend(all(i, j, Write));
                a
            }
            TileOp::Tsqrt { k, piv, i } => {
                let mut a = vec![(dg(piv, k), Write), (up(piv, k), Write)];
                a.extend(all(i, k, Write));
                a.push((self.tau().0, Write));
                a
            }
            TileOp::Tsmqr { k, piv, i, j } => {
                let mut a = all(i, k, Read);
                a.push((self.tau().0, Read));
                a.extend(all(piv, j, Write));
                a.extend(all(i, j, Write));
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
            TileOp::Unmlq { k, j, i } => {
                let mut a = vec![(up(k, j), Read), (self.tau().0, Read)];
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
    /// list `taus` was built for.  `_scratch` is unused — the kernels need
    /// no scratch and exclusive tiles no snapshot buffer — and kept so that
    /// existing callers compile.  Apply kernels borrow the reflector tile in
    /// place (no clone) — the sequential driver has exclusive access to all
    /// tiles.
    pub fn execute(
        &self,
        op_id: usize,
        a: &mut TiledMatrix,
        taus: &TauTable,
        _scratch: &mut KernelScratch,
    ) {
        self.run(op_id, a, taus);
    }

    /// [`TileOp::execute`] without its unused scratch argument.
    pub(crate) fn execute_exclusive(&self, op_id: usize, a: &mut TiledMatrix, taus: &TauTable) {
        self.run(op_id, a, taus);
    }

    /// Execute the operation against tiles shared behind per-tile locks
    /// (parallel back-end).  `tiles[r * q + c]` guards tile `(r, c)`;
    /// `taus` is the pre-sized per-op tau table, `op_id` this operation's
    /// index in the op list the table was built for, and `scratch` the
    /// executing worker's private scratch.
    ///
    /// The per-tile `RwLock`s are *not* redundant with the DAG: the
    /// region-level dependency keys deliberately let two kernels touch
    /// disjoint regions of the same tile concurrently (a panel kernel
    /// rewriting the `R` part while an update kernel reads the Householder
    /// vectors below the diagonal), so the lock arbitrates access to the
    /// shared `Matrix` allocation in exactly those overlaps.
    ///
    /// Locking discipline (deadlock freedom): read-only operands are
    /// snapshot into the worker's scratch buffer under a read lock that is
    /// released immediately (no allocation in steady state — the buffer is
    /// reused), and the (at most two) write locks are then acquired in
    /// increasing tile-index order — which is guaranteed because the pivot
    /// row/column of an elimination always precedes the eliminated one.
    pub fn execute_shared(
        &self,
        op_id: usize,
        tiles: &[parking_lot::RwLock<Matrix>],
        q: usize,
        taus: &TauTable,
        scratch: &mut KernelScratch,
    ) {
        let vbuf = &mut scratch.vbuf;
        self.run(op_id, &mut SharedTiles { tiles, q, vbuf }, taus);
    }

    /// The op → kernel match of both back-ends, over whichever way `a`
    /// hands out tiles.
    fn run<A: TileAccess>(&self, op_id: usize, a: &mut A, taus: &TauTable) {
        type PairKernel = fn(&mut Matrix, &mut Matrix, &Matrix, &TFactor);
        let put = |tf| taus.put(op_id, tf);
        let apply = |a: &mut A, v, c, kernel: fn(&Matrix, &TFactor, &mut Matrix)| {
            a.refl_one(v, c, |v, c| kernel(v, taus.get(op_id), c));
        };
        let apply_pair = |a: &mut A, v, c1, c2, kernel: PairKernel| {
            a.refl_two(v, c1, c2, |v, c1, c2| kernel(c1, c2, v, taus.get(op_id)));
        };
        match *self {
            TileOp::ZeroLower { i, j, whole } => a.one((i, j), |t| zero_lower(t, whole)),
            TileOp::Geqrt { k, i } => put(a.one((i, k), qr::geqrt)),
            TileOp::Unmqr { k, i, j } => apply(a, (i, k), (i, j), qr::unmqr),
            TileOp::Tsqrt { k, piv, i } => put(a.two((piv, k), (i, k), qr::tsqrt)),
            TileOp::Tsmqr { k, piv, i, j } => apply_pair(a, (i, k), (piv, j), (i, j), qr::tsmqr),
            TileOp::Ttqrt { k, piv, i } => put(a.two((piv, k), (i, k), qr::ttqrt)),
            TileOp::Ttmqr { k, piv, i, j } => apply_pair(a, (i, k), (piv, j), (i, j), qr::ttmqr),
            TileOp::Gelqt { k, j } => put(a.one((k, j), lq::gelqt)),
            TileOp::Unmlq { k, j, i } => apply(a, (k, j), (i, j), lq::unmlq),
            TileOp::Tslqt { k, piv, j } => put(a.two((k, piv), (k, j), lq::tslqt)),
            TileOp::Tsmlq { k, piv, j, i } => apply_pair(a, (k, j), (i, piv), (i, j), lq::tsmlq),
            TileOp::Ttlqt { k, piv, j } => put(a.two((k, piv), (k, j), lq::ttlqt)),
            TileOp::Ttmlq { k, piv, j, i } => apply_pair(a, (k, j), (i, piv), (i, j), lq::ttmlq),
        }
    }
}

/// Tile coordinates `(row, column)`.
type Tile = (usize, usize);

/// The four operand patterns of the tile kernels, as handed out by a
/// back-end's tile store: one or two tiles written, with or without a
/// reflector tile `v` that is only read.
trait TileAccess {
    fn one<R>(&mut self, t: Tile, f: impl FnOnce(&mut Matrix) -> R) -> R;
    fn refl_one(&mut self, v: Tile, c: Tile, f: impl FnOnce(&Matrix, &mut Matrix));
    fn two<R>(&mut self, a: Tile, b: Tile, f: impl FnOnce(&mut Matrix, &mut Matrix) -> R) -> R;
    fn refl_two(
        &mut self,
        v: Tile,
        a: Tile,
        b: Tile,
        f: impl FnOnce(&Matrix, &mut Matrix, &mut Matrix),
    );
}

/// Exclusive access (sequential driver): disjoint borrows, nothing copied.
impl TileAccess for TiledMatrix {
    fn one<R>(&mut self, (i, j): Tile, f: impl FnOnce(&mut Matrix) -> R) -> R {
        f(self.tile_mut(i, j))
    }
    fn refl_one(&mut self, v: Tile, c: Tile, f: impl FnOnce(&Matrix, &mut Matrix)) {
        let (v, c) = self.tile_and_tile_mut(v, c);
        f(v, c)
    }
    fn two<R>(&mut self, a: Tile, b: Tile, f: impl FnOnce(&mut Matrix, &mut Matrix) -> R) -> R {
        let (a, b) = self.two_tiles_mut(a, b);
        f(a, b)
    }
    fn refl_two(
        &mut self,
        v: Tile,
        a: Tile,
        b: Tile,
        f: impl FnOnce(&Matrix, &mut Matrix, &mut Matrix),
    ) {
        let (v, a, b) = self.tile_and_two_tiles_mut(v, a, b);
        f(v, a, b)
    }
}

/// The parallel back-end's tiles: `tiles[r * q + c]` guards tile `(r, c)`,
/// `vbuf` is the executing worker's snapshot buffer.  See
/// [`TileOp::execute_shared`] for the locking discipline.
struct SharedTiles<'a> {
    tiles: &'a [parking_lot::RwLock<Matrix>],
    q: usize,
    vbuf: &'a mut Matrix,
}

impl SharedTiles<'_> {
    fn idx(&self, (r, c): Tile) -> usize {
        r * self.q + c
    }

    /// Write-lock two tiles, the lower tile index first.
    fn write_pair(&self, a: Tile, b: Tile) -> [parking_lot::RwLockWriteGuard<'_, Matrix>; 2] {
        debug_assert!(self.idx(a) < self.idx(b));
        let ta = self.tiles[self.idx(a)].write();
        let tb = self.tiles[self.idx(b)].write();
        [ta, tb]
    }
}

impl TileAccess for SharedTiles<'_> {
    fn one<R>(&mut self, t: Tile, f: impl FnOnce(&mut Matrix) -> R) -> R {
        f(&mut self.tiles[self.idx(t)].write())
    }
    fn refl_one(&mut self, v: Tile, c: Tile, f: impl FnOnce(&Matrix, &mut Matrix)) {
        self.vbuf.copy_from(&self.tiles[self.idx(v)].read());
        f(self.vbuf, &mut self.tiles[self.idx(c)].write())
    }
    fn two<R>(&mut self, a: Tile, b: Tile, f: impl FnOnce(&mut Matrix, &mut Matrix) -> R) -> R {
        let [mut ta, mut tb] = self.write_pair(a, b);
        f(&mut ta, &mut tb)
    }
    fn refl_two(
        &mut self,
        v: Tile,
        a: Tile,
        b: Tile,
        f: impl FnOnce(&Matrix, &mut Matrix, &mut Matrix),
    ) {
        self.vbuf.copy_from(&self.tiles[self.idx(v)].read());
        let [mut ta, mut tb] = self.write_pair(a, b);
        f(self.vbuf, &mut ta, &mut tb)
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
    ops.iter().map(|o| o.kernel().flops(nb)).sum()
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
                j: 1
            }
            .weight(),
            12.0
        );
        assert_eq!(TileOp::Ttlqt { k: 0, piv: 1, j: 2 }.weight(), 2.0);
    }

    #[test]
    fn accesses_distinguish_reads_and_writes() {
        let op = TileOp::Tsmqr {
            k: 0,
            piv: 0,
            i: 2,
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
    }

    #[test]
    fn panel_and_update_kernels_do_not_conflict_on_region_keys() {
        // UNMQR reads only the strictly-lower region of the pivot tile while
        // TSQRT writes only its diagonal + strictly-upper regions: the two
        // tasks must be independent so they can overlap (Section IV formulas).
        let unmqr = TileOp::Unmqr { k: 0, i: 0, j: 2 };
        let tsqrt = TileOp::Tsqrt { k: 0, piv: 0, i: 1 };
        let q = 4;
        let unmqr_reads: Vec<u64> = unmqr
            .accesses(q)
            .iter()
            .filter(|(k, m)| *m == AccessMode::Read && *k < (1 << 62))
            .map(|(k, _)| *k)
            .collect();
        let tsqrt_writes: Vec<u64> = tsqrt
            .accesses(q)
            .iter()
            .filter(|(k, m)| *m == AccessMode::Write && *k < (1 << 62))
            .map(|(k, _)| *k)
            .collect();
        for r in &unmqr_reads {
            assert!(!tsqrt_writes.contains(r), "false conflict on key {r}");
        }
        // Dual check for the LQ kernels.
        let unmlq = TileOp::Unmlq { k: 0, j: 1, i: 2 };
        let tslqt = TileOp::Tslqt { k: 0, piv: 1, j: 2 };
        let unmlq_reads: Vec<u64> = unmlq
            .accesses(q)
            .iter()
            .filter(|(k, m)| *m == AccessMode::Read && *k < (1 << 62))
            .map(|(k, _)| *k)
            .collect();
        let tslqt_writes: Vec<u64> = tslqt
            .accesses(q)
            .iter()
            .filter(|(k, m)| *m == AccessMode::Write && *k < (1 << 62))
            .map(|(k, _)| *k)
            .collect();
        for r in &unmlq_reads {
            assert!(!tslqt_writes.contains(r), "false LQ conflict on key {r}");
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
