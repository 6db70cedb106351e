//! Lowering of the paper's algorithms to tile-operation lists.
//!
//! * [`bidiag_ops`] — the BIDIAG algorithm: `QR(1); LQ(1); QR(2); ...; QR(q)`
//!   (Section III.B, Figure 1),
//! * [`rbidiag_ops`] — the R-BIDIAG algorithm: full tiled QR factorization of
//!   the `p x q` matrix followed by the bidiagonalization of the square
//!   `q x q` R factor (Section III.C),
//! * [`qr_factorization_ops`] — the plain hierarchical tiled QR factorization
//!   (the preQR step of R-BIDIAG, also usable on its own).
//!
//! Every QR (resp. LQ) step is driven by a reduction-tree schedule from
//! `bidiag-trees`; in distributed mode the schedule is the two-level
//! hierarchical tree over the 2D block-cyclic process grid.

use crate::error::SvdError;
use crate::ops::TileOp;
use bidiag_kernels::qr;
use bidiag_matrix::BlockCyclic;
use bidiag_trees::{
    hierarchical_schedule, panel_schedule, ElimKind, HierConfig, HighLevelTree, NamedTree,
    PanelSchedule,
};
use serde::{Deserialize, Serialize};

/// Which of the two bidiagonalization algorithms to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Algorithm {
    /// Interleaved QR/LQ steps on the full matrix.
    Bidiag,
    /// QR factorization first, then bidiagonalization of the R factor.
    RBidiag,
}

impl Algorithm {
    /// Paper-style display name.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Bidiag => "BiDiag",
            Algorithm::RBidiag => "R-BiDiag",
        }
    }
}

/// Configuration of an op-list generation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GenConfig {
    /// Reduction tree used inside every QR/LQ step.
    pub tree: NamedTree,
    /// Process grid (use [`BlockCyclic::single_node`] for shared memory).
    /// On more than one process the inter-node tree is the DPLASMA default
    /// (flat for tall panels, Fibonacci otherwise).
    pub dist: BlockCyclic,
}

impl GenConfig {
    /// Shared-memory configuration with the given tree.
    pub fn shared(tree: NamedTree) -> Self {
        Self {
            tree,
            dist: BlockCyclic::single_node(),
        }
    }

    /// Distributed configuration with the given tree and process grid.
    pub fn distributed(tree: NamedTree, dist: BlockCyclic) -> Self {
        Self { tree, dist }
    }

    fn schedule_for(
        &self,
        indices: &[usize],
        trailing: usize,
        p: usize,
        q: usize,
    ) -> PanelSchedule {
        let local = self.tree.config_for(indices.len(), trailing);
        if self.dist.proc_rows <= 1 {
            panel_schedule(indices, &local)
        } else {
            let high = HighLevelTree::dplasma_default(p, q);
            hierarchical_schedule(indices, &self.dist, &HierConfig { local, high })
        }
    }

    /// Column-panel schedule (LQ steps): the distribution across process
    /// *columns* governs the hierarchical grouping.
    fn col_schedule_for(
        &self,
        indices: &[usize],
        trailing: usize,
        p: usize,
        q: usize,
    ) -> PanelSchedule {
        let local = self.tree.config_for(indices.len(), trailing);
        if self.dist.proc_cols <= 1 {
            panel_schedule(indices, &local)
        } else {
            let col_dist = BlockCyclic::new(self.dist.proc_cols, self.dist.proc_rows);
            let high = HighLevelTree::dplasma_default(q, p);
            hierarchical_schedule(indices, &col_dist, &HierConfig { local, high })
        }
    }
}

/// Emit the operations of QR step `k` applied to tile rows `k..row_end` and
/// trailing tile columns `k+1..col_end`.
fn qr_step_ops(k: usize, row_end: usize, col_end: usize, cfg: &GenConfig, out: &mut Vec<TileOp>) {
    let rows: Vec<usize> = (k..row_end).collect();
    if rows.is_empty() {
        return;
    }
    let trailing = col_end.saturating_sub(k + 1);
    let sched = cfg.schedule_for(&rows, trailing, row_end - k, col_end - k);
    emit_qr_step_from_schedule(k, col_end, &sched, stack_height(cfg.tree), out);
}

/// The most tiles one TS elimination of `tree` stacks under its pivot.
/// AUTO's FLATTS domains run as stacks of up to [`qr::STACK`] tiles, one
/// TSQRT / TSMQR call each; the trees Section IV analyses keep one tile per
/// call, so their op lists and critical paths are the paper's.
fn stack_height(tree: NamedTree) -> usize {
    match tree {
        NamedTree::Auto { .. } => qr::STACK,
        NamedTree::FlatTs | NamedTree::FlatTt | NamedTree::Greedy => 1,
    }
}

/// Emit the operations of LQ step `k` applied to tile columns `k+1..col_end`
/// and trailing tile rows `k+1..row_end`.
fn lq_step_ops(k: usize, row_end: usize, col_end: usize, cfg: &GenConfig, out: &mut Vec<TileOp>) {
    let cols: Vec<usize> = (k + 1..col_end).collect();
    if cols.is_empty() {
        return;
    }
    let trailing = row_end.saturating_sub(k + 1);
    let sched = cfg.col_schedule_for(&cols, trailing, col_end - k - 1, row_end - k);
    for &j in &sched.geqrt_rows {
        out.push(TileOp::Gelqt { k, j });
        for i in (k + 1)..row_end {
            out.push(TileOp::Unmlq { k, j, i });
        }
    }
    for e in &sched.elims {
        match e.kind {
            ElimKind::Ts => {
                out.push(TileOp::Tslqt {
                    k,
                    piv: e.piv,
                    j: e.row,
                });
                for i in (k + 1)..row_end {
                    out.push(TileOp::Tsmlq {
                        k,
                        piv: e.piv,
                        j: e.row,
                        i,
                    });
                }
            }
            ElimKind::Tt => {
                out.push(TileOp::Ttlqt {
                    k,
                    piv: e.piv,
                    j: e.row,
                });
                for i in (k + 1)..row_end {
                    out.push(TileOp::Ttmlq {
                        k,
                        piv: e.piv,
                        j: e.row,
                        i,
                    });
                }
            }
        }
    }
}

/// Fallible twin of [`bidiag_ops`]: a grid violating `p >= q >= 1` is a
/// caller-reachable input error (any wide or empty matrix lands here), so
/// it returns [`SvdError::DimensionMismatch`] instead of asserting.
pub fn try_bidiag_ops(p: usize, q: usize, cfg: &GenConfig) -> Result<Vec<TileOp>, SvdError> {
    if !(p >= q && q >= 1) {
        return Err(SvdError::DimensionMismatch {
            context: "BIDIAG requires a p >= q >= 1 tile grid",
            rows: p,
            cols: q,
        });
    }
    Ok(bidiag_ops(p, q, cfg))
}

/// Operation list of the BIDIAG algorithm on a `p x q` tile grid
/// (`p >= q >= 1`): `QR(0); LQ(0); QR(1); LQ(1); ...; QR(q-1)`.
///
/// Panics on an invalid grid; boundary code that forwards user-provided
/// shapes should call [`try_bidiag_ops`].
pub fn bidiag_ops(p: usize, q: usize, cfg: &GenConfig) -> Vec<TileOp> {
    assert!(
        p >= q && q >= 1,
        "BIDIAG requires p >= q >= 1 (got {p} x {q})"
    );
    let mut ops = Vec::new();
    for k in 0..q {
        qr_step_ops(k, p, q, cfg, &mut ops);
        if k + 1 < q {
            lq_step_ops(k, p, q, cfg, &mut ops);
        }
    }
    ops
}

/// Operation list of the plain hierarchical tiled QR factorization of a
/// `p x q` tile grid.
///
/// With the GREEDY tree on a single node, the panels use the *pipelined*
/// greedy elimination scheme (Bouwmeester et al.): successive panels of a QR
/// factorization overlap, and pairing rows by availability keeps the
/// critical path in `O(log p + q)` instead of `O(q log p)`.  All other
/// configurations use the same per-panel trees as the bidiagonalization.
pub fn qr_factorization_ops(p: usize, q: usize, cfg: &GenConfig) -> Vec<TileOp> {
    assert!(p >= 1 && q >= 1);
    let mut ops = Vec::new();
    let shared_memory = cfg.dist.proc_rows <= 1 && cfg.dist.proc_cols <= 1;
    if shared_memory && matches!(cfg.tree, NamedTree::Greedy) {
        let schedules = bidiag_trees::greedy_qr_schedules(p, q);
        for (k, sched) in schedules.iter().enumerate() {
            emit_qr_step_from_schedule(k, q, sched, 1, &mut ops);
        }
        return ops;
    }
    for k in 0..q.min(p) {
        qr_step_ops(k, p, q, cfg, &mut ops);
    }
    ops
}

/// Emit the operations of QR step `k` (trailing columns `k+1..col_end`) from
/// an explicit panel schedule.  Consecutive TS eliminations of consecutive
/// rows onto one pivot — a FLATTS chain — are emitted as stacks of up to
/// `stack` tiles.
fn emit_qr_step_from_schedule(
    k: usize,
    col_end: usize,
    sched: &PanelSchedule,
    stack: usize,
    out: &mut Vec<TileOp>,
) {
    for &i in &sched.geqrt_rows {
        out.push(TileOp::Geqrt { k, i });
        for j in (k + 1)..col_end {
            out.push(TileOp::Unmqr { k, i, j });
        }
    }
    let mut elims = sched.elims.iter().peekable();
    while let Some(e) = elims.next() {
        match e.kind {
            ElimKind::Ts => {
                let (piv, i) = (e.piv, e.row);
                let mut d = 1;
                while d < stack
                    && elims
                        .next_if(|n| n.kind == ElimKind::Ts && n.piv == piv && n.row == i + d)
                        .is_some()
                {
                    d += 1;
                }
                out.push(TileOp::Tsqrt { k, piv, i, d });
                for j in (k + 1)..col_end {
                    out.push(TileOp::Tsmqr { k, piv, i, d, j });
                }
            }
            ElimKind::Tt => {
                out.push(TileOp::Ttqrt {
                    k,
                    piv: e.piv,
                    i: e.row,
                });
                for j in (k + 1)..col_end {
                    out.push(TileOp::Ttmqr {
                        k,
                        piv: e.piv,
                        i: e.row,
                        j,
                    });
                }
            }
        }
    }
}

/// Fallible twin of [`rbidiag_ops`] — see [`try_bidiag_ops`].
pub fn try_rbidiag_ops(p: usize, q: usize, cfg: &GenConfig) -> Result<Vec<TileOp>, SvdError> {
    if !(p >= q && q >= 1) {
        return Err(SvdError::DimensionMismatch {
            context: "R-BIDIAG requires a p >= q >= 1 tile grid",
            rows: p,
            cols: q,
        });
    }
    Ok(rbidiag_ops(p, q, cfg))
}

/// Operation list of the R-BIDIAG algorithm on a `p x q` tile grid:
/// full QR factorization, then bidiagonalization of the top `q x q` R factor
/// (whose first QR step is already done).
///
/// Panics on an invalid grid; boundary code that forwards user-provided
/// shapes should call [`try_rbidiag_ops`].
pub fn rbidiag_ops(p: usize, q: usize, cfg: &GenConfig) -> Vec<TileOp> {
    assert!(
        p >= q && q >= 1,
        "R-BIDIAG requires p >= q >= 1 (got {p} x {q})"
    );
    let mut ops = qr_factorization_ops(p, q, cfg);
    // Discard the Householder vectors stored below the diagonal of the R
    // factor (the true R is upper triangular): zero the strictly-lower tiles
    // of the top q x q block and the strictly-lower part of its diagonal
    // tiles, except those of tile column 0, which the square
    // bidiagonalization never reads again.  This mirrors the xLASET calls of
    // reference R-bidiagonalization codes and carries no Table I cost.
    for jcol in 1..q {
        ops.push(TileOp::ZeroLower {
            i: jcol,
            j: jcol,
            whole: false,
        });
        for irow in (jcol + 1)..q {
            ops.push(TileOp::ZeroLower {
                i: irow,
                j: jcol,
                whole: true,
            });
        }
    }
    // Bidiagonalization of the square R factor: LQ(0); QR(1); LQ(1); ... QR(q-1),
    // restricted to the top q x q tiles.
    for k in 0..q {
        if k > 0 {
            qr_step_ops(k, q, q, cfg, &mut ops);
        }
        if k + 1 < q {
            lq_step_ops(k, q, q, cfg, &mut ops);
        }
    }
    ops
}

/// Operation list for either algorithm.
pub fn ge2bnd_ops(p: usize, q: usize, algorithm: Algorithm, cfg: &GenConfig) -> Vec<TileOp> {
    match algorithm {
        Algorithm::Bidiag => bidiag_ops(p, q, cfg),
        Algorithm::RBidiag => rbidiag_ops(p, q, cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn shared(tree: NamedTree) -> GenConfig {
        GenConfig::shared(tree)
    }

    #[test]
    fn bidiag_op_counts_match_structure() {
        // For a p x q grid with any tree, each QR step k has (p-k) - 1
        // eliminations + #geqrt factorizations, each followed by (q-k-1)
        // updates; LQ step k has (q-k-1) - 1 eliminations + #gelqt, each
        // followed by (p-k-1) updates.  Count the factorization kernels.
        let (p, q) = (6usize, 4usize);
        for tree in [NamedTree::FlatTs, NamedTree::FlatTt, NamedTree::Greedy] {
            let ops = bidiag_ops(p, q, &shared(tree));
            let n_elim_qr: usize = ops
                .iter()
                .filter(|o| matches!(o, TileOp::Tsqrt { .. } | TileOp::Ttqrt { .. }))
                .count();
            let n_elim_lq: usize = ops
                .iter()
                .filter(|o| matches!(o, TileOp::Tslqt { .. } | TileOp::Ttlqt { .. }))
                .count();
            // QR step k eliminates (p - k - 1) tiles, k = 0..q-1.
            let expect_qr: usize = (0..q).map(|k| p - k - 1).sum();
            // LQ step k eliminates (q - k - 2) tiles, k = 0..q-2.
            let expect_lq: usize = (0..q.saturating_sub(1)).map(|k| q - k - 2).sum();
            assert_eq!(n_elim_qr, expect_qr, "{tree:?}");
            assert_eq!(n_elim_lq, expect_lq, "{tree:?}");
        }
    }

    #[test]
    fn flat_ts_uses_only_ts_kernels_and_one_geqrt_per_step() {
        let ops = bidiag_ops(5, 3, &shared(NamedTree::FlatTs));
        assert!(!ops.iter().any(|o| matches!(
            o,
            TileOp::Ttqrt { .. }
                | TileOp::Ttmqr { .. }
                | TileOp::Ttlqt { .. }
                | TileOp::Ttmlq { .. }
        )));
        let geqrts: Vec<_> = ops
            .iter()
            .filter(|o| matches!(o, TileOp::Geqrt { .. }))
            .collect();
        assert_eq!(geqrts.len(), 3);
    }

    #[test]
    fn greedy_uses_only_tt_eliminations() {
        let ops = bidiag_ops(5, 3, &shared(NamedTree::Greedy));
        assert!(!ops.iter().any(|o| matches!(
            o,
            TileOp::Tsqrt { .. }
                | TileOp::Tsmqr { .. }
                | TileOp::Tslqt { .. }
                | TileOp::Tsmlq { .. }
        )));
    }

    #[test]
    fn every_subdiagonal_tile_is_eliminated_exactly_once_per_qr_step() {
        let (p, q) = (7usize, 5usize);
        let ops = bidiag_ops(p, q, &shared(NamedTree::Greedy));
        for k in 0..q {
            let elim_rows: Vec<usize> = ops
                .iter()
                .filter_map(|o| match *o {
                    TileOp::Tsqrt { k: kk, i, .. } | TileOp::Ttqrt { k: kk, i, .. } if kk == k => {
                        Some(i)
                    }
                    _ => None,
                })
                .collect();
            let uniq: HashSet<usize> = elim_rows.iter().copied().collect();
            assert_eq!(
                elim_rows.len(),
                uniq.len(),
                "duplicate elimination in step {k}"
            );
            assert_eq!(uniq, ((k + 1)..p).collect::<HashSet<_>>(), "step {k}");
        }
    }

    #[test]
    fn rbidiag_contains_full_qr_then_square_bidiag() {
        let (p, q) = (8usize, 3usize);
        let ops = rbidiag_ops(p, q, &shared(NamedTree::Greedy));
        // The R-BIDIAG op list must never touch tile rows >= q after the QR
        // factorization part, i.e. LQ kernels only update rows < q.
        for o in &ops {
            if let TileOp::Unmlq { i, .. } | TileOp::Tsmlq { i, .. } | TileOp::Ttmlq { i, .. } = *o
            {
                assert!(i < q, "LQ update touches row {i} outside the R factor");
            }
        }
        // And it must contain (q-1) + ... eliminations for the square part.
        let n_lq_factor = ops
            .iter()
            .filter(|o| matches!(o, TileOp::Gelqt { .. }))
            .count();
        assert!(n_lq_factor >= q - 1);
    }

    #[test]
    fn single_tile_matrix_is_one_geqrt() {
        let ops = bidiag_ops(1, 1, &shared(NamedTree::Greedy));
        assert_eq!(ops, vec![TileOp::Geqrt { k: 0, i: 0 }]);
        let ops_r = rbidiag_ops(1, 1, &shared(NamedTree::FlatTs));
        assert_eq!(ops_r, vec![TileOp::Geqrt { k: 0, i: 0 }]);
    }

    #[test]
    fn distributed_and_shared_have_same_kernel_counts() {
        let (p, q) = (9usize, 4usize);
        let shared_ops = bidiag_ops(p, q, &shared(NamedTree::Greedy));
        let dist_cfg = GenConfig::distributed(NamedTree::Greedy, BlockCyclic::new(3, 1));
        let dist_ops = bidiag_ops(p, q, &dist_cfg);
        // Same number of eliminations and factorizations (the tree shape
        // differs, the amount of elimination work does not).
        let count = |ops: &[TileOp], f: fn(&TileOp) -> bool| ops.iter().filter(|o| f(o)).count();
        let elim = |o: &TileOp| matches!(o, TileOp::Tsqrt { .. } | TileOp::Ttqrt { .. });
        assert_eq!(count(&shared_ops, elim), count(&dist_ops, elim));
    }

    #[test]
    fn auto_tree_generates_valid_oplists() {
        let ops = bidiag_ops(
            10,
            4,
            &shared(NamedTree::Auto {
                gamma: 2.0,
                ncores: 4,
            }),
        );
        assert!(!ops.is_empty());
        // Mixture of TS and TT eliminations is allowed; just check every
        // QR step still eliminates each subdiagonal tile once, a TS stack
        // of height `d` the tiles `i..i + d`.
        let elim_rows_step0: Vec<usize> = ops
            .iter()
            .flat_map(|o| match *o {
                TileOp::Tsqrt { k: 0, i, .. } | TileOp::Ttqrt { k: 0, i, .. } => i..i + o.height(),
                _ => 0..0,
            })
            .collect();
        assert_eq!(elim_rows_step0.len(), 9);
        assert_eq!(
            elim_rows_step0.into_iter().collect::<HashSet<_>>(),
            (1..10).collect::<HashSet<_>>()
        );
    }

    #[test]
    fn auto_domains_run_as_stacks_and_the_other_trees_do_not() {
        // One core: one FLATTS domain per panel but the last two, so the
        // 127 TS eliminations of the first panel of a 128 x 4 grid are 31
        // stacks of four and one of three, each with its three TSMQRs.
        let auto = shared(NamedTree::Auto {
            gamma: 2.0,
            ncores: 1,
        });
        let ops = qr_factorization_ops(128, 4, &auto);
        let heights: Vec<usize> = ops
            .iter()
            .filter_map(|o| match *o {
                TileOp::Tsqrt { k: 0, d, .. } => Some(d),
                _ => None,
            })
            .collect();
        assert_eq!(heights.len(), 32);
        assert_eq!(heights.iter().sum::<usize>(), 127);
        assert!(heights[..31].iter().all(|&d| d == qr::STACK) && heights[31] == 3);
        let tsmqr = |ops: &[TileOp]| {
            ops.iter()
                .filter(|o| matches!(o, TileOp::Tsmqr { k: 0, .. }))
                .count()
        };
        assert_eq!(tsmqr(&ops), 3 * 32);
        for tree in [NamedTree::FlatTs, NamedTree::FlatTt, NamedTree::Greedy] {
            let ops = bidiag_ops(9, 4, &shared(tree));
            assert!(ops.iter().all(|o| o.height() == 1), "{tree:?}");
        }
    }
}
