//! Tile exclusivity: any two tile operations that touch one tile, one of
//! them writing, are joined by a path of [`build_graph`]'s task graph.
//!
//! This is the property the parallel back-end rests on: it hands every
//! task its tiles through locks it only *tries*, so an unordered pair would
//! panic there (or, without the locks, race).  The tiles an operation
//! touches are derived here from the operands its kernel is handed, not
//! from [`TileOp::accesses`]' region keys, whose graph is what is checked.
//!
//! The matrix is every tree the drivers take — shared memory and three
//! process grids — times 14 tile grids from 1x1 to 128x4, for BIDIAG and
//! R-BIDIAG.

use bidiag_core::{bidiag_ops, build_graph, rbidiag_ops, GenConfig, TileOp};
use bidiag_matrix::BlockCyclic;
use bidiag_runtime::TaskGraph;
use bidiag_trees::NamedTree;
use std::collections::HashMap;

type Tile = (usize, usize);

/// The tiles `op`'s kernel only reads (a TS/TT apply's reflectors) and the
/// tiles it writes.  UNMQR and UNMLQ read their reflectors from the factor
/// of their GEQRT / GELQT, not from a tile; a TS stack of height `d`
/// touches `d` tiles of each of its tile columns below the pivot.
fn touches(op: &TileOp) -> (Vec<Tile>, Vec<Tile>) {
    let stack = |i: usize, c: usize| (i..i + op.height()).map(move |r| (r, c));
    match *op {
        TileOp::ZeroLower { i, j, .. } => (vec![], vec![(i, j)]),
        TileOp::Geqrt { k, i } => (vec![], vec![(i, k)]),
        TileOp::Unmqr { i, j, .. } => (vec![], vec![(i, j)]),
        TileOp::Tsqrt { k, piv, i, .. } | TileOp::Ttqrt { k, piv, i } => {
            (vec![], [(piv, k)].into_iter().chain(stack(i, k)).collect())
        }
        TileOp::Tsmqr { k, piv, i, j, .. } | TileOp::Ttmqr { k, piv, i, j } => (
            stack(i, k).collect(),
            [(piv, j)].into_iter().chain(stack(i, j)).collect(),
        ),
        TileOp::Gelqt { k, j } => (vec![], vec![(k, j)]),
        TileOp::Unmlq { j, i, .. } => (vec![], vec![(i, j)]),
        TileOp::Tslqt { k, piv, j } | TileOp::Ttlqt { k, piv, j } => {
            (vec![], vec![(k, piv), (k, j)])
        }
        TileOp::Tsmlq { k, piv, j, i } | TileOp::Ttmlq { k, piv, j, i } => {
            (vec![(k, j)], vec![(i, piv), (i, j)])
        }
    }
}

/// `reach[t]`: the tasks with a path to `t`, as a bitset.  Insertion order
/// is topological, so one forward sweep builds them.
fn reachability(g: &TaskGraph) -> Vec<Vec<u64>> {
    let words = g.len().div_ceil(64);
    let mut reach: Vec<Vec<u64>> = Vec::with_capacity(g.len());
    for t in 0..g.len() {
        let mut r = vec![0u64; words];
        for &p in g.predecessors(t) {
            assert!(p < t, "insertion order is topological");
            for (w, x) in r.iter_mut().zip(&reach[p]) {
                *w |= x;
            }
            r[p / 64] |= 1 << (p % 64);
        }
        reach.push(r);
    }
    reach
}

/// The pairs `(a, b)`, `a` before `b`, that touch one tile, one of them
/// writing, with no path from `a` to `b`.
///
/// Per tile it checks every access against the last write before it and
/// every write against the reads since that write.  By induction over the
/// later operation, every conflicting pair is then ordered exactly when
/// these are: an earlier access reaches the last write before the later
/// one (or is it, or is a read the later read need not follow).
fn unordered_pairs(ops: &[TileOp], g: &TaskGraph) -> Vec<(usize, usize)> {
    let reach = reachability(g);
    let ordered = |a: usize, b: usize| reach[b][a / 64] >> (a % 64) & 1 == 1;
    // Per tile: the last write and the reads since it.
    let mut last_write: HashMap<Tile, usize> = HashMap::new();
    let mut reads: HashMap<Tile, Vec<usize>> = HashMap::new();
    let mut holes = Vec::new();
    for (b, op) in ops.iter().enumerate() {
        let (reads_of_op, writes) = touches(op);
        for t in reads_of_op {
            holes.extend(
                last_write
                    .get(&t)
                    .filter(|&&a| !ordered(a, b))
                    .map(|&a| (a, b)),
            );
            reads.entry(t).or_default().push(b);
        }
        for t in writes {
            let earlier = last_write
                .get(&t)
                .into_iter()
                .chain(reads.get(&t).into_iter().flatten());
            holes.extend(earlier.filter(|&&a| !ordered(a, b)).map(|&a| (a, b)));
            last_write.insert(t, b);
            reads.insert(t, Vec::new());
        }
    }
    holes
}

#[test]
fn every_two_operations_on_one_tile_are_ordered_by_the_graph() {
    use NamedTree::*;
    let auto = |gamma, ncores| Auto { gamma, ncores };
    let mut configs: Vec<GenConfig> = [
        FlatTs,
        FlatTt,
        Greedy,
        auto(2.0, 1),
        auto(2.0, 4),
        auto(1.0, 24),
    ]
    .into_iter()
    .map(GenConfig::shared)
    .collect();
    for dist in [BlockCyclic::new(2, 2), BlockCyclic::new(3, 1)] {
        for tree in [Greedy, FlatTs, auto(2.0, 2)] {
            configs.push(GenConfig::distributed(tree, dist));
        }
    }
    // One process row: the QR steps' AUTO domains are consecutive tile
    // rows, so they run as TS stacks beside a hierarchical LQ side.
    configs.push(GenConfig::distributed(auto(2.0, 1), BlockCyclic::new(1, 2)));
    let grids = [
        (1, 1),
        (2, 1),
        (2, 2),
        (3, 2),
        (3, 3),
        (4, 4),
        (5, 3),
        (6, 6),
        (7, 5),
        (8, 8),
        (10, 10),
        (12, 12),
        (24, 6),
        (128, 4),
    ];
    let mut cells = 0;
    for cfg in &configs {
        for &(p, q) in &grids {
            for (name, ops) in [
                ("BIDIAG", bidiag_ops(p, q, cfg)),
                ("R-BIDIAG", rbidiag_ops(p, q, cfg)),
            ] {
                let g = build_graph(&ops, q, &cfg.dist);
                let holes = unordered_pairs(&ops, &g);
                assert!(
                    holes.is_empty(),
                    "{name} {p}x{q} {:?} on {:?}: {} unordered pairs, first {:?} and {:?}",
                    cfg.tree,
                    cfg.dist,
                    holes.len(),
                    ops[holes[0].0],
                    ops[holes[0].1],
                );
                cells += 1;
            }
        }
    }
    assert_eq!(cells, 364);
}
