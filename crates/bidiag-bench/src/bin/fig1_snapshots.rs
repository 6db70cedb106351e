//! Figure 1: snapshots of the BIDIAG algorithm.
//!
//! Replays the operation list of BIDIAG on a small tile grid and prints the
//! logical state of every tile after each QR/LQ step, using the same visual
//! convention as the paper: `R` upper-triangular tile, `L` lower-triangular
//! tile, `.` zeroed tile (holding reflectors), `x` full tile.

use bidiag_core::drivers::{bidiag_ops, GenConfig};
use bidiag_core::ops::TileOp;
use bidiag_trees::NamedTree;

#[derive(Clone, Copy, PartialEq)]
enum S {
    Full,
    UpperTri,
    LowerTri,
    Zeroed,
}

fn render(state: &[Vec<S>], title: &str) {
    println!("{title}");
    for row in state {
        let line: String = row
            .iter()
            .map(|s| match s {
                S::Full => " x ",
                S::UpperTri => " R ",
                S::LowerTri => " L ",
                S::Zeroed => " . ",
            })
            .collect();
        println!("  {line}");
    }
    println!();
}

fn main() {
    let p: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let q: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    println!("# Figure 1 — snapshots of BIDIAG on a {p} x {q} tile matrix (Greedy trees)\n");

    let ops = bidiag_ops(p, q, &GenConfig::shared(NamedTree::Greedy));
    let mut state = vec![vec![S::Full; q]; p];
    render(&state, "initial");

    // Group ops by (step, QR/LQ phase) and render after each phase.
    let mut current: Option<(usize, bool)> = None; // (k, is_lq)
    for op in &ops {
        let phase = match *op {
            TileOp::Geqrt { k, .. }
            | TileOp::Unmqr { k, .. }
            | TileOp::Tsqrt { k, .. }
            | TileOp::Tsmqr { k, .. }
            | TileOp::Ttqrt { k, .. }
            | TileOp::Ttmqr { k, .. } => (k, false),
            TileOp::Gelqt { k, .. }
            | TileOp::Unmlq { k, .. }
            | TileOp::Tslqt { k, .. }
            | TileOp::Tsmlq { k, .. }
            | TileOp::Ttlqt { k, .. }
            | TileOp::Ttmlq { k, .. } => (k, true),
            TileOp::ZeroLower { .. } => continue,
        };
        if let Some((k, lq)) = current.filter(|&c| c != phase) {
            render(
                &state,
                &if lq {
                    format!("after LQ({})", k + 1)
                } else {
                    format!("after QR({})", k + 1)
                },
            );
        }
        current = Some(phase);
        // Update the logical structure.
        match *op {
            TileOp::Geqrt { k, i } => state[i][k] = S::UpperTri,
            TileOp::Tsqrt { k, i, .. } | TileOp::Ttqrt { k, i, .. } => {
                (i..i + op.height()).for_each(|r| state[r][k] = S::Zeroed)
            }
            TileOp::Gelqt { k, j } => state[k][j] = S::LowerTri,
            TileOp::Tslqt { k, j, .. } | TileOp::Ttlqt { k, j, .. } => state[k][j] = S::Zeroed,
            TileOp::Unmqr { .. }
            | TileOp::Tsmqr { .. }
            | TileOp::Ttmqr { .. }
            | TileOp::Unmlq { .. }
            | TileOp::Tsmlq { .. }
            | TileOp::Ttmlq { .. }
            | TileOp::ZeroLower { .. } => {}
        }
    }
    if let Some((k, lq)) = current {
        render(
            &state,
            &if lq {
                format!("after LQ({})", k + 1)
            } else {
                format!("after QR({})", k + 1)
            },
        );
    }
    println!("(R = triangularised tile, L = LQ-triangularised tile, . = annihilated tile, x = full tile)");
    bidiag_bench::maybe_write_trace();
}
