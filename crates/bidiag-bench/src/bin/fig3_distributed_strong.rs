//! Figure 3: distributed-memory strong scaling on 1..25 nodes.
//!
//! Top row — GE2BND GFlop/s of the four tree variants: square matrices with
//! BIDIAG (sqrt(N) x sqrt(N) process grids) and tall-skinny matrices with
//! R-BIDIAG (N x 1 grids).  Bottom row — GE2VAL and the serial
//! BND2BD+BD2VAL upper bound of the paper.  Every rate is simulated.
//!
//! Sizes are scaled down from the paper (20000/30000 square, 2M x 2000 and
//! 1M x 10000 tall-skinny) so the harness runs in minutes; pass `--full`
//! for larger sizes.

use bidiag_bench::*;
use bidiag_core::drivers::Algorithm;
use bidiag_matrix::BlockCyclic;
use bidiag_trees::NamedTree;

fn grid_for(nodes: usize, square: bool) -> BlockCyclic {
    if square {
        BlockCyclic::square_grid(nodes)
    } else {
        BlockCyclic::tall_grid(nodes)
    }
}

fn ge2bnd_panel(
    title: &str,
    m: usize,
    n: usize,
    algorithm: Algorithm,
    square: bool,
    nodes_list: &[usize],
    nb: usize,
) {
    let mut rows = Vec::new();
    for &nodes in nodes_list {
        let grid = grid_for(nodes, square);
        let mut row = vec![nodes.to_string()];
        for t in NamedTree::paper_variants(CORES_PER_NODE) {
            let g = ge2bnd_sim_gflops(m, n, nb, t, algorithm, nodes, grid);
            row.push(format!("{g:.0}"));
        }
        // Perfect scalability reference: single-node best * nodes.
        let single = NamedTree::paper_variants(CORES_PER_NODE)
            .into_iter()
            .map(|t| ge2bnd_sim_gflops(m, n, nb, t, algorithm, 1, BlockCyclic::single_node()))
            .fold(0.0_f64, f64::max);
        row.push(format!("{:.0}", single * nodes as f64));
        rows.push(row);
    }
    print_tsv(
        &format!("{title} (M={m}, N={n}, {})", algorithm.name()),
        &[
            "nodes",
            "FlatTS",
            "FlatTT",
            "Greedy",
            "Auto",
            "PerfectScaling",
        ],
        &rows,
    );
}

fn ge2val_panel(
    title: &str,
    m: usize,
    n: usize,
    algorithm: Algorithm,
    square: bool,
    nodes_list: &[usize],
    nb: usize,
) {
    let mut rows = Vec::new();
    for &nodes in nodes_list {
        let grid = grid_for(nodes, square);
        let auto = NamedTree::Auto {
            gamma: 2.0,
            ncores: CORES_PER_NODE,
        };
        let ours = ge2val_sim_gflops(m, n, nb, auto, algorithm, nodes, grid);
        let ub = ge2val_upper_bound_gflops(m, n, nb);
        rows.push(vec![
            nodes.to_string(),
            format!("{ours:.0}"),
            format!("{ub:.0}"),
        ]);
    }
    print_tsv(
        &format!("{title} (M={m}, N={n}, {})", algorithm.name()),
        &["nodes", "DPLASMA(ours)", "UpperBound(BND2VAL)"],
        &rows,
    );
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let nb = 160;
    let nodes_list: Vec<usize> = vec![1, 2, 4, 9, 16, 25];
    let (sq1, sq2) = if full {
        (20_000, 30_000)
    } else {
        (8_000, 12_000)
    };
    let (ts1_m, ts1_n) = if full {
        (2_000_000, 2_000)
    } else {
        (200_000, 2_000)
    };
    let (ts2_m, ts2_n) = if full {
        (1_000_000, 10_000)
    } else {
        (100_000, 5_000)
    };

    println!("# Figure 3 — distributed-memory strong scaling (simulated cluster of 24-core nodes, nb = {nb})\n");

    ge2bnd_panel(
        "Fig 3 top-left: GE2BND square (small)",
        sq1,
        sq1,
        Algorithm::Bidiag,
        true,
        &nodes_list,
        nb,
    );
    ge2bnd_panel(
        "Fig 3 top-left: GE2BND square (large)",
        sq2,
        sq2,
        Algorithm::Bidiag,
        true,
        &nodes_list,
        nb,
    );
    ge2bnd_panel(
        "Fig 3 top-middle: GE2BND tall-skinny",
        ts1_m,
        ts1_n,
        Algorithm::RBidiag,
        false,
        &nodes_list,
        nb,
    );
    ge2bnd_panel(
        "Fig 3 top-right: GE2BND tall-skinny wide",
        ts2_m,
        ts2_n,
        Algorithm::RBidiag,
        false,
        &nodes_list,
        nb,
    );

    ge2val_panel(
        "Fig 3 bottom-left: GE2VAL square",
        sq1,
        sq1,
        Algorithm::Bidiag,
        true,
        &nodes_list,
        nb,
    );
    ge2val_panel(
        "Fig 3 bottom-middle: GE2VAL tall-skinny",
        ts1_m,
        ts1_n,
        Algorithm::RBidiag,
        false,
        &nodes_list,
        nb,
    );
    ge2val_panel(
        "Fig 3 bottom-right: GE2VAL tall-skinny wide",
        ts2_m,
        ts2_n,
        Algorithm::RBidiag,
        false,
        &nodes_list,
        nb,
    );
    bidiag_bench::maybe_write_trace();
}
