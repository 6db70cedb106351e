//! Figure 4: distributed weak scaling on tall-skinny matrices.
//!
//! Row 1: matrices of size `(base1 * nodes) x 2000`; row 2: `(base2 * nodes)
//! x wide_n`.  Columns: GE2BND GFlop/s per tree (R-BIDIAG), GE2VAL GFlop/s
//! and its parallel efficiency.  Every rate is simulated.
//!
//! Paper sizes are `80000 * nodes x 2000` and `100000 * nodes x 10000`; the
//! default here is scaled down (pass `--full` for the paper's sizes).

use bidiag_bench::*;
use bidiag_core::drivers::Algorithm;
use bidiag_matrix::BlockCyclic;
use bidiag_trees::NamedTree;

fn weak_row(title: &str, base_m: usize, n: usize, nodes_list: &[usize], nb: usize) {
    let mut rows_bnd = Vec::new();
    let mut rows_val = Vec::new();
    let mut ours_single = None;
    for &nodes in nodes_list {
        let m = base_m * nodes;
        let grid = BlockCyclic::tall_grid(nodes);
        let mut row = vec![nodes.to_string(), m.to_string()];
        for t in NamedTree::paper_variants(CORES_PER_NODE) {
            let g = ge2bnd_sim_gflops(m, n, nb, t, Algorithm::RBidiag, nodes, grid);
            row.push(format!("{g:.0}"));
        }
        rows_bnd.push(row);

        let auto = NamedTree::Auto {
            gamma: 2.0,
            ncores: CORES_PER_NODE,
        };
        let ours = ge2val_sim_gflops(m, n, nb, auto, Algorithm::RBidiag, nodes, grid);
        let base = *ours_single.get_or_insert(ours / nodes as f64);
        rows_val.push(vec![
            nodes.to_string(),
            format!("{ours:.0}"),
            format!("{:.3}", ours / (base * nodes as f64)),
        ]);
    }
    print_tsv(
        &format!("{title}: GE2BND"),
        &["nodes", "M", "FlatTS", "FlatTT", "Greedy", "Auto"],
        &rows_bnd,
    );
    print_tsv(
        &format!("{title}: GE2VAL"),
        &["nodes", "DPLASMA(ours)", "efficiency"],
        &rows_val,
    );
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let nb = 160;
    let nodes_list: Vec<usize> = vec![1, 2, 4, 8, 16, 25];
    let (base1, base2, wide_n) = if full {
        (80_000, 100_000, 10_000)
    } else {
        (20_000, 20_000, 5_000)
    };

    println!("# Figure 4 — weak scaling on tall-skinny matrices (simulated cluster, nb = {nb})\n");
    weak_row("Fig 4 row 1 (N=2000)", base1, 2_000, &nodes_list, nb);
    weak_row(
        &format!("Fig 4 row 2 (N={wide_n})"),
        base2,
        wide_n,
        &nodes_list,
        nb,
    );
    bidiag_bench::maybe_write_trace();
}
