//! 2D block-cyclic data distributions.
//!
//! The distributed-memory experiments of the paper map the tile grid onto an
//! `R x C` process grid with the 2D block-cyclic rule used by ScaLAPACK and
//! DPLASMA: tile `(i, j)` lives on process `(i mod R, j mod C)`.
//! [`BlockCyclic`] captures that mapping and is consumed by the cluster
//! simulator in `bidiag-runtime` and by the hierarchical reduction trees in
//! `bidiag-trees`.

use serde::{Deserialize, Serialize};

/// A 2D block-cyclic distribution of a `p x q` tile grid over an `R x C`
/// process (node) grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockCyclic {
    /// Number of process rows `R`.
    pub proc_rows: usize,
    /// Number of process columns `C`.
    pub proc_cols: usize,
}

impl BlockCyclic {
    /// Create a distribution over an `R x C` process grid.
    pub fn new(proc_rows: usize, proc_cols: usize) -> Self {
        assert!(proc_rows > 0 && proc_cols > 0);
        Self {
            proc_rows,
            proc_cols,
        }
    }

    /// A single-node distribution (shared memory).
    pub fn single_node() -> Self {
        Self::new(1, 1)
    }

    /// The square-ish grid used by the paper for square matrices:
    /// `sqrt(nodes) x sqrt(nodes)` (requires `nodes` to be a perfect square,
    /// otherwise the closest `r x c` factorisation with `r <= c` is used).
    pub fn square_grid(nodes: usize) -> Self {
        assert!(nodes > 0);
        let mut r = (nodes as f64).sqrt().floor() as usize;
        while r > 1 && !nodes.is_multiple_of(r) {
            r -= 1;
        }
        Self::new(r.max(1), nodes / r.max(1))
    }

    /// The `nodes x 1` grid used by the paper for tall-and-skinny matrices.
    pub fn tall_grid(nodes: usize) -> Self {
        Self::new(nodes, 1)
    }

    /// Total number of processes.
    pub fn nodes(&self) -> usize {
        self.proc_rows * self.proc_cols
    }

    /// Process row owning tile row `i`.
    pub fn owner_row(&self, tile_row: usize) -> usize {
        tile_row % self.proc_rows
    }

    /// Process column owning tile column `j`.
    pub fn owner_col(&self, tile_col: usize) -> usize {
        tile_col % self.proc_cols
    }

    /// Linear rank of the process owning tile `(i, j)` (row-major ranks).
    pub fn owner(&self, tile_row: usize, tile_col: usize) -> usize {
        self.owner_row(tile_row) * self.proc_cols + self.owner_col(tile_col)
    }

    /// Number of tile rows of a `p`-row matrix owned by process row `r`.
    pub fn local_tile_rows(&self, p: usize, proc_row: usize) -> usize {
        if proc_row >= self.proc_rows {
            return 0;
        }
        (p + self.proc_rows - 1 - proc_row) / self.proc_rows
    }

    /// Number of tile columns of a `q`-column matrix owned by process column `c`.
    pub fn local_tile_cols(&self, q: usize, proc_col: usize) -> usize {
        if proc_col >= self.proc_cols {
            return 0;
        }
        (q + self.proc_cols - 1 - proc_col) / self.proc_cols
    }

    /// The global tile rows owned by process row `r`, in increasing order.
    pub fn rows_of(&self, p: usize, proc_row: usize) -> Vec<usize> {
        (proc_row..p).step_by(self.proc_rows).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_is_cyclic() {
        let d = BlockCyclic::new(2, 3);
        assert_eq!(d.owner(0, 0), 0);
        assert_eq!(d.owner(1, 0), 3);
        assert_eq!(d.owner(2, 0), 0);
        assert_eq!(d.owner(0, 1), 1);
        assert_eq!(d.owner(0, 3), 0);
        assert_eq!(d.nodes(), 6);
    }

    #[test]
    fn local_counts_add_up() {
        let d = BlockCyclic::new(3, 2);
        let p = 10;
        let q = 7;
        let rows: usize = (0..3).map(|r| d.local_tile_rows(p, r)).sum();
        let cols: usize = (0..2).map(|c| d.local_tile_cols(q, c)).sum();
        assert_eq!(rows, p);
        assert_eq!(cols, q);
    }

    #[test]
    fn rows_of_matches_owner() {
        let d = BlockCyclic::new(4, 1);
        for r in 0..4 {
            for &i in &d.rows_of(13, r) {
                assert_eq!(d.owner_row(i), r);
            }
        }
    }

    #[test]
    fn grid_constructors() {
        assert_eq!(BlockCyclic::square_grid(16), BlockCyclic::new(4, 4));
        assert_eq!(BlockCyclic::square_grid(12), BlockCyclic::new(3, 4));
        assert_eq!(BlockCyclic::square_grid(7), BlockCyclic::new(1, 7));
        assert_eq!(BlockCyclic::tall_grid(25), BlockCyclic::new(25, 1));
        assert_eq!(BlockCyclic::single_node().nodes(), 1);
    }
}
