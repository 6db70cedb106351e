//! Tiled matrix storage.
//!
//! A [`TiledMatrix`] partitions an `m x n` matrix into a `p x q` grid of
//! tiles of size at most `nb x nb` (the last tile row/column may be
//! smaller).  Every tile is stored as an independent contiguous
//! column-major [`Matrix`] so that tile kernels operate on cache-friendly
//! blocks and so that a task-based runtime can treat each tile as a unit
//! of data-flow, exactly as PLASMA/DPLASMA do.

use crate::dense::Matrix;

/// Coordinates of a tile inside the tile grid.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TileCoord {
    /// Tile row index, `0..p`.
    pub row: usize,
    /// Tile column index, `0..q`.
    pub col: usize,
}

impl TileCoord {
    /// Convenience constructor.
    pub fn new(row: usize, col: usize) -> Self {
        Self { row, col }
    }
}

/// A dense matrix partitioned into `nb x nb` tiles.
#[derive(Clone, Debug)]
pub struct TiledMatrix {
    m: usize,
    n: usize,
    nb: usize,
    p: usize,
    q: usize,
    tiles: Vec<Matrix>,
}

impl TiledMatrix {
    /// Create a zero tiled matrix of element size `m x n` with tile size `nb`.
    pub fn zeros(m: usize, n: usize, nb: usize) -> Self {
        Self::from_tiles(m, n, nb, |_, _, tm, tn| Matrix::zeros(tm, tn))
    }

    /// Partition a dense matrix into tiles.
    pub fn from_dense(a: &Matrix, nb: usize) -> Self {
        Self::from_tiles(a.rows(), a.cols(), nb, |i, j, tm, tn| {
            a.block(i * nb, j * nb, tm, tn)
        })
    }

    /// Build the grid with `tile(i, j, tile_rows, tile_cols)` supplying each
    /// tile exactly once, in storage order.
    fn from_tiles(
        m: usize,
        n: usize,
        nb: usize,
        mut tile: impl FnMut(usize, usize, usize, usize) -> Matrix,
    ) -> Self {
        assert!(nb > 0, "tile size must be positive");
        assert!(m > 0 && n > 0, "matrix dimensions must be positive");
        let p = m.div_ceil(nb);
        let q = n.div_ceil(nb);
        let mut tiles = Vec::with_capacity(p * q);
        for j in 0..q {
            for i in 0..p {
                tiles.push(tile(i, j, tile_dim(m, nb, i), tile_dim(n, nb, j)));
            }
        }
        Self {
            m,
            n,
            nb,
            p,
            q,
            tiles,
        }
    }

    /// Reassemble the dense matrix.
    pub fn to_dense(&self) -> Matrix {
        let mut a = Matrix::zeros(self.m, self.n);
        for i in 0..self.p {
            for j in 0..self.q {
                a.copy_block(i * self.nb, j * self.nb, self.tile(i, j));
            }
        }
        a
    }

    /// Element rows of the full matrix.
    pub fn rows(&self) -> usize {
        self.m
    }

    /// Element columns of the full matrix.
    pub fn cols(&self) -> usize {
        self.n
    }

    /// Tile size parameter `nb`.
    pub fn nb(&self) -> usize {
        self.nb
    }

    /// Number of tile rows `p`.
    pub fn tile_rows(&self) -> usize {
        self.p
    }

    /// Number of tile columns `q`.
    pub fn tile_cols(&self) -> usize {
        self.q
    }

    /// Borrow tile `(i, j)`.
    pub fn tile(&self, i: usize, j: usize) -> &Matrix {
        &self.tiles[j * self.p + i]
    }

    /// Mutably borrow tile `(i, j)`.
    pub fn tile_mut(&mut self, i: usize, j: usize) -> &mut Matrix {
        &mut self.tiles[j * self.p + i]
    }

    /// Mutably borrow two distinct tiles at once (needed by elimination
    /// kernels that update a pivot tile and a target tile together).
    pub fn two_tiles_mut(
        &mut self,
        a: (usize, usize),
        b: (usize, usize),
    ) -> (&mut Matrix, &mut Matrix) {
        let ia = a.1 * self.p + a.0;
        let ib = b.1 * self.p + b.0;
        assert_ne!(ia, ib, "two_tiles_mut requires distinct tiles");
        if ia < ib {
            let (lo, hi) = self.tiles.split_at_mut(ib);
            (&mut lo[ia], &mut hi[0])
        } else {
            let (lo, hi) = self.tiles.split_at_mut(ia);
            (&mut hi[0], &mut lo[ib])
        }
    }

    /// Borrow tile `r` immutably together with two distinct tiles `w1`,
    /// `w2` mutably (the shape of a pair-update kernel: read the
    /// reflectors, update the pivot and target tiles).
    pub fn tile_and_two_tiles_mut(
        &mut self,
        r: (usize, usize),
        w1: (usize, usize),
        w2: (usize, usize),
    ) -> (&Matrix, &mut Matrix, &mut Matrix) {
        let ir = r.1 * self.p + r.0;
        let i1 = w1.1 * self.p + w1.0;
        let i2 = w2.1 * self.p + w2.0;
        let [tr, t1, t2] = self
            .tiles
            .get_disjoint_mut([ir, i1, i2])
            .expect("tile_and_two_tiles_mut requires distinct tiles");
        (&*tr, t1, t2)
    }

    /// Element access through the tile structure (slow; for tests/checks).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.tile(i / self.nb, j / self.nb)
            .get(i % self.nb, j % self.nb)
    }

    /// Element update through the tile structure (slow; for tests/checks).
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        let nb = self.nb;
        self.tile_mut(i / nb, j / nb).set(i % nb, j % nb, v);
    }

    /// Extract the `band` of the matrix as a dense `min(m,n) x min(m,n)`
    /// matrix keeping only entries with `0 <= j - i <= bw` (upper band).
    /// A dense view of what GE2BND hands over to the BND2BD stage, for
    /// checks; the pipeline packs the band straight from the tiles.
    pub fn extract_upper_band(&self, bw: usize) -> Matrix {
        let k = self.m.min(self.n);
        let mut b = Matrix::zeros(k, k);
        for i in 0..k {
            let jmax = (i + bw).min(k - 1);
            for j in i..=jmax {
                b[(i, j)] = self.get(i, j);
            }
        }
        b
    }
}

/// Dimension of tile index `t` along an axis of total length `len`.
fn tile_dim(len: usize, nb: usize, t: usize) -> usize {
    let start = t * nb;
    nb.min(len - start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_exact_tiles() {
        let a = Matrix::from_fn(8, 6, |i, j| (i * 13 + j) as f64);
        let t = TiledMatrix::from_dense(&a, 2);
        assert_eq!(t.tile_rows(), 4);
        assert_eq!(t.tile_cols(), 3);
        assert_eq!(t.to_dense(), a);
    }

    #[test]
    fn round_trip_ragged_tiles() {
        let a = Matrix::from_fn(7, 5, |i, j| (i as f64) - 2.0 * (j as f64));
        let t = TiledMatrix::from_dense(&a, 3);
        assert_eq!(t.tile_rows(), 3);
        assert_eq!(t.tile_cols(), 2);
        assert_eq!(t.tile(2, 1).rows(), 1);
        assert_eq!(t.tile(2, 1).cols(), 2);
        assert_eq!(t.to_dense(), a);
    }

    #[test]
    fn every_tile_starts_on_a_cache_line() {
        // 7 x 5 with nb = 3: 1 x 2, 3 x 2 and 1 x 3 edge tiles included.
        let a = Matrix::from_fn(7, 5, |i, j| (i * 5 + j) as f64);
        let from_dense = TiledMatrix::from_dense(&a, 3);
        for t in [TiledMatrix::zeros(7, 5, 3), from_dense.clone(), from_dense] {
            for i in 0..t.tile_rows() {
                for j in 0..t.tile_cols() {
                    let ptr = t.tile(i, j).data().as_ptr();
                    assert!((ptr as usize).is_multiple_of(64), "tile ({i}, {j})");
                }
            }
        }
    }

    #[test]
    fn element_access_matches_dense() {
        let a = Matrix::from_fn(9, 9, |i, j| (i * 9 + j) as f64);
        let t = TiledMatrix::from_dense(&a, 4);
        for i in 0..9 {
            for j in 0..9 {
                assert_eq!(t.get(i, j), a.get(i, j));
            }
        }
    }

    #[test]
    fn two_tiles_mut_returns_distinct() {
        let mut t = TiledMatrix::zeros(4, 4, 2);
        {
            let (a, b) = t.two_tiles_mut((0, 0), (1, 1));
            a.set(0, 0, 1.0);
            b.set(1, 1, 2.0);
        }
        assert_eq!(t.tile(0, 0).get(0, 0), 1.0);
        assert_eq!(t.tile(1, 1).get(1, 1), 2.0);
    }

    #[test]
    #[should_panic]
    fn two_tiles_mut_same_tile_panics() {
        let mut t = TiledMatrix::zeros(4, 4, 2);
        let _ = t.two_tiles_mut((0, 0), (0, 0));
    }

    #[test]
    fn extract_band_keeps_band_only() {
        let a = Matrix::from_fn(6, 6, |_, _| 1.0);
        let t = TiledMatrix::from_dense(&a, 2);
        let b = t.extract_upper_band(1);
        assert!(b.is_upper_bidiagonal(0.0));
        assert_eq!(b.get(0, 1), 1.0);
        assert_eq!(b.get(1, 0), 0.0);
    }
}
