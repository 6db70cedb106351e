//! Borrowed column-major matrix views (offset + leading dimension).
//!
//! A view is the triple `(data, rows x cols, ld)` over a column-major
//! slice: element `(i, j)` lives at `data[j * ld + i]`, exactly like a
//! LAPACK submatrix described by a pointer and `LDA` (or faer's
//! `MatRef`/`MatMut`).  Views are what the blocked tile kernels of
//! `bidiag-kernels` operate on: a kernel can address any rectangular
//! window of a tile — or a panel buffer inside a workspace — without
//! copying it into a fresh [`Matrix`](crate::dense::Matrix) first, and the
//! per-column slices it hands to the innermost loops are plain `&[f64]`
//! ranges whose bounds checks the compiler hoists.
//!
//! The invariant every constructor enforces: `ld >= rows` and
//! `data.len() >= (cols - 1) * ld + rows` (for non-empty views), so
//! `col(j)` is always a valid `rows`-long contiguous slice.

/// An immutable view of an `rows x cols` column-major matrix with leading
/// dimension `ld`.
#[derive(Clone, Copy)]
pub struct MatrixView<'a> {
    data: &'a [f64],
    rows: usize,
    cols: usize,
    ld: usize,
}

/// A mutable view of an `rows x cols` column-major matrix with leading
/// dimension `ld`.
pub struct MatrixViewMut<'a> {
    data: &'a mut [f64],
    rows: usize,
    cols: usize,
    ld: usize,
}

#[inline]
fn check_dims(len: usize, rows: usize, cols: usize, ld: usize) {
    assert!(ld >= rows, "leading dimension {ld} < rows {rows}");
    if rows > 0 && cols > 0 {
        assert!(
            len >= (cols - 1) * ld + rows,
            "slice of length {len} too short for a {rows}x{cols} view with ld {ld}"
        );
    }
}

impl<'a> MatrixView<'a> {
    /// View over a column-major slice.
    #[inline]
    pub fn new(data: &'a [f64], rows: usize, cols: usize, ld: usize) -> Self {
        check_dims(data.len(), rows, cols, ld);
        Self {
            data,
            rows,
            cols,
            ld,
        }
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

    /// Leading dimension (stride between columns).
    #[inline]
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Element `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.ld + i]
    }

    /// Column `j` as a contiguous slice of length `rows`.
    #[inline]
    pub fn col(&self, j: usize) -> &'a [f64] {
        debug_assert!(j < self.cols);
        &self.data[j * self.ld..j * self.ld + self.rows]
    }

    /// The `nrows x ncols` sub-view with top-left corner `(ro, co)`.
    #[inline]
    pub fn submatrix(&self, ro: usize, co: usize, nrows: usize, ncols: usize) -> MatrixView<'a> {
        assert!(ro + nrows <= self.rows && co + ncols <= self.cols);
        let start = co * self.ld + ro;
        let data = if nrows == 0 || ncols == 0 {
            &self.data[..0]
        } else {
            &self.data[start..start + (ncols - 1) * self.ld + nrows]
        };
        MatrixView {
            data,
            rows: nrows,
            cols: ncols,
            ld: self.ld,
        }
    }
}

impl<'a> MatrixViewMut<'a> {
    /// Mutable view over a column-major slice.
    #[inline]
    pub fn new(data: &'a mut [f64], rows: usize, cols: usize, ld: usize) -> Self {
        check_dims(data.len(), rows, cols, ld);
        Self {
            data,
            rows,
            cols,
            ld,
        }
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

    /// Leading dimension (stride between columns).
    #[inline]
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Element `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.ld + i]
    }

    /// Set element `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.ld + i] = v;
    }

    /// Column `j` as a contiguous immutable slice of length `rows`.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        debug_assert!(j < self.cols);
        &self.data[j * self.ld..j * self.ld + self.rows]
    }

    /// Column `j` as a contiguous mutable slice of length `rows`.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        debug_assert!(j < self.cols);
        &mut self.data[j * self.ld..j * self.ld + self.rows]
    }

    /// Reborrow as an immutable view.
    #[inline]
    pub fn as_view(&self) -> MatrixView<'_> {
        MatrixView {
            data: self.data,
            rows: self.rows,
            cols: self.cols,
            ld: self.ld,
        }
    }

    /// Reborrow the `nrows x ncols` sub-view at `(ro, co)` mutably.
    #[inline]
    pub fn submatrix_mut(
        &mut self,
        ro: usize,
        co: usize,
        nrows: usize,
        ncols: usize,
    ) -> MatrixViewMut<'_> {
        assert!(ro + nrows <= self.rows && co + ncols <= self.cols);
        let start = co * self.ld + ro;
        let data = if nrows == 0 || ncols == 0 {
            &mut self.data[..0]
        } else {
            &mut self.data[start..start + (ncols - 1) * self.ld + nrows]
        };
        MatrixViewMut {
            data,
            rows: nrows,
            cols: ncols,
            ld: self.ld,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_indexing_matches_layout() {
        // 3x2 window with ld 4 inside a 4x3 buffer.
        let data: Vec<f64> = (0..12).map(|x| x as f64).collect();
        let v = MatrixView::new(&data[..], 3, 2, 4);
        assert_eq!(v.get(0, 0), 0.0);
        assert_eq!(v.get(2, 1), 6.0);
        assert_eq!(v.col(1), &[4.0, 5.0, 6.0]);
        let s = v.submatrix(1, 1, 2, 1);
        assert_eq!(s.col(0), &[5.0, 6.0]);
    }

    #[test]
    #[should_panic]
    fn short_slice_is_rejected() {
        let data = [0.0; 5];
        let _ = MatrixView::new(&data[..], 3, 2, 4);
    }

    #[test]
    fn last_column_may_be_shorter_than_ld() {
        // 3 rows, 2 cols, ld 4: minimum length is 4 + 3 = 7.
        let data = [0.0; 7];
        let v = MatrixView::new(&data[..], 3, 2, 4);
        assert_eq!(v.col(1).len(), 3);
    }
}
