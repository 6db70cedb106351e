//! Band matrices and the band-to-bidiagonal reduction (`BND2BD`).
//!
//! The tiled GE2BND algorithms of the paper stop at a *band* bidiagonal
//! matrix of upper bandwidth `nb`.  To obtain singular values this band must
//! be further reduced to a proper bidiagonal (bandwidth 1).  The paper uses
//! the PLASMA bulge-chasing kernel for this stage; we implement the same
//! Householder bulge chase ([`BandMatrix::reduce_to_bidiagonal`]) on packed
//! band storage.
//!
//! # Algorithm
//!
//! Sweep `s` brings row `s` to bidiagonal form and chases the fill this
//! creates off the bottom-right corner in *block-steps* `(s, k)`,
//! `k = 0, 1, ...` ([`bulge_wavefronts`] lists them).  Step `k` works on the
//! columns `c0 ..= c1` with `c0 = s + 1 + k * bw` and
//! `c1 = min(c0 + bw - 1, n - 1)`, and exists while that block has at least
//! two columns:
//!
//! 1. a *right* reflector over columns `c0 ..= c1` annihilates the entries
//!    `c0 + 1 ..= c1` of one row — row `s` for `k = 0`, row `c0 - bw` (the
//!    first row of the bulge the previous step left above the band)
//!    otherwise — and is applied to every row below it down to `c1`, which
//!    fills the block `(c0 ..= c1) x (c0 ..= c1)` below the diagonal;
//! 2. a *left* reflector over rows `c0 ..= c1` annihilates the first column
//!    of that fill (entries `c0 + 1 ..= c1` of column `c0`) and is applied
//!    to the columns `c0 + 1 ..= min(c1 + bw, n - 1)`, which pushes rows
//!    `c0 ..= c1` out to column `c1 + bw` — the bulge of step `k + 1`.
//!
//! Each step removes only the first row and the first column of its two
//! bulges; what remains sits exactly inside the blocks of sweep `s + 1`
//! (shifted by one), so the fill never grows past `bw - 1` subdiagonals and
//! `2 bw - 1` superdiagonals.  Total cost is [`bnd2bd_flops`] `~ 8 n^2 bw`
//! on `O(n * bw)` storage.  Only singular values are preserved (the
//! reflectors are not accumulated).
//!
//! # Storage
//!
//! [`BandMatrix`] stores the diagonals `-(bw - 1) ..= 2 bw - 1` of column
//! `j` in the contiguous slice `data[j * ldab ..][..ldab]` with
//! `ldab = 3 bw - 1` (LAPACK band layout, wide enough for the bulges), so
//! every block the chase touches is a run of *contiguous column segments*
//! whose starts are `ldab - 1` apart.  The right apply runs rows-as-lanes
//! over those segments (`w += col_j * v_j`, then `col_j -= tau * v_j * w`,
//! in chunks of at most eight registers of rows so `w` never leaves them;
//! the rows left over are one more chunk of as many registers as they need,
//! the last one masked, so a 127-row block costs two chunks and no row goes
//! element by element).  The left apply keeps `v` in registers for the whole
//! call — up to sixteen of them, 64 rows on four lanes and 128 on eight, the
//! last one masked — and loads, reduces, updates and stores each column
//! once; a longer `v` (`bw > 128` on eight lanes) is a dot product and an
//! axpy per column.  Both are unit-stride and live in [`crate::householder`]
//! (`reflector`, `right_apply`, `left_apply` over [`SimdLane`], on a window
//! with leading dimension `ldab - 1` here and `m` in [`crate::gebd2`]), with
//! one [`simd::dispatch`] per *reduction*: `Avx2` runs the chase on four
//! lanes, `Avx512` on eight.
//!
//! At `bw = 64` the chase's right apply now runs at the rate its ≈ 65 KB
//! block streams between L1 and L2 (2.2 cycles per 32 bytes against 1.25
//! for a block that stays in L1), which is what is left to take.
//!
//! # Scaling
//!
//! The reflectors are generated from a plain sum of squares.  To keep that
//! safe the whole band is scaled once, by an exact power of two, so its
//! largest entry lies in `(0.5, 1]`, and the bidiagonal is scaled back; a
//! tail whose sum of squares is below `1e-290` in those units is set to
//! zero and its reflector skipped.

use crate::gebd2::Bidiagonal;
use crate::householder::{left_apply, prescale, reflector, right_apply};
use bidiag_matrix::simd::{self, LaneKernel, SimdLane};
use bidiag_matrix::{Matrix, TiledMatrix};
use std::ops::Range;

/// Relative Frobenius-mass bound on what [`BandMatrix::from_dense`] may
/// silently discard (debug builds assert it).
#[cfg(debug_assertions)]
const FROM_DENSE_DROP_TOL: f64 = 1e-8;

/// The block-steps `(sweep, step)` of the bulge chase of an order-`n` band
/// of upper bandwidth `bw`, in execution order (see the module docs): sweep
/// `s` has one step per `bw` columns of `s + 1 .. n - 1`.
fn chase_steps(n: usize, bw: usize) -> impl Iterator<Item = (usize, usize)> {
    let sweeps = if bw < 2 { 0 } else { n.saturating_sub(2) };
    (0..sweeps).flat_map(move |s| (0..(n - 2 - s).div_ceil(bw)).map(move |k| (s, k)))
}

/// The schedule of [`BandMatrix::reduce_to_bidiagonal`] as a list of
/// `(sweep, step)` block-steps — the unit of work a task decomposition of
/// the chase would group.
pub fn bulge_wavefronts(n: usize, bw: usize) -> Vec<(usize, usize)> {
    chase_steps(n, bw).collect()
}

/// Compact column-major storage for an upper-banded square matrix with room
/// for the bulges of the reduction (`bw - 1` subdiagonals and `2 bw - 1`
/// superdiagonals).
#[derive(Clone, Debug)]
pub struct BandMatrix {
    n: usize,
    bw: usize,
    /// Column stride: `3 bw - 1` stored diagonals (`-(bw - 1) ..= 2 bw - 1`).
    ldab: usize,
    /// `data[j * ldab + (i + 2 bw - 1 - j)]` holds `B[i, j]`.
    data: Vec<f64>,
}

impl BandMatrix {
    /// Create a zero band matrix of order `n` and upper bandwidth `bw`.
    pub fn zeros(n: usize, bw: usize) -> Self {
        assert!(n > 0);
        let bw = bw.max(1).min(n.saturating_sub(1).max(1));
        let ldab = 3 * bw - 1;
        Self {
            n,
            bw,
            ldab,
            data: vec![0.0; ldab * n],
        }
    }

    /// Build from a dense matrix, keeping only the upper band `0..=bw`.
    ///
    /// Entries outside the band are discarded; they must be negligible
    /// relative to the Frobenius norm of the input.  Debug builds assert
    /// this, so a bandwidth mismatch fails loudly instead of silently
    /// corrupting the spectrum.
    pub fn from_dense(a: &Matrix, bw: usize) -> Self {
        let n = a.rows().min(a.cols());
        let mut b = Self::zeros(n, bw);
        for i in 0..n {
            let jmax = (i + b.bw).min(n - 1);
            for j in i..=jmax {
                b.set(i, j, a.get(i, j));
            }
        }
        #[cfg(debug_assertions)]
        {
            // Sum the discarded entries directly (not by subtracting the
            // kept norm from the total — that cancellation would flag
            // rounding noise as dropped mass).
            let mut total = 0.0f64;
            let mut dropped = 0.0f64;
            for i in 0..a.rows() {
                for j in 0..a.cols() {
                    let v = a.get(i, j);
                    total += v * v;
                    let kept = i < n && j < n && j >= i && j - i <= b.bw;
                    if !kept {
                        dropped += v * v;
                    }
                }
            }
            let (total, dropped) = (total.sqrt(), dropped.sqrt());
            debug_assert!(
                dropped <= FROM_DENSE_DROP_TOL * total + f64::MIN_POSITIVE,
                "BandMatrix::from_dense({} x {}, bw = {}) would discard {dropped:.3e} \
                 of Frobenius mass {:.3e}: out-of-band entries are not negligible \
                 (bandwidth mismatch with the producing stage?)",
                a.rows(),
                a.cols(),
                bw,
                total,
            );
        }
        b
    }

    /// The upper band `0..=bw` of a factored tiled matrix, copied straight
    /// from the tiles — what GE2BND hands over to the BND2BD stage.  The
    /// Householder vectors the tiles hold outside the band are not read.
    pub fn from_tiled(a: &TiledMatrix, bw: usize) -> Self {
        let nb = a.nb();
        let mut b = Self::zeros(a.rows().min(a.cols()), bw);
        for j in 0..b.n {
            let lo = j.saturating_sub(b.bw);
            let at = b.off(lo, j);
            let dst = &mut b.data[at..=at + (j - lo)];
            for ti in lo / nb..=j / nb {
                let rows = lo.max(ti * nb)..(j + 1).min((ti + 1) * nb);
                let src = a.tile(ti, j / nb).col(j % nb);
                dst[rows.start - lo..rows.end - lo]
                    .copy_from_slice(&src[rows.start - ti * nb..rows.end - ti * nb]);
            }
        }
        b
    }

    /// Order of the matrix.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Upper bandwidth the storage was created for.
    pub fn bandwidth(&self) -> usize {
        self.bw
    }

    /// Offset of entry `(i, j)`, which must lie on a stored diagonal.
    #[inline]
    fn off(&self, i: usize, j: usize) -> usize {
        j * self.ldab + (i + 2 * self.bw - 1 - j)
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> Option<usize> {
        let stored = i < self.n && j < self.n && i < j + self.bw && j < i + 2 * self.bw;
        stored.then(|| self.off(i, j))
    }

    /// The slots of column `j` that hold matrix entries.  The packed
    /// storage also has slots for rows before `0` and past `n - 1`; nothing
    /// reads or writes those.
    fn col_span(&self, j: usize) -> Range<usize> {
        let lo = (j + 1).saturating_sub(2 * self.bw);
        let hi = (j + self.bw - 1).min(self.n - 1);
        self.off(lo, j)..self.off(hi, j) + 1
    }

    /// Read entry `(i, j)`; entries outside the stored band read as zero.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        match self.idx(i, j) {
            Some(k) => self.data[k],
            None => 0.0,
        }
    }

    /// Write entry `(i, j)`; panics if outside the stored band.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        let k = self.idx(i, j).expect("write outside band storage");
        self.data[k] = v;
    }

    /// Densify (for tests and small problems).
    pub fn to_dense(&self) -> Matrix {
        Matrix::from_fn(self.n, self.n, |i, j| self.get(i, j))
    }

    /// Every stored matrix entry, column by column.
    fn entries(&self) -> impl Iterator<Item = &f64> {
        (0..self.n).flat_map(|j| &self.data[self.col_span(j)])
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.entries().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Reduce the band matrix to upper bidiagonal form in place with the
    /// Householder bulge chase of the module docs and return the bidiagonal
    /// factor; every other stored entry ends up exactly zero.  Only
    /// singular values are preserved (the reflectors are not accumulated),
    /// exactly like the singular-value-only path of the paper.
    ///
    /// Sequential and deterministic: a blocked GE2VAL problem's task graph
    /// (`bidiag_core::exec`) runs this very function as its one BND2BD
    /// task.
    pub fn reduce_to_bidiagonal(&mut self) -> Bidiagonal {
        let amax = self.entries().fold(0.0f64, |acc, v| acc.max(v.abs()));
        if self.bw < 2 || self.n < 3 || amax == 0.0 {
            return self.bidiagonal_factor();
        }
        let (scale, unscale) = prescale(amax);
        for j in 0..self.n {
            let span = self.col_span(j);
            self.data[span].iter_mut().for_each(|v| *v *= scale);
        }
        // Each vector backend runs its own lane.  On `square_1t`'s band
        // (768 / 64, ms per reduction, `table1_kernel_weights`): 19.8 on the
        // 256-bit lane, which both backends shared while a 127-row block
        // ended in a 16 / 8 / 4-row ladder and single rows and the left
        // apply reloaded `v` per column ("eight lanes measured flat": its
        // ladder was 32 / 16 / 8 rows plus seven single ones); with the
        // masked tail and `v` resident, 18.0–18.8 on four lanes and 14.2 on
        // eight.
        simd::dispatch(Chase(self));
        // Everything off the two diagonals is exactly zero now.
        for i in 0..self.n {
            let at = self.off(i, i);
            self.data[at] *= unscale;
            if i + 1 < self.n {
                self.data[at + self.ldab - 1] *= unscale;
            }
        }
        self.bidiagonal_factor()
    }

    /// Extract the main diagonal and first superdiagonal as a
    /// [`Bidiagonal`] factor (meaningful once every superdiagonal beyond
    /// the first has been removed).
    pub fn bidiagonal_factor(&self) -> Bidiagonal {
        let n = self.n;
        let diag: Vec<f64> = (0..n).map(|i| self.get(i, i)).collect();
        let superdiag: Vec<f64> = (0..n.saturating_sub(1))
            .map(|i| self.get(i, i + 1))
            .collect();
        Bidiagonal { diag, superdiag }
    }
}

/// The argument of [`BandMatrix::reduce_to_bidiagonal`]'s chase.
struct Chase<'a>(&'a mut BandMatrix);

impl LaneKernel for Chase<'_> {
    type Output = ();

    #[inline(always)]
    fn run<S: SimdLane>(self, s: S) {
        chase_body(s, self.0)
    }
}

/// Lane-generic body of [`BandMatrix::reduce_to_bidiagonal`]: every
/// block-step of [`chase_steps`] on the prescaled band.
#[inline(always)]
fn chase_body<S: SimdLane>(s: S, band: &mut BandMatrix) {
    let (n, bw, stride) = (band.n, band.bw, band.ldab - 1);
    let mut v = vec![0.0f64; bw];
    for (sweep, step) in chase_steps(n, bw) {
        let c0 = sweep + 1 + step * bw;
        let c1 = (c0 + bw - 1).min(n - 1);
        let row = if step == 0 { sweep } else { c0 - bw };
        let v = &mut v[..=c1 - c0];

        // Right reflector: row `row` over columns c0..=c1 (one entry per
        // column segment), applied to the rows below it down to c1.
        let at = band.off(row, c0);
        let entries = band.data[at..].iter_mut().step_by(stride);
        for (vj, x) in v.iter_mut().zip(entries) {
            *vj = std::mem::replace(x, 0.0);
        }
        let r = reflector(s, v);
        band.data[at] = r.beta;
        if r.tau != 0.0 {
            let m = c1 - row;
            let blk = &mut band.data[at + 1..at + 1 + (c1 - c0) * stride + m];
            right_apply(s, blk, stride, m, v, r.tau);
        }

        // Left reflector: column c0 over rows c0..=c1 (one segment),
        // applied to the same rows of the columns right of it.
        let at = band.off(c0, c0);
        let col = &mut band.data[at..at + v.len()];
        v.copy_from_slice(col);
        col.fill(0.0);
        let r = reflector(s, v);
        band.data[at] = r.beta;
        if r.tau != 0.0 {
            let (right, ncols) = (&mut band.data[at + stride..], (c1 + bw).min(n - 1) - c0);
            left_apply(s, right, stride, ncols, v, r.tau);
        }
    }
}

/// Flop count of the band-to-bidiagonal reduction of an order-`n` band of
/// bandwidth `bw` (used by the performance model; the paper treats this
/// stage as memory-bound).
///
/// Derivation (see BENCHMARKING.md): a block-step applies two reflectors of
/// length `bw` as rank-1 updates (4 flops per entry), one to a `(2 bw - 1)
/// x bw` block from the right and one to a `bw x (2 bw - 1)` block from
/// the left, `~16 bw^2` flops; sweep `s` has `(n - s) / bw` steps, so the
/// chase has `~n^2 / (2 bw)` of them: `8 n^2 bw`.
pub fn bnd2bd_flops(n: usize, bw: usize) -> f64 {
    if bw < 2 {
        return 0.0;
    }
    8.0 * (n as f64) * (n as f64) * bw as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svd::bisection_singular_values;
    use bidiag_matrix::checks::singular_values_match;
    use bidiag_matrix::gen::random_gaussian;
    use bidiag_oracles::{givens, jacobi_singular_values};

    /// The Givens reduction this module used to run (one superdiagonal at a
    /// time, each annihilated entry chased all the way down, plain
    /// `get`/`set`), kept as an independent oracle for the reflector chase.
    impl BandMatrix {
        fn reduce_to_bidiagonal_single_bulge(&mut self) -> Bidiagonal {
            let mut b = self.bw;
            while b >= 2 {
                self.remove_superdiagonal_single_bulge(b);
                b -= 1;
            }
            self.bidiagonal_factor()
        }

        fn remove_superdiagonal_single_bulge(&mut self, b: usize) {
            let n = self.n;
            for i in 0..n.saturating_sub(b) {
                let c = i + b;
                if self.get(i, c) == 0.0 {
                    continue;
                }
                // Column rotation on (c-1, c) zeroing (i, c).
                let rot = givens(self.get(i, c - 1), self.get(i, c));
                let rmax = c.min(n - 1);
                for r in i..=rmax {
                    let (x, y) = rot.apply(self.get(r, c - 1), self.get(r, c));
                    self.set(r, c - 1, x);
                    self.set(r, c, y);
                }
                self.set(i, c, 0.0);

                // Chase the bulges down the band.
                let mut j = c;
                loop {
                    // Sub-diagonal bulge at (j, j-1): row rotation on (j-1, j).
                    if self.get(j, j - 1) == 0.0 {
                        break;
                    }
                    let rot = givens(self.get(j - 1, j - 1), self.get(j, j - 1));
                    let cmax = (j + b).min(n - 1);
                    for col in (j - 1)..=cmax {
                        let (x, y) = rot.apply(self.get(j - 1, col), self.get(j, col));
                        self.set(j - 1, col, x);
                        self.set(j, col, y);
                    }
                    self.set(j, j - 1, 0.0);

                    // Above-band bulge at (j-1, j+b): column rotation on (j+b-1, j+b).
                    if j + b > n - 1 || self.get(j - 1, j + b) == 0.0 {
                        break;
                    }
                    let rot = givens(self.get(j - 1, j + b - 1), self.get(j - 1, j + b));
                    let rmax = (j + b).min(n - 1);
                    for r in (j - 1)..=rmax {
                        let (x, y) = rot.apply(self.get(r, j + b - 1), self.get(r, j + b));
                        self.set(r, j + b - 1, x);
                        self.set(r, j + b, y);
                    }
                    self.set(j - 1, j + b, 0.0);
                    j += b;
                }
            }
        }
    }

    fn random_band(n: usize, bw: usize, seed: u64) -> BandMatrix {
        let g = random_gaussian(n, n, seed);
        let mut b = BandMatrix::zeros(n, bw);
        for i in 0..n {
            for j in i..=(i + bw).min(n - 1) {
                b.set(i, j, g.get(i, j));
            }
        }
        b
    }

    /// `b` with every entry multiplied by `scale`.
    fn scaled(b: &BandMatrix, scale: f64) -> BandMatrix {
        let mut out = b.clone();
        out.data.iter_mut().for_each(|v| *v *= scale);
        out
    }

    /// The shapes the chase has to get right: `n` not a multiple of `bw`,
    /// `bw = n - 1` (one step per sweep), a last block of one column (`n - 2`
    /// a multiple of `bw`), the reference bandwidth, and the two sides of the
    /// left apply's register budget on eight lanes (sixteen registers at
    /// `bw = 128`, the column-by-column fallback at 130).
    const SHAPES: [(usize, usize); 9] = [
        (3, 2),
        (9, 8),
        (33, 2),
        (41, 7),
        (64, 16),
        (200, 12),
        (257, 64),
        (300, 128),
        (300, 130),
    ];

    #[test]
    fn band_storage_round_trip() {
        let b = random_band(10, 3, 1);
        let d = b.to_dense();
        let b2 = BandMatrix::from_dense(&d, 3);
        assert!((b.norm_fro() - b2.norm_fro()).abs() < 1e-14);
        assert_eq!(b.get(0, 5), 0.0); // outside band reads zero
        assert_eq!(b2.to_dense(), d);
    }

    #[test]
    fn from_tiled_copies_exactly_the_upper_band() {
        // Ragged tiles, a band wider and narrower than a tile, tall input:
        // the tiles' entries outside the band must not be read into it.
        for (m, n, nb, bw) in [
            (9usize, 9usize, 4usize, 4usize),
            (13, 10, 3, 5),
            (8, 8, 4, 2),
        ] {
            let a = random_gaussian(m, n, (m * n) as u64);
            let band = BandMatrix::from_tiled(&TiledMatrix::from_dense(&a, nb), bw);
            let expect = Matrix::from_fn(n, n, |i, j| {
                if j >= i && j - i <= bw {
                    a.get(i, j)
                } else {
                    0.0
                }
            });
            assert_eq!(band.to_dense(), expect, "m={m} n={n} nb={nb} bw={bw}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not negligible")]
    fn from_dense_rejects_out_of_band_mass() {
        // A fully dense matrix has O(1) mass outside any bw=2 band: the
        // debug assert must fire instead of silently truncating it.
        let g = random_gaussian(12, 12, 9);
        let _ = BandMatrix::from_dense(&g, 2);
    }

    #[test]
    fn reduction_matches_the_jacobi_and_givens_oracles() {
        for (n, bw) in SHAPES {
            let b = random_band(n, bw, (n * 31 + bw) as u64);
            let reference = jacobi_singular_values(&b.to_dense());
            let singular_values =
                |bd: Bidiagonal| bisection_singular_values(&bd.diag, &bd.superdiag);
            let reduced = singular_values(b.clone().reduce_to_bidiagonal());
            assert!(
                singular_values_match(&reference, &reduced, 1e-13),
                "reflector chase vs dense Jacobi for n={n} bw={bw}"
            );
            let givens = singular_values(b.clone().reduce_to_bidiagonal_single_bulge());
            assert!(
                singular_values_match(&givens, &reduced, 1e-13),
                "reflector chase vs Givens oracle for n={n} bw={bw}"
            );
        }
    }

    #[test]
    fn reduction_leaves_exact_zeros_and_preserves_the_norm() {
        for (n, bw) in SHAPES {
            let mut b = random_band(n, bw, (n * 37 + bw) as u64);
            let norm0 = b.norm_fro();
            let bd = b.reduce_to_bidiagonal();
            assert_eq!(bd.diag.len(), n);
            for (i, j) in (0..n).flat_map(|i| (0..n).map(move |j| (i, j))) {
                assert!(
                    i == j || i + 1 == j || b.get(i, j) == 0.0,
                    "entry ({i}, {j}) left behind for n={n} bw={bw}"
                );
            }
            assert_eq!(b.bidiagonal_factor().diag, bd.diag);
            assert!(
                (b.norm_fro() - norm0).abs() < 1e-13 * norm0,
                "n={n} bw={bw}"
            );
            assert!(
                (bd.norm_fro() - norm0).abs() < 1e-13 * norm0,
                "n={n} bw={bw}"
            );
        }
    }

    #[test]
    fn chase_reads_only_the_entries_it_owns() {
        // Poison every slot of the packed storage that maps outside the
        // matrix: the reduction must neither read nor write one.  Clean and
        // poisoned runs are compared bitwise, so both run in one forced
        // scope (sibling tests flip the process-wide backend).
        for (n, bw) in SHAPES {
            let clean = random_band(n, bw, (n * 41 + bw) as u64);
            let mut owned = vec![false; clean.data.len()];
            for j in 0..n {
                owned[clean.col_span(j)].fill(true);
            }
            simd::on_each_backend(|| {
                let mut poisoned = clean.clone();
                for (v, _) in poisoned.data.iter_mut().zip(&owned).filter(|(_, o)| !**o) {
                    *v = f64::NAN;
                }
                let expect = clean.clone().reduce_to_bidiagonal();
                let got = poisoned.reduce_to_bidiagonal();
                assert!(got.diag.iter().chain(&got.superdiag).all(|v| v.is_finite()));
                assert_eq!((got.diag, got.superdiag), (expect.diag, expect.superdiag));
                for (v, _) in poisoned.data.iter().zip(&owned).filter(|(_, o)| !**o) {
                    assert!(v.is_nan(), "poison overwritten for n={n} bw={bw}");
                }
            });
        }
    }

    #[test]
    fn schedule_has_one_step_per_block_of_two_or_more_columns() {
        for (n, bw) in SHAPES {
            let steps = bulge_wavefronts(n, bw);
            let mut expect = Vec::new();
            for s in 0..n {
                let mut c0 = s + 1;
                while c0 + 1 < n {
                    expect.push((s, (c0 - s - 1) / bw));
                    c0 += bw;
                }
            }
            assert_eq!(steps, expect, "n={n} bw={bw}");
        }
        assert!(bulge_wavefronts(50, 1).is_empty());
        assert!(bulge_wavefronts(2, 1).is_empty());
    }

    #[test]
    fn already_bidiagonal_is_untouched() {
        let mut b = BandMatrix::zeros(6, 1);
        for i in 0..6 {
            b.set(i, i, (i + 1) as f64);
            if i + 1 < 6 {
                b.set(i, i + 1, 0.5);
            }
        }
        let before = b.to_dense();
        let bd = b.reduce_to_bidiagonal();
        assert_eq!(bd.to_dense(), before);
    }

    #[test]
    fn bandwidth_one_edge_cases() {
        // n = 1.
        let mut b = BandMatrix::zeros(1, 1);
        b.set(0, 0, 3.0);
        let bd = b.reduce_to_bidiagonal();
        assert_eq!(bd.diag, vec![3.0]);
        assert!(bd.superdiag.is_empty());
    }

    #[test]
    fn full_bandwidth_and_tiny_orders() {
        // bw >= n - 1 (requested bandwidth clamps to n - 1): the band is a
        // full upper triangle.
        for (n, bw, seed) in [(6usize, 8usize, 31u64), (5, 4, 32), (3, 2, 33)] {
            let b = random_band(n, bw.min(n - 1), seed);
            let reference = jacobi_singular_values(&b.to_dense());
            let mut work = b.clone();
            let bd = work.reduce_to_bidiagonal();
            let reduced = jacobi_singular_values(&bd.to_dense());
            assert!(
                singular_values_match(&reference, &reduced, 1e-10),
                "full-bandwidth reduction failed for n={n}"
            );
        }
        // n = 2 is already bidiagonal whatever the requested bandwidth.
        let mut b = BandMatrix::zeros(2, 5);
        b.set(0, 0, 2.0);
        b.set(0, 1, -1.0);
        b.set(1, 1, 0.5);
        let bd = b.reduce_to_bidiagonal();
        assert_eq!(bd.diag, vec![2.0, 0.5]);
        assert_eq!(bd.superdiag, vec![-1.0]);
    }

    #[test]
    fn zero_band_and_single_superdiagonal() {
        // All-zero band: reduction is a no-op on zeros.
        let mut z = BandMatrix::zeros(9, 4);
        let bd = z.reduce_to_bidiagonal();
        assert!(bd.diag.iter().all(|&v| v == 0.0));
        assert!(bd.superdiag.iter().all(|&v| v == 0.0));

        // A single non-zero entry on the outermost superdiagonal has
        // singular value |v| (plus zeros) — the chase must preserve that.
        let mut b = BandMatrix::zeros(10, 3);
        b.set(2, 5, 7.5);
        let norm0 = b.norm_fro();
        let bd = b.reduce_to_bidiagonal();
        assert!((bd.norm_fro() - norm0).abs() < 1e-12 * norm0);
        let sv = jacobi_singular_values(&bd.to_dense());
        assert!((sv[0] - 7.5).abs() < 1e-10);
        assert!(sv[1..].iter().all(|&v| v.abs() < 1e-10));
    }

    /// The spectrum of `scale * B` must be `scale` times the spectrum of
    /// `B`: the reduction prescales by a power of two, so nothing may
    /// underflow, overflow or be deflated on the way.
    fn extreme_scale_keeps_spectrum(scale: f64) {
        let (n, bw) = (24usize, 4usize);
        let b = random_band(n, bw, 41);
        let reference = jacobi_singular_values(&b.to_dense());
        let bd = scaled(&b, scale).reduce_to_bidiagonal();
        // Rescale the bidiagonal before calling the oracle (Jacobi itself
        // is not reliable at these magnitudes).
        let mut back = Matrix::zeros(n, n);
        for i in 0..n {
            back[(i, i)] = bd.diag[i] / scale;
            if i + 1 < n {
                back[(i, i + 1)] = bd.superdiag[i] / scale;
            }
        }
        let reduced = jacobi_singular_values(&back);
        assert!(
            singular_values_match(&reference, &reduced, 1e-10),
            "reduction at scale {scale:e} corrupted the spectrum"
        );
    }

    #[test]
    fn underflow_scaled_band_keeps_its_spectrum() {
        extreme_scale_keeps_spectrum(1.0e-300);
    }

    #[test]
    fn overflow_scaled_band_keeps_its_spectrum() {
        extreme_scale_keeps_spectrum(1.0e300);
    }

    #[test]
    fn negligible_superdiagonal_entries_are_deflated_not_chased() {
        // Entries whose squares underflow against the rest of the band are
        // set to zero and their reflectors skipped, without touching the
        // spectrum.
        let n = 20usize;
        let mut b = random_band(n, 3, 51);
        let tiny = 1.0e-160 * b.norm_fro();
        for i in 0..n - 3 {
            b.set(i, i + 2, 0.0);
            b.set(i, i + 3, tiny);
        }
        let reference = jacobi_singular_values(&b.to_dense());
        let bd = b.reduce_to_bidiagonal();
        let reduced = jacobi_singular_values(&bd.to_dense());
        assert!(singular_values_match(&reference, &reduced, 1e-10));
        assert_eq!(b.get(0, 3), 0.0);
    }

    #[test]
    fn flop_model_tracks_the_step_by_step_count() {
        assert_eq!(bnd2bd_flops(100, 1), 0.0);
        // 4 flops per entry of the two blocks every block-step updates.
        let (n, bw) = (768usize, 64usize);
        let mut exact = 0.0;
        for (s, k) in bulge_wavefronts(n, bw) {
            let c0 = s + 1 + k * bw;
            let c1 = (c0 + bw - 1).min(n - 1);
            let row = if k == 0 { s } else { c0 - bw };
            let cols = c1 - c0 + 1;
            exact += 4.0 * (cols * (c1 - row) + cols * ((c1 + bw).min(n - 1) - c0)) as f64;
        }
        let model = bnd2bd_flops(n, bw);
        assert!(
            (model / exact - 1.0).abs() < 0.15,
            "model {model} vs counted {exact}"
        );
    }
}
