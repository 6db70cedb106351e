//! Compact-WY machinery shared by every blocked tile kernel.
//!
//! A sequence of `k` Householder reflectors `H_0 H_1 ... H_{k-1}` equals
//! `I - V T V^T`, where `V` holds the reflector vectors column-wise and `T`
//! is the `k x k` upper-triangular *compact-WY factor* (LAPACK `xLARFT`), so
//! a block of reflectors is applied as
//!
//! ```text
//! W = V^T C;   W = T^T W;   C -= V W
//! ```
//!
//! instead of `k` rank-one updates — `C <- Q^T C`, the one product a
//! factorization step applies.  Reflectors are processed in chunks of
//! `IB`, first to last; this module provides:
//!
//! * [`TFactor`] — the `tau` scalars plus the *`IB`-block-diagonal* of `T`
//!   of one factorization kernel, stored compactly as an `IB x k` array,
//!   and for GEQRT/GELQT a copy of the factored tile, in one allocation
//!   (what the tau store keeps per factorization, and the only allocation
//!   any kernel makes).  The apply kernels consume `T` exclusively
//!   through its `IB x IB` diagonal blocks — chunking through
//!   the diagonal blocks of a forward `larft` factor is an exact regrouping
//!   of the reflector product — so the off-diagonal blocks are never
//!   materialised and the `larft` recurrence runs chunk-locally.
//! * the **fused chunk kernel** under the six QR-side tile kernels
//!   (`factor` and `apply`), in the style of LAPACK's
//!   triangular-pentagonal `xTPQRT`/`xTPMQRT`.  One `Shape` says which
//!   rows of the reflector tile are stored (unit-lower trapezoid for
//!   GEQRT/UNMQR, full columns for TS, upper triangle for TT); for one
//!   chunk that splits the tile into *dense* rows, read in place, and an
//!   at most `IB x IB` structured *corner*, densified once per chunk into
//!   a stack array.  The QR side stores its reflectors as columns and takes
//!   them as the vector axis: for `W = H + V_p^T C` the chunk is transposed
//!   once, with register transposes, into a stack panel whose row `i` holds
//!   `V[i, p..p+IB]`, and each `C[i, j]` is broadcast against it;
//!   `W = T^T W` is the same loop over the columns of `T^T`, and
//!   `C -= V_p W` turns the lanes back to the rows of `C`.  The `e_k` heads
//!   of the TS/TT reflectors act on rows `p..p+IB` of the pivot tile,
//!   UNMQR's unit diagonal lives in its corner.  The factorizations are
//!   level 3 the way PLASMA's `CORE_dgeqrt`/`CORE_dttqrt` are: an `IB`-wide
//!   panel is factored unblocked, its `T` block built by the chunk-local
//!   `larft` recurrence, and the trailing columns updated with the same
//!   chunk apply.  Panel and `W` are bounded (64 rows, 64 columns): taller
//!   or wider operands take more than one block of either.
//! * its mirror image under the six LQ kernels (`apply_right`,
//!   `factor_right`).  The LQ side stores reflector `k` as *row* `k` of the
//!   tile and takes the rows of `C` as the vector axis: per chunk and `G`
//!   groups of `LANES` rows, `W = H + C V_p` is `G * IB` register
//!   accumulators fed by one load of `C[i0.., j]` per group and `IB`
//!   coefficient broadcasts per column (`v[p..p+IB, j]` is contiguous),
//!   `W T` an unrolled triangular product, and `C[:, j] -= W v[p..p+IB,
//!   j]` a second sweep.  The same `Shape` splits the *columns* into dense
//!   ones and the corner (unit-upper for UNMLQ, lower for TT, absent for
//!   TS).  The factorizations factor an `IB`-row panel with its rows as the
//!   lanes and update the rows below it with the same chunk apply, which
//!   reads the chunk from those very columns; nothing is transposed.
//!
//!   On both sides ragged shapes run the same loops — a last chunk narrower
//!   than `IB` is zero lanes or a runtime width, a clipped corner is fewer
//!   rows or columns — and nothing is summed across lanes.
//! * **Row groups.**  Both apply kernels spend one broadcast per FMA at one
//!   row group per pass; `G` groups make each broadcast feed `G` FMAs, the
//!   register blocking of Goto and van de Geijn (*Anatomy of
//!   high-performance matrix multiplication*, ACM TOMS 34(3), 2008).  `G`
//!   is a compile-time constant per lane and per side (`Tuned`'s entry
//!   point for each backend), picked by a sweep over 1, 2 and 3:
//!   two on both sides of both vector lanes, where three spills the right
//!   kernel's `W`; two on the left and one on the right for the scalar
//!   backend's eight-wide rows, whose right-side `W` at two groups no
//!   longer fits the SSE2 registers.  Every entry of `C`, `H` and `W` takes
//!   the same FMAs in the same order whatever `G` is, so every output is
//!   bitwise what one group per pass gives.
//!
//! # SIMD dispatch and safety
//!
//! The chunk kernels are written once over [`SimdLane`] and run through
//! [`simd::dispatch`], one call per tile kernel: for the
//! `BIDIAG_SIMD=scalar` fallback (unfused multiply-adds) with eight
//! [`ScalarLane`]s side by side, so that a coefficient load feeds eight
//! rows there too, and, inside the dispatcher's instruction-set shells,
//! with `Avx2Lane` (4 lanes) and `Avx512Lane` (8 lanes).  The register
//! counts, columns per pass and row groups depend on the lane, so the
//! kernel value (`Tuned`) names them in one entry point per backend rather
//! than in one lane-generic `run`; no backend is matched on here.  The lane
//! bodies are safe code: the lane token each entry point receives proves
//! the instruction set, and the lanes' `load`/`store` check their bounds.
//! Each body asserts its operands' bounds up front or cuts an operand to
//! the rows it walks, which lets the compiler drop most of those
//! per-access checks; what the block widths require of a lane (`LANES`
//! divides `IB`) is a `const` assertion, checked when the body is
//! instantiated.

use crate::householder::{larfg_with_norm, norm2};
use bidiag_matrix::simd::{self, LaneKernel, ScalarLane, SimdLane};
#[cfg(target_arch = "x86_64")]
use bidiag_matrix::simd::{Avx2Lane, Avx512Lane};
use bidiag_matrix::{Matrix, MatrixView};
use std::ops::Range;

/// Inner blocking factor (PLASMA's `ib`): reflectors are generated and
/// applied in chunks of `IB`, each through the corresponding diagonal
/// block of the full `T` factor.  The diagonal blocks of a forward larft
/// `T` are exactly the larft factors of the chunk's reflectors alone, so
/// chunking is an exact regrouping — it cuts the `T`-application overhead
/// from `k^2 n` to `k * IB * n` flops.  Eight is what the chunk kernels'
/// register blocking is built around (a chunk's reflectors are one 512-bit
/// or two 256-bit registers, a panel row one cache line, the corner
/// scratch 64 doubles) and divides the reference `nb = 64` evenly.
pub(crate) const IB: usize = 8;

/// The reflector chunks of `k` reflectors, first to last, as `(chunk
/// start, chunk width)`: the order both factorizations generate them in
/// and `Q^T` applies them in.
fn chunks(k: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..k).step_by(IB).map(move |p| (p, IB.min(k - p)))
}

// ---------------------------------------------------------------------------
// The fused chunk kernel of the QR side (left side, reflectors as lanes)
// ---------------------------------------------------------------------------

/// A reflector tile as the applies read it: column-major data and its
/// leading dimension (its row count).  A TS/TT tile in place, or the copy
/// of a GEQRT/GELQT tile its [`TFactor`] carries.
pub(crate) type Refl<'a> = (&'a [f64], usize);

/// Which rows of the reflector tile hold the stored tail of reflector `k`
/// — the only thing the six QR-side kernels differ in.  The LQ side stores
/// the transpose: read "column" for "row" there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Shape {
    /// GEQRT / UNMQR: `v_k = e_k +` rows `k+1..m` of column `k`, all in
    /// the rows of the one tile the reflectors act on.
    Trapezoid,
    /// TSQRT / TSMQR: `v_k = e_k` in the pivot tile `+` the whole column
    /// `k` of the second tile.
    Square,
    /// TTQRT / TTMQR: `v_k = e_k` in the pivot tile `+` rows `0..=k` of
    /// column `k` of the second tile.
    Triangle,
}

impl Shape {
    /// Stored tail rows of reflector `k` in an `m`-row tile.
    fn tail(self, k: usize, m: usize) -> Range<usize> {
        match self {
            Shape::Trapezoid => k + 1..m,
            Shape::Square => 0..m,
            Shape::Triangle => 0..(k + 1).min(m),
        }
    }

    /// `(dense, corner)` rows of the chunk `p..p+ib` in an `m`-row tile
    /// (columns, of an `m`-column tile, on the LQ side): the rows every
    /// reflector of the chunk stores, and the at most `IB` rows where the
    /// stored part is a triangle.
    fn chunk_split(self, p: usize, ib: usize, m: usize) -> (Range<usize>, Range<usize>) {
        match self {
            Shape::Trapezoid => (p + ib..m, p..p + ib),
            Shape::Square => (0..m, 0..0),
            Shape::Triangle => (0..p.min(m), p.min(m)..(p + ib).min(m)),
        }
    }
}

/// Rows of a chunk that are transposed into the panel at a time.
const PANEL_ROWS: usize = 64;
/// Columns of `C` whose `W` a chunk holds at a time (the left apply acts on
/// every column on its own, so `C` is simply cut into strips).
const STRIP: usize = 64;

/// The stack scratch of one left-side kernel call: `PANEL_ROWS` rows of a
/// chunk's reflectors transposed — row `i` at `panel[i]`, one cache line —
/// and `W` for `STRIP` columns of `C`, column `j` at
/// `w[j * IB..][..IB]`.  Bounded, so any tile height and width runs through
/// it without touching the heap; the reference tile fits in one piece.
#[repr(align(64))]
struct LeftScratch {
    panel: [[f64; IB]; PANEL_ROWS],
    w: [f64; STRIP * IB],
}

impl LeftScratch {
    fn new() -> Self {
        LeftScratch {
            panel: [[0.0; IB]; PANEL_ROWS],
            w: [0.0; STRIP * IB],
        }
    }
}

/// One `IB`-chunk of reflectors, ready to be applied: its dense and
/// corner rows, the densified corner and the chunk's `T` block.
struct Chunk<'a> {
    /// First reflector and width of the chunk.
    p: usize,
    ib: usize,
    dense: Range<usize>,
    corner: Range<usize>,
    /// The reflector tile, column-major with leading dimension `m`; only
    /// the `dense` rows of columns `p..p + ib` are read through it.
    v: &'a [f64],
    m: usize,
    /// Corner rows of reflector `kk` with the structure made explicit
    /// (zeros, and UNMQR's unit diagonal; rows beyond the corner zero).
    /// Only the stored part of the tile is read to fill it, so whatever
    /// else the tile holds never enters the arithmetic.
    kc: [[f64; IB]; IB],
    /// `-T^T` of the chunk, zero-padded to `IB x IB`: column `l` at
    /// `nt[l]`, so that `-T^T w = sum_l nt[:, l] w[l]`.
    nt: [[f64; IB]; IB],
}

impl<'a> Chunk<'a> {
    /// Chunk `p..p+ib` of the reflectors of `shape` stored in the `m`-row
    /// column-major tile `v` (leading dimension `m`), with `t` its `IB x
    /// ib` block of `T` (column-major, leading dimension `IB`).
    fn new(shape: Shape, v: &'a [f64], m: usize, p: usize, ib: usize, t: &[f64]) -> Self {
        let (dense, corner) = shape.chunk_split(p, ib, m);
        let mut kc = [[0.0; IB]; IB];
        let mut nt = [[0.0; IB]; IB];
        for kk in 0..ib {
            let vcol = &v[(p + kk) * m..][..m];
            match shape {
                Shape::Trapezoid => {
                    kc[kk][kk] = 1.0;
                    kc[kk][kk + 1..ib].copy_from_slice(&vcol[p + kk + 1..p + ib]);
                }
                Shape::Square => {}
                Shape::Triangle => {
                    let stored = corner.len().min(kk + 1);
                    kc[kk][..stored].copy_from_slice(&vcol[corner.start..][..stored]);
                }
            }
            // `T` is upper triangular: column `kk` of `T` is row `kk` of `T^T`.
            for (l, &tl) in t[kk * IB..][..=kk].iter().enumerate() {
                nt[l][kk] = -tl;
            }
        }
        Chunk {
            p,
            ib,
            dense,
            corner,
            v,
            m,
            kc,
            nt,
        }
    }

    /// The rows of `C` the chunk touches: the corner next to the dense
    /// rows, in tile order.
    fn rows(&self) -> Range<usize> {
        self.dense.start.min(self.corner.start)..self.dense.end.max(self.corner.end)
    }

    /// The chunk's reflectors as `(columns, rows of C)`: the dense rows
    /// straight off the tile (empty beyond `ib`), the corner's off `kc`.
    #[inline(always)]
    fn parts(&self) -> [([&[f64]; IB], Range<usize>); 2] {
        let (mut vd, mut vc): ([&[f64]; IB], [&[f64]; IB]) = ([&[]; IB], [&[]; IB]);
        for kk in 0..IB {
            if kk < self.ib {
                vd[kk] = &self.v[(self.p + kk) * self.m..][self.dense.clone()];
            }
            vc[kk] = &self.kc[kk][..self.corner.len()];
        }
        [(vd, self.dense.clone()), (vc, self.corner.clone())]
    }

    /// Rows `r0..r0 + nr` of the chunk's reflectors, structure explicit,
    /// transposed into `panel`: row `i` at `panel[i - r0]`, lanes beyond
    /// `ib` zero.  Dense rows of a full chunk go `LANES` at a
    /// time through register transposes.
    #[inline(always)]
    fn fill_panel<S: SimdLane>(&self, s: S, r0: usize, nr: usize, panel: &mut [[f64; IB]]) {
        const { assert!(IB.is_multiple_of(S::LANES)) };
        let panel = &mut panel[..nr];
        let (p, ib, m) = (self.p, self.ib, self.m);
        let dense = self.dense.start.max(r0)..self.dense.end.min(r0 + nr);
        let mut i = dense.start;
        if ib == IB {
            assert!(dense.end <= m && (p + IB) * m <= self.v.len());
            while i + S::LANES <= dense.end {
                for kb in (0..IB).step_by(S::LANES) {
                    let (src, dst) = (
                        &self.v[(p + kb) * m + i..],
                        &mut panel.as_flattened_mut()[(i - r0) * IB + kb..],
                    );
                    s.transpose(src, m, dst, IB);
                }
                i += S::LANES;
            }
        }
        for i in i..dense.end {
            for (kk, x) in panel[i - r0].iter_mut().enumerate() {
                *x = if kk < ib {
                    self.v[(p + kk) * m + i]
                } else {
                    0.0
                };
            }
        }
        for i in self.corner.start.max(r0)..self.corner.end.min(r0 + nr) {
            for (kk, x) in panel[i - r0].iter_mut().enumerate() {
                *x = self.kc[kk][i - self.corner.start];
            }
        }
    }
}

/// The `NC` columns of `W` stored at `w[j * IB..][..IB]`, as `RV` registers
/// each.
#[inline(always)]
fn load_w<S: SimdLane, const RV: usize, const NC: usize>(s: S, w: &[f64]) -> [[S::V; RV]; NC] {
    const { assert!(RV * S::LANES == IB) };
    assert!(w.len() >= NC * IB);
    let mut acc = [[s.zero(); RV]; NC];
    for (j, aj) in acc.iter_mut().enumerate() {
        for (r, ajr) in aj.iter_mut().enumerate() {
            *ajr = s.load(w, j * IB + r * S::LANES);
        }
    }
    acc
}

/// The inverse of [`load_w`].
#[inline(always)]
fn store_w<S: SimdLane, const RV: usize, const NC: usize>(
    s: S,
    w: &mut [f64],
    acc: [[S::V; RV]; NC],
) {
    const { assert!(RV * S::LANES == IB) };
    assert!(w.len() >= NC * IB);
    for (j, aj) in acc.iter().enumerate() {
        for (r, ajr) in aj.iter().enumerate() {
            s.store(w, j * IB + r * S::LANES, *ajr);
        }
    }
}

/// `acc[j] + sum_i panel[i, :] c[j][i]`: the reflectors of a chunk are the
/// vector axis — `RV` registers hold the `IB` of them for one column of `C`
/// — and the entries of `NC` columns are broadcast against one load of the
/// panel row, so nothing is ever summed across lanes.  With the rows of the
/// transposed reflectors as `panel` this accumulates `V_p^T C`, with the
/// columns of `-T^T` as `panel` and `W` as `c` it is the `T` product.
#[inline(always)]
fn vtc<S: SimdLane, const RV: usize, const NC: usize>(
    s: S,
    panel: &[[f64; IB]],
    c: [&[f64]; NC],
    mut acc: [[S::V; RV]; NC],
) -> [[S::V; RV]; NC] {
    const { assert!(RV * S::LANES == IB) };
    assert!(c.iter().all(|x| x.len() == panel.len()));
    for i in 0..panel.len() {
        let row = &panel[i];
        let mut pv = [s.zero(); RV];
        for (r, x) in pv.iter_mut().enumerate() {
            *x = s.load(row, r * S::LANES);
        }
        for (aj, cj) in acc.iter_mut().zip(&c) {
            let cij = s.splat(cj[i]);
            for (ajr, &x) in aj.iter_mut().zip(&pv) {
                *ajr = s.mul_add(x, cij, *ajr);
            }
        }
    }
    acc
}

/// `C[i0..i0 + G LANES, j] += sum_kk v[kk][at..at + G LANES] nw[j * IB + kk]`
/// for the `n` columns of `c` (leading dimension `ldc`): the mirror image
/// of the last sweep of [`right_rows`].  The chunk's reflectors at `G`
/// groups of `LANES` rows sit in `G * IB` registers — zero where `v[kk]` is
/// empty, beyond the chunk's width — and each column of `C` is loaded once
/// per group, takes `IB` FMAs per group against broadcast entries of `-W`
/// (`nw`, column `j` at `nw[j * IB..][..IB]`), one broadcast feeding all
/// `G` groups, and is stored.  Every entry of `C` takes the same FMAs in
/// the same order whatever `G` is.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn cvw<S: SimdLane, const G: usize>(
    s: S,
    v: &[&[f64]; IB],
    at: usize,
    nw: &[f64],
    c: &mut [f64],
    ldc: usize,
    i0: usize,
    n: usize,
) {
    let rows = G * S::LANES;
    assert!(i0 <= ldc && rows <= ldc - i0 && n * IB <= nw.len());
    assert!(v.iter().all(|x| x.is_empty() || at + rows <= x.len()));
    let mut vr = [[s.zero(); IB]; G];
    for (g, vg) in vr.iter_mut().enumerate() {
        for (x, vk) in vg.iter_mut().zip(v) {
            if !vk.is_empty() {
                *x = s.load(vk, at + g * S::LANES);
            }
        }
    }
    // Whole columns, so that the assert above is the check of every cut.
    for (col, nwj) in c[..n * ldc].chunks_exact_mut(ldc).zip(nw.chunks_exact(IB)) {
        let col = &mut col[i0..][..rows];
        let mut cj = [s.zero(); G];
        for (g, x) in cj.iter_mut().enumerate() {
            *x = s.load(col, g * S::LANES);
        }
        for (kk, &w) in nwj.iter().enumerate() {
            let w = s.splat(w);
            for (x, vg) in cj.iter_mut().zip(&vr) {
                *x = s.mul_add(vg[kk], w, *x);
            }
        }
        for (g, &x) in cj.iter().enumerate() {
            s.store(col, g * S::LANES, x);
        }
    }
}

/// The `T` product of one chunk with the second index of `W` as SIMD
/// lanes, `W` of `G` row groups in registers: `(W T)[:, i] = sum_{l <= i}
/// T[l, i] w[l]` — what the right kernel needs, its `Q^T` being `C - (C
/// V) T V^T` (lanes = rows of `C`) — with one broadcast of `T[l, i]` for
/// all `G` groups.  `t` is the chunk's `IB x ib` block, leading dimension
/// `IB`; called with the constant `ib == IB` the triangular product
/// unrolls into 36 independent-by-row FMAs per group.
#[inline(always)]
fn t_product<S: SimdLane, const G: usize>(
    s: S,
    t: &[f64],
    ib: usize,
    w: &[[S::V; IB]; G],
) -> [[S::V; IB]; G] {
    let t = &t[..IB * ib];
    let mut out = [[s.zero(); IB]; G];
    for i in 0..ib {
        // A square loop that skips `l > i`: the triangular `0..=i`
        // unrolls worse on 256 bits, and the LQ factorizations read
        // 4-10 % slower with it.
        for l in 0..ib {
            if l > i {
                continue;
            }
            let tij = s.splat(t[i * IB + l]);
            for (og, wg) in out.iter_mut().zip(w) {
                og[i] = s.mul_add(tij, wg[l], og[i]);
            }
        }
    }
    out
}

/// Apply one chunk to the `n` columns of the column-major `c` (leading
/// dimension `ldc`, as many rows as the reflector tile) and, for TS/TT, to
/// rows `p..p+ib` of the matching columns of the pivot tile `head`
/// (`(data, ld)`), a strip of columns at a time:
///
/// 1. `W = H + V_p^T C` through the transposed panel ([`vtc`], `NC` columns
///    per pass; the columns of a ragged last pass repeat the strip's last
///    one and their `W` is never read),
/// 2. `W = -T^T W`, the same loop over the columns of `-T^T`,
/// 3. `H += W`, `C += V_p W` with the rows of `C` as lanes ([`cvw`], `G`
///    groups of `LANES` rows per pass; the rows left over go a group at a
///    time, then one at a time).
///
/// All three shapes and a last chunk narrower than `IB` (zero lanes) run
/// the same code.
#[inline(always)]
fn apply_chunk<S: SimdLane, const RV: usize, const NC: usize, const G: usize>(
    s: S,
    ch: &Chunk<'_>,
    scratch: &mut LeftScratch,
    mut head: Option<(&mut [f64], usize)>,
    c: &mut [f64],
    ldc: usize,
    n: usize,
) {
    const { assert!(STRIP.is_multiple_of(NC)) };
    let LeftScratch { panel, w } = scratch;
    let (rows, ib) = (ch.rows(), ch.ib);
    for j0 in (0..n).step_by(STRIP) {
        let ns = STRIP.min(n - j0);
        let c = &mut c[j0 * ldc..(j0 + ns) * ldc];
        for (j, wj) in w.chunks_exact_mut(IB).enumerate().take(ns) {
            match head.as_ref() {
                None => wj.fill(0.0),
                Some((h, ldh)) => {
                    let hj = &h[(j0 + j) * ldh + ch.p..];
                    // A constant length for all but the last chunk.
                    if ib == IB {
                        wj.copy_from_slice(&hj[..IB]);
                    } else {
                        wj[..ib].copy_from_slice(&hj[..ib]);
                        wj[ib..].fill(0.0);
                    }
                }
            }
        }
        // The spare columns of a ragged last pass start from zero, so what
        // accumulates in them is the last column's `V_p^T C` (never read)
        // and not what earlier chunks and strips left there.
        w[ns * IB..ns.next_multiple_of(NC) * IB].fill(0.0);
        for r0 in rows.clone().step_by(PANEL_ROWS) {
            let nr = PANEL_ROWS.min(rows.end - r0);
            ch.fill_panel(s, r0, nr, panel);
            for jb in (0..ns).step_by(NC) {
                let mut cols: [&[f64]; NC] = [&[]; NC];
                for (j, cj) in cols.iter_mut().enumerate() {
                    *cj = &c[(jb + j).min(ns - 1) * ldc..][r0..r0 + nr];
                }
                let wb = &mut w[jb * IB..][..NC * IB];
                let acc = vtc::<S, RV, NC>(s, &panel[..nr], cols, load_w(s, wb));
                store_w(s, wb, acc);
            }
        }
        for wb in w[..ns.next_multiple_of(NC) * IB].chunks_exact_mut(NC * IB) {
            let mut cols: [&[f64]; NC] = [&[]; NC];
            for (j, cj) in cols.iter_mut().enumerate() {
                *cj = &wb[j * IB..][..IB];
            }
            let acc = vtc::<S, RV, NC>(s, &ch.nt, cols, [[s.zero(); RV]; NC]);
            store_w(s, wb, acc);
        }
        if let Some((h, ldh)) = head.as_mut() {
            for (j, wj) in w.chunks_exact(IB).enumerate().take(ns) {
                let hj = &mut h[(j0 + j) * *ldh + ch.p..];
                // By value, and of constant length for all but the last
                // chunk: one vector add.
                let wj: [f64; IB] = wj.try_into().expect("chunks of IB");
                if ib == IB {
                    hj[..IB].iter_mut().zip(wj).for_each(|(h, w)| *h += w);
                } else {
                    hj[..ib].iter_mut().zip(wj).for_each(|(h, w)| *h += w);
                }
            }
        }
        for (cols, rows) in ch.parts() {
            let mut i = 0;
            while i + G * S::LANES <= rows.len() {
                cvw::<S, G>(s, &cols, i, w, c, ldc, rows.start + i, ns);
                i += G * S::LANES;
            }
            while i + S::LANES <= rows.len() {
                cvw::<S, 1>(s, &cols, i, w, c, ldc, rows.start + i, ns);
                i += S::LANES;
            }
            while i < rows.len() {
                cvw::<_, 1>(ScalarLane, &cols, i, w, c, ldc, rows.start + i, ns);
                i += 1;
            }
        }
    }
}

/// Lane-generic body of [`apply`]: `RV * LANES == IB`, `NC` columns of `C`
/// share one pass over a chunk's panel, and `C += V_p W` runs `G` row
/// groups per pass.
#[inline(always)]
fn apply_body<S: SimdLane, const RV: usize, const NC: usize, const G: usize>(
    s: S,
    shape: Shape,
    (v, ldv): Refl<'_>,
    tf: &TFactor,
    mut head: Option<&mut Matrix>,
    c: &mut Matrix,
) {
    let (m, n) = (c.rows(), c.cols());
    debug_assert_eq!(ldv, m);
    let mut scratch = LeftScratch::new();
    for (p, ib) in chunks(tf.len()) {
        let ch = Chunk::new(shape, v, m, p, ib, tf.t_block_data(p));
        let h = head.as_deref_mut().map(|h| {
            let ldh = h.rows();
            (h.data_mut(), ldh)
        });
        apply_chunk::<S, RV, NC, G>(s, &ch, &mut scratch, h, c.data_mut(), m, n);
    }
}

/// The entry the `e_k` head of reflector `k` meets in column `j`, and the
/// rows of that column (`col`, of the reflector tile) its tail meets: row
/// `k` of the column itself and what lies below it for the trapezoid
/// (`r1 == None`), entry `(k, j)` of the pivot tile and `tail` otherwise.
fn head_and_tail<'a>(
    r1: Option<&'a mut Matrix>,
    col: &'a mut [f64],
    k: usize,
    j: usize,
    tail: Range<usize>,
) -> (&'a mut f64, &'a mut [f64]) {
    match r1 {
        None => {
            let (head, below) = col.split_at_mut(k + 1);
            (&mut head[k], below)
        }
        Some(r1) => {
            let ld = r1.rows();
            (&mut r1.data_mut()[j * ld + k], &mut col[tail])
        }
    }
}

/// Lane-generic body of [`factor`]; the trailing update is [`apply_chunk`]
/// with the parameters of [`apply_body`].
#[inline(always)]
fn factor_body<S: SimdLane, const RV: usize, const NC: usize, const G: usize>(
    s: S,
    shape: Shape,
    mut r1: Option<&mut Matrix>,
    a: &mut Matrix,
) -> TFactor {
    let (m, n) = (a.rows(), a.cols());
    let mut scratch = LeftScratch::new();
    let (kmax, ld1) = match &r1 {
        None => (m.min(n), 0),
        Some(r1) => (n.min(r1.rows()), r1.rows()),
    };
    let mut tf = TFactor::with_kmax(kmax, (shape == Shape::Trapezoid).then_some(&*a));
    for (p, ib) in chunks(kmax) {
        // Unblocked factorization of the panel `p..p+ib`.
        for k in p..p + ib {
            let tail = shape.tail(k, m);
            let (left, right) = a.data_mut().split_at_mut((k + 1) * m);
            let (done, colk) = left.split_at_mut(k * m);
            let tau = {
                let (alpha, vk) = head_and_tail(r1.as_deref_mut(), colk, k, k, tail.clone());
                let ss = simd::dot_body(s, vk, vk);
                // A sum of squares in this range neither overflowed nor
                // lost anything to underflow that matters at working
                // precision; anything else takes the scaled norm, whose
                // per-element division would otherwise be a fifth of the
                // factorization.
                let xnorm = if (1e-280..1e280).contains(&ss) {
                    ss.sqrt()
                } else {
                    norm2(&*vk)
                };
                let r = larfg_with_norm(*alpha, vk, xnorm);
                *alpha = r.beta;
                r.tau
            };
            let vk = &colk[tail.clone()];
            if tau != 0.0 {
                for j in k + 1..p + ib {
                    let cj = &mut right[(j - k - 1) * m..][..m];
                    let (head, ct) = head_and_tail(r1.as_deref_mut(), cj, k, j, tail.clone());
                    let w = tau * (*head + simd::dot_body(s, vk, ct));
                    *head -= w;
                    simd::axpy_body(s, ct, -w, vk);
                }
            }
            // Column k of the chunk's T block: vdots[l - p] = v_l^T v_k over
            // the rows both reflectors store (the `e` heads of two TS/TT
            // reflectors are orthogonal; the trapezoid's `e_k` meets row
            // `k` of `v_l`).
            let mut vdots = [0.0f64; IB];
            for l in p..k {
                let both = tail.start..tail.end.min(shape.tail(l, m).end);
                let cl = &done[l * m..][..m];
                let d = simd::dot_body(s, &cl[both.clone()], &colk[both]);
                vdots[l - p] = match shape {
                    Shape::Trapezoid => cl[k] + d,
                    Shape::Square | Shape::Triangle => d,
                };
            }
            tf.append(tau, &vdots[..k - p]);
        }
        // Level-3 update of the trailing columns with the panel's chunk.
        if p + ib < n {
            let (panel, trailing) = a.data_mut().split_at_mut((p + ib) * m);
            let ch = Chunk::new(shape, panel, m, p, ib, tf.t_block_data(p));
            let h = r1
                .as_deref_mut()
                .map(|r1| (&mut r1.data_mut()[(p + ib) * ld1..], ld1));
            apply_chunk::<S, RV, NC, G>(s, &ch, &mut scratch, h, trailing, m, n - p - ib)
        }
    }
    if shape == Shape::Trapezoid {
        tf.keep_reflectors(a);
    }
    tf
}

// ---------------------------------------------------------------------------
// The fused chunk kernel of the LQ applies (right side, rows of C as lanes)
// ---------------------------------------------------------------------------

/// One `IB`-chunk of *row-wise* stored reflectors (reflector `k` is row `k`
/// of the tile), ready to be applied from the right.  The coefficients of
/// the chunk at one column of `C` — `v[p..p+ib, j]` — are contiguous in the
/// column-major tile, so dense columns are read in place and the corner is
/// densified per column.
struct RowChunk<'a> {
    /// First reflector and width of the chunk.
    p: usize,
    ib: usize,
    /// The columns of `C` the chunk touches: the dense ones, which every
    /// reflector of the chunk stores, and the at most `IB` of the corner.
    dense: Range<usize>,
    corner: Range<usize>,
    /// The reflector tile from `v[p, dense.start]` on (empty without dense
    /// columns, or when the reflectors are rows `p..p+ib` of `C` itself, in
    /// a factorization's trailing update) and its leading dimension.
    vd: &'a [f64],
    ldv: usize,
    /// `kc[jj][kk]`: the coefficient of reflector `p + kk` at corner column
    /// `jj` with the structure made explicit (zeros, and UNMLQ's unit
    /// diagonal).  Only the stored part of the tile is read to fill it.
    kc: [[f64; IB]; IB],
    /// The chunk's `IB x ib` block of `T`, column-major, leading dimension `IB`.
    t: &'a [f64],
}

impl<'a> RowChunk<'a> {
    /// Chunk `p..p+ib` of the reflectors of `shape` stored in the rows of
    /// the `n`-column column-major tile `v` (leading dimension `ldv`).  The
    /// corner is copied out of `v` here; the dense columns are read from
    /// `C` itself unless the tile is given to [`RowChunk::reading`].
    fn new(
        shape: Shape,
        v: &[f64],
        ldv: usize,
        n: usize,
        p: usize,
        ib: usize,
        t: &'a [f64],
    ) -> Self {
        let (dense, corner) = shape.chunk_split(p, ib, n);
        let mut kc = [[0.0; IB]; IB];
        for (jj, j) in corner.clone().enumerate() {
            let vcol = &v[j * ldv + p..][..ib];
            match shape {
                // Unit upper: reflector kk reaches column p + jj for jj >= kk.
                Shape::Trapezoid => {
                    kc[jj][..jj].copy_from_slice(&vcol[..jj]);
                    kc[jj][jj] = 1.0;
                }
                Shape::Square => {}
                // Lower: reflector kk reaches column p + jj for jj <= kk.
                Shape::Triangle => kc[jj][jj..ib].copy_from_slice(&vcol[jj..]),
            }
        }
        RowChunk {
            p,
            ib,
            vd: &[],
            dense,
            corner,
            ldv,
            kc,
            t,
        }
    }

    /// The chunk with its dense columns read from the tile `v` it was made
    /// from, not from `C`.
    fn reading(self, v: &'a [f64]) -> Self {
        let vd = v.get(self.dense.start * self.ldv + self.p..).unwrap_or(&[]);
        RowChunk { vd, ..self }
    }

    /// The chunk's coefficients as `(array, stride, columns of C)`: those of
    /// the `n`-th column of `columns` are `array[n * stride..][..ib]`.  The
    /// dense columns come straight off the tile (none without one: see
    /// [`right_rows`]), the corner's off `kc`.
    #[inline(always)]
    fn parts(&self) -> [(&[f64], usize, Range<usize>); 2] {
        [
            (self.vd, self.ldv, self.dense.clone()),
            (self.kc.as_flattened(), IB, self.corner.clone()),
        ]
    }
}

/// The `ib` coefficients at `coef[at..]` of one column of `C`.  `OWN`: the
/// dense coefficients are rows `p..p+ib` of `C` itself, at `c[c_at..]` when
/// `coef` is empty, and are copied into `own` before `C` is written.
#[inline(always)]
fn coefs<'a, const OWN: bool>(
    coef: &'a [f64],
    at: usize,
    c: &[f64],
    c_at: usize,
    ib: usize,
    own: &'a mut [f64; IB],
) -> &'a [f64] {
    if OWN {
        let src = if coef.is_empty() {
            &c[c_at..]
        } else {
            &coef[at..]
        };
        own[..ib].copy_from_slice(&src[..ib]);
        &own[..ib]
    } else {
        &coef[at..][..ib]
    }
}

/// Apply one chunk to rows `i0..i0 + G LANES` of `c` (leading dimension
/// `ld`) and, for TS/TT, of `head` — columns `p..p+ib` of the pivot tile,
/// same leading dimension.  `W = H + C V_p` accumulates in `G * ib`
/// registers from one load of `C[i0.., j]` per group and `ib` coefficient
/// broadcasts per column, each feeding all `G` groups; `W T` is
/// [`t_product`], and `C[:, j] -= W v[p.., j]` re-reads the row
/// groups, again one broadcast per coefficient for all of them.  Every
/// entry of `C`, `H` and `W` takes the same FMAs in the same order whatever
/// `G` is.  `FULL` makes `ib` the constant `IB`, so everything unrolls and
/// `W` never leaves the registers.  `OWN` says the dense coefficients are
/// rows `p..p+ib` of `c` itself — a factorization's trailing update.
#[inline(always)]
fn right_rows<S: SimdLane, const FULL: bool, const G: usize, const OWN: bool>(
    s: S,
    ch: &RowChunk<'_>,
    mut head: Option<&mut [f64]>,
    c: &mut [f64],
    ld: usize,
    i0: usize,
) {
    let (ib, rows) = (if FULL { IB } else { ch.ib }, G * S::LANES);
    // Columns are cut whole (`chunks_exact(ld)`), so that this is the check
    // of every cut of rows `i0..i0 + rows` out of one.
    assert!(ib == ch.ib && i0 <= ld && rows <= ld - i0);
    assert!(head.as_ref().is_none_or(|h| ib * ld <= h.len()));
    let mut w = [[s.zero(); IB]; G];
    if let Some(h) = head.as_ref() {
        for (kk, hk) in h.chunks_exact(ld).take(ib).enumerate() {
            let hk = &hk[i0..][..rows];
            for (g, wg) in w.iter_mut().enumerate() {
                wg[kk] = s.load(hk, g * S::LANES);
            }
        }
    }
    for (coef, stride, cols) in ch.parts() {
        for (n, col) in c[cols.start * ld..cols.end * ld]
            .chunks_exact(ld)
            .enumerate()
        {
            let cr = &col[i0..][..rows];
            let mut cj = [s.zero(); G];
            for (g, x) in cj.iter_mut().enumerate() {
                *x = s.load(cr, g * S::LANES);
            }
            let own = &mut [0.0; IB];
            let coef = coefs::<OWN>(coef, n * stride, col, ch.p, ib, own);
            for (kk, &v) in coef.iter().enumerate() {
                let v = s.splat(v);
                for (wg, &x) in w.iter_mut().zip(&cj) {
                    wg[kk] = s.mul_add(x, v, wg[kk]);
                }
            }
        }
    }
    let mut w = t_product(s, ch.t, ib, &w);
    let minus = s.splat(-1.0);
    for wg in w.iter_mut() {
        for wk in wg.iter_mut().take(ib) {
            *wk = s.mul(*wk, minus);
        }
    }
    if let Some(h) = head.as_mut() {
        for (kk, hk) in h.chunks_exact_mut(ld).take(ib).enumerate() {
            let hk = &mut hk[i0..][..rows];
            for (g, wg) in w.iter().enumerate() {
                s.store(hk, g * S::LANES, s.add(s.load(hk, g * S::LANES), wg[kk]));
            }
        }
    }
    for (coef, stride, cols) in ch.parts() {
        for (n, col) in c[cols.start * ld..cols.end * ld]
            .chunks_exact_mut(ld)
            .enumerate()
        {
            let mut cj = [s.zero(); G];
            for (g, x) in cj.iter_mut().enumerate() {
                *x = s.load(&col[i0..][..rows], g * S::LANES);
            }
            let own = &mut [0.0; IB];
            let coef = coefs::<OWN>(coef, n * stride, col, ch.p, ib, own);
            for (kk, &v) in coef.iter().enumerate() {
                let v = s.splat(v);
                for (x, wg) in cj.iter_mut().zip(&w) {
                    *x = s.mul_add(wg[kk], v, *x);
                }
            }
            let cr = &mut col[i0..][..rows];
            for (g, &x) in cj.iter().enumerate() {
                s.store(cr, g * S::LANES, x);
            }
        }
    }
}

/// Apply one chunk to the rows `rows` of `c` and `head` (leading dimension
/// `ld`; `OWN` as for [`right_rows`]): `G` lane groups at a time, then the
/// groups left over one at a time, then the leftover rows one at a time,
/// all through the same arithmetic.
#[inline(always)]
fn right_chunk<S: SimdLane, const FULL: bool, const G: usize, const OWN: bool>(
    s: S,
    ch: &RowChunk<'_>,
    mut head: Option<&mut [f64]>,
    c: &mut [f64],
    ld: usize,
    rows: Range<usize>,
) {
    let mut i0 = rows.start;
    while i0 + G * S::LANES <= rows.end {
        right_rows::<S, FULL, G, OWN>(s, ch, head.as_deref_mut(), c, ld, i0);
        i0 += G * S::LANES;
    }
    while i0 + S::LANES <= rows.end {
        right_rows::<S, FULL, 1, OWN>(s, ch, head.as_deref_mut(), c, ld, i0);
        i0 += S::LANES;
    }
    while i0 < rows.end {
        right_rows::<_, FULL, 1, OWN>(ScalarLane, ch, head.as_deref_mut(), c, ld, i0);
        i0 += 1;
    }
}

/// Lane-generic body of [`apply_right`]: `G` row groups per pass of the
/// chunk kernel.
#[inline(always)]
fn apply_right_body<S: SimdLane, const G: usize>(
    s: S,
    shape: Shape,
    (v, ldv): Refl<'_>,
    tf: &TFactor,
    mut head: Option<&mut Matrix>,
    c: &mut Matrix,
) {
    let (r, n) = (c.rows(), c.cols());
    for (p, ib) in chunks(tf.len()) {
        let t = tf.t_block_data(p);
        let ch = RowChunk::new(shape, v, ldv, n, p, ib, t).reading(v);
        let h = head
            .as_deref_mut()
            .map(|h| &mut h.data_mut()[p * r..(p + ib) * r]);
        if ib == IB {
            right_chunk::<S, true, G, false>(s, &ch, h, c.data_mut(), r, 0..r);
        } else {
            right_chunk::<S, false, G, false>(s, &ch, h, c.data_mut(), r, 0..r);
        }
    }
}

// ---------------------------------------------------------------------------
// The LQ factorizations (right side, panel rows as lanes)
// ---------------------------------------------------------------------------

/// One `IB`-row panel of an LQ factorization: rows `p..p+ib` of an `m x n`
/// column-major tile whose reflectors have the shape `shape`.
#[derive(Clone, Copy)]
struct RowPanel {
    shape: Shape,
    m: usize,
    n: usize,
    p: usize,
    ib: usize,
}

impl RowPanel {
    /// The tail of row `p + kk` as `(vec, rest)`: the columns every row of
    /// a full panel stores, taken `IB` rows at a time, and the others
    /// (TTLQT's corner, all of a narrow last panel), one entry at a time
    /// over the rows that store them, so that no unstored entry is read.
    fn tail(self, kk: usize) -> (Range<usize>, Range<usize>) {
        let t = self.shape.tail(self.p + kk, self.n);
        let full = match self.shape {
            _ if self.ib < IB => 0,
            Shape::Triangle => self.p.min(self.n),
            _ => self.n,
        };
        let end = t.end.min(full).max(t.start);
        (t.start..end, end..t.end)
    }

    /// One pass over the tail of row `p + kk` of `a`, the panel's rows as
    /// the lanes: `X_j = sv X_j + nw X_j[kk]` lane by lane — the reflector
    /// of row `p + kk` applied to the rows below it (`nw`, zero from lane
    /// `kk` up) while that row is scaled (`sv`, one but at lane `kk`) — then
    /// the sum of `X_j X_j[r]` over the tail of row `p + r`: lane `r` of it
    /// is that row's sum of squares, the others its dots with the rows
    /// above and below.  So one pass applies a reflector and takes the next
    /// one's dots.  Consecutive columns feed `4 / RV` accumulators.
    #[inline(always)]
    fn pass<S: SimdLane, const RV: usize>(
        self,
        s: S,
        a: &mut [f64],
        kk: usize,
        [nw, sv]: [&[f64; IB]; 2],
        r: usize,
    ) -> [f64; IB] {
        let (m, p, ib) = (self.m, self.p, self.ib);
        let ((cols, rest), (r_cols, r_rest)) = (self.tail(kk), self.tail(r));
        let lo = |j: usize| match self.shape {
            Shape::Triangle => j.saturating_sub(p),
            _ => 0,
        };
        assert!(kk < IB && r < IB);
        let mut out = [0.0; IB];
        // Lane `r` of the updated column, broadcast: taken from the
        // column before it is stored, by the same lane arithmetic.
        let (nwr, svr) = (s.splat(nw[r]), s.splat(sv[r]));
        let [nwv, svv] = [load_w::<S, RV, 1>(s, nw)[0], load_w::<S, RV, 1>(s, sv)[0]];
        let mut acc = [[s.zero(); RV]; 4];
        for j0 in cols.clone().step_by(4 / RV) {
            for (u, acc) in acc.iter_mut().enumerate().take(4 / RV) {
                let j = j0 + u;
                if j >= cols.end {
                    break;
                }
                let x: &mut [f64; IB] = (&mut a[j * m + p..][..IB]).try_into().expect("IB");
                let (mut v, xk) = (load_w::<S, RV, 1>(s, x)[0], s.splat(x[kk]));
                for ((v, nw), sv) in v.iter_mut().zip(nwv).zip(svv) {
                    *v = s.mul_add(nw, xk, s.mul(*v, sv));
                }
                if j >= r_cols.start {
                    let xr = s.mul_add(nwr, xk, s.mul(s.splat(x[r]), svr));
                    for (acc, v) in acc.iter_mut().zip(v) {
                        *acc = s.mul_add(v, xr, *acc);
                    }
                }
                store_w::<S, RV, 1>(s, x, [v]);
            }
        }
        let mut sum = [[s.zero(); RV]];
        for (r, x) in sum[0].iter_mut().enumerate() {
            *x = s.add(s.add(acc[0][r], acc[1][r]), s.add(acc[2][r], acc[3][r]));
        }
        store_w(s, &mut out, sum);
        for j in rest {
            for i in lo(j).max(kk + 1)..ib {
                a[j * m + p + i] += nw[i] * a[j * m + p + kk];
            }
            a[j * m + p + kk] *= sv[kk];
        }
        for j in r_rest {
            for i in lo(j)..ib {
                out[i] += a[j * m + p + i] * a[j * m + p + r];
            }
        }
        out
    }
}

/// Entry `at` of the tile holding the reflectors' heads: `l1` (leading
/// dimension `m`, like `a`), or `a` itself for GELQT.
fn head<'h>(l1: &'h mut Option<&mut [f64]>, a: &'h mut [f64], at: usize) -> &'h mut f64 {
    match l1 {
        Some(l1) => &mut l1[at],
        None => &mut a[at],
    }
}

/// Lane-generic body of [`factor_right`], the mirror image of
/// [`factor_body`]: an `IB`-row panel is factored unblocked with its rows
/// as the lanes — each reflector's sum of squares, the `w` of the rows
/// below it and the `vdots` of its `T` column come from one
/// [`RowPanel::pass`], the one that applied the reflector before — then
/// the rows below the panel are updated with [`right_chunk`] at `G` row
/// groups, reading the chunk from those very columns.
#[inline(always)]
fn factor_right_body<S: SimdLane, const RV: usize, const G: usize>(
    s: S,
    shape: Shape,
    mut l1: Option<&mut Matrix>,
    a: &mut Matrix,
) -> TFactor {
    let (m, n) = (a.rows(), a.cols());
    let kmax = l1.as_ref().map_or(n, |l1| l1.cols()).min(m);
    let mut tf = TFactor::with_kmax(kmax, (shape == Shape::Trapezoid).then_some(&*a));
    for (p, ib) in chunks(kmax) {
        let pan = RowPanel { shape, m, n, p, ib };
        let (data, mut heads) = (a.data_mut(), l1.as_deref_mut().map(|l1| l1.data_mut()));
        let mut next = None;
        for (kk, k) in (p..p + ib).enumerate() {
            let same = [&[0.0; IB], &[1.0; IB]];
            let mut dots = match next.take() {
                Some(dots) => dots,
                None => pan.pass::<S, RV>(s, data, kk, same, kk),
            };
            let (ss, tail) = (dots[kk], shape.tail(k, n));
            let fast = (1e-280..1e280).contains(&ss) && dots[..ib].iter().all(|d| d.is_finite());
            let row = data[k..]
                .iter()
                .step_by(m)
                .skip(tail.start)
                .take(tail.len());
            let xnorm = if fast { ss.sqrt() } else { norm2(row) };
            // The fast path scales the row in the update pass, the other
            // here, and takes its dots again.
            let alpha = *head(&mut heads, data, k * m + k);
            let row = data[k..].iter_mut().step_by(m).skip(tail.start);
            let r = larfg_with_norm(alpha, row.take(if fast { 0 } else { tail.len() }), xnorm);
            *head(&mut heads, data, k * m + k) = r.beta;
            let vs = if fast {
                1.0 / (alpha - r.beta)
            } else {
                dots = pan.pass::<S, RV>(s, data, kk, same, kk);
                1.0
            };
            let (mut nw, mut sv) = ([0.0; IB], [1.0; IB]);
            sv[kk] = vs;
            for i in kk + 1..ib {
                let h = head(&mut heads, data, k * m + p + i);
                let w = r.tau * (*h + vs * dots[i]);
                *h -= w;
                nw[i] = -w * vs;
            }
            // Column k of the chunk's T block: v_l^T v_k over the columns
            // both reflectors store, and GELQT's `e_k` meeting column k of v_l.
            let mut vdots = [0.0; IB];
            for (l, v) in vdots[..kk].iter_mut().enumerate() {
                let e = if shape == Shape::Trapezoid {
                    data[k * m + p + l]
                } else {
                    0.0
                };
                *v = vs * dots[l] + e;
            }
            if r.tau != 0.0 {
                let d = pan.pass::<S, RV>(s, data, kk, [&nw, &sv], (kk + 1).min(ib - 1));
                next = (kk + 1 < ib).then_some(d);
            }
            tf.append(r.tau, &vdots[..kk]);
        }
        if p + ib < m {
            let t = tf.t_block_data(p);
            let ch = RowChunk::new(shape, a.data(), m, n, p, ib, t);
            let h = l1
                .as_deref_mut()
                .map(|l1| &mut l1.data_mut()[p * m..(p + ib) * m]);
            let below = p + ib..m;
            if ib == IB {
                right_chunk::<S, true, G, true>(s, &ch, h, a.data_mut(), m, below);
            } else {
                right_chunk::<S, false, G, true>(s, &ch, h, a.data_mut(), m, below);
            }
        }
    }
    if shape == Shape::Trapezoid {
        tf.keep_reflectors(a);
    }
    tf
}

// ---------------------------------------------------------------------------
// The scalar rows and the per-backend constants
// ---------------------------------------------------------------------------

/// [`ScalarLane`]s side by side: the lane both chunk kernels run on under
/// the scalar backend, so that one coefficient load feeds `ROWS` rows of `C`
/// — and one load of `C` a whole chunk of reflectors — there as well
/// (unfused multiply-adds, like [`ScalarLane`]).  Eight measured best on
/// the SSE2 baseline: the right kernel's loop is bound by the shuffles that
/// broadcast the coefficients, one per reflector and group, and the left
/// one reads 79 us per TSMQR with it against 114 us on single
/// [`ScalarLane`]s, whose row-at-a-time `C -= V_p W` strides across `C`.
#[derive(Clone, Copy)]
struct ScalarRows;

const ROWS: usize = 8;

impl SimdLane for ScalarRows {
    const LANES: usize = ROWS;
    type V = [f64; ROWS];

    #[inline(always)]
    fn splat(self, x: f64) -> Self::V {
        [x; ROWS]
    }
    #[inline(always)]
    fn zero(self) -> Self::V {
        [0.0; ROWS]
    }
    #[inline(always)]
    fn load(self, p: &[f64], i: usize) -> Self::V {
        p[i..i + ROWS].try_into().expect("ROWS values")
    }
    #[inline(always)]
    fn store(self, p: &mut [f64], i: usize, v: Self::V) {
        p[i..i + ROWS].copy_from_slice(&v);
    }
    #[inline(always)]
    fn load_head(self, p: &[f64], i: usize, k: usize) -> Self::V {
        assert!((1..=ROWS).contains(&k), "a head of {k} rows");
        let mut v = [0.0; ROWS];
        v[..k].copy_from_slice(&p[i..i + k]);
        v
    }
    #[inline(always)]
    fn store_head(self, p: &mut [f64], i: usize, k: usize, v: Self::V) {
        assert!((1..=ROWS).contains(&k), "a head of {k} rows");
        p[i..i + k].copy_from_slice(&v[..k]);
    }
    #[inline(always)]
    fn add(self, a: Self::V, b: Self::V) -> Self::V {
        std::array::from_fn(|l| a[l] + b[l])
    }
    #[inline(always)]
    fn mul(self, a: Self::V, b: Self::V) -> Self::V {
        std::array::from_fn(|l| a[l] * b[l])
    }
    #[inline(always)]
    fn mul_add(self, a: Self::V, b: Self::V, c: Self::V) -> Self::V {
        std::array::from_fn(|l| a[l] * b[l] + c[l])
    }
    #[inline(always)]
    fn reduce_sum(self, a: Self::V) -> f64 {
        a.iter().sum()
    }
}

/// A call of one of the chunk kernels, generic over the lane and the
/// constants that depend on it: `RV` registers per `IB` reflectors (or
/// panel rows), `NC` columns of `C` per pass of the left kernel, and `GL` /
/// `GR` row groups per pass of the left / right one.  [`Tuned`] picks them.
trait ChunkCall {
    type Output;

    /// The call on lane `s`, whose token proves its ISA.
    fn call<S: SimdLane, const RV: usize, const NC: usize, const GL: usize, const GR: usize>(
        self,
        s: S,
    ) -> Self::Output;
}

/// A [`ChunkCall`] with each backend's constants.  Stable Rust cannot
/// compute them from the lane, so this kernel overrides the per-backend
/// entry points of [`LaneKernel`] instead of writing one `run`.
///
/// Row groups per pass (`GL`, `GR`) by a sweep over 1, 2 and 3 at nb = 64
/// and 128: two on both sides of both vector lanes.  Three spills on the
/// right (`W` alone is 24 of 32 registers at 512 bits) and leaves two groups
/// of a 64-row tile over on the left, both slower than two at nb = 64.  The
/// scalar backend runs eight [`ScalarRows`] side by side with two groups on
/// the left and one on the right: at two its right-side `W` no longer fits
/// the SSE2 registers, and TSMLQ reads 1.7x slower.
struct Tuned<K>(K);

impl<K: ChunkCall> LaneKernel for Tuned<K> {
    type Output = K::Output;

    /// The portable instantiation, on [`ScalarRows`] whatever the lane:
    /// what the scalar backend runs.
    #[inline(always)]
    fn run<S: SimdLane>(self, _: S) -> K::Output {
        self.0.call::<ScalarRows, 1, 2, 2, 1>(ScalarRows)
    }

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn avx2(self, s: Avx2Lane) -> K::Output {
        self.0.call::<_, 2, 4, 2, 2>(s)
    }

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn avx512(self, s: Avx512Lane) -> K::Output {
        self.0.call::<_, 1, 8, 2, 2>(s)
    }
}

/// The arguments of [`apply`] (`RIGHT = false`) or [`apply_right`].
struct Apply<'a, const RIGHT: bool> {
    shape: Shape,
    v: Refl<'a>,
    tf: &'a TFactor,
    head: Option<&'a mut Matrix>,
    c: &'a mut Matrix,
}

impl<const RIGHT: bool> ChunkCall for Apply<'_, RIGHT> {
    type Output = ();

    #[inline(always)]
    fn call<S: SimdLane, const RV: usize, const NC: usize, const GL: usize, const GR: usize>(
        self,
        s: S,
    ) {
        let Apply {
            shape,
            v,
            tf,
            head,
            c,
        } = self;
        if RIGHT {
            apply_right_body::<S, GR>(s, shape, v, tf, head, c)
        } else {
            apply_body::<S, RV, NC, GL>(s, shape, v, tf, head, c)
        }
    }
}

/// The arguments of [`factor`] (`RIGHT = false`) or [`factor_right`].
struct Factor<'a, const RIGHT: bool> {
    shape: Shape,
    pivot: Option<&'a mut Matrix>,
    a: &'a mut Matrix,
}

impl<const RIGHT: bool> ChunkCall for Factor<'_, RIGHT> {
    type Output = TFactor;

    #[inline(always)]
    fn call<S: SimdLane, const RV: usize, const NC: usize, const GL: usize, const GR: usize>(
        self,
        s: S,
    ) -> TFactor {
        let Factor { shape, pivot, a } = self;
        if RIGHT {
            factor_right_body::<S, RV, GR>(s, shape, pivot, a)
        } else {
            factor_body::<S, RV, NC, GL>(s, shape, pivot, a)
        }
    }
}

/// Apply the `tf.len()` reflectors of `shape` stored in `v` from the left:
/// `Q^T` to `c` (as many rows as `v` has) and, for the TS/TT shapes, to rows
/// `0..tf.len()` of the pivot tile `head` (as many columns as `c`; `None`
/// exactly for the trapezoid).  The tile kernels of [`crate::qr`] check
/// the operand shapes; a mismatch that got past them would panic in a
/// slice index here.  One backend dispatch per call.
pub(crate) fn apply(
    shape: Shape,
    v: Refl<'_>,
    tf: &TFactor,
    head: Option<&mut Matrix>,
    c: &mut Matrix,
) {
    debug_assert_eq!(shape == Shape::Trapezoid, head.is_none());
    simd::dispatch(Tuned(Apply::<false> {
        shape,
        v,
        tf,
        head,
        c,
    }))
}

/// Apply the `tf.len()` *row-wise* stored reflectors of `shape` in `v` from
/// the right: `C Q_lq^T` to `c` (as many columns as `v`) and, for the TS/TT
/// shapes, to columns `0..tf.len()` of the pivot tile `head` (as many rows
/// as `c`; `None` exactly for the trapezoid).  The tile kernels of
/// [`crate::lq`] check the operand shapes.  One backend dispatch per call.
pub(crate) fn apply_right(
    shape: Shape,
    v: Refl<'_>,
    tf: &TFactor,
    head: Option<&mut Matrix>,
    c: &mut Matrix,
) {
    debug_assert_eq!(shape == Shape::Trapezoid, head.is_none());
    simd::dispatch(Tuned(Apply::<true> {
        shape,
        v,
        tf,
        head,
        c,
    }))
}

/// Factor `a` in place into reflectors of `shape` — on its own
/// ([`Shape::Trapezoid`], `r1 == None`) or stacked under the upper
/// triangle `r1` (as many columns as `a`, checked by the callers) — and
/// return their [`TFactor`].  One backend dispatch per call.
pub(crate) fn factor(shape: Shape, r1: Option<&mut Matrix>, a: &mut Matrix) -> TFactor {
    debug_assert_eq!(shape == Shape::Trapezoid, r1.is_none());
    simd::dispatch(Tuned(Factor::<false> {
        shape,
        pivot: r1,
        a,
    }))
}

/// Factor `a` in place into *row-wise* stored reflectors of `shape` — on
/// its own ([`Shape::Trapezoid`], `l1 == None`) or right of the lower
/// triangle `l1` (as many rows as `a`, checked by the callers) — and return
/// their [`TFactor`].  One backend dispatch per call.
pub(crate) fn factor_right(shape: Shape, l1: Option<&mut Matrix>, a: &mut Matrix) -> TFactor {
    debug_assert_eq!(shape == Shape::Trapezoid, l1.is_none());
    simd::dispatch(Tuned(Factor::<true> {
        shape,
        pivot: l1,
        a,
    }))
}

// ---------------------------------------------------------------------------
// T factor
// ---------------------------------------------------------------------------

/// The compact-WY representation of one factorization kernel's reflectors:
/// the `tau` scalars and the `IB`-block-diagonal of the upper-triangular
/// `T` such that `H_0 ... H_{k-1} = I - V T V^T` — and, for GEQRT and
/// GELQT, `V` itself.
///
/// Only the `IB x IB` diagonal blocks of `T` exist, side by side in an
/// `IB x k` array ([`t_block`](TFactor::t_block)): because `T` is upper
/// triangular, rows `k0..k` of its `larft` column recurrence only involve
/// columns `k0..k`, so each diagonal block equals the `larft` factor of
/// its chunk's reflectors alone — exactly what the `IB`-chunked apply
/// kernels consume.  Skipping the off-diagonal blocks turns the `O(k^2)`
/// reflector-dot sweep per column into an `O(IB)` one.
///
/// GEQRT and GELQT store their reflectors in the tile whose other half the
/// step's next TS/TT factorization rewrites, so their factor carries a copy
/// of that tile, taken when the factorization ends, and UNMQR/UNMLQ read
/// `V` from it: no apply reads a tile another task can be writing.  TS/TT
/// reflectors stay in their tiles, which nothing writes while their
/// applies run.  Copy, `tau`s and `T` blocks share one allocation (a
/// one-column [`Matrix`]), the copy first, 64-byte aligned like its tile.
///
/// `tau[i]` is the diagonal of `T`; the scalars are kept alongside so the
/// unblocked reference kernels of `bidiag-oracles` can consume the same
/// object.
#[derive(Clone, Debug, PartialEq)]
pub struct TFactor {
    /// `refl` doubles of the reflector tile's copy (`refl_rows` rows,
    /// column-major; none for TS/TT), `kmax` taus, then the `IB x kmax`
    /// block array (column `k` of `T`, rows of its chunk, at `refl + kmax +
    /// k * IB`).
    buf: Matrix,
    refl: usize,
    refl_rows: usize,
    kmax: usize,
    len: usize,
}

impl TFactor {
    /// An empty factor for up to `kmax` reflectors, with room for a copy of
    /// `tile` when the reflectors are stored there (the trapezoid).
    pub(crate) fn with_kmax(kmax: usize, tile: Option<&Matrix>) -> Self {
        let (refl, refl_rows) = tile.map_or((0, 0), |t| (t.data().len(), t.rows()));
        TFactor {
            buf: Matrix::zeros(refl + kmax * (IB + 1), 1),
            refl,
            refl_rows,
            kmax,
            len: 0,
        }
    }

    /// Copy the factored `tile` the reflectors are stored in into the room
    /// [`with_kmax`](TFactor::with_kmax) made for it.
    fn keep_reflectors(&mut self, tile: &Matrix) {
        assert_eq!(self.refl_rows, tile.rows(), "no room for this tile");
        self.buf.data_mut()[..self.refl].copy_from_slice(tile.data());
    }

    /// The copy of the factored tile (column-major) and its row count: the
    /// `V` of UNMQR and UNMLQ.
    pub(crate) fn reflectors(&self) -> Refl<'_> {
        (&self.buf.data()[..self.refl], self.refl_rows)
    }

    /// Number of reflectors.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no reflectors.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `tau` scalars (diagonal of `T`).
    pub fn taus(&self) -> &[f64] {
        &self.buf.data()[self.refl..][..self.len]
    }

    /// The upper-triangular diagonal block of `T` of the chunk starting at
    /// reflector `p` (a multiple of the chunk width; the last block may be
    /// narrower).  Entries below the diagonal are zero.
    pub fn t_block(&self, p: usize) -> MatrixView<'_> {
        let ib = IB.min(self.len - p);
        MatrixView::new(self.t_block_data(p), ib, ib, IB)
    }

    /// The columns of [`t_block`](TFactor::t_block) as a column-major slice
    /// with leading dimension `IB`.
    fn t_block_data(&self, p: usize) -> &[f64] {
        assert!(
            p.is_multiple_of(IB) && p < self.len,
            "no T block starts at {p}"
        );
        let t0 = self.refl + self.kmax;
        &self.buf.data()[t0 + p * IB..t0 + IB * self.len.min(p + IB)]
    }

    /// Append a reflector: its `tau` and the dot products
    /// `vdots[l - k0] = v_l^T v_k` with the earlier reflectors `k0..k` of
    /// its chunk.  Writes column `k` of the chunk's `T` block by the
    /// LAPACK `xLARFT` column recurrence
    /// `T[k0..k, k] = -tau * T[k0..k, k0..k] * vdots`, `T[k, k] = tau`.
    ///
    /// The chunk-local recurrence is exact for the block diagonal of the
    /// full factor: `T` is upper triangular, so rows `k0..k` of the full
    /// recurrence read zeros from every column before `k0`.
    pub(crate) fn append(&mut self, tau: f64, vdots: &[f64]) {
        let k = self.len;
        assert!(k < self.kmax, "TFactor is full");
        let kl = k % IB;
        assert_eq!(vdots.len(), kl);
        let (taus, blocks) = self.buf.data_mut()[self.refl..].split_at_mut(self.kmax);
        let (earlier, tcol) = blocks[(k - kl) * IB..].split_at_mut(kl * IB);
        let tcol = &mut tcol[..IB];
        tcol[..kl].fill(0.0);
        for (c, &vd) in vdots.iter().enumerate() {
            let s = -tau * vd;
            if s != 0.0 {
                let ecol = &earlier[c * IB..];
                for l in 0..=c {
                    tcol[l] += s * ecol[l];
                }
            }
        }
        tcol[kl] = tau;
        taus[k] = tau;
        self.len += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bidiag_matrix::gen::random_gaussian;

    fn fdot(x: &[f64], y: &[f64]) -> f64 {
        x.iter().zip(y).map(|(a, b)| a * b).sum()
    }

    #[test]
    fn scalar_rows_heads_touch_exactly_their_lanes() {
        // On slices that end at `i + k`: one lane more would be out of bounds.
        let src: Vec<f64> = (1..=ROWS + 1).map(|x| x as f64).collect();
        for k in 1..=ROWS {
            let head = ScalarRows.load_head(&src[..1 + k], 1, k);
            assert_eq!(head[..k], src[1..1 + k]);
            assert!(head[k..].iter().all(|x| x.to_bits() == 0), "k={k}");
            let mut dst = vec![f64::NAN; 1 + k];
            ScalarRows.store_head(&mut dst, 1, k, [7.0; ROWS]);
            assert!(
                dst[0].is_nan() && dst[1..].iter().all(|&x| x == 7.0),
                "k={k}"
            );
        }
    }

    fn bits(a: &Matrix) -> Vec<u64> {
        a.data().iter().map(|x| x.to_bits()).collect()
    }

    /// A `k`-reflector factor with random `tau`s and `T` blocks: the applies
    /// only read it, so nothing has to be orthogonal for a bitwise check.
    fn random_t(k: usize, seed: u64) -> TFactor {
        let x = random_gaussian(IB + 1, k.max(1), seed);
        let mut tf = TFactor::with_kmax(k, None);
        for kk in 0..k {
            tf.append(x.get(IB, kk), &x.col(kk)[..kk % IB]);
        }
        tf
    }

    /// The bits of `C` and the pivot tile after [`apply_body`] with `G` row
    /// groups per pass.  This and the three below are frames of their own:
    /// inlined into one, the bodies of a lane take more than a test
    /// thread's stack in a debug build under AddressSanitizer.
    #[inline(never)]
    fn left_bits<S: SimdLane, const RV: usize, const NC: usize, const G: usize>(
        s: S,
        shape: Shape,
        v: &Matrix,
        tf: &TFactor,
        head: Option<&Matrix>,
        c: &Matrix,
    ) -> (Vec<u64>, Option<Vec<u64>>) {
        let (mut head, mut c) = (head.cloned(), c.clone());
        let v = (v.data(), v.rows());
        apply_body::<S, RV, NC, G>(s, shape, v, tf, head.as_mut(), &mut c);
        (bits(&c), head.as_ref().map(bits))
    }

    /// [`left_bits`] for [`apply_right_body`].
    #[inline(never)]
    fn right_bits<S: SimdLane, const G: usize>(
        s: S,
        shape: Shape,
        v: &Matrix,
        tf: &TFactor,
        head: Option<&Matrix>,
        c: &Matrix,
    ) -> (Vec<u64>, Option<Vec<u64>>) {
        let (mut head, mut c) = (head.cloned(), c.clone());
        let v = (v.data(), v.rows());
        apply_right_body::<S, G>(s, shape, v, tf, head.as_mut(), &mut c);
        (bits(&c), head.as_ref().map(bits))
    }

    /// The bits of the factored tile, the triangle above it and the factor
    /// after [`factor_body`] with `G` row groups per pass.
    #[inline(never)]
    fn factor_bits<S: SimdLane, const RV: usize, const NC: usize, const G: usize>(
        s: S,
        shape: Shape,
        r1: Option<&Matrix>,
        a: &Matrix,
    ) -> (Vec<u64>, Option<Vec<u64>>, TFactor) {
        let (mut r1, mut a) = (r1.cloned(), a.clone());
        let tf = factor_body::<S, RV, NC, G>(s, shape, r1.as_mut(), &mut a);
        (bits(&a), r1.as_ref().map(bits), tf)
    }

    /// [`factor_bits`] for [`factor_right_body`], `l1` the triangle left
    /// of `a`.
    #[inline(never)]
    fn factor_right_bits<S: SimdLane, const RV: usize, const G: usize>(
        s: S,
        shape: Shape,
        l1: Option<&Matrix>,
        a: &Matrix,
    ) -> (Vec<u64>, Option<Vec<u64>>, TFactor) {
        let (mut l1, mut a) = (l1.cloned(), a.clone());
        let tf = factor_right_body::<S, RV, G>(s, shape, l1.as_mut(), &mut a);
        (bits(&a), l1.as_ref().map(bits), tf)
    }

    /// Row groups change which registers an entry of `C` passes through,
    /// never its arithmetic: both applies and both factorizations at `G` row
    /// groups per pass give the bits of one group per pass — every shape,
    /// a narrow last chunk, and row counts from one up to
    /// two full passes, a group and a row, so that every mix of full
    /// passes, leftover groups and leftover rows runs.
    #[inline(always)]
    fn check_row_groups<S: SimdLane, const RV: usize, const NC: usize, const G: usize>(s: S) {
        let (n, kmax) = (13, IB + 1);
        for shape in [Shape::Trapezoid, Shape::Square, Shape::Triangle] {
            let stacked = shape != Shape::Trapezoid;
            for m in 1..=(2 * G + 1) * S::LANES + 1 {
                let seed = (m * 7 + shape as usize) as u64;
                let what = format!("{shape:?}, {m} rows, {} lanes, G = {G}", S::LANES);
                // Left: `m x k` reflectors under a `k x n` pivot tile.
                let k = if stacked { kmax } else { kmax.min(m) };
                let (v, tf) = (random_gaussian(m, k, seed), random_t(k, seed));
                let head = stacked.then(|| random_gaussian(k, n, seed + 1));
                let c = random_gaussian(m, n, seed + 2);
                // Right: `k x n` row-wise reflectors, `m` rows of `C`.
                let vr = random_gaussian(kmax, n, seed + 3);
                let tfr = random_t(kmax, seed + 4);
                let hr = stacked.then(|| random_gaussian(m, kmax, seed + 5));
                let left = left_bits::<S, RV, NC, G>(s, shape, &v, &tf, head.as_ref(), &c);
                let left1 = left_bits::<S, RV, NC, 1>(s, shape, &v, &tf, head.as_ref(), &c);
                assert!(left == left1, "apply, {what}");
                let right = right_bits::<S, G>(s, shape, &vr, &tfr, hr.as_ref(), &c);
                let right1 = right_bits::<S, 1>(s, shape, &vr, &tfr, hr.as_ref(), &c);
                assert!(right == right1, "apply_right, {what}");
                // The factorization's trailing update runs the left kernel.
                let r1 = stacked.then(|| random_gaussian(n, n, seed + 6));
                let f = factor_bits::<S, RV, NC, G>(s, shape, r1.as_ref(), &c);
                let f1 = factor_bits::<S, RV, NC, 1>(s, shape, r1.as_ref(), &c);
                assert!(f == f1, "factor, {what}");
                // The LQ factorization's runs the right one on the rows below
                // each panel: `m` of them below the first, `IB + 1` rows of
                // reflectors (a narrow last chunk) when there are enough
                // columns.
                let a = random_gaussian(m + IB, n, seed + 7);
                let l1 = stacked.then(|| random_gaussian(m + IB, kmax, seed + 8));
                let f = factor_right_bits::<S, RV, G>(s, shape, l1.as_ref(), &a);
                let f1 = factor_right_bits::<S, RV, 1>(s, shape, l1.as_ref(), &a);
                assert!(f == f1, "factor_right, {what}");
            }
        }
    }

    /// [`check_row_groups`] at two and three row groups on the lane of the
    /// backend, its registers per reflector column and columns per pass:
    /// the sweep's candidates besides one, so whichever a lane runs.
    struct RowGroups;

    impl ChunkCall for RowGroups {
        type Output = ();

        #[inline(always)]
        fn call<S: SimdLane, const RV: usize, const NC: usize, const GL: usize, const GR: usize>(
            self,
            s: S,
        ) {
            check_row_groups::<S, RV, NC, 2>(s);
            check_row_groups::<S, RV, NC, 3>(s);
        }
    }

    #[test]
    fn row_groups_give_the_bits_of_one_group_on_every_lane() {
        simd::on_each_backend(|| simd::dispatch(Tuned(RowGroups)));
    }

    #[test]
    fn appended_t_matches_explicit_product() {
        // Two reflectors with hand-picked vectors: check
        // H0 H1 = I - V T V^T entry-wise.
        let m = 5;
        let v = random_gaussian(m, 2, 3);
        // Unit-diagonal column vectors v0, v1 (v1 zero above row 1).
        let vm = Matrix::from_fn(m, 2, |i, j| match i.cmp(&j) {
            std::cmp::Ordering::Equal => 1.0,
            std::cmp::Ordering::Greater => v.get(i, j),
            std::cmp::Ordering::Less => 0.0,
        });
        let (tau0, tau1) = (0.7, 1.2);
        let mut tf = TFactor::with_kmax(2, None);
        tf.append(tau0, &[]);
        tf.append(tau1, &[fdot(vm.col(0), vm.col(1))]);
        assert_eq!(tf.taus(), &[tau0, tau1]);
        let tb = tf.t_block(0);
        let t = Matrix::from_fn(2, 2, |i, j| tb.get(i, j));

        let h = |tau: f64, col: usize| -> Matrix {
            Matrix::from_fn(m, m, |i, j| {
                (if i == j { 1.0 } else { 0.0 }) - tau * vm.get(i, col) * vm.get(j, col)
            })
        };
        let prod = h(tau0, 0).matmul(&h(tau1, 1));
        let vtv = vm.matmul(&t).matmul(&vm.transpose());
        let wy = Matrix::from_fn(m, m, |i, j| {
            (if i == j { 1.0 } else { 0.0 }) - vtv.get(i, j)
        });
        assert!(prod.sub(&wy).norm_max() < 1e-13);
    }

    #[test]
    fn chunk_local_larft_matches_the_diagonal_blocks_of_the_full_factor() {
        // Build a full forward larft T with a local reference recurrence
        // from synthetic V columns spanning two IB-chunks, then check the
        // chunk-local recurrence reproduces its diagonal blocks.
        let k = IB + 3;
        let m = k + 5;
        let v = {
            let g = random_gaussian(m, k, 17);
            // Unit-lower-trapezoid V like a factored tile stores.
            Matrix::from_fn(m, k, |i, j| match i.cmp(&j) {
                std::cmp::Ordering::Equal => 1.0,
                std::cmp::Ordering::Greater => g.get(i, j),
                std::cmp::Ordering::Less => 0.0,
            })
        };
        let taus: Vec<f64> = (0..k).map(|i| 0.3 + 0.1 * i as f64).collect();
        let vdot = |a: usize, b: usize| fdot(v.col(a), v.col(b));

        // Full (dense upper-triangular) reference recurrence.
        let mut tfull = Matrix::zeros(k, k);
        for (kk, &tau) in taus.iter().enumerate() {
            for l in 0..kk {
                let mut s = 0.0;
                for c in l..kk {
                    s += tfull.get(l, c) * vdot(c, kk);
                }
                tfull.set(l, kk, -tau * s);
            }
            tfull.set(kk, kk, tau);
        }

        let mut tf = TFactor::with_kmax(k, None);
        for (kk, &tau) in taus.iter().enumerate() {
            let vd: Vec<f64> = (kk - kk % IB..kk).map(|l| vdot(l, kk)).collect();
            tf.append(tau, &vd);
        }
        assert_eq!(tf.taus(), &taus[..]);

        for p in (0..k).step_by(IB) {
            let tb = tf.t_block(p);
            assert_eq!(tb.rows(), IB.min(k - p));
            for kk in 0..tb.cols() {
                for l in 0..tb.rows() {
                    let want = if l <= kk {
                        tfull.get(p + l, p + kk)
                    } else {
                        0.0
                    };
                    let d = (tb.get(l, kk) - want).abs();
                    assert!(
                        d < 1e-12 * (1.0 + want.abs()),
                        "block {p} entry ({l}, {kk})"
                    );
                }
            }
        }
    }
}
