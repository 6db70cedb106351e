//! Compact-WY machinery shared by every blocked tile kernel.
//!
//! A sequence of `k` Householder reflectors `H_0 H_1 ... H_{k-1}` equals
//! `I - V T V^T`, where `V` holds the reflector vectors column-wise and `T`
//! is the `k x k` upper-triangular *compact-WY factor* (LAPACK `xLARFT`), so
//! a block of reflectors is applied as
//!
//! ```text
//! W = V^T C;   W = op(T) W;   C -= V W
//! ```
//!
//! instead of `k` rank-one updates.  Reflectors are processed in chunks of
//! `IB`; this module provides:
//!
//! * [`TFactor`] — the `tau` scalars plus the *`IB`-block-diagonal* of `T`
//!   of one factorization kernel, stored compactly as an `IB x k` array in
//!   one allocation (what the tau store keeps per factorization).  The
//!   apply kernels consume `T` exclusively through its `IB x IB` diagonal
//!   blocks — chunking through the diagonal blocks of a forward `larft`
//!   factor is an exact regrouping of the reflector product — so the
//!   off-diagonal blocks are never materialised and the `larft` recurrence
//!   runs chunk-locally (`O(k * IB)` dots instead of `O(k^2)`).
//! * the **fused chunk kernel** under the six QR-side tile kernels
//!   (`factor` and `apply`, columns of `C` as SIMD lanes of the `T`
//!   product, dot products down the rows), in the style of LAPACK's
//!   triangular-pentagonal `xTPQRT`/`xTPMQRT`.  One `Shape` says which
//!   rows of the reflector tile are stored (unit-lower trapezoid for
//!   GEQRT/UNMQR, full columns for TS, upper triangle for TT); for one
//!   chunk that splits the tile into *dense* rows, read in place, and an
//!   at most `IB x IB` structured *corner*, densified once per chunk into
//!   a 64-double stack array so both run through the same vector loops.
//!   For a block of four `C` columns the kernel then forms `W = V_p^T C`
//!   as register-blocked dot products straight off the column-major tiles
//!   (2 reflectors x 4 columns = 8 accumulators, nothing packed or
//!   transposed), applies the `IB x IB` block of `T`/`T^T` with the four
//!   columns as SIMD lanes, and updates `C -= V_p W` two columns x four
//!   reflectors at a time.  The `e_k` heads of the TS/TT reflectors act on
//!   rows `p..p+IB` of the pivot tile; UNMQR's unit diagonal lives in its
//!   corner — the three applies differ in nothing else.  The
//!   factorizations are level 3 the way PLASMA's `CORE_dgeqrt`/
//!   `CORE_dttqrt` are: an `IB`-wide panel is factored unblocked, its `T`
//!   block built by the chunk-local `larft` recurrence, and the trailing
//!   columns updated with the same chunk apply.  Ragged shapes take the
//!   same arithmetic down slower paths: a last chunk narrower than `IB`,
//!   a corner clipped by a short tile and the `n mod 4` leftover columns
//!   go one column at a time; a row count that is not a multiple of the
//!   vector width ends in a zero-padded vector step or a scalar tail.
//! * its mirror image under the three LQ applies (`apply_right`).  The LQ
//!   kernels store reflector `k` as *row* `k` of the tile, so the chunk's
//!   coefficients at one column of `C` — `v[p..p+IB, j]` — are contiguous,
//!   and for a right-sided apply the natural vector axis is the rows of
//!   `C`: per chunk and group of `LANES` rows, `W = H + C V_p` is `IB`
//!   register accumulators fed by one load of `C[i0.., j]` and `IB`
//!   coefficient broadcasts per column, `W op(T)` the same unrolled
//!   triangular product with rows instead of columns as lanes, and
//!   `C[:, j] -= W v[p..p+IB, j]` a second sweep over the row group.  No
//!   horizontal reductions, and every vector is full whatever the shape.
//!   The same `Shape` splits the *columns* into dense ones and the corner
//!   (unit-upper for UNMLQ, lower for TT, absent for TS); a corner clipped
//!   by a narrow tile is just fewer columns, a last chunk narrower than
//!   `IB` runs the same body with a runtime width, and the `r mod LANES`
//!   leftover rows go one at a time.
//! * [`Workspace`] — the two tiles the LQ *factorizations* transpose their
//!   operands into, so that in steady state the only allocation any kernel
//!   makes is the one [`TFactor`] a factorization returns.  Every other
//!   kernel needs none: `W` and the corner live in registers and on the
//!   stack.
//!
//! # SIMD dispatch and safety
//!
//! The chunk kernels are written once over [`SimdLane`] and instantiated
//! twice: for the `BIDIAG_SIMD=scalar` fallback (unfused multiply-adds)
//! with [`ScalarLane`] — the right kernel with eight of them side by side,
//! so that a coefficient load feeds eight rows there too — and, behind
//! **one** `#[target_feature(enable = "avx2,fma")]` shell per tile-kernel
//! call, with `Avx2Lane`.  The lane bodies are `unsafe fn` for one reason
//! only — the lane's instruction-set contract, discharged by
//! [`simd::check_avx2`] at the dispatch in `factor` / `apply` /
//! `apply_right`.  Every slice they touch is cut with checked range
//! indexing, and the inner loops that use the lanes' unchecked
//! `load`/`store` assert first what bounds their operands: one common
//! length on the left, the column count and leading dimension of the row
//! group on the right.

use crate::householder::{larfg_with_norm, norm2};
use crate::qr::Trans;
use bidiag_matrix::simd::{self, ScalarLane, SimdBackend, SimdLane};
use bidiag_matrix::{Matrix, MatrixView};
use std::ops::Range;

/// Inner blocking factor (PLASMA's `ib`): reflectors are generated and
/// applied in chunks of `IB`, each through the corresponding diagonal
/// block of the full `T` factor.  The diagonal blocks of a forward larft
/// `T` are exactly the larft factors of the chunk's reflectors alone, so
/// chunking is an exact regrouping — it cuts the `T`-application overhead
/// from `k^2 n` to `k * IB * n` flops.  Eight is what the chunk kernel's
/// register blocking is built around (the `W` block of four columns is
/// eight vectors, the corner scratch 64 doubles) and divides the reference
/// `nb = 64` evenly.
pub(crate) const IB: usize = 8;

/// Iterate the reflector chunks of a `k`-reflector apply in the order the
/// given direction requires (forward for `Q^T`, backward for `Q`),
/// yielding `(chunk start, chunk width)` without allocating.
pub(crate) fn chunk_order(k: usize, trans: Trans) -> impl Iterator<Item = (usize, usize)> {
    let nchunks = k.div_ceil(IB);
    (0..nchunks).map(move |ci| {
        let c = match trans {
            Trans::Transpose => ci,
            Trans::NoTranspose => nchunks - 1 - ci,
        };
        let p = c * IB;
        (p, IB.min(k - p))
    })
}

// ---------------------------------------------------------------------------
// The fused chunk kernel of the QR side (left side, dot products down the rows)
// ---------------------------------------------------------------------------

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

/// One `IB`-chunk of reflectors, ready to be applied: its dense and
/// corner rows, the reflectors' dense parts, the densified corner and the
/// chunk's `T` block.
struct Chunk<'a> {
    /// First reflector and width of the chunk.
    p: usize,
    ib: usize,
    dense: Range<usize>,
    corner: Range<usize>,
    /// Dense rows of reflector `kk`, read in place from the reflector tile
    /// (empty beyond `ib`).
    vd: [&'a [f64]; IB],
    /// Corner rows of reflector `kk` with the structure made explicit
    /// (zeros, and UNMQR's unit diagonal; rows beyond the corner zero).
    /// Only the stored part of the tile is read to fill it, so whatever
    /// else the tile holds never enters the arithmetic.
    kc: [[f64; IB]; IB],
    /// The chunk's `IB x ib` block of `T`, column-major, leading dimension `IB`.
    t: &'a [f64],
    trans: Trans,
}

impl<'a> Chunk<'a> {
    /// Chunk `p..p+ib` of the reflectors of `shape` stored in the `m`-row
    /// column-major tile `v` (leading dimension `m`).
    fn new(
        shape: Shape,
        v: &'a [f64],
        m: usize,
        p: usize,
        ib: usize,
        t: &'a [f64],
        trans: Trans,
    ) -> Self {
        let (dense, corner) = shape.chunk_split(p, ib, m);
        let mut vd: [&[f64]; IB] = [&[]; IB];
        let mut kc = [[0.0; IB]; IB];
        for kk in 0..ib {
            let vcol = &v[(p + kk) * m..][..m];
            vd[kk] = &vcol[dense.clone()];
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
        }
        Chunk {
            p,
            ib,
            dense,
            corner,
            vd,
            kc,
            t,
            trans,
        }
    }
}

/// Split the first four columns off a column-major slice.
#[inline(always)]
fn four_cols(x: &mut [f64], ld: usize) -> [&mut [f64]; 4] {
    let (a, x) = x.split_at_mut(ld);
    let (b, x) = x.split_at_mut(ld);
    let (c, x) = x.split_at_mut(ld);
    [a, b, c, &mut x[..ld]]
}

/// One vector step of [`vtc`]: `acc[r][j] += v[r][i..] * c[j][i..]`.
///
/// # Safety
/// The lane's ISA contract (see [`SimdLane`]) and `i + LANES <= x.len()`
/// for every operand `x`.
#[inline(always)]
unsafe fn vtc_step<S: SimdLane, const R: usize>(
    s: S,
    v: [&[f64]; R],
    c: [&[f64]; 4],
    i: usize,
    mut acc: [[S::V; 4]; R],
) -> [[S::V; 4]; R] {
    // SAFETY: forwarded contract.
    unsafe {
        let cv = [
            s.load(c[0], i),
            s.load(c[1], i),
            s.load(c[2], i),
            s.load(c[3], i),
        ];
        for r in 0..R {
            let vv = s.load(v[r], i);
            for j in 0..4 {
                acc[r][j] = s.mul_add(vv, cv[j], acc[r][j]);
            }
        }
    }
    acc
}

/// `acc[r][j] + v[r] . c[j]` over one row segment: `R` reflectors against
/// four columns in one pass.  A remainder shorter than a vector is taken
/// as one more vector step on zero-padded copies, so the partial sums
/// never leave the accumulators.
///
/// # Safety
/// The lane's ISA contract (see [`SimdLane`]).
#[inline(always)]
unsafe fn vtc<S: SimdLane, const R: usize>(
    s: S,
    v: [&[f64]; R],
    c: [&[f64]; 4],
    mut acc: [[S::V; 4]; R],
) -> [[S::V; 4]; R] {
    const PAD: usize = 4;
    assert!(S::LANES <= PAD);
    // The length is taken from `v`: where the caller passes whole corner
    // columns it is the constant `IB` and the loop unrolls.
    let len = v[0].len();
    assert!(v.iter().all(|x| x.len() == len) && c.iter().all(|x| x.len() == len));
    let mut i = 0;
    // SAFETY: the caller upholds the lane's ISA contract; every operand has
    // length `len` (asserted above) and `i + LANES <= len` in the loop, and
    // the padded copies have length `PAD >= LANES`.
    unsafe {
        while i + S::LANES <= len {
            acc = vtc_step(s, v, c, i, acc);
            i += S::LANES;
        }
        if i < len {
            let pad = |x: &[f64]| {
                let mut b = [0.0f64; PAD];
                b[..len - i].copy_from_slice(&x[i..]);
                b
            };
            let (vp, cp) = (v.map(pad), c.map(pad));
            let (vp, cp) = (vp.each_ref().map(|b| &b[..]), cp.each_ref().map(|b| &b[..]));
            acc = vtc_step(s, vp, cp, 0, acc);
        }
    }
    acc
}

/// `c[j] += sum_r v[r] * nw[r][j]` over one row segment: `R` reflectors
/// into two columns in one pass (`nw` holds the negated `W` entries).
///
/// # Safety
/// The lane's ISA contract (see [`SimdLane`]).
#[inline(always)]
unsafe fn cvw<S: SimdLane, const R: usize>(
    s: S,
    v: [&[f64]; R],
    nw: [[f64; 2]; R],
    c: [&mut [f64]; 2],
) {
    let [ca, cb] = c;
    // As in `vtc`, a constant where `v` are whole corner columns.
    let len = v[0].len();
    assert!(v.iter().all(|x| x.len() == len) && ca.len() == len && cb.len() == len);
    let mut i = 0;
    // SAFETY: the caller upholds the lane's ISA contract; every slice has
    // length `len` (asserted above) and `i + LANES <= len` in the loop.
    unsafe {
        let mut wv = [[s.zero(); 2]; R];
        for r in 0..R {
            wv[r] = [s.splat(nw[r][0]), s.splat(nw[r][1])];
        }
        while i + S::LANES <= len {
            let mut a = s.load(ca, i);
            let mut b = s.load(cb, i);
            for r in 0..R {
                let vv = s.load(v[r], i);
                a = s.mul_add(vv, wv[r][0], a);
                b = s.mul_add(vv, wv[r][1], b);
            }
            s.store(ca, i, a);
            s.store(cb, i, b);
            i += S::LANES;
        }
    }
    while i < len {
        for r in 0..R {
            ca[i] += v[r][i] * nw[r][0];
            cb[i] += v[r][i] * nw[r][1];
        }
        i += 1;
    }
}

/// The `T` product of one chunk with the second index of `W` as SIMD
/// lanes: `out[i] = sum_l op(T)[i, l] w[l]` for the left kernel (lanes =
/// columns of `C`), which is also `(W op(T)^T)[:, i]` — what the right
/// kernel needs, its `Q^T` being `C - (C V) T V^T` (lanes = rows of `C`).
/// `t` is the chunk's `IB x ib` block, leading dimension `IB`; called with
/// the constant `ib == IB` the triangular product unrolls into 36
/// independent-by-row FMAs.
///
/// # Safety
/// The lane's ISA contract (see [`SimdLane`]).
#[inline(always)]
unsafe fn t_product<S: SimdLane>(
    s: S,
    t: &[f64],
    trans: Trans,
    ib: usize,
    w: &[S::V; IB],
) -> [S::V; IB] {
    let t = &t[..IB * ib];
    // SAFETY: the caller upholds the lane's ISA contract (register ops only).
    unsafe {
        let mut out = [s.zero(); IB];
        for i in 0..ib {
            for l in 0..ib {
                // (T^T W)[i] = sum_{l <= i} T[l, i] W[l];
                // (T W)[i] = sum_{l >= i} T[i, l] W[l].
                let tij = match trans {
                    Trans::Transpose if l <= i => t[i * IB + l],
                    Trans::NoTranspose if l >= i => t[l * IB + i],
                    _ => continue,
                };
                out[i] = s.mul_add(s.splat(tij), w[l], out[i]);
            }
        }
        out
    }
}

/// Apply a full-width chunk (`ib == IB`, corner absent or `IB` rows) to
/// four columns: `c` are the columns of the tile the reflector tails act
/// on, `h` rows `p..p+IB` of the matching pivot-tile columns (TS/TT heads;
/// `None` for the trapezoid, whose unit diagonal is part of the corner).
///
/// # Safety
/// The lane's ISA contract (see [`SimdLane`]).
#[inline(always)]
unsafe fn apply_block4<S: SimdLane>(
    s: S,
    ch: &Chunk<'_>,
    mut h: Option<[&mut [f64]; 4]>,
    c: [&mut [f64]; 4],
) {
    let (dense, corner) = (ch.dense.clone(), ch.corner.clone());
    let has_corner = !corner.is_empty();
    assert!(ch.ib == IB && (!has_corner || corner.len() == IB));
    let [c0, c1, c2, c3] = c;
    // W[kk][j], the four columns of one reflector adjacent so that they
    // form the SIMD lanes of the T product.
    let mut w = [0.0f64; 4 * IB];
    if let Some(h) = h.as_ref() {
        for (j, hj) in h.iter().enumerate() {
            for kk in 0..IB {
                w[kk * 4 + j] = hj[kk];
            }
        }
    }
    // SAFETY (whole body): the caller upholds the lane's ISA contract,
    // which is all `vtc`/`cvw` and the register ops need; the `load`/
    // `store` calls on `w` stay below `4 * IB` (`l < IB`, `j + LANES <= 4`).
    unsafe {
        // (1) W = H + V_p^T C, two reflectors at a time.
        {
            let cd = [
                &c0[dense.clone()],
                &c1[dense.clone()],
                &c2[dense.clone()],
                &c3[dense.clone()],
            ];
            let cc = [
                &c0[corner.clone()],
                &c1[corner.clone()],
                &c2[corner.clone()],
                &c3[corner.clone()],
            ];
            for kk in (0..IB).step_by(2) {
                let mut acc = vtc(s, [ch.vd[kk], ch.vd[kk + 1]], cd, [[s.zero(); 4]; 2]);
                if has_corner {
                    acc = vtc(s, [&ch.kc[kk][..], &ch.kc[kk + 1][..]], cc, acc);
                }
                for (r, a) in acc.into_iter().enumerate() {
                    for (j, aj) in a.into_iter().enumerate() {
                        w[(kk + r) * 4 + j] += s.reduce_sum(aj);
                    }
                }
            }
        }
        // (2) W = op(T) W, in registers.
        for j in (0..4).step_by(S::LANES) {
            let mut wv = [s.zero(); IB];
            for (l, x) in wv.iter_mut().enumerate() {
                *x = s.load(&w, l * 4 + j);
            }
            for (l, x) in t_product(s, ch.t, ch.trans, IB, &wv).iter().enumerate() {
                s.store(&mut w, l * 4 + j, *x);
            }
        }
        // (3) H -= W;  C -= V_p W, two columns x four reflectors at a time.
        if let Some(h) = h.as_mut() {
            for (j, hj) in h.iter_mut().enumerate() {
                for kk in 0..IB {
                    hj[kk] -= w[kk * 4 + j];
                }
            }
        }
        for (j, ca, cb) in [(0, c0, c1), (2, c2, c3)] {
            for kk in (0..IB).step_by(4) {
                let mut nw = [[0.0f64; 2]; 4];
                for (r, x) in nw.iter_mut().enumerate() {
                    *x = [-w[(kk + r) * 4 + j], -w[(kk + r) * 4 + j + 1]];
                }
                cvw(
                    s,
                    [ch.vd[kk], ch.vd[kk + 1], ch.vd[kk + 2], ch.vd[kk + 3]],
                    nw,
                    [&mut ca[dense.clone()], &mut cb[dense.clone()]],
                );
                if has_corner {
                    cvw(
                        s,
                        [
                            &ch.kc[kk][..],
                            &ch.kc[kk + 1][..],
                            &ch.kc[kk + 2][..],
                            &ch.kc[kk + 3][..],
                        ],
                        nw,
                        [&mut ca[corner.clone()], &mut cb[corner.clone()]],
                    );
                }
            }
        }
    }
}

/// Apply a chunk of any width to one column (`c`, and the column's
/// pivot-tile rows `p..p+ib` in `h`): the path of the ragged last chunk
/// and of the `n mod 4` columns left over by [`apply_block4`].
///
/// # Safety
/// The lane's ISA contract (see [`SimdLane`]).
#[inline(always)]
unsafe fn apply_col<S: SimdLane>(s: S, ch: &Chunk<'_>, mut h: Option<&mut [f64]>, c: &mut [f64]) {
    let ib = ch.ib;
    let (dense, corner) = (ch.dense.clone(), ch.corner.clone());
    let mut w = [0.0f64; IB];
    for kk in 0..ib {
        let head = h.as_ref().map_or(0.0, |h| h[kk]);
        // SAFETY: the caller upholds the lane's ISA contract; `vd` and the
        // `kc` prefix span the same `dense`/`corner` rows as the `c` operands.
        w[kk] = head
            + unsafe {
                simd::dot_body(s, ch.vd[kk], &c[dense.clone()])
                    + simd::dot_body(s, &ch.kc[kk][..corner.len()], &c[corner.clone()])
            };
    }
    match ch.trans {
        Trans::Transpose => {
            for i in (0..ib).rev() {
                let tc = &ch.t[i * IB..][..=i];
                w[i] = tc.iter().zip(&w).map(|(t, w)| t * w).sum();
            }
        }
        Trans::NoTranspose => {
            for i in 0..ib {
                w[i] = (i..ib).map(|l| ch.t[l * IB + i] * w[l]).sum();
            }
        }
    }
    for kk in 0..ib {
        if let Some(h) = h.as_mut() {
            h[kk] -= w[kk];
        }
        // SAFETY: as above.
        unsafe {
            simd::axpy_body(s, &mut c[dense.clone()], -w[kk], ch.vd[kk]);
            simd::axpy_body(s, &mut c[corner.clone()], -w[kk], &ch.kc[kk]);
        }
    }
}

/// Apply one chunk to the `n` columns of the column-major `c` (leading
/// dimension `ldc`, as many rows as the reflector tile) and, for TS/TT, to
/// rows `p..p+ib` of the matching columns of the pivot tile `head`
/// (`(data, ld)`).
///
/// # Safety
/// The lane's ISA contract (see [`SimdLane`]).
#[inline(always)]
unsafe fn apply_chunk<S: SimdLane>(
    s: S,
    ch: &Chunk<'_>,
    mut head: Option<(&mut [f64], usize)>,
    c: &mut [f64],
    ldc: usize,
    n: usize,
) {
    let hrows = ch.p..ch.p + ch.ib;
    let mut j = 0;
    if ch.ib == IB && (ch.corner.is_empty() || ch.corner.len() == IB) {
        while j + 4 <= n {
            let h = match head.as_mut() {
                None => None,
                Some((h, ldh)) => {
                    let [h0, h1, h2, h3] = four_cols(&mut h[j * *ldh..], *ldh);
                    Some([
                        &mut h0[hrows.clone()],
                        &mut h1[hrows.clone()],
                        &mut h2[hrows.clone()],
                        &mut h3[hrows.clone()],
                    ])
                }
            };
            // SAFETY: the caller upholds the lane's ISA contract.
            unsafe { apply_block4(s, ch, h, four_cols(&mut c[j * ldc..], ldc)) };
            j += 4;
        }
    }
    while j < n {
        let h = head
            .as_mut()
            .map(|(h, ldh)| &mut h[j * *ldh..][hrows.clone()]);
        // SAFETY: the caller upholds the lane's ISA contract.
        unsafe { apply_col(s, ch, h, &mut c[j * ldc..][..ldc]) };
        j += 1;
    }
}

/// Lane-generic body of [`apply`].
///
/// # Safety
/// The lane's ISA contract (see [`SimdLane`]).
#[inline(always)]
unsafe fn apply_body<S: SimdLane>(
    s: S,
    shape: Shape,
    v: &Matrix,
    tf: &TFactor,
    mut head: Option<&mut Matrix>,
    c: &mut Matrix,
    trans: Trans,
) {
    let (m, n) = (c.rows(), c.cols());
    for (p, ib) in chunk_order(tf.len(), trans) {
        let ch = Chunk::new(shape, v.data(), m, p, ib, tf.t_block_data(p), trans);
        let h = head.as_deref_mut().map(|h| {
            let ldh = h.rows();
            (h.data_mut(), ldh)
        });
        // SAFETY: the caller upholds the lane's ISA contract.
        unsafe { apply_chunk(s, &ch, h, c.data_mut(), m, n) };
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

/// Lane-generic body of [`factor`].
///
/// # Safety
/// The lane's ISA contract (see [`SimdLane`]).
#[inline(always)]
unsafe fn factor_body<S: SimdLane>(
    s: S,
    shape: Shape,
    mut r1: Option<&mut Matrix>,
    a: &mut Matrix,
) -> TFactor {
    let (m, n) = (a.rows(), a.cols());
    let (kmax, ld1) = match &r1 {
        None => (m.min(n), 0),
        Some(r1) => (n.min(r1.rows()), r1.rows()),
    };
    let mut tf = TFactor::with_kmax(kmax);
    for p in (0..kmax).step_by(IB) {
        let ib = IB.min(kmax - p);
        // Unblocked factorization of the panel `p..p+ib`.
        for k in p..p + ib {
            let tail = shape.tail(k, m);
            let (left, right) = a.data_mut().split_at_mut((k + 1) * m);
            let (done, colk) = left.split_at_mut(k * m);
            let tau = {
                let (alpha, vk) = head_and_tail(r1.as_deref_mut(), colk, k, k, tail.clone());
                // SAFETY: the caller upholds the lane's ISA contract.
                let ss = unsafe { simd::dot_body(s, vk, vk) };
                // A sum of squares in this range neither overflowed nor
                // lost anything to underflow that matters at working
                // precision; anything else takes the scaled norm, whose
                // per-element division would otherwise be a fifth of the
                // factorization.
                let xnorm = if (1e-280..1e280).contains(&ss) {
                    ss.sqrt()
                } else {
                    norm2(vk)
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
                    // SAFETY: the caller upholds the lane's ISA contract;
                    // `ct` and `vk` are the same `tail` rows of two columns.
                    unsafe {
                        let w = tau * (*head + simd::dot_body(s, vk, ct));
                        *head -= w;
                        simd::axpy_body(s, ct, -w, vk);
                    }
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
                // SAFETY: as above; both operands are cut to `both`.
                let d = unsafe { simd::dot_body(s, &cl[both.clone()], &colk[both]) };
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
            let ch = Chunk::new(shape, panel, m, p, ib, tf.t_block_data(p), Trans::Transpose);
            let h = r1
                .as_deref_mut()
                .map(|r1| (&mut r1.data_mut()[(p + ib) * ld1..], ld1));
            // SAFETY: the caller upholds the lane's ISA contract.
            unsafe { apply_chunk(s, &ch, h, trailing, m, n - p - ib) };
        }
    }
    tf
}

// ---------------------------------------------------------------------------
// The fused chunk kernel of the LQ applies (right side, rows of C as lanes)
// ---------------------------------------------------------------------------

/// [`ScalarLane`]s side by side: the lane the right-side kernel runs on
/// under the scalar backend, so that one coefficient load feeds `ROWS` rows
/// of `C` there as well (unfused multiply-adds, like [`ScalarLane`]).
/// Eight measured best on the SSE2 baseline: the loop is bound by the
/// shuffles that broadcast the coefficients, one per reflector and group.
#[derive(Clone, Copy)]
struct ScalarRows;

const ROWS: usize = 8;

impl SimdLane for ScalarRows {
    const LANES: usize = ROWS;
    type V = [f64; ROWS];

    #[inline(always)]
    unsafe fn splat(self, x: f64) -> Self::V {
        [x; ROWS]
    }
    #[inline(always)]
    unsafe fn zero(self) -> Self::V {
        [0.0; ROWS]
    }
    #[inline(always)]
    unsafe fn load(self, p: &[f64], i: usize) -> Self::V {
        debug_assert!(i + ROWS <= p.len());
        // SAFETY: caller guarantees i + LANES <= p.len().
        unsafe { *p.as_ptr().add(i).cast() }
    }
    #[inline(always)]
    unsafe fn store(self, p: &mut [f64], i: usize, v: Self::V) {
        debug_assert!(i + ROWS <= p.len());
        // SAFETY: caller guarantees i + LANES <= p.len().
        unsafe { *p.as_mut_ptr().add(i).cast() = v }
    }
    #[inline(always)]
    unsafe fn add(self, a: Self::V, b: Self::V) -> Self::V {
        std::array::from_fn(|l| a[l] + b[l])
    }
    #[inline(always)]
    unsafe fn mul(self, a: Self::V, b: Self::V) -> Self::V {
        std::array::from_fn(|l| a[l] * b[l])
    }
    #[inline(always)]
    unsafe fn mul_add(self, a: Self::V, b: Self::V, c: Self::V) -> Self::V {
        std::array::from_fn(|l| a[l] * b[l] + c[l])
    }
    #[inline(always)]
    unsafe fn reduce_sum(self, a: Self::V) -> f64 {
        a.iter().sum()
    }
}

/// One `IB`-chunk of *row-wise* stored reflectors (reflector `k` is row `k`
/// of the tile), ready to be applied from the right.  The coefficients of
/// the chunk at one column of `C` — `v[p..p+ib, j]` — are contiguous in the
/// column-major tile, so dense columns are read in place and the corner is
/// densified per column.
struct RowChunk<'a> {
    /// Width of the chunk.
    ib: usize,
    /// The columns of `C` the chunk touches: the dense ones, which every
    /// reflector of the chunk stores, and the at most `IB` of the corner.
    dense: Range<usize>,
    corner: Range<usize>,
    /// The reflector tile from `v[p, dense.start]` on (empty without dense
    /// columns) and its leading dimension.
    vd: &'a [f64],
    ldv: usize,
    /// `kc[jj][kk]`: the coefficient of reflector `p + kk` at corner column
    /// `jj` with the structure made explicit (zeros, and UNMLQ's unit
    /// diagonal).  Only the stored part of the tile is read to fill it.
    kc: [[f64; IB]; IB],
    /// The chunk's `IB x ib` block of `T`, column-major, leading dimension `IB`.
    t: &'a [f64],
    trans: Trans,
}

impl<'a> RowChunk<'a> {
    /// Chunk `p..p+ib` of the reflectors of `shape` stored in the rows of
    /// the `n`-column column-major tile `v` (leading dimension `ldv`).
    #[allow(clippy::too_many_arguments)]
    fn new(
        shape: Shape,
        v: &'a [f64],
        ldv: usize,
        n: usize,
        p: usize,
        ib: usize,
        t: &'a [f64],
        trans: Trans,
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
            ib,
            vd: v.get(dense.start * ldv + p..).unwrap_or(&[]),
            dense,
            corner,
            ldv,
            kc,
            t,
            trans,
        }
    }

    /// The chunk's coefficients as `(array, stride, columns of C)`: those of
    /// the `n`-th column of `columns` are `array[n * stride..][..ib]`.  The
    /// dense columns come straight off the tile, the corner's off `kc`.
    #[inline(always)]
    fn parts(&self) -> [(&[f64], usize, Range<usize>); 2] {
        [
            (self.vd, self.ldv, self.dense.clone()),
            (self.kc.as_flattened(), IB, self.corner.clone()),
        ]
    }
}

/// Apply one chunk to rows `i0..i0+LANES` of `c` (leading dimension `ld`)
/// and, for TS/TT, of `head` — columns `p..p+ib` of the pivot tile, same
/// leading dimension.  `W = H + C V_p` accumulates in `ib` registers from
/// one load of `C[i0.., j]` and `ib` coefficient broadcasts per column,
/// `W op(T)` is [`t_product`], and `C[:, j] -= W v[p.., j]` re-reads the
/// row group; `FULL` makes `ib` the constant `IB`, so everything unrolls
/// and `W` never leaves the registers.
///
/// # Safety
/// The lane's ISA contract (see [`SimdLane`]).
#[inline(always)]
unsafe fn right_rows<S: SimdLane, const FULL: bool>(
    s: S,
    ch: &RowChunk<'_>,
    mut head: Option<&mut [f64]>,
    c: &mut [f64],
    ld: usize,
    i0: usize,
) {
    let ib = if FULL { IB } else { ch.ib };
    assert!(ib == ch.ib && i0 + S::LANES <= ld);
    assert!(ch.dense.end.max(ch.corner.end) * ld <= c.len());
    assert!(head.as_ref().is_none_or(|h| ib * ld <= h.len()));
    // SAFETY (whole body): the caller upholds the lane's ISA contract; every
    // `load`/`store` is at `j * ld + i0` with `i0 + LANES <= ld` and `j`
    // below the column count the asserts above checked the slice against.
    unsafe {
        let mut w = [s.zero(); IB];
        if let Some(h) = head.as_ref() {
            for (kk, wk) in w.iter_mut().enumerate().take(ib) {
                *wk = s.load(h, kk * ld + i0);
            }
        }
        for (coef, stride, cols) in ch.parts() {
            for (n, j) in cols.enumerate() {
                let (cj, vj) = (s.load(c, j * ld + i0), &coef[n * stride..][..ib]);
                for (wk, &v) in w.iter_mut().zip(vj) {
                    *wk = s.mul_add(cj, s.splat(v), *wk);
                }
            }
        }
        let mut w = t_product(s, ch.t, ch.trans, ib, &w);
        let minus = s.splat(-1.0);
        for wk in w.iter_mut().take(ib) {
            *wk = s.mul(*wk, minus);
        }
        if let Some(h) = head.as_mut() {
            for (kk, &wk) in w.iter().enumerate().take(ib) {
                let hk = s.add(s.load(h, kk * ld + i0), wk);
                s.store(h, kk * ld + i0, hk);
            }
        }
        for (coef, stride, cols) in ch.parts() {
            for (n, j) in cols.enumerate() {
                let (mut cj, vj) = (s.load(c, j * ld + i0), &coef[n * stride..][..ib]);
                for (&wk, &v) in w.iter().zip(vj) {
                    cj = s.mul_add(wk, s.splat(v), cj);
                }
                s.store(c, j * ld + i0, cj);
            }
        }
    }
}

/// Apply one chunk to all `r` rows: full lane groups, then the `r mod
/// LANES` leftover rows one at a time through the same arithmetic.
///
/// # Safety
/// The lane's ISA contract (see [`SimdLane`]).
#[inline(always)]
unsafe fn right_chunk<S: SimdLane, const FULL: bool>(
    s: S,
    ch: &RowChunk<'_>,
    mut head: Option<&mut [f64]>,
    c: &mut [f64],
    r: usize,
) {
    let mut i0 = 0;
    // SAFETY: the caller upholds the lane's ISA contract; the scalar lane
    // has none.
    unsafe {
        while i0 + S::LANES <= r {
            right_rows::<S, FULL>(s, ch, head.as_deref_mut(), c, r, i0);
            i0 += S::LANES;
        }
        while i0 < r {
            right_rows::<ScalarLane, FULL>(ScalarLane, ch, head.as_deref_mut(), c, r, i0);
            i0 += 1;
        }
    }
}

/// Lane-generic body of [`apply_right`].
///
/// # Safety
/// The lane's ISA contract (see [`SimdLane`]).
#[inline(always)]
unsafe fn apply_right_body<S: SimdLane>(
    s: S,
    shape: Shape,
    v: &Matrix,
    tf: &TFactor,
    mut head: Option<&mut Matrix>,
    c: &mut Matrix,
    trans: Trans,
) {
    let (r, n) = (c.rows(), c.cols());
    for (p, ib) in chunk_order(tf.len(), trans) {
        let ch = RowChunk::new(
            shape,
            v.data(),
            v.rows(),
            n,
            p,
            ib,
            tf.t_block_data(p),
            trans,
        );
        let h = head
            .as_deref_mut()
            .map(|h| &mut h.data_mut()[p * r..(p + ib) * r]);
        // SAFETY: the caller upholds the lane's ISA contract.
        unsafe {
            if ib == IB {
                right_chunk::<S, true>(s, &ch, h, c.data_mut(), r);
            } else {
                right_chunk::<S, false>(s, &ch, h, c.data_mut(), r);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2_shells {
    use super::*;
    use bidiag_matrix::simd::Avx2Lane;

    /// # Safety
    /// Caller must guarantee AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn apply(
        shape: Shape,
        v: &Matrix,
        tf: &TFactor,
        head: Option<&mut Matrix>,
        c: &mut Matrix,
        trans: Trans,
    ) {
        // SAFETY: inside this target_feature fn AVX2+FMA are enabled, so
        // constructing the lane token is sound.
        unsafe { apply_body(Avx2Lane::new_unchecked(), shape, v, tf, head, c, trans) }
    }

    /// # Safety
    /// Caller must guarantee AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn apply_right(
        shape: Shape,
        v: &Matrix,
        tf: &TFactor,
        head: Option<&mut Matrix>,
        c: &mut Matrix,
        trans: Trans,
    ) {
        // SAFETY: as in `apply`.
        unsafe { apply_right_body(Avx2Lane::new_unchecked(), shape, v, tf, head, c, trans) }
    }

    /// # Safety
    /// Caller must guarantee AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn factor(shape: Shape, r1: Option<&mut Matrix>, a: &mut Matrix) -> TFactor {
        // SAFETY: as in `apply`.
        unsafe { factor_body(Avx2Lane::new_unchecked(), shape, r1, a) }
    }
}

/// Apply the `tf.len()` reflectors of `shape` stored in `v` from the left:
/// `Q^T` ([`Trans::Transpose`]) or `Q` to `c` (as many rows as `v`) and,
/// for the TS/TT shapes, to rows `0..tf.len()` of the pivot tile `head`
/// (as many columns as `c`; `None` exactly for the trapezoid).  The tile
/// kernels of [`crate::qr`] check the operand shapes; a mismatch that got
/// past them would panic in a slice index here.  One backend dispatch per
/// call.
pub(crate) fn apply(
    shape: Shape,
    v: &Matrix,
    tf: &TFactor,
    head: Option<&mut Matrix>,
    c: &mut Matrix,
    trans: Trans,
) {
    debug_assert_eq!(shape == Shape::Trapezoid, head.is_none());
    match simd::backend() {
        // SAFETY: the scalar lane has no ISA requirements.
        SimdBackend::Scalar => unsafe { apply_body(ScalarLane, shape, v, tf, head, c, trans) },
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx2 => {
            simd::check_avx2();
            // SAFETY: check_avx2 verified AVX2+FMA.
            unsafe { avx2_shells::apply(shape, v, tf, head, c, trans) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        SimdBackend::Avx2 => {
            simd::check_avx2();
            unreachable!()
        }
    }
}

/// Apply the `tf.len()` *row-wise* stored reflectors of `shape` in `v` from
/// the right: `C Q_lq^T` ([`Trans::Transpose`]) or `C Q_lq` to `c` (as many
/// columns as `v`) and, for the TS/TT shapes, to columns `0..tf.len()` of
/// the pivot tile `head` (as many rows as `c`; `None` exactly for the
/// trapezoid).  The tile kernels of [`crate::lq`] check the operand
/// shapes.  One backend dispatch per call.
pub(crate) fn apply_right(
    shape: Shape,
    v: &Matrix,
    tf: &TFactor,
    head: Option<&mut Matrix>,
    c: &mut Matrix,
    trans: Trans,
) {
    debug_assert_eq!(shape == Shape::Trapezoid, head.is_none());
    match simd::backend() {
        // SAFETY: the scalar lanes have no ISA requirements.
        SimdBackend::Scalar => unsafe {
            apply_right_body(ScalarRows, shape, v, tf, head, c, trans)
        },
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx2 => {
            simd::check_avx2();
            // SAFETY: check_avx2 verified AVX2+FMA.
            unsafe { avx2_shells::apply_right(shape, v, tf, head, c, trans) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        SimdBackend::Avx2 => {
            simd::check_avx2();
            unreachable!()
        }
    }
}

/// Factor `a` in place into reflectors of `shape` — on its own
/// ([`Shape::Trapezoid`], `r1 == None`) or stacked under the upper
/// triangle `r1` (as many columns as `a`, checked by the callers) — and
/// return their [`TFactor`].  One backend dispatch per call.
pub(crate) fn factor(shape: Shape, r1: Option<&mut Matrix>, a: &mut Matrix) -> TFactor {
    debug_assert_eq!(shape == Shape::Trapezoid, r1.is_none());
    match simd::backend() {
        // SAFETY: the scalar lane has no ISA requirements.
        SimdBackend::Scalar => unsafe { factor_body(ScalarLane, shape, r1, a) },
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx2 => {
            simd::check_avx2();
            // SAFETY: check_avx2 verified AVX2+FMA.
            unsafe { avx2_shells::factor(shape, r1, a) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        SimdBackend::Avx2 => {
            simd::check_avx2();
            unreachable!()
        }
    }
}

// ---------------------------------------------------------------------------
// T factor and workspace
// ---------------------------------------------------------------------------

/// The compact-WY representation of one factorization kernel's reflectors:
/// the `tau` scalars and the `IB`-block-diagonal of the upper-triangular
/// `T` such that `H_0 ... H_{k-1} = I - V T V^T`.
///
/// Only the `IB x IB` diagonal blocks of `T` exist, side by side in an
/// `IB x k` array ([`t_block`](TFactor::t_block)): because `T` is upper
/// triangular, rows `k0..k` of its `larft` column recurrence only involve
/// columns `k0..k`, so each diagonal block equals the `larft` factor of
/// its chunk's reflectors alone — exactly what the `IB`-chunked apply
/// kernels consume.  Skipping the off-diagonal blocks turns the `O(k^2)`
/// reflector-dot sweep per column into an `O(IB)` one, and keeps a factor
/// at `(IB + 1) k` doubles in one allocation — the tau store holds one per
/// factorization for the whole DAG.
///
/// `tau[i]` is the diagonal of `T`; the scalars are kept alongside so the
/// unblocked reference kernels (and diagnostics like
/// [`build_q`](crate::qr::build_q)) can consume the same object.
#[derive(Clone, Debug, PartialEq)]
pub struct TFactor {
    /// `kmax` taus, then the `IB x kmax` block array (column `k` of `T`,
    /// rows of its chunk, at `kmax + k * IB`).
    data: Vec<f64>,
    kmax: usize,
    len: usize,
}

impl TFactor {
    /// An empty factor for up to `kmax` reflectors.
    pub(crate) fn with_kmax(kmax: usize) -> Self {
        TFactor {
            data: vec![0.0; kmax * (IB + 1)],
            kmax,
            len: 0,
        }
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
        &self.data[..self.len]
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
        &self.data[self.kmax + p * IB..self.kmax + IB * self.len.min(p + IB)]
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
        let (earlier, tcol) = self.data[self.kmax + (k - kl) * IB..].split_at_mut(kl * IB);
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
        self.data[k] = tau;
        self.len += 1;
    }
}

/// Reusable scratch of the blocked LQ factorizations: the two tiles
/// `gelqt`/`tslqt`/`ttlqt` transpose their operands into.  The tiles grow
/// on first use and are reused afterwards, so a long-lived workspace — one
/// per runtime worker — makes those kernels allocation-free in steady
/// state.  The apply kernels of both sides and the QR factorizations take
/// one for call compatibility and never touch it: their `W` block and
/// corner live in registers and on the stack.
#[derive(Debug)]
pub struct Workspace {
    transposed: [Matrix; 2],
}

impl Workspace {
    /// Empty workspace (the tiles grow on the first LQ factorization).
    pub fn new() -> Self {
        Self::for_tile(0)
    }

    /// Workspace pre-sized for tiles up to `nb x nb`, so the first kernel
    /// call is as allocation-free as the steady state.
    pub fn for_tile(nb: usize) -> Self {
        Workspace {
            transposed: [Matrix::zeros(nb, nb), Matrix::zeros(nb, nb)],
        }
    }

    /// The two tiles the LQ factorizations transpose their operands into.
    pub(crate) fn transposed(&mut self) -> &mut [Matrix; 2] {
        &mut self.transposed
    }
}

impl Default for Workspace {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bidiag_matrix::gemm::dot as fdot;
    use bidiag_matrix::gen::random_gaussian;

    #[test]
    fn workspace_tiles_start_on_a_cache_line() {
        // A cold workspace grows both tiles inside its first TSLQT.
        let mut cold = Workspace::new();
        let (mut l1, mut a2) = (random_gaussian(5, 5, 1), random_gaussian(5, 7, 2));
        crate::lq::tslqt(&mut l1, &mut a2, &mut cold);
        for mut ws in [cold, Workspace::for_tile(5), Workspace::for_tile(64)] {
            for t in ws.transposed() {
                assert!(!t.data().is_empty());
                assert!((t.data().as_ptr() as usize).is_multiple_of(64));
            }
        }
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
        let mut tf = TFactor::with_kmax(2);
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

        let mut tf = TFactor::with_kmax(k);
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
