//! Elementary Householder reflectors (LAPACK `xLARFG` / `xLARF` analogues).
//!
//! A reflector is `H = I - tau * v * v^T` with `v[0] = 1`.  Applied to the
//! vector it was generated from, it produces `(beta, 0, ..., 0)`.
//!
//! The crate-private half is the reflector plane [`crate::gebd2`] and the
//! bulge chase of [`crate::band`] share: `reflector` on a prescaled vector
//! and the two applies on a column-major window with a leading dimension,
//! lane-generic, run by the callers' kernels through `simd::dispatch` (four
//! lanes under `Avx2`, eight under `Avx512`).
//!
//! Neither apply has an element-by-element tail.  `right_apply` takes its
//! rows in chunks of eight registers; the rows left over are one more chunk
//! of `ceil(rest / LANES)` registers whose last one is loaded and stored
//! through [`SimdLane::load_head`] / [`SimdLane::store_head`], so a tail
//! costs what a chunk of its register count costs.  `left_apply` keeps `v`
//! in up to sixteen registers (64 rows of four lanes, 128 of eight; the last
//! one masked) for the whole call and touches each column once; only a
//! longer `v` falls back to a dot product and an axpy per column.  On the
//! scalar lane a register is one element and a mask is never partial, so
//! its results do not depend on any of this.

use bidiag_matrix::simd::{self, SimdLane};

/// Result of generating a Householder reflector.
#[derive(Clone, Debug)]
pub struct Reflector {
    /// Scalar factor `tau` (0 means the reflector is the identity).
    pub tau: f64,
    /// The value the first entry becomes after applying the reflector.
    pub beta: f64,
}

/// Generate a Householder reflector for the vector `(alpha, x)`:
/// overwrite `x` with the tail of `v` (the head `v[0] = 1` is implicit) and
/// return `(tau, beta)` such that `H * (alpha, x_old) = (beta, 0, ..., 0)`.
///
/// This mirrors LAPACK `dlarfg`.
pub fn larfg(alpha: f64, x: &mut [f64]) -> Reflector {
    let xnorm = norm2(&*x);
    larfg_with_norm(alpha, x, xnorm)
}

/// [`larfg`] for a caller that already knows `xnorm = ||x||_2` (the tile
/// factorizations take it from a vectorized sum of squares), on whatever
/// entries `x` yields (the LQ factorizations' are a row of a tile).
pub(crate) fn larfg_with_norm<'a>(
    alpha: f64,
    x: impl IntoIterator<Item = &'a mut f64>,
    xnorm: f64,
) -> Reflector {
    let (r, scale) = larfg_scale(alpha, xnorm);
    if let Some(scale) = scale {
        for v in x {
            *v *= scale;
        }
    }
    r
}

/// [`larfg_with_norm`] for an `x` the caller scales itself (a TS stack's
/// tail, one tile at a time): the reflector and the factor every entry of
/// `x` is to be multiplied by, `None` when `H = I` and `x` stays.
pub(crate) fn larfg_scale(alpha: f64, xnorm: f64) -> (Reflector, Option<f64>) {
    if xnorm == 0.0 {
        // Already in the desired form, H = I.
        let r = Reflector {
            tau: 0.0,
            beta: alpha,
        };
        return (r, None);
    }
    let beta = -alpha.signum() * (alpha * alpha + xnorm * xnorm).sqrt();
    let tau = (beta - alpha) / beta;
    (Reflector { tau, beta }, Some(1.0 / (alpha - beta)))
}

/// Euclidean norm with scaling to avoid overflow, of the entries `x` yields
/// (walked twice).
pub fn norm2<'a>(x: impl IntoIterator<Item = &'a f64, IntoIter: Clone>) -> f64 {
    let x = x.into_iter();
    let amax = x.clone().fold(0.0_f64, |m, &v| m.max(v.abs()));
    if amax == 0.0 {
        return 0.0;
    }
    let mut s = 0.0;
    for &v in x {
        let t = v / amax;
        s += t * t;
    }
    amax * s.sqrt()
}

/// Sum-of-squares threshold below which the tail of a reflector counts as
/// zero, in the units of a matrix prescaled by [`prescale`] (largest entry
/// in `(0.5, 1]`): such a tail is below `1e-145 * max|A|`, far under any
/// rounding error of a reduction, while a sum of squares above it keeps full
/// relative precision (`f64::MIN_POSITIVE / f64::EPSILON` is `1e-292`).
const NEGLIGIBLE_SS: f64 = 1e-290;

/// An exact power of two that brings `amax` into `(0.5, 1]` — what makes
/// [`reflector`]'s plain sum of squares safe — and its inverse; the clamp
/// keeps the factor itself finite for subnormal or infinite `amax`.
pub(crate) fn prescale(amax: f64) -> (f64, f64) {
    let exp = (-amax.log2().ceil()).clamp(-1000.0, 1000.0) as i32;
    (2.0f64.powi(exp), 2.0f64.powi(-exp))
}

/// Turn `v = (alpha, x)` into the Householder vector `(1, x / (alpha -
/// beta))` of the reflector that maps it to `(beta, 0, ..., 0)`; a
/// negligible `x` (see [`NEGLIGIBLE_SS`]) gives the identity, `tau == 0`.
#[inline(always)]
pub(crate) fn reflector<S: SimdLane>(s: S, v: &mut [f64]) -> Reflector {
    let (alpha, x) = v.split_first_mut().expect("a reflector has a head");
    let ss = simd::dot_body(s, x, x);
    let r = if ss < NEGLIGIBLE_SS {
        Reflector {
            tau: 0.0,
            beta: *alpha,
        }
    } else {
        larfg_with_norm(*alpha, x, ss.sqrt())
    };
    *alpha = 1.0;
    r
}

/// `C <- C (I - tau v v^T)` on the rows `i0 .. i0 + rows` of the column
/// segments `blk[jj * ld ..]`, `jj < v.len()`, in `R` registers of rows the
/// last of which holds `rows - (R - 1) * LANES` live ones: the registers of
/// `w = C v` are accumulated over one pass and subtracted in a second.
/// Panics unless `(R - 1) * LANES < rows <= R * LANES`.
#[inline(always)]
fn right_rows<S: SimdLane, const R: usize>(
    s: S,
    blk: &mut [f64],
    ld: usize,
    i0: usize,
    rows: usize,
    v: &[f64],
    tau: f64,
) {
    let (last, k) = ((R - 1) * S::LANES, rows - (R - 1) * S::LANES);
    debug_assert!((1..=S::LANES).contains(&k));
    let mut w = [s.zero(); R];
    for (jj, &vj) in v.iter().enumerate() {
        let (seg, vj) = (&blk[jj * ld + i0..][..rows], s.splat(vj));
        for (r, wr) in w[..R - 1].iter_mut().enumerate() {
            *wr = s.mul_add(s.load(seg, r * S::LANES), vj, *wr);
        }
        w[R - 1] = s.mul_add(s.load_head(seg, last, k), vj, w[R - 1]);
    }
    let minus_tau = s.splat(-tau);
    for wr in w.iter_mut() {
        *wr = s.mul(*wr, minus_tau);
    }
    for (jj, &vj) in v.iter().enumerate() {
        let (seg, vj) = (&mut blk[jj * ld + i0..][..rows], s.splat(vj));
        for (r, &wr) in w[..R - 1].iter().enumerate() {
            let c = s.mul_add(wr, vj, s.load(seg, r * S::LANES));
            s.store(seg, r * S::LANES, c);
        }
        let c = s.mul_add(w[R - 1], vj, s.load_head(seg, last, k));
        s.store_head(seg, last, k, c);
    }
}

/// `$kernel::<S, N>$args` with the const `N` equal to the register count
/// `$n`, one arm per listed count; `$more` for any other.
macro_rules! with_regs {
    ($n:expr, $kernel:ident $args:tt, [$($N:literal)*], $more:expr) => {
        match $n {
            $($N => $kernel::<S, $N> $args,)*
            _ => $more,
        }
    };
}

/// `C <- C (I - tau v v^T)` on the `m x v.len()` column-major window `blk`
/// of leading dimension `ld`, rows as lanes: [`right_rows`] in chunks of
/// eight registers, the last chunk in as many registers as the rows left
/// over need, its last register masked — every row is fused, and a tail
/// costs what a chunk of its register count costs.
#[inline(always)]
pub(crate) fn right_apply<S: SimdLane>(
    s: S,
    blk: &mut [f64],
    ld: usize,
    m: usize,
    v: &[f64],
    tau: f64,
) {
    for i0 in (0..m).step_by(8 * S::LANES) {
        let rows = (m - i0).min(8 * S::LANES);
        with_regs!(
            rows.div_ceil(S::LANES),
            right_rows(s, blk, ld, i0, rows, v, tau),
            [1 2 3 4 5 6 7 8],
            unreachable!("a chunk is at most eight registers")
        )
    }
}

/// [`left_apply`] with `v` in `NV` registers, the last of which holds
/// `v.len() - (NV - 1) * LANES` live rows: `v` is loaded once per call and
/// each column once — multiplied, reduced, updated and stored from
/// registers.  The sum runs in [`simd::dot_body`]'s order and the update is
/// [`simd::axpy_body`]'s expression, so where `v` fills its registers (on
/// the scalar lane: always) the result is bitwise the fallback's.  Panics
/// unless `(NV - 1) * LANES < v.len() <= NV * LANES`.
#[inline(always)]
fn left_cols<S: SimdLane, const NV: usize>(
    s: S,
    blk: &mut [f64],
    ld: usize,
    ncols: usize,
    v: &[f64],
    tau: f64,
) {
    let (len, last) = (v.len(), (NV - 1) * S::LANES);
    let k = len - last;
    debug_assert!((1..=S::LANES).contains(&k));
    let mut vr = [s.zero(); NV];
    for (r, x) in vr[..NV - 1].iter_mut().enumerate() {
        *x = s.load(v, r * S::LANES);
    }
    vr[NV - 1] = s.load_head(v, last, k);
    for jj in 0..ncols {
        let seg = &mut blk[jj * ld..][..len];
        let mut c = [s.zero(); NV];
        for (r, x) in c[..NV - 1].iter_mut().enumerate() {
            *x = s.load(seg, r * S::LANES);
        }
        c[NV - 1] = s.load_head(seg, last, k);
        // Four accumulators over the whole groups of four registers,
        // the rest onto the first.
        let mut acc = [s.zero(); 4];
        for (r, (&vx, &cx)) in vr.iter().zip(&c).enumerate() {
            let a = if r < NV - NV % 4 { r % 4 } else { 0 };
            acc[a] = s.mul_add(vx, cx, acc[a]);
        }
        let dot = s.reduce_sum(s.add(s.add(acc[0], acc[1]), s.add(acc[2], acc[3])));
        let minus_w = s.splat(-(tau * dot));
        for (r, (&vx, &cx)) in vr[..NV - 1].iter().zip(&c).enumerate() {
            s.store(seg, r * S::LANES, s.mul_add(vx, minus_w, cx));
        }
        let x = s.mul_add(vr[NV - 1], minus_w, c[NV - 1]);
        s.store_head(seg, last, k, x);
    }
}

/// `C <- (I - tau v v^T) C` on the `ncols` columns of the column-major
/// window `blk` (`v.len()` rows, leading dimension `ld`): [`left_cols`]
/// while `v` fits sixteen registers — 64 rows of four lanes, 128 of eight;
/// the count is dispatched once per call — and a dot product and an axpy
/// down each column beyond.  Sixteen for `v` and as many for the column is
/// what the 32 registers of AVX-512 hold; the 256-bit lane has sixteen in
/// all and spills part of `v` to the stack, which still reads it and the
/// column once per column instead of twice.
#[inline(always)]
pub(crate) fn left_apply<S: SimdLane>(
    s: S,
    blk: &mut [f64],
    ld: usize,
    ncols: usize,
    v: &[f64],
    tau: f64,
) {
    with_regs!(
        v.len().div_ceil(S::LANES),
        left_cols(s, blk, ld, ncols, v, tau),
        [1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16],
        for jj in 0..ncols {
            let seg = &mut blk[jj * ld..][..v.len()];
            let w = tau * simd::dot_body(s, v, seg);
            simd::axpy_body(s, seg, -w, v);
        }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bidiag_matrix::gen::random_gaussian;
    use bidiag_matrix::simd::LaneKernel;

    fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    fn apply_reflector(tau: f64, v: &[f64], x: &mut [f64]) {
        // x <- (I - tau v v^T) x  with v[0] = 1 implicit in v (v given in full here)
        let w = dot(v, x);
        x.iter_mut().zip(v).for_each(|(xi, vi)| *xi -= tau * w * vi);
    }

    #[test]
    fn larfg_zeroes_tail() {
        let alpha = 3.0;
        let mut tail = vec![1.0, -2.0, 0.5];
        let orig = {
            let mut t = vec![alpha];
            t.extend_from_slice(&tail);
            t
        };
        let r = larfg(alpha, &mut tail);
        // Build the full v = (1, tail) and apply H to the original vector.
        let mut v = vec![1.0];
        v.extend_from_slice(&tail);
        let mut x = orig.clone();
        apply_reflector(r.tau, &v, &mut x);
        assert!((x[0] - r.beta).abs() < 1e-12);
        for &t in &x[1..] {
            assert!(t.abs() < 1e-12);
        }
        // Norm is preserved.
        assert!((norm2(&orig) - r.beta.abs()).abs() < 1e-12);
    }

    #[test]
    fn larfg_identity_when_tail_zero() {
        let mut tail = vec![0.0, 0.0];
        let r = larfg(5.0, &mut tail);
        assert_eq!(r.tau, 0.0);
        assert_eq!(r.beta, 5.0);
    }

    #[test]
    fn larfg_is_orthogonal() {
        // H^T H = I <=> tau * (v.v) = 2 when tau != 0.
        let mut tail = vec![0.3, -0.7, 2.0, 1.1];
        let r = larfg(-1.4, &mut tail);
        let mut v = vec![1.0];
        v.extend_from_slice(&tail);
        let vv = dot(&v, &v);
        assert!((r.tau * vv - 2.0).abs() < 1e-12);
    }

    /// A `rows x cols` window of leading dimension `ld > rows` in a buffer
    /// that ends with its last entry; the gap rows are NaN.
    fn poisoned_window(rows: usize, cols: usize, ld: usize, seed: u64) -> Vec<f64> {
        let values = random_gaussian(rows, cols, seed);
        let mut buf = vec![f64::NAN; (cols - 1) * ld + rows];
        for j in 0..cols {
            buf[j * ld..][..rows].copy_from_slice(values.col(j));
        }
        buf
    }

    /// `(1 + tau v^T v) max|C|`: the size of the terms of a rank-one update
    /// of the window `blk` by the reflector `(tau, v)`, the unit of the
    /// oracle comparisons' `1e-14`.
    fn update_scale(blk: &[f64], v: &[f64], tau: f64) -> f64 {
        let cmax = blk
            .iter()
            .filter(|x| !x.is_nan())
            .fold(0.0f64, |m, x| m.max(x.abs()));
        (1.0 + tau * dot(v, v)) * cmax
    }

    /// `got` holds `want` (column-major, `rows` per column) to `1e-14 scale`
    /// and NaN in every gap row.
    fn assert_window(
        got: &[f64],
        want: &[f64],
        (rows, ld): (usize, usize),
        scale: f64,
        what: &str,
    ) {
        for (at, x) in got.iter().enumerate() {
            let (j, i) = (at / ld, at % ld);
            if i < rows {
                let y = want[j * rows + i];
                assert!(
                    (x - y).abs() <= 1e-14 * scale,
                    "{what} ({i}, {j}): {x} vs {y}"
                );
            } else {
                assert!(x.is_nan(), "{what}: gap row {i} of column {j} written");
            }
        }
    }

    /// [`right_apply`] against `C - tau (C v) v^T` for every row count up to
    /// two chunks and one row, so that every register count of the last
    /// chunk and every mask is hit.
    #[inline(always)]
    fn check_right_apply<S: SimdLane>(s: S) {
        let tau = 1.3;
        for m in 1..=2 * 8 * S::LANES + 1 {
            for n in [1usize, 2, 3, 7, 64] {
                let (ld, v) = (m + 3, random_gaussian(n, 1, (m * 67 + n) as u64));
                let v = v.data();
                let mut blk = poisoned_window(m, n, ld, (m * 71 + n) as u64);
                let c = |i: usize, j: usize| blk[j * ld + i];
                let mut want = vec![0.0; m * n];
                for i in 0..m {
                    let w: f64 = (0..n).map(|j| c(i, j) * v[j]).sum();
                    for j in 0..n {
                        want[j * m + i] = c(i, j) - tau * w * v[j];
                    }
                }
                let scale = update_scale(&blk, v, tau);
                right_apply(s, &mut blk, ld, m, v, tau);
                let what = format!("right_apply {m} x {n} on {} lanes", S::LANES);
                assert_window(&blk, &want, (m, ld), scale, &what);
            }
        }
    }

    /// [`left_apply`] against `C - tau v (v^T C)` for every length of `v` up
    /// to seventeen registers: one to sixteen resident ones, every mask, and
    /// the fallback — whose bits the resident form must reproduce whenever
    /// `v` fills its registers.
    #[inline(always)]
    fn check_left_apply<S: SimdLane>(s: S) {
        let tau = 1.7;
        for m in 1..=17 * S::LANES {
            for n in [1usize, 4, 5, 127] {
                let (ld, v) = (m + 3, random_gaussian(m, 1, (m * 73 + n) as u64));
                let v = v.data();
                let mut blk = poisoned_window(m, n, ld, (m * 79 + n) as u64);
                let c = |i: usize, j: usize| blk[j * ld + i];
                let mut want = vec![0.0; m * n];
                for j in 0..n {
                    let w: f64 = (0..m).map(|i| v[i] * c(i, j)).sum();
                    for i in 0..m {
                        want[j * m + i] = c(i, j) - tau * v[i] * w;
                    }
                }
                let scale = update_scale(&blk, v, tau);
                // What the chase ran before `v` stayed in registers, and the
                // scalar backend's bits: a dot and an axpy per column.
                let mut by_column = blk.clone();
                for seg in by_column.chunks_mut(ld) {
                    let w = tau * simd::dot_body(s, v, &seg[..m]);
                    simd::axpy_body(s, &mut seg[..m], -w, v);
                }
                left_apply(s, &mut blk, ld, n, v, tau);
                let what = format!("left_apply {m} x {n} on {} lanes", S::LANES);
                assert_window(&blk, &want, (m, ld), scale, &what);
                if m % S::LANES == 0 {
                    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&blk), bits(&by_column), "{what} vs dot + axpy");
                }
            }
        }
    }

    /// [`check_right_apply`] on the lane of the backend in force.
    struct RightApply;

    impl LaneKernel for RightApply {
        type Output = ();

        #[inline(always)]
        fn run<S: SimdLane>(self, s: S) {
            check_right_apply(s)
        }
    }

    /// [`check_left_apply`] on the lane of the backend in force.
    struct LeftApply;

    impl LaneKernel for LeftApply {
        type Output = ();

        #[inline(always)]
        fn run<S: SimdLane>(self, s: S) {
            check_left_apply(s)
        }
    }

    #[test]
    fn right_apply_matches_the_plain_oracle_on_every_lane() {
        simd::on_each_backend(|| simd::dispatch(RightApply));
    }

    #[test]
    fn left_apply_matches_the_plain_oracle_on_every_lane() {
        simd::on_each_backend(|| simd::dispatch(LeftApply));
    }

    #[test]
    fn norm2_handles_large_values() {
        let x = vec![3.0e200, 4.0e200];
        assert!((norm2(&x) - 5.0e200).abs() / 5.0e200 < 1e-14);
        assert_eq!(norm2(&[]), 0.0);
    }
}
