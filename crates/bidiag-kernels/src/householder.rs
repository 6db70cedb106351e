//! Elementary Householder reflectors (LAPACK `xLARFG` / `xLARF` analogues).
//!
//! A reflector is `H = I - tau * v * v^T` with `v[0] = 1`.  Applied to the
//! vector it was generated from, it produces `(beta, 0, ..., 0)`.
//!
//! The crate-private half is the reflector plane [`crate::gebd2`] and the
//! bulge chase of [`crate::band`] share: `reflector` on a prescaled vector
//! and the two applies on a column-major window with a leading dimension,
//! lane-generic, compiled inside the caller's `#[target_feature]` shell.

use bidiag_matrix::simd::{self, ScalarLane, SimdLane};

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
    let xnorm = norm2(x);
    larfg_with_norm(alpha, x, xnorm)
}

/// [`larfg`] for a caller that already knows `xnorm = ||x||_2` (the tile
/// factorizations take it from a vectorized sum of squares).
pub(crate) fn larfg_with_norm(alpha: f64, x: &mut [f64], xnorm: f64) -> Reflector {
    if xnorm == 0.0 {
        // Already in the desired form, H = I.
        return Reflector {
            tau: 0.0,
            beta: alpha,
        };
    }
    let beta = -alpha.signum() * (alpha * alpha + xnorm * xnorm).sqrt();
    let tau = (beta - alpha) / beta;
    let scale = 1.0 / (alpha - beta);
    for v in x.iter_mut() {
        *v *= scale;
    }
    Reflector { tau, beta }
}

/// Euclidean norm with scaling to avoid overflow.
pub fn norm2(x: &[f64]) -> f64 {
    let amax = x.iter().fold(0.0_f64, |m, &v| m.max(v.abs()));
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
///
/// # Safety
/// The lane's ISA contract (see [`SimdLane`]).
#[inline(always)]
pub(crate) unsafe fn reflector<S: SimdLane>(s: S, v: &mut [f64]) -> Reflector {
    let (alpha, x) = v.split_first_mut().expect("a reflector has a head");
    // SAFETY: the caller upholds the lane's ISA contract.
    let ss = unsafe { simd::dot_body(s, x, x) };
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

/// `C <- C (I - tau v v^T)` on the rows `i0 .. i0 + R * LANES` of the
/// column segments `blk[jj * ld ..]`, `jj < v.len()`: the `R` registers of
/// `w = C v` are accumulated over one pass and subtracted in a second.
///
/// # Safety
/// The lane's ISA contract (see [`SimdLane`]).
#[inline(always)]
unsafe fn right_rows<S: SimdLane, const R: usize>(
    s: S,
    blk: &mut [f64],
    ld: usize,
    i0: usize,
    v: &[f64],
    tau: f64,
) {
    let rows = R * S::LANES;
    // SAFETY (whole body): the caller upholds the lane's ISA contract; every
    // `load`/`store` is at `r * LANES` with `r < R` in a segment that was
    // sliced to exactly `R * LANES` elements.
    unsafe {
        let mut w = [s.zero(); R];
        for (jj, &vj) in v.iter().enumerate() {
            let (seg, vj) = (&blk[jj * ld + i0..][..rows], s.splat(vj));
            for (r, wr) in w.iter_mut().enumerate() {
                *wr = s.mul_add(s.load(seg, r * S::LANES), vj, *wr);
            }
        }
        let minus_tau = s.splat(-tau);
        for wr in w.iter_mut() {
            *wr = s.mul(*wr, minus_tau);
        }
        for (jj, &vj) in v.iter().enumerate() {
            let (seg, vj) = (&mut blk[jj * ld + i0..][..rows], s.splat(vj));
            for (r, &wr) in w.iter().enumerate() {
                let c = s.mul_add(wr, vj, s.load(seg, r * S::LANES));
                s.store(seg, r * S::LANES, c);
            }
        }
    }
}

/// `C <- C (I - tau v v^T)` on the `m x v.len()` column-major window `blk`
/// of leading dimension `ld`, rows as lanes: [`right_rows`] in chunks of
/// eight registers, then one chunk each of four, two and one, then single
/// rows.
///
/// # Safety
/// The lane's ISA contract (see [`SimdLane`]).
#[inline(always)]
pub(crate) unsafe fn right_apply<S: SimdLane>(
    s: S,
    blk: &mut [f64],
    ld: usize,
    m: usize,
    v: &[f64],
    tau: f64,
) {
    let mut i0 = 0;
    // SAFETY: the caller upholds the lane's ISA contract; the scalar lane
    // has none.
    unsafe {
        while m - i0 >= 8 * S::LANES {
            right_rows::<S, 8>(s, blk, ld, i0, v, tau);
            i0 += 8 * S::LANES;
        }
        if m - i0 >= 4 * S::LANES {
            right_rows::<S, 4>(s, blk, ld, i0, v, tau);
            i0 += 4 * S::LANES;
        }
        if m - i0 >= 2 * S::LANES {
            right_rows::<S, 2>(s, blk, ld, i0, v, tau);
            i0 += 2 * S::LANES;
        }
        if m - i0 >= S::LANES {
            right_rows::<S, 1>(s, blk, ld, i0, v, tau);
            i0 += S::LANES;
        }
        while i0 < m {
            right_rows::<ScalarLane, 1>(ScalarLane, blk, ld, i0, v, tau);
            i0 += 1;
        }
    }
}

/// `C <- (I - tau v v^T) C` on the `ncols` columns of the column-major
/// window `blk` (`v.len()` rows, leading dimension `ld`): a dot product and
/// an axpy down each column.  With `BY_FOUR`, four columns at a time while
/// there are four, so that each register of `v` is loaded once per four
/// columns in both passes (one accumulator per column: those sums round
/// differently from the single columns').
///
/// # Safety
/// The lane's ISA contract (see [`SimdLane`]).
#[inline(always)]
pub(crate) unsafe fn left_apply<S: SimdLane, const BY_FOUR: bool>(
    s: S,
    blk: &mut [f64],
    ld: usize,
    ncols: usize,
    v: &[f64],
    tau: f64,
) {
    let (len, whole) = (v.len(), v.len() - v.len() % S::LANES);
    let fours = if BY_FOUR { ncols - ncols % 4 } else { 0 };
    for j0 in (0..fours).step_by(4) {
        let cols = &mut blk[j0 * ld..][..3 * ld + len];
        // SAFETY: the caller upholds the lane's ISA contract; every
        // `load`/`store` is at `i` in `v` or at `c * ld + i` in `cols` with
        // `c < 4` and `i + LANES <= whole <= len`, inside both by the
        // slicing above.
        unsafe {
            let mut acc = [s.zero(); 4];
            for i in (0..whole).step_by(S::LANES) {
                let vi = s.load(v, i);
                for (c, a) in acc.iter_mut().enumerate() {
                    *a = s.mul_add(s.load(cols, c * ld + i), vi, *a);
                }
            }
            let mut w = [0.0f64; 4];
            for (c, wc) in w.iter_mut().enumerate() {
                let rest: f64 = (whole..len).map(|i| cols[c * ld + i] * v[i]).sum();
                *wc = -tau * (s.reduce_sum(acc[c]) + rest);
            }
            for i in (0..whole).step_by(S::LANES) {
                let vi = s.load(v, i);
                for (c, &wc) in w.iter().enumerate() {
                    let x = s.mul_add(s.splat(wc), vi, s.load(cols, c * ld + i));
                    s.store(cols, c * ld + i, x);
                }
            }
            for (c, i) in (0..4).flat_map(|c| (whole..len).map(move |i| (c, i))) {
                cols[c * ld + i] += w[c] * v[i];
            }
        }
    }
    for jj in fours..ncols {
        let seg = &mut blk[jj * ld..][..len];
        // SAFETY: the caller upholds the lane's ISA contract; `seg` and `v`
        // have the same length.
        unsafe {
            let w = tau * simd::dot_body(s, v, seg);
            simd::axpy_body(s, seg, -w, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn norm2_handles_large_values() {
        let x = vec![3.0e200, 4.0e200];
        assert!((norm2(&x) - 5.0e200).abs() / 5.0e200 < 1e-14);
        assert_eq!(norm2(&[]), 0.0);
    }
}
