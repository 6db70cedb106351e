//! Elementary Householder reflectors (LAPACK `xLARFG` / `xLARF` analogues).
//!
//! A reflector is `H = I - tau * v * v^T` with `v[0] = 1`.  Applied to the
//! vector it was generated from, it produces `(beta, 0, ..., 0)`.

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

/// Dot product of two slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut s = 0.0;
    for i in 0..a.len() {
        s += a[i] * b[i];
    }
    s
}

/// `y += alpha * x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for i in 0..x.len() {
        y[i] += alpha * x[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply_reflector(tau: f64, v: &[f64], x: &mut [f64]) {
        // x <- (I - tau v v^T) x  with v[0] = 1 implicit in v (v given in full here)
        let w = dot(v, x);
        axpy(-tau * w, v, x);
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
