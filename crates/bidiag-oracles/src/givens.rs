//! Givens (plane) rotations.
//!
//! The arithmetic of the single-bulge Givens chase that `bidiag-kernels`'
//! band tests compare the Householder bulge chase against.

/// A Givens rotation `G = [[c, s], [-s, c]]` chosen so that
/// `G^T * [f, g]^T = [r, 0]^T`.
#[derive(Clone, Copy, Debug)]
pub struct Givens {
    /// Cosine component.
    pub c: f64,
    /// Sine component.
    pub s: f64,
    /// The resulting non-zero value `r`.
    pub r: f64,
}

/// Compute the Givens rotation zeroing `g` against `f`, following the LAPACK
/// `dlartg` sign convention: the sign of `r` follows the larger-magnitude
/// input (so `c >= 0` whenever `|f| > |g|`).  Taking the sign from `f`
/// unconditionally — as a naive implementation does — flips the sign of a
/// whole row/column whenever a small leading entry happens to be negative,
/// and over the `O(n^2)` rotation chains of the bulge chase those avoidable
/// flips accumulate as drift in the trailing band.
pub fn givens(f: f64, g: f64) -> Givens {
    if g == 0.0 {
        Givens {
            c: 1.0,
            s: 0.0,
            r: f,
        }
    } else if f == 0.0 {
        Givens {
            c: 0.0,
            s: 1.0,
            r: g,
        }
    } else {
        let d = f.hypot(g);
        let mut c = f / d;
        let mut s = g / d;
        let mut r = d;
        if f.abs() > g.abs() && c < 0.0 {
            c = -c;
            s = -s;
            r = -r;
        }
        Givens { c, s, r }
    }
}

impl Givens {
    /// Apply the rotation to the pair `(x, y)`, returning the rotated pair
    /// `(c*x + s*y, -s*x + c*y)`.
    #[inline]
    pub fn apply(&self, x: f64, y: f64) -> (f64, f64) {
        (self.c * x + self.s * y, -self.s * x + self.c * y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn givens_zeroes_second_component() {
        for (f, g) in [
            (3.0, 4.0),
            (-1.0, 2.0),
            (0.0, 5.0),
            (2.0, 0.0),
            (-3.0, -4.0),
        ] {
            let rot = givens(f, g);
            let (r, z) = rot.apply(f, g);
            assert!(z.abs() < 1e-14, "z = {z} for ({f}, {g})");
            assert!((r.abs() - f.hypot(g)).abs() < 1e-12);
            // Rotation is orthogonal: c^2 + s^2 = 1 (unless both inputs are 0).
            if f != 0.0 || g != 0.0 {
                assert!((rot.c * rot.c + rot.s * rot.s - 1.0).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn dlartg_sign_convention() {
        // |f| > |g|: c > 0 and the sign of r follows f.
        let rot = givens(-3.0, 2.0);
        assert!(rot.c > 0.0 && rot.r < 0.0);
        let rot = givens(3.0, -2.0);
        assert!(rot.c > 0.0 && rot.r > 0.0);
        // |g| > |f|: plain normalisation, r keeps the sign of the
        // untouched f-based quotient (c keeps sign of f).
        let rot = givens(-2.0, 3.0);
        assert!(rot.r > 0.0 && rot.c < 0.0);
        // Degenerate cases pass through.
        assert_eq!(givens(-5.0, 0.0).r, -5.0);
        assert_eq!(givens(0.0, -5.0).r, -5.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The rotation is orthogonal, annihilates `g`, reproduces `r`, and
        /// obeys the dlartg sign rule, over many magnitude scales.
        #[test]
        fn givens_properties(
            f in -1.0e8_f64..1.0e8,
            g in -1.0e8_f64..1.0e8,
            scale in 0_u32..16,
        ) {
            let s = 10.0_f64.powi(2 * scale as i32 - 16);
            let (f, g) = (f * s, g * s);
            let rot = givens(f, g);
            if f != 0.0 || g != 0.0 {
                prop_assert!((rot.c * rot.c + rot.s * rot.s - 1.0).abs() < 1e-14);
            }
            let (r, z) = rot.apply(f, g);
            let norm = f.hypot(g);
            prop_assert!(z.abs() <= 1e-14 * norm.max(1.0e-300));
            prop_assert!((r - rot.r).abs() <= 1e-12 * norm.max(1.0e-300));
            if f.abs() > g.abs() {
                // Larger-magnitude component dictates the sign: c >= 0.
                prop_assert!(rot.c >= 0.0, "c = {} for ({f}, {g})", rot.c);
            }
        }

        /// A Givens rotation `G = [[c, s], [-s, c]]` has determinant 1,
        /// preserves the Euclidean norm of every pair it is applied to, and
        /// zeroes the second component of the pair it was generated from.
        #[test]
        fn givens_rotation_preserves_norm_and_determinant(
            f in -10.0f64..10.0,
            g in -10.0f64..10.0,
            x in -10.0f64..10.0,
            y in -10.0f64..10.0,
        ) {
            let rot = givens(f, g);
            let det = rot.c * rot.c + rot.s * rot.s;
            prop_assert!((det - 1.0).abs() < 1e-14, "det(G) = {det}");

            let (xr, yr) = rot.apply(x, y);
            let before = x.hypot(y);
            let after = xr.hypot(yr);
            prop_assert!((before - after).abs() < 1e-12 * (1.0 + before), "norm not preserved");

            let (r, zero) = rot.apply(f, g);
            prop_assert!(zero.abs() < 1e-12 * (1.0 + f.hypot(g)), "g not annihilated");
            prop_assert!((r.abs() - f.hypot(g)).abs() < 1e-12 * (1.0 + f.hypot(g)));
        }
    }
}
